"""Point-to-point routing tables (Section 5.2).

P2p packets carry system-management traffic.  They use conventional 16-bit
source and destination addresses and are "routed algorithmically": each
chip holds a table giving, for every destination chip, the output link on
which to forward a packet (or "local" when the destination is this chip).

The tables are configured during the second phase of boot, after the
coordinate-propagation flood has told every chip where it is.  Each entry
is the first hop of the shortest dimension-ordered route the multicast
default routing uses, so the two fabrics behave consistently; a chip's
table is a view of the geometry's one displacement table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.geometry import ChipCoordinate, Direction, TorusGeometry


@dataclass(frozen=True)
class P2PRoutingTable:
    """One chip's point-to-point routing table.

    The table maps every chip of ``geometry`` to the link on which to
    forward a packet heading there.  ``None`` means the destination is the
    local chip.
    """

    coordinate: ChipCoordinate
    geometry: TorusGeometry

    def next_hop(self, destination: ChipCoordinate) -> Optional[Direction]:
        """The link towards ``destination`` (``None`` if it is this chip).

        Raises
        ------
        KeyError
            If the destination is not a chip of the table's geometry (for
            example a chip outside, or condemned out of, a lease).
        """
        if not self.geometry.contains(destination):
            raise KeyError(destination)
        return self.geometry.first_hop(self.coordinate, destination)

    def knows(self, destination: ChipCoordinate) -> bool:
        """True if the table has an entry for ``destination``."""
        return self.geometry.contains(destination)

    def __len__(self) -> int:
        return self.geometry.n_chips
