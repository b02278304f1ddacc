"""Multicast routing tables (Section 4).

Each router holds an associative (CAM) table of 1024 entries.  An entry
matches a 32-bit routing key under a ternary mask and yields a *route*: the
set of inter-chip links and local processor cores to which a matching
packet is copied.  Multicast — copying one incoming packet to several
outputs — is what lets a single spike packet reach the thousands of target
neurons implied by biological connectivity without a separate packet per
target.

The module also provides the standard table-minimisation step used by the
mapping tool-chain: adjacent entries with identical routes are merged where
a valid ternary covering exists, which is what makes the 1024-entry table
sufficient for large networks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.core.geometry import Direction
from repro.core.packets import KEY_BITS

#: Number of associative entries in the hardware multicast router.
DEFAULT_TABLE_SIZE = 1024

_KEY_MASK = (1 << KEY_BITS) - 1


class RoutingTableFullError(Exception):
    """Raised when more entries are added than the CAM can hold."""


@dataclass(frozen=True)
class RoutingEntry:
    """One associative routing entry.

    Attributes
    ----------
    key, mask:
        The entry matches a packet key ``k`` when ``k & mask == key & mask``.
    link_directions:
        Inter-chip links on which matching packets are forwarded.
    processor_ids:
        Local cores to which matching packets are delivered.
    """

    key: int
    mask: int
    link_directions: FrozenSet[Direction] = frozenset()
    processor_ids: FrozenSet[int] = frozenset()

    def __post_init__(self) -> None:
        if not 0 <= self.key <= _KEY_MASK:
            raise ValueError("key 0x%x does not fit in %d bits" % (self.key, KEY_BITS))
        if not 0 <= self.mask <= _KEY_MASK:
            raise ValueError("mask 0x%x does not fit in %d bits" % (self.mask, KEY_BITS))
        if self.key & ~self.mask & _KEY_MASK:
            raise ValueError(
                "key 0x%x has bits set outside mask 0x%x" % (self.key, self.mask))

    def matches(self, key: int) -> bool:
        """True if a packet with routing key ``key`` hits this entry."""
        return (key & self.mask) == self.key

    @property
    def route(self) -> Tuple[FrozenSet[Direction], FrozenSet[int]]:
        """The (links, cores) output set of this entry."""
        return self.link_directions, self.processor_ids

    @property
    def span(self) -> int:
        """Number of distinct keys covered by this entry (2**wildcards)."""
        wildcard_bits = KEY_BITS - bin(self.mask).count("1")
        return 1 << wildcard_bits

    def same_route(self, other: "RoutingEntry") -> bool:
        """True if both entries copy packets to exactly the same outputs."""
        return (self.link_directions == other.link_directions and
                self.processor_ids == other.processor_ids)


class MulticastRoutingTable:
    """The per-chip associative routing table.

    Lookup returns the *first* matching entry, as in the hardware, so entry
    order is significant when masks overlap.
    """

    def __init__(self, capacity: int = DEFAULT_TABLE_SIZE) -> None:
        if capacity <= 0:
            raise ValueError("table capacity must be positive")
        self.capacity = capacity
        self._entries: List[RoutingEntry] = []
        self.lookups = 0
        self.misses = 0
        #: Key-indexed lookup cache, grouped by mask:
        #: ``{mask: {key & mask: position of first matching entry}}``.
        #: Built lazily and invalidated by every mutation, so lookups are
        #: O(distinct masks) instead of O(entries) while preserving the
        #: hardware's first-match semantics exactly.
        self._index: Optional[Dict[int, Dict[int, int]]] = None

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    def add_entry(self, entry: RoutingEntry) -> None:
        """Append an entry.

        Raises
        ------
        RoutingTableFullError
            If the CAM is already full.
        """
        if len(self._entries) >= self.capacity:
            raise RoutingTableFullError(
                "routing table full: capacity %d" % (self.capacity,))
        self._entries.append(entry)
        self._index = None

    def add(self, key: int, mask: int,
            links: Iterable[Direction] = (),
            cores: Iterable[int] = ()) -> RoutingEntry:
        """Convenience wrapper building and adding a :class:`RoutingEntry`."""
        entry = RoutingEntry(key=key, mask=mask,
                             link_directions=frozenset(links),
                             processor_ids=frozenset(cores))
        self.add_entry(entry)
        return entry

    def extend(self, entries: Iterable[RoutingEntry]) -> None:
        """Add several entries in order."""
        for entry in entries:
            self.add_entry(entry)

    def clear(self) -> None:
        """Remove every entry (used when reloading an application)."""
        self._entries.clear()
        self._index = None

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _build_index(self) -> Dict[int, Dict[int, int]]:
        """(Re)build the mask-grouped key index over the current entries."""
        index: Dict[int, Dict[int, int]] = {}
        for position, entry in enumerate(self._entries):
            bucket = index.setdefault(entry.mask, {})
            # First match wins within a mask group; across groups the
            # smallest entry position decides, which route_for resolves.
            bucket.setdefault(entry.key, position)
        self._index = index
        return index

    def route_for(self, key: int) -> Optional[RoutingEntry]:
        """Indexed first-match lookup that leaves the hit/miss counters alone.

        Used by the route compiler and the table-compression validator,
        which probe the table exhaustively and must not distort the
        statistics the Monitor Processor reads.
        """
        index = self._index if self._index is not None else self._build_index()
        best_position: Optional[int] = None
        for mask, bucket in index.items():
            position = bucket.get(key & mask)
            if position is not None and (best_position is None
                                         or position < best_position):
                best_position = position
        if best_position is None:
            return None
        return self._entries[best_position]

    def lookup(self, key: int) -> Optional[RoutingEntry]:
        """Return the first entry matching ``key``, or ``None`` on a miss."""
        entry = self.route_for(key)
        self.record_lookups(1, hit=entry is not None)
        return entry

    def record_lookups(self, n: int, hit: bool) -> None:
        """Count ``n`` lookups that all hit or all missed, without
        searching (the compiled transport fabric replays a batch)."""
        self.lookups += n
        if not hit:
            self.misses += n

    def compile_routes(self, keys: Iterable[int]
                       ) -> Dict[int, Optional[Tuple[FrozenSet[Direction],
                                                     FrozenSet[int]]]]:
        """The key -> route function this table implements over ``keys``.

        Keys that miss every entry map to ``None`` (default routing).
        This is the per-chip building block of the compiled transport
        fabric (:mod:`repro.router.fabric`) and of routing-table
        compression, both of which need the exact observable behaviour of
        the table rather than its entry list.
        """
        routes: Dict[int, Optional[Tuple[FrozenSet[Direction],
                                         FrozenSet[int]]]] = {}
        for key in keys:
            entry = self.route_for(key)
            routes[key] = None if entry is None else entry.route
        return routes

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    @property
    def entries(self) -> List[RoutingEntry]:
        """The entries in lookup order."""
        return list(self._entries)

    @property
    def occupancy(self) -> float:
        """Fraction of the CAM in use."""
        return len(self._entries) / self.capacity

    # ------------------------------------------------------------------
    # Minimisation
    # ------------------------------------------------------------------
    def minimise(self) -> int:
        """Merge same-route entries that differ in a single mask-covered bit.

        This is the classic Espresso-lite pairwise reduction used by the
        SpiNNaker tool-chain: two entries with identical routes and
        identical masks whose keys differ in exactly one bit are replaced by
        a single entry with that bit removed from the mask.  The pass
        repeats until no further merge is possible.

        Returns the number of entries eliminated.
        """
        eliminated = 0
        self._index = None
        merged = True
        while merged:
            merged = False
            by_route: Dict[Tuple[FrozenSet[Direction], FrozenSet[int], int],
                           List[RoutingEntry]] = {}
            for entry in self._entries:
                by_route.setdefault(
                    (entry.link_directions, entry.processor_ids, entry.mask),
                    []).append(entry)
            for (links, cores, mask), group in by_route.items():
                if len(group) < 2:
                    continue
                pair = _find_mergeable_pair(group)
                if pair is None:
                    continue
                first, second = pair
                differing_bit = (first.key ^ second.key)
                new_entry = RoutingEntry(
                    key=first.key & ~differing_bit,
                    mask=mask & ~differing_bit & _KEY_MASK,
                    link_directions=links,
                    processor_ids=cores)
                index = self._entries.index(first)
                self._entries.remove(first)
                self._entries.remove(second)
                self._entries.insert(index, new_entry)
                eliminated += 1
                merged = True
        return eliminated


def _find_mergeable_pair(group: List[RoutingEntry]
                         ) -> Optional[Tuple[RoutingEntry, RoutingEntry]]:
    """Find two entries in ``group`` whose keys differ in exactly one bit."""
    for i, first in enumerate(group):
        for second in group[i + 1:]:
            difference = first.key ^ second.key
            if difference != 0 and (difference & (difference - 1)) == 0:
                return first, second
    return None
