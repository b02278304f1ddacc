"""Shared SDRAM model (Figure 3).

Each SpiNNaker node pairs the MPSoC with a 1 Gbit (128 Mbyte) mobile DDR
SDRAM.  The SDRAM holds the synaptic connectivity data: when a spike packet
arrives, the receiving core DMAs the corresponding synaptic row from SDRAM
into its local data memory (Section 5.3).

The model tracks:

* a word-addressable backing store: one array at 4 bytes per word, grown
  on write (a 128 Mbyte address space costs memory only up to the highest
  word written); a block read or write is one slice, checked and charged
  to the traffic counters once per block;
* an access-time model — fixed latency plus a per-byte transfer cost — used
  by the DMA controller;
* contention: the memory interface serves one burst at a time, so
  overlapping requests queue behind each other (the System NoC arbitrates).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

assert array("I").itemsize == 4, "SDRAM words need a 4-byte array type"

#: Default SDRAM size: 1 Gbit = 128 Mbyte.
DEFAULT_SDRAM_BYTES = 128 * 1024 * 1024
#: First-word access latency of the mobile DDR part, in microseconds.
DEFAULT_ACCESS_LATENCY_US = 0.1
#: Sustained transfer bandwidth of the memory interface, in bytes per
#: microsecond (~1 Gbyte/s shared across the 20 cores of a node).
DEFAULT_BANDWIDTH_BYTES_PER_US = 1000.0


class SDRAMAllocationError(Exception):
    """Raised when an allocation request cannot be satisfied."""


@dataclass
class SDRAMRegion:
    """A contiguous allocated region of SDRAM."""

    base: int
    size: int
    tag: str = ""

    @property
    def end(self) -> int:
        """One past the last byte of the region."""
        return self.base + self.size

    def __contains__(self, address: int) -> bool:
        return self.base <= address < self.end


@dataclass
class SDRAM:
    """The node's shared SDRAM with a simple bump allocator and timing model."""

    size_bytes: int = DEFAULT_SDRAM_BYTES
    access_latency_us: float = DEFAULT_ACCESS_LATENCY_US
    bandwidth_bytes_per_us: float = DEFAULT_BANDWIDTH_BYTES_PER_US
    _next_free: int = 0
    _regions: List[SDRAMRegion] = field(default_factory=list)
    _words: array = field(default_factory=lambda: array("I"), repr=False)
    _busy_until: float = 0.0
    total_bytes_read: int = 0
    total_bytes_written: int = 0

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate(self, size: int, tag: str = "") -> SDRAMRegion:
        """Allocate ``size`` bytes and return the region descriptor.

        Allocation is a simple bump allocator: the real machine builds its
        SDRAM layout once at load time, so fragmentation is not a concern.

        Raises
        ------
        SDRAMAllocationError
            If the request does not fit in the remaining space.
        """
        if size <= 0:
            raise ValueError("allocation size must be positive, got %r" % (size,))
        # Word-align every region.
        aligned = (size + 3) & ~3
        if self._next_free + aligned > self.size_bytes:
            raise SDRAMAllocationError(
                "cannot allocate %d bytes: %d of %d bytes already in use"
                % (size, self._next_free, self.size_bytes)
            )
        region = SDRAMRegion(base=self._next_free, size=aligned, tag=tag)
        self._next_free += aligned
        self._regions.append(region)
        return region

    def free(self, region: SDRAMRegion) -> None:
        """Release a region allocated earlier.

        The bump allocator only reclaims address space when the freed
        region is the most recent allocation; interior regions are
        forgotten (their words are zeroed and the region no longer shows
        up in :attr:`regions`) but their addresses are not reused.  This
        matches the real machine's load-time layout discipline while
        letting the incremental mapping compiler drop the synaptic blocks
        of a vertex it moved off the chip.
        """
        try:
            self._regions.remove(region)
        except ValueError:
            raise ValueError("region %r was not allocated from this SDRAM"
                             % (region,))
        lo, hi = region.base >> 2, min(region.end >> 2, len(self._words))
        self._words[lo:max(lo, hi)] = array("I", bytes(4 * max(0, hi - lo)))
        if region.end == self._next_free:
            self._next_free = region.base

    @property
    def bytes_allocated(self) -> int:
        """Total bytes handed out so far."""
        return self._next_free

    @property
    def bytes_free(self) -> int:
        """Bytes still available for allocation."""
        return self.size_bytes - self._next_free

    @property
    def regions(self) -> List[SDRAMRegion]:
        """All allocated regions in allocation order."""
        return list(self._regions)

    def region_for(self, tag: str) -> Optional[SDRAMRegion]:
        """Return the first region allocated with ``tag``, or ``None``."""
        for region in self._regions:
            if region.tag == tag:
                return region
        return None

    # ------------------------------------------------------------------
    # Data access (word granularity)
    # ------------------------------------------------------------------
    def write_word(self, address: int, value: int) -> None:
        """Write a 32-bit word at a byte address (must be word-aligned)."""
        self.write_block(address, [value])

    def read_word(self, address: int) -> int:
        """Read a 32-bit word; unwritten locations read as zero."""
        return self.read_block(address, 1)[0]

    def write_block(self, address: int, words) -> None:
        """Write consecutive 32-bit words starting at ``address``.

        ``words`` is a sequence of ints (masked to 32 bits) or a contiguous
        ``uint32`` buffer such as a NumPy array; the whole block is checked
        before any word is written.
        """
        try:
            view = memoryview(words)
        except TypeError:
            block = array("I", [word & 0xFFFFFFFF for word in words])
        else:
            if view.format != "I":
                raise TypeError("not a uint32 buffer: %r" % (view.format,))
            block = array("I")
            block.frombytes(view.cast("B"))
        lo, hi = self._span(address, len(block))
        self._words.frombytes(bytes(4 * max(0, hi - len(self._words))))
        self._words[lo:hi] = block
        self.total_bytes_written += 4 * len(block)

    def read_block(self, address: int, n_words: int) -> List[int]:
        """Read ``n_words`` consecutive 32-bit words starting at ``address``."""
        block = self.peek_block(address, n_words)
        self.total_bytes_read += 4 * len(block)
        return block.tolist()

    def peek_block(self, address: int, n_words: int) -> array:
        """Read a block, as an ``array('I')``, *without* charging the counters.

        For tooling that inspects memory outside the simulated dataflow —
        e.g. a check reading an installed synaptic block back — so
        ``total_bytes_read`` keeps meaning "bytes the simulated machine
        moved".
        """
        lo, hi = self._span(address, n_words)
        block = self._words[lo:hi]
        block.frombytes(bytes(4 * (hi - lo - len(block))))
        return block

    def _span(self, address: int, n_words: int) -> Tuple[int, int]:
        """Word indices ``(lo, hi)`` of a block, checked as a whole."""
        if n_words > 0:
            self._check_address(address)
            self._check_address(address + 4 * (n_words - 1))
        return address >> 2, (address >> 2) + max(n_words, 0)

    def _check_address(self, address: int) -> None:
        if address % 4 != 0:
            raise ValueError("address 0x%x is not word-aligned" % (address,))
        if not 0 <= address < self.size_bytes:
            raise ValueError("address 0x%x is outside the %d-byte SDRAM"
                             % (address, self.size_bytes))

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def transfer_time(self, n_bytes: int) -> float:
        """Time (microseconds) for an uncontended burst of ``n_bytes``."""
        if n_bytes < 0:
            raise ValueError("transfer size must be non-negative")
        return self.access_latency_us + n_bytes / self.bandwidth_bytes_per_us

    def schedule_transfer(self, now: float, n_bytes: int) -> float:
        """Account for contention and return the completion time of a burst.

        The interface serves one burst at a time; a burst issued while a
        previous one is still in flight starts when the interface frees up.
        """
        start = max(now, self._busy_until)
        finish = start + self.transfer_time(n_bytes)
        self._busy_until = finish
        return finish
