"""Per-core DMA controller (Figure 4).

Each processor subsystem contains a DMA controller "typically used to
transfer blocks of synaptic connectivity data from the SDRAM to the
processor local memory in response to the arrival of an incoming neural
spike event" (Section 4).  The application model of Figure 7 drives it:

* when a multicast packet arrives, the packet handler schedules a DMA read
  of the corresponding synaptic row;
* when the DMA completes, a DMA-complete interrupt fires, the row is
  processed, and — if the row was modified (plasticity) — a write-back DMA
  is scheduled.

The controller processes one request at a time and keeps a FIFO of pending
requests, exactly like the hardware.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Deque, List, Optional

from repro.core.event_kernel import EventKernel
from repro.core.noc import SystemNoC
from repro.core.sdram import SDRAM


class DMADirection(Enum):
    """Transfer direction of a DMA request."""

    READ = "read"      #: SDRAM -> local data memory (DTCM)
    WRITE = "write"    #: local data memory -> SDRAM (write-back)


@dataclass
class DMARequest:
    """A single DMA transfer request.

    Attributes
    ----------
    direction:
        :attr:`DMADirection.READ` or :attr:`DMADirection.WRITE`.
    sdram_address:
        Byte address of the transfer in SDRAM (word aligned).
    n_words:
        Number of 32-bit words to transfer.
    on_complete:
        Callback invoked as ``on_complete(request)`` when the transfer
        finishes — this is the DMA-complete interrupt of Figure 7.
    data:
        For writes, the words to store.  For reads, filled in on completion.
    context:
        Arbitrary application context (for example the routing key whose
        synaptic row is being fetched) carried through to the callback.
    """

    direction: DMADirection
    sdram_address: int
    n_words: int
    on_complete: Optional[Callable[["DMARequest"], None]] = None
    data: Optional[List[int]] = None
    context: Any = None
    issue_time: float = 0.0
    start_time: float = 0.0
    complete_time: float = 0.0

    @property
    def n_bytes(self) -> int:
        """Size of the transfer in bytes."""
        return self.n_words * 4

    @property
    def queue_delay(self) -> float:
        """Time the request spent waiting behind other transfers."""
        return self.start_time - self.issue_time

    @property
    def total_latency(self) -> float:
        """Time from issue to completion."""
        return self.complete_time - self.issue_time


@dataclass
class DMAController:
    """The per-core DMA engine.

    The controller owns a FIFO of outstanding requests; one request is in
    flight at a time.  Transfer timing is delegated to the SDRAM model,
    which also accounts for contention between the cores of a chip; each
    read also crosses the chip's System NoC.
    """

    kernel: EventKernel
    sdram: SDRAM
    system_noc: SystemNoC
    #: Fixed per-request setup cost (descriptor write + bridge crossing).
    setup_time_us: float = 0.2
    _queue: Deque[DMARequest] = field(default_factory=deque)
    _active: Optional[DMARequest] = None
    completed_transfers: int = 0
    total_words_transferred: int = 0

    # ------------------------------------------------------------------
    # Issue
    # ------------------------------------------------------------------
    def issue(self, request: DMARequest) -> DMARequest:
        """Queue a DMA request; it starts as soon as the engine is free."""
        request.issue_time = self.kernel.now
        self._queue.append(request)
        if self._active is None:
            self._start_next()
        return request

    def read(self, sdram_address: int, n_words: int,
             on_complete: Optional[Callable[[DMARequest], None]] = None,
             context: Any = None) -> DMARequest:
        """Convenience wrapper to issue a read request."""
        return self.issue(DMARequest(direction=DMADirection.READ,
                                     sdram_address=sdram_address,
                                     n_words=n_words,
                                     on_complete=on_complete,
                                     context=context))

    def write(self, sdram_address: int, data: List[int],
              on_complete: Optional[Callable[[DMARequest], None]] = None,
              context: Any = None) -> DMARequest:
        """Convenience wrapper to issue a write(-back) request."""
        return self.issue(DMARequest(direction=DMADirection.WRITE,
                                     sdram_address=sdram_address,
                                     n_words=len(data),
                                     data=list(data),
                                     on_complete=on_complete,
                                     context=context))

    # ------------------------------------------------------------------
    # Engine state machine
    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """Whether a transfer is currently in flight."""
        return self._active is not None

    @property
    def queue_length(self) -> int:
        """Number of requests waiting behind the active one."""
        return len(self._queue)

    def _start_next(self) -> None:
        if not self._queue:
            return
        request = self._queue.popleft()
        self._active = request
        request.start_time = self.kernel.now
        completion = self.sdram.schedule_transfer(
            self.kernel.now + self.setup_time_us, request.n_bytes)
        self.kernel.schedule(completion, self._complete, priority=2,
                             label="dma-complete", request=request)

    def _complete(self, _kernel: EventKernel, request: DMARequest) -> None:
        # Perform the data movement at completion time.
        if request.direction is DMADirection.READ:
            request.data = self.sdram.peek_block(request.sdram_address,
                                                 request.n_words).tolist()
            self.record_reads(1, request.n_words)
        else:
            if request.data is None:
                raise RuntimeError("write DMA issued without data")
            self.sdram.write_block(request.sdram_address, request.data)
            self.completed_transfers += 1
            self.total_words_transferred += request.n_words
        request.complete_time = self.kernel.now
        self._active = None
        # The DMA-complete handler of Figure 7 initiates the next scheduled
        # transfer before processing the data, which is what we do here.
        self._start_next()
        if request.on_complete is not None:
            request.on_complete(request)

    def record_reads(self, n: int, n_words: int) -> None:
        """Count ``n`` completed reads of ``n_words`` words each: transfers,
        words, SDRAM bytes read and one System NoC transfer per read (no
        timing; the compiled transport fabric counts a batch at once)."""
        n_bytes = 4 * n * n_words
        self.completed_transfers += n
        self.total_words_transferred += n * n_words
        self.sdram.total_bytes_read += n_bytes
        self.system_noc.record_batch(n, n_bytes, initiator="dma")
