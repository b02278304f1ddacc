"""Multi-board sharded simulation (``repro.cluster``).

The paper's machine is assembled from 48-chip boards scaled towards a
million cores; everything below one board is a PCB trace, everything
between boards goes through slower serialising cables.  The board grid
itself is :class:`~repro.core.machine.MachineConfig`'s tiling; this
package exploits it for execution:

* :class:`~repro.cluster.fused.FusedBoardEngine` — the deterministic,
  tick-synchronous executor of a sequence of boards' compiled
  sub-contexts (see the ShardByBoard pass of :mod:`repro.compile`):
  per-model stacked state blocks, one shared deferred-event ring, one
  fused scatter of a tick's fired cells;
* :class:`~repro.cluster.exchange.ExchangePlan` and
  :class:`~repro.cluster.exchange.SharedMemoryExchange` — the pool's
  spike data path: the run's plan-cell numbering, worker-side routing
  tables, preallocated shared-memory regions of packed ``uint32``
  records (one region per worker pair, one record per tick and
  destination), and the conservative-lookahead super-step schedule
  (``L = 1 + d_min`` ticks between barriers);
* :class:`~repro.cluster.application.ClusterApplication` — the sharded
  runner: each worker steps a contiguous run of boards as one engine.
  Serially that is one engine over every board with no exchange; in a
  pool of persistent worker processes, the engines exchange the spikes
  that cross between workers through shared memory at super-step
  barriers.  Results are bit-identical whatever the worker count or
  lookahead depth, and spike-train-equivalent to the unsharded
  on-machine engine (``NeuralApplication(transport="fabric",
  stagger_us=0)``).  Every run times each worker once, into one table
  of compute / prefetch / serialize / exchange / barrier-wait seconds
  (:data:`~repro.cluster.application.STAGES`); the engine itself reads
  no clock.
"""

from repro.cluster.application import (
    ClusterApplication,
    ClusterReport,
    ClusterWorkerError,
)
from repro.cluster.exchange import (
    ExchangePlan,
    SharedMemoryExchange,
    superstep_schedule,
)
from repro.cluster.fused import FusedBoardEngine

__all__ = [
    "ClusterApplication",
    "ClusterReport",
    "ClusterWorkerError",
    "ExchangePlan",
    "FusedBoardEngine",
    "SharedMemoryExchange",
    "superstep_schedule",
]
