"""repro — a Python reproduction of the SpiNNaker architecture.

This package reproduces, in simulation, the system described in
"Biologically-Inspired Massively-Parallel Architectures — computing beyond a
million processors" (Furber & Brown, DATE 2011).  It provides:

* ``repro.core`` — the discrete-event simulation kernel and the machine model
  (toroidal triangular mesh of chip multiprocessors, processor subsystems,
  DMA, SDRAM, NoC fabrics and packet formats).
* ``repro.router`` — the multicast AER packet router with key/mask tables,
  default routing, emergency routing and algorithmic point-to-point routing.
* ``repro.link`` — the self-timed inter-chip link layer: 2-of-7 NRZ and
  3-of-6 RTZ delay-insensitive codes, the glitch-tolerant phase converter and
  the single-token channel with its two-token reset protocol.
* ``repro.neuron`` — the spiking-neuron substrate (LIF and Izhikevich models,
  synaptic rows with programmable "soft" delays, the deferred-event model and
  a population/projection network-description API).
* ``repro.coding`` — neural information coding: rate codes, N-of-M codes,
  rank-order codes and a retinal ganglion-cell (difference-of-Gaussians)
  encoder with lateral inhibition.
* ``repro.mapping`` — placement of neurons onto cores, routing-key
  allocation, multicast routing-table generation and synaptic-matrix
  construction.
* ``repro.runtime`` — the event-driven real-time application model (Fig. 7),
  the monitor processor, the boot protocol and flood-fill application
  loading.
* ``repro.fault`` — fault injection (links, cores, neurons) and mitigation.
* ``repro.energy`` — MIPS/W and MIPS/mm² models, wire-transition energy and
  the ownership-cost model of Section 3.3.
* ``repro.host`` — the Ethernet-attached host system.
* ``repro.analysis`` — latency, traffic, spike-raster and information
  metrics used by the benchmarks.
* ``repro.alloc`` — multi-tenant machine allocation and job scheduling:
  rectangular torus-aware leases, priority queues with per-tenant quotas,
  keepalive/expiry reclamation and the host-side allocation server.
"""

from repro.alloc import (
    AllocationScheduler,
    AllocationServer,
    Job,
    JobRequest,
    JobState,
    Lease,
    LeasedMachineView,
    MachinePartitioner,
    TenantQuota,
)
from repro.core.event_kernel import Event, EventKernel
from repro.core.geometry import ChipCoordinate, Direction, TorusGeometry
from repro.core.machine import MachineConfig, SpiNNakerMachine
from repro.core.packets import (
    MulticastPacket,
    NearestNeighbourPacket,
    PointToPointPacket,
)

__version__ = "1.0.0"

__all__ = [
    "Event",
    "EventKernel",
    "ChipCoordinate",
    "Direction",
    "TorusGeometry",
    "MachineConfig",
    "SpiNNakerMachine",
    "MulticastPacket",
    "PointToPointPacket",
    "NearestNeighbourPacket",
    "AllocationScheduler",
    "AllocationServer",
    "Job",
    "JobRequest",
    "JobState",
    "Lease",
    "LeasedMachineView",
    "MachinePartitioner",
    "TenantQuota",
    "__version__",
]
