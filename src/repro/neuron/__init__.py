"""Spiking-neuron substrate.

SpiNNaker exists to simulate large systems of spiking neurons in biological
real time (Section 1).  This package provides the neuron-level substrate of
the reproduction:

* :mod:`repro.neuron.lif` and :mod:`repro.neuron.izhikevich` — the two
  point-neuron models the architecture is optimised for, updated on the
  1 ms tick of the real-time application model;
* :mod:`repro.neuron.synapse` — the synaptic-word field widths, the
  post-synaptic input ring buffer and the *deferred-event model* that
  re-inserts the programmable ("soft") axonal delays removed by the
  electronically instantaneous interconnect (Section 3.2);
* :mod:`repro.neuron.engine` — the one form an expanded projection
  takes: flat ``row_ptr``/``targets``/``weights``/``delay_ticks`` CSR
  arrays, batch-scattered into the ring buffers, plus the packed
  32-bit synaptic-word codec;
* :mod:`repro.neuron.connectors` — connection-pattern generators
  (one-to-one, all-to-all, fixed-probability, distance-dependent)
  expanding straight into that CSR form;
* :mod:`repro.neuron.population` — a PyNN-flavoured population/projection
  network-description API;
* :mod:`repro.neuron.kernel` — the tick kernel: Figure 7's timer task
  (stimulus, drain, update, record) written once for a set of units
  that share a tick, under the host loop, the on-machine runtime and the
  cluster's board engine alike;
* :mod:`repro.neuron.network` — a host-side reference simulator used as
  the behavioural baseline for the on-machine runtime;
* :mod:`repro.neuron.stdp` — spike-timing-dependent plasticity, the
  "connectivity data is modified ... write the changes back into SDRAM"
  path of Section 5.3.
"""

from repro.neuron.connectors import (
    AllToAllConnector,
    DistanceDependentConnector,
    FixedProbabilityConnector,
    OneToOneConnector,
)
from repro.neuron.engine import (
    CSRMatrix,
    pack_synapse_words,
    unpack_synapse_words,
)
from repro.neuron.izhikevich import IzhikevichParameters, IzhikevichPopulation
from repro.neuron.kernel import SpikeRecord, TickKernel, TickUnit
from repro.neuron.lif import LIFParameters, LIFPopulation
from repro.neuron.network import Network, SimulationResult
from repro.neuron.population import (
    Population,
    Projection,
    SpikeSourceArray,
    SpikeSourcePoisson,
)
from repro.neuron.stdp import STDPParameters, STDPMechanism
from repro.neuron.synapse import DeferredEventBuffer

__all__ = [
    "CSRMatrix",
    "pack_synapse_words",
    "unpack_synapse_words",
    "AllToAllConnector",
    "DistanceDependentConnector",
    "FixedProbabilityConnector",
    "OneToOneConnector",
    "IzhikevichParameters",
    "IzhikevichPopulation",
    "LIFParameters",
    "LIFPopulation",
    "Network",
    "SimulationResult",
    "SpikeRecord",
    "TickKernel",
    "TickUnit",
    "Population",
    "Projection",
    "SpikeSourceArray",
    "SpikeSourcePoisson",
    "STDPParameters",
    "STDPMechanism",
    "DeferredEventBuffer",
]
