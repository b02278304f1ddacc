"""Mapping neural networks onto the machine (Section 5.3, refs [18][19]).

"Neurons must be mapped to processors, multicast routing tables computed,
connectivity data constructed, and relevant input/output mechanisms
deployed."  This package is the library of algorithms and data
structures that tool-chain is made of; the tool-chain itself — the one
driver that runs them in order, caches their artifacts and re-maps
incrementally — is the pass pipeline of :mod:`repro.compile`:

* :mod:`repro.mapping.placement` — split populations into core-sized
  vertices and place them on application cores (virtualised topology:
  any neuron may go to any processor, but locality is exploited when
  possible);
* :mod:`repro.mapping.keys` — allocate the 32-bit AER routing keys and
  masks that identify each source neuron;
* :mod:`repro.mapping.routing_generator` — merge shortest routes into
  the multicast tree that realises a source vertex's projections;
* :mod:`repro.mapping.compression` — minimise the installed per-chip
  routing tables;
* :mod:`repro.mapping.synaptic_matrix` — pack a projection's synaptic
  rows into the target chip's SDRAM, index them in the master population
  table the packet-received handler searches, and decode each block
  once into the delivery leg every engine reads.
"""

from repro.mapping.keys import KeyAllocator, KeySpace
from repro.mapping.placement import Placement, Placer, Vertex
from repro.mapping.routing_generator import RoutingSummary, build_tree
from repro.mapping.synaptic_matrix import (
    CoreSynapticData,
    MasterPopulationTable,
    pack_blocks,
    write_blocks,
)

__all__ = [
    "KeyAllocator",
    "KeySpace",
    "Placement",
    "Placer",
    "Vertex",
    "RoutingSummary",
    "build_tree",
    "CoreSynapticData",
    "MasterPopulationTable",
    "pack_blocks",
    "write_blocks",
]
