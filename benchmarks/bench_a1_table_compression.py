"""A1 (ablation) — Routing-table size under the three compression levels.

Design choice examined: the paper relies on a fixed 1024-entry associative
routing table per chip (Section 4), which is only sufficient because the
mapping tool-chain compresses the per-vertex entries.  This ablation maps
the same network three ways — no minimisation, the conservative pairwise
``minimise()`` pass, and the key-population-aware :class:`TableCompressor`
— and reports the worst-case and total table occupancy for each.
"""

from __future__ import annotations

from repro.compile import MappingPipeline
from repro.core.machine import MachineConfig, SpiNNakerMachine
from repro.mapping.compression import TableCompressor, compress_machine
from repro.neuron.connectors import FixedProbabilityConnector
from repro.neuron.network import Network
from repro.neuron.population import Population, SpikeSourcePoisson
from repro.runtime.boot import BootController

from .reporting import emit_json, print_table

WIDTH = HEIGHT = 4
NEURONS = 160
NEURONS_PER_CORE = 16


def _network(seed=31):
    network = Network(seed=seed)
    stimulus = SpikeSourcePoisson(NEURONS, rate_hz=40.0, label="a1-stim")
    excitatory = Population(NEURONS, "lif", label="a1-exc")
    inhibitory = Population(NEURONS // 4, "lif", label="a1-inh")
    network.connect(stimulus, excitatory,
                    FixedProbabilityConnector(p_connect=0.1, weight=0.5,
                                              delay_range=(1, 4)))
    network.connect(excitatory, inhibitory,
                    FixedProbabilityConnector(p_connect=0.1, weight=0.4))
    network.connect(inhibitory, excitatory,
                    FixedProbabilityConnector(p_connect=0.1, weight=-0.6))
    return network


def _mapped_machine(minimise):
    machine = SpiNNakerMachine(MachineConfig(width=WIDTH, height=HEIGHT,
                                             cores_per_chip=8))
    BootController(machine, seed=1).boot()
    ctx = MappingPipeline(machine, _network(), seed=31,
                          max_neurons_per_core=NEURONS_PER_CORE,
                          minimise=minimise).run()
    return machine, ctx.keys


def _table_stats(machine):
    sizes = [len(chip.router.table) for chip in machine]
    return {"total": sum(sizes), "worst": max(sizes)}


def _compression_study():
    machine, keys = _mapped_machine(minimise=False)
    uncompressed = _table_stats(machine)

    machine_minimised, _ = _mapped_machine(minimise=True)
    minimised = _table_stats(machine_minimised)

    reports = compress_machine(machine, keys)
    compressed = _table_stats(machine)
    keys_checked = max(report.keys_checked for report in reports.values())
    return uncompressed, minimised, compressed, keys_checked


def test_a1_table_compression(benchmark):
    uncompressed, minimised, compressed, keys_checked = benchmark(
        _compression_study)

    rows = [
        ("per-vertex entries (no compression)",
         uncompressed["total"], uncompressed["worst"]),
        ("pairwise minimise()", minimised["total"], minimised["worst"]),
        ("key-aware TableCompressor", compressed["total"], compressed["worst"]),
    ]
    print_table("A1: routing-table occupancy, %d neurons on a %dx%d machine "
                "(%d known keys)" % (2 * NEURONS + NEURONS // 4, WIDTH, HEIGHT,
                                     keys_checked),
                rows, headers=("tool-chain pass", "total entries",
                               "worst chip"))

    emit_json("a1", {
        "uncompressed_total_entries": uncompressed["total"],
        "minimised_total_entries": minimised["total"],
        "compressed_total_entries": compressed["total"],
        "compressed_worst_chip_entries": compressed["worst"],
        "keys_checked": keys_checked,
    })

    # Each pass must be at least as small as the one before it, and every
    # chip must fit comfortably inside the 1024-entry CAM.
    assert minimised["total"] <= uncompressed["total"]
    assert compressed["total"] <= minimised["total"]
    assert compressed["worst"] <= 1024
    assert compressed["total"] < uncompressed["total"]
