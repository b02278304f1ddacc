"""E18 — Pass-based mapping compiler: cold compile vs incremental re-map.

The paper's tool-chain compiles a network description into per-core
routing tables and synaptic data before a run; its fault story (map out
a suspect chip, carry on) only works in real time if a re-map costs far
less than the original compile.  This benchmark compiles a 48-chip
workload cold through `repro.compile`, condemns one populated chip via
the monitor, and measures the incremental re-map the pipeline performs —
asserting it beats a full recompile by at least 5x (the cached
expansion, reach and packed-block artifacts make the re-map touch only
the displaced vertices).
"""

from __future__ import annotations

import time

from repro.compile import MappingPipeline
from repro.core.machine import MachineConfig, SpiNNakerMachine
from repro.neuron.connectors import FixedProbabilityConnector
from repro.neuron.network import Network
from repro.neuron.population import Population, SpikeSourcePoisson
from repro.runtime.boot import BootController
from repro.runtime.monitor import MonitorService

from .reporting import attach_profile, emit_json, print_metrics, print_table

SEED = 18
WIDTH, HEIGHT = 8, 6            # 48 chips
CORES_PER_CHIP = 4              # 1 monitor + 3 application cores per chip
N_PAIRS = 14                    # stimulus -> excitatory population pairs
NEURONS = 256
NEURONS_PER_CORE = 64
MIN_SPEEDUP = 5.0


def _build_network() -> Network:
    network = Network(seed=SEED)
    for pair in range(N_PAIRS):
        stimulus = SpikeSourcePoisson(NEURONS, rate_hz=40.0,
                                      label="m-stim-%d" % pair)
        excitatory = Population(NEURONS, "lif", label="m-exc-%d" % pair)
        network.connect(stimulus, excitatory,
                        FixedProbabilityConnector(0.25, weight=0.2,
                                                  delay_range=(1, 8)))
        network.connect(excitatory, excitatory,
                        FixedProbabilityConnector(0.05, weight=0.05,
                                                  delay_range=(1, 16)))
    return network


def sdram_words_per_synapse(core_data) -> float:
    """SDRAM words installed per synapse, row headers and stride padding
    included (the paper's packed format would be 1.0)."""
    cores = core_data.values()
    return (sum(data.total_sdram_words for data in cores)
            / sum(data.total_synapses for data in cores))


def _machine() -> SpiNNakerMachine:
    machine = SpiNNakerMachine(MachineConfig(width=WIDTH, height=HEIGHT,
                                             cores_per_chip=CORES_PER_CHIP))
    BootController(machine, seed=1).boot()
    return machine


def _cold_compile():
    machine = _machine()
    pipeline = MappingPipeline(machine, _build_network(), seed=SEED,
                               max_neurons_per_core=NEURONS_PER_CORE)
    began = time.perf_counter()
    pipeline.run()
    return pipeline, machine, time.perf_counter() - began


def test_e18_mapping_pipeline(benchmark):
    pipeline, machine, cold_s = benchmark.pedantic(
        _cold_compile, rounds=1, iterations=1)
    ctx = pipeline.ctx
    n_vertices = len(ctx.placement.locations)
    assert n_vertices == 2 * 4 * N_PAIRS

    # Condemn the last populated chip (in raster order) and re-map.
    victim = ctx.placement.chips_used()[-1]
    displaced = sum(1 for chip, _ in ctx.placement.locations.values()
                    if chip == victim)
    assert displaced > 0
    MonitorService(machine).condemn_chip(victim)
    began = time.perf_counter()
    pipeline.run()
    remap_s = time.perf_counter() - began
    assert victim not in ctx.placement.chips_used()

    speedup = cold_s / remap_s if remap_s > 0 else float("inf")
    report_rows = [(row["pass"], row["runs"], row["cache_hits"],
                    row["last_scope"], "%.2f" % row["last_ms"],
                    "%.2f" % row["total_ms"])
                   for row in pipeline.report()]
    print_table("E18: per-pass timings after cold compile + re-map",
                report_rows,
                headers=("pass", "runs", "hits", "last scope",
                         "last ms", "total ms"))
    hits = sum(row["cache_hits"] for row in pipeline.report())
    considered = sum(row["cache_hits"] + row["runs"]
                     for row in pipeline.report())
    metrics = {
        "chips": WIDTH * HEIGHT,
        "vertices": n_vertices,
        "displaced_vertices": displaced,
        "routing_entries": ctx.routing_summary.entries_after_minimisation,
        "cold_compile_ms": cold_s * 1000.0,
        "incremental_remap_ms": remap_s * 1000.0,
        "remap_speedup": speedup,
        "pass_cache_hit_rate": hits / considered,
        # Reported, not gated: a padding or stride change shows up here.
        "sdram_words_per_synapse": sdram_words_per_synapse(ctx.core_data),
    }
    # The pipeline's always-on stage registry: per-pass seconds plus the
    # gated profile_pass_total_s roll-up (and the global registry's
    # stages when REPRO_PROFILE=1).
    attach_profile(metrics, pipeline.profile)
    attach_profile(metrics)
    print_metrics("E18: mapping-pipeline compile times "
                  "(48 chips, %d vertices)" % n_vertices, metrics)
    emit_json("e18", metrics)

    # The incremental re-map must be dramatically cheaper than the cold
    # compile, and must not have recompiled the world.
    assert speedup >= MIN_SPEEDUP
    assert pipeline.records["partition"].cache_hits >= 1
    # Only the displaced vertices' cores were rebuilt, and only they
    # were given their legs again (an exact count, whatever the host).
    rebuilt = {ctx.placement.locations[vertex]
               for vertex in ctx.moved_vertices}
    assert len(rebuilt) == displaced
    assert pipeline.records["synaptic-matrices"].last_scope == (
        "%d cores, %d legs" % (displaced, sum(
            len(ctx.core_data[slot].legs) for slot in rebuilt)))
