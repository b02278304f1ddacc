"""E20 — Fused board engine: per-tick cost at cluster scale.

The :class:`~repro.cluster.fused.FusedBoardEngine` replays Figure 7 with
the per-core loops hoisted out of the tick path (stacked per-model state
blocks, one shared deferred-event ring, one merged delivery scatter per
batch list).  This benchmark tracks, at the E19 cluster scale (a row of
four production 8x6 boards, 96 vertices of 256 LIF neurons):

* **Per-tick cost** — ``fused_tick_ms``, the serial per-tick compute
  cost from the engines' own stage timers (step + local/remote
  scatters).  Compute seconds rather than wall-clock carry the gate
  because they exclude one-time engine construction and result
  materialisation; the figure is the best of ``ROUNDS`` rounds to shed
  scheduler jitter.
* **Bit-identity** — pooled runs reproduce the serial run bit for bit:
  spike trains, spike counts, synaptic events, delivered charge and
  packet counters.  Four workers step one board each; two workers step
  two boards each as one engine, so a spike between a worker's own
  boards never enters the exchange.  The four-worker run's per-stage
  split is emitted too, so the split-barrier overlap (barrier-wait
  share of worker time) stays visible in the gated JSON.

That the engine equals the unsharded on-machine run is pinned by
``tests/test_cluster_fused.py``; this file only measures.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import profile
from repro.cluster import ClusterApplication
from repro.core.machine import MachineConfig, SpiNNakerMachine
from repro.neuron.connectors import FixedProbabilityConnector
from repro.neuron.network import Network
from repro.neuron.population import Population, SpikeSourcePoisson
from repro.runtime.boot import BootController

from .reporting import attach_profile, emit_json, print_metrics

SEED = 19                      # the E19 workload, byte for byte
BOARDS_X, BOARDS_Y = 4, 1
BOARD_W, BOARD_H = 8, 6
CORES_PER_CHIP = 4
N_PAIRS = 8
NEURONS = 1536
NEURONS_PER_CORE = 256
RATE_HZ = 120.0
DURATION_MS = 80.0
ROUNDS = 3                     # best-of-N, jitter suppression
WORKERS = 4
#: A pool whose workers own two boards each.
PAIRED_WORKERS = 2


def _build_network() -> Network:
    network = Network(seed=SEED)
    excitatory = []
    for pair in range(N_PAIRS):
        stimulus = SpikeSourcePoisson(NEURONS, rate_hz=RATE_HZ,
                                      label="c-stim-%d" % pair)
        population = Population(NEURONS, "lif", label="c-exc-%d" % pair)
        population.record(spikes=True)
        network.connect(stimulus, population,
                        FixedProbabilityConnector(0.12, weight=0.35,
                                                  delay_range=(1, 8)))
        network.connect(population, population,
                        FixedProbabilityConnector(0.05, weight=0.1,
                                                  delay_range=(1, 16)))
        excitatory.append(population)
    for index, population in enumerate(excitatory):
        network.connect(population,
                        excitatory[(index + 1) % len(excitatory)],
                        FixedProbabilityConnector(0.05, weight=0.12,
                                                  delay_range=(1, 16)))
    return network


def _machine() -> SpiNNakerMachine:
    machine = SpiNNakerMachine(MachineConfig.multi_board(
        BOARDS_X, BOARDS_Y, board_width=BOARD_W, board_height=BOARD_H,
        cores_per_chip=CORES_PER_CHIP))
    BootController(machine, seed=1).boot()
    return machine


def _bit_identical(reference, candidate) -> bool:
    if candidate.spikes != reference.spikes:
        return False
    for label in reference.spike_counts:
        if not np.array_equal(reference.spike_counts[label],
                              candidate.spike_counts[label]):
            return False
    return (candidate.synaptic_events == reference.synaptic_events
            and candidate.delivered_charge_na
            == reference.delivered_charge_na
            and candidate.packets_sent == reference.packets_sent)


@pytest.fixture
def stage_profiling():
    """The cluster runner reads ``repro.profile.enabled()`` at ``run()``."""
    profile.enable()
    yield
    profile.enable(False)


def test_e20_fused_engine(benchmark, stage_profiling):
    app = ClusterApplication(
        _machine(), _build_network(), seed=SEED,
        max_neurons_per_core=NEURONS_PER_CORE,
        placement_strategy="round-robin")
    app.prepare()              # compile outside the timed rounds

    # ------------------------------------------------------------------
    # Serial per-tick cost, best of ROUNDS
    # ------------------------------------------------------------------
    compute_s = []
    serial = benchmark.pedantic(lambda: app.run(DURATION_MS, workers=1),
                                rounds=1, iterations=1)
    compute_s.append(app.report.total_compute_s)
    for _ in range(ROUNDS - 1):
        serial = app.run(DURATION_MS, workers=1)
        compute_s.append(app.report.total_compute_s)
    n_ticks = app.report.n_ticks
    best = min(compute_s)

    # ------------------------------------------------------------------
    # Pooled run: bit-identical to serial, barrier share visible
    # ------------------------------------------------------------------
    paired = app.run(DURATION_MS, workers=PAIRED_WORKERS)
    paired_identical = _bit_identical(serial, paired)
    pooled = app.run(DURATION_MS, workers=WORKERS)
    pooled_report = app.report
    bit_identical = _bit_identical(serial, pooled)
    stage_totals = {stage: pooled_report.stage_total(stage)
                    for stage in ("compute", "serialize", "exchange",
                                  "barrier_wait")}
    stage_sum = sum(stage_totals.values())
    barrier_share = (stage_totals["barrier_wait"] / stage_sum
                     if stage_sum > 0 else 0.0)

    metrics = {
        "boards": app.n_boards,
        "vertices": sum(context.n_cores
                        for context in app.board_contexts.values()),
        "ticks": n_ticks,
        "rounds": ROUNDS,
        "total_spikes": serial.total_spikes(),
        "synaptic_events": serial.synaptic_events,
        "fused_compute_s": best,
        "fused_tick_ms": 1e3 * best / n_ticks,
        "bit_identical": bit_identical,
        "bit_identical_paired": paired_identical,
        "pool_workers": pooled_report.workers,
        "pool_compute_s": stage_totals["compute"],
        "pool_barrier_wait_s": stage_totals["barrier_wait"],
        "pool_barrier_share": barrier_share,
        "host_cpus": os.cpu_count() or 1,
    }
    # Merged stage registry of the pooled run — carries the gated
    # profile_compute_s beside the report-shaped pool_* figures.
    attach_profile(metrics, app.registry)
    print_metrics("E20: fused board engine (%d vertices, %d ticks)"
                  % (int(metrics["vertices"]), n_ticks), metrics)
    emit_json("e20", metrics)

    assert serial.total_spikes() > 0
    assert bit_identical, "pooled run diverged from the serial run"
    assert paired_identical, \
        "two-worker run diverged from the serial run"
