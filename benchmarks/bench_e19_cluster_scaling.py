"""E19 — Multi-board sharded simulation: scaling and equivalence.

The paper's machine is assembled from 48-chip boards scaled toward a
million cores.  `repro.cluster` shards a compiled network by board and
runs one engine shard per board in parallel workers, exchanging
cross-board spikes through preallocated shared memory at conservative
-lookahead super-step barriers.  This benchmark runs a four-board
machine (a row of production 8x6 boards) and checks the promises that
make the sharded runner usable:

* **Equivalence** — the sharded run produces spike trains identical to
  the unsharded on-machine engine
  (``NeuralApplication(transport="fabric", stagger_us=0)``), and results
  are bit-identical whatever the worker count *and* lookahead depth.
* **Scaling** — at 4 boards the shards divide the compute evenly enough
  for a 3x load-balance bound (asserted always), and on a host with at
  least 4 CPUs the pool must actually deliver a measured wall-clock
  speedup of at least 2x over 1 worker (single-CPU hosts cannot express
  pool parallelism in wall-clock, so there the bound is the gate).
* **Overheads stay visible** — the per-stage worker timers
  (compute / serialize / exchange / barrier-wait) are emitted into the
  gated BENCH JSON, so an exchange-path regression shows up as an
  ``overhead_s_per_worker_superstep`` move even on hosts where
  wall-clock cannot.  Overhead is gated per worker super-step, not per
  compute second (``stage_overhead_ratio``, still reported), so a
  cheaper engine does not read as more overhead.
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
from repro.runtime.application import NeuralApplication
from repro.runtime.boot import BootController

from .reporting import attach_profile, emit_json, print_metrics

SEED = 19
BOARDS_X, BOARDS_Y = 4, 1      # a row of four production 48-chip boards
BOARD_W, BOARD_H = 8, 6
CORES_PER_CHIP = 4             # 1 monitor + 3 application cores per chip
N_PAIRS = 8                    # stimulus -> excitatory pairs, chained
NEURONS = 1536
NEURONS_PER_CORE = 256         # 96 vertices = exactly one full chip row,
                               # so round-robin placement loads every
                               # board with two pairs (balanced shards)
RATE_HZ = 120.0
EQUIV_MS = 40.0
SCALING_MS = 80.0
WORKERS = 4
MIN_SPEEDUP = 3.0              # load-balance bound, asserted always
MIN_MEASURED_SPEEDUP = 2.0     # wall-clock, asserted with >= 4 CPUs


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
    # Chain the pairs so spikes must cross board cables however the
    # placer tiles them.
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


def _assert_spike_equivalence(reference, candidate) -> None:
    assert reference.total_spikes() == candidate.total_spikes()
    for label in reference.spike_counts:
        assert np.array_equal(reference.spike_counts[label],
                              candidate.spike_counts[label]), label
    for label in reference.spikes:
        assert sorted(reference.spikes[label]) == sorted(
            candidate.spikes[label]), label
    assert reference.synaptic_events == candidate.synaptic_events
    assert reference.delivered_charge_na == candidate.delivered_charge_na
    assert reference.packets_sent == candidate.packets_sent


def _assert_bit_identical(reference, candidate) -> None:
    assert candidate.spikes == reference.spikes
    for label in reference.spike_counts:
        assert np.array_equal(reference.spike_counts[label],
                              candidate.spike_counts[label])
    assert candidate.synaptic_events == reference.synaptic_events
    assert candidate.delivered_charge_na == reference.delivered_charge_na


@pytest.fixture
def stage_profiling():
    """The cluster runner reads ``repro.profile.enabled()`` at ``run()``."""
    profile.enable()
    yield
    profile.enable(False)


def test_e19_cluster_scaling(benchmark, stage_profiling):
    network = _build_network()

    # ------------------------------------------------------------------
    # Equivalence with the unsharded engine
    # ------------------------------------------------------------------
    unsharded_app = NeuralApplication(
        _machine(), network, max_neurons_per_core=NEURONS_PER_CORE,
        placement_strategy="round-robin", seed=SEED, transport="fabric",
        stagger_us=0.0)
    unsharded = unsharded_app.run(EQUIV_MS)
    assert unsharded.total_spikes() > 0

    cluster = ClusterApplication(
        _machine(), network, seed=SEED,
        max_neurons_per_core=NEURONS_PER_CORE,
        placement_strategy="round-robin", account_transport=True)
    sharded = cluster.run(EQUIV_MS, workers=1)
    _assert_spike_equivalence(unsharded, sharded)
    assert cluster.n_boards == BOARDS_X * BOARDS_Y
    assert cluster.report.cross_board_spikes > 0
    assert cluster.report.lookahead == 1 + cluster.report.d_min

    # ------------------------------------------------------------------
    # Scaling: 4 boards, 1 worker vs a pool
    # ------------------------------------------------------------------
    serial = benchmark.pedantic(
        lambda: cluster.run(SCALING_MS, workers=1), rounds=1, iterations=1)
    serial_report = cluster.report
    pooled = cluster.run(SCALING_MS, workers=WORKERS)
    pooled_report = cluster.report
    pooled_registry = cluster.registry

    # Bit-identical results whatever the worker count...
    _assert_bit_identical(serial, pooled)
    # ...and whatever the lookahead depth: a pool exchanging every tick
    # must reproduce the full-lookahead runs exactly.
    per_tick = cluster.run(SCALING_MS, workers=WORKERS, lookahead=1)
    assert cluster.report.lookahead == 1
    _assert_bit_identical(serial, per_tick)

    measured_speedup = (serial_report.wall_s / pooled_report.wall_s
                        if pooled_report.wall_s > 0 else float("inf"))
    stage_totals = {stage: pooled_report.stage_total(stage)
                    for stage in ("compute", "serialize", "exchange",
                                  "barrier_wait")}
    overhead_s = (stage_totals["serialize"] + stage_totals["exchange"]
                  + stage_totals["barrier_wait"])
    stage_overhead_ratio = (overhead_s / stage_totals["compute"]
                            if stage_totals["compute"] > 0 else 0.0)
    worker_supersteps = pooled_report.workers * pooled_report.supersteps
    metrics = {
        "boards": cluster.n_boards,
        "chips": BOARDS_X * BOARDS_Y * BOARD_W * BOARD_H,
        "vertices": sum(context.n_cores
                        for context in cluster.board_contexts.values()),
        "workers": pooled_report.workers,
        "ticks": pooled_report.n_ticks,
        "lookahead": pooled_report.lookahead,
        "d_min": pooled_report.d_min,
        "supersteps": pooled_report.supersteps,
        "total_spikes": serial.total_spikes(),
        "cross_board_spikes": pooled_report.cross_board_spikes,
        "inter_board_traversals": pooled_report.inter_board_traversals,
        "serial_wall_s": serial_report.wall_s,
        "pool_wall_s": pooled_report.wall_s,
        "measured_speedup": measured_speedup,
        "speedup_bound": pooled_report.speedup_bound,
        "compute_s": stage_totals["compute"],
        "serialize_s": stage_totals["serialize"],
        "exchange_s": stage_totals["exchange"],
        "barrier_wait_s": stage_totals["barrier_wait"],
        "parent_exchange_s": pooled_report.parent_exchange_s,
        "stage_overhead_ratio": stage_overhead_ratio,
        "overhead_s_per_worker_superstep": overhead_s / worker_supersteps,
        "exchange_segment_bytes": pooled_report.exchange_segment_bytes,
        "host_cpus": os.cpu_count() or 1,
    }
    # Stage registry of the pooled run (merged worker snapshots), as
    # profile_* keys beside the report-shaped stage totals above.
    attach_profile(metrics, pooled_registry)
    print_metrics("E19: cluster scaling (%d boards, %d workers)"
                  % (cluster.n_boards, WORKERS), metrics)
    emit_json("e19", metrics)

    # The shards must divide the compute evenly enough that a pool of
    # WORKERS workers can reach the target speedup...
    assert pooled_report.speedup_bound >= MIN_SPEEDUP
    # ... and on a host with real parallelism the pool must actually
    # beat one worker by a solid margin in wall-clock.  Single- and
    # dual-CPU hosts cannot express 4-way pool parallelism, so there
    # only the bound is asserted (E19_ASSERT_WALLCLOCK forces the
    # wall-clock gate regardless).
    if ((os.cpu_count() or 1) >= WORKERS
            or os.environ.get("E19_ASSERT_WALLCLOCK")):
        assert measured_speedup >= MIN_MEASURED_SPEEDUP
