"""Tests for the multi-board sharded simulation (``repro.cluster``).

Covers the board-aware machine model, the ShardByBoard compile pass,
the sharded runner's two core guarantees (worker-count independence and
equivalence with the unsharded on-machine engine), the inter-board
accounting, board-aligned allocation and the merged-result semantics.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import sys
import threading
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

import repro.cluster.application as cluster_application
from repro import profile
from repro.alloc.partition import MachinePartitioner
from repro.cluster import (
    ClusterApplication,
    ClusterWorkerError,
    ExchangePlan,
    FusedBoardEngine,
    SharedMemoryExchange,
    superstep_schedule,
)
from repro.cluster.application import ClusterReport, _assign_boards
from repro.cluster.exchange import UNCONSTRAINED_LOOKAHEAD
from repro.compile import MappingPipeline
from repro.core.geometry import ChipCoordinate, Direction
from repro.core.machine import (
    DEFAULT_INTER_BOARD_LATENCY_US,
    DEFAULT_LINK_LATENCY_US,
    MachineConfig,
    SpiNNakerMachine,
)
from repro.neuron.connectors import FixedProbabilityConnector
from repro.neuron.kernel import SpikeTrain, TickKernel
from repro.neuron.network import Network
from repro.neuron.population import Population, SpikeSourcePoisson
from repro.runtime.application import ApplicationResult, NeuralApplication
from repro.runtime.boot import BootController
from repro.runtime.monitor import MonitorService

SEED = 7


def chained_network(pairs: int = 4, neurons: int = 96) -> Network:
    """Stimulus->excitatory pairs chained in a ring (forces cross-board
    projections however the placer tiles the pairs)."""
    network = Network(seed=SEED)
    excitatory = []
    for pair in range(pairs):
        stimulus = SpikeSourcePoisson(neurons, rate_hz=40.0,
                                      label="t-stim-%d" % pair)
        population = Population(neurons, "lif", label="t-exc-%d" % pair)
        population.record(spikes=True)
        network.connect(stimulus, population,
                        FixedProbabilityConnector(0.3, weight=0.9,
                                                  delay_range=(1, 6)))
        excitatory.append(population)
    for index, population in enumerate(excitatory):
        network.connect(population,
                        excitatory[(index + 1) % len(excitatory)],
                        FixedProbabilityConnector(0.15, weight=0.5,
                                                  delay_range=(1, 12)))
    return network


def deep_delay_network(pairs: int = 4, neurons: int = 96) -> Network:
    """The chained topology with every synaptic delay at least 4 ticks,
    so the conservative lookahead opens to ``L = 1 + d_min >= 5`` and
    exchanged batches arrive with ages well past 1."""
    network = Network(seed=SEED)
    excitatory = []
    for pair in range(pairs):
        stimulus = SpikeSourcePoisson(neurons, rate_hz=40.0,
                                      label="d-stim-%d" % pair)
        population = Population(neurons, "lif", label="d-exc-%d" % pair)
        population.record(spikes=True)
        network.connect(stimulus, population,
                        FixedProbabilityConnector(0.3, weight=0.9,
                                                  delay_range=(4, 9)))
        excitatory.append(population)
    for index, population in enumerate(excitatory):
        network.connect(population,
                        excitatory[(index + 1) % len(excitatory)],
                        FixedProbabilityConnector(0.15, weight=0.5,
                                                  delay_range=(4, 10)))
    return network


def small_cluster_machine() -> SpiNNakerMachine:
    machine = SpiNNakerMachine(MachineConfig.multi_board(
        2, 2, board_width=4, board_height=3, cores_per_chip=4))
    BootController(machine, seed=1).boot()
    return machine


def four_board_machine() -> SpiNNakerMachine:
    """Four boards in a row, small enough that the chained network's 24
    cores land six on each board."""
    machine = SpiNNakerMachine(MachineConfig.multi_board(
        4, 1, board_width=2, board_height=2, cores_per_chip=4))
    BootController(machine, seed=1).boot()
    return machine


def sharded_app(network: Network = None, machine: SpiNNakerMachine = None,
                **kwargs) -> ClusterApplication:
    return ClusterApplication(machine if machine is not None
                              else small_cluster_machine(),
                              network if network is not None
                              else chained_network(),
                              seed=SEED, max_neurons_per_core=32, **kwargs)


def one_worker(cluster: ClusterApplication):
    """The serial run's board -> worker assignment."""
    return dict.fromkeys(cluster.board_contexts, 0)


def assert_shm_unlinked(cluster: ClusterApplication) -> None:
    """The run's shared-memory segments must all be gone by now."""
    assert cluster.last_exchange_segments
    for name in cluster.last_exchange_segments:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


# ----------------------------------------------------------------------
# Board-aware machine model
# ----------------------------------------------------------------------
class TestBoardGeometry:
    def test_single_board_default(self):
        config = MachineConfig(width=8, height=8)
        assert config.n_boards == 1
        assert config.board_of(ChipCoordinate(7, 7)) == 0
        machine = SpiNNakerMachine(config)
        assert machine.inter_board_links() == []
        assert machine.n_boards == 1

    def test_board_grid_ids_row_major(self):
        config = MachineConfig.multi_board(2, 2, board_width=4,
                                           board_height=3)
        assert (config.width, config.height) == (8, 6)
        assert config.n_boards == 4
        assert config.board_of(ChipCoordinate(0, 0)) == 0
        assert config.board_of(ChipCoordinate(5, 2)) == 1
        assert config.board_of(ChipCoordinate(3, 3)) == 2
        assert config.board_of(ChipCoordinate(4, 5)) == 3
        assert config.board_origin(3) == ChipCoordinate(4, 3)
        chips = list(config.board_chips(1))
        assert len(chips) == 12
        assert chips[0] == ChipCoordinate(4, 0)

    def test_production_board_is_48_chips(self):
        config = MachineConfig.multi_board(2, 1)
        assert config.board_width * config.board_height == 48
        assert config.n_chips == 96

    def test_board_validation(self):
        with pytest.raises(ValueError):
            MachineConfig(width=8, height=8, board_width=3, board_height=3)
        with pytest.raises(ValueError):
            MachineConfig(width=8, height=8, board_width=4)
        with pytest.raises(ValueError):
            MachineConfig.multi_board(0, 2)
        with pytest.raises(ValueError):
            config = MachineConfig.multi_board(2, 1, board_width=4,
                                               board_height=4)
            config.board_origin(config.n_boards)

    def test_inter_board_links_have_distinct_figures(self):
        machine = SpiNNakerMachine(MachineConfig.multi_board(
            2, 1, board_width=4, board_height=3, cores_per_chip=2))
        crossing = machine.inter_board_links()
        assert crossing
        for link in crossing:
            assert link.inter_board
            assert link.latency_us == DEFAULT_INTER_BOARD_LATENCY_US
        boundary = machine.link(ChipCoordinate(3, 0), Direction.EAST)
        assert boundary.inter_board
        on_board = machine.link(ChipCoordinate(1, 0), Direction.EAST)
        assert not on_board.inter_board
        assert on_board.latency_us == DEFAULT_LINK_LATENCY_US

    def test_routers_know_their_crossing_directions(self):
        machine = SpiNNakerMachine(MachineConfig.multi_board(
            2, 1, board_width=4, board_height=3, cores_per_chip=2))
        edge = machine.chip(3, 0).router
        assert Direction.EAST in edge.inter_board_directions
        interior = machine.chip(1, 1).router
        assert not interior.inter_board_directions


# ----------------------------------------------------------------------
# The ShardByBoard pass
# ----------------------------------------------------------------------
class TestShardByBoardPass:
    def test_disabled_by_default(self):
        machine = small_cluster_machine()
        pipeline = MappingPipeline(machine, chained_network(), seed=SEED,
                                   max_neurons_per_core=32)
        ctx = pipeline.run()
        assert ctx.board_contexts == {}

    def test_shards_cover_the_placement_with_sticky_keys(self):
        machine = small_cluster_machine()
        pipeline = MappingPipeline(machine, chained_network(), seed=SEED,
                                   max_neurons_per_core=32,
                                   shard_by_board=True)
        ctx = pipeline.run()
        assert ctx.board_contexts
        sharded = {core.vertex: core
                   for context in ctx.board_contexts.values()
                   for core in context.cores}
        assert set(sharded) == set(ctx.placement.locations)
        for vertex, core in sharded.items():
            chip, core_id = ctx.placement.locations[vertex]
            assert (core.chip, core.core_id) == (chip, core_id)
            home = next(board
                        for board, context in ctx.board_contexts.items()
                        if core in context.cores)
            assert machine.config.board_of(chip) == home
            # Sticky keys: the shard address is the allocator's key space.
            assert core.base_key == ctx.keys.key_space(vertex).base_key

    def test_every_route_target_has_its_leg_in_the_board_index(self):
        machine = small_cluster_machine()
        pipeline = MappingPipeline(machine, chained_network(), seed=SEED,
                                   max_neurons_per_core=32,
                                   shard_by_board=True)
        ctx = pipeline.run()
        n_legs = 0
        for record in ctx.routes.values():
            for target, slot in record.target_slots.items():
                leg = ctx.core_data[slot].legs[record.key]
                assert leg.n_post == target.n_neurons
                board = machine.config.board_of(slot[0])
                assert record.key in ctx.board_contexts[
                    board].delivery_index.first_row
                n_legs += 1
        assert n_legs > 0
        assert pipeline.records["shard-by-board"].last_scope.endswith(
            "%d legs" % n_legs)


# ----------------------------------------------------------------------
# The sharded runner
# ----------------------------------------------------------------------
class TestClusterApplication:
    def test_equivalent_to_the_unsharded_engine(self):
        unsharded_app = NeuralApplication(
            small_cluster_machine(), chained_network(),
            max_neurons_per_core=32, seed=SEED, transport="fabric",
            stagger_us=0.0)
        unsharded = unsharded_app.run(60.0)
        assert unsharded.total_spikes() > 0

        cluster = sharded_app()
        sharded = cluster.run(60.0, workers=1)

        assert sharded.total_spikes() == unsharded.total_spikes()
        for label in unsharded.spike_counts:
            assert np.array_equal(unsharded.spike_counts[label],
                                  sharded.spike_counts[label]), label
        for label in unsharded.spikes:
            assert sorted(unsharded.spikes[label]) == sorted(
                sharded.spikes[label]), label
        assert sharded.synaptic_events == unsharded.synaptic_events
        assert sharded.delivered_charge_na == unsharded.delivered_charge_na
        assert sharded.packets_sent == unsharded.packets_sent

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_results_are_worker_count_independent(self, workers):
        """Trains compare order-sensitively: within a tick each label's
        spikes must come in board order whatever the cut (three workers
        on four boards is the uneven one)."""
        serial = sharded_app(machine=four_board_machine()).run(
            60.0, workers=1)
        pooled_app = sharded_app(machine=four_board_machine())
        pooled = pooled_app.run(60.0, workers=workers)
        assert pooled.spikes == serial.spikes
        for label in serial.spike_counts:
            assert np.array_equal(serial.spike_counts[label],
                                  pooled.spike_counts[label])
        assert pooled.synaptic_events == serial.synaptic_events
        assert pooled.delivered_charge_na == serial.delivered_charge_na
        report = pooled_app.report
        assert report.n_boards == 4
        assert report.workers == workers
        assert set(report.assignment.values()) == set(range(workers))
        assert report.total_compute_s > 0
        assert report.speedup_bound >= 1.0

    def test_cross_board_traffic_is_counted_and_replayed(self):
        cluster = sharded_app(account_transport=True)
        machine = cluster.machine
        boot_traffic = machine.total_inter_board_traffic()
        cluster.run(60.0)
        report = cluster.report
        assert report.cross_board_spikes > 0
        assert report.exchanged_batches > 0
        assert report.inter_board_traversals > 0
        # The fabric replay lands on the same link counters the event
        # path would have charged.
        delta = machine.total_inter_board_traffic() - boot_traffic
        assert delta == report.inter_board_traversals
        assert sum(chip.router.stats.inter_board_forwarded
                   for chip in machine) >= report.inter_board_traversals

    def test_transport_replay_is_worker_count_independent(self):
        """The parent's one tally after the run replays the engines'
        recorded batches whatever the cut: the report's traffic figures,
        the fabric's totals and every router's counters match at 1, 2
        and 3 workers (three is the uneven cut of four boards)."""
        def replay(workers):
            cluster = sharded_app(machine=four_board_machine(),
                                  account_transport=True)
            cluster.run(60.0, workers=workers)
            report, fabric = cluster.report, cluster.fabric
            return ((report.inter_board_traversals,
                     report.exchanged_batches, report.cross_board_spikes),
                    (fabric.batches_accounted, fabric.packets_accounted),
                    {chip.coordinate: chip.router.stats
                     for chip in cluster.machine})

        serial = replay(1)
        assert min(serial[0]) > 0 and min(serial[1]) > 0
        for workers in (2, 3):
            assert replay(workers) == serial, workers

    def test_reruns_are_reproducible(self):
        cluster = sharded_app(account_transport=True)
        first = cluster.run(40.0)
        first_traversals = cluster.report.inter_board_traversals
        second = cluster.run(40.0)
        assert first.spikes == second.spikes
        assert first.delivered_charge_na == second.delivered_charge_na
        # The report carries per-run deltas even though the fabric's
        # counters accumulate over the application's lifetime.
        assert cluster.report.inter_board_traversals == first_traversals
        assert cluster.fabric.inter_board_traversals == 2 * first_traversals

    def test_each_run_starts_afresh(self):
        """Unlike ``NeuralApplication.run`` (which continues one run),
        every cluster run restarts at tick 0 into a new result: equal
        trains, and the earlier result is left as it was."""
        cluster = sharded_app()
        first = cluster.run(40.0)
        kept = {label: (train.times_ms.copy(), train.neurons.copy())
                for label, train in first.spikes.items()}
        counts = {label: c.copy() for label, c in first.spike_counts.items()}
        second = cluster.run(40.0)
        assert second is not first and cluster.result is second
        assert first.spikes == second.spikes
        assert first.total_spikes() > 0
        assert first.duration_ms == second.duration_ms == 40.0
        for label, (times, neurons) in kept.items():
            assert first.spikes[label] is not second.spikes[label]
            assert np.array_equal(first.spikes[label].times_ms, times)
            assert np.array_equal(first.spikes[label].neurons, neurons)
        for label, c in counts.items():
            assert np.array_equal(first.spike_counts[label], c)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_remap_after_a_condemnation_matches_a_cold_run(self, workers):
        cluster = sharded_app(account_transport=True)
        monitor = MonitorService(cluster.machine)
        monitor.attach_application(cluster)
        cluster.run(20.0, workers=workers)
        victim = cluster.pipeline.ctx.placement.chips_used()[-1]
        monitor.condemn_chip(victim)
        assert monitor.report.remaps_requested == 1
        remapped = cluster.run(60.0, workers=workers)

        cold_machine = small_cluster_machine()
        MonitorService(cold_machine).condemn_chip(victim)
        cold_cluster = ClusterApplication(
            cold_machine, chained_network(), seed=SEED,
            max_neurons_per_core=32, account_transport=True)
        cold = cold_cluster.run(60.0, workers=workers)

        assert (cluster.pipeline.ctx.placement.locations
                == cold_cluster.pipeline.ctx.placement.locations)
        assert victim not in cluster.pipeline.ctx.placement.chips_used()
        assert remapped.total_spikes() > 0
        assert remapped.spikes == cold.spikes
        assert remapped.synaptic_events == cold.synaptic_events
        assert remapped.delivered_charge_na == cold.delivered_charge_na
        assert cluster.report.cross_board_spikes == (
            cold_cluster.report.cross_board_spikes)
        assert cluster.report.inter_board_traversals == (
            cold_cluster.report.inter_board_traversals)

    def test_a_network_with_nothing_placed_runs_empty(self):
        cluster = ClusterApplication(small_cluster_machine(),
                                     Network(seed=SEED))
        result = cluster.run(10.0)
        assert cluster.n_boards == 0
        assert result.total_spikes() == 0
        assert result.duration_ms == 10.0
        assert cluster.report.cross_board_spikes == 0

    def test_rejects_bad_arguments(self):
        cluster = sharded_app()
        with pytest.raises(ValueError):
            cluster.run(-1.0)
        with pytest.raises(ValueError):
            cluster.run(10.0, workers=0)
        with pytest.raises(ValueError):
            cluster.run(10.0, lookahead=0)


class TestRemovedOptions:
    """Knobs that went with the one-place-per-knob cluster runner fail
    loudly instead of being silently ignored."""

    @pytest.mark.parametrize("option", [
        {"workers": 2}, {"lookahead": 1}, {"assignment": "round-robin"},
        {"profile": True}])
    def test_constructor_knobs_are_gone(self, option):
        with pytest.raises(TypeError):
            sharded_app(**option)

    def test_board_engine_needs_its_plan(self):
        cluster = sharded_app()
        cluster.prepare()
        context = next(iter(cluster.board_contexts.values()))
        populations = {p.label: p for p in cluster.network.populations}
        with pytest.raises(TypeError):
            FusedBoardEngine([context], populations, SEED,
                             cluster.timestep_ms)
        plan = ExchangePlan.build(cluster.board_contexts,
                                  cluster.board_pair_min_delay,
                                  one_worker(cluster))
        engine = FusedBoardEngine([context], populations, SEED,
                                  cluster.timestep_ms, plan, 0)
        with pytest.raises(TypeError):
            engine.step(0, np.zeros(0, dtype=np.intp))

    def test_profiling_env_alias_is_gone(self, monkeypatch):
        monkeypatch.setenv("REPRO_CLUSTER_PROFILE", "1")
        cluster = sharded_app()
        cluster.run(5.0)
        assert_stages_recorded(cluster.report)
        assert cluster.registry.flatten() == {}


# ----------------------------------------------------------------------
# The exchange plan and super-step schedule
# ----------------------------------------------------------------------
class TestExchangePlan:
    def test_superstep_schedule_covers_every_tick(self):
        assert superstep_schedule(7, 3) == [(0, 3), (3, 3), (6, 1)]
        assert superstep_schedule(4, 1) == [(0, 1), (1, 1), (2, 1), (3, 1)]
        assert superstep_schedule(0, 4) == []
        with pytest.raises(ValueError):
            superstep_schedule(4, 0)

    def _prepared(self) -> ClusterApplication:
        cluster = sharded_app()
        cluster.prepare()
        return cluster

    def test_lookahead_defaults_to_the_conservative_bound(self):
        cluster = self._prepared()
        plan = ExchangePlan.build(cluster.board_contexts,
                                  cluster.board_pair_min_delay,
                                  one_worker(cluster))
        assert plan.d_min is not None and plan.d_min >= 1
        assert plan.max_lookahead == 1 + plan.d_min
        assert plan.lookahead == plan.max_lookahead

    def test_explicit_lookahead_is_clamped_to_the_bound(self):
        cluster = self._prepared()
        contexts = cluster.board_contexts
        delays = cluster.board_pair_min_delay
        serial = one_worker(cluster)
        clamped = ExchangePlan.build(contexts, delays, serial, lookahead=99)
        assert clamped.lookahead == clamped.max_lookahead
        per_tick = ExchangePlan.build(contexts, delays, serial, lookahead=1)
        assert per_tick.lookahead == 1
        with pytest.raises(ValueError):
            ExchangePlan.build(contexts, delays, serial, lookahead=0)

    def _two_worker_plan(self, **kwargs):
        """A four-board run cut for two workers: two boards each, so the
        chain crosses boards both within a worker and between them."""
        cluster = sharded_app(machine=four_board_machine())
        cluster.prepare()
        contexts = cluster.board_contexts
        assignment = _assign_boards(sorted(contexts), 2,
                                    dict.fromkeys(contexts, 1))
        return cluster, assignment, ExchangePlan.build(
            contexts, cluster.board_pair_min_delay, assignment, **kwargs)

    def test_regions_join_workers_never_boards_of_one_worker(self):
        cluster, assignment, plan = self._two_worker_plan()
        assert assignment == {0: 0, 1: 0, 2: 1, 3: 1}
        home = {core.base_key: board
                for board, context in cluster.board_contexts.items()
                for core in context.cores}
        assert plan.region_capacity
        for src, dst in plan.region_capacity:
            # No ``(w, w)`` region: a worker's own traffic stays inside it.
            assert {src, dst} == {0, 1}
        assert any(plan.export_keys.values())
        for worker, keys in plan.export_keys.items():
            for key in keys:
                assert assignment[home[key]] == worker
                destinations = plan.remote_workers[key]
                # Written once per destination worker, never to its own.
                assert worker not in destinations
                assert sorted(set(destinations)) == list(destinations)
                assert set(destinations) == {
                    assignment[board]
                    for board in plan.cross_destinations[key]} - {worker}
        # A key that crosses boards only inside its worker is delivered
        # by the worker's engine and never exported.
        within = set(plan.cross_destinations) - set(plan.remote_workers)
        assert within
        assert not within & set().union(*plan.export_keys.values())

    def test_export_keys_are_the_keys_with_remote_workers(self):
        cluster, assignment, plan = self._two_worker_plan()
        home = {core.base_key: assignment[board]
                for board, context in cluster.board_contexts.items()
                for core in context.cores}
        assert plan.export_keys == {
            worker: frozenset(key for key in plan.remote_workers
                              if home[key] == worker)
            for worker in (0, 1)}

    def test_one_worker_plan_has_neither_regions_nor_export_keys(self):
        cluster = sharded_app(machine=four_board_machine())
        cluster.prepare()
        plan = ExchangePlan.build(cluster.board_contexts,
                                  cluster.board_pair_min_delay,
                                  one_worker(cluster))
        assert plan.region_capacity == {} and plan.total_words == 0
        assert plan.remote_workers == {}
        assert plan.export_keys == {0: frozenset()}
        assert plan.cross_destinations

    def test_plan_cells_number_every_neuron_in_board_order(self):
        cluster, _assignment, plan = self._two_worker_plan()
        cores = [core for board in sorted(cluster.board_contexts)
                 for core in cluster.board_contexts[board].cores]
        assert [plan.key_cells[core.base_key] for core in cores] == [
            range(start, start + core.vertex.n_neurons)
            for start, core in zip(itertools.accumulate(
                (core.vertex.n_neurons for core in cores), initial=0),
                cores)]

    def test_a_full_bank_refuses_one_more_record(self):
        """A bank holds ``lookahead`` worst-case records — every cell the
        source exports to the destination, each tick — exactly."""
        _cluster, _assignment, plan = self._two_worker_plan()
        worst = np.concatenate([
            np.arange(plan.key_cells[key].start, plan.key_cells[key].stop)
            for key in sorted(plan.export_keys[0])
            if 1 in plan.remote_workers[key]])
        assert plan.region_capacity[(0, 1)] == plan.lookahead * (
            2 + worst.size)
        exchange = SharedMemoryExchange(plan)
        try:
            exchange.begin(0, 0)
            for tick in range(plan.lookahead):
                exchange.write(0, 0, tick, worst)
            cells, send_ticks = exchange.inbound(1, 0)
            assert np.array_equal(cells, np.tile(worst, plan.lookahead))
            assert np.array_equal(send_ticks, np.repeat(
                np.arange(plan.lookahead), worst.size))
            with pytest.raises(RuntimeError, match="0->1 overflow"):
                exchange.write(0, 0, plan.lookahead, worst[:1])
            # The refused record left the bank as it was.
            assert np.array_equal(exchange.inbound(1, 0)[0], cells)
        finally:
            exchange.close()
            exchange.unlink()

    def test_region_capacity_scales_with_lookahead(self):
        *_, one = self._two_worker_plan(lookahead=1)
        *_, two = self._two_worker_plan(lookahead=2)
        assert set(one.region_capacity) == set(two.region_capacity)
        for pair, words in one.region_capacity.items():
            assert two.region_capacity[pair] == 2 * words
        assert two.total_words > one.total_words


# ----------------------------------------------------------------------
# Board -> worker assignment
# ----------------------------------------------------------------------
def _loads(assignment, weights):
    loads = {}
    for board, worker in assignment.items():
        loads[worker] = loads.get(worker, 0) + weights[board]
    return loads


class TestBoardAssignment:
    def test_equal_weights_cut_into_contiguous_halves(self):
        weights = dict.fromkeys(range(4), 1)
        assert _assign_boards([0, 1, 2, 3], 2, weights) == {
            0: 0, 1: 0, 2: 1, 3: 1}

    def test_cut_balances_skewed_weights(self):
        weights = {0: 10, 1: 4, 2: 3, 3: 3}
        assignment = _assign_boards([0, 1, 2, 3], 2, weights)
        # Round-robin would split 13 / 7; the cut lands 10 / 10.
        assert sorted(_loads(assignment, weights).values()) == [10, 10]
        assert sum(weights.values()) / max(
            _loads(assignment, weights).values()) == pytest.approx(2.0)
        round_robin = {board: board % 2 for board in range(4)}
        assert max(_loads(round_robin, weights).values()) == 13

    @pytest.mark.parametrize("boards,workers", [(4, 3), (4, 4), (7, 3),
                                                (9, 4)])
    def test_every_worker_owns_a_contiguous_run(self, boards, workers):
        for weights in (dict.fromkeys(range(boards), 1),
                        {board: 1 + (board * 7) % 5
                         for board in range(boards)}):
            assignment = _assign_boards(list(range(boards)), workers,
                                        weights)
            order = [assignment[board] for board in range(boards)]
            # Non-decreasing and covering 0..workers-1: every worker
            # owns one contiguous, non-empty run, in worker order.
            assert order == sorted(order)
            assert set(order) == set(range(workers))

    def test_cut_is_the_lightest_busiest_run(self):
        """Exact against brute force over every contiguous cut."""
        rng = np.random.default_rng(3)
        for _ in range(20):
            boards = int(rng.integers(2, 8))
            workers = int(rng.integers(1, boards + 1))
            weights = dict(enumerate(rng.integers(1, 20, boards).tolist()))
            best = min(
                max(sum(weights[b] for b in range(lo, hi))
                    for lo, hi in zip((0,) + cuts, cuts + (boards,)))
                for cuts in itertools.combinations(range(1, boards),
                                                   workers - 1))
            assignment = _assign_boards(list(range(boards)), workers,
                                        weights)
            assert max(_loads(assignment, weights).values()) == best

    def test_report_bound_is_total_over_busiest_worker(self):
        pooled = ClusterReport(n_boards=4, workers=2, n_ticks=10,
                               worker_stages={0: {"compute": 10.0},
                                              1: {"compute": 5.0}})
        assert pooled.total_compute_s == 15.0
        assert pooled.critical_path_s == 10.0
        assert pooled.speedup_bound == 1.5
        serial = ClusterReport(n_boards=4, workers=1, n_ticks=10,
                               worker_stages={0: {"compute": 7.0}})
        assert serial.critical_path_s == 7.0
        assert serial.speedup_bound == 1.0
        assert ClusterReport(n_boards=4, workers=1,
                             n_ticks=0).speedup_bound == 1.0


# ----------------------------------------------------------------------
# Conservative lookahead
# ----------------------------------------------------------------------
class TestLookahead:
    def test_bit_identical_across_workers_and_lookahead(self):
        reference = None
        for workers in (1, 2, 4):
            for lookahead in (1, None):
                cluster = sharded_app()
                result = cluster.run(40.0, workers=workers,
                                     lookahead=lookahead)
                report = cluster.report
                if lookahead == 1:
                    assert report.lookahead == 1
                    assert report.supersteps == report.n_ticks
                else:
                    assert report.lookahead == 1 + report.d_min
                current = (result.spikes,
                           {label: counts.tolist() for label, counts
                            in result.spike_counts.items()},
                           result.synaptic_events,
                           result.delivered_charge_na)
                if reference is None:
                    reference = current
                assert current == reference, (workers, lookahead)

    def test_deep_delays_open_the_lookahead_window(self):
        cluster = sharded_app(network=deep_delay_network())
        deep = cluster.run(60.0, workers=2)
        report = cluster.report
        # Every synapse carries at least 4 ticks of delay, so batches
        # arrive with ages up to L - 1 >= 4 and are re-based on apply.
        assert report.d_min >= 4
        assert report.lookahead == 1 + report.d_min
        assert report.supersteps < report.n_ticks
        per_tick_cluster = sharded_app(network=deep_delay_network())
        per_tick = per_tick_cluster.run(60.0, workers=2, lookahead=1)
        assert per_tick_cluster.report.lookahead == 1
        assert deep.spikes == per_tick.spikes
        assert deep.synaptic_events == per_tick.synaptic_events
        assert deep.delivered_charge_na == per_tick.delivered_charge_na

    def test_explicit_lookahead_is_clamped_to_the_safe_depth(self):
        cluster = sharded_app()
        cluster.run(20.0, lookahead=2)
        assert cluster.report.lookahead == 2
        cluster.run(20.0, lookahead=99)
        assert cluster.report.lookahead == 1 + cluster.report.d_min


# ----------------------------------------------------------------------
# Worker failure and shared-memory hygiene
# ----------------------------------------------------------------------
class TestWorkerFailure:
    def test_worker_death_raises_a_diagnosable_error(self, monkeypatch):
        def _dying_worker(conn, contexts, *args, **kwargs):
            os._exit(3)

        monkeypatch.setattr(cluster_application, "_shard_worker",
                            _dying_worker)
        cluster = sharded_app()
        with pytest.raises(ClusterWorkerError) as excinfo:
            cluster.run(20.0, workers=2)
        error = excinfo.value
        assert error.exitcode == 3
        assert error.boards
        assert "exit code 3" in str(error)
        assert str(list(error.boards)) in str(error)

    def test_one_worker_dying_is_blamed_not_its_survivor(self,
                                                         monkeypatch):
        """Worker 1 dies after its first super-step.  Worker 0 then
        leaves the broken barrier cleanly, without a result; the error
        must still name worker 1, its boards and its exit code."""
        cluster = sharded_app()
        cluster.prepare()
        boards = sorted(cluster.board_contexts)
        assignment = _assign_boards(
            boards, 2, {board: cluster.board_contexts[board].n_cores
                        for board in boards})
        doomed = [board for board in boards if assignment[board] == 1]
        lookahead = ExchangePlan.build(cluster.board_contexts,
                                       cluster.board_pair_min_delay,
                                       assignment).lookahead

        class DyingAfterFirstSuperstep(FusedBoardEngine):
            def step(self, tick):
                if (tick == lookahead and self.contexts[0]
                        is cluster.board_contexts[doomed[0]]):
                    os._exit(5)
                return super().step(tick)

        monkeypatch.setattr(cluster_application, "FusedBoardEngine",
                            DyingAfterFirstSuperstep)
        with pytest.raises(ClusterWorkerError) as excinfo:
            cluster.run(20.0, workers=2)
        error = excinfo.value
        assert error.worker == 1
        assert error.boards == tuple(doomed)
        assert error.exitcode == 5
        assert "worker 1" in str(error) and "exit code 5" in str(error)
        assert_shm_unlinked(cluster)

    def test_worker_death_still_unlinks_the_segment(self, monkeypatch):
        def _dying_worker(conn, contexts, *args, **kwargs):
            os._exit(1)

        monkeypatch.setattr(cluster_application, "_shard_worker",
                            _dying_worker)
        cluster = sharded_app()
        with pytest.raises(ClusterWorkerError):
            cluster.run(20.0, workers=2)
        assert_shm_unlinked(cluster)

    def test_late_waker_at_the_final_barrier_is_not_a_dead_worker(
            self, monkeypatch):
        """Regression: a worker that left the final barrier, sent its
        results and exited cleanly made the watchdog abort the barrier
        under a slower worker still waking inside that same ``wait()``,
        failing a correct run with ``ClusterWorkerError(... exit code
        0)``.  One worker is made that slow party deterministically."""
        duration_ms = 3.0
        final_wait = len(superstep_schedule(3, 1)) + 1
        fork = multiprocessing.get_context("fork")

        class LateWakingBarrier:
            """Released with everyone else, but the first worker out of
            the final ``wait()`` resumes a second later — and, like any
            party still inside ``wait()``, then sees whether the barrier
            was broken in the meantime."""

            def __init__(self, parties):
                self.inner = fork.Barrier(parties)
                self.late_claimed = fork.Value("b", 0)
                self.waits = 0  # per process: each worker has a copy

            def wait(self, timeout=None):
                index = self.inner.wait(timeout)
                self.waits += 1
                if self.waits == final_wait:
                    with self.late_claimed.get_lock():
                        late = not self.late_claimed.value
                        self.late_claimed.value = 1
                    if late:
                        time.sleep(1.0)
                        if self.inner.broken:
                            raise threading.BrokenBarrierError
                return index

            def abort(self):
                self.inner.abort()

        class Context:
            Barrier = LateWakingBarrier

            def __getattr__(self, name):
                return getattr(fork, name)

        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method=None: Context())
        pooled = sharded_app().run(duration_ms, workers=2, lookahead=1)
        monkeypatch.undo()
        serial = sharded_app().run(duration_ms, workers=1, lookahead=1)
        assert pooled.spikes == serial.spikes
        assert pooled.synaptic_events == serial.synaptic_events

    def test_clean_run_leaves_no_segment_behind(self):
        cluster = sharded_app()
        cluster.run(20.0, workers=2)
        assert_shm_unlinked(cluster)


# ----------------------------------------------------------------------
# Per-stage timing
# ----------------------------------------------------------------------
def assert_stages_recorded(report: ClusterReport) -> None:
    """Every worker of the run has its table of :data:`STAGES`."""
    assert set(report.worker_stages) == set(range(report.workers))
    for stages in report.worker_stages.values():
        assert set(stages) == set(cluster_application.STAGES)
        assert stages["compute"] > 0.0


class TestProfiling:
    def test_off_by_default(self):
        cluster = sharded_app()
        cluster.run(20.0)
        assert_stages_recorded(cluster.report)
        assert cluster.registry.flatten() == {}

    def test_flag_is_read_at_run_not_at_construction(self):
        # Regression: the flag used to be frozen in __init__, so
        # enabling profiling on an already-built application was
        # silently ignored and the registry stayed empty.
        cluster = sharded_app()
        profile.enable()
        try:
            cluster.run(10.0)
            assert set(cluster.report.worker_stages) == {0}
            assert cluster.registry.flatten()["profile_compute_s"] == (
                cluster.report.stage_total("compute"))
            cluster.run(10.0, workers=2)
            assert len(cluster.report.worker_stages) == 2
            assert cluster.registry.flatten()["profile_compute_calls"] == 2
        finally:
            profile.enable(False)
        cluster.run(10.0)
        assert_stages_recorded(cluster.report)
        assert cluster.registry.flatten() == {}

    def test_remote_delivery_is_counted_once(self, monkeypatch):
        """Remote delivery is exchange time, not compute: slowed by a
        known sleep, it lands in the exchange stage and each worker's
        stages still fit inside the run's wall clock."""
        sleep_s = 0.02
        fork = multiprocessing.get_context("fork")
        sleeps = fork.Value("i", 0)
        deliver = FusedBoardEngine._deliver

        def slow_remote(engine, cells, ages=None):
            if ages is not None:
                with sleeps.get_lock():
                    sleeps.value += 1
                time.sleep(sleep_s)
            deliver(engine, cells, ages)

        monkeypatch.setattr(FusedBoardEngine, "_deliver", slow_remote)
        cluster = sharded_app()
        cluster.run(40.0, workers=2)
        report = cluster.report
        assert_stages_recorded(report)
        assert sleeps.value > 10
        for stages in report.worker_stages.values():
            assert sum(stages.values()) <= report.wall_s
        assert report.stage_total("exchange") >= sleeps.value * sleep_s

    @pytest.mark.parametrize("workers", [1, 2])
    def test_block_draws_are_counted_as_prefetch(self, monkeypatch,
                                                 workers):
        """The runners' block draws of source spikes are timed: slowed
        by a known sleep, they land in the prefetch stage (a tick's own
        draw inside ``step`` stays compute)."""
        sleep_s = 0.02
        fork = multiprocessing.get_context("fork")
        draws = fork.Value("i", 0)
        prefetch = TickKernel.prefetch_sources

        def slow_block_draw(kernel, upto_tick):
            if sys._getframe(1).f_code.co_name != "step":
                with draws.get_lock():
                    draws.value += 1
                time.sleep(sleep_s)
            prefetch(kernel, upto_tick)

        monkeypatch.setattr(TickKernel, "prefetch_sources", slow_block_draw)
        cluster = sharded_app()
        cluster.run(40.0, workers=workers)
        report = cluster.report
        assert report.workers == workers
        assert_stages_recorded(report)
        assert draws.value >= 2
        for stages in report.worker_stages.values():
            assert sum(stages.values()) <= report.wall_s
        assert report.stage_total("prefetch") >= draws.value * sleep_s

    @pytest.mark.parametrize("workers", [1, 2])
    def test_block_draws_follow_one_rule_at_lookahead_2(self, monkeypatch,
                                                        workers):
        """Every runner draws stimulus a block of
        ``UNCONSTRAINED_LOOKAHEAD`` ticks at a time, not once per
        super-step: 40 ticks at lookahead 2 (20 super-steps) take
        ceil(40 / 17) = 3 block draws per worker."""
        fork = multiprocessing.get_context("fork")
        draws = fork.Value("i", 0)
        prefetch = TickKernel.prefetch_sources

        def counted(kernel, upto_tick):
            if sys._getframe(1).f_code.co_name != "step":
                with draws.get_lock():
                    draws.value += 1
            prefetch(kernel, upto_tick)

        monkeypatch.setattr(TickKernel, "prefetch_sources", counted)
        cluster = sharded_app()
        cluster.run(40.0, workers=workers, lookahead=2)
        report = cluster.report
        assert (report.workers, report.lookahead) == (workers, 2)
        assert draws.value == workers * -(-40 // UNCONSTRAINED_LOOKAHEAD)

    def test_draw_ahead_draws_a_capped_block_only_when_needed(self):
        """The runners' one prefetch rule: nothing while the tick asked
        for is drawn, else the next ``UNCONSTRAINED_LOOKAHEAD`` ticks in
        one block, cut at the run's end, timed as prefetch."""
        drawn = []
        sleep_s = 0.001

        class Kernel:
            next_source_tick = 0

            def prefetch_sources(self, upto_tick):
                time.sleep(sleep_s)
                drawn.append(upto_tick)
                self.next_source_tick = upto_tick + 1

        class Engine:
            kernel = Kernel()

        engine = Engine()
        stages = dict.fromkeys(cluster_application.STAGES, 0.0)
        n_ticks = UNCONSTRAINED_LOOKAHEAD + 5
        # Super-steps of 3 ticks, each asking for its last tick.
        for start in range(0, n_ticks, 3):
            last = min(start + 3, n_ticks) - 1
            cluster_application._draw_ahead(engine, last, n_ticks, stages)
        assert drawn == [UNCONSTRAINED_LOOKAHEAD - 1, n_ticks - 1]
        assert stages["prefetch"] >= 2 * sleep_s
        assert sum(stages.values()) == stages["prefetch"]

    def test_exchange_begin_is_counted_as_exchange(self, monkeypatch):
        """Emptying a worker's write regions before a super-step is
        exchange work: slowed by a known sleep, it lands in the exchange
        stage and each worker's stages still fit inside the wall clock."""
        sleep_s = 0.02
        fork = multiprocessing.get_context("fork")
        begins = fork.Value("i", 0)
        begin = SharedMemoryExchange.begin

        def slow_begin(exchange, bank, worker):
            with begins.get_lock():
                begins.value += 1
            time.sleep(sleep_s)
            begin(exchange, bank, worker)

        monkeypatch.setattr(SharedMemoryExchange, "begin", slow_begin)
        cluster = sharded_app()
        cluster.run(40.0, workers=2)
        report = cluster.report
        assert report.workers == 2
        assert_stages_recorded(report)
        assert begins.value >= 4
        for stages in report.worker_stages.values():
            assert sum(stages.values()) <= report.wall_s
        assert report.stage_total("exchange") >= begins.value * sleep_s

    def test_stage_timers_cover_serial_and_pool(self):
        serial = sharded_app()
        serial.run(20.0, workers=1)
        assert_stages_recorded(serial.report)
        stages = serial.report.worker_stages[0]
        # The serial run has no exchange and no barrier.
        assert (stages["serialize"] == stages["exchange"]
                == stages["barrier_wait"] == 0.0)

        pooled = sharded_app()
        pooled.run(20.0, workers=2)
        report = pooled.report
        assert_stages_recorded(report)
        assert report.stage_total("compute") == pytest.approx(
            sum(stages["compute"]
                for stages in report.worker_stages.values()))


# ----------------------------------------------------------------------
# Result merging
# ----------------------------------------------------------------------
class TestApplicationResultMerge:
    def test_merge_sums_and_sorts(self):
        def shard(trains, counts, **counters):
            result = ApplicationResult(duration_ms=50.0)
            result.spike_counts.update(
                (label, np.array(c)) for label, c in counts.items())
            result.spikes.update(
                (label, SpikeTrain(times, neurons))
                for label, (times, neurons) in trains.items())
            for name, value in counters.items():
                setattr(result, name, value)
            return result

        first = shard({"a": ([1.0, 2.0], [0, 0]), "b": ([], []),
                       "c": ([], [])},
                      {"a": [1, 0], "b": [0], "c": [0]},
                      packets_sent=3, synaptic_events=10,
                      delivered_charge_na=1.5)
        # No "b" train: a label missing from one shard.
        second = shard({"a": ([1.0], [1])}, {"a": [0, 2], "b": [4]},
                       packets_sent=2, synaptic_events=5,
                       delivered_charge_na=0.25)
        third = shard({"a": ([0.0, 1.0, 3.0], [1, 0, 1]),
                       "b": ([2.0], [0])},
                      {"a": [1, 1], "b": [1]}, saturations=1)

        first.record_delivery(3.5, 1)
        first.record_delivery(1.25, count=2)
        third.record_delivery(7.0, 4, count=3)
        third.record_delivery(0.5, 0)

        merged = ApplicationResult.merge([first, second, third])
        assert merged.duration_ms == 50.0
        # Delivery samples concatenate in shard order, each latency
        # still paired with its own distance.
        assert merged.delivery_latencies_us.tolist() == [
            3.5, 1.25, 1.25, 7.0, 7.0, 7.0, 0.5]
        assert merged.delivery_distances.tolist() == [1, -1, -1, 4, 4, 4, 0]
        assert merged.max_delivery_latency_us() == 7.0
        # Readers copy: recording more into a shard leaves the merge alone.
        first.record_delivery(99.0, 9)
        assert len(merged.delivery_latencies_us) == 7
        assert np.array_equal(merged.spike_counts["a"], [2, 3])
        assert np.array_equal(merged.spike_counts["b"], [5])
        assert np.array_equal(merged.spike_counts["c"], [0])
        assert all(isinstance(train, SpikeTrain)
                   for train in merged.spikes.values())
        # Stable by time: the tick-1 spikes of all three shards keep
        # shard order.
        assert merged.spikes["a"] == [(0.0, 1), (1.0, 0), (1.0, 1),
                                      (1.0, 0), (2.0, 0), (3.0, 1)]
        assert merged.spikes["b"] == [(2.0, 0)]
        assert merged.spikes["c"] == []
        assert merged.spikes["c"].times_ms.dtype == np.float64
        assert merged.spikes["c"].neurons.dtype == np.int64
        assert merged.packets_sent == 5
        assert merged.synaptic_events == 15
        assert merged.delivered_charge_na == 1.75
        assert merged.saturations == 1

    def test_merge_of_nothing(self):
        merged = ApplicationResult.merge([])
        assert merged.duration_ms == 0.0
        assert merged.total_spikes() == 0


# ----------------------------------------------------------------------
# Board-aligned allocation
# ----------------------------------------------------------------------
class TestBoardAllocation:
    def _machine(self) -> SpiNNakerMachine:
        return SpiNNakerMachine(MachineConfig.multi_board(
            2, 2, board_width=4, board_height=3, cores_per_chip=2))

    def test_whole_board_leases_are_aligned(self):
        partitioner = MachinePartitioner(self._machine())
        lease = partitioner.allocate_boards(1, 1, tenant="a")
        assert lease is not None
        assert (lease.rect.width, lease.rect.height) == (4, 3)
        assert lease.rect.x % 4 == 0 and lease.rect.y % 3 == 0
        assert partitioner.boards_of(lease) == [0]

    def test_lease_spans_board_boundaries(self):
        partitioner = MachinePartitioner(self._machine())
        lease = partitioner.allocate_boards(2, 1, tenant="wide")
        assert lease is not None
        assert (lease.rect.width, lease.rect.height) == (8, 3)
        assert partitioner.boards_of(lease) == [0, 1]
        tall = partitioner.allocate_boards(2, 1, tenant="wide-2")
        assert partitioner.boards_of(tall) == [2, 3]
        assert partitioner.allocate_boards(1, 1) is None

    def test_alignment_survives_fragmentation(self):
        partitioner = MachinePartitioner(self._machine())
        # A small unaligned chip lease fragments the free space...
        small = partitioner.allocate(2, 2, tenant="chip-job")
        assert small is not None
        # ...but board leases still come back aligned to the grid.
        lease = partitioner.allocate_boards(1, 1, policy="best-fit")
        assert lease is not None
        assert lease.rect.x % 4 == 0 and lease.rect.y % 3 == 0
        assert len(partitioner.boards_of(lease)) == 1

    def test_board_allocation_needs_a_board_grid(self):
        machine = SpiNNakerMachine(MachineConfig(width=8, height=6,
                                                 cores_per_chip=2))
        partitioner = MachinePartitioner(machine)
        with pytest.raises(ValueError):
            partitioner.allocate_boards(1, 1)

    def test_released_board_lease_is_reusable(self):
        partitioner = MachinePartitioner(self._machine())
        first = partitioner.allocate_boards(2, 2)
        assert partitioner.boards_of(first) == [0, 1, 2, 3]
        assert partitioner.allocate_boards(1, 1) is None
        partitioner.release(first)
        again = partitioner.allocate_boards(2, 2)
        assert again is not None
