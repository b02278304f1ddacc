"""Tests for the compiled multicast transport fabric.

Covers the route-program compiler (tree walk, default routing, drops,
latency/hop accounting), the bulk statistics replay, and — most
importantly — the transport equivalence suite: seeded networks must
produce identical spike trains and delivered-weight totals under
``transport="fabric"`` and ``transport="event"``, on both a localized
and a long-range (multi-hop) topology, with link loads and every core,
chip and table counter equal whichever transport carried the traffic.
"""

from __future__ import annotations

import ast
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.congestion import congestion_report, link_load_matrix
from repro.analysis.traffic import (
    link_traffic_summary,
    per_chip_injection,
    transport_mix,
)
from repro.core.geometry import ChipCoordinate, Direction
from repro.core.machine import MachineConfig, SpiNNakerMachine
from repro.neuron.connectors import FixedProbabilityConnector
from repro.neuron.network import Network
from repro.neuron.population import Population, SpikeSourcePoisson
from repro.router.fabric import TransportFabric, compile_route
from repro.runtime.application import NeuralApplication
from repro.runtime.boot import BootController

SRC = Path(__file__).resolve().parents[1] / "src"


# ----------------------------------------------------------------------
# Route-program compilation
# ----------------------------------------------------------------------
class TestCompileRoute:
    @staticmethod
    def machine(width=4, height=4):
        return SpiNNakerMachine(MachineConfig(width=width, height=height,
                                              cores_per_chip=4))

    def test_straight_line_route(self):
        machine = self.machine()
        key = 0x42
        # (0,0) -E-> (1,0) -E-> (2,0): deliver to cores 1 and 2.
        machine.chip(0, 0).router.table.add(key=key, mask=0xFFFFFFFF,
                                            links=[Direction.EAST])
        machine.chip(1, 0).router.table.add(key=key, mask=0xFFFFFFFF,
                                            links=[Direction.EAST])
        machine.chip(2, 0).router.table.add(key=key, mask=0xFFFFFFFF,
                                            cores=[1, 2])
        program = compile_route(machine, ChipCoordinate(0, 0), key)
        assert program.n_destinations == 2
        assert {t.core_id for t in program.targets} == {1, 2}
        assert all(t.chip == ChipCoordinate(2, 0) for t in program.targets)
        assert all(t.hops == 2 for t in program.targets)
        assert program.n_link_hops == 2
        assert not program.dropped_at_source

    def test_branching_tree_counts_every_link(self):
        machine = self.machine()
        key = 0x7
        machine.chip(0, 0).router.table.add(
            key=key, mask=0xFFFFFFFF,
            links=[Direction.EAST, Direction.NORTH], cores=[1])
        machine.chip(1, 0).router.table.add(key=key, mask=0xFFFFFFFF,
                                            cores=[2])
        machine.chip(0, 1).router.table.add(key=key, mask=0xFFFFFFFF,
                                            cores=[3])
        program = compile_route(machine, ChipCoordinate(0, 0), key)
        assert program.n_destinations == 3
        assert program.n_link_hops == 2
        assert program.max_hops == 1
        local = [t for t in program.targets if t.chip == ChipCoordinate(0, 0)]
        remote = [t for t in program.targets if t.chip != ChipCoordinate(0, 0)]
        # Local delivery skips the inter-chip link terms entirely.
        assert all(l.latency_us < r.latency_us for l in local for r in remote)

    def test_default_routing_continues_straight_through(self):
        machine = self.machine()
        key = 0x9
        machine.chip(0, 0).router.table.add(key=key, mask=0xFFFFFFFF,
                                            links=[Direction.EAST])
        # No entry at (1,0): a packet arriving from the west default-routes
        # east, straight through to (2,0).
        machine.chip(2, 0).router.table.add(key=key, mask=0xFFFFFFFF,
                                            cores=[1])
        program = compile_route(machine, ChipCoordinate(0, 0), key)
        assert program.n_destinations == 1
        assert program.targets[0].hops == 2
        visits = {v.chip: v for v in program.chip_visits}
        assert visits[ChipCoordinate(1, 0)].table_hit is False
        assert visits[ChipCoordinate(2, 0)].table_hit is True

    def test_local_key_without_entry_is_dropped(self):
        machine = self.machine()
        program = compile_route(machine, ChipCoordinate(0, 0), 0x123)
        assert program.dropped_at_source
        assert program.n_destinations == 0
        assert program.n_link_hops == 0

    def test_latency_grows_with_distance(self):
        machine = self.machine(8, 2)
        key = 0x1
        current = ChipCoordinate(0, 0)
        for _ in range(5):
            machine.chips[current].router.table.add(
                key=key, mask=0xFFFFFFFF, links=[Direction.EAST])
            current = current.neighbour(Direction.EAST, 8, 2)
        machine.chips[current].router.table.add(key=key, mask=0xFFFFFFFF,
                                                cores=[1])
        program = compile_route(machine, ChipCoordinate(0, 0), key)
        assert program.targets[0].hops == 5
        # NoC in + 5 links + NoC out, using the modelled service/latency.
        assert program.max_latency_us == pytest.approx(
            2 * (1 / 8.0 + 0.1) + 5 * (1 / 6.0 + 0.2))

    def test_account_batch_replays_per_packet_counters(self):
        machine = self.machine()
        key = 0x5
        machine.chip(0, 0).router.table.add(key=key, mask=0xFFFFFFFF,
                                            links=[Direction.EAST])
        machine.chip(1, 0).router.table.add(key=key, mask=0xFFFFFFFF,
                                            cores=[1, 3])
        fabric = TransportFabric(machine)
        program = fabric.compile_key(ChipCoordinate(0, 0), key)
        fabric.account_batch(program, 10)
        source = machine.chip(0, 0).router.stats
        dest = machine.chip(1, 0).router.stats
        assert source.multicast_routed == 10
        assert source.injected_local == 10
        assert source.forwarded == 10
        assert source.forwarded_by_link[Direction.EAST] == 10
        assert dest.multicast_routed == 10
        assert dest.delivered_local == 20
        link = machine.link(ChipCoordinate(0, 0), Direction.EAST)
        assert link.packets_carried == 10
        assert link.bits_carried == 400
        assert fabric.packets_accounted == 10
        assert fabric.summary()["programs"] == 1.0


# ----------------------------------------------------------------------
# Transport equivalence
# ----------------------------------------------------------------------
def localized_application(machine, transport):
    """A mostly-nearest-neighbour workload under locality placement."""
    network = Network(seed=21)
    stimulus = SpikeSourcePoisson(40, rate_hz=80.0, label="stim")
    target = Population(80, "lif", label="tgt")
    target.record(spikes=True)
    network.connect(stimulus, target,
                    FixedProbabilityConnector(0.3, weight=1.5,
                                              delay_range=(1, 6)))
    network.connect(target, target,
                    FixedProbabilityConnector(0.05, weight=0.4))
    return NeuralApplication(machine, network, max_neurons_per_core=16,
                             seed=21, transport=transport, stagger_us=0.0)


def long_range_application(machine, transport):
    """Populations scattered raster-order so projections span many hops."""
    network = Network(seed=31)
    stimulus = SpikeSourcePoisson(96, rate_hz=50.0, label="lr-stim")
    target = Population(192, "lif", label="lr-tgt")
    target.record(spikes=True)
    network.connect(stimulus, target,
                    FixedProbabilityConnector(0.12, weight=1.6,
                                              delay_range=(1, 10)))
    return NeuralApplication(machine, network, max_neurons_per_core=32,
                             seed=31, transport=transport,
                             placement_strategy="round-robin",
                             stagger_us=0.0)


TOPOLOGIES = {
    "localized": (dict(width=3, height=3, cores_per_chip=6),
                  localized_application),
    "long-range": (dict(width=5, height=5, cores_per_chip=2),
                   long_range_application),
}


def run_topology(name, transport):
    config, build = TOPOLOGIES[name]
    machine = SpiNNakerMachine(MachineConfig(**config))
    BootController(machine, seed=1).boot()
    application = build(machine, transport)
    result = application.run(120.0)
    return application, result, machine


@pytest.fixture(scope="module")
def runs():
    """``runs(topology, transport)``: each run simulated once per module
    and shared by every test here (they only read it)."""
    cache = {}

    def run(topology, transport):
        if (topology, transport) not in cache:
            cache[topology, transport] = run_topology(topology, transport)
        return cache[topology, transport]
    return run


def _counters(application, machine):
    """Every transport-visible counter, keyed by core, chip and table.

    Floats (busy times) are compared with a relative tolerance: the event
    path sums one handler at a time, the fabric one batch at a time.
    Two things are left out on purpose: ``max_interrupt_latency_us`` (the
    fabric raises no delivery interrupts) and the latency values (the
    event path's include core-side queueing; the fabric's are nominal).
    The router's ``fabric_batches`` counts the fabric's own batches and
    is checked on its own.
    """
    counters = {"unmatched_packets": application.unmatched_packets}
    for coordinate, chip in machine.chips.items():
        stats = asdict(chip.router.stats)
        stats.pop("fabric_batches")
        counters[coordinate, "router"] = stats
        counters[coordinate, "routing table"] = (chip.router.table.lookups,
                                                 chip.router.table.misses)
        counters[coordinate, "sdram bytes read"] = chip.sdram.total_bytes_read
        counters[coordinate, "system noc"] = asdict(chip.system_noc.stats)
        counters[coordinate, "system noc initiators"] = dict(
            chip.system_noc.traffic_by_initiator)
        counters[coordinate, "comms noc"] = asdict(chip.comms_noc.stats)
        for core in chip.cores:
            counters[coordinate, core.core_id] = dict(
                packets_received=core.packets_received,
                packets_sent=core.packets_sent,
                handler_invocations=dict(core.handler_invocations),
                dma_transfers=core.dma.completed_transfers,
                dma_words=core.dma.total_words_transferred)
            counters[coordinate, core.core_id, "busy"] = core.busy_time_us
    for runtime in application.core_runtimes:
        table = runtime.synaptic_data.population_table
        counters[runtime.chip_coordinate, runtime.core.core_id,
                 "population table"] = (table.lookups, table.misses)
    return counters


def _approx_floats(value):
    if isinstance(value, float):
        return pytest.approx(value, rel=1e-12)
    if isinstance(value, dict):
        return {key: _approx_floats(item) for key, item in value.items()}
    return value


class TestTransportEquivalence:
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_identical_spike_trains_and_delivered_weight(self, runs,
                                                         topology):
        event_app, event, event_machine = runs(topology, "event")
        fabric_app, fabric, fabric_machine = runs(topology, "fabric")
        assert event.total_spikes() > 0
        assert event.spikes == fabric.spikes
        for label in event.spike_counts:
            assert np.array_equal(event.spike_counts[label],
                                  fabric.spike_counts[label])
        assert event.delivered_charge_na == fabric.delivered_charge_na
        assert event.synaptic_events == fabric.synaptic_events
        assert event.packets_sent == fabric.packets_sent
        assert event.packets_dropped == fabric.packets_dropped == 0
        assert event_app.unmatched_packets == fabric_app.unmatched_packets == 0

    def test_long_range_topology_really_is_long_range(self, runs):
        application, _result, _machine = runs("long-range", "fabric")
        depths = [program.max_hops
                  for program in application.fabric.programs.values()]
        assert max(depths) >= 3

    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_link_loads_readable_from_either_transport(self, runs, topology):
        _, _, event_machine = runs(topology, "event")
        _, _, fabric_machine = runs(topology, "fabric")
        # congestion.py and traffic.py read the same per-link counters the
        # fabric increments in bulk, so both transports report identical
        # loads for identical traffic.
        assert np.array_equal(link_load_matrix(event_machine),
                              link_load_matrix(fabric_machine))
        event_traffic = link_traffic_summary(event_machine)
        fabric_traffic = link_traffic_summary(fabric_machine)
        assert event_traffic.total_packets == fabric_traffic.total_packets
        assert event_traffic.total_bits == fabric_traffic.total_bits
        assert event_traffic.active_links == fabric_traffic.active_links
        assert (per_chip_injection(event_machine)
                == per_chip_injection(fabric_machine))
        report = congestion_report(fabric_machine)
        assert report.total_packets == event_traffic.total_packets
        assert report.dropped_packets == 0

    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_every_counter_matches_between_transports(self, runs, topology):
        event_app, event, event_machine = runs(topology, "event")
        fabric_app, fabric, fabric_machine = runs(topology, "fabric")
        event_counters = _counters(event_app, event_machine)
        fabric_counters = _counters(fabric_app, fabric_machine)
        assert event_counters.keys() == fabric_counters.keys()
        for key, value in event_counters.items():
            assert _approx_floats(value) == fabric_counters[key], key
        # The only counter that tells the transports apart.
        assert transport_mix(event_machine)["fabric_batches"] == 0
        assert transport_mix(fabric_machine)["fabric_batches"] > 0
        assert transport_mix(event_machine)["multicast_routed"] > 0
        # One delivery sample per packet delivered, per DMA row read.
        samples = len(event.delivery_latencies_us)
        assert samples == len(fabric.delivery_latencies_us) > 0
        assert samples == sum(core.dma.completed_transfers
                              for chip in fabric_machine.chips.values()
                              for core in chip.cores)
        assert (sorted(event.delivery_distances)
                == sorted(fabric.delivery_distances))

    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_dma_row_reads_cross_the_system_noc_on_both_transports(
            self, runs, topology):
        _, _, event_machine = runs(topology, "event")
        _, _, fabric_machine = runs(topology, "fabric")
        for coordinate, chip in event_machine.chips.items():
            event_noc = chip.system_noc.stats
            fabric_noc = fabric_machine.chips[coordinate].system_noc.stats
            reads = sum(core.dma.completed_transfers for core in chip.cores)
            assert event_noc.transfers == fabric_noc.transfers == reads
            assert event_noc.total_bits == fabric_noc.total_bits
            assert event_noc.busy_time_us == pytest.approx(
                fabric_noc.busy_time_us, rel=1e-12)

    def test_fabric_latencies_are_sane_and_recorded_in_bulk(self, runs):
        _, result, _ = runs("long-range", "fabric")
        latencies = result.delivery_latencies_us
        distances = result.delivery_distances
        assert len(latencies) == len(distances) > 0
        assert latencies.min() > 0.0
        assert latencies.max() < 1000.0
        # Deliveries over more hops must not be cheaper than near ones.
        assert distances.max() > distances.min()
        assert (latencies[distances == distances.max()].mean()
                > latencies[distances == distances.min()].mean())


class TestOneCountingHome:
    """Each delivery counter of a core, DMA engine, SDRAM, table or
    router is written only by the component that owns it: the transports
    call its counting method (``n = 1`` per packet, ``n = batch`` on the
    fabric) and never re-state the arithmetic.  The application's own
    records (its ``result``, a shard merge's ``merged`` result and its
    ``unmatched_packets``) are the runtime layer's to write."""

    FILES = ("runtime/application.py", "router/fabric.py",
             "router/multicast.py")
    COUNTERS = {"packets_received", "packets_sent", "handler_invocations",
                "completed_transfers", "total_words_transferred",
                "total_bytes_read", "lookups", "misses"}
    OWN_RECORDS = {"self", "result", "merged"}

    @classmethod
    def holder(cls, target):
        """The expression owning the counter ``target`` writes, if any."""
        if isinstance(target, ast.Subscript):
            target = target.value
        if not isinstance(target, ast.Attribute):
            return None
        if target.attr in cls.COUNTERS:
            return target.value
        if (isinstance(target.value, ast.Attribute)
                and target.value.attr == "stats"):
            return target.value.value
        return None

    @staticmethod
    def name_of(holder):
        """``self`` for ``self``, ``result`` for ``self.application.result``."""
        if isinstance(holder, ast.Name):
            return holder.id
        return holder.attr if isinstance(holder, ast.Attribute) else None

    def test_no_counter_is_incremented_by_another_class(self):
        offenders = []
        for name in self.FILES:
            path = SRC / "repro" / name
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.AugAssign):
                    continue
                holder = self.holder(node.target)
                if holder is not None and self.name_of(
                        holder) not in self.OWN_RECORDS:
                    offenders.append("%s:%d %s" % (
                        name, node.lineno, ast.unparse(node.target)))
        assert not offenders, offenders


def run_with_disabled_destination(transport):
    """Disable the only target core just after a tick's spikes are sent
    (the fabric's batches are scheduled, not landed; the event path's
    packets are in flight) and keep running.  Returns the target core's
    counters and the result's delivery totals at the disable and at the
    end."""
    machine = SpiNNakerMachine(MachineConfig(width=2, height=2,
                                             cores_per_chip=4))
    BootController(machine, seed=1).boot()
    network = Network(seed=41)
    stimulus = SpikeSourcePoisson(24, rate_hz=120.0, label="stim")
    target = Population(16, "lif", label="tgt")
    network.connect(stimulus, target,
                    FixedProbabilityConnector(0.5, weight=1.0))
    application = NeuralApplication(machine, network,
                                    max_neurons_per_core=16, seed=41,
                                    transport=transport, stagger_us=0.0)
    application.prepare()
    core, = [runtime.core for runtime in application.core_runtimes
             if runtime.population.label == "tgt"]
    result = application.result

    def snapshot():
        return dict(received=core.packets_received,
                    handlers=dict(core.handler_invocations),
                    dma_reads=core.dma.completed_transfers,
                    synaptic_events=result.synaptic_events,
                    charge=result.delivered_charge_na,
                    deliveries=len(result.delivery_latencies_us))

    at_disable = {}

    def disable(_kernel):
        at_disable.update(snapshot())
        core.disable()

    application.kernel.schedule(application.kernel.now + 20_000.5, disable)
    application.run(40.0)
    return at_disable, snapshot()


class TestDisabledDestination:
    """Batches and packets that reach a core after it is disabled count
    as received there and run no handler, DMA or synaptic delivery, on
    either transport."""

    def test_arrivals_at_a_disabled_core_are_received_not_processed(self):
        ends = {}
        for transport in ("event", "fabric"):
            at_disable, end = run_with_disabled_destination(transport)
            assert at_disable["synaptic_events"] > 0
            assert end["received"] > at_disable["received"]
            for counter in ("handlers", "dma_reads", "synaptic_events",
                            "charge", "deliveries"):
                assert end[counter] == at_disable[counter], counter
            ends[transport] = end
        assert ends["event"] == ends["fabric"]


class TestTransportConfiguration:
    def test_invalid_transport_rejected(self):
        machine = SpiNNakerMachine(MachineConfig(width=2, height=2,
                                                 cores_per_chip=4))
        with pytest.raises(ValueError):
            NeuralApplication(machine, Network(seed=1), transport="pigeon")

    def test_negative_stagger_rejected(self):
        machine = SpiNNakerMachine(MachineConfig(width=2, height=2,
                                                 cores_per_chip=4))
        with pytest.raises(ValueError):
            NeuralApplication(machine, Network(seed=1), stagger_us=-1.0)

    def test_fabric_programs_emitted_by_mapping_layer(self):
        # prepare() adopts the generator's programs; compile once more via
        # the application and confirm a program exists per source vertex.
        machine = SpiNNakerMachine(MachineConfig(width=3, height=3,
                                                 cores_per_chip=6))
        BootController(machine, seed=1).boot()
        application = localized_application(machine, "fabric")
        application.prepare()
        senders = [runtime for runtime in application.core_runtimes
                   if runtime.has_outgoing_projections]
        assert senders
        for runtime in senders:
            assert runtime.fabric_program is not None
            assert runtime.fabric_deliveries
