"""E17 — Compiled transport-fabric throughput at 48-chip scale (Section 4).

The paper's multicast router fabric carries spike events at rates no
software per-packet simulation can match: each spike is one CAM lookup
and a replay of a precompiled multicast tree.  This benchmark measures
the reproduction's analogue — the compiled transport fabric
(`repro.router.fabric`), which walks the generated routing tables once
per source key and delivers each tick's whole spike batch with numpy
gather/scatter — against the per-packet event-driven transport on an
identical 48-chip workload, and asserts the two transports remain
*exactly* equivalent (identical spike trains and delivered-weight
totals) in the lightly-loaded regime the paper prescribes.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.machine import MachineConfig, SpiNNakerMachine
from repro.neuron.connectors import FixedProbabilityConnector
from repro.neuron.network import Network
from repro.neuron.population import Population, SpikeSourcePoisson
from repro.runtime.application import NeuralApplication
from repro.runtime.boot import BootController

from .reporting import emit_json, print_table

SEED = 17
WIDTH, HEIGHT = 8, 6            # 48 chips
CORES_PER_CHIP = 2              # 1 monitor + 1 application core per chip
N_PAIRS = 20                    # stimulus -> excitatory population pairs
NEURONS = 256
STIM_RATE_HZ = 50.0
#: Simulated durations: the event path pays ~10 discrete events per
#: packet, so it gets a shorter (but still representative) window.
DURATION_FABRIC_MS = 200.0
DURATION_EVENT_MS = 25.0


def _build_network() -> Network:
    network = Network(seed=SEED)
    for pair in range(N_PAIRS):
        stimulus = SpikeSourcePoisson(NEURONS, rate_hz=STIM_RATE_HZ,
                                      label="stim-%d" % pair)
        excitatory = Population(NEURONS, "lif", label="exc-%d" % pair)
        excitatory.record(spikes=True)
        # Dense rows (~128 synapses each) keep the workload in the
        # lightly-loaded packet regime while giving every delivered spike
        # a realistic amount of synaptic work to scatter.
        network.connect(stimulus, excitatory,
                        FixedProbabilityConnector(0.5, weight=0.18,
                                                  delay_range=(1, 8)))
        network.connect(excitatory, excitatory,
                        FixedProbabilityConnector(0.08, weight=0.06,
                                                  delay_range=(1, 16)))
    return network


def _run(transport: str, duration_ms: float):
    machine = SpiNNakerMachine(MachineConfig(width=WIDTH, height=HEIGHT,
                                             cores_per_chip=CORES_PER_CHIP))
    BootController(machine, seed=1).boot()
    application = NeuralApplication(machine, _build_network(),
                                    max_neurons_per_core=NEURONS, seed=SEED,
                                    transport=transport, stagger_us=0.0)
    application.prepare()
    start = time.perf_counter()
    result = application.run(duration_ms)
    elapsed = time.perf_counter() - start
    return result, elapsed, machine


def _best_of_two(transport: str, duration_ms: float):
    """Keep the faster of two identical runs (CI-noise insurance)."""
    result, first, machine = _run(transport, duration_ms)
    _, second, _ = _run(transport, duration_ms)
    return result, min(first, second), machine


def test_e17_transport_fabric(benchmark):
    event_result, event_elapsed, event_machine = _best_of_two(
        "event", DURATION_EVENT_MS)
    fabric_result, fabric_elapsed, fabric_machine = benchmark.pedantic(
        _best_of_two, args=("fabric", DURATION_FABRIC_MS),
        rounds=1, iterations=1)

    # ------------------------------------------------------------------
    # Equivalence: over the window both transports simulated, the fabric
    # must replay the event path exactly — spike trains, delivered-weight
    # totals and link loads.
    # ------------------------------------------------------------------
    short_fabric, _, short_machine = _run("fabric", DURATION_EVENT_MS)
    assert event_result.packets_dropped == 0
    assert event_result.emergency_invocations == 0
    assert event_result.total_spikes() > 0
    assert event_result.spikes == short_fabric.spikes
    for label in event_result.spike_counts:
        assert np.array_equal(event_result.spike_counts[label],
                              short_fabric.spike_counts[label])
    assert event_result.delivered_charge_na == short_fabric.delivered_charge_na
    assert event_result.synaptic_events == short_fabric.synaptic_events
    assert (event_machine.total_link_traffic()
            == short_machine.total_link_traffic())

    event_throughput = event_result.synaptic_events / event_elapsed
    fabric_throughput = fabric_result.synaptic_events / fabric_elapsed
    speedup = fabric_throughput / event_throughput
    packet_rate_event = len(event_result.delivery_latencies_us) / event_elapsed
    packet_rate_fabric = len(fabric_result.delivery_latencies_us) / fabric_elapsed

    print_table(
        "E17: spike-delivery throughput (48 chips, %d populations)"
        % (2 * N_PAIRS,),
        [("event (per-packet)", "%.0f" % DURATION_EVENT_MS,
          event_result.synaptic_events, "%.3f" % event_elapsed,
          "%.3e" % event_throughput, "%.3e" % packet_rate_event),
         ("fabric (compiled)", "%.0f" % DURATION_FABRIC_MS,
          fabric_result.synaptic_events, "%.3f" % fabric_elapsed,
          "%.3e" % fabric_throughput, "%.3e" % packet_rate_fabric)],
        headers=("transport", "sim ms", "synaptic events", "wall s",
                 "events/s", "deliveries/s"))
    print_table("E17: transport speedup",
                [("fabric vs event", "%.1fx" % speedup)],
                headers=("comparison", "throughput ratio"))

    emit_json("e17", {
        "chips": WIDTH * HEIGHT,
        "event_synaptic_events": event_result.synaptic_events,
        "event_wall_s": event_elapsed,
        "event_events_per_s": event_throughput,
        "fabric_synaptic_events": fabric_result.synaptic_events,
        "fabric_wall_s": fabric_elapsed,
        "fabric_events_per_s": fabric_throughput,
        "speedup": speedup,
        "mean_delivery_latency_us_event":
            event_result.mean_delivery_latency_us(),
        "mean_delivery_latency_us_fabric":
            fabric_result.mean_delivery_latency_us(),
    })

    assert event_result.synaptic_events > 100_000, "benchmark too quiet"
    # The compiled fabric must out-deliver the per-packet path.  Each
    # rate is gated on its own: the ratio falls whenever the event path
    # gets faster, so it is reported, not asserted.
    assert fabric_throughput > event_throughput
