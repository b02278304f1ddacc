"""E12 — Soft (programmable) synaptic delays (Section 3.2).

Paper claim: electronic communication is effectively instantaneous on the
biological timescale, but biological delays are functional and "can't
simply be eliminated in the model.  Instead, they are made 'soft'" — each
synapse carries a programmable delay re-inserted algorithmically at the
target neuron.  The benchmark builds a synfire-style delay-line chain and
shows that the deferred-event model reproduces the intended propagation
timing, whereas collapsing the delays to the minimum (what instantaneous
links would give) destroys it.
"""

from __future__ import annotations

import numpy as np

from repro.neuron.connectors import OneToOneConnector
from repro.neuron.network import Network
from repro.neuron.population import Population, SpikeSourceArray

from .reporting import emit_json, print_table

STAGES = 5
STAGE_DELAY_TICKS = 8
NEURONS_PER_STAGE = 20
TIMESTEP_MS = 1.0


def _build_chain(delay_ticks):
    network = Network(timestep_ms=TIMESTEP_MS, seed=4)
    source = SpikeSourceArray([[5.0]] * NEURONS_PER_STAGE,
                              label="chain-src-%d" % delay_ticks)
    stages = []
    previous = source
    for index in range(STAGES):
        stage = Population(NEURONS_PER_STAGE, "lif",
                           label="chain-%d-%d" % (delay_ticks, index))
        stage.record(spikes=True)
        network.connect(previous, stage,
                        OneToOneConnector(weight=10.0, delay_ticks=delay_ticks))
        stages.append(stage)
        previous = stage
    return network, stages


def _first_spike_times(result, stages):
    times = []
    for stage in stages:
        spikes = result.spikes[stage.label]
        times.append(min(t for t, _ in spikes) if spikes else float("nan"))
    return times


def _delay_ablation():
    soft_network, soft_stages = _build_chain(STAGE_DELAY_TICKS)
    soft_result = soft_network.run(150.0)
    soft_times = _first_spike_times(soft_result, soft_stages)

    collapsed_network, collapsed_stages = _build_chain(1)
    collapsed_result = collapsed_network.run(150.0)
    collapsed_times = _first_spike_times(collapsed_result, collapsed_stages)
    return soft_times, collapsed_times


def test_e12_soft_delay_model(benchmark):
    soft_times, collapsed_times = benchmark(_delay_ablation)

    rows = [(index, f"{soft:.1f}", f"{collapsed:.1f}")
            for index, (soft, collapsed)
            in enumerate(zip(soft_times, collapsed_times))]
    print_table("E12: first-spike time per chain stage (ms)", rows,
                headers=("stage", "soft delays (8 ticks/stage)",
                         "delays collapsed to 1 tick"))

    # Each stage takes the same integration time to fire on its input,
    # whatever the delay; the delay adds to it.  So with soft delays
    # every interval between successive stages is the collapsed chain's
    # interval plus exactly the extra programmed ticks, at every stage.
    soft_intervals = np.diff(soft_times)
    collapsed_intervals = np.diff(collapsed_times)
    emit_json("e12", {
        "soft_span_ms": soft_times[-1] - soft_times[0],
        "collapsed_span_ms": collapsed_times[-1] - collapsed_times[0],
        "soft_mean_interval_ms": float(np.mean(soft_intervals)),
        "collapsed_mean_interval_ms":
            float(np.mean(collapsed_intervals)),
    })
    assert np.all(np.isfinite(soft_times))
    assert np.all(np.isfinite(collapsed_times))
    extra_ms = (STAGE_DELAY_TICKS - 1) * TIMESTEP_MS
    assert collapsed_intervals[0] > 0
    assert np.all(collapsed_intervals == collapsed_intervals[0])
    assert np.all(soft_intervals - collapsed_intervals == extra_ms)
    # Collapsing the delays (the behaviour instantaneous links would give
    # without the deferred-event model) compresses the whole wave by the
    # extra ticks of every stage after the first.
    assert (soft_times[-1] - soft_times[0]) == (
        collapsed_times[-1] - collapsed_times[0]) + (STAGES - 1) * extra_ms
