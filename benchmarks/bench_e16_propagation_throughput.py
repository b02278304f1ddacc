"""E16 — CSR propagation throughput (Sections 3.2, 5.3).

The deferred-event ("soft delay") model is "one of the most expensive
functions of the neuron models".  This benchmark builds a 10k-neuron /
>1M-synapse network and measures the synaptic-event throughput (events
scattered into the deferred-event ring buffers per second of wall time)
of the host tick loop's vectorized CSR scatter.  That the scatter equals
the literal per-synapse semantics is pinned by ``tests/test_neuron_engine.py``
against ``tests/oracles.py``; this file only measures.
"""

from __future__ import annotations

import time

import numpy as np

from repro.neuron.connectors import FixedProbabilityConnector
from repro.neuron.network import Network, expand_projections
from repro.neuron.population import Population, SpikeSourcePoisson

from .reporting import emit_json, print_table

SEED = 16
N_STIM = 1_000
N_EXC = 10_000
STIM_RATE_HZ = 40.0
DURATION_MS = 200.0


def _build_network() -> Network:
    network = Network(seed=SEED)
    stimulus = SpikeSourcePoisson(N_STIM, rate_hz=STIM_RATE_HZ, label="stim")
    excitatory = Population(N_EXC, "lif", label="exc")
    excitatory.bias_current_na = 1.45   # keeps baseline recurrent traffic up
    network.connect(stimulus, excitatory,
                    FixedProbabilityConnector(0.02, weight=1.5,
                                              delay_range=(1, 8)))
    network.connect(excitatory, excitatory,
                    FixedProbabilityConnector(0.009, weight=0.05,
                                              delay_range=(1, 16)))
    return network


def _prewarm(network: Network) -> int:
    """Expand every projection outside the timed region.

    Expansion happens once per (projection, seed) in steady state; the
    benchmark measures propagation, not connector expansion.
    """
    return sum(csr.n_synapses
               for _index, _projection, csr in expand_projections(network,
                                                                   SEED))


def _synaptic_events(network: Network, result) -> int:
    """Total synaptic events propagated during a run.

    Every spike of a source neuron delivers that neuron's whole row, so
    the event count is the spike count of each neuron weighted by its row
    length.
    """
    events = 0
    for _index, projection, csr in expand_projections(network, SEED):
        lengths = csr.row_lengths()
        counts = result.spike_counts[projection.pre.label]
        events += int(np.dot(counts[:lengths.size], lengths))
    return events


def _timed_run(network: Network, duration_ms: float):
    start = time.perf_counter()
    result = network.run(duration_ms)
    elapsed = time.perf_counter() - start
    return result, elapsed


def _best_of_two(network: Network, duration_ms: float):
    """Run twice and keep the faster wall time (the runs are identical),
    so a scheduler hiccup during either single timing cannot skew the
    throughput on a noisy CI runner."""
    result, first = _timed_run(network, duration_ms)
    _, second = _timed_run(network, duration_ms)
    return result, min(first, second)


def test_e16_propagation_throughput(benchmark):
    network = _build_network()
    n_synapses = _prewarm(network)
    assert network.n_neurons >= 10_000
    assert n_synapses >= 1_000_000

    csr_result, csr_elapsed = benchmark.pedantic(
        _best_of_two, args=(network, DURATION_MS), rounds=1, iterations=1)
    csr_events = _synaptic_events(network, csr_result)
    csr_throughput = csr_events / csr_elapsed

    print_table(
        "E16: spike-propagation throughput (10k neurons, %.1fM synapses)"
        % (n_synapses / 1e6),
        [("%.0f" % (DURATION_MS,), csr_events, "%.3f" % csr_elapsed,
          "%.3e" % csr_throughput)],
        headers=("sim ms", "synaptic events", "wall s", "events/s"))

    emit_json("e16", {
        "n_synapses": n_synapses,
        "csr_events": csr_events,
        "csr_wall_s": csr_elapsed,
        "csr_events_per_s": csr_throughput,
    })

    assert csr_events > 100_000, "benchmark network too quiet"
