#!/usr/bin/env python
"""Scenario-matrix sweep: every transport x worker-count cell.

The dedicated benches each pin one corner of the system; this sweep
runs **one small fixed workload** through every execution configuration
the runtime offers and asserts they all produce the same spike trains —
so a regression in an un-benchmarked combination (say, the pooled
cluster against the event transport) fails the weekly sweep instead of
landing silently.  Cells:

* ``NeuralApplication`` family — {transport: event, fabric} at
  ``stagger_us=0`` (the equivalence regime: every core sees the same
  tick alignment);
* ``ClusterApplication`` family — {workers: 1, 2}, which the cluster
  tests pin equivalent to the fabric path.

The reference cell is the ``event`` transport — one packet per spike,
one DMA row per packet: the most literal execution.  Every cell's wall
seconds, equivalence verdict and per-stage profiler timings
(``REPRO_PROFILE`` is forced on for the sweep) are emitted into one
``BENCH_matrix.json`` for the weekly trend artifact.

Runs standalone (``python benchmarks/scenario_matrix.py``) or under
pytest (``test_scenario_matrix``).
"""

from __future__ import annotations

import os
import sys
import time
from typing import Dict, List, Tuple

if __package__ in (None, ""):
    # Standalone: make src/repro importable from a plain checkout and
    # the sibling reporting module importable without the package.
    _HERE = os.path.dirname(os.path.abspath(__file__))
    for _path in (os.path.join(os.path.dirname(_HERE), "src"), _HERE):
        if _path not in sys.path:
            sys.path.insert(0, _path)
    from reporting import emit_json, print_table
else:
    from .reporting import emit_json, print_table

import numpy as np

from repro import profile
from repro.cluster import ClusterApplication
from repro.core.machine import MachineConfig, SpiNNakerMachine
from repro.neuron.connectors import FixedProbabilityConnector
from repro.neuron.network import Network
from repro.neuron.population import Population, SpikeSourcePoisson
from repro.runtime.application import NeuralApplication
from repro.runtime.boot import BootController

SEED = 21
BOARDS_X, BOARDS_Y = 2, 1      # two boards, so spikes must cross a cable
BOARD_W, BOARD_H = 4, 4
CORES_PER_CHIP = 4
N_PAIRS = 2
NEURONS = 192
NEURONS_PER_CORE = 64
RATE_HZ = 80.0
DURATION_MS = 30.0

#: (cell name, runner kwargs).  The first cell is the reference.
APP_CELLS: List[Tuple[str, Dict[str, object]]] = [
    ("event", {"transport": "event"}),
    ("fabric", {"transport": "fabric"}),
]
CLUSTER_CELLS: List[Tuple[str, Dict[str, object]]] = [
    ("cluster_w1", {"workers": 1}),
    ("cluster_w2", {"workers": 2}),
]


def _build_network() -> Network:
    network = Network(seed=SEED)
    excitatory = []
    for pair in range(N_PAIRS):
        stimulus = SpikeSourcePoisson(NEURONS, rate_hz=RATE_HZ,
                                      label="x-stim-%d" % pair)
        population = Population(NEURONS, "lif", label="x-exc-%d" % pair)
        population.record(spikes=True)
        network.connect(stimulus, population,
                        FixedProbabilityConnector(0.15, weight=0.35,
                                                  delay_range=(1, 8)))
        network.connect(population, population,
                        FixedProbabilityConnector(0.05, weight=0.1,
                                                  delay_range=(1, 16)))
        excitatory.append(population)
    # Chain the pairs so traffic crosses the board boundary however the
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


def _spike_signature(result):
    """The per-cell equivalence payload: counts + recorded trains."""
    counts = {label: result.spike_counts[label].copy()
              for label in result.spike_counts}
    trains = {label: sorted(result.spikes[label])
              for label in result.spikes}
    return counts, trains


def _matches(reference, candidate) -> bool:
    ref_counts, ref_trains = reference
    cand_counts, cand_trains = candidate
    if set(ref_counts) != set(cand_counts):
        return False
    for label in ref_counts:
        if not np.array_equal(ref_counts[label], cand_counts[label]):
            return False
    return ref_trains == cand_trains


def _run_cell(name: str, network: Network, metrics: Dict[str, float]):
    """Run one cell; return its spike signature."""
    profile.reset()
    prefix = "profile_%s_" % name
    began = time.perf_counter()
    config = dict(APP_CELLS + CLUSTER_CELLS)[name]
    if "transport" in config:
        application = NeuralApplication(
            _machine(), network, max_neurons_per_core=NEURONS_PER_CORE,
            placement_strategy="round-robin", seed=SEED,
            transport=config["transport"], stagger_us=0.0)
        result = application.run(DURATION_MS)
        metrics.update(profile.flatten(prefix))
    else:
        cluster = ClusterApplication(
            _machine(), network, seed=SEED,
            max_neurons_per_core=NEURONS_PER_CORE,
            placement_strategy="round-robin")
        result = cluster.run(DURATION_MS, workers=config["workers"])
        # Worker stages live on the cluster's own merged registry; the
        # global one adds whatever the parent process profiled.
        metrics.update(cluster.registry.flatten(prefix))
        metrics.update(profile.flatten(prefix))
    metrics["%s_wall_s" % name] = time.perf_counter() - began
    return _spike_signature(result)


def run_matrix() -> Dict[str, float]:
    """Run every cell, assert equivalence, emit BENCH_matrix.json."""
    profile.enable()
    network = _build_network()
    metrics: Dict[str, float] = {
        "cells": float(len(APP_CELLS) + len(CLUSTER_CELLS)),
        "boards": float(BOARDS_X * BOARDS_Y),
        "chips": float(BOARDS_X * BOARDS_Y * BOARD_W * BOARD_H),
        "duration_ms": DURATION_MS,
    }
    cell_names = [name for name, _ in APP_CELLS + CLUSTER_CELLS]
    signatures = {name: _run_cell(name, network, metrics)
                  for name in cell_names}
    reference_name = cell_names[0]
    reference = signatures[reference_name]
    total_spikes = float(sum(int(counts.sum())
                             for counts in reference[0].values()))
    metrics["total_spikes"] = total_spikes
    mismatched = []
    for name in cell_names:
        match = _matches(reference, signatures[name])
        metrics["%s_match" % name] = float(match)
        if not match:
            mismatched.append(name)
    metrics["cells_passed"] = float(len(cell_names) - len(mismatched))

    rows = [(name,
             "%.3f" % metrics["%s_wall_s" % name],
             "ok" if metrics["%s_match" % name] else "MISMATCH")
            for name in cell_names]
    print_table("Scenario matrix (%d cells, reference: %s)"
                % (len(cell_names), reference_name), rows,
                headers=("cell", "wall s", "vs reference"))
    emit_json("matrix", metrics)

    assert total_spikes > 0, "the reference cell produced no spikes"
    assert not mismatched, (
        "cells diverged from %s: %s" % (reference_name, mismatched))
    return metrics


def test_scenario_matrix():
    run_matrix()


if __name__ == "__main__":
    run_matrix()
    print("scenario matrix: all cells equivalent")
