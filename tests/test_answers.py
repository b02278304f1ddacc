"""The checked-in answers: exact figures of fixed scenarios, gated.

Every engine-to-engine test in this suite compares two runs of the same
code, so a change that moves every engine together (a new expansion
stream, a connector change, a tick-count fix) passes all of them.  The
exact counts of a seeded run do not depend on the host, so this module
pins them against ``answers.json``: each scenario is recomputed and every
figure compared exactly.  A cluster scenario runs once serially and once
pooled (:data:`CLUSTER_WORKERS`), and both runs must give the one answer.

A change that moves answers on purpose regenerates the file with::

    python -m pytest tests/test_answers.py --update-answers

and names every answer that moved, old -> new, in its change notes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np
import pytest

from benchmarks import scenario_matrix
from benchmarks.e2e import workloads
from benchmarks.e2e.harness import spike_digest48
from repro.cluster import ClusterApplication
from repro.core.machine import MachineConfig, SpiNNakerMachine
from repro.neuron.connectors import (
    AllToAllConnector,
    DistanceDependentConnector,
    FromListConnector,
    OneToOneConnector,
)
from repro.neuron.network import Network
from repro.neuron.population import Population, SpikeSourcePoisson
from repro.runtime.application import NeuralApplication
from repro.runtime.boot import BootController
from repro.runtime.monitor import MonitorService
from test_cluster_fused import generated_network

ANSWERS = Path(__file__).with_name("answers.json")

Figures = Dict[str, object]

#: The worker counts every cluster scenario runs at: the serial runner
#: and pools of two and three workers (three is an uneven cut of a
#: four-board machine), which must all reproduce the scenario's answer.
CLUSTER_WORKERS = (1, 2, 3)


def booted(config: MachineConfig, seed: int = 1) -> SpiNNakerMachine:
    machine = SpiNNakerMachine(config)
    BootController(machine, seed=seed).boot()
    return machine


def result_figures(network: Network, result) -> Figures:
    """What every run publishes: its synapses and its spikes."""
    return {
        "synapses": network.n_synapses(),
        "spike_digest48": spike_digest48(result.spikes, network.timestep_ms),
        "total_spikes": result.total_spikes(),
    }


def sdram_digest48(machine: SpiNNakerMachine, core_data) -> int:
    """First 48 bits of sha256 over every core's SDRAM image, in slot
    order: each population-table record ``(key, mask, address, stride,
    n_rows)`` and the words its block holds."""
    digest = hashlib.sha256()
    for (chip, core_id), data in sorted(core_data.items()):
        digest.update(np.array([chip.x, chip.y, core_id],
                               dtype=np.int64).tobytes())
        for entry in data.population_table.entries:
            digest.update(np.array(
                [entry.key, entry.mask, entry.sdram_address,
                 entry.row_stride_words, entry.n_rows],
                dtype=np.int64).tobytes())
            digest.update(machine.chips[chip].sdram.peek_block(
                entry.sdram_address,
                entry.row_stride_words * entry.n_rows).tobytes())
    return int.from_bytes(digest.digest()[:6], "big")


def machine_figures(network: Network, app, result) -> Figures:
    """An on-machine run adds its delivery counters, its routes and its
    SDRAM image."""
    ctx = app.pipeline.ctx
    return dict(
        result_figures(network, result),
        synaptic_events=result.synaptic_events,
        delivered_charge_na=result.delivered_charge_na,
        saturations=result.saturations,
        routing_entries=ctx.routing_summary.entries_after_minimisation,
        sdram_digest48=sdram_digest48(ctx.machine, ctx.core_data))


def cluster_runs(network: Network, app: ClusterApplication,
                 duration_ms: float, **extra) -> List[Figures]:
    """One run per :data:`CLUSTER_WORKERS` entry; a cluster run adds its
    super-steps and cable traffic."""
    runs = []
    for workers in CLUSTER_WORKERS:
        result = app.run(duration_ms, workers=workers)
        runs.append(dict(machine_figures(network, app, result),
                         supersteps=app.report.supersteps,
                         cross_board_spikes=app.report.cross_board_spikes,
                         **extra))
    return runs


def cluster_figures(network: Network, machine: SpiNNakerMachine,
                    duration_ms: float, **kwargs) -> List[Figures]:
    return cluster_runs(network, ClusterApplication(machine, network,
                                                    **kwargs), duration_ms)


def ring8(n: int, wiring, run_ms: float) -> List[Figures]:
    """An e2e workload's network on the four-board machine."""
    seed = 11
    return cluster_figures(
        workloads.ring8(n, seed, wiring),
        booted(workloads.four_board_config(), seed), run_ms, seed=seed,
        max_neurons_per_core=n // workloads.VERTICES_PER_POPULATION,
        placement_strategy=workloads.PLACEMENT)


def compile_remap() -> List[Figures]:
    """compile_remap's network re-mapped after two condemnations of the
    last chip in use, then run over the re-mapped shards."""
    seed, n = 11, 96
    machine = booted(workloads.four_board_config(), seed)
    network = workloads.ring8(n, seed, workloads.DENSE)
    app = ClusterApplication(
        machine, network, seed=seed,
        max_neurons_per_core=n // workloads.VERTICES_PER_POPULATION,
        placement_strategy=workloads.PLACEMENT)
    app.prepare()
    monitor = MonitorService(machine)
    monitor.attach_application(app)
    displaced = 0
    for _ in range(2):
        placement = app.pipeline.ctx.placement
        victim = placement.chips_used()[-1]
        displaced += sum(1 for chip, _core in placement.locations.values()
                         if chip == victim)
        monitor.condemn_chip(victim)
    return cluster_runs(
        network, app, 50.0,
        vertices=len(app.pipeline.ctx.placement.locations),
        displaced_vertices=displaced,
        board_pair_min_delay=sorted(
            [*pair, delay]
            for pair, delay in app.pipeline.ctx.board_pair_min_delay.items()))


def scenario_matrix_cluster() -> List[Figures]:
    return cluster_figures(
        scenario_matrix._build_network(), scenario_matrix._machine(),
        scenario_matrix.DURATION_MS, seed=scenario_matrix.SEED,
        max_neurons_per_core=scenario_matrix.NEURONS_PER_CORE,
        placement_strategy="round-robin")


def fabric_e17() -> List[Figures]:
    seed, pairs, n, run_ms = 11, 4, 128, 30.0
    network = workloads.fabric_network(pairs, n, seed)
    app = NeuralApplication(
        booted(MachineConfig(width=workloads.FABRIC_W,
                             height=workloads.FABRIC_H,
                             cores_per_chip=workloads.FABRIC_CORES), seed),
        network, max_neurons_per_core=n, seed=seed, transport="fabric",
        stagger_us=0.0)
    return [machine_figures(network, app, app.run(run_ms))]


def host_e17() -> List[Figures]:
    """e17's network through the host reference loop."""
    network = workloads.fabric_network(4, 128, 11)
    return [result_figures(network, network.run(30.0))]


def generated(scenario: int) -> List[Figures]:
    network = generated_network(np.random.default_rng(scenario))
    return [result_figures(network, network.run(50.0))]


def control_network() -> Network:
    """Wired only by connectors whose streams no fixed-probability change
    touches: one-to-one, all-to-all, distance-dependent and a list."""
    network = Network(seed=5)
    stimulus = SpikeSourcePoisson(48, rate_hz=60.0, label="c-stim")
    grid = Population(48, "lif", label="c-grid")
    relay = Population(48, "lif", label="c-relay")
    sink = Population(12, "lif", label="c-sink")
    for population in (grid, relay, sink):
        population.record(spikes=True)
    network.connect(stimulus, grid, OneToOneConnector(weight=15.0,
                                                      delay_ticks=1))
    network.connect(grid, grid, DistanceDependentConnector(
        pre_shape=(6, 8), post_shape=(6, 8), sigma=1.5, max_distance=3.0,
        weight=1.5, p_peak=0.7, delay_per_unit_distance_ticks=1.5))
    network.connect(grid, relay, OneToOneConnector(weight=12.0,
                                                   delay_ticks=3))
    network.connect(relay, sink, AllToAllConnector(weight=1.0,
                                                   delay_ticks=2))
    network.connect(sink, grid, FromListConnector(
        [(i, 4 * i + j, 5.0, 5 + j) for i in range(12) for j in range(4)]))
    return network


def control() -> List[Figures]:
    return cluster_figures(
        control_network(),
        booted(MachineConfig.multi_board(2, 1, board_width=2, board_height=2,
                                         cores_per_chip=3)),
        60.0, seed=5, max_neurons_per_core=16,
        placement_strategy="round-robin")


#: Each scenario gives a list of runs' figures, which must all equal its
#: one answer: a cluster scenario one run per :data:`CLUSTER_WORKERS`
#: entry, any other scenario one run.
SCENARIOS: Dict[str, Callable[[], List[Figures]]] = {
    "compile_remap": compile_remap,
    "scenario_matrix_cluster": scenario_matrix_cluster,
    "ring8_96_dense": lambda: ring8(96, workloads.DENSE, 50.0),
    "ring8_960_sparse": lambda: ring8(960, workloads.SPARSE, 400.0),
    "fabric_e17": fabric_e17,
    "host_e17": host_e17,
    "generated_1": lambda: generated(1),
    "generated_2": lambda: generated(2),
    "generated_3": lambda: generated(3),
    "control": control,
}


def load_answers() -> Dict[str, Figures]:
    return json.loads(ANSWERS.read_text()) if ANSWERS.exists() else {}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_answers_unchanged(name, request):
    runs = SCENARIOS[name]()
    if request.config.getoption("--update-answers"):
        answers = load_answers()
        answers[name] = runs[0]
        ANSWERS.write_text(json.dumps(answers, indent=2, sort_keys=True)
                           + "\n")
    answer = load_answers()[name]
    for index, figures in enumerate(runs):
        assert figures == answer, "run %d of %s" % (index, name)


def test_every_scenario_has_answers():
    assert sorted(load_answers()) == sorted(SCENARIOS)
