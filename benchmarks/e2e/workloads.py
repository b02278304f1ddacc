"""The six workloads and every constant they pin (reason beside each).

Each workload is a small class with ``setup`` (untimed, reported as
``setup_s``), ``repeat`` (the timed operations, each under an ``op.*``
span), ``finish`` (cross-repeat checks; per-layer figures when traced)
and ``teardown`` (always runs).  They call the layers' public functions
only and use the default engine / propagation arguments.  The seed
reaches the program only through the generated network, machine boot
and tenant schedule.
"""

from __future__ import annotations

import gc
import os
import random
import threading
from types import SimpleNamespace
from typing import Dict, List

import numpy as np

from repro.alloc.server import AllocationServer
from repro.cluster import ClusterApplication
from repro.compile import MappingPipeline
from repro.core.machine import MachineConfig, SpiNNakerMachine
from repro.host.host_system import HostSystem
from repro.neuron.connectors import FixedProbabilityConnector
from repro.neuron.network import Network, expand_projections
from repro.neuron.population import Population, SpikeSourcePoisson
from repro.runtime.application import NeuralApplication
from repro.runtime.boot import BootController
from repro.runtime.monitor import MonitorService
from repro.service import (AllocationService, ServiceClient,
                           ServiceClientError)

from benchmarks.e2e import metrics
from benchmarks.e2e.harness import Context, now, percentile, spike_digest48

# ----------------------------------------------------------------------
# Pinned constants
# ----------------------------------------------------------------------
#: e19's machine: a row of four production 48-chip boards, 1 monitor +
#: 3 application cores per chip, so every cluster run crosses cables.
BOARDS_X, BOARDS_Y, BOARD_W, BOARD_H, CORES_PER_CHIP = 4, 1, 8, 6, 4
#: The lease that covers exactly those four boards.
LEASE_W, LEASE_H = BOARDS_X * BOARD_W, BOARDS_Y * BOARD_H
#: Round-robin spreads the vertices over all four boards (e19's choice;
#: the locality placer would pack a small network onto one board).
PLACEMENT = "round-robin"
#: ring8: e19's eight Poisson->LIF pairs chained in a ring.
RING_PAIRS = 8
#: Every population is cut into six vertices whatever its size, so the
#: 96 vertices fill exactly one chip row (32 chips x 3 application
#: cores) and round-robin loads each board with two pairs, as in e19.
VERTICES_PER_POPULATION = 6

#: e19's wiring: ~10^2 synaptic events per spike, so the run is bound
#: by the scatter into the event ring.
DENSE = dict(rate_hz=120.0, p_in=0.12, w_in=0.35, d_in=(1, 8),
             p_rec=0.05, w_rec=0.1, d_rec=(1, 16),
             p_chain=0.05, w_chain=0.12, d_chain=(1, 16))
#: Same populations, ~50x fewer events per tick, and chain delays of at
#: least 8 ticks so the lookahead is 9: per-tick overhead, barrier and
#: exchange dominate and the scatter is small.
SPARSE = dict(rate_hz=20.0, p_in=0.03, w_in=0.25, d_in=(1, 8),
              p_rec=0.01, w_rec=0.1, d_rec=(1, 16),
              p_chain=0.01, w_chain=0.1, d_chain=(8, 16))

#: e17's machine and wiring: one 48-chip board, 1 application core per
#: chip, dense rows so each delivered spike carries real synaptic work.
FABRIC_W, FABRIC_H, FABRIC_CORES = 8, 6, 2
FABRIC_RATE_HZ, FABRIC_P_IN, FABRIC_W_IN = 50.0, 0.5, 0.18
FABRIC_P_REC, FABRIC_W_REC = 0.08, 0.06

#: a7's machine.  Two closed-loop client threads (= nproc on the
#: reference host), each rotating 16 tenant names so the per-tenant
#: 50 jobs/s token bucket never binds; squares of side 1..4 so the
#: partitioner splits and coalesces.
CHURN_SIDE, CHURN_THREADS, CHURN_TENANTS, CHURN_MAX_SIDE = 16, 2, 16, 4
#: Long enough that no lease of a healthy run ever expires.
KEEPALIVE_MS = 5000.0
#: READY polling interval: well under the ~2 ms a lease takes.
READY_POLL_S = 0.0005

#: Sizes per scale.  ``full`` is the sizing the issue probed (minutes
#: per workload); ``bench`` is what fits the driver's cap of 136
#: invocations in 3420 s — about 25 s each *including* set-up — reached
#: by cutting biological time and, on the dense wiring only, populations
#: (DENSE fires at every size; its set-up at 1536 is 29 s), never by
#: dropping a workload; ``smoke`` only proves the checks pass (numbers
#: non-comparable) — its pooled runs are kept above ~0.15 s because a
#: shorter one can trip over the pool's end-of-run race (README,
#: finding 4).
#:
#: SPARSE is sub-threshold below ~900 neurons per population (46 inputs
#: per neuron at 1536, 14 at 480: no LIF neuron ever fires and nothing
#: crosses a board), so ``run_sparse_pooled`` keeps 1536 at ``bench``
#: and cuts biological time only; its smoke size is the smallest that
#: still sends spikes through the exchange.  Likewise e17's wiring needs
#: ~100 neurons per population before its LIF neurons fire.
SCALES: Dict[str, Dict[str, Dict[str, float]]] = {
    "smoke": {
        "job_e2e": dict(n=96, run_ms=300.0),
        "compile_remap": dict(n=96, remaps=2),
        "run_dense": dict(n=96, run_ms=50.0),
        "run_sparse_pooled": dict(n=960, run_ms=400.0),
        "onchip_fabric": dict(pairs=4, n=128, run_ms=30.0),
        "service_churn": dict(cycles=15),
    },
    "bench": {
        "job_e2e": dict(n=240, run_ms=300.0),
        "compile_remap": dict(n=240, remaps=6),
        "run_dense": dict(n=480, run_ms=100.0),
        "run_sparse_pooled": dict(n=1536, run_ms=500.0),
        "onchip_fabric": dict(pairs=10, n=256, run_ms=100.0),
        "service_churn": dict(cycles=200),
    },
    "full": {
        "job_e2e": dict(n=768, run_ms=600.0),
        "compile_remap": dict(n=768, remaps=12),
        "run_dense": dict(n=1536, run_ms=240.0),
        "run_sparse_pooled": dict(n=1536, run_ms=2000.0),
        "onchip_fabric": dict(pairs=20, n=256, run_ms=1000.0),
        "service_churn": dict(cycles=2500),
    },
}


# ----------------------------------------------------------------------
# Generated inputs
# ----------------------------------------------------------------------
def ring8(n: int, seed: int, wiring: Dict[str, object]) -> Network:
    """Eight stimulus->LIF pairs of ``n`` neurons, chained in a ring."""
    network = Network(seed=seed)
    excitatory = []
    for pair in range(RING_PAIRS):
        stimulus = SpikeSourcePoisson(n, rate_hz=wiring["rate_hz"],
                                      label="stim-%d" % pair)
        population = Population(n, "lif", label="exc-%d" % pair)
        population.record(spikes=True)
        network.connect(stimulus, population, FixedProbabilityConnector(
            wiring["p_in"], weight=wiring["w_in"],
            delay_range=wiring["d_in"]))
        network.connect(population, population, FixedProbabilityConnector(
            wiring["p_rec"], weight=wiring["w_rec"],
            delay_range=wiring["d_rec"]))
        excitatory.append(population)
    for index, population in enumerate(excitatory):
        network.connect(
            population, excitatory[(index + 1) % RING_PAIRS],
            FixedProbabilityConnector(wiring["p_chain"],
                                      weight=wiring["w_chain"],
                                      delay_range=wiring["d_chain"]))
    return network


def fabric_network(pairs: int, n: int, seed: int) -> Network:
    """e17's independent stimulus->LIF pairs with dense rows."""
    network = Network(seed=seed)
    for pair in range(pairs):
        stimulus = SpikeSourcePoisson(n, rate_hz=FABRIC_RATE_HZ,
                                      label="stim-%d" % pair)
        population = Population(n, "lif", label="exc-%d" % pair)
        population.record(spikes=True)
        network.connect(stimulus, population, FixedProbabilityConnector(
            FABRIC_P_IN, weight=FABRIC_W_IN, delay_range=(1, 8)))
        network.connect(population, population, FixedProbabilityConnector(
            FABRIC_P_REC, weight=FABRIC_W_REC, delay_range=(1, 16)))
    return network


def per_core(params: Dict[str, float]) -> int:
    return int(params["n"]) // VERTICES_PER_POPULATION


def four_board_config() -> MachineConfig:
    return MachineConfig.multi_board(
        BOARDS_X, BOARDS_Y, board_width=BOARD_W, board_height=BOARD_H,
        cores_per_chip=CORES_PER_CHIP)


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------
def _check_result(ctx: Context, result, timestep_ms: float,
                  prefix: str = "") -> int:
    """Digest one simulation result; it must repeat exactly."""
    with ctx.span("digest", "bench"):
        digest = spike_digest48(result.spikes, timestep_ms)
    ctx.identical(prefix + "spike_digest48", digest)
    return digest


def _check_counters(ctx: Context, result) -> None:
    total_spikes = result.total_spikes()
    ctx.identical("total_spikes", total_spikes)
    ctx.identical("synaptic_events", result.synaptic_events)
    ctx.identical("delivered_charge_na", result.delivered_charge_na)
    # Stimulus sources spike whatever the wiring does: the recorded
    # (LIF) populations must have fired too, or every digest and
    # identity check above compares empty recordings.
    recorded = sum(len(train) for train in result.spikes.values())
    ctx.check(recorded > 0, "no recorded population spiked (%d spikes, "
              "all stimulus)" % total_spikes)


def _check_crossed_boards(ctx: Context, app) -> None:
    """A cluster run whose spikes never leave a board exercises neither
    the exchange nor the barrier it exists to show."""
    crossed = app.report.cross_board_spikes
    ctx.check(crossed > 0, "no spike crossed a board (%d)" % crossed)


def _check_segments_unlinked(ctx: Context, app) -> None:
    for name in getattr(app, "last_exchange_segments", ()):
        ctx.check(not os.path.exists("/dev/shm/" + name.lstrip("/")),
                  "exchange segment %s still linked" % name)


def _service_report(ctx: Context, service, retries: int,
                    spans: Dict[str, tuple]) -> None:
    """``GET /v1/metrics``: zero 5xx always; when traced, its figures and
    those of the workload's own service ``spans``."""
    client = ServiceClient(service.url, tenant="bench-report")
    try:
        requests = client.metrics()["requests"]
    finally:
        client.close()

    def status_total(first_digit: str) -> int:
        return sum(int(count) for entry in requests.values()
                   for status, count in entry["status"].items()
                   if status.startswith(first_digit))

    ctx.check(status_total("5") == 0, "the service answered 5xx")
    if not ctx.traced:
        return
    ctx.figure("service.requests", lambda: sum(
        entry["count"] for entry in requests.values()))
    ctx.figure("service.http_429", lambda: sum(
        int(entry["status"].get("429", 0)) for entry in requests.values()))
    ctx.figure("service.http_5xx", lambda: status_total("5"))
    ctx.figure("service.server_create_mean_ms",
               lambda: requests["create"]["mean_ms"])
    ctx.figures["service.client_retries"] = float(retries)
    metrics.span_figures(ctx, spans)


def _stop_service(ctx: Context, service) -> None:
    drained = service.stop()
    ctx.check(drained, "the service did not drain cleanly")
    leased = service.scheduler.partitioner.leased_area
    ctx.check(leased == 0, "%d chips still leased after stop" % leased)


#: Figure -> (span, percentile, factor).  Each workload asks only for
#: the figures on its own path.
LEASE_FIGURES = {
    "service.create_ms_p50": ("create", 50.0, 1000.0),
    "service.ready_wait_ms_p50": ("ready_wait", 50.0, 1000.0),
    "service.release_ms_p50": ("release", 50.0, 1000.0),
}
#: What only the churn loop has: an explicit keepalive, and enough
#: cycles for a tail.
CHURN_FIGURES = dict(LEASE_FIGURES, **{
    "service.ready_wait_ms_p99": ("ready_wait", 99.0, 1000.0),
    "service.keepalive_ms_p50": ("keepalive", 50.0, 1000.0),
})
BUILD_FIGURES = {
    "runtime.boot_s": ("boot", 50.0, 1.0),
    "neuron.build_s": ("build", 50.0, 1.0),
}
#: Workloads that call ``expand_projections`` themselves.
COMMON_FIGURES = dict(BUILD_FIGURES, **{
    "neuron.expand_s": ("expand", 50.0, 1.0),
})


class Workload:
    """Base: parameters by scale, and no-op hooks."""

    name = ""
    #: Cold workloads are never warmed at scale (see ``measure``).
    cold = False
    #: How many times set-up is run (its median is ``setup_s``): five
    #: where it takes a fraction of a second, two where it compiles.
    setups = 5

    def __init__(self, seed: int, scale: str) -> None:
        self.seed = seed
        self.scale = scale
        self.p = SCALES[scale][self.name]

    def smoke_twin(self) -> "Workload":
        return type(self)(self.seed, "smoke")

    def setup(self, ctx: Context):
        raise NotImplementedError

    def repeat(self, state, ctx: Context) -> None:
        raise NotImplementedError

    def finish(self, state, ctx: Context) -> None:
        pass

    def teardown(self, state, ctx: Context) -> None:
        pass


# ----------------------------------------------------------------------
# job_e2e
# ----------------------------------------------------------------------
class JobE2E(Workload):
    """The whole tenant journey, cold, per repeat."""

    name = "job_e2e"
    cold = True

    def setup(self, ctx: Context):
        machine = SpiNNakerMachine(four_board_config())
        service = AllocationService(AllocationServer(HostSystem(machine)))
        service.start()
        return SimpleNamespace(service=service, app=None, result=None,
                               digest=0, retries=0)

    def repeat(self, state, ctx: Context) -> None:
        seed, p = self.seed, self.p
        ctx.attempted += 1
        # Drop the previous job's network and collect it now, so peak
        # memory is one job's and does not depend on when the cyclic
        # collector happens to run.
        state.app = state.result = None
        gc.collect()
        client = ServiceClient(state.service.url, tenant="tenant-e2e")
        try:
            with ctx.span("op.job", "bench") as job:
                sent = now()
                with client.session(LEASE_W, LEASE_H,
                                    keepalive_ms=KEEPALIVE_MS) as session:
                    created = now()
                    session.wait_ready(timeout_s=30.0, poll_s=READY_POLL_S)
                    ready = now()
                    ctx.tracer.interval("create", "service", sent, created)
                    ctx.tracer.interval("ready_wait", "service", created,
                                        ready)
                    with ctx.span("machine_view", "service"):
                        view = state.service.server.machine_view(
                            session.job_id)
                    with ctx.span("boot", "runtime"):
                        # The lease shares the service machine's event
                        # kernel, which the service's reaper and request
                        # threads advance under this lock; an in-process
                        # tenant must hold it while it runs the kernel.
                        with state.service.runtime.lock:
                            BootController(view, seed=seed).boot()
                    with ctx.span("build", "neuron"):
                        network = ring8(int(p["n"]), seed, DENSE)
                    with ctx.span("expand", "neuron"):
                        expand_projections(network, seed)
                    with ctx.span("prepare", "compile"):
                        app = ClusterApplication(
                            view, network, seed=seed,
                            max_neurons_per_core=per_core(p),
                            placement_strategy=PLACEMENT)
                        app.prepare()
                    with ctx.span("run", "cluster"):
                        result = app.run(p["run_ms"], workers=2)
                    digest = _check_result(ctx, result, network.timestep_ms)
                    releasing = now()
                # Still inside ``op.job``: the release is the last leg
                # of the turnaround, and service time.
                ctx.tracer.interval("release", "service", releasing, now())
        finally:
            state.retries += client.retries
            client.close()
        ctx.sample("job_turnaround_s", job.duration)
        # What the tenant gets per second of waiting (the run phase alone
        # is cluster.run_wall_s in the traced pass).
        ctx.sample("job_events_per_s", result.synaptic_events / job.duration)
        _check_counters(ctx, result)
        _check_crossed_boards(ctx, app)
        ctx.check(app.n_boards == BOARDS_X * BOARDS_Y,
                  "the job used %d boards" % app.n_boards)
        _check_segments_unlinked(ctx, app)
        state.app, state.result, state.digest = app, result, digest

    def finish(self, state, ctx: Context) -> None:
        _service_report(ctx, state.service, state.retries, LEASE_FIGURES)
        if not ctx.traced:
            return
        metrics.span_figures(ctx, dict(COMMON_FIGURES, **{
            "compile.prepare_s": ("prepare", 50.0, 1.0)}))
        ctx.figure("neuron.synapses",
                   lambda: state.app.network.n_synapses())
        metrics.pipeline_figures(ctx, getattr(state.app, "pipeline", None))
        metrics.cluster_figures(ctx, state.app)
        metrics.result_figures(ctx, state.result, state.digest)

    def teardown(self, state, ctx: Context) -> None:
        _stop_service(ctx, state.service)


# ----------------------------------------------------------------------
# compile_remap
# ----------------------------------------------------------------------
class CompileRemap(Workload):
    """One cold expand+compile, then chip condemnations and re-maps."""

    name = "compile_remap"
    cold = True

    def _fresh(self, ctx: Context):
        # Condemned chips stay condemned, so every repeat needs a
        # machine of its own (and an unexpanded network).
        with ctx.span("boot", "runtime"):
            machine = SpiNNakerMachine(four_board_config())
            BootController(machine, seed=self.seed).boot()
        with ctx.span("build", "neuron"):
            network = ring8(int(self.p["n"]), self.seed, DENSE)
        return machine, network

    def setup(self, ctx: Context):
        return SimpleNamespace(fresh=self._fresh(ctx), pipeline=None,
                               remap_ms={}, displaced=0)

    def repeat(self, state, ctx: Context) -> None:
        state.pipeline = None       # as in job_e2e: one repeat's memory
        gc.collect()
        machine, network = state.fresh or self._fresh(ctx)
        state.fresh = None
        ctx.attempted += 1
        with ctx.span("op.cold_compile", "bench") as cold:
            with ctx.span("expand", "neuron"):
                expand_projections(network, self.seed)
            with ctx.span("compile_cold", "compile"):
                pipeline = MappingPipeline(
                    machine, network, seed=self.seed,
                    max_neurons_per_core=per_core(self.p),
                    placement_strategy=PLACEMENT, shard_by_board=True)
                pipeline.run()
        synapses = network.n_synapses()
        ctx.sample("cold_compile_s", cold.duration)
        ctx.sample("cold_synapses_per_s", synapses / cold.duration)
        ctx.identical("synapses", synapses)
        ctx.identical("vertices", len(pipeline.ctx.placement.locations))
        if ctx.traced and "neuron.synapses" not in ctx.figures:
            ctx.figures["neuron.synapses"] = float(synapses)
            metrics.pipeline_figures(ctx, pipeline)

        monitor = MonitorService(machine)
        displaced = 0
        for _ in range(int(self.p["remaps"])):
            placement = pipeline.ctx.placement
            victim = placement.chips_used()[-1]
            displaced += sum(1 for chip, _core in placement.locations.values()
                             if chip == victim)
            with ctx.span("condemn", "runtime"):
                monitor.condemn_chip(victim)
            ctx.attempted += 1
            with ctx.span("op.remap", "bench") as remap:
                with ctx.span("compile_remap", "compile"):
                    pipeline.run()
            ctx.sample("remap_ms", remap.duration * 1000.0)
            ctx.check(victim not in pipeline.ctx.placement.chips_used(),
                      "condemned chip %s still placed on" % (victim,))
            if ctx.traced:
                for row in pipeline.report():
                    state.remap_ms.setdefault(row["pass"], []).append(
                        row["last_ms"])
        ctx.identical("displaced_vertices", displaced)
        state.pipeline, state.displaced = pipeline, displaced

    def finish(self, state, ctx: Context) -> None:
        if not ctx.traced:
            return
        metrics.span_figures(ctx, dict(COMMON_FIGURES, **{
            "compile.prepare_s": ("compile_cold", 50.0, 1.0)}))
        for pass_name in metrics.REMAP_PASSES:
            ctx.figure(
                "compile.remap_%s_ms" % metrics.PASS_STEMS[pass_name],
                lambda: percentile(state.remap_ms[pass_name], 50.0))
        ctx.figure("compile.pass_cache_hit_rate",
                   lambda: metrics.cache_hit_rate(state.pipeline))
        ctx.figures["compile.displaced_vertices"] = float(state.displaced)


# ----------------------------------------------------------------------
# run_dense / run_sparse_pooled
# ----------------------------------------------------------------------
class _ClusterRun(Workload):
    """Expand+compile in set-up; the timed operation is one ``run()``."""

    wiring: Dict[str, object] = {}
    workers = 1

    def setup(self, ctx: Context):
        with ctx.span("boot", "runtime"):
            machine = SpiNNakerMachine(four_board_config())
            BootController(machine, seed=self.seed).boot()
        with ctx.span("build", "neuron"):
            network = ring8(int(self.p["n"]), self.seed, self.wiring)
        with ctx.span("expand", "neuron"):
            expand_projections(network, self.seed)
        with ctx.span("prepare", "compile"):
            app = ClusterApplication(
                machine, network, seed=self.seed,
                max_neurons_per_core=per_core(self.p),
                placement_strategy=PLACEMENT)
            app.prepare()
        return SimpleNamespace(app=app, network=network, result=None,
                               digest=0)

    def repeat(self, state, ctx: Context) -> None:
        ctx.attempted += 1
        with ctx.span("op.run", "bench"):
            with ctx.span("run", "cluster") as run:
                result = state.app.run(self.p["run_ms"],
                                       workers=self.workers)
            digest = _check_result(ctx, result, state.network.timestep_ms)
        ctx.sample("run_wall_s", run.duration)
        ctx.sample("syn_events_per_s", result.synaptic_events / run.duration)
        _check_counters(ctx, result)
        _check_crossed_boards(ctx, state.app)
        _check_segments_unlinked(ctx, state.app)
        state.result, state.digest = result, digest

    def finish(self, state, ctx: Context) -> None:
        if not ctx.traced:
            return
        metrics.span_figures(ctx, dict(COMMON_FIGURES, **{
            "compile.prepare_s": ("prepare", 50.0, 1.0)}))
        ctx.figure("neuron.synapses", lambda: state.network.n_synapses())
        metrics.pipeline_figures(ctx, getattr(state.app, "pipeline", None))
        metrics.cluster_figures(ctx, state.app)
        metrics.result_figures(ctx, state.result, state.digest)


class RunDense(_ClusterRun):
    """Scatter-bound: one worker, dense wiring."""

    name = "run_dense"
    wiring = DENSE
    workers = 1
    #: Set-up is an expand + compile of the largest network here.
    setups = 2


class RunSparsePooled(_ClusterRun):
    """Overhead/barrier-bound: two pooled workers, sparse wiring."""

    name = "run_sparse_pooled"
    wiring = SPARSE
    workers = 2
    #: Set-up is an expand + compile of 1536-neuron populations.
    setups = 2

    def finish(self, state, ctx: Context) -> None:
        super().finish(state, ctx)
        if not ctx.traced:
            return
        # The extra check of the traced pass: pooled == serial, bit for
        # bit, and the measured pool speedup beside this host's nproc.
        pooled = state.result
        ctx.attempted += 1
        with ctx.span("serial_reference", "cluster") as span:
            serial = state.app.run(self.p["run_ms"], workers=1)
        same = (serial.spikes == pooled.spikes
                and serial.synaptic_events == pooled.synaptic_events
                and serial.delivered_charge_na == pooled.delivered_charge_na
                and all(np.array_equal(counts, pooled.spike_counts[label])
                        for label, counts in serial.spike_counts.items()))
        ctx.check(same, "pooled run differs from the serial reference")
        ctx.figures["cluster.serial_wall_s"] = span.duration
        ctx.figure("cluster.pool_speedup", lambda: (
            span.duration / percentile(ctx.samples["run_wall_s"], 50.0)))


# ----------------------------------------------------------------------
# onchip_fabric
# ----------------------------------------------------------------------
class OnchipFabric(Workload):
    """The on-machine engine over the fabric transport, then the host."""

    name = "onchip_fabric"
    #: Set-up is a whole ``prepare()`` (compile + SDRAM load).
    setups = 2

    def setup(self, ctx: Context):
        with ctx.span("boot", "runtime"):
            machine = SpiNNakerMachine(MachineConfig(
                width=FABRIC_W, height=FABRIC_H,
                cores_per_chip=FABRIC_CORES))
            BootController(machine, seed=self.seed).boot()
        with ctx.span("build", "neuron"):
            network = fabric_network(int(self.p["pairs"]), int(self.p["n"]),
                                     self.seed)
        with ctx.span("prepare", "runtime"):
            app = NeuralApplication(
                machine, network, max_neurons_per_core=int(self.p["n"]),
                seed=self.seed, transport="fabric", stagger_us=0.0)
            app.prepare()
        return SimpleNamespace(app=app, network=network, result=None,
                               digest=0)

    def repeat(self, state, ctx: Context) -> None:
        app, run_ms = state.app, self.p["run_ms"]
        with ctx.span("reset", "runtime"):
            app.remap(reset=True)      # bit-exact cold-equivalent restart
        ctx.attempted += 1
        with ctx.span("op.fabric_run", "bench"):
            with ctx.span("launch", "runtime") as launch:
                app.kernel.run_until(app.launch(run_ms))
            with ctx.span("collect", "runtime") as collect:
                app.halt()
                app.kernel.run(max_events=1_000_000)   # drain in flight
                result = app.collect(run_ms)
            digest = _check_result(ctx, result, state.network.timestep_ms)
        ctx.sample("syn_events_per_s", result.synaptic_events
                   / (launch.duration + collect.duration))
        _check_counters(ctx, result)
        ctx.check(result.packets_dropped == 0,
                  "%d packets dropped" % result.packets_dropped)
        state.result, state.digest = result, digest

        ctx.attempted += 1
        with ctx.span("op.host_run", "bench"):
            with ctx.span("host_run", "neuron") as host:
                simulated = state.network.run(run_ms)
            _check_result(ctx, simulated, state.network.timestep_ms,
                          prefix="host_")
        ctx.sample("host_run_s", host.duration)

    def finish(self, state, ctx: Context) -> None:
        if not ctx.traced:
            return
        metrics.span_figures(ctx, dict(BUILD_FIGURES, **{
            "runtime.prepare_s": ("prepare", 50.0, 1.0),
            "runtime.launch_s": ("launch", 50.0, 1.0),
            "runtime.collect_s": ("collect", 50.0, 1.0),
            "neuron.host_run_s": ("host_run", 50.0, 1.0)}))
        ctx.figure("neuron.synapses", lambda: state.network.n_synapses())
        metrics.pipeline_figures(ctx, getattr(state.app, "pipeline", None))
        metrics.result_figures(ctx, state.result, state.digest)
        ctx.figure("router.packets_sent", lambda: state.result.packets_sent)
        ctx.figure("router.mean_delivery_latency_us",
                   lambda: state.result.mean_delivery_latency_us())


# ----------------------------------------------------------------------
# service_churn
# ----------------------------------------------------------------------
class ServiceChurn(Workload):
    """Closed loop of lease cycles; the simulator does nothing."""

    name = "service_churn"

    def setup(self, ctx: Context):
        service = AllocationService.build(width=CHURN_SIDE, height=CHURN_SIDE)
        service.start()
        rngs = [random.Random(self.seed * 1000 + index)
                for index in range(CHURN_THREADS)]
        return SimpleNamespace(service=service, rngs=rngs, retries=0)

    def _client_loop(self, index: int, state, ctx: Context,
                     out: Dict[str, List]) -> None:
        rng = state.rngs[index]
        client = ServiceClient(state.service.url)
        ready_ms: List[float] = []
        failures: List[str] = []
        try:
            for cycle in range(int(self.p["cycles"])):
                side = rng.randint(1, CHURN_MAX_SIDE)
                client.tenant = "tenant-%d-%02d" % (index,
                                                    cycle % CHURN_TENANTS)
                try:
                    with ctx.span("op.cycle", "bench"):
                        sent = now()
                        with client.session(side, side, heartbeat=False,
                                            keepalive_ms=KEEPALIVE_MS
                                            ) as session:
                            created = now()
                            session.wait_ready(timeout_s=10.0,
                                               poll_s=READY_POLL_S)
                            ready = now()
                            alive = client.keepalive(session.job_id)
                            kept = now()
                        released = now()
                        ctx.tracer.interval("create", "service", sent,
                                            created)
                        ctx.tracer.interval("ready_wait", "service",
                                            created, ready)
                        ctx.tracer.interval("keepalive", "service", ready,
                                            kept)
                        ctx.tracer.interval("release", "service", kept,
                                            released)
                    if not alive.get("alive", False):
                        failures.append("keepalive found the lease dead")
                    ready_ms.append((ready - sent) * 1000.0)
                except (ServiceClientError, TimeoutError, OSError) as error:
                    failures.append("%s: %s" % (type(error).__name__, error))
        finally:
            out["retries"].append(client.retries)
            client.close()
        out["ready_ms"].append(ready_ms)
        out["failures"].append(failures)

    def repeat(self, state, ctx: Context) -> None:
        out: Dict[str, List] = {"ready_ms": [], "failures": [], "retries": []}
        threads = [threading.Thread(target=self._client_loop,
                                    args=(index, state, ctx, out))
                   for index in range(CHURN_THREADS)]
        began = now()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = now() - began
        attempted = CHURN_THREADS * int(self.p["cycles"])
        ctx.attempted += attempted
        ready_ms = [value for values in out["ready_ms"] for value in values]
        completed = len(ready_ms)
        if ready_ms:
            # One sample per round (its median): the quartiles then
            # describe round-to-round spread, not the latency distribution
            # (that is service.ready_wait_ms_p50/p99 in the traced pass).
            ctx.sample("lease_ready_ms", percentile(ready_ms, 50.0))
        for failures in out["failures"]:
            for reason in failures:
                ctx.fail(reason)
        # A thread that died outside the per-cycle handler reports no
        # list at all: everything it did not complete is failed.
        reported = completed + sum(len(f) for f in out["failures"])
        if reported < attempted:
            ctx.fail("client thread ended early", attempted - reported)
        ctx.sample("lease_cycles_per_s", completed / wall)
        state.retries += sum(out["retries"])

    def finish(self, state, ctx: Context) -> None:
        _service_report(ctx, state.service, state.retries, CHURN_FIGURES)

    def teardown(self, state, ctx: Context) -> None:
        _stop_service(ctx, state.service)


REGISTRY = {cls.name: cls for cls in (JobE2E, CompileRemap, RunDense,
                                      RunSparsePooled, OnchipFabric,
                                      ServiceChurn)}
