"""The sharded cluster runner (:class:`ClusterApplication`).

Runs a compiled network sharded by board.  The boards are cut, in board
order, into one contiguous run per worker, and each worker steps its run
as one :class:`~repro.cluster.fused.FusedBoardEngine` (per-model stacked
state blocks, one shared event ring, one scatter per tick), which
delivers each fired neuron on every board of its own its key reaches.
``workers=1`` is that engine over every board, stepped tick by tick, with
nothing to exchange and no barrier to take.  A pool of persistent worker
processes runs the engines as a conservative-lookahead PDES over the
worker cut (see :mod:`repro.cluster.exchange` for the data path):

* workers run ``L = 1 + d_min`` ticks between barriers (``d_min`` = the
  minimum cross-board synaptic delay, read per board pair by the
  ShardByBoard pass) — cross-board spikes cannot arrive sooner, so the
  barrier amortises over the whole super-step;
* traffic between a worker's own boards is delivered inside its engine;
  traffic between workers travels as packed ``uint32`` records of plan
  cells, one per tick and destination worker, through preallocated
  shared-memory regions, one per worker pair, routed worker-side via
  the ``key -> destination workers`` table;
* the super-step schedule and the run's length are shipped to the
  workers when they start, so the only synchronisation left is one
  ``multiprocessing.Barrier`` of the workers per super-step: workers
  publish their records, draw the next super-step's stimulus while the
  slowest party catches up, and resume compute the moment the barrier
  opens.  The parent is not a party to it, as the host is never on a
  SpiNNaker machine's spike path: it starts the workers, watches for a
  dead one, and reads their results when the run is over.

Three properties the tests and benchmark E19 rely on:

* **Worker-count and lookahead independence** — engines are board-major
  and the cut contiguous, so the workers' results merged in worker
  order keep each tick's spikes in board order; an exchanged event
  lands in the ring slot a local delivery would have used, and
  ring-buffer accumulation is exact (fixed-point weights) and clamped
  only as the tick drains it, so a pool at full lookahead produces
  results bit-identical to the serial engine, ring ``saturations``
  included.
* **Engine equivalence** — the board-engine semantics replicate the
  unsharded on-machine engine at zero timer stagger
  (``NeuralApplication(transport="fabric", stagger_us=0)``): identical
  spike trains, spike counts, synaptic-event totals and delivered
  charge.
* **One traffic count** — each engine records the size of every batch
  a key of its own sends towards some board, and the parent tallies the
  report's cross-board figures from those sizes once, after the run,
  whatever the worker count; with ``account_transport=True`` the same
  tally replays every recorded batch through its key's compiled route
  program once, so routers, links and NoCs show the loads the unsharded
  fabric transport would record.
"""

from __future__ import annotations

import functools
import itertools
import multiprocessing
import threading
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait
from typing import Dict, List, NoReturn, Optional, Sequence, Tuple

from repro.cluster.exchange import (
    UNCONSTRAINED_LOOKAHEAD,
    ExchangePlan,
    SharedMemoryExchange,
    superstep_schedule,
)
from repro.cluster.fused import FusedBoardEngine
from repro.compile import MappingPipeline
from repro.compile.context import BoardContext, MappingContext
from repro.core.machine import SpiNNakerMachine
from repro.neuron.network import Network
from repro.profile import ProfileRegistry, perf_now
from repro.profile import enabled as profile_enabled
from repro.router.fabric import TransportFabric
from repro.runtime.application import ApplicationResult

__all__ = ["ClusterApplication", "ClusterReport", "ClusterWorkerError"]

#: The per-worker wall-clock decomposition every run records, each
#: second in one stage: inside ``engine.step`` (stepping neurons and
#: delivering to the worker's own boards) / packing fired cells into
#: shared memory / draining inbound regions and applying them / blocked
#: at the barrier (the last three are pool-only).
STAGES = ("compute", "serialize", "exchange", "barrier_wait")


class ClusterWorkerError(RuntimeError):
    """A pool worker died mid-run (crash, kill, ``os._exit``...).

    Carries which worker it was, the boards it owned and the process
    exit code, so a crashed shard is a diagnosis instead of a bare
    ``EOFError`` from a pipe (or a silent hang).
    """

    def __init__(self, worker: int, boards: Sequence[int],
                 exitcode: Optional[int]) -> None:
        self.worker = worker
        self.boards = tuple(boards)
        self.exitcode = exitcode
        super().__init__(
            "cluster worker %d (boards %s) died with exit code %s before "
            "completing the run" % (worker, list(self.boards), exitcode))


@dataclass
class ClusterReport:
    """Execution statistics of one sharded run: its schedule, its
    cross-board traffic and every worker's :data:`STAGES` seconds."""

    n_boards: int
    workers: int
    n_ticks: int
    wall_s: float = 0.0
    #: Ticks per super-step this run used (``1 + d_min`` unless capped).
    lookahead: int = 1
    #: Minimum cross-board synaptic delay (``0``: no synapse crosses a
    #: board boundary, so lookahead was unconstrained).
    d_min: int = 0
    #: Super-steps of the plan's schedule (``ceil(n_ticks /
    #: lookahead)``): the pool takes one barrier per super-step, the
    #: serial run none.
    supersteps: int = 0
    #: Board -> worker assignment used by the run.
    assignment: Dict[int, int] = field(default_factory=dict)
    #: Cross-board batch copies / spikes: one per destination board other
    #: than the source's, whatever the worker cut.
    exchanged_batches: int = 0
    cross_board_spikes: int = 0
    #: Board-to-board link traversals replayed through the transport
    #: fabric (``account_transport=True`` only).
    inter_board_traversals: int = 0
    #: Worker -> seconds of each of :data:`STAGES`, filled on every run.
    #: The serial run is worker ``0``.
    worker_stages: Dict[int, Dict[str, float]] = field(default_factory=dict)
    #: Parent-side seconds spent on the traffic tally and the fabric
    #: replay, made once after the run.
    parent_exchange_s: float = 0.0
    #: Size of the shared-memory segment backing the exchange (pool
    #: runs only; the serial run exchanges nothing).
    exchange_segment_bytes: int = 0

    @property
    def total_compute_s(self) -> float:
        """Engine compute summed over every worker."""
        return self.stage_total("compute")

    @property
    def critical_path_s(self) -> float:
        """The busiest worker's compute — the parallel lower bound."""
        return max((stages["compute"]
                    for stages in self.worker_stages.values()), default=0.0)

    @property
    def speedup_bound(self) -> float:
        """Load-balance bound on pool speedup: total / busiest worker.

        What a perfectly-overlapped pool of this run's worker count
        could gain over one worker, given how evenly the boards'
        compute divided; barrier and exchange overheads push the
        measured wall-clock speedup below this.
        """
        critical = self.critical_path_s
        if critical <= 0.0:
            return 1.0
        return self.total_compute_s / critical

    def stage_total(self, stage: str) -> float:
        """One stage's seconds summed over every worker."""
        return sum(stages[stage] for stages in self.worker_stages.values())


def _assign_boards(boards: List[int], workers: int,
                   weights: Dict[int, int]) -> Dict[int, int]:
    """Cut the boards, in board order, into ``workers`` contiguous runs.

    The cut is exact (a linear partition over board prefixes): it
    minimises the heaviest run's weight (placed cores), which sets the
    load-balance ``speedup_bound``, and gives every worker a board.
    Contiguity lets the workers' results merge, in worker order, into
    board order.  Ties take the earliest cuts.
    """
    prefix = list(itertools.accumulate((weights[b] for b in boards),
                                       initial=0))
    n = len(boards)

    @functools.lru_cache(maxsize=None)
    def cut(runs: int, start: int) -> Tuple[int, Tuple[int, ...]]:
        """The heaviest run and the run ends of boards[start:]'s best
        cut into ``runs`` runs."""
        if runs == 1:
            return prefix[n] - prefix[start], (n,)
        options = []
        for end in range(start + 1, n - runs + 2):
            heaviest, ends = cut(runs - 1, end)
            options.append((max(prefix[end] - prefix[start], heaviest),
                            (end,) + ends))
        return min(options)

    ends = cut(workers, 0)[1]
    return {board: worker
            for worker, (start, end) in enumerate(zip((0,) + ends, ends))
            for board in boards[start:end]}


def _watch_workers(processes, stop_conn, barrier, released) -> None:
    """Parent-side watchdog: break the split barrier if a worker dies.

    Blocks on the worker process sentinels plus a stop pipe; a sentinel
    firing while the run is live means a worker died mid-barrier-cycle,
    so every other worker would wait forever — ``barrier.abort()`` turns
    the hang into a ``BrokenBarrierError`` in the surviving workers.
    ``released`` is set by every worker as it leaves the final barrier:
    from then on every worker has arrived, nobody can hang, and a worker
    exiting is the normal end of the run — aborting then would break the
    barrier under a slower worker still waking inside that same final
    ``wait()`` and fail a correct run.
    """
    sentinels = [process.sentinel for process in processes]
    ready = connection_wait(sentinels + [stop_conn])
    if stop_conn in ready or released.is_set():
        return
    barrier.abort()


def _shard_worker(conn, worker: int, contexts: List[BoardContext],
                  populations, seed: Optional[int], timestep_ms: float,
                  plan: ExchangePlan, exchange: SharedMemoryExchange,
                  barrier, released, n_ticks: int,
                  duration_ms: float) -> None:
    """Worker-process loop: one engine over the worker's boards runs the
    whole super-step schedule against the workers' split barrier; the
    pipe carries only the final result.

    Per super-step: wait at the barrier (every writer of the previous
    bank has finished), apply the previous bank's inbound records in one
    scatter, then compute the super-step's ticks and publish the fired
    cells other workers' boards take.  Before blocking on the next
    barrier the worker draws the coming super-step's stimulus, so
    barrier wait time does useful work.  After a last barrier the final
    bank's in-flight deliveries are drained (the on-machine run drains
    after halting, too).  The worker's seconds go into its table of
    :data:`STAGES`, which rides the result pipe with the result.  A
    broken barrier means some worker died; the worker just exits without
    a result (the parent diagnoses who).
    """
    engine = FusedBoardEngine(contexts, populations, seed, timestep_ms,
                              plan, worker)
    stages = dict.fromkeys(STAGES, 0.0)

    def enter(inbound_bank: Optional[int]) -> None:
        """Wait at the barrier, then apply ``inbound_bank``'s records."""
        began = perf_now()
        barrier.wait()
        opened = perf_now()
        stages["barrier_wait"] += opened - began
        if inbound_bank is not None:
            engine.apply_remote(*exchange.inbound(worker, inbound_bank))
            stages["exchange"] += perf_now() - opened

    try:
        prev_bank = None
        try:
            for index, (start, length) in enumerate(
                    superstep_schedule(n_ticks, plan.lookahead)):
                bank = index % 2
                enter(prev_bank)
                exchange.begin(bank, worker)
                for tick in range(start, start + length):
                    began = perf_now()
                    fired = engine.step(tick)
                    stepped = perf_now()
                    stages["compute"] += stepped - began
                    if fired.size:
                        exchange.write(worker, bank, tick, fired)
                        stages["serialize"] += perf_now() - stepped
                engine.kernel.prefetch_sources(
                    min(start + 2 * length, n_ticks) - 1)
                prev_bank = bank
            enter(prev_bank)
        except threading.BrokenBarrierError:
            return
        released.set()
        conn.send((engine.finish(duration_ms), engine.batch_sizes, stages))
    finally:
        conn.close()


class ClusterApplication:
    """Compile a network once, run it sharded by board."""

    def __init__(self, machine: SpiNNakerMachine, network: Network,
                 seed: Optional[int] = None,
                 max_neurons_per_core: int = 256,
                 placement_strategy: str = "locality",
                 account_transport: bool = False) -> None:
        self.machine = machine
        self.network = network
        self.timestep_ms = network.timestep_ms
        self.seed = seed if seed is not None else (network.seed or 0)
        self.expansion_seed = seed if seed is not None else network.seed
        self.max_neurons_per_core = max_neurons_per_core
        self.placement_strategy = placement_strategy
        self.account_transport = account_transport
        #: Stage registry of the most recent :meth:`run` — every worker's
        #: stage table plus the parent's accounting span; feeds
        #: ``flatten()`` -> ``profile_*`` bench keys.  Records only when
        #: :func:`repro.profile.enabled` was true at that run.
        self.registry = ProfileRegistry(enabled=False)

        self.pipeline: Optional[MappingPipeline] = None
        self.board_contexts: Dict[int, BoardContext] = {}
        #: (source board, destination board) -> minimum cross-board
        #: synaptic delay, from the ShardByBoard pass.
        self.board_pair_min_delay: Dict[Tuple[int, int], int] = {}
        self.fabric: Optional[TransportFabric] = None
        self.result: Optional[ApplicationResult] = None
        self.report: Optional[ClusterReport] = None
        #: Shared-memory segment names of the most recent pool run —
        #: all unlinked by the time :meth:`run` returns (leak check).
        self.last_exchange_segments: List[str] = []
        self._prepared = False

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def prepare(self) -> None:
        """Run the mapping pipeline with the ShardByBoard pass enabled."""
        if self._prepared:
            return
        self.pipeline = MappingPipeline(
            self.machine, self.network, seed=self.seed,
            expansion_seed=self.expansion_seed,
            max_neurons_per_core=self.max_neurons_per_core,
            placement_strategy=self.placement_strategy,
            compile_transport=self.account_transport,
            shard_by_board=True)
        self._adopt(self.pipeline.run())
        self._prepared = True

    def remap(self, reset: bool = False) -> MappingContext:
        """Re-map after a chip condemnation, core fault or lease shrink:
        re-run the pipeline (only what the change touched does any work)
        and adopt its shards, pair delays and route programs.  ``reset``
        is the monitor's argument; every cluster run starts afresh at
        tick 0 either way."""
        if not self._prepared:
            raise RuntimeError("prepare() the application before remapping")
        ctx = self.pipeline.run()
        self._adopt(ctx)
        return ctx

    def _adopt(self, ctx: MappingContext) -> None:
        self.board_contexts = dict(ctx.board_contexts)
        self.board_pair_min_delay = dict(ctx.board_pair_min_delay)
        if self.account_transport:
            if self.fabric is None:
                self.fabric = TransportFabric(self.machine)
            self.fabric.programs.clear()
            self.fabric.adopt(ctx.route_programs)

    @property
    def n_boards(self) -> int:
        """Boards holding at least one placed vertex."""
        return len(self.board_contexts)

    def _populations(self) -> Dict[str, object]:
        return {population.label: population
                for population in self.network.populations}

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, duration_ms: float, workers: int = 1,
            lookahead: Optional[int] = None) -> ApplicationResult:
        """Run ``duration_ms`` of biological time afresh from tick 0;
        return a new result (also kept on :attr:`result`, statistics on
        :attr:`report`).

        ``workers`` is the pool size (``1``: one engine over every
        board, no pool).
        ``lookahead`` caps the ticks per super-step; ``None`` runs at
        the deepest safe depth (``1 + d_min``) and an explicit depth is
        clamped to that bound.  Every run fills the report's
        ``worker_stages``; :attr:`registry` records them only when
        :func:`repro.profile.enabled` is true as of this call.
        """
        if duration_ms < 0:
            raise ValueError("duration must be non-negative")
        if lookahead is not None and lookahead < 1:
            raise ValueError("lookahead must be at least 1")
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.prepare()
        n_ticks = int(round(duration_ms / self.timestep_ms))
        boards = sorted(self.board_contexts)
        effective = min(workers, max(len(boards), 1))
        weights = {board: self.board_contexts[board].n_cores
                   for board in boards}
        assignment = _assign_boards(boards, effective, weights)
        plan = ExchangePlan.build(
            self.board_contexts, self.board_pair_min_delay, assignment,
            lookahead=lookahead)
        report = ClusterReport(
            n_boards=len(boards), workers=effective, n_ticks=n_ticks,
            lookahead=plan.lookahead, d_min=plan.d_min or 0,
            supersteps=len(superstep_schedule(n_ticks, plan.lookahead)),
            assignment=assignment)
        # The fabric's counters are cumulative over the application's
        # lifetime; the report carries this run's delta.
        traversals_before = (self.fabric.inter_board_traversals
                             if self.fabric is not None else 0)
        # Fresh per run, so a bench flattening it sees this run only.
        self.registry = ProfileRegistry(enabled=profile_enabled())
        began = perf_now()
        run_boards = self._run_serial if effective == 1 else self._run_pool
        self.result, batch_sizes = run_boards(n_ticks, duration_ms, report,
                                              plan)
        if self.registry.enabled:
            for stages in report.worker_stages.values():
                for stage, seconds in stages.items():
                    self.registry.add(stage, seconds)
        self._tally(batch_sizes, plan, report)
        report.wall_s = perf_now() - began
        if self.fabric is not None:
            report.inter_board_traversals = (
                self.fabric.inter_board_traversals - traversals_before)
        self.report = report
        return self.result

    # ------------------------------------------------------------------
    # Accounting (the parent's one pass over the traffic, after the run)
    # ------------------------------------------------------------------
    def _tally(self, batch_sizes: Dict[int, List[int]], plan: ExchangePlan,
               report: ClusterReport) -> None:
        """Count the engines' recorded batches into the report.

        ``batch_sizes`` maps each key some board reaches to the spike
        count of every tick it fired.  A batch counts once per board it
        crosses to, and with a fabric it is replayed once through its
        key's route program.
        """
        began = perf_now()
        fabric = self.fabric
        cross = plan.cross_destinations
        for key, sizes in batch_sizes.items():
            copies = len(cross.get(key, ()))
            report.exchanged_batches += copies * len(sizes)
            report.cross_board_spikes += copies * sum(sizes)
            program = fabric.program_for(key) if fabric is not None else None
            if program is not None:
                for count in sizes:
                    fabric.account_batch(program, count)
        elapsed = perf_now() - began
        report.parent_exchange_s += elapsed
        if self.registry.enabled:
            self.registry.add("parent_account", elapsed)

    # ------------------------------------------------------------------
    # Serial path (workers=1: one engine, no exchange, no barrier)
    # ------------------------------------------------------------------
    def _run_serial(self, n_ticks: int, duration_ms: float,
                    report: ClusterReport, plan: ExchangePlan
                    ) -> Tuple[ApplicationResult, Dict[int, List[int]]]:
        engine = FusedBoardEngine(
            [self.board_contexts[board] for board in plan.boards],
            self._populations(), self.seed, self.timestep_ms, plan, 0)
        stages = report.worker_stages[0] = dict.fromkeys(STAGES, 0.0)
        for tick in range(n_ticks):
            if tick % UNCONSTRAINED_LOOKAHEAD == 0:
                engine.kernel.prefetch_sources(
                    min(tick + UNCONSTRAINED_LOOKAHEAD, n_ticks) - 1)
            began = perf_now()
            engine.step(tick)
            stages["compute"] += perf_now() - began
        return engine.finish(duration_ms), engine.batch_sizes

    # ------------------------------------------------------------------
    # Pool path
    # ------------------------------------------------------------------
    def _run_pool(self, n_ticks: int, duration_ms: float,
                  report: ClusterReport, plan: ExchangePlan
                  ) -> Tuple[ApplicationResult, Dict[int, List[int]]]:
        populations = self._populations()
        try:
            mp_context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            mp_context = multiprocessing.get_context()
        worker_boards: Dict[int, List[int]] = {}
        for board, worker in report.assignment.items():
            worker_boards.setdefault(worker, []).append(board)
        exchange = SharedMemoryExchange(plan)
        self.last_exchange_segments = [exchange.name]
        report.exchange_segment_bytes = 4 * plan.total_words
        # One split barrier shared by the workers: the wait at
        # super-step ``s`` is the only synchronisation point — it
        # certifies every bank-``(s-1) % 2`` write is published and
        # every bank-``s % 2`` read (two super-steps ago) retired.
        barrier = mp_context.Barrier(len(worker_boards))
        #: Set once the final barrier has opened (see _watch_workers).
        released = mp_context.Event()
        connections: List = []
        processes: List = []
        watcher: Optional[threading.Thread] = None
        stop_reader, stop_writer = mp_context.Pipe(duplex=False)
        try:
            for worker, owned in sorted(worker_boards.items()):
                parent_end, child_end = mp_context.Pipe()
                process = mp_context.Process(
                    target=_shard_worker,
                    args=(child_end, worker,
                          [self.board_contexts[board] for board in owned],
                          populations, self.seed, self.timestep_ms, plan,
                          exchange, barrier, released, n_ticks,
                          duration_ms),
                    daemon=True)
                process.start()
                child_end.close()
                connections.append(parent_end)
                processes.append(process)
            # A worker dying mid-run would leave every other worker stuck
            # at the barrier forever; the watcher turns the death into a
            # BrokenBarrierError for everyone instead.
            watcher = threading.Thread(
                target=_watch_workers,
                args=(processes, stop_reader, barrier, released),
                daemon=True)
            watcher.start()
            results: List[ApplicationResult] = []
            batch_sizes: Dict[int, List[int]] = {}
            for worker, connection in enumerate(connections):
                try:
                    result, sizes, stages = connection.recv()
                except (EOFError, ConnectionResetError):
                    # A dying peer surfaces as EOF or, when it still held
                    # unread data, as a connection reset.
                    self._fail_dead_worker(worker, processes, worker_boards)
                results.append(result)
                # Each key is one worker's own: the union is the run's.
                batch_sizes.update(sizes)
                report.worker_stages[worker] = stages
            # Worker order over a contiguous cut is board order.
            return ApplicationResult.merge(results), batch_sizes
        finally:
            stop_writer.send(True)
            stop_writer.close()
            if watcher is not None:
                watcher.join(timeout=5.0)
            stop_reader.close()
            # A parent-side error must not leave workers blocked at the
            # barrier until the join timeout; the run is over either
            # way, so breaking the barrier is always safe here.
            barrier.abort()
            for connection in connections:
                connection.close()
            for process in processes:
                process.join(timeout=10.0)
                if process.is_alive():  # pragma: no cover - hung worker
                    process.terminate()
                    process.join(timeout=5.0)
            # Unlink on every exit path — a crashed worker must not
            # leave the segment behind in /dev/shm.
            exchange.close()
            exchange.unlink()

    def _fail_dead_worker(self, closed: int, processes,
                          worker_boards) -> NoReturn:
        """Worker ``closed``'s pipe ended without a result: raise for the
        worker that died.

        A worker that survives the barrier a peer's death broke exits
        cleanly without a result, so the blame goes by exit code: the
        first worker whose process ended nonzero, else ``closed`` itself.
        Joining waits out the window in which an exiting process has
        closed its pipe but is not yet reapable.
        """
        for process in processes:
            process.join(timeout=10.0)
        dead = next((worker for worker, process in enumerate(processes)
                     if process.exitcode), closed)
        raise ClusterWorkerError(dead, worker_boards.get(dead, ()),
                                 processes[dead].exitcode)
