"""The mapping-compiler artifact store (:class:`MappingContext`).

The paper's software tool-chain is a staged partition-and-configure
pipeline: a neural-network description goes in, per-core routing tables
and synaptic data come out.  :class:`MappingContext` is the single
artifact that flows through the :mod:`repro.compile` pass pipeline — it
holds the inputs (network, machine view, seeds, policy knobs) and every
intermediate product (partition, placement, key spaces, per-key routing
entries, route programs, packed synaptic blocks, per-core data), so each
pass reads its predecessors' outputs and records its own.

Fingerprints over the network description and the machine's health are
what make the per-pass caching and the incremental re-map work: a pass
is skipped when the fingerprints of its inputs have not changed since it
last ran, and re-run only over the vertices the change actually touched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.core.geometry import ChipCoordinate
from repro.mapping.keys import KeyAllocator
from repro.mapping.placement import Placement, Vertex
from repro.mapping.routing_generator import RoutingSummary
from repro.mapping.synaptic_matrix import CoreSynapticData, pack_blocks
from repro.neuron.engine import CSRMatrix
from repro.neuron.network import Network, expand_projections
from repro.router.fabric import RouteProgram
from repro.router.routing_table import RoutingEntry

__all__ = [
    "BoardContext",
    "BoardDeliveryIndex",
    "MappingContext",
    "ProjectionSplit",
    "RouteRecord",
    "ShardCore",
    "network_fingerprint",
    "machine_fingerprint",
]


def network_fingerprint(network: Network) -> Tuple:
    """A structural fingerprint of a network description.

    Covers everything the mapping tool-chain's output depends on:
    population sizes and models, projection endpoints and connector
    parameters, stimulus configuration, timestep and seed.  Two networks
    with equal fingerprints compile to identical artifacts (for equal
    machine fingerprints and seeds).
    """
    populations = []
    for population in network.populations:
        extra: Tuple = ()
        rate = getattr(population, "rate_hz", None)
        if rate is not None:
            extra += (("rate_hz", rate),)
        times = getattr(population, "spike_times_ms", None)
        if times is not None:
            extra += (("spike_times", tuple(tuple(t) for t in times)),)
        populations.append((population.label, population.size,
                            population.model_name,
                            population.bias_current_na, extra))
    projections = []
    for projection in network.projections:
        projections.append((projection.pre.label, projection.post.label,
                            type(projection.connector).__name__,
                            repr(projection.connector),
                            projection.plasticity is not None))
    return (network.timestep_ms, network.seed,
            tuple(populations), tuple(projections))


def machine_fingerprint(machine: Any) -> Tuple:
    """A fingerprint of the machine view's mappable resources.

    Enumerates, per chip of the view's geometry (so a
    :class:`~repro.alloc.machine_view.LeasedMachineView` fingerprints
    only its lease), the application cores a placer may use — the same
    availability rule :meth:`Placer._application_cores` applies.  A chip
    condemnation, core fault or lease shrink changes the fingerprint,
    which is what triggers the incremental re-map.
    """
    chips = []
    for coordinate in machine.geometry.all_chips():
        chip = machine.chips[coordinate]
        monitor = (chip.monitor_core_id
                   if chip.monitor_core_id is not None else 0)
        cores = tuple(
            core.core_id for core in chip.cores
            if core.core_id != monitor
            and (core.is_available
                 or core.state.value not in ("failed", "disabled")))
        chips.append((coordinate.x, coordinate.y, monitor, cores))
    return (machine.config.width, machine.config.height, tuple(chips))


#: (source vertex, target vertex): the pair one packed block serves.
VertexPair = Tuple[Vertex, Vertex]


@dataclass
class ProjectionSplit:
    """One projection's synapses grouped by (target vertex, source vertex).

    Group ``t * len(sources) + s`` holds the synapses from ``sources[s]``
    onto ``targets[t]``; the non-empty groups are the projection's reach.
    One stable sort by group id makes each group a contiguous,
    row-ordered run: the block the synaptic-matrix pass packs for it.
    """

    sources: List[Vertex]
    targets: List[Vertex]
    #: ``(len(targets), len(sources))`` synapse count of every group.
    sizes: np.ndarray
    #: Group id of every synapse (CSR order); dropped by :meth:`blocks`.
    group: Optional[np.ndarray]

    @classmethod
    def build(cls, csr: CSRMatrix, sources: List[Vertex],
              targets: List[Vertex]) -> "ProjectionSplit":
        """Group ``csr`` over the source and target partitions."""
        n_groups = len(targets) * len(sources)
        group = len(sources) * (np.searchsorted(
            [v.slice_start for v in targets], csr.targets, "right") - 1)
        group += np.repeat(np.arange(len(sources)), np.diff(
            csr.row_ptr[[v.slice_start for v in sources] + [csr.n_pre]]))
        sizes = np.bincount(group, minlength=n_groups)
        # Kept narrow (a radix sort; still holds ``len(sources)``).
        return cls(sources, targets, sizes.reshape(len(targets), -1),
                   group.astype(np.min_scalar_type(n_groups)))

    def pairs(self) -> Iterator[VertexPair]:
        """``(source, target)`` of every non-empty group, target-major."""
        n_sources = len(self.sources)
        for g in np.flatnonzero(self.sizes):
            yield self.sources[g % n_sources], self.targets[g // n_sources]

    @staticmethod
    def blocks(parallel: List[Tuple["ProjectionSplit", CSRMatrix]]
               ) -> Iterator[Tuple[VertexPair, np.ndarray, CSRMatrix]]:
        """Pack every non-empty group of parallel projections — one
        population pair's ``(split, csr)``, in projection order — into
        one buffer (:func:`pack_blocks`).

        One stable sort serves them all; the rows of parallel
        projections merge into the pair's one block, row by row in
        projection order.  Returns each pair, target-major, with its
        block and its leg.
        """
        splits, csrs = zip(*parallel)

        def column(name: str, of=csrs) -> np.ndarray:
            arrays = [getattr(item, name) for item in of]
            return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)

        group, pre = column("group", splits), column("pre_index")
        for split in splits:
            split.group = None
        sizes = sum(split.sizes for split in splits).ravel()
        present = np.flatnonzero(sizes)
        if not present.size:
            return iter(())
        sizes = sizes[present]
        n_sources = len(splits[0].sources)
        sources = [splits[0].sources[g % n_sources] for g in present.tolist()]
        targets = [splits[0].targets[g // n_sources] for g in present.tolist()]
        # One projection's CSR order is row order within each group, so
        # its narrow group ids sort alone (a radix sort); parallel ones
        # interleave by source row.
        order = np.argsort(group if len(splits) == 1 else (
            group.astype(np.int64) * csrs[0].n_pre + pre), kind="stable")
        source_start, target_start = (
            np.repeat([v.slice_start for v in vertices], sizes)
            for vertices in (sources, targets))
        blocks, legs = pack_blocks(
            [v.n_neurons for v in sources], [v.n_neurons for v in targets],
            sizes, pre[order] - source_start,
            column("targets")[order] - target_start,
            column("weights")[order], column("delay_ticks")[order])
        return zip(zip(sources, targets), blocks, legs)


@dataclass
class RouteRecord:
    """The routing artifact of one source vertex.

    Everything needed to (a) install the vertex's multicast entries and
    (b) decide on a later re-map whether the record is still valid: the
    tree depends only on the source slot and the destination slots, so
    the record is rebuilt exactly when one of those moved.
    """

    key: int
    source_chip: ChipCoordinate
    #: The placement snapshot the record was built against.
    source_slot: Tuple[ChipCoordinate, int]
    target_slots: Dict[Vertex, Tuple[ChipCoordinate, int]]
    #: One masked entry per chip of the tree.
    entries: Dict[ChipCoordinate, RoutingEntry]
    n_tree_links: int = 0


@dataclass(frozen=True)
class ShardCore:
    """One placed vertex as seen by a board shard.

    Self-contained and picklable: the sharded runner ships these to
    worker processes, so a shard core carries its physical location (the
    per-core RNG derivation key), its population slice and its *sticky*
    AER base key — the cross-board spike-batch address.
    """

    chip: ChipCoordinate
    core_id: int
    vertex: Vertex
    #: The vertex's sticky AER base key (:class:`KeySpace.base_key`).
    base_key: int
    #: False for vertices of populations with no outgoing projections;
    #: their spikes are recorded but never shipped (mirroring the
    #: on-machine runtime).
    has_outgoing: bool


@dataclass
class BoardDeliveryIndex:
    """One board's delivery legs merged into a flat arena.

    Every leg of a key (one destination core's decoded synaptic block,
    read from :attr:`CoreSynapticData.legs`) is merged into one
    board-wide CSR: target neuron indices are pre-offset into a
    *board-flat* numbering (core 0's neurons first, then core 1's, in
    canonical core order), and every key's source rows sit back to back
    in one row table (key ``k``'s row ``i`` is ``first_row[k] + i``) over
    one targets/weights/delays arena.  The fused engine then scatters a
    whole tick's fired neurons with one row-table gather, one arena
    gather and one ring update instead of a loop per (key, destination
    core) leg.

    Merging legs is result-exact: ring accumulation of the fixed-point
    weights is an exact float64 sum, so grouping events per key instead
    of per leg lands identical charge, and the drain clamps it alike.
    """

    #: First board-flat neuron index of each local core.
    core_offsets: np.ndarray
    #: Total neurons across the board's cores (the arena's index space).
    total_neurons: int
    #: One slot per synapse of every delivery leg: board-flat target
    #: neuron, fixed-point weight and programmable delay.
    targets: np.ndarray
    weights: np.ndarray
    delay_ticks: np.ndarray
    #: ``(n_rows + 1,)`` arena bounds of every table row (rows of a key's
    #: several legs are merged, leg-ordered within a row).
    row_ptr: np.ndarray
    #: key -> table row of the key's source neuron 0.  Exactly the keys
    #: that reach the board, in arena order.
    first_row: Dict[int, int]
    #: key -> smallest delay of the key's synapses on the board (keys
    #: with at least one synapse): what board-pair lookahead reads.
    min_delay: Dict[int, int]

    @classmethod
    def build(cls, cores: List[ShardCore],
              legs: Dict[int, List[Tuple[int, CSRMatrix]]]
              ) -> "BoardDeliveryIndex":
        """Merge ``key -> [(local core index, leg)]`` over ``cores``.

        Row merge order within a key follows the key's leg order; arena
        segments follow the key order of ``legs``.  Every leg's synapses
        are numbered by table row and one stable sort over the board
        merges all keys at once.
        """
        sizes = np.array([core.vertex.n_neurons for core in cores],
                         dtype=np.intp)
        core_offsets = np.zeros(len(cores), dtype=np.intp)
        if sizes.size:
            core_offsets[1:] = np.cumsum(sizes)[:-1]
        first_row: Dict[int, int] = {}
        flat: List[CSRMatrix] = []
        row_offsets: List[int] = []
        target_offsets: List[int] = []
        n_rows = 0
        for key, key_legs in legs.items():
            first_row[key] = n_rows
            for index, leg in key_legs:
                flat.append(leg)
                row_offsets.append(n_rows)
                target_offsets.append(core_offsets[index])
            n_rows += key_legs[0][1].n_pre

        counts = [leg.n_synapses for leg in flat]

        def column(name: str, offsets=None) -> np.ndarray:
            if not flat:
                return np.zeros(0, dtype=np.int64)
            values = np.concatenate([getattr(leg, name) for leg in flat])
            if offsets is not None:
                values += np.repeat(np.array(offsets, dtype=np.int64), counts)
            return values

        rows = column("pre_index", row_offsets)
        order = np.argsort(rows, kind="stable")
        row_ptr = np.zeros(n_rows + 1, dtype=np.int64)
        row_ptr[1:] = np.cumsum(np.bincount(rows, minlength=n_rows))
        # One column at a time, so a large board's build holds at most
        # two unsorted columns beside the arena.
        del rows
        targets = column("targets", target_offsets)[order]
        weights = column("weights")[order]
        delays = column("delay_ticks")[order].astype(np.intp, copy=False)
        # Each key's synapses are one arena segment; the empty ones
        # have no minimum.
        starts = row_ptr[list(first_row.values())]
        filled = np.flatnonzero(np.diff(starts, append=row_ptr[-1]))
        minima = (np.minimum.reduceat(delays, starts[filled]).tolist()
                  if filled.size else [])
        keys = list(first_row)
        return cls(core_offsets=core_offsets, total_neurons=int(sizes.sum()),
                   targets=targets.astype(np.intp, copy=False),
                   weights=weights.astype(float, copy=False),
                   delay_ticks=delays, row_ptr=row_ptr, first_row=first_row,
                   min_delay={keys[i]: delay
                              for i, delay in zip(filled, minima)})


@dataclass
class BoardContext:
    """The per-board sub-context the ShardByBoard pass produces.

    Everything one board's execution shard needs, detached from the
    machine model: the board's cores in canonical placement order and
    the delivery index of every source key that reaches the board
    (merged from the destination cores' legs — the same decoded SDRAM
    words the event path and the transport fabric read, so fixed-point
    quantisation matches the on-machine run exactly).
    """

    board: int
    cores: List[ShardCore] = field(default_factory=list)
    #: The board's legs flattened for the fused engine (set by the
    #: ShardByBoard pass).
    delivery_index: Optional[BoardDeliveryIndex] = None

    @property
    def n_cores(self) -> int:
        """Number of placed vertices on this board (its worker-cut
        assignment weight)."""
        return len(self.cores)


@dataclass
class MappingContext:
    """Inputs plus accumulated artifacts of one mapping compilation."""

    machine: Any
    network: Network
    #: Concrete simulation seed (per-core RNG derivation).
    seed: Optional[int]
    #: Seed key for connectivity expansion; ``None`` preserves the
    #: unseeded shared-cache behaviour.
    expansion_seed: Optional[int]
    max_neurons_per_core: int
    placement_strategy: str
    broadcast_routing: bool = False
    compile_transport: bool = False
    #: When set, the ShardByBoard pass splits the compiled artifacts into
    #: per-board :class:`BoardContext`\ s for the cluster runner.
    shard_by_board: bool = False
    minimise: bool = True

    # ------------------------------------------------------------------
    # Artifacts (filled in by the passes)
    # ------------------------------------------------------------------
    partition: Optional[Dict[str, List[Vertex]]] = None
    placement: Optional[Placement] = None
    keys: Optional[KeyAllocator] = None
    #: Per-source-vertex routing records.
    routes: Dict[Vertex, RouteRecord] = field(default_factory=dict)
    #: Per-chip installed entry view: ``chip -> {key -> entry}`` in
    #: installation order (the key order vertices were routed in).
    chip_entries: Dict[ChipCoordinate, Dict[int, RoutingEntry]] = field(
        default_factory=dict)
    #: Packed synaptic blocks, placement-independent:
    #: ``(source vertex, target vertex) ->`` the ``(n_rows, stride)``
    #: ``uint32`` block of ``pack_blocks`` (every projection between the
    #: two populations merged into the one block their key selects).
    blocks: Dict[VertexPair, np.ndarray] = field(default_factory=dict)
    #: Each block decoded into its delivery leg (same keys), which every
    #: core the block is written to holds.
    legs: Dict[VertexPair, CSRMatrix] = field(default_factory=dict)
    core_data: Dict[Tuple[ChipCoordinate, int], CoreSynapticData] = field(
        default_factory=dict)
    route_programs: Dict[int, RouteProgram] = field(default_factory=dict)
    routing_summary: RoutingSummary = field(default_factory=RoutingSummary)
    #: Per-board sub-contexts (ShardByBoard pass; empty when disabled),
    #: in board order.  Kept across runs: a re-map rebuilds only the
    #: boards it touched.
    board_contexts: Dict[int, BoardContext] = field(default_factory=dict)
    #: ``(board_width, board_height)`` the board contexts were cut for.
    board_geometry: Optional[Tuple] = None
    #: Minimum synaptic delay (ticks) of every *cross-board* delivery,
    #: per ``(source board, destination board)`` pair — read off the
    #: delivery legs by the ShardByBoard pass.  This is the
    #: conservative-lookahead budget of the cluster runner: a spike
    #: emitted at tick ``t`` cannot influence another board before tick
    #: ``t + 1 + d_min``, so boards may run ``1 + d_min`` ticks between
    #: exchange barriers (classic conservative PDES).
    board_pair_min_delay: Dict[Tuple[int, int], int] = field(
        default_factory=dict)

    # ------------------------------------------------------------------
    # Version counters (bumped only when a pass's output actually
    # changed; downstream pass signatures include them)
    # ------------------------------------------------------------------
    partition_version: int = 0
    placement_version: int = 0
    keys_version: int = 0
    routes_version: int = 0
    #: True once the route pass has installed entries into the machine's
    #: tables at least once (the first install adds on top of whatever
    #: the tables hold; later installs clear-and-rebuild the dirty chips).
    tables_installed: bool = False

    # ------------------------------------------------------------------
    # Per-run change tracking (reset by :meth:`begin_run`)
    # ------------------------------------------------------------------
    full_rebuild: bool = False
    #: Set when :meth:`ensure_reach` recomputed the expansion-derived
    #: artifacts this run (the network changed without changing the
    #: partition): every block and core is then stale, not just moved ones.
    reach_rebuilt: bool = False
    moved_vertices: Set[Vertex] = field(default_factory=set)
    removed_vertices: Set[Vertex] = field(default_factory=set)
    dirty_chips: Set[ChipCoordinate] = field(default_factory=set)
    dirty_keys: Set[int] = field(default_factory=set)
    #: Slots whose :class:`CoreSynapticData` the synaptic-matrix pass
    #: (re)built this run.
    rebuilt_cores: Set[Tuple[ChipCoordinate, int]] = field(
        default_factory=set)
    #: Per-pass scope notes for the report ("full", "12 vertices", ...).
    last_scope: Dict[str, str] = field(default_factory=dict)

    # Reach: one :class:`ProjectionSplit` per projection, in network
    # order, its reverse (:meth:`feeders_of`, built on first use), plus
    # the (network fingerprint, expansion seed, partition version) tag
    # it was computed for.
    _splits: Optional[List[ProjectionSplit]] = None
    _feeders: Optional[Dict[Vertex, Dict[Vertex, None]]] = None
    _reach_tag: Optional[Tuple] = None
    #: Network fingerprint computed once per run (several pass
    #: signatures read it; re-deriving it each time would make every
    #: all-cache-hit run pay repeated deep walks of the description).
    _network_fp: Optional[Tuple] = None

    def network_fp(self) -> Tuple:
        """The network fingerprint, computed at most once per run."""
        if self._network_fp is None:
            self._network_fp = network_fingerprint(self.network)
        return self._network_fp

    def begin_run(self) -> None:
        """Reset the per-run change-tracking state."""
        self._network_fp = None
        self.full_rebuild = False
        self.reach_rebuilt = False
        self.moved_vertices = set()
        self.removed_vertices = set()
        self.dirty_chips = set()
        self.dirty_keys = set()
        self.rebuilt_cores = set()
        self.last_scope = {}

    def invalidate_artifacts(self) -> None:
        """Drop every derived artifact (the network itself changed)."""
        self.routes.clear()
        self.chip_entries.clear()
        self.blocks.clear()
        self.legs.clear()
        self.core_data.clear()
        self.route_programs.clear()
        self._splits = None
        self._feeders = None
        self._reach_tag = None

    # ------------------------------------------------------------------
    # Shared expansion-derived artifacts
    # ------------------------------------------------------------------
    def expansion_tag(self) -> Tuple:
        """Cache tag of the connectivity expansion the artifacts reflect."""
        return (self.network_fp(), self.expansion_seed,
                self.partition_version)

    def ensure_reach(self) -> bool:
        """Group every projection once (:class:`ProjectionSplit`), or
        reuse the grouping: the reach the route pass follows and the
        blocks the synaptic-matrix pass packs.  It derives from the shared
        connectivity expansion and the partition only — not placement —
        so it survives every re-map.  Returns ``True`` when it had to be
        recomputed (every downstream routing record is then stale).
        """
        tag = self.expansion_tag()
        if self._splits is not None and self._reach_tag == tag:
            return False
        # The expansion changed: every packed block derived from it is
        # stale (connector parameters may have changed without changing
        # the partition, so this cannot ride on partition invalidation).
        self.blocks.clear()
        self.legs.clear()
        self.reach_rebuilt = True
        self._feeders = None
        self._splits = [
            ProjectionSplit.build(csr, self.partition[projection.pre.label],
                                  self.partition[projection.post.label])
            for _index, projection, csr
            in expand_projections(self.network, self.expansion_seed)]
        self._reach_tag = tag
        return True

    def reach_of(self, vertex: Vertex) -> Dict[Vertex, None]:
        """Target vertices receiving at least one synapse from ``vertex``,
        merged over every projection (insertion-ordered)."""
        merged: Dict[Vertex, None] = {}
        for split in self._splits:
            first = split.sources[0]
            if first.population_label == vertex.population_label:
                hit = split.sizes[:, vertex.index - first.index]
                merged.update(dict.fromkeys(
                    split.targets[t] for t in np.flatnonzero(hit)))
        return merged

    def feeders_of(self) -> Dict[Vertex, Dict[Vertex, None]]:
        """Reverse reach: target vertex -> source vertices, in
        projection-major then source-slice order (a source feeding the
        target through several projections is listed at its first) —
        the canonical per-core block order of the synaptic-matrix
        builder.  Placement-independent, so cached with the reach."""
        if self._feeders is None:
            self._feeders = {}
            for split in self._splits:
                for s, t in zip(*np.nonzero(split.sizes.T)):
                    self._feeders.setdefault(split.targets[t],
                                             {})[split.sources[s]] = None
        return self._feeders

    def pack_blocks(self) -> List[VertexPair]:
        """Pack every block into :attr:`blocks` and decode it into
        :attr:`legs`, one population pair's projections at a time
        (:meth:`ProjectionSplit.blocks`).

        Returns the pairs in the canonical cold-build write order
        (projection, target, source; a pair parallel projections share
        at its first).
        """
        parallel: Dict[Tuple[str, str], List] = {}
        expanded = expand_projections(self.network, self.expansion_seed)
        for (_index, projection, csr), split in zip(expanded, self._splits):
            parallel.setdefault((projection.pre.label, projection.post.label),
                                []).append((split, csr))
        for parts in parallel.values():
            for pair, block, leg in ProjectionSplit.blocks(parts):
                self.blocks[pair], self.legs[pair] = block, leg
        return list(dict.fromkeys(pair for split in self._splits
                                  for pair in split.pairs()))
