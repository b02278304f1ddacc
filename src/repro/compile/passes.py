"""The mapping-compiler passes.

Each pass is one stage of the paper's partition-and-configure tool-chain,
reading and writing artifacts on a shared :class:`MappingContext`:

========================  =============================================
pass                      artifact produced
========================  =============================================
``partition``             population slices (:class:`Vertex` lists)
``place``                 vertex -> (chip, core) assignment
``allocate-keys``         sticky AER key spaces per source vertex
``route``                 per-key multicast (or broadcast) entries,
                          installed into the chip routing tables
``compress``              per-chip table minimisation
``synaptic-matrices``     packed synaptic blocks in SDRAM + master
                          population tables
``compile-transport``     per-key :class:`RouteProgram`\\ s for the
                          compiled transport fabric
========================  =============================================

Every pass exposes a *signature* — a tuple over the fingerprints and
version counters of its inputs.  The pipeline skips a pass whose
signature is unchanged since its last run (a cache hit) and otherwise
re-runs it; the pass itself then limits the work to the vertices the
change actually touched (an incremental re-map), bumping its output
version only when something really changed so downstream passes can
cache-hit in turn.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.compile.context import (
    BoardContext,
    BoardDeliveryIndex,
    MappingContext,
    RouteRecord,
    ShardCore,
    machine_fingerprint,
)
from repro.core.geometry import ChipCoordinate
from repro.mapping.keys import KeyAllocator
from repro.mapping.placement import Placer, Vertex
from repro.mapping.routing_generator import build_tree
from repro.mapping.synaptic_matrix import CoreSynapticData, write_blocks
from repro.neuron.engine import CSRMatrix
from repro.router.fabric import compile_route
from repro.router.routing_table import RoutingEntry

__all__ = [
    "MappingPass",
    "PartitionPass",
    "PlacePass",
    "AllocateKeysPass",
    "RoutePass",
    "CompressPass",
    "BuildSynapticMatricesPass",
    "CompileTransportPass",
    "ShardByBoardPass",
    "DEFAULT_PASSES",
]


class MappingPass:
    """Base class: a named, signature-cached stage of the pipeline."""

    name = "pass"

    def signature(self, ctx: MappingContext) -> Tuple:
        """Cache key over the pass's inputs; unchanged -> skip."""
        raise NotImplementedError

    def run(self, ctx: MappingContext) -> None:
        """(Re)compute the pass's artifact, incrementally when possible."""
        raise NotImplementedError


class PartitionPass(MappingPass):
    """Split every population into core-sized vertices."""

    name = "partition"

    def signature(self, ctx: MappingContext) -> Tuple:
        return (ctx.network_fp(), ctx.max_neurons_per_core)

    def run(self, ctx: MappingContext) -> None:
        placer = Placer(ctx.machine, ctx.max_neurons_per_core,
                        ctx.placement_strategy)
        partition = placer.partition(ctx.network)
        if partition == ctx.partition:
            ctx.last_scope[self.name] = "unchanged"
            return
        if ctx.partition is not None:
            # The network itself changed: every derived artifact is void.
            ctx.invalidate_artifacts()
            ctx.full_rebuild = True
        ctx.partition = partition
        ctx.partition_version += 1
        ctx.last_scope[self.name] = "%d vertices" % sum(
            len(slices) for slices in partition.values())


class PlacePass(MappingPass):
    """Assign every vertex to an available application core.

    Placement is always recomputed in full (it is cheap and the standard
    placer is a deterministic function of the partition and the machine's
    available slots, so a re-map lands exactly where a cold compile on
    the same machine would); the *diff* against the previous placement is
    what drives the incremental work of every later pass.
    """

    name = "place"

    def signature(self, ctx: MappingContext) -> Tuple:
        return (ctx.partition_version, machine_fingerprint(ctx.machine),
                ctx.placement_strategy)

    def run(self, ctx: MappingContext) -> None:
        placer = Placer(ctx.machine, ctx.max_neurons_per_core,
                        ctx.placement_strategy)
        fresh = placer.place(ctx.network, partition=ctx.partition)
        if ctx.placement is None:
            ctx.placement = fresh
            ctx.moved_vertices = set(fresh.locations)
            ctx.placement_version += 1
            ctx.last_scope[self.name] = "full (%d vertices)" % len(
                fresh.locations)
            return
        old = dict(ctx.placement.locations)
        # Update the existing Placement object in place: the application,
        # migrator and key allocator all hold references to it.
        ctx.placement.max_neurons_per_core = fresh.max_neurons_per_core
        ctx.placement.vertices = fresh.vertices
        ctx.placement.by_population = fresh.by_population
        ctx.placement.locations = fresh.locations
        ctx.moved_vertices = {
            vertex for vertex, slot in fresh.locations.items()
            if old.get(vertex) != slot}
        ctx.removed_vertices = set(old) - set(fresh.locations)
        if ctx.moved_vertices or ctx.removed_vertices:
            ctx.placement_version += 1
        ctx.last_scope[self.name] = "%d moved" % len(ctx.moved_vertices)


class AllocateKeysPass(MappingPass):
    """Allocate AER key spaces — sticky across re-maps.

    A vertex keeps its first-allocated key for life (the virtualised-
    topology principle: a neuron's logical identity never changes, only
    the routing tables follow it to a new physical home), so only brand-
    new vertices receive keys here and a pure re-placement leaves the
    key artifact untouched.
    """

    name = "allocate-keys"

    def signature(self, ctx: MappingContext) -> Tuple:
        return (ctx.partition_version, ctx.placement_version)

    def run(self, ctx: MappingContext) -> None:
        if ctx.keys is None:
            ctx.keys = KeyAllocator(ctx.placement)
            ctx.keys_version += 1
            ctx.last_scope[self.name] = "full (%d keys)" % len(
                ctx.keys.all_key_spaces())
            return
        if ctx.full_rebuild:
            ctx.keys.reallocate(ctx.placement)
            ctx.keys_version += 1
            ctx.last_scope[self.name] = "full (%d keys)" % len(
                ctx.keys.all_key_spaces())
            return
        added = ctx.keys.allocate_missing()
        if added:
            ctx.keys_version += 1
        ctx.last_scope[self.name] = "%d new keys" % len(added)


class RoutePass(MappingPass):
    """Build multicast (or broadcast) trees and install routing entries.

    Keeps one :class:`RouteRecord` per source vertex.  A record is valid
    as long as neither its source slot nor any of its destination slots
    changed, so a re-map rebuilds only the trees the move actually bent;
    chips whose entry set changed are re-installed (and later
    re-minimised) while every other table is left untouched.
    """

    name = "route"

    def signature(self, ctx: MappingContext) -> Tuple:
        return (ctx.placement_version, ctx.keys_version,
                ctx.network_fp(), ctx.expansion_seed,
                ctx.broadcast_routing)

    # ------------------------------------------------------------------
    def run(self, ctx: MappingContext) -> None:
        reach_changed = ctx.ensure_reach()
        locations = ctx.placement.locations

        full = reach_changed or not ctx.routes
        if full:
            rebuild = list(ctx.placement.vertices)
        else:
            rebuild = []
            for vertex in ctx.placement.vertices:
                record = ctx.routes.get(vertex)
                if record is None:
                    if ctx.reach_of(vertex):
                        rebuild.append(vertex)
                    continue
                if record.source_slot != locations[vertex]:
                    rebuild.append(vertex)
                    continue
                if any(locations.get(target) != slot
                       for target, slot in record.target_slots.items()):
                    rebuild.append(vertex)

        for vertex in ctx.removed_vertices:
            record = ctx.routes.pop(vertex, None)
            if record is not None:
                self._retire(ctx, record)

        broadcast_chips = (list(ctx.machine.geometry.all_chips())
                           if ctx.broadcast_routing else None)
        rebuilt = 0
        for vertex in rebuild:
            rebuilt += self._rebuild(ctx, vertex, broadcast_chips)

        self._install(ctx)
        self._summarise(ctx)
        if ctx.dirty_chips or ctx.dirty_keys:
            ctx.routes_version += 1
        ctx.last_scope[self.name] = ("full (%d trees)" % rebuilt if full
                                     else "%d trees" % rebuilt)

    # ------------------------------------------------------------------
    def _rebuild(self, ctx: MappingContext, vertex: Vertex,
                 broadcast_chips: Optional[List[ChipCoordinate]]) -> int:
        space = ctx.keys.key_space(vertex)
        source_slot = ctx.placement.locations[vertex]
        source_chip = source_slot[0]
        targets = ctx.reach_of(vertex)
        destinations: Dict[ChipCoordinate, Set[int]] = {}
        target_slots: Dict[Vertex, Tuple[ChipCoordinate, int]] = {}
        for target in targets:
            slot = ctx.placement.locations[target]
            target_slots[target] = slot
            destinations.setdefault(slot[0], set()).add(slot[1])

        old = ctx.routes.pop(vertex, None)
        if not destinations:
            if old is not None:
                self._retire(ctx, old)
            return 0

        tree = build_tree(
            ctx.machine, source_chip,
            broadcast_chips if broadcast_chips is not None
            else list(destinations))
        entries: Dict[ChipCoordinate, RoutingEntry] = {}
        n_links = 0
        for chip_coordinate, link_directions in tree.items():
            n_links += len(link_directions)
            cores = destinations.get(chip_coordinate, set())
            if not link_directions and not cores:
                continue
            entries[chip_coordinate] = RoutingEntry(
                key=space.base_key, mask=space.mask,
                link_directions=frozenset(link_directions),
                processor_ids=frozenset(cores))

        record = RouteRecord(key=space.base_key, source_chip=source_chip,
                             source_slot=source_slot,
                             target_slots=target_slots, entries=entries,
                             n_tree_links=n_links)
        self._merge(ctx, old, record)
        ctx.routes[vertex] = record
        return 1

    @staticmethod
    def _retire(ctx: MappingContext, record: RouteRecord) -> None:
        for chip_coordinate in record.entries:
            bucket = ctx.chip_entries.get(chip_coordinate)
            if bucket and bucket.pop(record.key, None) is not None:
                ctx.dirty_chips.add(chip_coordinate)
        ctx.dirty_keys.add(record.key)

    @staticmethod
    def _merge(ctx: MappingContext, old: Optional[RouteRecord],
               record: RouteRecord) -> None:
        if old is not None and old.key != record.key:
            RoutePass._retire(ctx, old)
            old = None
        old_entries = old.entries if old is not None else {}
        for chip_coordinate in set(old_entries) | set(record.entries):
            entry = record.entries.get(chip_coordinate)
            bucket = ctx.chip_entries.setdefault(chip_coordinate, {})
            if entry is None:
                if bucket.pop(record.key, None) is not None:
                    ctx.dirty_chips.add(chip_coordinate)
            elif bucket.get(record.key) != entry:
                bucket[record.key] = entry
                ctx.dirty_chips.add(chip_coordinate)
        if old_entries != record.entries:
            ctx.dirty_keys.add(record.key)

    # ------------------------------------------------------------------
    def _install(self, ctx: MappingContext) -> None:
        first = not ctx.tables_installed
        for chip_coordinate in ctx.dirty_chips:
            chip = ctx.machine.chips.get(chip_coordinate)
            if chip is None:
                # A lease shrink removed the chip from the machine view
                # while its old entries were being retired; there is no
                # table left to rewrite.
                continue
            table = chip.router.table
            if not first:
                table.clear()
            bucket = ctx.chip_entries.get(chip_coordinate, {})
            table.extend(bucket.values())
        ctx.tables_installed = True

    def _summarise(self, ctx: MappingContext) -> None:
        summary = ctx.routing_summary
        summary.multicast_trees = len(ctx.routes)
        summary.total_tree_links = sum(record.n_tree_links
                                       for record in ctx.routes.values())
        summary.entries_installed = sum(len(bucket)
                                        for bucket in ctx.chip_entries.values())
        summary.chips_touched = sum(1 for bucket in ctx.chip_entries.values()
                                    if bucket)


class CompressPass(MappingPass):
    """Minimise the routing tables the route pass re-installed.

    Broadcast tables are left raw (the E11 baseline measures the
    uncompressed bus-style cost).
    """

    name = "compress"

    def signature(self, ctx: MappingContext) -> Tuple:
        return (ctx.routes_version, ctx.minimise, ctx.broadcast_routing)

    def run(self, ctx: MappingContext) -> None:
        summary = ctx.routing_summary
        if ctx.broadcast_routing or not ctx.minimise:
            summary.entries_after_minimisation = summary.entries_installed
            ctx.last_scope[self.name] = "skipped"
            return
        for chip_coordinate in ctx.dirty_chips:
            chip = ctx.machine.chips.get(chip_coordinate)
            if chip is not None:
                chip.router.table.minimise()
        summary.entries_after_minimisation = sum(
            len(ctx.machine.chips[chip_coordinate].router.table)
            for chip_coordinate, bucket in ctx.chip_entries.items()
            if bucket and chip_coordinate in ctx.machine.chips)
        ctx.last_scope[self.name] = "%d tables" % len(ctx.dirty_chips)


class BuildSynapticMatricesPass(MappingPass):
    """Pack synaptic blocks into SDRAM and build the population tables.

    A cold build packs and decodes each population pair's projections
    at once (:meth:`MappingContext.pack_blocks`), then writes every
    chip's blocks with one SDRAM write, each block still in its own
    region with its own population-table record.  The packed words and
    their legs depend only on the connectivity expansion and the
    partition — never on the placement — and the key indexing a block
    is sticky, so a re-map rebuilds just the cores whose vertex moved,
    re-writing each one's cached blocks at fresh addresses in one write.
    """

    name = "synaptic-matrices"

    def signature(self, ctx: MappingContext) -> Tuple:
        return (ctx.placement_version, ctx.keys_version,
                ctx.network_fp(), ctx.expansion_seed)

    def run(self, ctx: MappingContext) -> None:
        ctx.ensure_reach()
        # A recomputed reach means the connectivity itself changed (for
        # example a new projection between already-partitioned
        # populations): every core's blocks are stale, not just moved
        # ones, so this is a full rebuild too.
        if ctx.reach_rebuilt or not ctx.core_data:
            self._build_full(ctx)
            return
        self._build_incremental(ctx)

    # ------------------------------------------------------------------
    @staticmethod
    def _free_core(ctx: MappingContext, slot, data: CoreSynapticData) -> None:
        chip = ctx.machine.chips.get(slot[0])
        if chip is None:
            return
        for region in data.regions:
            try:
                chip.sdram.free(region)
            except ValueError:  # pragma: no cover - already gone
                pass

    def _build_full(self, ctx: MappingContext) -> None:
        """Cold build, allocating in the canonical projection -> target
        -> source order (``tests/oracles.py`` pins the bytes and
        addresses); each chip's allocator sees its own blocks in that
        order, so one chip's run is one contiguous write."""
        for slot, data in ctx.core_data.items():
            self._free_core(ctx, slot, data)
        locations = ctx.placement.locations
        ctx.core_data = {slot: CoreSynapticData(vertex=vertex)
                         for vertex, slot in locations.items()}
        ctx.rebuilt_cores = set(ctx.core_data)
        runs: Dict[ChipCoordinate, List] = {}
        for source, target in ctx.pack_blocks():
            slot = locations[target]
            runs.setdefault(slot[0], []).append((ctx.core_data[slot], source))
        for chip_coordinate, run in runs.items():
            self._write(ctx, chip_coordinate, run)
        ctx.last_scope[self.name] = "full (%s)" % self._scope(
            ctx.core_data.values())

    def _build_incremental(self, ctx: MappingContext) -> None:
        locations = ctx.placement.locations
        # Retire stale cores: their vertex moved away (or vanished).
        for slot, data in list(ctx.core_data.items()):
            if locations.get(data.vertex) == slot:
                continue
            self._free_core(ctx, slot, data)
            del ctx.core_data[slot]
        # Rebuild the moved cores from the cached packed blocks.
        feeders = None
        rebuilt = []
        for vertex in ctx.placement.vertices:
            slot = locations[vertex]
            if slot in ctx.core_data:
                continue
            if feeders is None:
                feeders = ctx.feeders_of()
            data = ctx.core_data[slot] = CoreSynapticData(vertex=vertex)
            ctx.rebuilt_cores.add(slot)
            if vertex in feeders:
                self._write(ctx, slot[0], [(data, source)
                                           for source in feeders[vertex]])
            rebuilt.append(data)
        ctx.last_scope[self.name] = self._scope(rebuilt)

    @staticmethod
    def _scope(rebuilt) -> str:
        """``"<n> cores, <m> legs"``: the cores written and the legs
        (one per block) they were given by this run."""
        rebuilt = list(rebuilt)
        return "%d cores, %d legs" % (
            len(rebuilt), sum(len(data.legs) for data in rebuilt))

    @staticmethod
    def _write(ctx: MappingContext, chip_coordinate: ChipCoordinate,
               run: List[Tuple[CoreSynapticData, Vertex]]) -> None:
        """Write the cached blocks of ``run``'s ``(core data, source)``
        pairs, in order, with one SDRAM write on the chip."""
        write_blocks(ctx.machine.chips[chip_coordinate], [
            (data, ctx.keys.key_space(source), source,
             ctx.blocks[source, data.vertex], ctx.legs[source, data.vertex])
            for data, source in run])


class CompileTransportPass(MappingPass):
    """Compile per-key route programs for the transport fabric.

    Walks the *installed* (minimised) tables, so it must run after the
    compress pass; only the keys whose routes changed are re-walked.
    """

    name = "compile-transport"

    def signature(self, ctx: MappingContext) -> Tuple:
        return (ctx.routes_version, ctx.compile_transport)

    def run(self, ctx: MappingContext) -> None:
        if not ctx.compile_transport:
            ctx.route_programs.clear()
            ctx.routing_summary.programs_compiled = 0
            ctx.last_scope[self.name] = "disabled"
            return
        live = {record.key: record.source_chip
                for record in ctx.routes.values()}
        stale = set(ctx.dirty_keys)
        if not ctx.route_programs:
            stale |= set(live)
        for key in stale:
            source_chip = live.get(key)
            if source_chip is None:
                ctx.route_programs.pop(key, None)
            else:
                ctx.route_programs[key] = compile_route(ctx.machine,
                                                        source_chip, key)
        ctx.routing_summary.programs_compiled = len(ctx.route_programs)
        ctx.last_scope[self.name] = "%d programs" % len(stale)


class ShardByBoardPass(MappingPass):
    """Split the compiled artifacts into per-board sub-contexts.

    The cluster runner (:mod:`repro.cluster`) executes one engine shard
    per board; this pass gives each board everything it needs without
    the machine model in the loop: the board's cores (in canonical
    placement order, so results are independent of how shards are later
    spread over workers) and a :class:`BoardDeliveryIndex` over the
    delivery legs of every source key reaching the board.  Sticky keys
    are preserved — a vertex's AER base key *is* the address cross-board
    spike batches travel under, so the key spaces of
    :class:`~repro.mapping.keys.KeyAllocator` are used verbatim.  The
    legs are the destination cores' own
    (:attr:`~repro.mapping.synaptic_matrix.CoreSynapticData.legs`,
    decoded once by the synaptic-matrix pass from the words it wrote), so
    the shards' fixed-point arithmetic is identical to an unsharded
    on-machine run.

    Board contexts are kept across runs and only *dirty* boards are
    rebuilt: a board is dirty when it gained or lost a core (the old and
    new boards of every moved or removed vertex) or holds a core whose
    synaptic data the synaptic-matrix pass rebuilt.  A cold compile, a
    reach rebuild or a board-geometry change makes every board dirty.
    A clean board's index is unchanged: its cores and slots are the
    same, and the keys reaching it are sticky and arrive in source
    order.  The per-board-pair minimum delays are re-derived from every
    board's per-key minima, so a moved *source* re-homes its pairs and a
    pair left without a cross-board leg disappears.
    """

    name = "shard-by-board"

    def signature(self, ctx: MappingContext) -> Tuple:
        config = ctx.machine.config
        return (ctx.shard_by_board, config.board_width, config.board_height,
                ctx.placement_version, ctx.keys_version, ctx.routes_version,
                ctx.network_fp(), ctx.expansion_seed)

    def run(self, ctx: MappingContext) -> None:
        if not ctx.shard_by_board:
            ctx.board_contexts.clear()
            ctx.board_pair_min_delay.clear()
            ctx.last_scope[self.name] = "disabled"
            return
        config = ctx.machine.config
        geometry = (config.board_width, config.board_height)
        if ctx.reach_rebuilt or geometry != ctx.board_geometry:
            ctx.board_contexts.clear()
        ctx.board_geometry = geometry
        home = {vertex: config.board_of(chip)
                for vertex, (chip, _core) in ctx.placement.locations.items()}
        if ctx.board_contexts:
            changed = ctx.moved_vertices | ctx.removed_vertices
            dirty = {home[vertex] for vertex in ctx.moved_vertices}
            dirty |= {config.board_of(chip) for chip, _ in ctx.rebuilt_cores}
            dirty |= {board for board, context in ctx.board_contexts.items()
                      if any(core.vertex in changed for core in context.cores)}
        else:
            dirty = set(home.values())
        # Dropped before the rebuild: no board's arena is held twice.
        ctx.board_contexts = kept = {
            board: context for board, context in ctx.board_contexts.items()
            if board not in dirty}
        projecting = {projection.pre.label
                      for projection in ctx.network.projections}

        # The dirty boards' cores, in canonical placement order.
        rebuilt: Dict[int, BoardContext] = {}
        local_index: Dict[Tuple[ChipCoordinate, int], Tuple[int, int]] = {}
        for vertex, (chip, core_id) in ctx.placement.locations.items():
            board = home[vertex]
            if board not in dirty:
                continue
            context = rebuilt.setdefault(board, BoardContext(board=board))
            local_index[(chip, core_id)] = (board, len(context.cores))
            context.cores.append(ShardCore(
                chip=chip, core_id=core_id, vertex=vertex,
                base_key=ctx.keys.key_space(vertex).base_key,
                has_outgoing=vertex.population_label in projecting))

        # Their delivery legs, from the routing records (vertex order keeps
        # the per-key lists deterministic across re-maps and worker
        # counts).
        feeders = ctx.feeders_of()
        feeding = {source for context in rebuilt.values()
                   for core in context.cores
                   for source in feeders.get(core.vertex, ())}
        legs: Dict[int, Dict[int, List[Tuple[int, CSRMatrix]]]] = {
            board: {} for board in rebuilt}
        n_legs = 0
        for vertex in ctx.placement.vertices:
            record = ctx.routes.get(vertex) if vertex in feeding else None
            if record is None:
                continue
            for slot in record.target_slots.values():
                hit = local_index.get(slot)
                if hit is None:
                    continue
                # Every reach target was written a block for this key.
                leg = ctx.core_data[slot].legs.get(record.key)
                if leg is None:
                    raise RuntimeError(
                        "core %s holds no synaptic block for key 0x%08x"
                        % (slot, record.key))
                legs[hit[0]].setdefault(record.key, []).append(
                    (hit[1], leg))
                n_legs += 1
        for board, context in rebuilt.items():
            context.delivery_index = BoardDeliveryIndex.build(
                context.cores, legs[board])
        ctx.board_contexts = dict(sorted({**kept, **rebuilt}.items()))

        # Cross-board keys contribute their smallest synaptic delay to
        # the per-board-pair d_min — the lookahead budget the cluster
        # runner's exchange schedule is derived from.
        source_board = {record.key: home[vertex]
                        for vertex, record in ctx.routes.items()}
        pair_min: Dict[Tuple[int, int], int] = {}
        for board, context in ctx.board_contexts.items():
            for key, delay in context.delivery_index.min_delay.items():
                pair = (source_board[key], board)
                if pair[0] != board and delay < pair_min.get(pair, delay + 1):
                    pair_min[pair] = delay
        ctx.board_pair_min_delay = pair_min
        ctx.last_scope[self.name] = "%d/%d boards rebuilt, %d legs" % (
            len(rebuilt), len(ctx.board_contexts), n_legs)


#: The canonical pass order of the mapping compiler.
DEFAULT_PASSES = (
    PartitionPass,
    PlacePass,
    AllocateKeysPass,
    RoutePass,
    CompressPass,
    BuildSynapticMatricesPass,
    CompileTransportPass,
    ShardByBoardPass,
)
