"""The pass pipeline driver (:class:`MappingPipeline`).

Runs the ordered mapping passes over one :class:`MappingContext`,
skipping passes whose input signatures are unchanged (per-pass artifact
caching) and re-running the rest — which themselves confine the work to
the vertices a change touched (incremental re-map).  The pipeline keeps
per-pass timing and cache statistics for the ``spinnaker-repro compile
report`` subcommand and the E18 benchmark.

Two entry points:

* :meth:`run` — compile, or re-compile after an external change (a chip
  condemnation, a lease shrink): fingerprints decide what re-runs.
* :meth:`remap_moves` — apply an explicit set of vertex moves (the
  functional-migration path, which pins its own spare-core choices) and
  re-run everything downstream of placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.compile.context import MappingContext
from repro.compile.passes import DEFAULT_PASSES, MappingPass
from repro.mapping.placement import Vertex
from repro.neuron.network import Network
from repro.profile import ProfileRegistry

__all__ = ["PassRecord", "MappingPipeline"]

#: "expansion_seed not provided" sentinel — distinct from an explicit
#: ``None``, which means an unseeded expansion shared with the host
#: simulator's unseeded cache entry.
_UNSET = object()


@dataclass
class PassRecord:
    """Bookkeeping of one pass across the pipeline's lifetime."""

    runs: int = 0
    cache_hits: int = 0
    total_s: float = 0.0
    last_s: float = 0.0
    signature: Optional[Tuple] = None
    last_scope: str = "-"

    @property
    def invocations(self) -> int:
        """Times the pipeline considered the pass (runs + cache hits)."""
        return self.runs + self.cache_hits

    @property
    def hit_rate(self) -> float:
        """Fraction of invocations answered from the cache."""
        if self.invocations == 0:
            return 0.0
        return self.cache_hits / self.invocations


class MappingPipeline:
    """The ordered, cached pass pipeline over one machine + network."""

    def __init__(self, machine, network: Network, *,
                 seed: Optional[int],
                 expansion_seed=_UNSET,
                 max_neurons_per_core: int = 256,
                 placement_strategy: str = "locality",
                 broadcast_routing: bool = False,
                 compile_transport: bool = False,
                 shard_by_board: bool = False,
                 minimise: bool = True) -> None:
        self.ctx = MappingContext(
            machine=machine, network=network, seed=seed,
            expansion_seed=(seed if expansion_seed is _UNSET
                            else expansion_seed),
            max_neurons_per_core=max_neurons_per_core,
            placement_strategy=placement_strategy,
            broadcast_routing=broadcast_routing,
            compile_transport=compile_transport,
            shard_by_board=shard_by_board,
            minimise=minimise)
        self.passes: List[MappingPass] = [cls() for cls in DEFAULT_PASSES]
        self.records: Dict[str, PassRecord] = {
            p.name: PassRecord() for p in self.passes}
        # Always-enabled: PassRecord timings and the compile report need
        # per-pass seconds regardless of REPRO_PROFILE.  Passes nest
        # under one "pass_total" stage, so flatten() yields both
        # profile_pass_total_s and a profile_<pass>_s per pass.
        self.profile = ProfileRegistry(enabled=True)
        self._pass_total_stage = self.profile.stage("pass_total")
        self._pass_stages = {p.name: self.profile.stage(p.name)
                             for p in self.passes}

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> MappingContext:
        """Compile (or incrementally re-compile) the mapping artifacts."""
        self.ctx.begin_run()
        self._execute(0)
        return self.ctx

    def remap_moves(self,
                    moves: Dict[Vertex, Tuple] ) -> MappingContext:
        """Re-map after explicitly moving ``moves`` vertices.

        Used by the functional-migration path, which picks its own spare
        cores (preferring the failing vertex's own chip) rather than
        re-running the placer.  Only the passes downstream of placement
        run, and only over the moved vertices' trees and cores.

        A later :meth:`run` that sees the machine fingerprint change
        (more faults, a lease shrink) re-places from scratch, superseding
        these pinned choices.
        """
        ctx = self.ctx
        if ctx.placement is None:
            raise RuntimeError("cannot remap moves before the first compile")
        ctx.begin_run()
        for vertex, slot in moves.items():
            ctx.placement.locations[vertex] = slot
        ctx.moved_vertices = set(moves)
        if moves:
            ctx.placement_version += 1
        self._execute(self._index_of("allocate-keys"))
        return ctx

    # ------------------------------------------------------------------
    def _index_of(self, name: str) -> int:
        for index, p in enumerate(self.passes):
            if p.name == name:
                return index
        raise KeyError(name)

    def _execute(self, start: int) -> None:
        with self._pass_total_stage:
            for p in self.passes[start:]:
                record = self.records[p.name]
                signature = p.signature(self.ctx)
                if record.runs and record.signature == signature:
                    record.cache_hits += 1
                    record.last_scope = "cached"
                    continue
                with self._pass_stages[p.name] as frame:
                    p.run(self.ctx)
                elapsed = frame.elapsed_s
                record.runs += 1
                record.signature = signature
                record.last_s = elapsed
                record.total_s += elapsed
                record.last_scope = self.ctx.last_scope.get(p.name, "full")

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> List[Dict[str, object]]:
        """Per-pass timing and cache statistics, in pass order."""
        rows = []
        for p in self.passes:
            record = self.records[p.name]
            rows.append({
                "pass": p.name,
                "runs": record.runs,
                "cache_hits": record.cache_hits,
                "hit_rate": record.hit_rate,
                "last_scope": record.last_scope,
                "last_ms": record.last_s * 1000.0,
                "total_ms": record.total_s * 1000.0,
            })
        return rows

    def summary(self) -> Dict[str, float]:
        """Headline artifact counts of the current compilation."""
        ctx = self.ctx
        return {
            "vertices": len(ctx.placement.locations) if ctx.placement else 0,
            "multicast_trees": ctx.routing_summary.multicast_trees,
            "entries_installed": ctx.routing_summary.entries_installed,
            "entries_after_minimisation":
                ctx.routing_summary.entries_after_minimisation,
            "route_programs": len(ctx.route_programs),
            "cores_configured": len(ctx.core_data),
            "total_compile_ms": sum(record.total_s
                                    for record in self.records.values())
                                * 1000.0,
        }
