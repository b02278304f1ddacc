"""Rule ``determinism`` — every random draw is seeded and seam-routed.

The reproduction's equivalence gates (bit-identical spike trains across
engines, transports and worker counts) only hold because every random
number is derived from the run's seed through one of four sanctioned
seams in :mod:`repro.neuron.population`:

* :func:`~repro.neuron.population.core_rng` — per-core machine streams,
* :func:`~repro.neuron.population.expansion_rng` and ``tile_rng`` —
  connectivity expansion (a projection's root key, its tile streams),
* :func:`~repro.neuron.population.simulation_rng` — the host
  simulator / workload stream.

This rule therefore flags, everywhere in the tree:

* module-level calls into the *hidden global* RNGs
  (``random.random()``, ``np.random.rand()``, ``np.random.seed()``, …),
* ``random.Random()`` constructed without a seed,
* ``np.random.default_rng()`` constructed without a seed,

and, inside ``src/repro`` (the shipped packages), *any* direct
``np.random.default_rng(...)`` construction outside the seam module —
a seeded-but-private stream still decorrelates silently from the seams
the equivalence tests pin.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from repro.checks.asthelpers import ImportMap, call_has_argument
from repro.checks.framework import (CheckContext, Checker, Violation,
                                    register)

#: ``random.<fn>`` functions that draw from the module-global state.
GLOBAL_RANDOM_FUNCS = frozenset({
    "random", "seed", "randint", "randrange", "randbytes", "getrandbits",
    "choice", "choices", "shuffle", "sample", "uniform", "triangular",
    "betavariate", "expovariate", "gammavariate", "gauss",
    "lognormvariate", "normalvariate", "vonmisesvariate", "paretovariate",
    "weibullvariate", "binomialvariate",
})

#: The only ``numpy.random`` attributes that are not the legacy global
#: RNG surface: explicit generator/bit-generator construction.
NUMPY_ALLOWED = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64",
})

#: The one module allowed to call ``default_rng`` directly: the seams.
SEAM_MODULE_SUFFIX = "repro/neuron/population.py"


def _in_shipped_packages(ctx: CheckContext) -> bool:
    path = ctx.posix_path
    return "src/repro/" in path or path.startswith("repro/")


@register
class DeterminismChecker(Checker):
    name = "determinism"
    description = ("no hidden-global or unseeded RNGs; in src/repro, "
                   "generators come only from the core_rng/expansion_rng/"
                   "tile_rng/simulation_rng seams")

    def check_file(self, ctx: CheckContext) -> Iterable[Violation]:
        imports = ImportMap(ctx.tree)
        out: List[Violation] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = imports.resolve(node.func)
            if dotted is None:
                continue
            parts = dotted.split(".")
            if dotted == "random.Random" and not call_has_argument(node):
                out.append(ctx.violation(
                    self.name, node,
                    "`random.Random()` without a seed is nondeterministic "
                    "— pass the run's seed"))
            elif (len(parts) == 2 and parts[0] == "random"
                    and parts[1] in GLOBAL_RANDOM_FUNCS):
                out.append(ctx.violation(
                    self.name, node,
                    "`%s()` draws from the hidden module-global RNG — "
                    "construct a seeded generator instead" % dotted))
            elif len(parts) >= 3 and parts[0:2] == ["numpy", "random"]:
                if parts[2] not in NUMPY_ALLOWED:
                    out.append(ctx.violation(
                        self.name, node,
                        "`%s()` uses numpy's hidden global RNG — "
                        "construct a generator via the sanctioned seams"
                        % dotted))
                elif parts[2] == "default_rng":
                    out.extend(self._check_default_rng(ctx, node))
        return out

    def _check_default_rng(self, ctx: CheckContext,
                           node: ast.Call) -> Iterable[Violation]:
        if ctx.posix_path.endswith(SEAM_MODULE_SUFFIX):
            # The seam module itself is the audited boundary: its
            # seed-is-None fallbacks are the one sanctioned opt-out.
            return
        if _in_shipped_packages(ctx):
            yield ctx.violation(
                self.name, node,
                "direct `np.random.default_rng(...)` in shipped code — "
                "route through core_rng/expansion_rng/tile_rng/"
                "simulation_rng (repro.neuron.population) so streams "
                "stay pinned to the run's seed")
        elif not call_has_argument(node):
            yield ctx.violation(
                self.name, node,
                "`np.random.default_rng()` without a seed is "
                "nondeterministic — pass a seed")
