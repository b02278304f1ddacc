"""Rule ``bench-hygiene`` — every benchmark reports, every gate has a
baseline to gate against.

The perf-regression gate (``benchmarks/check_regression.py``) and the
weekly trend artifact only see what the benchmarks *emit*: a bench that
prints a table but never calls ``reporting.emit_json`` is invisible to
both, so a regression in it lands silently.  This rule flags:

* a ``benchmarks/bench_<id>_*.py`` file with no ``emit_json`` call;
* an ``emit_json`` whose literal bench id disagrees with the filename
  (the JSON would land under the wrong ``BENCH_<id>.json`` and the
  gate would report the real bench as MISSING);
* a speedup assertion (``assert <something>speedup<something> >= ...``)
  whose measured ratio is recorded under no metric key anywhere in the
  module — the bench would hard-fail below the threshold but the
  *measured* value would be invisible to the regression gate and the
  trend artifact, so slow erosion towards the threshold lands silently;
* a bench that *enables profiling* (a call to ``repro.profile.enable``)
  but records no ``profile_*`` metric key and never calls
  ``reporting.attach_profile`` — the stage timings it paid to collect
  would be invisible to the regression gate and the trend artifact;
* a gated key in ``check_regression.py``'s ``KEY_METRICS`` whose
  checked-in baseline JSON is absent or lacks that metric — the gate
  would silently skip it, which reads as "protected" when it is not.
"""

from __future__ import annotations

import ast
import json
import os
import re
from typing import Iterable, List, Optional

from repro.checks.asthelpers import ImportMap
from repro.checks.framework import (CheckContext, Checker, Project,
                                    Violation, register)

BENCH_FILE_RE = re.compile(r"(^|/)benchmarks/bench_([a-z0-9]+)_[^/]*\.py$")

#: Resolved calls that switch the stage profiler on.
PROFILE_ENABLE_CALLS = frozenset({
    "repro.profile.enable", "repro.profile.registry.enable",
})


def _emit_json_calls(tree: ast.Module) -> List[ast.Call]:
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name == "emit_json":
            calls.append(node)
    return calls


@register
class BenchHygieneChecker(Checker):
    name = "bench-hygiene"
    description = ("every bench_*.py emits via reporting.emit_json under "
                   "its filename id; every gated baseline key exists")

    def check_project(self, project: Project) -> Iterable[Violation]:
        out: List[Violation] = []
        for ctx in project.files:
            match = BENCH_FILE_RE.search(ctx.posix_path)
            if match and ctx.tree is not None:
                out.extend(self._check_bench(ctx, match.group(2)))
        for ctx in project.matching(r"benchmarks/check_regression\.py$"):
            if ctx.tree is not None:
                out.extend(self._check_gate(ctx))
        return out

    def _check_bench(self, ctx: CheckContext,
                     bench_id: str) -> Iterable[Violation]:
        calls = _emit_json_calls(ctx.tree)
        if not calls:
            yield ctx.violation(
                self.name, 1,
                "benchmark emits no machine-readable results — call "
                "reporting.emit_json(%r, {...}) so the regression gate "
                "and the weekly trend artifact can see it" % bench_id)
            return
        for call in calls:
            literal = self._literal_first_arg(call)
            if literal is not None and literal != bench_id:
                yield ctx.violation(
                    self.name, call,
                    "emit_json bench id %r disagrees with the filename "
                    "id %r — the JSON would land under the wrong "
                    "BENCH_<id>.json" % (literal, bench_id))
        yield from self._check_speedup_asserts(ctx)
        yield from self._check_profile_emission(ctx)

    def _check_profile_emission(self, ctx: CheckContext) -> Iterable[Violation]:
        """A bench that enables profiling must surface the stage timings.

        Enabling is a resolved ``repro.profile.enable`` call.  Surfacing
        is a string dict key starting with ``profile_`` anywhere in the
        module, or a ``reporting.attach_profile`` call (which injects
        those keys wholesale).
        """
        imports = ImportMap(ctx.tree)
        enabler = None
        emits = False
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                func = node.func
                attr = (func.attr if isinstance(func, ast.Attribute)
                        else func.id if isinstance(func, ast.Name) else None)
                if attr == "attach_profile":
                    emits = True
                dotted = imports.resolve(func)
                if dotted in PROFILE_ENABLE_CALLS:
                    enabler = enabler or node
            elif isinstance(node, ast.Dict):
                for key in node.keys:
                    if (isinstance(key, ast.Constant)
                            and isinstance(key.value, str)
                            and key.value.startswith("profile_")):
                        emits = True
        if enabler is not None and not emits:
            yield ctx.violation(
                self.name, enabler,
                "enables profiling but emits no profile_* metric key — "
                "pass the stage timings through reporting.attach_profile "
                "(or record profile_* keys) so the regression gate and "
                "the trend artifact see what was measured")

    def _check_speedup_asserts(self, ctx: CheckContext) -> Iterable[Violation]:
        """A bench gating on a speedup must also *record* it.

        The metrics dict is often built in a variable before the
        ``emit_json`` call, so every string dict key in the module
        counts as recorded; the assert's measured name and a key relate
        when either contains the other (e.g. an ``assert speedup >= N``
        recorded under ``"remap_speedup"``).
        """
        keys = {key.value.lower()
                for node in ast.walk(ctx.tree)
                if isinstance(node, ast.Dict)
                for key in node.keys
                if isinstance(key, ast.Constant)
                and isinstance(key.value, str)}
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Assert):
                continue
            test = node.test
            if not isinstance(test, ast.Compare) or len(test.ops) != 1:
                continue
            op = test.ops[0]
            if isinstance(op, (ast.Gt, ast.GtE)):
                measured = test.left
            elif isinstance(op, (ast.Lt, ast.LtE)):
                measured = test.comparators[0]
            else:
                continue
            name = self._terminal_name(measured)
            if name is None or "speedup" not in name.lower():
                continue
            lowered = name.lower()
            if not any(lowered in key or key in lowered for key in keys):
                yield ctx.violation(
                    self.name, node,
                    "asserts the speedup gate %r but records no related "
                    "metric key — put the measured ratio in the emitted "
                    "JSON so the regression gate tracks what this assert "
                    "protects" % (name,))

    @staticmethod
    def _terminal_name(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        return None

    @staticmethod
    def _literal_first_arg(call: ast.Call) -> Optional[str]:
        if (call.args and isinstance(call.args[0], ast.Constant)
                and isinstance(call.args[0].value, str)):
            return call.args[0].value
        return None

    # ------------------------------------------------------------------
    def _check_gate(self, ctx: CheckContext) -> Iterable[Violation]:
        key_metrics = None
        for node in ctx.tree.body:
            if isinstance(node, ast.AnnAssign):
                targets = [node.target]
                value = node.value
            elif isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            else:
                continue
            for target in targets:
                if (isinstance(target, ast.Name)
                        and target.id == "KEY_METRICS"):
                    key_metrics = (node, value)
        if key_metrics is None or not isinstance(key_metrics[1], ast.Dict):
            return
        node, table = key_metrics
        baseline_dir = os.path.join(os.path.dirname(ctx.path), "baselines")
        for key_node, value_node in zip(table.keys, table.values):
            if not (isinstance(key_node, ast.Constant)
                    and isinstance(key_node.value, str)):
                continue
            bench_id = key_node.value
            gated = self._gated_names(value_node)
            baseline_path = os.path.join(baseline_dir,
                                         "BENCH_%s.json" % bench_id)
            if not os.path.exists(baseline_path):
                yield ctx.violation(
                    self.name, key_node,
                    "KEY_METRICS gates bench %r but no baseline "
                    "%s is checked in — the gate silently skips it"
                    % (bench_id, os.path.basename(baseline_path)))
                continue
            try:
                with open(baseline_path, encoding="utf-8") as handle:
                    metrics = json.load(handle).get("metrics", {})
            except (OSError, ValueError) as error:
                yield ctx.violation(
                    self.name, key_node,
                    "baseline %s is unreadable: %s"
                    % (os.path.basename(baseline_path), error))
                continue
            for name in gated:
                if name not in metrics:
                    yield ctx.violation(
                        self.name, key_node,
                        "KEY_METRICS gates %r of bench %r but the "
                        "checked-in baseline has no such key — the "
                        "gate silently skips it" % (name, bench_id))

    @staticmethod
    def _gated_names(value_node: ast.AST) -> List[str]:
        names = []
        for node in ast.walk(value_node):
            if isinstance(node, ast.Call) and node.args:
                first = node.args[0]
                if (isinstance(first, ast.Constant)
                        and isinstance(first.value, str)):
                    names.append(first.value)
        return names
