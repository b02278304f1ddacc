"""The engine of the ``repro.checks`` static-analysis pass.

``repro.checks`` is a zero-dependency, stdlib-``ast`` linter for the
*project-specific* invariants the test suite can only catch when a test
happens to exercise the violation: determinism (seeded, seam-routed
RNGs), clock discipline (one wall-clock seam), lock discipline
(``# guarded-by:`` annotations), API-surface consistency and benchmark
reporting hygiene.  Generic lint (unused imports, undefined names) stays
with ruff; this pass encodes the rules of *this* codebase.

The engine walks the requested paths, parses every ``*.py`` file once,
and hands the syntax trees to the registered checkers (see
:func:`register`).  Two checker shapes exist:

* **file checkers** look at one file at a time (determinism, clocks,
  locks);
* **project checkers** see the whole scanned file set at once and can
  read sibling non-Python artifacts — the API table versus the server
  routes, benchmark baselines versus the regression gate (api-surface,
  bench-hygiene).

Suppressions are explicit and always carry a written reason::

    # checks: disable=clock-discipline -- tests drive the service from
    #   the wall-clock side, like a real client

A suppression comment on a line of its own disables the named rules for
the whole file; a trailing comment disables them for that line only.  A
suppression *without* a reason (or naming an unknown rule) is itself a
violation (``bad-suppression``) and cannot be suppressed.
"""

from __future__ import annotations

import ast
import json
import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Violation", "CheckContext", "Project", "Checker", "register",
    "registered_checkers", "run_paths", "render_human", "render_report",
    "iter_python_files", "RULE_BAD_SUPPRESSION", "RULE_PARSE_ERROR",
]

#: Meta rules raised by the engine itself; never suppressible.
RULE_BAD_SUPPRESSION = "bad-suppression"
RULE_PARSE_ERROR = "parse-error"

#: Directory names never descended into when a directory is scanned.
#: ``fixtures`` holds deliberately-violating snippets the checker tests
#: feed to the engine one file at a time — scanning them would fail the
#: gate by design.  Explicit file paths bypass this filter.
SKIP_DIR_NAMES = frozenset(
    {"__pycache__", "fixtures", ".git", "build", "dist", ".venv"})

_SUPPRESSION_RE = re.compile(
    r"#\s*checks:\s*disable=([A-Za-z0-9_\-, ]*?)\s*(?:--\s*(.*))?$")


@dataclass(frozen=True)
class Violation:
    """One finding: a rule broken at a line of a file."""

    rule: str
    path: str
    line: int
    message: str
    source: str = ""

    def key(self) -> Tuple[str, str, int, str]:
        return (self.path, self.rule, self.line, self.message)


@dataclass
class _Suppression:
    """One parsed ``# checks: disable=...`` comment."""

    line: int
    rules: Tuple[str, ...]
    reason: str
    file_level: bool


class CheckContext:
    """One parsed Python file, as seen by the file checkers."""

    def __init__(self, path: str, source: str,
                 tree: Optional[ast.Module]) -> None:
        #: Path as given on the command line (kept relative for output).
        self.path = path
        #: Forward-slash form used for all location-based rule scoping,
        #: so rules behave identically on Windows runners and fixtures.
        self.posix_path = path.replace(os.sep, "/")
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.suppressions: List[_Suppression] = []

    def source_line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def violation(self, rule: str, node, message: str) -> Violation:
        """Build a violation anchored at ``node`` (or a line number)."""
        line = node if isinstance(node, int) else getattr(node, "lineno", 0)
        return Violation(rule=rule, path=self.path, line=line,
                         message=message, source=self.source_line(line))

    # -- suppression bookkeeping ------------------------------------------
    def parse_suppressions(self, known_rules: Iterable[str]
                           ) -> List[Violation]:
        """Collect suppression comments; malformed ones are violations."""
        problems: List[Violation] = []
        known = set(known_rules)
        for lineno, text in enumerate(self.lines, start=1):
            match = _SUPPRESSION_RE.search(text)
            if match is None:
                continue
            rules = tuple(name.strip() for name in match.group(1).split(",")
                          if name.strip())
            reason = (match.group(2) or "").strip()
            file_level = text.lstrip().startswith("#")
            if not rules:
                problems.append(self.violation(
                    RULE_BAD_SUPPRESSION, lineno,
                    "suppression names no rule "
                    "(use `# checks: disable=<rule> -- <reason>`)"))
                continue
            unknown = [name for name in rules if name not in known]
            if unknown:
                problems.append(self.violation(
                    RULE_BAD_SUPPRESSION, lineno,
                    "suppression names unknown rule(s): %s"
                    % ", ".join(sorted(unknown))))
            if not reason:
                problems.append(self.violation(
                    RULE_BAD_SUPPRESSION, lineno,
                    "suppression without a reason — write "
                    "`# checks: disable=%s -- <why this is safe>`"
                    % ",".join(rules)))
                continue
            self.suppressions.append(_Suppression(
                line=lineno, rules=rules, reason=reason,
                file_level=file_level))
        return problems

    def is_suppressed(self, violation: Violation) -> bool:
        for suppression in self.suppressions:
            if violation.rule not in suppression.rules:
                continue
            if suppression.file_level or suppression.line == violation.line:
                return True
        return False


@dataclass
class Project:
    """The whole scanned file set, as seen by the project checkers."""

    files: List[CheckContext] = field(default_factory=list)

    def matching(self, pattern: str) -> List[CheckContext]:
        """Scanned files whose posix path matches ``pattern`` (regex)."""
        compiled = re.compile(pattern)
        return [ctx for ctx in self.files
                if compiled.search(ctx.posix_path)]


class Checker:
    """Base class: subclass, set ``name``/``description``, register.

    Implement :meth:`check_file` for per-file rules or
    :meth:`check_project` for whole-tree rules (or both).
    """

    name: str = ""
    description: str = ""

    def check_file(self, ctx: CheckContext) -> Iterable[Violation]:
        return ()

    def check_project(self, project: Project) -> Iterable[Violation]:
        return ()


_REGISTRY: Dict[str, Checker] = {}


def register(cls):
    """Class decorator adding a checker to the global registry."""
    checker = cls()
    if not checker.name:
        raise ValueError("checker %r has no name" % cls.__name__)
    if checker.name in _REGISTRY:
        raise ValueError("duplicate checker name %r" % checker.name)
    _REGISTRY[checker.name] = checker
    return cls


def registered_checkers() -> Dict[str, Checker]:
    """Name → checker instance, importing the built-in rules first."""
    # Imported lazily so the framework itself has no import-time cycle
    # with the checker modules (which import `register` from here).
    from repro.checks import rules  # noqa: F401  (import registers)
    return dict(_REGISTRY)


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------
def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``*.py`` paths."""
    found: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            found.append(path)
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                name for name in dirnames
                if name not in SKIP_DIR_NAMES and not name.startswith("."))
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    found.append(os.path.join(dirpath, filename))
    return found


def run_paths(paths: Sequence[str]) -> Tuple[List[Violation], int]:
    """Run every registered checker; returns ``(violations, n_files)``."""
    checkers = registered_checkers()
    known_rules = list(checkers) + [RULE_BAD_SUPPRESSION, RULE_PARSE_ERROR]
    project = Project()
    violations: List[Violation] = []
    for path in iter_python_files(paths):
        try:
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
        except OSError as error:
            violations.append(Violation(
                RULE_PARSE_ERROR, path, 0, "unreadable: %s" % error))
            continue
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as error:
            ctx = CheckContext(path, source, None)
            violations.append(ctx.violation(
                RULE_PARSE_ERROR, error.lineno or 0,
                "syntax error: %s" % error.msg))
            project.files.append(ctx)
            continue
        ctx = CheckContext(path, source, tree)
        violations.extend(ctx.parse_suppressions(known_rules))
        project.files.append(ctx)

    by_path = {ctx.path: ctx for ctx in project.files}
    candidates: List[Violation] = []
    for checker in checkers.values():
        for ctx in project.files:
            if ctx.tree is not None:
                candidates.extend(checker.check_file(ctx))
        candidates.extend(checker.check_project(project))

    for violation in candidates:
        ctx = by_path.get(violation.path)
        if ctx is not None and ctx.is_suppressed(violation):
            continue
        violations.append(violation)
    violations.sort(key=Violation.key)
    return violations, len(project.files)


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------
def render_human(violations: List[Violation], n_files: int) -> str:
    """Diff-style human output: location, rule, message, offending line."""
    lines: List[str] = []
    for violation in violations:
        lines.append("%s:%d: [%s] %s" % (violation.path, violation.line,
                                         violation.rule, violation.message))
        if violation.source:
            lines.append("  > %s" % violation.source)
    n_rules = len(registered_checkers())
    if violations:
        lines.append("")
        lines.append("checks: %d violation(s) in %d file(s) "
                     "(%d files scanned, %d rules)"
                     % (len(violations),
                        len({v.path for v in violations}),
                        n_files, n_rules))
    else:
        lines.append("checks: OK (%d files scanned, %d rules)"
                     % (n_files, n_rules))
    return "\n".join(lines)


def render_report(violations: List[Violation], n_files: int) -> Dict:
    """Machine-readable report (the ``report --json`` artifact).

    ``counts_by_rule`` carries an entry for *every* registered rule —
    zeroes included — so the weekly sweep can trend per-rule counts
    without special-casing absent keys.
    """
    counts = {name: 0 for name in registered_checkers()}
    counts[RULE_BAD_SUPPRESSION] = 0
    counts[RULE_PARSE_ERROR] = 0
    for violation in violations:
        counts[violation.rule] = counts.get(violation.rule, 0) + 1
    return {
        "tool": "repro.checks",
        "files_scanned": n_files,
        "violation_total": len(violations),
        "counts_by_rule": counts,
        "violations": [
            {"rule": v.rule, "path": v.path, "line": v.line,
             "message": v.message, "source": v.source}
            for v in violations
        ],
    }


def write_report(path: str, report: Dict) -> None:
    """Write the JSON report atomically (mirrors ``reporting.emit_json``)."""
    staging = path + ".tmp"
    with open(staging, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(staging, path)
