"""``python -m benchmarks.e2e run | compare | list`` and the driver entry.

``workload`` (what ``run.py`` forwards the driver's arguments to) measures
one workload in this process and prints one JSON object as the last line
of standard output.  ``run`` measures all six, each in a fresh
subprocess of ``workload`` — an untraced pass for the end-to-end metrics,
then a traced pass for the per-layer ones — and writes one result file
that ``compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.e2e import compare as compare_module
from benchmarks.e2e import metrics
from benchmarks.e2e.harness import (Context, Tracer, measure, now,
                                    provenance, summarise)

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
DEFAULT_SEED = 11
#: Timed seconds per workload pass at each scale (``BENCHMARK.json``'s
#: ``run_seconds`` is the bench figure).
DEFAULT_SECONDS = {"smoke": 0.0, "bench": 10.0, "full": 30.0}
#: A workload subprocess that outlives this is killed and counted failed.
CHILD_TIMEOUT_S = {"smoke": 120.0, "bench": 170.0, "full": 1800.0}


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def _end_to_end(name: str, ctx: Context) -> Dict[str, Dict[str, Any]]:
    """The named end-to-end metrics this workload reports."""
    out: Dict[str, Dict[str, Any]] = {}
    for metric, (unit, _better, series,
                 workloads) in metrics.END_TO_END.items():
        if name not in workloads:
            continue
        if metric == "failed_share":
            entry = {"value": ctx.failed / max(1, ctx.attempted), "n": 1}
        elif metric == "peak_rss_mb":
            entry = {"value": ctx.peak_rss_mb, "n": 1}
        elif ctx.samples.get(series):
            entry = summarise(ctx.samples[series])
        else:
            continue
        entry["unit"] = unit
        out[metric] = entry
    return out


def _contract(name: str, ctx: Context) -> Dict[str, Dict[str, Any]]:
    """The four driver-facing metrics, every one on every workload."""
    view = dict(metrics.CONTRACT_VIEW[name], setup_s=("setup_s", 1.0))
    out: Dict[str, Dict[str, Any]] = {}
    for metric, declared in metrics.CONTRACT.items():
        if metric == "peak_rss_mb":
            entry = {"value": ctx.peak_rss_mb, "n": 1}
        else:
            series, factor = view[metric]
            if not ctx.samples.get(series):
                continue
            entry = {key: value * factor if key != "n" else value
                     for key, value in summarise(ctx.samples[series]).items()}
        entry["unit"] = declared["unit"]
        out[metric] = entry
    return out


def _op_median(name: str, ctx: Context) -> float:
    series, factor = metrics.CONTRACT_VIEW[name]["op_s_p50"]
    samples = ctx.samples.get(series)
    return summarise(samples)["value"] * factor if samples else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str) -> Dict[str, Any]:
    """Measure one workload; returns its detail record."""
    # Imported here: the workloads import the program under test, which
    # `list` and `compare` must not need.
    began = now()
    from benchmarks.e2e.workloads import REGISTRY

    # Loading the program is set-up a user pays too: it is added to
    # every set-up sample so that work moved to import time shows.
    import_s = now() - began
    workload = REGISTRY[name](seed, scale)
    detail: Dict[str, Any] = {"workload": name, "trace": int(trace),
                              "seed": seed, "scale": scale,
                              "seconds": seconds}
    if not trace:
        # Several set-ups give ``setup_s`` a median; smoke only proves
        # the checks pass.
        ctx = measure(workload, seconds,
                      setups=1 if scale == "smoke" else workload.setups)
        ctx.samples["setup_s"] = [import_s + value
                                  for value in ctx.samples["setup_s"]]
        phases = [ctx]
        detail["end_to_end"] = _end_to_end(name, ctx)
        detail["contract"] = _contract(name, ctx)
    else:
        import repro.profile

        # Same process, two phases: untraced for the reference, then
        # with REPRO_PROFILE on (workers inherit it) and spans kept.
        untraced = measure(workload, seconds / 2.0)
        os.environ[repro.profile.ENV_FLAG] = "1"
        repro.profile.enable(True)
        ctx = measure(workload, seconds / 2.0, Tracer(True))
        phases = [untraced, ctx]
        metrics.trust_figures(ctx, _op_median(name, ctx),
                              _op_median(name, untraced))
        # Reading the layers' reports is the traced pass's own
        # operation: a figure this workload asked for and did not get
        # must not pass for "the layer did no work".
        ctx.attempted += 1
        ctx.check(not ctx.missing, "the program no longer reports: %s"
                  % ", ".join(sorted(set(ctx.missing))))
        detail["per_layer"] = dict(sorted(ctx.figures.items()))
        detail["missing"] = sorted(set(ctx.missing))
        detail["thin"] = sorted(set(ctx.thin))
        detail["layer_shares"] = metrics.layer_shares(ctx.tracer.spans)
        _write_trace(name, ctx)
    detail["attempted"] = max(1, sum(p.attempted for p in phases))
    detail["failed"] = sum(p.failed for p in phases)
    detail["errors"] = [e for p in phases for e in p.errors]
    detail["correct"] = detail["failed"] == 0
    detail["repeats"] = ctx.repeats
    detail["wall_s"] = now() - began
    return detail


def _write_trace(name: str, ctx: Context) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "trace_%s.json" % name)
    with open(path, "w") as handle:
        json.dump({"workload": name,
                   "spans": [span.as_dict(name)
                             for span in ctx.tracer.spans]}, handle)


def contract_line(detail: Dict[str, Any]) -> Dict[str, Any]:
    """The one JSON object the driver reads (last line of stdout)."""
    if detail["trace"]:
        figures = detail["per_layer"]
        # The driver wants every declared figure on every workload.  A
        # figure this workload did not ask for belongs to a layer off
        # its path, which did no work — 0; one it asked for and did not
        # get is in ``missing`` and has already failed the pass.
        values = {name: {"value": figures.get(name, 0.0),
                         "unit": declared["unit"]}
                  for name, declared in metrics.PER_LAYER.items()}
    else:
        values = {name: {"value": entry["value"], "unit": entry["unit"]}
                  for name, entry in detail["contract"].items()}
    return {"correct": detail["correct"], "attempted": detail["attempted"],
            "failed": detail["failed"], "metrics": values}


def _print_detail(detail: Dict[str, Any]) -> None:
    name = detail["workload"]
    for section in ("end_to_end", "contract", "per_layer"):
        for metric, entry in detail.get(section, {}).items():
            if section == "contract":
                metric = "driver:" + metric
            if isinstance(entry, dict):
                spread = ("  [q1 %.6g q3 %.6g n %d]"
                          % (entry["q1"], entry["q3"], entry["n"])
                          if "q1" in entry else "")
                value, unit = entry["value"], entry["unit"]
            else:
                value, unit, spread = entry, metrics.unit_of(metric), ""
            # Counts and digests keep every digit.
            shown = ("%d" % value if unit in ("count", "id", "bytes")
                     else "%.6g" % value)
            print("%-18s %-36s %s %s%s" % (name, metric, shown, unit,
                                           spread))
    for layer, share in detail.get("layer_shares", {}).items():
        print("%-18s share.%-30s %.4f share" % (name, layer, share))
    if detail.get("missing"):
        print("%-18s missing: %s" % (name, ", ".join(detail["missing"])))
    if detail.get("thin"):
        print("%-18s fewer than ten samples beyond: %s"
              % (name, ", ".join(detail["thin"])))
    for error in detail["errors"]:
        print("%-18s FAILED: %s" % (name, error.strip().splitlines()[-1]))


def cmd_workload(args: argparse.Namespace) -> int:
    detail = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.scale)
    if args.detail:
        with open(args.detail, "w") as handle:
            json.dump(detail, handle)
    _print_detail(detail)
    sys.stdout.flush()
    print(json.dumps(contract_line(detail)))
    return 0 if detail["correct"] else 1


# ----------------------------------------------------------------------
# All six, each in a fresh subprocess
# ----------------------------------------------------------------------
def _child(name: str, args: argparse.Namespace, trace: int) -> Dict[str, Any]:
    os.makedirs(OUT_DIR, exist_ok=True)
    detail_path = os.path.join(OUT_DIR, "detail_%s_%d.json" % (name, trace))
    if os.path.exists(detail_path):
        os.remove(detail_path)
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--scale", args.scale, "--detail", detail_path]
    environment = dict(os.environ)
    environment.pop("REPRO_PROFILE", None)
    reason = ""
    try:
        done = subprocess.run(command, env=environment, text=True,
                              capture_output=True,
                              timeout=CHILD_TIMEOUT_S[args.scale])
        if not os.path.exists(detail_path):
            reason = "exit %d: %s" % (done.returncode,
                                      done.stderr.strip()[-400:])
    except subprocess.TimeoutExpired:
        reason = "timed out after %.0f s" % CHILD_TIMEOUT_S[args.scale]
    if reason:
        # Nothing finished: every operation of the pass counts as failed.
        return {"workload": name, "trace": trace, "correct": False,
                "attempted": 1, "failed": 1, "errors": [reason],
                "wall_s": 0.0}
    with open(detail_path) as handle:
        return json.load(handle)


def _across_runs(passes: List[Dict[str, Any]],
                 section: str) -> Dict[str, Dict[str, Any]]:
    """One pass: its own medians and within-run quartiles.  Several
    passes: the median of their medians, with the quartiles and n of
    the *run-to-run* spread (``runs`` keeps every pass's median)."""
    if len(passes) == 1:
        return passes[0].get(section, {})
    merged: Dict[str, Dict[str, Any]] = {}
    for metric in passes[0].get(section, {}):
        values = [p[section][metric]["value"] for p in passes
                  if metric in p.get(section, {})]
        merged[metric] = dict(summarise(values), runs=values,
                              unit=passes[0][section][metric]["unit"])
    return merged


def cmd_run(args: argparse.Namespace) -> int:
    if args.seconds is None:
        args.seconds = DEFAULT_SECONDS[args.scale]
    names = args.workload or list(metrics.WORKLOADS)
    result: Dict[str, Any] = {"provenance": provenance(args.seed, args.scale),
                              "workloads": {}}
    result["provenance"].update(seconds=args.seconds, runs=args.runs)
    if args.scale != "bench":
        print("NOTE: scale %r numbers are not comparable with bench runs"
              % args.scale)
    # Rounds interleave the workloads, so slow drift of the host lands
    # on every workload alike instead of on whichever ran last.
    timed: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    for _ in range(args.runs):
        for name in names:
            timed[name].append(_child(name, args, 0))
    for name in names:
        traced = _child(name, args, 1)
        passes = timed[name] + [traced]
        record = {
            "correct": all(p["correct"] for p in passes),
            "attempted": sum(p["attempted"] for p in passes),
            "failed": sum(p["failed"] for p in passes),
            "errors": [error for p in passes for error in p["errors"]],
            "repeats": sum(p.get("repeats", 0) for p in timed[name]),
            "end_to_end": _across_runs(timed[name], "end_to_end"),
            "contract": _across_runs(timed[name], "contract"),
            "per_layer": traced.get("per_layer", {}),
            "missing": traced.get("missing", []),
            "thin": traced.get("thin", []),
            "layer_shares": traced.get("layer_shares", {}),
            "wall_s": sum(p["wall_s"] for p in passes),
        }
        if "failed_share" in record["end_to_end"]:
            record["end_to_end"]["failed_share"] = {
                "value": record["failed"] / max(1, record["attempted"]),
                "n": 1, "unit": "share"}
        result["workloads"][name] = record
        _print_detail(dict(record, workload=name))
        sys.stdout.flush()
    result["provenance"]["loadavg_1m_end"] = os.getloadavg()[0]
    out = args.out or os.path.join(OUT_DIR, "result.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    print("wrote %s" % out)
    bad = [name for name, record in result["workloads"].items()
           if not record["correct"]]
    if bad:
        print("FAILED checks on: %s" % ", ".join(bad))
    return 1 if bad else 0


# ----------------------------------------------------------------------
def cmd_list(_args: argparse.Namespace) -> int:
    print("workloads:")
    for workload in metrics.DECLARED["workloads"]:
        print("  %-18s %s" % (workload["name"], workload["why"]))
    print("end-to-end metrics (named):")
    for name, (unit, better, _series, workloads) in metrics.END_TO_END.items():
        where = "all" if len(workloads) == len(metrics.WORKLOADS) else (
            ", ".join(workloads))
        print("  %-20s %-6s %-6s on %s" % (name, unit, better, where))
    print("driver-facing metrics (BENCHMARK.json; bound = allowed "
          "worsening; what each carries per workload):")
    for name, entry in metrics.CONTRACT.items():
        print("  %-20s %-6s %-6s bound %.2f" % (
            name, entry["unit"], entry["better"], entry["bound"]))
        for workload, view in metrics.CONTRACT_VIEW.items():
            if name in view:
                print("    %-18s = %s x %g" % ((workload,) + view[name]))
    print("per-layer metrics (traced pass):")
    for name, entry in metrics.PER_LAYER.items():
        print("  %-36s %-6s %s" % (name, entry["unit"], entry["better"]))
    print("identity figures (compared exactly, no better or worse):")
    for name, unit in metrics.IDENTITY.items():
        print("  %-36s %s" % (name, unit))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    return compare_module.main(args.a, args.b)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e",
                                     description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="measure the workloads")
    run.add_argument("--workload", action="append",
                     choices=metrics.WORKLOADS)
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--scale", choices=sorted(DEFAULT_SECONDS),
                     default="bench")
    run.add_argument("--seconds", type=float, default=None)
    run.add_argument("--runs", type=int, default=1,
                     help="untraced passes per workload; with several, "
                          "quartiles are of the run-to-run spread")
    run.add_argument("--out", default=None)
    run.set_defaults(handler=cmd_run)

    one = commands.add_parser(
        "workload", help="one workload in this process (the driver entry)")
    one.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    one.add_argument("--seed", type=int, default=DEFAULT_SEED)
    one.add_argument("--seconds", type=float, default=DEFAULT_SECONDS["bench"])
    one.add_argument("--trace", type=int, choices=(0, 1), default=0)
    one.add_argument("--scale", choices=sorted(DEFAULT_SECONDS),
                     default="bench")
    one.add_argument("--detail", default=None)
    one.set_defaults(handler=cmd_workload)

    cmp_parser = commands.add_parser("compare", help="compare two results")
    cmp_parser.add_argument("a")
    cmp_parser.add_argument("b")
    cmp_parser.set_defaults(handler=cmd_compare)

    lister = commands.add_parser("list", help="workloads and metrics")
    lister.set_defaults(handler=cmd_list)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)
