"""``BENCHMARK.json`` against the contract and the package's tables, and
one smoke run of all six workloads whose checks must pass (numbers
non-comparable)."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from benchmarks.e2e import cli, metrics
from benchmarks.e2e.workloads import REGISTRY, SCALES

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))))
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def declared():
    return metrics.DECLARED


def test_benchmark_json_meets_the_contract(declared):
    assert sorted(declared) == ["command", "end_to_end", "paths",
                                "per_layer", "run_seconds", "workloads"]
    assert declared["paths"] == ["benchmarks/e2e"]
    assert declared["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert declared["run_seconds"] == int(cli.DEFAULT_SECONDS["bench"])
    assert all(sorted(w) == ["name", "why"] for w in declared["workloads"])
    assert all(sorted(m) == ["better", "bound", "name", "unit"]
               for m in declared["end_to_end"])
    assert all(sorted(m) == ["better", "name", "unit"]
               for m in declared["per_layer"])
    assert all(m["better"] in ("lower", "higher")
               for m in declared["end_to_end"] + declared["per_layer"])
    assert all(0.0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in declared["end_to_end"])


def test_every_declared_name_is_well_formed(declared):
    names = ([w["name"] for w in declared["workloads"]]
             + [m["name"] for m in declared["end_to_end"]]
             + [m["name"] for m in declared["per_layer"]]
             + list(metrics.END_TO_END))
    assert all(NAME_RE.match(name) for name in names), names
    for section in ("workloads", "end_to_end", "per_layer"):
        listed = [entry["name"] for entry in declared[section]]
        assert len(listed) == len(set(listed)), section
    units = ([m["unit"] for m in declared["end_to_end"]]
             + [m["unit"] for m in declared["per_layer"]]
             + [entry[0] for entry in metrics.END_TO_END.values()])
    assert all(UNIT_RE.match(unit) for unit in units), units
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in declared["workloads"])
    assert len(declared["per_layer"]) <= 128
    assert 2 <= len(declared["workloads"]) <= 8


def test_tables_are_consistent():
    assert set(REGISTRY) == set(metrics.WORKLOADS)
    assert set(metrics.CONTRACT_VIEW) == set(metrics.WORKLOADS)
    assert all(set(view) == set(metrics.CONTRACT) - {"setup_s", "peak_rss_mb"}
               for view in metrics.CONTRACT_VIEW.values())
    for scale in SCALES.values():
        assert set(scale) == set(metrics.WORKLOADS)
    # Identity figures have no direction, so the driver never sees them.
    assert not set(metrics.IDENTITY) & set(metrics.PER_LAYER)
    assert metrics.EXACT_COUNTS <= set(metrics.PER_LAYER) | set(
        metrics.IDENTITY)
    for _unit, _better, _series, where in metrics.END_TO_END.values():
        assert set(where) <= set(metrics.WORKLOADS)
    # Between them the four driver-facing metrics read every timed
    # named metric on the workload it is reported on.
    viewed = {(workload, series)
              for workload, view in metrics.CONTRACT_VIEW.items()
              for series, _factor in view.values()}
    for name, (_u, _b, series, where) in metrics.END_TO_END.items():
        if series in ("", "setup_s", "cold_compile_s"):
            continue          # own metric / read as cold_synapses_per_s
        assert all((workload, series) in viewed for workload in where), name


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "result.json"
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "run", "--scale", "smoke",
         "--seed", "5", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    with open(out) as handle:
        return done, json.load(handle)


def test_smoke_run_passes_every_check(smoke):
    done, result = smoke
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert "not comparable" in done.stdout
    assert set(result["workloads"]) == set(metrics.WORKLOADS)
    for name, record in result["workloads"].items():
        assert record["correct"] and record["failed"] == 0, (name, record)
        assert record["attempted"] >= 1
        assert record["end_to_end"]["failed_share"]["value"] == 0.0
    provenance = result["provenance"]
    for key in ("seed", "scale", "nproc", "loadavg_1m_start",
                "loadavg_1m_end", "python", "numpy", "git_head", "seconds"):
        assert key in provenance
    assert provenance["seed"] == 5 and provenance["scale"] == "smoke"


def test_smoke_run_emits_every_declared_metric(smoke, declared):
    _done, result = smoke
    wanted_contract = {m["name"] for m in declared["end_to_end"]}
    for name, record in result["workloads"].items():
        named = {metric for metric, entry in metrics.END_TO_END.items()
                 if name in entry[3]}
        assert set(record["end_to_end"]) == named, name
        assert set(record["contract"]) == wanted_contract, name
        assert all(entry["value"] > 0 for entry in record["contract"].values())
        assert set(record["per_layer"]) <= set(metrics.PER_LAYER) | set(
            metrics.IDENTITY), name
        assert "bench.unattributed_share" in record["per_layer"]
        assert "profile.trace_overhead_share" in record["per_layer"]
        assert record["layer_shares"], name
        # Every figure a workload asks for is given; only the tail
        # percentile may rest on too few samples in a smoke run.
        assert record["missing"] == [], name
        assert set(record["thin"]) <= {"service.ready_wait_ms_p99"}, name
    emitted = set().union(*(set(record["per_layer"])
                            for record in result["workloads"].values()))
    assert emitted == set(metrics.PER_LAYER) | set(metrics.IDENTITY)


def test_simulating_workloads_are_not_degenerate(smoke):
    _done, result = smoke
    for name in ("job_e2e", "run_dense", "run_sparse_pooled"):
        figures = result["workloads"][name]["per_layer"]
        assert figures["cluster.cross_board_spikes"] > 0, name
        assert figures["cluster.exchanged_batches"] > 0, name


def test_driver_line_carries_exactly_the_declared_metrics(smoke, declared):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        path = os.path.join(cli.OUT_DIR, "detail_service_churn_%d.json" % trace)
        with open(path) as handle:
            line = cli.contract_line(json.load(handle))
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert set(line["metrics"]) == {m["name"] for m in declared[key]}
        assert all(set(entry) == {"value", "unit"}
                   for entry in line["metrics"].values())


def test_layers_that_do_nothing_report_nothing(smoke):
    _done, result = smoke
    churn = result["workloads"]["service_churn"]["per_layer"]
    assert not any(name.startswith(("cluster.", "compile.", "neuron."))
                   for name in churn)
    dense = result["workloads"]["run_dense"]
    assert not any(name.startswith("service.") for name in dense["per_layer"])
    assert dense["layer_shares"].get("cluster", 0.0) > 0.5
    assert result["workloads"]["service_churn"]["layer_shares"][
        "service"] > 0.5


def test_a_figure_asked_for_and_not_given_fails_the_traced_pass(monkeypatch):
    from benchmarks.e2e import workloads

    monkeypatch.setattr(workloads, "CHURN_FIGURES", dict(
        workloads.CHURN_FIGURES,
        **{"service.keepalive_ms_p50": ("renamed_away", 50.0, 1000.0)}))
    monkeypatch.setattr(cli, "_write_trace", lambda name, ctx: None)
    # The traced pass switches profiling on for its process: undo both.
    import repro.profile

    monkeypatch.delenv(repro.profile.ENV_FLAG, raising=False)
    try:
        detail = cli.run_workload("service_churn", 5, 0.0, True, "smoke")
    finally:
        repro.profile.enable(False)
    assert detail["missing"] == ["service.keepalive_ms_p50"]
    assert not detail["correct"] and detail["failed"] == 1
    assert "service.create_ms_p50" in detail["per_layer"]   # the rest stays
    line = cli.contract_line(detail)
    assert line["correct"] is False
    assert line["metrics"]["service.keepalive_ms_p50"]["value"] == 0.0


def _adopted_orphans():
    """Children of this process that it never started (reaps them)."""
    orphans = []
    while True:
        try:
            pid, _status = os.waitpid(-1, 0)
        except ChildProcessError:
            return orphans
        orphans.append(pid)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="needs prctl(PR_SET_CHILD_SUBREAPER)")
def test_driver_entry_leaves_no_process_behind():
    # A pooled run makes multiprocessing start its resource tracker,
    # which outlives the workload process by some milliseconds.  As a
    # subreaper this process adopts (and so sees, even once it has
    # exited) whatever a run leaves behind.
    import ctypes

    from benchmarks.e2e.run import PR_SET_CHILD_SUBREAPER

    prctl = ctypes.CDLL(None).prctl
    environment = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT]))
    arguments = ["--workload", "job_e2e", "--seed", "5", "--seconds", "0",
                 "--trace", "0", "--scale", "smoke"]
    prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    try:
        # Without run.py the tracker is left behind: the probe works.
        subprocess.run([sys.executable, "-m", "benchmarks.e2e", "workload"]
                       + arguments, env=environment, capture_output=True,
                       timeout=120)
        assert len(_adopted_orphans()) == 1
        done = subprocess.run(
            [sys.executable, os.path.join(cli.HERE, "run.py")] + arguments,
            capture_output=True, text=True, timeout=120)
        assert _adopted_orphans() == []
    finally:
        prctl(PR_SET_CHILD_SUBREAPER, 0, 0, 0, 0)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True
