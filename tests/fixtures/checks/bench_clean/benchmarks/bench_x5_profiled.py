"""Fixture: a profiling bench that surfaces its stage timings."""

from repro import profile

from .reporting import attach_profile, emit_json


def test_x5_profiled(cluster_factory):
    profile.enable()
    cluster = cluster_factory()
    cluster.run(100.0)
    metrics = {"wall_s": cluster.report.wall_s}
    attach_profile(metrics, cluster.registry)
    emit_json("x5", metrics)
