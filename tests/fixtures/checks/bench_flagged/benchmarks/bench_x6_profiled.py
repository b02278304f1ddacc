"""Fixture: a bench that pays for profiling but hides the timings."""

from repro import profile

from .reporting import emit_json


def test_x6_profiled(cluster_factory):
    profile.enable()
    cluster = cluster_factory()
    cluster.run(100.0)
    emit_json("x6", {"wall_s": cluster.report.wall_s})
