"""Hierarchical stage profiler — the one timing substrate.

See :mod:`repro.profile.registry` for the design notes.  Quick tour::

    from repro.profile import profile_stage, enable, flatten

    _TICK = profile_stage("tick")          # hoist out of the loop

    enable()                               # or REPRO_PROFILE=1
    for _ in range(ticks):
        with _TICK:
            step()

    metrics.update(flatten())              # profile_tick_s, ...

Disabled (the default), every stage entry is a single flag check.
"""

from repro.profile.registry import (  # noqa: F401
    ENV_FLAG,
    ProfileRegistry,
    StageRecord,
    enable,
    enabled,
    flatten,
    get_registry,
    perf_now,
    profile_stage,
    record_stage,
    reset,
    sanitise,
)

__all__ = [
    "ENV_FLAG",
    "ProfileRegistry",
    "StageRecord",
    "enable",
    "enabled",
    "flatten",
    "get_registry",
    "perf_now",
    "profile_stage",
    "record_stage",
    "reset",
    "sanitise",
]
