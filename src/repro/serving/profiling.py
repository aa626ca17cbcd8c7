"""Hot-path profiling: per-stage wall-clock timers and cProfile capture.

Much of a request's measured wall clock is coordinator overhead —
per-request Python work between "request arrives" and "model scores" —
so reducing it needs attribution finer than one wall-clock number.  This
module provides the two views the ``repro-bench profile`` subcommand
reports side by side:

* :class:`StageTimers` — cheap accumulators for the hot-path stages
  (``queue``, ``admission``, ``routing``, ``cache``, ``scoring``,
  ``merge``).  A service exposes a ``profiler`` attribute (``None`` by
  default: the query path pays a single attribute check per stage when
  profiling is off); attach a :class:`StageTimers` and every request
  adds per-stage seconds.  Works with the in-memory engines only —
  stage timers cannot cross the process boundary, and under the
  threaded engine concurrent workers *sum* their stage seconds, so
  totals are cumulative busy time, not elapsed wall clock.
* :func:`profile_callable` — cProfile around a callable, returning the
  top functions by total time as plain dicts (JSON-friendly, so the
  CLI can dump them next to the stage table).
"""

from __future__ import annotations

import cProfile
import pstats
import threading
from typing import Callable

__all__ = ["STAGES", "StageTimers", "profile_callable", "top_functions"]

#: Hot-path stages in request order.  ``queue`` is admission-queue wait
#: at the async front (arrival → service start; zero everywhere else),
#: ``admission`` rate-limit admission, ``routing`` the shard grouping,
#: ``cache`` batched lookup + store,
#: ``scoring`` the model's ``top_k_batch``, ``merge`` the scatter back
#: into request order.
STAGES = ("queue", "admission", "routing", "cache", "scoring", "merge")


class StageTimers:
    """Thread-safe per-stage time/call/user accumulators.

    ``add`` is called from whichever thread resolved the stage (the
    threaded engine's shard workers included), so the counters are
    guarded by a lock; the lock is taken once per stage sample, not per
    user, keeping instrumentation overhead per request bounded.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.seconds: dict[str, float] = {stage: 0.0 for stage in STAGES}  # guarded-by: _lock
        self.calls: dict[str, int] = {stage: 0 for stage in STAGES}  # guarded-by: _lock
        self.users: dict[str, int] = {stage: 0 for stage in STAGES}  # guarded-by: _lock

    def add(self, stage: str, seconds: float, n_users: int = 0) -> None:
        """Record one timed stage sample covering ``n_users`` users."""
        with self._lock:
            self.seconds[stage] += seconds
            self.calls[stage] += 1
            self.users[stage] += n_users

    def reset(self) -> None:
        with self._lock:
            for stage in STAGES:
                self.seconds[stage] = 0.0
                self.calls[stage] = 0
                self.users[stage] = 0

    def summary(self, n_users_served: int | None = None) -> dict:
        """JSON-friendly stage table.

        ``share`` is each stage's fraction of the total *instrumented*
        time (the un-instrumented remainder — request bookkeeping, the
        engine fan-out machinery — is whatever the caller's wall clock
        shows above this total).  With ``n_users_served``, per-stage
        ``ns_per_user`` normalises by the replay's served users.
        """
        with self._lock:
            seconds = dict(self.seconds)
            calls = dict(self.calls)
            users = dict(self.users)
        total = sum(seconds.values())
        stages: dict[str, dict[str, float]] = {}
        for stage in STAGES:
            entry: dict[str, float] = {
                "total_s": seconds[stage],
                "calls": float(calls[stage]),
                "n_users": float(users[stage]),
                "share": seconds[stage] / total if total > 0 else 0.0,
            }
            if n_users_served:
                entry["ns_per_user"] = seconds[stage] / n_users_served * 1e9
            stages[stage] = entry
        return {"total_stage_s": total, "stages": stages}


def top_functions(stats: pstats.Stats, top: int = 12) -> list[dict]:
    """The ``top`` rows of a profile by total (self) time, as dicts."""
    rows = []
    for (filename, line, name), entry in stats.stats.items():  # type: ignore[attr-defined]
        cc, ncalls, tottime, cumtime, _callers = entry
        rows.append(
            {
                "function": f"{filename}:{line}({name})",
                "ncalls": int(ncalls),
                "tottime_s": float(tottime),
                "cumtime_s": float(cumtime),
            }
        )
    rows.sort(key=lambda row: row["tottime_s"], reverse=True)
    return rows[:top]


def profile_callable(fn: Callable[[], object], top: int = 12) -> tuple[object, list[dict]]:
    """Run ``fn`` under cProfile; return ``(result, top-function rows)``."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    return result, top_functions(pstats.Stats(profiler), top=top)
