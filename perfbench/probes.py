"""Where the traced run puts its spans, and how spans become layer metrics.

Every probe wraps one public function or method of a program module
(``data``, ``recsys``, ``nn``, ``attack``, ``serving``).  A function that
another module imported by name is wrapped at that import site too, so a
call through either name lands in the same span.  The span name starts
with the layer, which is how the per-layer table groups time.

:data:`LAYER_METRICS` turns the span summary into the named per-layer
metrics of ``BENCHMARK.json``.  Times are *self* times (a span's duration
minus its children's), so the layer times plus the unattributed
remainder add up to the traced wall time.
"""

from __future__ import annotations

import importlib
from typing import Callable

from perfbench.tracing import Tracer

__all__ = ["install", "LAYER_METRICS", "layer_metrics", "metric_units", "SERVING_RECORD_METRICS"]


def _resolve(path: str):
    module, _, attr = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, attr) if attr else owner


#: (owner "module[:Class]", attribute, span name, units counter or None).
PROBES: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("repro.data.synthetic", "generate_cross_domain", "data.generate", None),
    ("repro.experiments.runner", "generate_cross_domain", "data.generate", None),
    ("repro.recsys.training", "train_target_model", "recsys.train_target_model", None),
    ("repro.experiments.runner", "train_target_model", "recsys.train_target_model", None),
    ("repro.recsys.pinsage:PinSageRecommender", "fit", "recsys.pinsage_fit", None),
    ("repro.recsys.pinsage:PinSageRecommender", "refresh_full", "recsys.refresh_full", None),
    ("repro.recsys.metrics", "evaluate_candidate_lists", "recsys.evaluate_candidate_lists", None),
    ("repro.recsys.training", "evaluate_candidate_lists", "recsys.evaluate_candidate_lists", None),
    ("repro.recsys.pinsage:PinSageRecommender", "add_user", "recsys.add_user", None),
    ("repro.recsys.pinsage:PinSageRecommender", "restore", "recsys.restore", None),
    ("repro.recsys.mf:MatrixFactorization", "fit", "recsys.mf_fit", None),
    ("repro.recsys.base:Recommender", "top_k_batch", "recsys.top_k_batch", lambda self, users, *a, **k: len(users)),
    ("repro.experiments.runner", "evaluate_promotion", "recsys.evaluate_promotion", None),
    ("repro.nn.tensor:Tensor", "backward", "nn.backward", None),
    ("repro.nn.optim:Adam", "step", "nn.optimizer", None),
    ("repro.experiments.runner", "create_pretend_users", "attack.pretend_users", None),
    ("repro.attack.tree.hierarchy:HierarchicalClusterTree", "from_depth", "attack.tree_build", None),
    ("repro.attack.copyattack:CopyAttackAgent", "attack", "attack.run", None),
    ("repro.attack.copyattack:CopyAttackAgent", "rollout", "attack.episode", None),
    ("repro.attack.policies.state:PolicyStateEncoder", "encode", "attack.encode", None),
    ("repro.attack.policies.hierarchical:HierarchicalTreePolicy", "select", "attack.select", None),
    ("repro.attack.policies.crafting_policy:CraftingPolicy", "select", "attack.craft", None),
    ("repro.attack.copyattack", "clip_profile", "attack.craft", None),
    ("repro.attack.reinforce:ReinforceTrainer", "update", "attack.update", None),
    ("repro.attack.environment:AttackEnvironment", "step", "attack.env_step", None),
    ("repro.recsys.blackbox:BlackBoxRecommender", "query", "attack.query", lambda self, users, *a, **k: len(users)),
    ("repro.serving.service:RecommendationService", "inject", "serving.inject", None),
    ("repro.serving.service:RecommendationService", "query", "serving.query", None),
    ("repro.serving.service:RecommendationService", "restore", "serving.restore", None),
    ("repro.serving.service", "resolve_slice", "serving.resolve_slice", None),
    ("repro.serving.replica", "resolve_slice", "serving.resolve_slice", None),
    ("repro.serving.cache:TopKCache", "lookup_batch", "serving.cache", None),
    ("repro.serving.cache:TopKCache", "store_batch", "serving.cache", None),
)

#: The per-request root of the async front's work; its request id comes
#: from the caller (see :func:`install`).
QUERY_ASYNC = ("repro.serving.sharded:ShardedRecommendationService", "query_async", "serving.query_async")


def install(tracer: Tracer, rid_of_users: Callable[[object], int | None] | None = None) -> None:
    """Wrap every probe; ``rid_of_users`` maps a request's user array to its id.

    Every owner is imported before the first wrapper goes in: a module
    imported later would bind an already wrapped function by name, and
    its own wrapper would then nest a second span inside the first.
    """
    owners = [_resolve(owner) for owner, *_ in PROBES]
    for owner, (_, attr, name, units_of) in zip(owners, PROBES):
        tracer.patch(owner, attr, name, units_of=units_of)
    owner, attr, name = QUERY_ASYNC
    rid_of = None
    if rid_of_users is not None:
        rid_of = lambda self, users, *a, **k: rid_of_users(users)  # noqa: E731
    tracer.patch(_resolve(owner), attr, name, rid_of=rid_of)


# Per-layer metric -> (what, span names, unit).  ``what`` is "self",
# "calls", "units", or "errors:<ExceptionName>".
LAYER_METRICS: dict[str, tuple[str, tuple[str, ...], str]] = {
    "data.generate_s": ("self", ("data.generate",), "s"),
    "recsys.pinsage_fit_self_s": ("self", ("recsys.pinsage_fit",), "s"),
    "recsys.pinsage_validate_s": (
        "self",
        ("recsys.refresh_full", "recsys.evaluate_candidate_lists"),
        "s",
    ),
    "recsys.train_target_model_self_s": ("self", ("recsys.train_target_model",), "s"),
    "nn.backward_s": ("self", ("nn.backward",), "s"),
    "nn.backward_calls": ("calls", ("nn.backward",), "count"),
    "nn.optimizer_s": ("self", ("nn.optimizer",), "s"),
    "recsys.mf_fit_s": ("self", ("recsys.mf_fit",), "s"),
    "attack.tree_build_s": ("self", ("attack.tree_build",), "s"),
    "attack.encode_s": ("self", ("attack.encode",), "s"),
    "attack.select_s": ("self", ("attack.select",), "s"),
    "attack.select_retries": ("errors:MaskedTreeError", ("attack.select",), "count"),
    "attack.craft_s": ("self", ("attack.craft",), "s"),
    "attack.update_s": ("self", ("attack.update",), "s"),
    "attack.env_step_s": ("self", ("attack.env_step",), "s"),
    "attack.episodes": ("calls", ("attack.episode",), "count"),
    "attack.steps": ("calls", ("attack.env_step",), "count"),
    "attack.queries": ("calls", ("attack.query",), "count"),
    "attack.users_queried": ("units", ("attack.query",), "count"),
    "attack.throttled_queries": ("errors:RateLimitExceededError", ("attack.query",), "count"),
    "serving.inject_s": ("self", ("serving.inject",), "s"),
    "serving.inject_calls": ("calls", ("serving.inject",), "count"),
    "serving.query_s": ("self", ("serving.query",), "s"),
    "serving.query_calls": ("calls", ("serving.query",), "count"),
    "serving.restore_s": ("self", ("serving.restore",), "s"),
    "serving.restore_calls": ("calls", ("serving.restore",), "count"),
    "serving.query_async_s": ("self", ("serving.query_async",), "s"),
    "serving.cache_s": ("self", ("serving.cache",), "s"),
    "recsys.add_user_s": ("self", ("recsys.add_user",), "s"),
    "recsys.restore_s": ("self", ("recsys.restore",), "s"),
    "recsys.top_k_batch_s": ("self", ("recsys.top_k_batch",), "s"),
    "recsys.top_k_batch_users": ("units", ("recsys.top_k_batch",), "count"),
}

#: Per-layer metrics the serving workload reads off the front's tickets
#: and the cache counters of its plain (untraced) unit, not from spans;
#: 0 on the other workloads.  Latency runs from each request's due time.
SERVING_RECORD_METRICS: dict[str, str] = {
    "serving.latency_p50_ms": "ms",
    "serving.latency_p95_ms": "ms",
    "serving.latency_p99_ms": "ms",
    "serving.queue_wait_p50_ms": "ms",
    "serving.queue_wait_p99_ms": "ms",
    "serving.service_p50_ms": "ms",
    "serving.service_p99_ms": "ms",
    "serving.generator_late_p99_ms": "ms",
    "serving.cache_hit_ratio": "ratio",
    "serving.sent": "count",
    "serving.ok": "count",
    "serving.shed": "count",
    "serving.timed_out": "count",
    "serving.failed": "count",
}

#: Whole-run trace figures.
TRACE_METRICS: dict[str, str] = {
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(summary: dict[str, dict]) -> dict[str, float]:
    """Evaluate :data:`LAYER_METRICS` on a :func:`~perfbench.tracing.summarize` result."""
    out: dict[str, float] = {}
    for metric, (what, names, _unit) in LAYER_METRICS.items():
        total = 0.0
        for name in names:
            row = summary.get(name)
            if row is None:
                continue
            if what == "self":
                total += row["self_s"]
            elif what == "calls":
                total += row["calls"]
            elif what == "units":
                total += row["units"]
            else:
                total += row["errors"].get(what.partition(":")[2], 0)
        out[metric] = total
    return out


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in table order."""
    units = {metric: unit for metric, (_w, _n, unit) in LAYER_METRICS.items()}
    units.update(SERVING_RECORD_METRICS)
    units.update(TRACE_METRICS)
    return units
