"""Canonical experiment configurations.

Two cross-domain pairs mirror the paper's Table 1 setups at a scale that
runs on one CPU core (documented substitution — see DESIGN.md §2):

* :data:`ML10M_FX` — a moderate target domain with a ~2x larger source
  domain (MovieLens-10M + Flixster analogue); tree depth 3 per the paper;
* :data:`ML20M_NF` — a larger target domain with a much larger source
  domain (MovieLens-20M + Netflix analogue); the bigger action space is
  why the paper uses tree depth 6 here and why the flat PolicyNetwork
  baseline timed out for the authors.

:data:`SMALL` is a seconds-scale configuration for tests and examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.data.synthetic import SyntheticConfig
from repro.errors import ConfigurationError
from repro.serving import QuotaPolicy, ServingConfig
from repro.utils.rng import DEFAULT_SEED

__all__ = [
    "ExperimentConfig",
    "ML10M_FX",
    "ML20M_NF",
    "SMALL",
    "SMALL_STALE",
    "SHARDS_BURST",
    "scaled_copy",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one dataset-pair's experiments.

    Attack-protocol values follow Section 5.1.3 of the paper: budget of 30
    profiles, queries after every 3 injections, 50 pretend users, target
    items sampled among items with few target-domain interactions, metrics
    at K in {20, 10, 5} against 100 sampled negatives.  ``reward_k`` is
    scaled to our smaller catalog so reward sparsity is comparable.
    """

    name: str
    synthetic: SyntheticConfig
    seed: int = DEFAULT_SEED
    # attack protocol (paper Section 5.1.3)
    budget: int = 30
    query_interval: int = 3
    n_pretend_users: int = 50
    pretend_profile_length: int = 10
    reward_k: int = 50
    n_target_items: int = 8
    max_target_interactions: int = 8
    min_source_supporters: int = 8
    # evaluation protocol (paper Section 5.1.2)
    n_negatives: int = 100
    eval_ks: tuple[int, ...] = (20, 10, 5)
    # agent
    tree_depth: int = 3
    n_episodes: int = 40
    agent_lr: float = 0.01
    hidden_dim: int = 16
    gamma: float = 0.6
    # target model
    pinsage_kwargs: dict = field(
        default_factory=lambda: {"n_factors": 16, "lr": 0.02, "n_epochs": 150, "patience": 20}
    )
    # MF pre-training for the source embeddings
    mf_kwargs: dict = field(default_factory=lambda: {"n_factors": 8, "n_epochs": 40})
    # Serving posture the platform runs with (None = transparent: no cache,
    # no rate limits — the seed behaviour).  Attacks always route through
    # the ShardedRecommendationService either way.
    serving: ServingConfig | None = None
    # Deployment shape: how many shards the service partitions users
    # over (hash or consistent routing, per-shard caches/limiters,
    # cross-shard invalidation bus).  Parity tests pin served lists to
    # be identical at every shard count, so every attack scenario runs
    # unchanged against any of them.
    n_shards: int = 1
    shard_routing: str = "hash"  # "hash" | "consistent"
    # Organic contention: name of a repro.serving.workload model replayed
    # as background queries between attack steps (None = quiet platform,
    # the seed behaviour).  See BackgroundTraffic.
    background_workload: str | None = None

    def __post_init__(self) -> None:
        if self.n_negatives >= self.synthetic.n_target_items:
            raise ConfigurationError(
                "n_negatives must be below the target catalog size "
                f"({self.n_negatives} vs {self.synthetic.n_target_items})"
            )
        if self.n_target_items < 1:
            raise ConfigurationError("n_target_items must be at least 1")
        if self.n_shards < 1:
            raise ConfigurationError("n_shards must be at least 1")
        if self.shard_routing not in ("hash", "consistent"):
            raise ConfigurationError("shard_routing must be 'hash' or 'consistent'")


#: MovieLens-10M + Flixster analogue (depth-3 tree, ~2x source users).
ML10M_FX = ExperimentConfig(
    name="ml10m_fx",
    synthetic=SyntheticConfig(
        n_universe_items=400,
        n_target_items=250,
        n_source_items=280,
        n_overlap_items=200,
        n_target_users=300,
        n_source_users=600,
        target_profile_mean=26.0,
        source_profile_mean=32.0,
        softmax_temperature=0.55,
        popularity_weight=0.35,
        popularity_exponent=0.8,
        rating_keep_probability_scale=4.0,
        interest_drift=0.2,
        align_by_year=False,  # the paper aligns ML10M-Flixster by name only
        name="ml10m_fx",
    ),
    tree_depth=3,
)

#: MovieLens-20M + Netflix analogue (deeper tree over a much larger source).
ML20M_NF = ExperimentConfig(
    name="ml20m_nf",
    synthetic=SyntheticConfig(
        n_universe_items=450,
        n_target_items=280,
        n_source_items=320,
        n_overlap_items=220,
        n_target_users=340,
        n_source_users=1400,
        target_profile_mean=26.0,
        source_profile_mean=40.0,
        softmax_temperature=0.55,
        popularity_weight=0.35,
        popularity_exponent=0.8,
        rating_keep_probability_scale=4.0,
        interest_drift=0.2,
        align_by_year=True,  # ML20M-Netflix aligns by name AND year
        name="ml20m_nf",
    ),
    tree_depth=6,
)

#: Seconds-scale configuration for unit/integration tests and examples.
SMALL = ExperimentConfig(
    name="small",
    synthetic=SyntheticConfig(
        n_universe_items=160,
        n_target_items=120,
        n_source_items=130,
        n_overlap_items=100,
        n_target_users=120,
        n_source_users=220,
        target_profile_mean=16.0,
        source_profile_mean=20.0,
        softmax_temperature=0.55,
        popularity_weight=0.35,
        popularity_exponent=0.8,
        rating_keep_probability_scale=4.0,
        interest_drift=0.2,
        name="small",
    ),
    n_negatives=60,
    reward_k=25,
    n_pretend_users=20,
    n_target_items=3,
    n_episodes=8,
    min_source_supporters=5,
    max_target_interactions=8,
    pinsage_kwargs={"n_factors": 16, "lr": 0.02, "n_epochs": 40, "patience": 10},
    mf_kwargs={"n_factors": 8, "n_epochs": 15},
)


#: SMALL with a production serving posture: the platform caches top-k
#: results with a 3-injection staleness horizon (the attacker's query
#: feedback lags their own injections) and throttles the attacker client
#: (bounded cohorts, a per-episode injection quota well above the attack
#: budget so episodes stay feasible).  The scenario axis of interest is
#: delayed feedback; the quota demonstrates attacks running under limits.
SMALL_STALE = replace(
    SMALL,
    name="small_stale",
    serving=ServingConfig(
        cache_capacity=2048,
        ttl_injections=3,
        client_policies=(
            ("attacker", QuotaPolicy(max_users_per_query=64, max_total_injections=4096)),
        ),
    ),
)


#: SMALL on a sharded deployment under bursty organic load: four worker
#: shards (consistent-hash routing so resharding would keep caches warm),
#: per-shard caches with a 2-injection staleness horizon, a throttled
#: attacker, and a "diurnal_bursty" background workload querying between
#: attack steps.  The scenario axes this opens: attacker-vs-organic
#: contention under bursts (organic load re-warms per-shard caches right
#: after the attacker's injections invalidate them, so which shards hold
#: fresh entries when a query round lands depends on the burst phase —
#: note the staleness *clock* itself stays in lockstep across shards via
#: the invalidation bus, which is what parity requires), and the
#: shard-count throughput scaling reported by ``repro-bench serve``.
SHARDS_BURST = replace(
    SMALL,
    name="shards_burst",
    n_shards=4,
    shard_routing="consistent",
    background_workload="diurnal_bursty",
    serving=ServingConfig(
        cache_capacity=2048,
        ttl_injections=2,
        client_policies=(
            ("attacker", QuotaPolicy(max_users_per_query=64, max_total_injections=4096)),
        ),
    ),
)


def scaled_copy(config: ExperimentConfig, **overrides) -> ExperimentConfig:
    """A copy of ``config`` with field overrides (benchmark knob helper)."""
    return replace(config, **overrides)
