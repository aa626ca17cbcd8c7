"""End-to-end experiment runner.

``prepare_experiment`` builds everything the paper's Section 5.1 sets up:
the cross-domain pair, the trained PinSage target model behind its
black-box interface, the MF source embeddings, the pretend users, and the
sampled cold target items.  ``run_method`` then executes one named attack
method over the target items and reports the paper's metrics (averaged
HR@K / NDCG@K against fixed 100-negative candidate lists, plus the mean
injected-profile length of Table 2's last column).

Method names accepted by :func:`run_method` (Section 5.1.4):

``WithoutAttack``, ``RandomAttack``, ``TargetAttack40``, ``TargetAttack70``,
``TargetAttack100``, ``PolicyNetwork``, ``CopyAttack-Masking``,
``CopyAttack-Length``, ``CopyAttack``, plus the shilling attacks used by
the defense extension (``RandomShilling``, ``AverageShilling``,
``BandwagonShilling``).
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.attack.baselines import RandomAttack, ShillingAttack, TargetAttack
from repro.attack.copyattack import CopyAttackAgent, CopyAttackConfig
from repro.attack.environment import AttackEnvironment, EpisodeTrace
from repro.attack.pretend_users import create_pretend_users
from repro.data.cross_domain import CrossDomainDataset
from repro.data.synthetic import generate_cross_domain
from repro.data.targets import sample_target_items
from repro.errors import ConfigurationError
from repro.experiments.configs import ExperimentConfig
from repro.recsys.blackbox import BlackBoxRecommender
from repro.recsys.mf import MatrixFactorization
from repro.recsys.promotion import evaluate_promotion, promotion_candidates
from repro.recsys.training import TrainedTarget, train_target_model
from repro.serving import BackgroundTraffic, ShardedRecommendationService
from repro.utils.logging import get_logger
from repro.utils.rng import make_rng, spawn

__all__ = [
    "PreparedExperiment",
    "MethodOutcome",
    "prepare_experiment",
    "run_method",
    "METHOD_NAMES",
]

_LOG = get_logger("experiments.runner")

METHOD_NAMES = (
    "WithoutAttack",
    "RandomAttack",
    "TargetAttack40",
    "TargetAttack70",
    "TargetAttack100",
    "PolicyNetwork",
    "CopyAttack-Masking",
    "CopyAttack-Length",
    "CopyAttack",
)


@dataclass
class PreparedExperiment:
    """All fitted artifacts for one dataset pair."""

    config: ExperimentConfig
    cross: CrossDomainDataset
    trained: TrainedTarget
    mf: MatrixFactorization
    blackbox: BlackBoxRecommender
    pretend_user_ids: list[int]
    eval_users: list[int]
    target_items: np.ndarray
    _seed_root: np.random.Generator = field(repr=False, default=None)

    @property
    def model(self):
        return self.trained.model


@dataclass
class MethodOutcome:
    """Aggregated attack results for one method over all target items."""

    method: str
    metrics: dict[str, float]
    mean_profile_length: float
    per_item: dict[int, dict[str, float]] = field(default_factory=dict)
    episode_histories: list[list[float]] = field(default_factory=list)
    wall_time: float = 0.0


def prepare_experiment(
    config: ExperimentConfig,
    seed: int | np.random.Generator | None = None,
) -> PreparedExperiment:
    """Generate data, train the target model, and stage the attack setting."""
    rng = make_rng(config.seed if seed is None else seed)
    data_rng, model_rng, mf_rng, pretend_rng, target_rng, seed_root = spawn(rng, 6)

    cross = generate_cross_domain(config.synthetic, data_rng)
    trained = train_target_model(
        cross.target,
        seed=model_rng,
        n_negatives=config.n_negatives,
        **config.pinsage_kwargs,
    )
    mf = MatrixFactorization(seed=mf_rng, **config.mf_kwargs).fit(cross.source)

    serving = config.serving
    detector = None
    if serving is not None and serving.detector_mode != "off":
        from repro.defense.detector import ShillingDetector

        detector = ShillingDetector().fit(trained.train_dataset)
    service = ShardedRecommendationService(
        trained.model,
        n_shards=config.n_shards,
        config=serving,
        detector=detector,
        routing=config.shard_routing,
    )
    blackbox = BlackBoxRecommender(trained.model, service=service)
    eval_users = list(range(trained.train_dataset.n_users))
    pretend_ids = create_pretend_users(
        blackbox,
        trained.train_dataset.popularity(),
        n_users=config.n_pretend_users,
        profile_length=config.pretend_profile_length,
        seed=pretend_rng,
    )
    # Target coldness is judged on the system's training data (its worldview).
    system_view = CrossDomainDataset(
        target=trained.train_dataset,
        source=cross.source,
        overlap_items=cross.overlap_items,
        name=cross.name,
    )
    target_items = sample_target_items(
        system_view,
        n=config.n_target_items,
        max_target_interactions=config.max_target_interactions,
        min_source_supporters=config.min_source_supporters,
        seed=target_rng,
    )
    _LOG.info(
        "%s prepared: test HR@10=%.4f, %d target items",
        config.name,
        trained.test_metrics["hr@10"],
        target_items.size,
    )
    return PreparedExperiment(
        config=config,
        cross=cross,
        trained=trained,
        mf=mf,
        blackbox=blackbox,
        pretend_user_ids=pretend_ids,
        eval_users=eval_users,
        target_items=target_items,
        _seed_root=seed_root,
    )


def _agent_config(
    prep: PreparedExperiment,
    method: str,
    tree_depth: int | None,
    n_episodes: int | None,
) -> CopyAttackConfig:
    cfg = prep.config
    return CopyAttackConfig(
        tree_depth=tree_depth if tree_depth is not None else cfg.tree_depth,
        hidden_dim=cfg.hidden_dim,
        lr=cfg.agent_lr,
        gamma=cfg.gamma,
        n_episodes=n_episodes if n_episodes is not None else cfg.n_episodes,
        use_masking=method != "CopyAttack-Masking",
        use_crafting=method not in ("CopyAttack-Masking", "CopyAttack-Length"),
        policy="flat" if method == "PolicyNetwork" else "tree",
    )


def _make_attacker(
    prep: PreparedExperiment,
    method: str,
    seed,
    tree_depth: int | None,
    n_episodes: int | None,
):
    """Instantiate the attacker object for ``method`` (None = no attack)."""
    source = prep.cross.source
    if method == "WithoutAttack":
        return None
    if method == "RandomAttack":
        return RandomAttack(source, seed=seed)
    if method.startswith("TargetAttack"):
        fraction = int(method.removeprefix("TargetAttack")) / 100.0
        return TargetAttack(source, fraction, seed=seed)
    if method.endswith("Shilling"):
        strategy = method.removesuffix("Shilling").lower()
        return ShillingAttack(
            prep.trained.train_dataset.popularity(), strategy=strategy, seed=seed
        )
    if method in ("PolicyNetwork", "CopyAttack-Masking", "CopyAttack-Length", "CopyAttack"):
        return CopyAttackAgent(
            source,
            prep.mf.user_factors,
            prep.mf.item_factors,
            _agent_config(prep, method, tree_depth, n_episodes),
            seed=seed,
        )
    raise ConfigurationError(f"unknown method {method!r}; options: {METHOD_NAMES}")


def run_method(
    prep: PreparedExperiment,
    method: str,
    target_items: np.ndarray | None = None,
    budget: int | None = None,
    tree_depth: int | None = None,
    n_episodes: int | None = None,
) -> MethodOutcome:
    """Run ``method`` against every target item and average the metrics.

    The same per-item candidate lists (seeded from the experiment root)
    are used for the before/after evaluations of every method, so method
    comparisons are free of negative-sampling noise.
    """
    cfg = prep.config
    items = prep.target_items if target_items is None else np.asarray(target_items)
    budget = cfg.budget if budget is None else budget
    outcome = MethodOutcome(method=method, metrics={}, mean_profile_length=0.0)
    sums: dict[str, float] = {}
    lengths: list[float] = []
    start = time.perf_counter()
    for item in items:
        item = int(item)
        # Independent but reproducible seeds per (method, item).
        cand_seed = _derive_seed(prep, f"cands-{item}")
        method_seed = _derive_seed(prep, f"{method}-{item}")
        background = None
        if cfg.background_workload is not None:
            # One seeded organic stream per (method, item): contention is
            # reproducible but independent across runs.
            background = BackgroundTraffic(
                workload=cfg.background_workload, seed=method_seed
            )
        env = AttackEnvironment(
            prep.blackbox,
            item,
            prep.pretend_user_ids,
            budget=budget,
            query_interval=cfg.query_interval,
            reward_k=cfg.reward_k,
            background=background,
        )
        candidates = promotion_candidates(
            prep.model, item, prep.eval_users, cfg.n_negatives, seed=cand_seed
        )
        attacker = _make_attacker(prep, method, method_seed, tree_depth, n_episodes)
        trace: EpisodeTrace | None = None
        if attacker is None:
            metrics = evaluate_promotion(
                prep.model, item, prep.eval_users, ks=cfg.eval_ks, candidate_lists=candidates
            )
        else:
            if isinstance(attacker, CopyAttackAgent):
                run = attacker.attack(env)
                trace = run.trace
                outcome.episode_histories.append(run.episode_hit_ratios)
            else:
                trace = attacker.attack(env)
            metrics = evaluate_promotion(
                prep.model, item, prep.eval_users, ks=cfg.eval_ks, candidate_lists=candidates
            )
            env.reset()
        outcome.per_item[item] = metrics
        for key, value in metrics.items():
            sums[key] = sums.get(key, 0.0) + value
        lengths.append(trace.mean_profile_length() if trace is not None else 0.0)
    outcome.metrics = {key: value / len(items) for key, value in sums.items()}
    outcome.mean_profile_length = float(np.mean(lengths)) if lengths else 0.0
    outcome.wall_time = time.perf_counter() - start
    return outcome


def _derive_seed(prep: PreparedExperiment, label: str) -> int:
    """Stable per-label seed derived from the experiment root and the label.

    Uses a hash of the label text (not Python's randomised ``hash``) so
    runs are reproducible across interpreter sessions.
    """
    base = int(prep._seed_root.bit_generator.seed_seq.entropy) % (2**32)
    return (base + zlib.crc32(f"{prep.config.name}/{label}".encode())) % (2**32)
