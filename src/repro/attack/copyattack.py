"""The CopyAttack agent (paper Section 4).

Glues the three components together:

1. **user profile selection** — hierarchical-structure policy gradient
   over the balanced clustering tree with the target-item mask
   (:mod:`repro.attack.policies.hierarchical`, :mod:`repro.attack.tree`);
2. **user profile crafting** — the window-clipping policy
   (:mod:`repro.attack.policies.crafting_policy`,
   :mod:`repro.attack.crafting`);
3. **injection attack and queries** — stepping the
   :class:`~repro.attack.environment.AttackEnvironment`, whose query
   feedback becomes the REINFORCE reward.

The ablations of Table 2 are configuration flags:

* ``use_masking=False`` & ``use_crafting=False``  → *CopyAttack-Masking*;
* ``use_crafting=False``                          → *CopyAttack-Length*;
* ``policy="flat"``                               → *PolicyNetwork*.

``allow_surrogate_targets=True`` additionally implements the paper's
stated future work — attacking items absent from the source domain: the
mask admits supporters of the target's nearest source items (MF space),
crafting clips around the *surrogate* anchor, and the target item is
spliced next to it, so the injected profile stays one interaction away
from a genuine copied profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.attack.crafting import clip_profile
from repro.attack.environment import AttackEnvironment, EpisodeTrace
from repro.attack.policies.crafting_policy import CraftingPolicy
from repro.attack.policies.flat import FlatPolicy
from repro.attack.policies.hierarchical import HierarchicalTreePolicy
from repro.attack.policies.state import PolicyStateEncoder, SelectionPrefix
from repro.attack.reinforce import EpisodeBuffer, ReinforceTrainer
from repro.attack.tree.hierarchy import HierarchicalClusterTree
from repro.attack.tree.masking import TargetItemMask
from repro.attack.tree.surrogate import surrogate_mask
from repro.data.interactions import InteractionDataset
from repro.errors import ConfigurationError, MaskedTreeError
from repro.nn import Tensor
from repro.utils.logging import get_logger
from repro.utils.rng import make_rng, spawn

__all__ = ["CopyAttackConfig", "CopyAttackAgent", "AttackRunResult"]

_LOG = get_logger("attack.copyattack")


@dataclass(frozen=True)
class CopyAttackConfig:
    """Hyper-parameters of the CopyAttack agent.

    The discount factor 0.6 and tree depth 3 follow Section 5.1.3 (the
    paper's larger source domain uses depth 6).  The paper trains with
    learning rate 0.001 at a scale with hundreds of episodes' worth of
    queries; at this reproduction's scale the default is raised to 0.01
    so the policy converges within the benchmark's episode budget
    (documented substitution — see DESIGN.md).
    """

    tree_depth: int = 3
    hidden_dim: int = 16
    lr: float = 0.01
    gamma: float = 0.6
    n_episodes: int = 40
    use_masking: bool = True
    use_crafting: bool = True
    policy: str = "tree"
    baseline_momentum: float = 0.8
    grad_clip: float = 5.0
    rnn_cell: str = "rnn"
    allow_surrogate_targets: bool = False
    n_surrogates: int = 5

    def __post_init__(self) -> None:
        if self.policy not in ("tree", "flat"):
            raise ConfigurationError("policy must be 'tree' or 'flat'")
        if self.tree_depth < 1:
            raise ConfigurationError("tree_depth must be at least 1")
        if self.n_episodes < 1:
            raise ConfigurationError("n_episodes must be at least 1")
        if self.n_surrogates < 1:
            raise ConfigurationError("n_surrogates must be at least 1")


@dataclass
class AttackRunResult:
    """Outcome of training + executing an attack on one target item."""

    trace: EpisodeTrace
    episode_hit_ratios: list[float] = field(default_factory=list)
    train_diagnostics: list[dict[str, float]] = field(default_factory=list)

    @property
    def final_hit_ratio(self) -> float:
        return self.trace.final_hit_ratio

    def mean_profile_length(self) -> float:
        return self.trace.mean_profile_length()


class CopyAttackAgent:
    """RL attacker copying cross-domain user profiles."""

    def __init__(
        self,
        source: InteractionDataset,
        user_embeddings: np.ndarray,
        item_embeddings: np.ndarray,
        config: CopyAttackConfig | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        self.source = source
        self.config = config or CopyAttackConfig()
        rng = make_rng(seed)
        tree_rng, policy_rng, craft_rng, state_rng, self._sample_rng = spawn(rng, 5)

        self.encoder = PolicyStateEncoder(
            user_embeddings, item_embeddings, state_rng, cell=self.config.rnn_cell
        )
        if self.config.policy == "tree":
            self.tree: HierarchicalClusterTree | None = HierarchicalClusterTree.from_depth(
                user_embeddings, depth=self.config.tree_depth, seed=tree_rng
            )
            self.selection_policy = HierarchicalTreePolicy(
                self.tree, self.encoder.state_dim, self.config.hidden_dim, policy_rng
            )
        else:
            self.tree = None
            self.selection_policy = FlatPolicy(
                source.n_users, self.encoder.state_dim, self.config.hidden_dim, policy_rng
            )
        self.crafting_policy = CraftingPolicy(
            self.encoder.dim, self.config.hidden_dim, craft_rng
        )
        self._surrogates: tuple[int, ...] = ()
        modules = [self.encoder, self.selection_policy]
        if self.config.use_crafting:
            modules.append(self.crafting_policy)
        self.trainer = ReinforceTrainer(
            modules,
            lr=self.config.lr,
            gamma=self.config.gamma,
            baseline_momentum=self.config.baseline_momentum,
            grad_clip=self.config.grad_clip,
        )

    # ------------------------------------------------------------------ rollouts
    def _make_mask(self, target_item: int) -> TargetItemMask:
        needs_surrogates = (
            self.config.use_masking
            and self.config.allow_surrogate_targets
            and self.source.users_with_item(target_item).size == 0
        )
        if needs_surrogates:
            mask, surrogates = surrogate_mask(
                self.source,
                target_item,
                self.encoder.item_embeddings,
                n_surrogates=self.config.n_surrogates,
                tree=self.tree,
            )
            self._surrogates = tuple(int(v) for v in surrogates)
            return mask
        self._surrogates = ()
        return TargetItemMask(
            self.source, target_item, enabled=self.config.use_masking, tree=self.tree
        )

    def _craft(
        self, user_id: int, target_item: int, greedy: bool
    ) -> tuple[tuple[int, ...], Tensor | None]:
        """Clip the selected profile; returns (profile, craft log-prob or None).

        With surrogate targeting active the profile is clipped around the
        surrogate anchor and the target item is spliced in right after it
        (one synthetic interaction inside an otherwise genuine profile).
        """
        raw_profile = self.source.user_profile(user_id)
        if target_item in raw_profile:
            anchor = target_item
            splice = False
        else:
            anchor = next((v for v in self._surrogates if v in raw_profile), None)
            splice = anchor is not None
            if anchor is None:
                return tuple(raw_profile), None
        if not self.config.use_crafting:
            crafted = tuple(raw_profile)
            log_prob = None
        else:
            craft = self.crafting_policy.select(
                self.encoder.user_vector(user_id),
                self.encoder.item_vector(target_item),
                seed=self._sample_rng,
                greedy=greedy,
            )
            crafted = clip_profile(raw_profile, anchor, craft.fraction)
            log_prob = craft.log_prob
        if splice:
            position = crafted.index(anchor) + 1
            crafted = crafted[:position] + (target_item,) + crafted[position:]
        return crafted, log_prob

    def rollout(
        self,
        env: AttackEnvironment,
        mask: TargetItemMask,
        greedy: bool = False,
    ) -> EpisodeBuffer:
        """Play one full episode in ``env`` (which must be freshly reset).

        The episode's :class:`SelectionPrefix` carries the RNN state from
        step to step, so encoding is linear in the episode length.
        """
        buffer = EpisodeBuffer()
        mask.reset_exclusions()
        prefix = SelectionPrefix()
        while not env.done:
            state = self.encoder.encode(env.target_item, prefix)
            try:
                selection = self.selection_policy.select(
                    state, mask, seed=self._sample_rng, greedy=greedy
                )
            except MaskedTreeError:
                # Every admissible user was already copied; allow reuse.
                mask.reset_exclusions()
                selection = self.selection_policy.select(
                    state, mask, seed=self._sample_rng, greedy=greedy
                )
            mask.exclude_user(selection.user_id)
            profile, craft_log_prob = self._craft(
                selection.user_id, env.target_item, greedy
            )
            log_prob = selection.log_prob
            if craft_log_prob is not None:
                log_prob = log_prob + craft_log_prob
            outcome = env.step(profile, selected_user=selection.user_id)
            buffer.record(log_prob, outcome.reward)
            prefix.append(selection.user_id)
        return buffer

    # ------------------------------------------------------------------ training
    def attack(self, env: AttackEnvironment) -> AttackRunResult:
        """Train over episodes, then execute the final (greedy) attack.

        Every training episode resets the platform; the final greedy
        episode leaves its injections in place so the caller can evaluate
        promotion on the polluted system.
        """
        mask = self._make_mask(env.target_item)
        result = AttackRunResult(trace=EpisodeTrace())
        for episode_idx in range(self.config.n_episodes):
            env.reset()
            buffer = self.rollout(env, mask, greedy=False)
            diagnostics = self.trainer.update(buffer)
            result.episode_hit_ratios.append(env.trace.final_hit_ratio)
            result.train_diagnostics.append(diagnostics)
            _LOG.debug(
                "episode %d: HR=%.4f loss=%.4f",
                episode_idx,
                env.trace.final_hit_ratio,
                diagnostics["loss"],
            )
        env.reset()
        self.rollout(env, mask, greedy=True)
        result.trace = env.trace
        return result
