"""PinSage-style GNN recommender (the paper's black-box target model).

Section 5.1.3 adopts PinSage [Ying et al., KDD'18] as the target: an
*inductive* GNN over the user-item bipartite graph where representations
are computed by aggregating local neighbourhoods.  We implement the same
family of computation from scratch:

* **user representation** — the items in the user's profile are
  mean-pooled and refined by a two-layer network with a skip connection,
  then L2-normalised::

      h_u = norm(pool_u + W_u2 · relu(W_u1 · pool_u)),   pool_u = mean_{v in P_u} Q_v

  (ReLU hidden layers, skip connections, and L2-normalised outputs are all
  part of the original PinSage recipe);

* **item representation** — the item's own base embedding plus a
  *symmetrically normalised* aggregation of its interacting users'
  representations (the GCN convention: each message is scaled by
  ``1/sqrt(deg_u)`` on the user side and ``1/sqrt(1+deg_v)`` on the item
  side), refined by a two-layer network::

      agg_v = sum_{u in P_v} h_u / sqrt(deg_u)  /  sqrt(1 + deg_v)
      z_v   = Q_v + agg_v + W_i2 · relu(W_i1 · [Q_v ; mean_{u in P_v} h_u])

* **score** — ``s(u, v) = h_u · z_v / temperature``.

Item vectors are deliberately *not* normalised: their magnitude carries
the popularity signal BPR learns, exactly as in production retrieval
systems.

**Why this matters for the attack:** the user-aggregation term is the
poisoning pathway.  An injected user whose profile contains the target
item ``v*`` adds ``h/sqrt(deg)`` to ``z_{v*}`` without any retraining —
the inductive fold-in behaviour of deployed PinSage systems that
CopyAttack exploits.  Two consequences the paper observes fall out of
this arithmetic: cold items (small ``deg_v``) are the cheapest to move,
and *long* injected profiles are weak (the ``1/sqrt(deg_u)`` edge weight
dilutes a 1000-item profile's push on any single item), which is why
profile crafting reduces the item budget without losing attack power.

Training optimises BPR with neighbourhood sampling on the autograd
engine; inference keeps dense numpy caches.  :meth:`PinSageRecommender.add_user`
updates the caches incrementally and :meth:`PinSageRecommender.snapshot`
/ :meth:`restore` give the attack environment cheap episode resets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.data.interactions import InteractionDataset
from repro.errors import ConfigurationError, NotFittedError
from repro.nn import Embedding, Linear, Module, Tensor, bpr_loss, concat, no_grad
from repro.nn.optim import Adam
from repro.nn.tensor import scatter_add_rows
from repro.recsys.base import Recommender
from repro.recsys.sampling import BipartiteIndex
from repro.utils.logging import get_logger
from repro.utils.rng import make_rng

__all__ = ["PinSageRecommender", "PinSageSnapshot"]

_LOG = get_logger("recsys.pinsage")

_EPS = 1e-12


def _l2norm_t(t: Tensor) -> Tensor:
    """L2-normalise the last axis of an autograd tensor."""
    return t * (((t * t).sum(axis=-1, keepdims=True) + _EPS) ** -0.5)


def _l2norm_np(x: np.ndarray) -> np.ndarray:
    """L2-normalise the last axis of a numpy array."""
    return x / np.sqrt((x * x).sum(axis=-1, keepdims=True) + _EPS)


class _PinSageNet(Module):
    """Trainable parameters of the two-hop aggregation network."""

    def __init__(self, n_items: int, n_factors: int, rng: np.random.Generator) -> None:
        super().__init__()
        hidden = 2 * n_factors
        self.item_emb = Embedding(n_items, n_factors, rng)
        self.w_user1 = Linear(n_factors, hidden, rng)
        self.w_user2 = Linear(hidden, n_factors, rng)
        self.w_item1 = Linear(2 * n_factors, hidden, rng)
        self.w_item2 = Linear(hidden, n_factors, rng)


@dataclass
class PinSageSnapshot:
    """Inference-cache state captured for episode resets."""

    n_users: int
    dataset: InteractionDataset
    item_h_sum: np.ndarray
    item_h_plain: np.ndarray
    item_h_count: np.ndarray


class PinSageRecommender(Recommender):
    """Inductive bipartite-GNN recommender.

    Parameters
    ----------
    n_factors:
        Embedding size.  The paper uses 8 at MovieLens scale; the default
        here is 16 which trains better at this reproduction's scale.
    lr:
        Adam learning rate.  The paper uses 0.001 at a scale with ~100x
        more SGD steps per epoch; the default is raised so the number of
        effective updates is comparable (documented substitution).
    n_epochs:
        Maximum training epochs; early stopping may end sooner.
    batch_size:
        BPR triples per step.
    n_profile_samples:
        Items sampled (with replacement) from a profile during training.
    n_neighbor_samples:
        Users sampled per item for the second hop during training.
    patience:
        Early-stopping patience on validation HR@10 (paper: 5 epochs).
    temperature:
        Score divisor (kept at 1.0; exposed for experimentation).
    seed:
        RNG for init, sampling, and shuffling.
    """

    #: No incremental retraining: user aggregation caches depend on the
    #: whole bipartite graph, so an interaction-level fold-in would need
    #: a full neighbourhood recompute — the online-learning layer treats
    #: PinSage as retrain-from-scratch only (explicit, per the base flag).
    supports_partial_fit = False

    def __init__(
        self,
        n_factors: int = 16,
        lr: float = 0.02,
        n_epochs: int = 150,
        batch_size: int = 128,
        n_profile_samples: int = 8,
        n_neighbor_samples: int = 5,
        patience: int = 20,
        temperature: float = 1.0,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if min(n_factors, n_epochs, batch_size, n_profile_samples, n_neighbor_samples) <= 0:
            raise ConfigurationError("PinSage size/epoch parameters must be positive")
        if temperature <= 0:
            raise ConfigurationError("temperature must be positive")
        self.n_factors = n_factors
        self.lr = lr
        self.n_epochs = n_epochs
        self.batch_size = batch_size
        self.n_profile_samples = n_profile_samples
        self.n_neighbor_samples = n_neighbor_samples
        self.patience = patience
        self.temperature = temperature
        self._rng = make_rng(seed)
        self._net: _PinSageNet | None = None
        self._optimizer: Adam | None = None
        # Inference caches (numpy, no autograd):
        self._H: np.ndarray | None = None  # user representations, append-only
        self._item_h_sum: np.ndarray | None = None  # sum of h_u / sqrt(deg_u)
        self._item_h_plain: np.ndarray | None = None  # sum of h_u (for the MLP input)
        self._item_h_count: np.ndarray | None = None
        self._Z: np.ndarray | None = None
        self.train_history: list[dict[str, float]] = []

    # ------------------------------------------------------------------ training
    def fit(
        self,
        dataset: InteractionDataset,
        val_candidates: Sequence[tuple[int, np.ndarray]] | None = None,
        **kwargs,
    ) -> "PinSageRecommender":
        """Train with BPR; early-stop on validation HR@10 when provided."""
        from repro.recsys.metrics import evaluate_candidate_lists

        self._dataset = dataset
        rng = self._rng
        self._net = _PinSageNet(dataset.n_items, self.n_factors, rng)
        self._optimizer = Adam(self._net.parameters(), lr=self.lr)

        # Sampling view of the training graph, built once per fit.
        index = BipartiteIndex(dataset)
        users_arr, items_arr = index.entry_users, index.user_items
        if users_arr.size == 0:
            raise ConfigurationError("cannot fit PinSage on an empty dataset")

        best_hr = -1.0
        best_state: dict[str, np.ndarray] | None = None
        stale = 0
        self.train_history = []
        for epoch in range(self.n_epochs):
            order = rng.permutation(users_arr.size)
            epoch_loss = 0.0
            n_batches = 0
            for start in range(0, users_arr.size, self.batch_size):
                batch = order[start : start + self.batch_size]
                loss = self._train_step(index, users_arr[batch], items_arr[batch], rng)
                epoch_loss += loss
                n_batches += 1
            record = {"epoch": float(epoch), "loss": epoch_loss / max(n_batches, 1)}
            if val_candidates:
                self.refresh_full()
                metrics = evaluate_candidate_lists(self.scores_for, val_candidates, ks=(10,))
                record["val_hr@10"] = metrics["hr@10"]
                if metrics["hr@10"] > best_hr + 1e-9:
                    best_hr = metrics["hr@10"]
                    best_state = self._net.state_dict()
                    stale = 0
                else:
                    stale += 1
                if stale >= self.patience:
                    _LOG.info("early stop at epoch %d (best val HR@10=%.4f)", epoch, best_hr)
                    self.train_history.append(record)
                    break
            self.train_history.append(record)
        if best_state is not None:
            self._net.load_state_dict(best_state)
        self.refresh_full()
        return self

    def _user_repr_batch(
        self, index: BipartiteIndex, user_ids: np.ndarray, rng: np.random.Generator
    ) -> Tensor:
        idx = index.sample_profiles(user_ids, self.n_profile_samples, rng)
        q = self._net.item_emb(idx.reshape(-1)).reshape(idx.shape[0], idx.shape[1], self.n_factors)
        pooled = q.mean(axis=1)
        return _l2norm_t(pooled + self._net.w_user2(self._net.w_user1(pooled).relu()))

    def _item_repr_batch(
        self, index: BipartiteIndex, item_ids: np.ndarray, rng: np.random.Generator
    ) -> Tensor:
        s = self.n_neighbor_samples
        n = item_ids.size
        neighbor_users = index.sample_item_users(item_ids, s, rng)
        count = index.item_degree[item_ids].astype(np.float64)[:, None]
        has_users = (count > 0).astype(np.float64)
        inv_sqrt_du = (has_users / np.sqrt(index.user_degree[neighbor_users]))[:, :, None]
        agg_scale = count / np.sqrt(1.0 + count)
        h_nb = self._user_repr_batch(index, neighbor_users.reshape(-1), rng)
        h_nb = h_nb.reshape(n, s, self.n_factors)
        # Monte-Carlo estimates: E[h/sqrt(deg_u)] * count/sqrt(1+count) and plain mean.
        agg = (h_nb * Tensor(inv_sqrt_du)).mean(axis=1) * Tensor(agg_scale)
        h_mean = h_nb.mean(axis=1) * Tensor(has_users)
        q_own = self._net.item_emb(item_ids)
        mlp = self._net.w_item2(self._net.w_item1(concat([q_own, h_mean], axis=-1)).relu())
        return q_own + agg + mlp

    def _train_step(
        self,
        index: BipartiteIndex,
        users: np.ndarray,
        pos_items: np.ndarray,
        rng: np.random.Generator,
    ) -> float:
        neg_items = rng.integers(0, self.dataset.n_items, size=users.size)
        for _ in range(3):
            clash = index.contains(users, neg_items)
            if not clash.any():
                break
            neg_items[clash] = rng.integers(0, self.dataset.n_items, size=int(clash.sum()))

        h = self._user_repr_batch(index, users, rng)
        z_pos = self._item_repr_batch(index, pos_items, rng)
        z_neg = self._item_repr_batch(index, neg_items, rng)
        inv_temp = 1.0 / self.temperature
        pos_scores = (h * z_pos).sum(axis=1) * inv_temp
        neg_scores = (h * z_neg).sum(axis=1) * inv_temp
        loss = bpr_loss(pos_scores, neg_scores)
        self._net.zero_grad()
        loss.backward()
        self._optimizer.step()
        return float(loss.item())

    # -------------------------------------------------------------- inference math
    def _weights(self) -> dict[str, np.ndarray]:
        if self._net is None:
            raise NotFittedError("PinSageRecommender.fit has not been called")
        net = self._net
        return {
            "q": net.item_emb.weight.data,
            "wu1": net.w_user1.weight.data,
            "bu1": net.w_user1.bias.data,
            "wu2": net.w_user2.weight.data,
            "bu2": net.w_user2.bias.data,
            "wi1": net.w_item1.weight.data,
            "bi1": net.w_item1.bias.data,
            "wi2": net.w_item2.weight.data,
            "bi2": net.w_item2.bias.data,
        }

    def user_representation(self, profile: Sequence[int]) -> np.ndarray:
        """Inductive user representation for an arbitrary profile (numpy path)."""
        w = self._weights()
        idx = np.asarray(list(profile), dtype=np.int64)
        pooled = w["q"][idx].mean(axis=0) if idx.size else np.zeros(self.n_factors)
        hidden = np.maximum(pooled @ w["wu1"] + w["bu1"], 0.0)
        return _l2norm_np(pooled + hidden @ w["wu2"] + w["bu2"])

    def _item_representation_rows(self, item_ids: np.ndarray) -> np.ndarray:
        w = self._weights()
        counts = self._item_h_count[item_ids]
        agg = self._item_h_sum[item_ids] / np.sqrt(1.0 + counts)[:, None]
        h_mean = self._item_h_plain[item_ids] / np.maximum(counts, 1.0)[:, None]
        stacked = np.concatenate([w["q"][item_ids], h_mean], axis=1)
        hidden = np.maximum(stacked @ w["wi1"] + w["bi1"], 0.0)
        return w["q"][item_ids] + agg + hidden @ w["wi2"] + w["bi2"]

    def refresh_full(self) -> None:
        """Rebuild every inference cache from the current dataset.

        Called after training and available to tests as the ground truth the
        incremental :meth:`add_user` path must agree with.
        """
        dataset = self.dataset
        with no_grad():
            self._H = np.stack(
                [self.user_representation(profile) for _, profile in dataset.iter_profiles()]
            )
            # One scatter-add per cache over every profile entry in user
            # order: an item's rows sum in the order add_user folds users in.
            n_items = dataset.n_items
            users, items = dataset.interaction_arrays()
            h = self._H[users]
            weight = (1.0 / np.sqrt(dataset.profile_lengths()))[users, None]
            self._item_h_sum = scatter_add_rows(items, h * weight, n_items)
            self._item_h_plain = scatter_add_rows(items, h, n_items)
            self._item_h_count = np.bincount(items, minlength=n_items).astype(np.float64)
            self._Z = self._item_representation_rows(np.arange(dataset.n_items))

    # ------------------------------------------------------------------- scoring
    def scores(self, user_id: int, item_ids: np.ndarray | None = None) -> np.ndarray:
        if self._H is None or self._Z is None:
            raise NotFittedError("PinSage inference caches missing; call fit/refresh_full")
        z = self._Z if item_ids is None else self._Z[np.asarray(item_ids, dtype=np.int64)]
        return (z @ self._H[user_id]) / self.temperature

    def scores_batch(
        self, user_ids: Sequence[int] | np.ndarray, item_ids: np.ndarray | None = None
    ) -> np.ndarray:
        """Cohort scores as one ``H_cohort @ Z^T`` GEMM over the caches."""
        if self._H is None or self._Z is None:
            raise NotFittedError("PinSage inference caches missing; call fit/refresh_full")
        z = self._Z if item_ids is None else self._Z[np.asarray(item_ids, dtype=np.int64)]
        users = np.asarray(user_ids, dtype=np.int64)
        return (self._H[users] @ z.T) / self.temperature

    def scores_for(self, user_id: int, item_ids: np.ndarray) -> np.ndarray:
        """Alias with the (user, items) signature the metric helpers expect."""
        return self.scores(user_id, item_ids)

    # ------------------------------------------------------------------ injection
    def add_user(self, profile: Sequence[int]) -> int:
        """Inject a user; fold their representation into affected items only."""
        user_id = self.dataset.add_user(profile)
        h = self.user_representation(profile)
        self._H = np.vstack([self._H, h])
        weight = 1.0 / np.sqrt(len(profile))
        affected = np.unique(np.asarray(list(profile), dtype=np.int64))
        self._item_h_sum[affected] += h * weight
        self._item_h_plain[affected] += h
        self._item_h_count[affected] += 1
        self._Z[affected] = self._item_representation_rows(affected)
        return user_id

    def snapshot(self) -> PinSageSnapshot:
        """Capture dataset + caches so an attack episode can be rolled back."""
        return PinSageSnapshot(
            n_users=self.dataset.n_users,
            dataset=self.dataset.copy(),
            item_h_sum=self._item_h_sum.copy(),
            item_h_plain=self._item_h_plain.copy(),
            item_h_count=self._item_h_count.copy(),
        )

    def restore(self, snapshot: PinSageSnapshot) -> None:
        """Roll back to a snapshot (drops every user injected since)."""
        self._dataset = snapshot.dataset.copy()
        self._H = self._H[: snapshot.n_users].copy()
        self._item_h_sum = snapshot.item_h_sum.copy()
        self._item_h_plain = snapshot.item_h_plain.copy()
        self._item_h_count = snapshot.item_h_count.copy()
        self._Z = self._item_representation_rows(np.arange(self.dataset.n_items))
