"""Neural collaborative filtering (He et al., WWW'17 style), history-based.

An extension target model that *isolates the vulnerability CopyAttack
exploits*.  Unlike the PinSage-style GNN, this model has no user-to-item
aggregation pathway: a user's representation is pooled from their own
profile only, and an item's representation is its own embedding.  Scores
for real users therefore do not change when new users are injected — the
platform is immune to data poisoning *until it retrains*.

:meth:`NeuralCF.refit` continues training on the (possibly polluted)
current dataset, which is how the injected interactions eventually reach
real users' recommendations on such a system.  The contrast —

* PinSage: injections act instantly through inductive aggregation;
* NeuralCF: injections act only after a retraining cycle —

is the cleanest statement of why the paper's black-box, no-retraining
attack targets GNN recommenders.
"""

from __future__ import annotations

import copy
from typing import Sequence

import numpy as np

from repro.data.interactions import InteractionDataset
from repro.errors import ConfigurationError, NotFittedError
from repro.nn import Embedding, Linear, Module, Tensor, bpr_loss, concat
from repro.nn.optim import Adam
from repro.recsys.base import Recommender
from repro.recsys.sampling import BipartiteIndex
from repro.utils.rng import make_rng

__all__ = ["NeuralCF"]


class _NCFNet(Module):
    """Item embeddings + the GMF/MLP fusion head."""

    def __init__(self, n_items: int, n_factors: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.item_emb = Embedding(n_items, n_factors, rng)
        self.w1 = Linear(3 * n_factors, 2 * n_factors, rng)
        self.w2 = Linear(2 * n_factors, 1, rng)

    def score(self, pooled: Tensor, items: Tensor) -> Tensor:
        """Score a batch: fused GMF (elementwise product) + raw features."""
        fused = concat([pooled * items, pooled, items], axis=-1)
        return self.w2(self.w1(fused).relu()).reshape(-1)


class NeuralCF(Recommender):
    """History-pooled NCF: inductive for the user, blind to other users."""

    def __init__(
        self,
        n_factors: int = 16,
        lr: float = 0.01,
        n_epochs: int = 60,
        batch_size: int = 256,
        n_profile_samples: int = 8,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if min(n_factors, n_epochs, batch_size, n_profile_samples) <= 0:
            raise ConfigurationError("NeuralCF size parameters must be positive")
        self.n_factors = n_factors
        self.lr = lr
        self.n_epochs = n_epochs
        self.batch_size = batch_size
        self.n_profile_samples = n_profile_samples
        self._rng = make_rng(seed)
        self._net: _NCFNet | None = None
        self._optimizer: Adam | None = None
        self._pooled: np.ndarray | None = None  # per-user profile pool cache
        # Fused first-layer tensor for batched scoring (see scores_batch).
        # It depends only on trained parameters — injections never touch item
        # weights — so it survives add_user and is invalidated on (re)fit.
        self._fused_w1: np.ndarray | None = None
        #: Times the fused tensor was actually (re)built — the
        #: exactly-once pre-warm tests count this across shard replicas.
        self.n_fused_builds = 0

    # ------------------------------------------------------------------ training
    def fit(self, dataset: InteractionDataset, **kwargs) -> "NeuralCF":
        self._dataset = dataset
        self._net = _NCFNet(dataset.n_items, self.n_factors, self._rng)
        self._optimizer = Adam(self._net.parameters(), lr=self.lr)
        self._train_epochs(self.n_epochs)
        self._refresh_pool()
        return self

    def refit(self, n_epochs: int) -> "NeuralCF":
        """Continue training on the *current* (possibly polluted) dataset.

        This is the retraining cycle through which injected interactions
        reach real users on an aggregation-free recommender.
        """
        if self._net is None:
            raise NotFittedError("NeuralCF.fit has not been called")
        self._train_epochs(n_epochs)
        self._refresh_pool()
        return self

    def _train_epochs(self, n_epochs: int) -> None:
        # Rebuilt per call: partial_fit and add_user grow the dataset.
        index = BipartiteIndex(self.dataset)
        users_arr, items_arr = index.entry_users, index.user_items
        if users_arr.size == 0:
            raise ConfigurationError("cannot fit NeuralCF on an empty dataset")
        rng = self._rng
        for _ in range(n_epochs):
            order = rng.permutation(users_arr.size)
            for start in range(0, users_arr.size, self.batch_size):
                batch = order[start : start + self.batch_size]
                self._train_step(index, users_arr[batch], items_arr[batch], rng)

    def _pool_batch(
        self, index: BipartiteIndex, user_ids: np.ndarray, rng: np.random.Generator
    ) -> Tensor:
        idx = index.sample_profiles(user_ids, self.n_profile_samples, rng)
        q = self._net.item_emb(idx.reshape(-1)).reshape(user_ids.size, idx.shape[1], self.n_factors)
        return q.mean(axis=1)

    def _train_step(
        self, index: BipartiteIndex, users: np.ndarray, pos_items: np.ndarray, rng
    ) -> None:
        neg_items = rng.integers(0, self.dataset.n_items, size=users.size)
        for _ in range(3):
            clash = index.contains(users, neg_items)
            if not clash.any():
                break
            neg_items[clash] = rng.integers(0, self.dataset.n_items, size=int(clash.sum()))
        pooled = self._pool_batch(index, users, rng)
        pos = self._net.score(pooled, self._net.item_emb(pos_items))
        neg = self._net.score(pooled, self._net.item_emb(neg_items))
        loss = bpr_loss(pos, neg)
        self._net.zero_grad()
        loss.backward()
        self._optimizer.step()

    # ------------------------------------------------------------------ inference
    def _refresh_pool(self) -> None:
        self._fused_w1 = None
        q = self._net.item_emb.weight.data
        self._pooled = np.stack([
            q[np.asarray(profile, dtype=np.int64)].mean(axis=0)
            for _, profile in self.dataset.iter_profiles()
        ])

    def scores(self, user_id: int, item_ids: np.ndarray | None = None) -> np.ndarray:
        if self._net is None or self._pooled is None:
            raise NotFittedError("NeuralCF.fit has not been called")
        items = (
            np.arange(self.dataset.n_items)
            if item_ids is None
            else np.asarray(item_ids, dtype=np.int64)
        )
        q = self._net.item_emb.weight.data[items]
        pooled = np.broadcast_to(self._pooled[user_id], q.shape)
        fused = np.concatenate([pooled * q, pooled, q], axis=1)
        w1, b1 = self._net.w1.weight.data, self._net.w1.bias.data
        w2, b2 = self._net.w2.weight.data, self._net.w2.bias.data
        hidden = np.maximum(fused @ w1 + b1, 0.0)
        return (hidden @ w2 + b2).reshape(-1)

    def scores_batch(
        self, user_ids: Sequence[int] | np.ndarray, item_ids: np.ndarray | None = None
    ) -> np.ndarray:
        """Cohort scores through the fusion head in two GEMMs.

        The first layer's three input blocks (GMF product, raw user, raw
        item) are folded into one constant tensor

            C[f, i, h] = q[i, f] * W1_gmf[f, h] + W1_user[f, h]
            C[F, i, h] = (q @ W1_item)[i, h] + b1[h]

        so the whole pre-activation for a cohort is a single
        ``[pooled | 1] @ C`` product.  ``C`` depends only on trained
        parameters — injections never touch item weights — so it is cached
        across ``add_user`` calls and rebuilt on (re)fit.
        """
        if self._net is None or self._pooled is None:
            raise NotFittedError("NeuralCF.fit has not been called")
        users = np.asarray(user_ids, dtype=np.int64)
        f = self.n_factors
        full = self._fused_tensor()
        fused = (
            full if item_ids is None else full[:, np.asarray(item_ids, dtype=np.int64), :]
        )
        n_items, hidden_dim = fused.shape[1], fused.shape[2]
        pooled_aug = np.empty((users.size, f + 1))
        pooled_aug[:, :f] = self._pooled[users]
        pooled_aug[:, f] = 1.0
        hidden = pooled_aug @ fused.reshape(f + 1, n_items * hidden_dim)
        np.maximum(hidden, 0.0, out=hidden)
        w2, b2 = self._net.w2.weight.data, self._net.w2.bias.data
        out = hidden.reshape(users.size * n_items, hidden_dim) @ w2 + b2
        return out.reshape(users.size, n_items)

    def _fused_tensor(self) -> np.ndarray:
        """The cached fused first-layer tensor, built on first use."""
        if self._fused_w1 is None:
            f = self.n_factors
            q = self._net.item_emb.weight.data
            w1, b1 = self._net.w1.weight.data, self._net.w1.bias.data
            w1_gmf, w1_user, w1_item = w1[:f], w1[f : 2 * f], w1[2 * f :]
            fused = np.empty((f + 1, q.shape[0], w1.shape[1]))
            fused[:f] = q.T[:, :, None] * w1_gmf[:, None, :] + w1_user[:, None, :]
            fused[f] = q @ w1_item + b1
            self._fused_w1 = fused
            self.n_fused_builds += 1
        return self._fused_w1

    def prewarm(self):
        """Build the fused scoring tensor if absent; ship it only then.

        Injections never invalidate the tensor (it is parameter-only),
        so after the first build every call returns ``None`` — peer
        replicas already hold an identical copy and per-injection
        replication events stay small.
        """
        if self._fused_w1 is not None:
            return None
        return {"fused_w1": self._fused_tensor()}

    def apply_prewarm(self, state) -> None:
        if state is not None:
            self._fused_w1 = state["fused_w1"]

    def prewarm_stats(self) -> dict[str, int]:
        return {"fused_builds": self.n_fused_builds}

    def scores_for(self, user_id: int, item_ids: np.ndarray) -> np.ndarray:
        """Alias with the (user, items) signature the metric helpers expect."""
        return self.scores(user_id, item_ids)

    # ------------------------------------------------------------- sliced replication
    supports_slicing = True
    shared_static_under_injection = True  # the fused tensor is parameter-only

    def shared_item_state(self) -> dict[str, np.ndarray]:
        """The fused first-layer tensor — the only item-side array the
        batched serving path reads (``scores_batch`` never touches raw
        item embeddings once the tensor exists)."""
        if self._net is None:
            raise NotFittedError("NeuralCF.fit has not been called")
        return {"fused_w1": np.ascontiguousarray(self._fused_tensor())}

    def slice_users(self, user_ids: Sequence[int] | np.ndarray) -> "NeuralCF":
        if self._net is None or self._pooled is None:
            raise NotFittedError("NeuralCF.fit has not been called")
        ids = np.asarray(user_ids, dtype=np.int64)
        clone = copy.copy(self)
        clone._dataset = self.dataset.slice_users(ids)
        clone._pooled = np.ascontiguousarray(self._pooled[ids])
        # Ship the fusion head (w1/w2 are tiny) but not the item
        # embedding table — replicas score through the shared fused
        # tensor, so the table would be dead weight per shard.
        q = self._net.item_emb.weight.data
        self._net.item_emb.weight.data = np.empty((0, self.n_factors))
        try:
            clone._net = copy.deepcopy(self._net)
        finally:
            self._net.item_emb.weight.data = q
        clone._optimizer = None
        clone._fused_w1 = None  # attached from shared memory by the replica
        clone.n_fused_builds = 0
        return clone

    def attach_shared_item_state(self, views: dict[str, np.ndarray]) -> None:
        self._fused_w1 = views["fused_w1"]

    def user_state(self, user_id: int) -> np.ndarray:
        """The pooled profile row — a sliced replica has no item table to
        recompute it from, so the owner ships the exact coordinator row."""
        return np.array(self._pooled[int(user_id)])

    def append_sliced_user(self, profile: Sequence[int], user_state) -> int:
        local_id = self.dataset.add_user(profile)
        self._pooled = np.vstack([self._pooled, user_state])
        return local_id

    # ------------------------------------------------------------------ online learning
    supports_partial_fit = True

    def partial_fit(
        self, interactions: Sequence[tuple[int, int]], n_epochs: int = 1
    ) -> "NeuralCF":
        """Mini-batch continuation on the extended dataset.

        The new interactions join their users' profiles, then training
        continues for ``n_epochs`` passes over the *whole* current
        dataset (the same machinery as :meth:`refit` — NeuralCF has no
        closed-form fold-in, so incremental means "a short continuation
        cycle", which is exactly how such systems retrain in
        production).  The profile pool cache is rebuilt afterwards so
        the moved parameters reach scoring.
        """
        if self._net is None or self._optimizer is None:
            raise NotFittedError("NeuralCF.fit has not been called")
        dataset = self.dataset
        for user_id, item_id in interactions:
            dataset.add_interaction(user_id, item_id)
        self._train_epochs(n_epochs)
        self._refresh_pool()
        return self

    # ------------------------------------------------------------------ injection
    def add_user(self, profile: Sequence[int]) -> int:
        """Register a new user.  Other users' scores are provably unchanged."""
        user_id = self.dataset.add_user(profile)
        q = self._net.item_emb.weight.data
        pooled = q[np.asarray(list(profile), dtype=np.int64)].mean(axis=0)
        self._pooled = np.vstack([self._pooled, pooled])
        return user_id

    def snapshot(self):
        return (
            self.dataset.copy(),
            self._pooled.copy(),
            self._net.state_dict(),
        )

    def restore(self, snapshot) -> None:
        dataset, pooled, state = snapshot
        self._dataset = dataset.copy()
        self._pooled = pooled.copy()
        self._net.load_state_dict(state)
        # Parameters may have moved (e.g. a refit) since the snapshot was
        # taken; the fused scoring tensor is parameter-derived state.
        self._fused_w1 = None
