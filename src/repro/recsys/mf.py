"""Matrix factorisation with BPR, trained by vectorised SGD.

Two roles in the paper:

* Section 4.3.1 — *"We use the user representations p^B learned via matrix
  factorization (MF) to measure similarity between users"* when building
  the hierarchical clustering tree over source users;
* Section 4.3.3 / 4.4 — the pre-trained source-domain user and item
  embeddings ``p_i`` and ``q_{v*}`` are the policy-network inputs.

Training is implicit-feedback BPR (positive item from the profile vs a
sampled unseen negative), written with ``np.add.at`` scatter updates so a
whole minibatch is one numpy call; no autograd is involved because the
gradients are closed-form.
"""

from __future__ import annotations

import copy
from typing import Sequence

import numpy as np

from repro.data.interactions import InteractionDataset
from repro.errors import ConfigurationError, NotFittedError
from repro.recsys.base import Recommender
from repro.recsys.sampling import BipartiteIndex
from repro.utils.logging import get_logger
from repro.utils.rng import make_rng

__all__ = ["MatrixFactorization"]

_LOG = get_logger("recsys.mf")


class MatrixFactorization(Recommender):
    """BPR matrix factorisation.

    Parameters
    ----------
    n_factors:
        Embedding size (paper default 8).
    lr:
        SGD learning rate (paper default 0.001; MF tolerates larger).
    reg:
        L2 regularisation strength.
    n_epochs:
        Passes over the interaction list.
    batch_size:
        Interactions per vectorised SGD step.
    seed:
        RNG seed for init and negative sampling.
    """

    def __init__(
        self,
        n_factors: int = 8,
        lr: float = 0.05,
        reg: float = 0.002,
        n_epochs: int = 30,
        batch_size: int = 512,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if n_factors <= 0 or n_epochs <= 0 or batch_size <= 0:
            raise ConfigurationError("n_factors, n_epochs, batch_size must be positive")
        if lr <= 0 or reg < 0:
            raise ConfigurationError("lr must be positive and reg non-negative")
        self.n_factors = n_factors
        self.lr = lr
        self.reg = reg
        self.n_epochs = n_epochs
        self.batch_size = batch_size
        self._rng = make_rng(seed)
        self.user_factors: np.ndarray | None = None
        self.item_factors: np.ndarray | None = None

    # -- training ---------------------------------------------------------------
    def fit(self, dataset: InteractionDataset, **kwargs) -> "MatrixFactorization":
        """Train user/item factors on ``dataset`` with BPR."""
        self._dataset = dataset
        rng = self._rng
        n_users, n_items = dataset.n_users, dataset.n_items
        self.user_factors = rng.normal(0.0, 0.1, size=(n_users, self.n_factors))
        self.item_factors = rng.normal(0.0, 0.1, size=(n_items, self.n_factors))

        index = BipartiteIndex(dataset)
        users_arr, items_arr = index.entry_users, index.user_items
        n_obs = users_arr.size
        if n_obs == 0:
            raise ConfigurationError("cannot fit MF on an empty dataset")

        for epoch in range(self.n_epochs):
            order = rng.permutation(n_obs)
            for start in range(0, n_obs, self.batch_size):
                batch = order[start : start + self.batch_size]
                self._bpr_step(users_arr[batch], items_arr[batch], index, rng)
            if epoch % 10 == 9:
                _LOG.debug("MF epoch %d/%d done", epoch + 1, self.n_epochs)
        return self

    def _bpr_step(
        self,
        users: np.ndarray,
        pos_items: np.ndarray,
        index: BipartiteIndex,
        rng: np.random.Generator,
    ) -> None:
        neg_items = rng.integers(0, index.n_items, size=users.size)
        # Resample collisions with the user's seen set (a few passes suffice).
        for _ in range(3):
            clash = index.contains(users, neg_items)
            if not clash.any():
                break
            neg_items[clash] = rng.integers(0, index.n_items, size=int(clash.sum()))

        pu = self.user_factors[users]
        qi = self.item_factors[pos_items]
        qj = self.item_factors[neg_items]
        x = np.einsum("ij,ij->i", pu, qi - qj)
        sig = 1.0 / (1.0 + np.exp(np.clip(x, -60, 60)))  # d/dx of -log(sigmoid(x)) is -sigmoid(-x)
        grad_pu = sig[:, None] * (qi - qj) - self.reg * pu
        grad_qi = sig[:, None] * pu - self.reg * qi
        grad_qj = -sig[:, None] * pu - self.reg * qj
        np.add.at(self.user_factors, users, self.lr * grad_pu)
        np.add.at(self.item_factors, pos_items, self.lr * grad_qi)
        np.add.at(self.item_factors, neg_items, self.lr * grad_qj)

    # -- scoring ---------------------------------------------------------------
    def scores(self, user_id: int, item_ids: np.ndarray | None = None) -> np.ndarray:
        if self.user_factors is None or self.item_factors is None:
            raise NotFittedError("MatrixFactorization.fit has not been called")
        factors = (
            self.item_factors
            if item_ids is None
            else self.item_factors[np.asarray(item_ids, dtype=np.int64)]
        )
        return factors @ self.user_factors[user_id]

    def scores_batch(
        self, user_ids: Sequence[int] | np.ndarray, item_ids: np.ndarray | None = None
    ) -> np.ndarray:
        """One GEMM for the whole cohort instead of a per-user matvec loop."""
        if self.user_factors is None or self.item_factors is None:
            raise NotFittedError("MatrixFactorization.fit has not been called")
        factors = (
            self.item_factors
            if item_ids is None
            else self.item_factors[np.asarray(item_ids, dtype=np.int64)]
        )
        users = np.asarray(user_ids, dtype=np.int64)
        return self.user_factors[users] @ factors.T

    def embed_profile(self, profile: Sequence[int]) -> np.ndarray:
        """Represent an arbitrary profile as the mean of its item factors.

        Used to embed *new* users (e.g. in tests or detector features)
        without retraining; also the fold-in rule for injected users.
        """
        if self.item_factors is None:
            raise NotFittedError("MatrixFactorization.fit has not been called")
        idx = np.asarray(list(profile), dtype=np.int64)
        if idx.size == 0:
            return np.zeros(self.n_factors)
        return self.item_factors[idx].mean(axis=0)

    # -- sliced replication ------------------------------------------------------
    supports_slicing = True
    shared_static_under_injection = True  # add_user never touches item factors

    def shared_item_state(self) -> dict[str, np.ndarray]:
        if self.item_factors is None:
            raise NotFittedError("MatrixFactorization.fit has not been called")
        return {"item_factors": np.ascontiguousarray(self.item_factors)}

    def slice_users(self, user_ids: Sequence[int] | np.ndarray) -> "MatrixFactorization":
        if self.user_factors is None:
            raise NotFittedError("MatrixFactorization.fit has not been called")
        ids = np.asarray(user_ids, dtype=np.int64)
        clone = copy.copy(self)
        clone._dataset = self.dataset.slice_users(ids)
        clone.user_factors = np.ascontiguousarray(self.user_factors[ids])
        clone.item_factors = None  # attached from shared memory by the replica
        return clone

    def attach_shared_item_state(self, views: dict[str, np.ndarray]) -> None:
        self.item_factors = views["item_factors"]

    def user_state(self, user_id: int) -> np.ndarray:
        return np.array(self.user_factors[int(user_id)])

    def append_sliced_user(self, profile: Sequence[int], user_state) -> int:
        local_id = self.dataset.add_user(profile)
        self.user_factors = np.vstack([self.user_factors, user_state])
        return local_id

    # -- online learning ---------------------------------------------------------
    supports_partial_fit = True

    def partial_fit(self, interactions: Sequence[tuple[int, int]]) -> "MatrixFactorization":
        """Fold-in update: re-derive affected users' rows, freeze items.

        Each interaction extends an existing profile, then the user's
        factor row is re-derived as :meth:`embed_profile` of the
        extended profile — the same fold-in rule injected users get.
        ``item_factors`` are deliberately untouched: the MF snapshot
        captures only ``(dataset, user_factors)`` and sliced replicas
        share one item-factor copy, so an incremental update that moved
        item factors would silently escape both episode restores and
        shared-state replication.
        """
        if self.user_factors is None:
            raise NotFittedError("MatrixFactorization.fit has not been called")
        dataset = self.dataset
        touched: set[int] = set()
        for user_id, item_id in interactions:
            dataset.add_interaction(user_id, item_id)
            touched.add(int(user_id))
        for user_id in sorted(touched):
            self.user_factors[user_id] = self.embed_profile(dataset.user_profile(user_id))
        return self

    # -- mutation ---------------------------------------------------------------
    def add_user(self, profile: Sequence[int]) -> int:
        """Fold in a new user as the mean of their profile's item factors."""
        user_id = self.dataset.add_user(profile)
        self.user_factors = np.vstack([self.user_factors, self.embed_profile(profile)])
        return user_id

    def snapshot(self):
        return (self.dataset.copy(), self.user_factors.copy())

    def restore(self, snapshot) -> None:
        self._dataset, self.user_factors = snapshot[0].copy(), snapshot[1].copy()
