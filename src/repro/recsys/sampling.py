"""Offset-array neighbourhood sampling for the trained target models.

PinSage and NeuralCF train on uniform samples (with replacement) from
user profiles and item profiles, and every BPR trainer (MF included)
screens negative items against the user's profile.
:class:`BipartiteIndex` freezes both adjacency lists of an
:class:`~repro.data.interactions.InteractionDataset` into CSR-style
offset arrays once per training run, so a whole batch of samples is one
:func:`~repro.utils.rng.bounded_integers` draw plus one gather, and the
negative screen is one ``searchsorted``.  The lists keep the dataset's
own order (profile order per user, append order per item) and the draw
consumes exactly the words a per-row ``rng.integers(0, degree, size=n)``
loop would, so a seeded fit is bit-identical to the loop it replaces.
"""

from __future__ import annotations

import numpy as np

from repro.data.interactions import InteractionDataset
from repro.utils.rng import bounded_integers

__all__ = ["BipartiteIndex"]


def _offsets(degree: np.ndarray) -> np.ndarray:
    offsets = np.zeros(degree.size + 1, dtype=np.int64)
    np.cumsum(degree, out=offsets[1:])
    return offsets


class BipartiteIndex:
    """Frozen user→items and item→users offset arrays of one dataset.

    Valid for the dataset as it was at construction; training loops build
    one per run, before any sample is drawn.
    """

    def __init__(self, dataset: InteractionDataset) -> None:
        n_items = dataset.n_items
        self.n_items = n_items
        #: Every interaction in user order: ``entry_users[k]`` owns ``user_items[k]``.
        self.entry_users, self.user_items = dataset.interaction_arrays()
        self.user_degree = dataset.profile_lengths()
        item_rows = [dataset.users_with_item(v) for v in range(n_items)]
        self.item_users = np.concatenate([np.zeros(0, dtype=np.int64), *item_rows])
        self.item_degree = np.fromiter(map(len, item_rows), dtype=np.int64, count=n_items)
        self._user_offsets = _offsets(self.user_degree)
        self._item_offsets = _offsets(self.item_degree)
        self._pair_keys = np.sort(self.entry_users * n_items + self.user_items)

    def sample_profiles(
        self, user_ids: np.ndarray, n_samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        """``(len(user_ids), n_samples)`` profile items, with replacement.

        Row ``r`` draws like ``rng.integers(0, len(P_u), size=n_samples)``.
        """
        degree = self.user_degree[user_ids]
        if not degree.all():
            raise ValueError("cannot sample from an empty user profile")
        picks = bounded_integers(rng, np.repeat(degree, n_samples).reshape(-1, n_samples))
        return self.user_items[self._user_offsets[user_ids][:, None] + picks]

    def sample_item_users(
        self, item_ids: np.ndarray, n_samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        """``(len(item_ids), n_samples)`` users of each item, with replacement.

        Rows of items nobody interacted with draw nothing and hold user 0.
        """
        degree = self.item_degree[item_ids]
        picks = bounded_integers(rng, np.repeat(degree, n_samples).reshape(-1, n_samples))
        users = np.zeros(picks.shape, dtype=np.int64)
        has_users = degree > 0
        users[has_users] = self.item_users[
            self._item_offsets[item_ids[has_users]][:, None] + picks[has_users]
        ]
        return users

    def contains(self, user_ids: np.ndarray, item_ids: np.ndarray) -> np.ndarray:
        """Elementwise ``dataset.has(u, v)`` over paired id arrays."""
        keys = user_ids * self.n_items + item_ids
        pos = np.searchsorted(self._pair_keys, keys)
        found = np.zeros(keys.shape, dtype=bool)
        inside = pos < self._pair_keys.size
        found[inside] = self._pair_keys[pos[inside]] == keys[inside]
        return found
