"""Policy state encoder (paper Section 4.3.3).

The state combines the target item and the users selected so far:

    x_{v*} = RNN(U^{B->A}_t)
    state  = q^B_{v*} ⊕ x_{v*}

``q^B`` and ``p^B`` are the *pre-trained* MF item/user embeddings from the
source domain (fixed — only the RNN and the policy MLPs train).  At t=0
the selected-user set is empty and the RNN contributes its zero initial
state, matching the paper's random seeding of the first action.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.nn import Module, SequenceEncoder, Tensor, concat

__all__ = ["PolicyStateEncoder", "SelectionPrefix"]


class SelectionPrefix:
    """The users selected so far in one episode, with the RNN state after each.

    :meth:`PolicyStateEncoder.encode` advances it over the users appended
    since its last call, so an episode of ``T`` steps runs ``T`` RNN cell
    steps instead of ``T(T-1)/2`` and every step's state shares one graph.
    The states hold autograd graphs over the encoder's current weights,
    which change with every REINFORCE update, so a prefix lives for one
    episode (:meth:`CopyAttackAgent.rollout` owns it) and is never kept
    on the encoder.
    """

    def __init__(self, users: Sequence[int] = ()) -> None:
        self.users: list[int] = [int(u) for u in users]
        self.states: list[Tensor] = []  # states[i]: packed RNN state after users[: i + 1]

    def append(self, user_id: int) -> None:
        """Record the next selected user (encoded on the next ``encode``)."""
        self.users.append(int(user_id))

    def __len__(self) -> int:
        return len(self.users)


class PolicyStateEncoder(Module):
    """Encodes ``(target item, selected users)`` into the policy input."""

    def __init__(
        self,
        user_embeddings: np.ndarray,
        item_embeddings: np.ndarray,
        rng: np.random.Generator,
        cell: str = "rnn",
    ) -> None:
        super().__init__()
        user_embeddings = np.asarray(user_embeddings, dtype=np.float64)
        item_embeddings = np.asarray(item_embeddings, dtype=np.float64)
        if user_embeddings.ndim != 2 or item_embeddings.ndim != 2:
            raise ConfigurationError("embeddings must be 2-D arrays")
        if user_embeddings.shape[1] != item_embeddings.shape[1]:
            raise ConfigurationError("user and item embedding dims must match")
        self.user_embeddings = user_embeddings  # fixed, not a parameter
        self.item_embeddings = item_embeddings  # fixed, not a parameter
        self.dim = user_embeddings.shape[1]
        self.rnn = SequenceEncoder(self.dim, self.dim, rng, cell=cell)

    @property
    def state_dim(self) -> int:
        """Dimension of the encoded state (item embedding ⊕ RNN state)."""
        return 2 * self.dim

    def user_vector(self, user_id: int) -> np.ndarray:
        """Pre-trained MF embedding ``p^B_i`` of a source user."""
        return self.user_embeddings[user_id]

    def item_vector(self, item_id: int) -> np.ndarray:
        """Pre-trained MF embedding ``q^B_v`` of a source-domain item."""
        return self.item_embeddings[item_id]

    def encode(
        self, target_item: int, selected_users: SelectionPrefix | Sequence[int]
    ) -> Tensor:
        """Autograd state vector ``q ⊕ h`` for the current step.

        A :class:`SelectionPrefix` is advanced in place over the users
        appended since the last call; a plain sequence of user ids is
        encoded from the zero state.  Either way the values equal a fresh
        run of the RNN over the whole sequence, bit for bit.
        """
        prefix = selected_users
        if not isinstance(prefix, SelectionPrefix):
            prefix = SelectionPrefix(prefix)
        state = prefix.states[-1] if prefix.states else self.rnn.initial_state()
        for user_id in prefix.users[len(prefix.states):]:
            state = self.rnn.step(state, Tensor(self.user_embeddings[user_id]))
            prefix.states.append(state)
        q = Tensor(self.item_embeddings[target_item])
        return concat([q, self.rnn.hidden(state)], axis=-1)
