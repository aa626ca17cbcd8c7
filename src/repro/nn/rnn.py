"""Recurrent cells and the sequence encoder used for the policy state.

Section 4.3.3 models the set of already-selected source users
``U^{B->A}_t`` with an RNN; its final hidden state ``x_{v*}`` is
concatenated with the target-item embedding to form each policy input.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.nn import functional as F
from repro.nn.init import gaussian, zeros
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, concat

__all__ = ["RNNCell", "GRUCell", "LSTMCell", "SequenceEncoder"]


class RNNCell(Module):
    """Elman recurrence: ``h' = tanh(x W_x + h W_h + b)``."""

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        if input_dim <= 0 or hidden_dim <= 0:
            raise ConfigurationError("RNNCell dims must be positive")
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.w_x = Parameter(gaussian((input_dim, hidden_dim), rng))
        self.w_h = Parameter(gaussian((hidden_dim, hidden_dim), rng))
        self.bias = Parameter(zeros((hidden_dim,)))

    @property
    def state_dim(self) -> int:
        """Width of the carried recurrent state."""
        return self.hidden_dim

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        return F.tanh(x @ self.w_x + h @ self.w_h + self.bias)


class GRUCell(Module):
    """Gated recurrent unit (update/reset gates), a drop-in upgrade of RNNCell."""

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        if input_dim <= 0 or hidden_dim <= 0:
            raise ConfigurationError("GRUCell dims must be positive")
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.w_xz = Parameter(gaussian((input_dim, hidden_dim), rng))
        self.w_hz = Parameter(gaussian((hidden_dim, hidden_dim), rng))
        self.b_z = Parameter(zeros((hidden_dim,)))
        self.w_xr = Parameter(gaussian((input_dim, hidden_dim), rng))
        self.w_hr = Parameter(gaussian((hidden_dim, hidden_dim), rng))
        self.b_r = Parameter(zeros((hidden_dim,)))
        self.w_xn = Parameter(gaussian((input_dim, hidden_dim), rng))
        self.w_hn = Parameter(gaussian((hidden_dim, hidden_dim), rng))
        self.b_n = Parameter(zeros((hidden_dim,)))

    @property
    def state_dim(self) -> int:
        """Width of the carried recurrent state."""
        return self.hidden_dim

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        z = F.sigmoid(x @ self.w_xz + h @ self.w_hz + self.b_z)
        r = F.sigmoid(x @ self.w_xr + h @ self.w_hr + self.b_r)
        n = F.tanh(x @ self.w_xn + (r * h) @ self.w_hn + self.b_n)
        return (1.0 - z) * n + z * h


class LSTMCell(Module):
    """Long short-term memory cell (input/forget/output gates + cell state).

    The carried state is the concatenation ``[h ; c]`` so the cell slots
    into :class:`SequenceEncoder`'s single-state recurrence; ``hidden_dim``
    refers to ``h``'s width and the exposed state is ``h`` only.
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        if input_dim <= 0 or hidden_dim <= 0:
            raise ConfigurationError("LSTMCell dims must be positive")
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.w_xi = Parameter(gaussian((input_dim, hidden_dim), rng))
        self.w_hi = Parameter(gaussian((hidden_dim, hidden_dim), rng))
        self.b_i = Parameter(zeros((hidden_dim,)))
        self.w_xf = Parameter(gaussian((input_dim, hidden_dim), rng))
        self.w_hf = Parameter(gaussian((hidden_dim, hidden_dim), rng))
        # Forget bias starts at 1: the standard trick keeping early-training
        # gradients flowing through the cell state.
        self.b_f = Parameter(zeros((hidden_dim,)) + 1.0)
        self.w_xo = Parameter(gaussian((input_dim, hidden_dim), rng))
        self.w_ho = Parameter(gaussian((hidden_dim, hidden_dim), rng))
        self.b_o = Parameter(zeros((hidden_dim,)))
        self.w_xg = Parameter(gaussian((input_dim, hidden_dim), rng))
        self.w_hg = Parameter(gaussian((hidden_dim, hidden_dim), rng))
        self.b_g = Parameter(zeros((hidden_dim,)))

    def step(self, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
        """One LSTM step; returns ``(h', c')``."""
        i = F.sigmoid(x @ self.w_xi + h @ self.w_hi + self.b_i)  # noqa: E741 - gate names
        f = F.sigmoid(x @ self.w_xf + h @ self.w_hf + self.b_f)
        o = F.sigmoid(x @ self.w_xo + h @ self.w_ho + self.b_o)
        g = F.tanh(x @ self.w_xg + h @ self.w_hg + self.b_g)
        c_next = f * c + i * g
        return o * F.tanh(c_next), c_next

    @property
    def state_dim(self) -> int:
        """Width of the carried recurrent state (``[h ; c]``)."""
        return 2 * self.hidden_dim

    def forward(self, x: Tensor, state: Tensor) -> Tensor:
        """SequenceEncoder-compatible step over the packed ``[h ; c]`` state."""
        hidden = self.hidden_dim
        flat = state.reshape(1, -1) if state.ndim == 1 else state
        h = flat[:, :hidden]
        c = flat[:, hidden:]
        h_next, c_next = self.step(x, h, c)
        return concat([h_next, c_next], axis=-1)


_CELLS = {"rnn": RNNCell, "gru": GRUCell, "lstm": LSTMCell}


class SequenceEncoder(Module):
    """Encode a variable-length sequence of vectors into one hidden state.

    An empty sequence encodes to the zero vector, matching the paper's note
    that at ``t=0`` the selected-user set is empty and "would not provide
    any insights from the RNN".
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        rng: np.random.Generator,
        cell: str = "rnn",
    ) -> None:
        super().__init__()
        if cell not in _CELLS:
            raise ConfigurationError(f"unknown cell {cell!r}; options: {sorted(_CELLS)}")
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.cell = _CELLS[cell](input_dim, hidden_dim, rng)

    def initial_state(self) -> Tensor:
        """The packed zero state, shape ``(1, state_dim)``, before any input."""
        return Tensor(np.zeros((1, self.cell.state_dim)))

    def step(self, state: Tensor, x: Tensor) -> Tensor:
        """Advance the packed ``(1, state_dim)`` state by one input vector.

        This is the recurrence; :meth:`forward` folds over it, and a caller
        that grows a sequence one element at a time (the CopyAttack policy
        state) carries the state across calls instead of re-running the
        prefix.
        """
        return self.cell(x.reshape(1, -1) if x.ndim == 1 else x, state)

    def hidden(self, state: Tensor) -> Tensor:
        """The exposed 1-D ``h`` of a packed state.

        Cells may carry extra state beyond ``h`` (the LSTM carries its cell
        state); only the first ``hidden_dim`` entries are exposed.
        """
        flat = state.reshape(self.cell.state_dim)
        if self.cell.state_dim == self.hidden_dim:
            return flat
        return flat[:self.hidden_dim]

    def forward(self, steps: Sequence[Tensor]) -> Tensor:
        """Run the recurrence over ``steps``; returns the final ``h`` (1-D)."""
        state = self.initial_state()
        for x in steps:
            state = self.step(state, x)
        return self.hidden(state)

    def encode_matrix(self, matrix: np.ndarray) -> Tensor:
        """Encode the rows of a (steps, input_dim) array without grads to inputs."""
        return self.forward([Tensor(row) for row in np.atleast_2d(matrix)]) if matrix.size else self.forward([])
