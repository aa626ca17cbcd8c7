"""Core layers: Linear, Embedding, and MLP.

Each non-leaf node of the hierarchical clustering tree hosts an MLP policy
network (paper Section 4.3.3); the crafting policy is another MLP over the
concatenated user/item embeddings (Section 4.4).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.nn import functional as F
from repro.nn.init import gaussian, zeros
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor

__all__ = ["Linear", "Embedding", "MLP"]

_ACTIVATIONS: dict[str, Callable[[Tensor], Tensor]] = {
    "relu": F.relu,
    "tanh": F.tanh,
    "sigmoid": F.sigmoid,
    "identity": lambda x: x,
}


class Linear(Module):
    """Affine map ``y = x W + b``.

    Weights follow the paper's N(0, 0.1) initialisation; biases start at 0.
    """

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator, bias: bool = True) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ConfigurationError("Linear features must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(gaussian((in_features, out_features), rng))
        self.bias = Parameter(zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class Embedding(Module):
    """Lookup table mapping integer ids to dense rows.

    Used for item/user id embeddings inside the PinSage target model and to
    hold the pre-trained MF representations inside the policies.
    """

    def __init__(self, num_embeddings: int, dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        if num_embeddings <= 0 or dim <= 0:
            raise ConfigurationError("Embedding sizes must be positive")
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(gaussian((num_embeddings, dim), rng))

    def forward(self, ids: np.ndarray | Sequence[int]) -> Tensor:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_embeddings):
            raise IndexError(f"embedding ids out of range [0, {self.num_embeddings})")
        return self.weight.gather_rows(ids)


class MLP(Module):
    """Multi-layer perceptron with a configurable activation.

    ``layer_sizes`` lists every width including input and output, e.g.
    ``[16, 32, 4]`` builds ``Linear(16,32) -> act -> Linear(32,4)``.  The
    final layer is linear (logits) so callers can apply (masked) softmax.
    """

    def __init__(
        self,
        layer_sizes: Sequence[int],
        rng: np.random.Generator,
        activation: str = "relu",
    ) -> None:
        super().__init__()
        if len(layer_sizes) < 2:
            raise ConfigurationError("MLP needs at least input and output sizes")
        if activation not in _ACTIVATIONS:
            raise ConfigurationError(f"unknown activation {activation!r}; options: {sorted(_ACTIVATIONS)}")
        self.activation_name = activation
        self._activation = _ACTIVATIONS[activation]
        self.layers = [
            Linear(n_in, n_out, rng)
            for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:])
        ]

    def forward(self, x: Tensor) -> Tensor:
        out = x
        for i, layer in enumerate(self.layers):
            out = layer(out)
            if i < len(self.layers) - 1:
                out = self._activation(out)
        return out
