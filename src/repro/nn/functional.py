"""Functional building blocks over the tensor ops.

These mirror the handful of TensorFlow functions the paper relies on:
``softmax`` for the per-node child distributions, a *masked* softmax for
the masking mechanism of Section 4.3.2, and numerically-stable log
variants used by the REINFORCE loss.  ``linear`` and the two log-softmax
variants are fused: each is one graph node whose forward value is
bitwise equal to the composite of primitive ops it replaces, so the
graph an agent episode builds (and walks backward) is smaller.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.nn.tensor import Tensor, as_tensor, matmul_grad_lhs, matmul_grad_rhs

__all__ = [
    "linear",
    "softmax",
    "log_softmax",
    "masked_softmax",
    "masked_log_softmax",
    "relu",
    "sigmoid",
    "tanh",
    "dot",
]


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return as_tensor(x).relu()


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid."""
    return as_tensor(x).sigmoid()


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    return as_tensor(x).tanh()


def dot(a: Tensor, b: Tensor) -> Tensor:
    """Inner product of two 1-D tensors."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 1 or b.ndim != 1:
        raise ShapeError(f"dot() expects 1-D tensors, got {a.shape} and {b.shape}")
    return (a * b).sum()


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """``x @ weight + bias`` as one graph node (``bias`` may be None)."""
    x, weight = as_tensor(x), as_tensor(weight)
    out_data = x.data @ weight.data
    if bias is not None:
        out_data = out_data + bias.data

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(matmul_grad_lhs(g, x.data, weight.data))
        if weight.requires_grad:
            weight._accumulate(matmul_grad_rhs(g, x.data, weight.data))
        if bias is not None and bias.requires_grad:
            bias._accumulate(g)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(out_data, parents, backward)


def _log_softmax_node(logits: Tensor, z: np.ndarray, axis: int) -> Tensor:
    """One node computing ``log_softmax(z)``; its gradient flows to ``logits``.

    ``z`` is ``logits.data`` plus any constant offset.  The arithmetic is
    the composite's, op for op: subtract the detached max, then the log
    of the summed exponentials.
    """
    shifted = z + (-z.max(axis=axis, keepdims=True))
    out_data = shifted + (-np.log(np.exp(shifted).sum(axis=axis, keepdims=True)))

    def backward(g: np.ndarray) -> None:
        logits._accumulate(g - np.exp(out_data) * g.sum(axis=axis, keepdims=True))

    return Tensor._make(out_data, (logits,), backward)


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable ``log(softmax(logits))`` along ``axis``."""
    logits = as_tensor(logits)
    return _log_softmax_node(logits, logits.data, axis)


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` (stable via max subtraction)."""
    return log_softmax(logits, axis=axis).exp()


def _mask_array(mask, shape: tuple[int, ...]) -> np.ndarray:
    arr = np.asarray(mask, dtype=bool)
    if arr.shape != shape:
        try:
            arr = np.broadcast_to(arr, shape)
        except ValueError as exc:
            raise ShapeError(f"mask shape {arr.shape} incompatible with logits {shape}") from exc
    return arr


def masked_log_softmax(logits: Tensor, mask, axis: int = -1) -> Tensor:
    """Log-softmax restricted to positions where ``mask`` is True.

    Masked positions receive a large negative logit offset so their
    probability underflows to ~0 while gradients for allowed positions stay
    exact.  This implements the paper's masking mechanism: subtrees whose
    user profiles lack the target item become unreachable actions.

    Raises
    ------
    ShapeError
        If every position along the reduction is masked (no valid action).
    """
    logits = as_tensor(logits)
    arr = _mask_array(mask, logits.shape)
    if not arr.any(axis=axis).all():
        raise ShapeError("masked_log_softmax: at least one position must be unmasked")
    return _log_softmax_node(logits, logits.data + np.where(arr, 0.0, -1e9), axis)


def masked_softmax(logits: Tensor, mask, axis: int = -1) -> Tensor:
    """Softmax restricted to unmasked positions (see :func:`masked_log_softmax`)."""
    return masked_log_softmax(logits, mask, axis=axis).exp()
