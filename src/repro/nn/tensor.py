"""A small reverse-mode automatic differentiation engine over numpy.

The paper's original implementation uses TensorFlow; no deep-learning
framework is available in this environment, so the policy networks, the
RNN state encoder, and the PinSage-style target model are all built on
this engine.  It supports exactly the operations those models need:

* elementwise arithmetic with numpy-style broadcasting,
* matrix multiplication,
* ``exp`` / ``log`` / ``tanh`` / ``sigmoid`` / ``relu``,
* reductions (``sum`` / ``mean`` / ``max``),
* shape ops (``reshape`` / ``transpose`` / ``concat``),
* row gathering with scatter-add gradients (embedding lookups).

Gradients are accumulated into :attr:`Tensor.grad` by :meth:`Tensor.backward`,
which performs a topological sort of the recorded graph.  The engine is
deliberately eager and single-threaded; graphs are tiny (MLPs with a few
hundred units) so clarity wins over throughput.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from repro.errors import GradientError, ShapeError

__all__ = [
    "Tensor",
    "as_tensor",
    "concat",
    "stack",
    "no_grad",
    "is_grad_enabled",
    "scatter_add_rows",
]

_GRAD_ENABLED = True


class no_grad:
    """Context manager disabling graph recording, like ``torch.no_grad``.

    Used on the hot query path of the black-box recommender, where the
    attacker only observes scores and no gradient is ever needed.
    """

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._previous = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after numpy broadcasting.

    Summation runs over the leading axes numpy added, then over every axis
    that was broadcast from size 1.
    """
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def scatter_add_rows(index: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """``out[index[k]] += rows[k]`` for every ``k``, into ``n`` zero rows.

    One flat ``np.bincount`` over (row, column) keys.  Each output entry
    is summed in ``k`` order starting from ``0.0``, exactly as
    ``np.add.at(np.zeros(...), index, rows)`` does, so the two are bitwise
    equal, without ``add.at``'s per-element dispatch.
    """
    rows = np.asarray(rows, dtype=np.float64)
    f = int(np.prod(rows.shape[1:], dtype=np.int64))
    keys = (index.reshape(-1, 1) * f + np.arange(f)).reshape(-1)
    out = np.bincount(keys, weights=rows.reshape(-1), minlength=n * f)
    return out.reshape((n,) + rows.shape[1:])


class Tensor:
    """A numpy array plus the bookkeeping needed for reverse-mode autodiff.

    Parameters
    ----------
    data:
        Anything ``np.asarray`` accepts.  Stored as ``float64`` so gradient
        checks against finite differences are tight.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(
        self,
        data: np.ndarray | float | Sequence,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: np.ndarray | None = None
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None

    # -- basic introspection -------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._raise_item()

    def _raise_item(self) -> float:
        raise ShapeError(f"item() requires a single-element tensor, got shape {self.shape}")

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy; treat as read-only)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut out of the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to ``None``."""
        self.grad = None

    # -- graph construction helpers -------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(p for p in parents if p.requires_grad)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    # -- arithmetic ------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data + other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g)
            if other.requires_grad:
                other._accumulate(g)

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            self._accumulate(-g)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data * other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * other.data)
            if other.requires_grad:
                other._accumulate(g * self.data)

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data / other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g / other.data)
            if other.requires_grad:
                other._accumulate(-g * self.data / (other.data**2))

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor ** only supports scalar exponents")
        out_data = self.data**exponent

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data @ other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    self._accumulate(np.outer(g, other.data) if g.ndim else g * other.data)
                else:
                    g2 = g if g.ndim > 1 else g.reshape(1, -1)
                    lhs = g2 @ other.data.swapaxes(-1, -2)
                    self._accumulate(lhs.reshape(self.data.shape))
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate(np.outer(self.data, g) if g.ndim else self.data * g)
                else:
                    g2 = g if g.ndim > 1 else g.reshape(-1, 1)
                    rhs = self.data.swapaxes(-1, -2) @ g2
                    other._accumulate(rhs.reshape(other.data.shape))

        return Tensor._make(out_data, (self, other), backward)

    # -- elementwise nonlinearities ---------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g / self.data)

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * (1.0 - out_data**2))

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * mask)

        return Tensor._make(out_data, (self,), backward)

    # -- reductions ---------------------------------------------------------------
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            grad = np.asarray(g)
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else axis
                for ax in sorted(ax % self.data.ndim for ax in axes):
                    grad = np.expand_dims(grad, ax)
            self._accumulate(np.broadcast_to(grad, self.data.shape))

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else axis
            count = int(np.prod([self.data.shape[ax] for ax in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            grad = np.asarray(g)
            expanded = out_data
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
                expanded = np.expand_dims(out_data, axis)
            mask = self.data == expanded
            # Split gradient among ties, matching the subgradient convention.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(grad * mask / counts)

        return Tensor._make(out_data, (self,), backward)

    # -- shape ops ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def backward(g: np.ndarray) -> None:
            self._accumulate(np.asarray(g).reshape(self.data.shape))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self) -> "Tensor":
        out_data = self.data.T

        def backward(g: np.ndarray) -> None:
            self._accumulate(np.asarray(g).T)

        return Tensor._make(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def gather_rows(self, indices: np.ndarray | Sequence[int]) -> "Tensor":
        """Select rows (first-axis entries) by integer index.

        The backward pass scatter-adds into the selected rows, which is what
        makes this usable as an embedding lookup: repeated indices accumulate.
        """
        idx = np.asarray(indices, dtype=np.int64)
        out_data = self.data[idx]

        def backward(g: np.ndarray) -> None:
            n = self.data.shape[0]
            rows = np.asarray(g).reshape((idx.size,) + self.data.shape[1:])
            # ``% n`` wraps negative indices the way the forward gather does.
            self._accumulate(scatter_add_rows(idx % n, rows, n))

        return Tensor._make(out_data, (self,), backward)

    def __getitem__(self, key) -> "Tensor":
        out_data = self.data[key]

        def backward(g: np.ndarray) -> None:
            grad = np.zeros_like(self.data)
            np.add.at(grad, key, np.asarray(g))
            self._accumulate(grad)

        return Tensor._make(out_data, (self,), backward)

    # -- backward -------------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        Parameters
        ----------
        grad:
            Seed gradient.  Defaults to ``1.0`` which requires this tensor to
            be a scalar, mirroring the convention of mainstream frameworks.
        """
        if not self.requires_grad:
            raise GradientError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise GradientError("backward() without a seed requires a scalar tensor")
            grad = np.ones_like(self.data)

        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        self._accumulate(np.asarray(grad, dtype=np.float64))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def as_tensor(value) -> Tensor:
    """Coerce ``value`` into a :class:`Tensor` (no copy if already one)."""
    return value if isinstance(value, Tensor) else Tensor(value)


def concat(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing.

    This implements the ``⊕`` operation the paper uses to combine the
    target-item embedding with the RNN state in the policy inputs.
    """
    parts = [as_tensor(t) for t in tensors]
    if not parts:
        raise ShapeError("concat() requires at least one tensor")
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    ax = axis % out_data.ndim
    sizes = [p.data.shape[ax] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray) -> None:
        g = np.asarray(g)
        for part, start, stop in zip(parts, offsets[:-1], offsets[1:]):
            if part.requires_grad:
                slicer = [slice(None)] * out_data.ndim
                slicer[ax] = slice(start, stop)
                part._accumulate(g[tuple(slicer)])

    return Tensor._make(out_data, tuple(parts), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack equal-shape tensors along a new axis with gradient routing."""
    parts = [as_tensor(t) for t in tensors]
    if not parts:
        raise ShapeError("stack() requires at least one tensor")
    out_data = np.stack([p.data for p in parts], axis=axis)
    ax = axis % out_data.ndim

    def backward(g: np.ndarray) -> None:
        g = np.asarray(g)
        for i, part in enumerate(parts):
            if part.requires_grad:
                part._accumulate(np.take(g, i, axis=ax))

    return Tensor._make(out_data, tuple(parts), backward)
