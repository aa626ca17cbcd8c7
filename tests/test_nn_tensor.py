"""Autograd engine: forward semantics, gradients vs finite differences."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GradientError, ShapeError
from repro.nn.tensor import Tensor, as_tensor, concat, no_grad, stack


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar-valued fn at x."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = fn(x)
        flat[i] = orig - eps
        down = fn(x)
        flat[i] = orig
        grad.reshape(-1)[i] = (up - down) / (2 * eps)
    return grad


class TestForward:
    def test_add_broadcasts(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.arange(3.0))
        out = a + b
        np.testing.assert_allclose(out.data, np.ones((2, 3)) + np.arange(3.0))

    def test_scalar_radd(self):
        out = 2.0 + Tensor([1.0, 2.0])
        np.testing.assert_allclose(out.data, [3.0, 4.0])

    def test_sub_and_rsub(self):
        t = Tensor([1.0, 4.0])
        np.testing.assert_allclose((t - 1.0).data, [0.0, 3.0])
        np.testing.assert_allclose((5.0 - t).data, [4.0, 1.0])

    def test_mul_div(self):
        t = Tensor([2.0, 4.0])
        np.testing.assert_allclose((t * 3.0).data, [6.0, 12.0])
        np.testing.assert_allclose((t / 2.0).data, [1.0, 2.0])
        np.testing.assert_allclose((8.0 / t).data, [4.0, 2.0])

    def test_pow_scalar_only(self):
        t = Tensor([2.0, 3.0])
        np.testing.assert_allclose((t**2).data, [4.0, 9.0])
        with pytest.raises(TypeError):
            t ** Tensor([1.0])

    def test_matmul_2d(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        b = Tensor(np.arange(12.0).reshape(3, 4))
        np.testing.assert_allclose((a @ b).data, a.data @ b.data)

    def test_matmul_vector(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        v = Tensor(np.ones(3))
        np.testing.assert_allclose((a @ v).data, a.data @ v.data)

    def test_reductions(self):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        assert t.sum().item() == 15.0
        np.testing.assert_allclose(t.sum(axis=0).data, [3.0, 5.0, 7.0])
        np.testing.assert_allclose(t.mean(axis=1).data, [1.0, 4.0])
        assert t.max().item() == 5.0

    def test_reshape_transpose(self):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        assert t.reshape(3, 2).shape == (3, 2)
        assert t.T.shape == (3, 2)

    def test_gather_rows(self):
        t = Tensor(np.arange(12.0).reshape(4, 3))
        out = t.gather_rows([1, 1, 3])
        np.testing.assert_allclose(out.data, t.data[[1, 1, 3]])

    def test_item_requires_scalar(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).item()

    def test_detach_cuts_graph(self):
        t = Tensor([1.0], requires_grad=True)
        d = t.detach()
        assert not d.requires_grad

    def test_concat_shapes(self):
        out = concat([Tensor(np.ones(2)), Tensor(np.zeros(3))])
        assert out.shape == (5,)

    def test_concat_empty_raises(self):
        with pytest.raises(ShapeError):
            concat([])

    def test_stack(self):
        out = stack([Tensor(np.ones(3)), Tensor(np.zeros(3))])
        assert out.shape == (2, 3)

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t


class TestBackward:
    def test_backward_requires_grad(self):
        with pytest.raises(GradientError):
            Tensor([1.0]).backward()

    def test_backward_requires_scalar_without_seed(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(GradientError):
            (t * 2).backward()

    def test_add_grad_broadcast_unreduces(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))
        np.testing.assert_allclose(b.grad, 2 * np.ones(3))

    def test_mul_grad(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([4.0, 5.0], requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, [4.0, 5.0])
        np.testing.assert_allclose(b.grad, [2.0, 3.0])

    def test_div_grad(self):
        a = Tensor([6.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        (a / b).backward()
        np.testing.assert_allclose(a.grad, [1.0 / 3.0])
        np.testing.assert_allclose(b.grad, [-6.0 / 9.0])

    def test_matmul_grad_matches_numeric(self):
        rng = np.random.default_rng(0)
        a0 = rng.normal(size=(3, 4))
        b0 = rng.normal(size=(4, 2))
        a = Tensor(a0.copy(), requires_grad=True)
        b = Tensor(b0.copy(), requires_grad=True)
        ((a @ b) ** 2).sum().backward()
        num_a = numeric_grad(lambda x: ((x @ b0) ** 2).sum(), a0.copy())
        num_b = numeric_grad(lambda x: ((a0 @ x) ** 2).sum(), b0.copy())
        np.testing.assert_allclose(a.grad, num_a, atol=1e-5)
        np.testing.assert_allclose(b.grad, num_b, atol=1e-5)

    @pytest.mark.parametrize(
        "op",
        ["exp", "log", "tanh", "sigmoid", "relu"],
    )
    def test_unary_grads_match_numeric(self, op):
        rng = np.random.default_rng(1)
        x0 = rng.uniform(0.2, 2.0, size=(2, 3))  # positive domain covers log

        def scalar_fn(x):
            return float(getattr(Tensor(x), op)().sum().data)

        x = Tensor(x0.copy(), requires_grad=True)
        getattr(x, op)().sum().backward()
        np.testing.assert_allclose(x.grad, numeric_grad(scalar_fn, x0.copy()), atol=1e-5)

    def test_max_grad_splits_ties(self):
        x = Tensor([1.0, 3.0, 3.0], requires_grad=True)
        x.max().backward()
        np.testing.assert_allclose(x.grad, [0.0, 0.5, 0.5])

    def test_sum_axis_grad(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        (x.sum(axis=1) ** 2).sum().backward()
        np.testing.assert_allclose(x.grad, 6 * np.ones((2, 3)))

    def test_gather_rows_accumulates_duplicates(self):
        x = Tensor(np.zeros((3, 2)), requires_grad=True)
        x.gather_rows([1, 1, 2]).sum().backward()
        np.testing.assert_allclose(x.grad, [[0, 0], [2, 2], [1, 1]])

    @pytest.mark.parametrize("seed", range(20))
    def test_gather_rows_grad_bitwise_equals_add_at(self, seed):
        """The scatter-add backward sums each row in index order, exactly as
        ``np.add.at`` does, so the gradients agree bit for bit (duplicates,
        negative indices, 2-D index arrays and 1-D/3-D tables included)."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        row_shape = [(), (int(rng.integers(1, 5)),), (2, 3)][seed % 3]
        idx = rng.integers(-n, n, size=(int(rng.integers(0, 30)),))
        if seed % 2:
            idx = idx[: idx.size // 2 * 2].reshape(-1, 2)
        x = Tensor(rng.normal(size=(n, *row_shape)), requires_grad=True)
        g_shape = idx.shape + row_shape
        upstream = rng.normal(size=g_shape) * 10.0 ** rng.integers(-8, 8, size=g_shape)
        (x.gather_rows(idx) * Tensor(upstream)).sum().backward()
        expected = np.zeros_like(x.data)
        np.add.at(expected, idx, upstream)
        np.testing.assert_array_equal(x.grad, expected)

    def test_getitem_int_grad(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        x[1].backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])

    def test_concat_routes_grads(self):
        a = Tensor(np.ones(2), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        out = concat([a, b])
        (out * Tensor(np.arange(5.0))).sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0])
        np.testing.assert_allclose(b.grad, [2.0, 3.0, 4.0])

    def test_stack_routes_grads(self):
        a = Tensor(np.ones(2), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=True)
        out = stack([a, b], axis=0)
        (out * Tensor([[1.0, 2.0], [3.0, 4.0]])).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 2.0])
        np.testing.assert_allclose(b.grad, [3.0, 4.0])

    def test_grad_accumulates_across_uses(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * 3.0 + x * 4.0
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_diamond_graph(self):
        x = Tensor([1.0], requires_grad=True)
        a = x * 2.0
        b = x * 3.0
        (a * b).backward()  # d/dx 6x^2 = 12x
        np.testing.assert_allclose(x.grad, [12.0])

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).backward()
        x.zero_grad()
        assert x.grad is None


class TestNoGrad:
    def test_no_grad_disables_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad

    def test_no_grad_restores(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            pass
        y = x * 2.0
        assert y.requires_grad


@st.composite
def small_arrays(draw):
    shape = draw(st.sampled_from([(2,), (3,), (2, 2), (2, 3)]))
    values = draw(
        st.lists(
            st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
            min_size=int(np.prod(shape)),
            max_size=int(np.prod(shape)),
        )
    )
    return np.asarray(values).reshape(shape)


class TestGradcheckProperties:
    @given(small_arrays())
    @settings(max_examples=30, deadline=None)
    def test_tanh_chain_gradcheck(self, x0):
        x = Tensor(x0.copy(), requires_grad=True)
        ((x.tanh() * x).sum()).backward()
        num = numeric_grad(lambda a: float((np.tanh(a) * a).sum()), x0.copy())
        np.testing.assert_allclose(x.grad, num, atol=1e-4)

    @given(small_arrays())
    @settings(max_examples=30, deadline=None)
    def test_sigmoid_sum_gradcheck(self, x0):
        x = Tensor(x0.copy(), requires_grad=True)
        x.sigmoid().sum().backward()
        sig = 1.0 / (1.0 + np.exp(-x0))
        np.testing.assert_allclose(x.grad, sig * (1 - sig), atol=1e-6)

    @given(small_arrays())
    @settings(max_examples=30, deadline=None)
    def test_forward_matches_numpy(self, x0):
        t = Tensor(x0)
        np.testing.assert_allclose((t * 2 + 1).data, x0 * 2 + 1)
        np.testing.assert_allclose(t.sum().data, x0.sum())
        np.testing.assert_allclose(t.mean().data, x0.mean())
