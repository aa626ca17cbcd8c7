"""Fused graph nodes equal the composites of primitive ops they replace.

``F.linear``, ``F.log_softmax`` and ``F.masked_log_softmax`` each build
one node.  Their forward values must be bitwise equal to the primitive
composites (the agent's actions depend on them); ``linear``'s gradients
are bitwise equal too (PinSage training stays bit-identical), while the
log-softmax gradients use the closed form and only agree to rounding.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Linear, Tensor
from repro.nn import functional as F


def _composite_log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    shifted = logits - logits.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def _composite_masked_log_softmax(logits: Tensor, mask, axis: int = -1) -> Tensor:
    offset = np.where(np.broadcast_to(np.asarray(mask, dtype=bool), logits.shape), 0.0, -1e9)
    return _composite_log_softmax(logits + Tensor(offset), axis=axis)


def _leaf(data) -> Tensor:
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


class TestFusedLinear:
    @pytest.mark.parametrize("x_shape", [(5,), (7, 5), (1, 5)])
    @pytest.mark.parametrize("with_bias", [True, False])
    def test_values_and_gradients_bitwise(self, x_shape, with_bias):
        rng = np.random.default_rng(len(x_shape) * 10 + with_bias)
        x_data = rng.normal(size=x_shape)
        w_data = rng.normal(size=(5, 3))
        b_data = rng.normal(size=3)
        seed_grad = rng.normal(size=x_shape[:-1] + (3,))

        def run(fused: bool):
            x, w = _leaf(x_data), _leaf(w_data)
            b = _leaf(b_data) if with_bias else None
            if fused:
                out = F.linear(x, w, b)
            else:
                out = x @ w
                if b is not None:
                    out = out + b
            out.backward(seed_grad)
            grads = [x.grad, w.grad] + ([b.grad] if b is not None else [])
            return out.data, grads

        fused_out, fused_grads = run(True)
        ref_out, ref_grads = run(False)
        np.testing.assert_array_equal(fused_out, ref_out)
        for got, want in zip(fused_grads, ref_grads):
            np.testing.assert_array_equal(got, want)

    def test_layer_uses_one_node(self, rng):
        layer = Linear(4, 3, rng)
        out = layer(Tensor(rng.normal(size=(2, 4))))
        assert set(map(id, out._parents)) == {id(layer.weight), id(layer.bias)}

    def test_input_without_grad_gets_none(self, rng):
        layer = Linear(4, 3, rng)
        x = Tensor(rng.normal(size=4))
        layer(x).sum().backward()
        assert x.grad is None
        assert layer.weight.grad is not None


class TestFusedLogSoftmax:
    @pytest.mark.parametrize("shape,axis", [((6,), -1), ((4, 6), -1), ((4, 6), 0)])
    def test_forward_bitwise_backward_close(self, shape, axis):
        rng = np.random.default_rng(sum(shape) + axis)
        data = rng.normal(size=shape) * 3.0
        seed_grad = rng.normal(size=shape)
        fused_in, ref_in = _leaf(data), _leaf(data)
        fused = F.log_softmax(fused_in, axis=axis)
        ref = _composite_log_softmax(ref_in, axis=axis)
        np.testing.assert_array_equal(fused.data, ref.data)
        fused.backward(seed_grad)
        ref.backward(seed_grad)
        np.testing.assert_allclose(fused_in.grad, ref_in.grad, rtol=1e-10, atol=1e-13)

    @pytest.mark.parametrize("shape", [(6,), (3, 6)])
    def test_masked_forward_bitwise_backward_close(self, shape):
        rng = np.random.default_rng(sum(shape))
        data = rng.normal(size=shape)
        mask = rng.random(size=shape) < 0.6
        mask[..., 0] = True  # at least one admissible position per row
        seed_grad = rng.normal(size=shape)
        fused_in, ref_in = _leaf(data), _leaf(data)
        fused = F.masked_log_softmax(fused_in, mask)
        ref = _composite_masked_log_softmax(ref_in, mask)
        np.testing.assert_array_equal(fused.data, ref.data)
        fused.backward(seed_grad)
        ref.backward(seed_grad)
        np.testing.assert_allclose(fused_in.grad, ref_in.grad, rtol=1e-10, atol=1e-13)

    def test_softmax_built_on_fused_node_matches(self):
        data = np.array([0.3, -1.2, 2.5, 0.0])
        np.testing.assert_array_equal(
            F.softmax(Tensor(data)).data, _composite_log_softmax(Tensor(data)).exp().data
        )
