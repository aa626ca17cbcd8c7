"""``bounded_integers`` draws exactly what a per-entry ``rng.integers`` loop draws.

The oracle is the sequential loop itself: values and the generator state
afterwards must both match, so a sampler that swaps its loop for the
helper keeps every seeded result.  A numpy release that changes how
``Generator.integers`` maps words to bounded ints fails here first.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.rng import bounded_integers

BIT_GENERATORS = [
    np.random.PCG64,
    np.random.PCG64DXSM,
    np.random.MT19937,
    np.random.Philox,
    np.random.SFC64,
]


def _loop(rng: np.random.Generator, bounds: np.ndarray) -> np.ndarray:
    flat = [rng.integers(0, int(b)) if b >= 1 else 0 for b in np.ravel(bounds)]
    return np.asarray(flat, dtype=np.int64).reshape(np.shape(bounds))


def _pair(seed: int, bit_generator=np.random.PCG64, phase: int = 0):
    """Two identical generators, each advanced by ``phase`` 32-bit words."""
    pair = [np.random.Generator(bit_generator(seed)) for _ in range(2)]
    for rng in pair:
        rng.integers(0, 2**32, size=phase, dtype=np.uint32)
    return pair


def _assert_same(bounds, seed: int = 0, bit_generator=np.random.PCG64, phase: int = 0):
    fast, slow = _pair(seed, bit_generator, phase)
    got = bounded_integers(fast, bounds)
    want = _loop(slow, bounds)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)
    np.testing.assert_equal(fast.bit_generator.state, slow.bit_generator.state)
    # The streams stay in lockstep after the call.
    np.testing.assert_array_equal(fast.random(5), slow.random(5))


@pytest.mark.parametrize("seed", range(40))
def test_random_bound_mixes(seed):
    meta = np.random.default_rng(seed)
    n = int(meta.integers(0, 120))
    bounds = np.where(
        meta.random(n) < 0.3,
        meta.integers(0, 3, size=n),
        meta.integers(2, 10 ** int(meta.integers(1, 10)), size=n),
    )
    _assert_same(bounds, seed=seed + 1000, phase=seed % 3)


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
@pytest.mark.parametrize("phase", [0, 1, 2, 3])
def test_uint32_buffer_phases(bit_generator, phase):
    bounds = np.random.default_rng(phase).integers(1, 500, size=37)
    _assert_same(bounds, seed=7, bit_generator=bit_generator, phase=phase)


def test_bounds_of_zero_and_one_draw_nothing():
    fast, slow = _pair(3)
    out = bounded_integers(fast, np.array([0, 1, 1, 0, 1]))
    np.testing.assert_array_equal(out, np.zeros(5, dtype=np.int64))
    np.testing.assert_equal(fast.bit_generator.state, slow.bit_generator.state)
    _assert_same(np.array([0, 5, 1, 0, 9, 1, 2]), seed=4, phase=1)


def test_empty_bounds_and_shape():
    fast, slow = _pair(5)
    assert bounded_integers(fast, np.zeros(0, dtype=np.int64)).shape == (0,)
    np.testing.assert_equal(fast.bit_generator.state, slow.bit_generator.state)
    _assert_same(np.arange(24).reshape(4, 6), seed=5)


@pytest.mark.parametrize("bound", [2**31 + 1, 2**33 // 3 + 1, 3 * 2**30 + 7])
@pytest.mark.parametrize("phase", [0, 1])
def test_forced_rejections(bound, phase):
    """Bounds near 2**32 reject up to half the words; the helper must redraw
    in the same order the loop does."""
    bounds = np.full(64, bound)
    bounds[::5] = 3  # small bounds between the rejecting ones shift too
    fast, counter = _pair(11, phase=phase)
    counter.integers(0, 2**32, size=int((bounds > 1).sum()), dtype=np.uint32)
    bounded_integers(fast, bounds)
    # More words than entries were consumed: rejections really happened.
    assert fast.bit_generator.state != counter.bit_generator.state
    _assert_same(bounds, seed=11, phase=phase)


def test_full_32_bit_range_and_oversized_bound():
    _assert_same(np.array([2**32, 5, 2**32]), seed=2)
    with pytest.raises(ValueError):
        bounded_integers(np.random.default_rng(0), np.array([2**32 + 1]))
