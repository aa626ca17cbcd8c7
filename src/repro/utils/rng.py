"""Deterministic random-number management.

Every stochastic component in the library takes an explicit
``np.random.Generator`` (never the global numpy state), and experiments
derive independent child generators from one root seed via
:func:`spawn`.  This makes every table and figure in the benchmark
harness bit-reproducible from a single seed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_rng", "spawn", "bounded_integers", "DEFAULT_SEED"]

#: Seed used by examples and benchmarks unless overridden.
DEFAULT_SEED = 20210417  # ICDE 2021 conference start date

_SPAN32 = 1 << 32
_LOW32 = np.uint64(_SPAN32 - 1)


def make_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Return a Generator; pass through if one is already supplied."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(DEFAULT_SEED if seed is None else seed)


def spawn(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Derive ``n`` statistically independent child generators."""
    return [np.random.default_rng(s) for s in rng.bit_generator.seed_seq.spawn(n)]


def bounded_integers(rng: np.random.Generator, bounds: np.ndarray) -> np.ndarray:
    """``[rng.integers(0, b) for b in bounds]`` as one vectorised draw.

    The values *and* the generator state afterwards equal the per-entry
    loop's, so a sampler can swap its Python loop for this without moving
    any seeded result.  numpy draws ``integers(0, b)`` for ``b <= 2**32``
    as one 32-bit word per call, mapped by Lemire's multiply-shift with
    rejection: the pick is ``(x * b) >> 32``, and the word is discarded
    (and the next one taken) while ``(x * b) mod 2**32 < (2**32 - b) % b``.
    Here all words come from a single ``uint32`` draw; each (rare)
    rejection shifts the later entries onto the following word and draws
    one more at the end.  Entries with ``b <= 1`` consume no word and
    yield 0, as ``integers(0, 1)`` does (``integers(0, 0)`` would raise).
    """
    bounds = np.asarray(bounds, dtype=np.int64)
    out = np.zeros(bounds.shape, dtype=np.int64)
    live = np.flatnonzero(bounds > 1)
    if live.size == 0:
        return out
    b = bounds.reshape(-1)[live].astype(np.uint64)
    if int(b.max()) > _SPAN32:
        raise ValueError("bounded_integers supports bounds up to 2**32")
    threshold = (_SPAN32 - b) % b
    words = rng.integers(0, _SPAN32, size=live.size, dtype=np.uint32).astype(np.uint64)
    scaled = words * b
    start = 0
    while True:
        rejected = np.flatnonzero((scaled[start:] & _LOW32) < threshold[start:])
        if rejected.size == 0:
            break
        start += int(rejected[0])
        words[start:-1] = words[start + 1 :]
        words[-1] = rng.integers(0, _SPAN32, dtype=np.uint32)
        scaled[start:] = words[start:] * b[start:]
    out.reshape(-1)[live] = (scaled >> np.uint64(32)).astype(np.int64)
    return out
