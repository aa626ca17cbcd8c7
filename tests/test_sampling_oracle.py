"""Vectorised sampling is bit-identical to the per-row loops it replaced.

The oracle is a test-local copy of the original loop samplers: per-user
``rng.integers(0, len(profile), size=T)`` draws over the dataset's
tuples, per-item neighbour draws with inline degree arithmetic, a
``dataset.has`` negative screen and a per-user ``+=`` cache rebuild.
Fitting once with the loops patched in and once as shipped must give
the same parameters, caches, history and generator state, bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import (
    InteractionDataset,
    SyntheticConfig,
    generate_cross_domain,
    train_val_test_split,
)
from repro.data.negative_sampling import build_eval_candidates
from repro.nn import Tensor, bpr_loss, concat, no_grad
from repro.recsys import MatrixFactorization, NeuralCF, PinSageRecommender
from repro.recsys.pinsage import _l2norm_t
from repro.recsys.sampling import BipartiteIndex

N_COLD_ITEMS = 4


@pytest.fixture(scope="module")
def split():
    config = SyntheticConfig(
        n_universe_items=70, n_target_items=50, n_source_items=60, n_overlap_items=40,
        n_target_users=45, n_source_users=60, target_profile_mean=9.0,
        source_profile_mean=10.0, softmax_temperature=0.55, popularity_weight=0.35,
        popularity_exponent=0.8, rating_keep_probability_scale=4.0, name="oracle",
    )
    target = generate_cross_domain(config, seed=3).target
    # A few catalog items nobody has seen: negatives hit them, and their
    # neighbour rows must draw nothing yet still hold user 0.
    profiles = [target.user_profile(u) for u in range(target.n_users)]
    widened = InteractionDataset(profiles, n_items=target.n_items + N_COLD_ITEMS)
    return train_val_test_split(widened, seed=4)


# ------------------------------------------------------------------ loop oracle
def _loop_profiles(dataset, user_ids, n_samples, rng):
    out = np.empty((user_ids.size, n_samples), dtype=np.int64)
    for row, user_id in enumerate(user_ids):
        profile = dataset.user_profile(int(user_id))
        picks = rng.integers(0, len(profile), size=n_samples)
        out[row] = [profile[i] for i in picks]
    return out


def _loop_negatives(dataset, users, rng):
    neg_items = rng.integers(0, dataset.n_items, size=users.size)
    for _ in range(3):
        clash = np.fromiter(
            (dataset.has(int(u), int(v)) for u, v in zip(users, neg_items)),
            dtype=bool,
            count=users.size,
        )
        if not clash.any():
            break
        neg_items[clash] = rng.integers(0, dataset.n_items, size=int(clash.sum()))
    return neg_items


def _loop_user_repr(model, user_ids, rng):
    idx = _loop_profiles(model.dataset, user_ids, model.n_profile_samples, rng)
    net = model._net
    q = net.item_emb(idx.reshape(-1)).reshape(idx.shape[0], idx.shape[1], model.n_factors)
    pooled = q.mean(axis=1)
    return _l2norm_t(pooled + net.w_user2(net.w_user1(pooled).relu()))


def _loop_item_repr(model, item_ids, rng):
    s = model.n_neighbor_samples
    n = item_ids.size
    neighbor_users = np.zeros((n, s), dtype=np.int64)
    inv_sqrt_du = np.zeros((n, s, 1))
    agg_scale = np.zeros((n, 1))
    has_users = np.zeros((n, 1))
    for row, item_id in enumerate(item_ids):
        users = model.dataset.item_users(int(item_id))
        if users:
            picks = rng.integers(0, len(users), size=s)
            chosen = [users[i] for i in picks]
            neighbor_users[row] = chosen
            for col, u in enumerate(chosen):
                inv_sqrt_du[row, col, 0] = 1.0 / np.sqrt(len(model.dataset.user_profile(u)))
            count = len(users)
            agg_scale[row, 0] = count / np.sqrt(1.0 + count)
            has_users[row, 0] = 1.0
    h_nb = _loop_user_repr(model, neighbor_users.reshape(-1), rng).reshape(n, s, model.n_factors)
    agg = (h_nb * Tensor(inv_sqrt_du)).mean(axis=1) * Tensor(agg_scale)
    h_mean = h_nb.mean(axis=1) * Tensor(has_users)
    net = model._net
    q_own = net.item_emb(item_ids)
    mlp = net.w_item2(net.w_item1(concat([q_own, h_mean], axis=-1)).relu())
    return q_own + agg + mlp


def _loop_pinsage_step(model, index, users, pos_items, rng):
    neg_items = _loop_negatives(model.dataset, users, rng)
    h = _loop_user_repr(model, users, rng)
    z_pos = _loop_item_repr(model, pos_items, rng)
    z_neg = _loop_item_repr(model, neg_items, rng)
    inv_temp = 1.0 / model.temperature
    loss = bpr_loss((h * z_pos).sum(axis=1) * inv_temp, (h * z_neg).sum(axis=1) * inv_temp)
    model._net.zero_grad()
    loss.backward()
    model._optimizer.step()
    return float(loss.item())


def _loop_refresh_full(model):
    dataset = model.dataset
    with no_grad():
        model._H = np.stack([model.user_representation(p) for _, p in dataset.iter_profiles()])
        model._item_h_sum = np.zeros((dataset.n_items, model.n_factors))
        model._item_h_plain = np.zeros((dataset.n_items, model.n_factors))
        model._item_h_count = np.zeros(dataset.n_items)
        for user_id, profile in dataset.iter_profiles():
            weight = 1.0 / np.sqrt(len(profile))
            for item_id in profile:
                model._item_h_sum[item_id] += model._H[user_id] * weight
                model._item_h_plain[item_id] += model._H[user_id]
                model._item_h_count[item_id] += 1
        model._Z = model._item_representation_rows(np.arange(dataset.n_items))


def _loop_ncf_step(model, index, users, pos_items, rng):
    neg_items = _loop_negatives(model.dataset, users, rng)
    idx = _loop_profiles(model.dataset, users, model.n_profile_samples, rng)
    q = model._net.item_emb(idx.reshape(-1)).reshape(users.size, idx.shape[1], model.n_factors)
    pooled = q.mean(axis=1)
    pos = model._net.score(pooled, model._net.item_emb(pos_items))
    neg = model._net.score(pooled, model._net.item_emb(neg_items))
    loss = bpr_loss(pos, neg)
    model._net.zero_grad()
    loss.backward()
    model._optimizer.step()


def _assert_states_equal(a: dict, b: dict) -> None:
    assert a.keys() == b.keys()
    for name in a:
        np.testing.assert_array_equal(a[name], b[name], err_msg=name)


# ------------------------------------------------------------------ index unit tests
class TestBipartiteIndex:
    def test_contains_matches_dataset_has(self, split):
        dataset = split.train
        index = BipartiteIndex(dataset)
        users, items = np.meshgrid(np.arange(dataset.n_users), np.arange(dataset.n_items))
        users, items = users.ravel(), items.ravel()
        expected = [dataset.has(int(u), int(v)) for u, v in zip(users, items)]
        np.testing.assert_array_equal(index.contains(users, items), expected)

    def test_profile_samples_match_loop(self, split):
        dataset = split.train
        users = np.random.default_rng(0).integers(0, dataset.n_users, size=200)
        fast, slow = np.random.default_rng(1), np.random.default_rng(1)
        got = BipartiteIndex(dataset).sample_profiles(users, 7, fast)
        np.testing.assert_array_equal(got, _loop_profiles(dataset, users, 7, slow))
        assert fast.bit_generator.state == slow.bit_generator.state

    def test_item_user_samples_match_loop_in_append_order(self, split):
        dataset = split.train.copy()
        # An organic interaction appends an early user after later ones:
        # item profiles keep that append order, not user-id order.
        item = int(np.argmax(dataset.popularity()))
        user = next(u for u in range(dataset.n_users) if not dataset.has(u, item))
        dataset.add_interaction(user, item)
        assert list(dataset.item_users(item)) != sorted(dataset.item_users(item))
        items = np.arange(dataset.n_items)
        fast, slow = np.random.default_rng(2), np.random.default_rng(2)
        got = BipartiteIndex(dataset).sample_item_users(items, 5, fast)
        expected = np.zeros_like(got)
        for row, v in enumerate(items):
            users = dataset.item_users(int(v))
            if users:
                expected[row] = [users[i] for i in slow.integers(0, len(users), size=5)]
        np.testing.assert_array_equal(got, expected)
        assert fast.bit_generator.state == slow.bit_generator.state
        assert (got[-N_COLD_ITEMS:] == 0).all()

    def test_empty_profile_raises(self):
        index = BipartiteIndex(InteractionDataset([[0], []], n_items=2))
        with pytest.raises(ValueError):
            index.sample_profiles(np.array([1]), 3, np.random.default_rng(0))


# ------------------------------------------------------------------ whole-fit oracles
def test_pinsage_fit_matches_loop_samplers(split, monkeypatch):
    val = build_eval_candidates(split.train, split.val, n_negatives=20, seed=5)

    def fit():
        model = PinSageRecommender(n_factors=8, n_epochs=4, patience=10, batch_size=64, seed=6)
        return model.fit(split.train, val_candidates=val)

    fast = fit()
    with monkeypatch.context() as patch:
        patch.setattr(PinSageRecommender, "_train_step", _loop_pinsage_step)
        patch.setattr(PinSageRecommender, "refresh_full", _loop_refresh_full)
        slow = fit()
    _assert_states_equal(fast._net.state_dict(), slow._net.state_dict())
    for cache in ("_Z", "_H", "_item_h_sum", "_item_h_plain", "_item_h_count"):
        np.testing.assert_array_equal(getattr(fast, cache), getattr(slow, cache), err_msg=cache)
    assert fast.train_history == slow.train_history
    assert fast._rng.bit_generator.state == slow._rng.bit_generator.state


def test_neural_cf_fit_and_partial_fit_match_loop_samplers(split, monkeypatch):
    dataset = split.train
    interactions = [(0, v) for v in range(dataset.n_items) if not dataset.has(0, v)][:3]

    def run():
        model = NeuralCF(n_factors=8, n_epochs=3, batch_size=64, seed=8).fit(dataset.copy())
        return model.partial_fit(interactions)

    fast = run()
    with monkeypatch.context() as patch:
        patch.setattr(NeuralCF, "_train_step", _loop_ncf_step)
        slow = run()
    _assert_states_equal(fast._net.state_dict(), slow._net.state_dict())
    np.testing.assert_array_equal(fast._pooled, slow._pooled)
    assert fast._rng.bit_generator.state == slow._rng.bit_generator.state


def test_mf_fit_matches_has_screen(split, monkeypatch):
    def loop_contains(index, users, items):
        return np.array([split.train.has(int(u), int(v)) for u, v in zip(users, items)], dtype=bool)

    fast = MatrixFactorization(n_epochs=3, seed=9).fit(split.train)
    with monkeypatch.context() as patch:
        patch.setattr(BipartiteIndex, "contains", loop_contains)
        slow = MatrixFactorization(n_epochs=3, seed=9).fit(split.train)
    np.testing.assert_array_equal(fast.user_factors, slow.user_factors)
    np.testing.assert_array_equal(fast.item_factors, slow.item_factors)
