"""Prefix-carried episodes act exactly like per-step re-encoding.

``CopyAttackAgent.rollout`` carries the RNN state across an episode in a
:class:`SelectionPrefix`, and the agent's hot ops (``Linear``,
``log_softmax``, ``masked_log_softmax``) are fused graph nodes.  The
oracle is a test-local copy of the original path: a rollout that passes
the growing list of selected users, an ``encode`` that re-runs the RNN
over the whole list every step (with the original per-step reshapes),
and the primitive-op composites of the three fused ops.  Forward values
are bitwise equal, so every action, reward and hit ratio must match;
only the order in which parameter gradients are summed differs, so the
trained parameters agree to rounding.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attack import AttackEnvironment, CopyAttackAgent, CopyAttackConfig
from repro.attack.policies import PolicyStateEncoder, SelectionPrefix
from repro.attack.reinforce import EpisodeBuffer
from repro.errors import MaskedTreeError
from repro.nn import Linear, SequenceEncoder, Tensor, concat
from repro.nn import functional as F


# ------------------------------------------------------------------ the oracle
def _old_sequence_forward(encoder: SequenceEncoder, steps) -> Tensor:
    state = Tensor(np.zeros(encoder.cell.state_dim))
    for step in steps:
        x = step.reshape(1, -1) if step.ndim == 1 else step
        carried = state.reshape(1, -1) if state.ndim == 1 else state
        state = encoder.cell(x, carried).reshape(encoder.cell.state_dim)
    if encoder.cell.state_dim == encoder.hidden_dim:
        return state
    return state[:encoder.hidden_dim]


def _old_encode(self, target_item, selected_users):
    steps = [Tensor(self.user_embeddings[u]) for u in selected_users]
    x = _old_sequence_forward(self.rnn, steps)
    q = Tensor(self.item_embeddings[target_item])
    return concat([q, x], axis=-1)


def _old_rollout(self, env, mask, greedy=False):
    buffer = EpisodeBuffer()
    mask.reset_exclusions()
    selected: list[int] = []
    while not env.done:
        state = self.encoder.encode(env.target_item, selected)
        try:
            selection = self.selection_policy.select(
                state, mask, seed=self._sample_rng, greedy=greedy
            )
        except MaskedTreeError:
            mask.reset_exclusions()
            selection = self.selection_policy.select(
                state, mask, seed=self._sample_rng, greedy=greedy
            )
        mask.exclude_user(selection.user_id)
        profile, craft_log_prob = self._craft(selection.user_id, env.target_item, greedy)
        log_prob = selection.log_prob
        if craft_log_prob is not None:
            log_prob = log_prob + craft_log_prob
        outcome = env.step(profile, selected_user=selection.user_id)
        buffer.record(log_prob, outcome.reward)
        selected.append(selection.user_id)
    return buffer


def _old_linear_forward(self, x):
    out = x @ self.weight
    if self.bias is not None:
        out = out + self.bias
    return out


def _old_log_softmax(logits, axis=-1):
    shifted = logits - logits.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def _old_masked_log_softmax(logits, mask, axis=-1):
    arr = F._mask_array(mask, logits.shape)
    offset = np.where(arr, 0.0, -1e9)
    return _old_log_softmax(logits + Tensor(offset), axis=axis)


def _patch_old_path(monkeypatch) -> None:
    monkeypatch.setattr(PolicyStateEncoder, "encode", _old_encode)
    monkeypatch.setattr(CopyAttackAgent, "rollout", _old_rollout)
    monkeypatch.setattr(Linear, "forward", _old_linear_forward)
    monkeypatch.setattr(F, "log_softmax", _old_log_softmax)
    monkeypatch.setattr(F, "masked_log_softmax", _old_masked_log_softmax)


# ------------------------------------------------------------ encoder prefix
@pytest.mark.parametrize("cell", ["rnn", "gru", "lstm"])
def test_prefix_encode_equals_from_scratch_forward(cell):
    rng = np.random.default_rng(5)
    user_emb = rng.normal(size=(12, 6))
    item_emb = rng.normal(size=(9, 6))
    users = [3, 1, 4, 1, 5, 9, 2, 6]
    weights = rng.normal(size=(len(users) + 1, 12))

    def loss_and_grads(carried: bool):
        encoder = PolicyStateEncoder(user_emb, item_emb, np.random.default_rng(1), cell=cell)
        prefix = SelectionPrefix()
        states, loss = [], None
        for t in range(len(users) + 1):
            if carried:
                state = encoder.encode(4, prefix)
            else:
                q = Tensor(item_emb[4])
                h = encoder.rnn([Tensor(user_emb[u]) for u in users[:t]])
                state = concat([q, h], axis=-1)
            states.append(state.data)
            term = (state * Tensor(weights[t])).sum()
            loss = term if loss is None else loss + term
            if t < len(users):
                prefix.append(users[t])
        loss.backward()
        return states, [p.grad for p in encoder.parameters()]

    carried_states, carried_grads = loss_and_grads(carried=True)
    scratch_states, scratch_grads = loss_and_grads(carried=False)
    for got, want in zip(carried_states, scratch_states):
        np.testing.assert_array_equal(got, want)
    for got, want in zip(carried_grads, scratch_grads):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("cell", ["rnn", "gru", "lstm"])
def test_forward_equals_original_recurrence(cell):
    rng = np.random.default_rng(8)
    encoder = SequenceEncoder(5, 4, np.random.default_rng(2), cell=cell)
    for length in (0, 1, 6):
        steps = [Tensor(row) for row in rng.normal(size=(length, 5))]
        np.testing.assert_array_equal(
            encoder(steps).data, _old_sequence_forward(encoder, steps).data
        )


def test_plain_list_and_prefix_encode_agree():
    rng = np.random.default_rng(3)
    encoder = PolicyStateEncoder(rng.normal(size=(7, 4)), rng.normal(size=(5, 4)), rng)
    prefix = SelectionPrefix()
    for user in (2, 0, 6):
        encoder.encode(1, prefix)
        prefix.append(user)
    np.testing.assert_array_equal(
        encoder.encode(1, prefix).data, encoder.encode(1, [2, 0, 6]).data
    )
    assert len(prefix.states) == len(prefix) == 3


# --------------------------------------------------------------- agent oracle
def _run_agent(prep, item, config, seed, monkeypatch, old_path: bool):
    steps: list[tuple[int, float | None]] = []
    original_step = AttackEnvironment.step

    def logged_step(self, profile, selected_user=None):
        outcome = original_step(self, profile, selected_user=selected_user)
        steps.append((selected_user, tuple(profile), outcome.reward))
        return outcome

    with monkeypatch.context() as patch:
        if old_path:
            _patch_old_path(patch)
        patch.setattr(AttackEnvironment, "step", logged_step)
        cfg = prep.config
        env = AttackEnvironment(
            prep.blackbox, item, prep.pretend_user_ids, budget=cfg.budget,
            query_interval=cfg.query_interval, reward_k=cfg.reward_k,
        )
        agent = CopyAttackAgent(
            prep.cross.source, prep.mf.user_factors, prep.mf.item_factors, config, seed=seed
        )
        try:
            result = agent.attack(env)
        finally:
            env.reset()
    params = [p.data.copy() for p in agent.trainer.optimizer.params]
    return steps, result.episode_hit_ratios, result.trace.final_hit_ratio, params


@pytest.mark.parametrize(
    "policy,cell,masking,crafting",
    [
        ("tree", "rnn", True, True),
        ("tree", "gru", True, False),
        ("tree", "lstm", False, False),
        ("flat", "rnn", True, True),
    ],
)
def test_agent_matches_per_step_reencoding(small_prep, monkeypatch, policy, cell, masking, crafting):
    config = CopyAttackConfig(
        tree_depth=2, n_episodes=6, policy=policy, rnn_cell=cell,
        use_masking=masking, use_crafting=crafting,
    )
    item = int(small_prep.target_items[0])
    new = _run_agent(small_prep, item, config, 17, monkeypatch, old_path=False)
    old = _run_agent(small_prep, item, config, 17, monkeypatch, old_path=True)
    new_steps, new_hrs, new_final, new_params = new
    old_steps, old_hrs, old_final, old_params = old
    assert len(new_steps) == (config.n_episodes + 1) * small_prep.config.budget
    assert new_steps == old_steps  # same users, same crafted profiles, same rewards
    assert new_hrs == old_hrs
    assert new_final == old_final
    for got, want in zip(new_params, old_params):
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
