"""Property tests: the batched group kernels against their per-trajectory oracles.

Objective values and gradients come from state-indexed tables and one
[G, T] pass; the oracle walks each sampled trajectory prefix by prefix with
``ratios``, ``traces`` and ``token_mask`` (via
``helpers.frozen_nfpo_coefficients``) and the score-function identity.
The table sampler is checked token for token against ``sample_group``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracelab import (
    GroupRollout,
    MaskSpec,
    ObjectiveSpec,
    TabularSoftmaxPolicy,
    enumerate_prefixes,
    objective_gradient,
    objective_value,
    ratios,
    sample_group,
    token_mask,
)
from tracelab.policies import policy_prob_table
from tracelab.weights import group_log_ratios, group_token_mask, sample_from_table
from helpers import frozen_nfpo_coefficients, random_setups, random_small_mdp

MASK_KINDS = ["none", "grpo_ratio", "tv", "kl", "icepop"]
PROPERTY = settings(max_examples=60, deadline=None)


def _mask(kind: str, delta: float) -> MaskSpec:
    if kind == "grpo_ratio":
        return MaskSpec(kind, eps_low=0.2, eps_high=0.28)
    if kind == "icepop":
        return MaskSpec(kind, beta=3.0)
    return MaskSpec(kind, delta=delta) if kind in ("tv", "kl") else MaskSpec(kind)


@st.composite
def sampled_setups(draw):
    """A ``random_setups`` MDP and policy pair, pi made tabular under either
    state key, and a group sampled from mu."""
    seed = draw(st.integers(0, 2**16))
    mdp, pi, mu = random_setups(2, seed)[draw(st.integers(0, 1))]
    rng = np.random.default_rng(seed)
    if draw(st.sampled_from(TabularSoftmaxPolicy.STATE_KEYS)) == "match_length":
        logits = {k: rng.normal(0.0, 0.8, mdp.vocab_size) for k in range(len(mdp.target) + 1)}
        pi = TabularSoftmaxPolicy(mdp, logits, "match_length")
    elif not isinstance(pi, TabularSoftmaxPolicy):
        pi = TabularSoftmaxPolicy.from_policy(mdp, pi)
    group = sample_group(mdp, mu, draw(st.integers(2, 6)), rng)
    n_step = draw(st.integers(1, mdp.horizon))
    return pi, mu, group, n_step, draw(st.floats(0.005, 0.5))


def _oracle(group, pi, mu, spec):
    """Value and gradient of one objective, trajectory by trajectory."""
    n_step = spec.n_step if spec.kind == "nfpo" else 1
    coeffs = frozen_nfpo_coefficients(
        group, pi, mu, n_step, spec.beta, spec.eps_low, spec.eps_high, spec.mask
    )
    value, grad = 0.0, {}
    for w, adv, coeff, y in zip(group.weights, group.advantages, coeffs, group.trajectories):
        rho = ratios(pi, mu, y).ratios
        if spec.kind == "ppo":
            clipped = np.clip(rho, 1.0 - spec.eps_low, 1.0 + spec.eps_high)
            value += w * float(np.minimum(rho * adv, clipped * adv).sum())
            coeff = w * adv * (rho * adv <= clipped * adv)
        else:
            value += float((coeff * rho).sum())
        for t, tok in enumerate(y):
            c = float(coeff[t] * rho[t])
            if c != 0.0:
                row = grad.setdefault(pi.key(y[:t]), np.zeros(pi.mdp.vocab_size))
                row -= c * pi.probs(y[:t])
                row[tok] += c
    return value, grad


@pytest.mark.parametrize("mask_kind", MASK_KINDS)
@pytest.mark.parametrize("kind", ["nfpo", "mpg", "ppo"])
@PROPERTY
@given(setup=sampled_setups())
def test_kernel_matches_per_trajectory_oracle(kind, mask_kind, setup):
    pi, mu, group, n_step, delta = setup
    mask = _mask(mask_kind, delta)
    spec = ObjectiveSpec(kind, n_step=n_step, eps_low=0.2, eps_high=0.28, mask=mask)
    value, grad = _oracle(group, pi, mu, spec)
    assert objective_value(group, pi, mu, spec).value == pytest.approx(value, abs=1e-12)
    batched = objective_gradient(group, pi, mu, spec)
    assert batched.keys() == grad.keys()
    for key, row in grad.items():
        np.testing.assert_allclose(batched[key], row, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", ["nfpo", "mpg", "ppo"])
@PROPERTY
@given(setup=sampled_setups(), mask_kind=st.sampled_from(MASK_KINDS))
def test_gradient_rows_sum_to_zero(kind, setup, mask_kind):
    pi, mu, group, n_step, delta = setup
    spec = ObjectiveSpec(kind, n_step=n_step, mask=_mask(mask_kind, delta))
    for row in objective_gradient(group, pi, mu, spec).values():
        assert abs(row.sum()) < 1e-12


@PROPERTY
@given(setup=sampled_setups())
def test_every_mask_keeps_a_subset_of_none(setup):
    pi, mu, group, _, delta = setup
    p_pi, p_mu = policy_prob_table(pi, group.mdp), policy_prob_table(mu, group.mdp)
    rho = np.exp(group_log_ratios(group, p_pi, p_mu))
    keep_all = group_token_mask(MaskSpec("none"), group, rho, p_pi, p_mu)
    assert keep_all.all()
    for mask in (_mask(kind, delta) for kind in MASK_KINDS[1:]):
        keep = group_token_mask(mask, group, rho, p_pi, p_mu)
        assert np.all(keep <= keep_all)
        for row, adv, y in zip(keep, group.advantages, group.trajectories):
            oracle = token_mask(mask, ratios(pi, mu, y), float(adv), mu, pi, y)
            np.testing.assert_array_equal(row, oracle.astype(bool))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**16), bad=st.sampled_from(["high", "low", "wide", "narrow"]))
def test_group_rejects_malformed_tokens(seed, bad):
    rng = np.random.default_rng(seed)
    mdp = random_small_mdp(rng)
    g, width = int(rng.integers(1, 5)), mdp.horizon
    width += {"wide": 1, "narrow": -1}.get(bad, 0)
    tokens = rng.integers(0, mdp.vocab_size, (g, width))
    if bad in ("high", "low"):
        tokens[rng.integers(g), rng.integers(width)] = mdp.vocab_size if bad == "high" else -1
    with pytest.raises(ValueError):
        GroupRollout(mdp, tokens, np.zeros(g), np.zeros(g), np.full(g, 1.0 / g))


@st.composite
def rollout_policies(draw):
    """A ``random_setups`` MDP with one of its two policies, or with a
    match-length-keyed tabular policy."""
    seed = draw(st.integers(0, 2**16))
    mdp, pi, mu = random_setups(2, seed)[draw(st.integers(0, 1))]
    choice = draw(st.sampled_from(["pi", "mu", "match_length"]))
    if choice == "match_length":
        rng = np.random.default_rng(seed)
        logits = {k: rng.normal(0.0, 0.8, mdp.vocab_size) for k in range(len(mdp.target) + 1)}
        return mdp, TabularSoftmaxPolicy(mdp, logits, "match_length")
    return mdp, pi if choice == "pi" else mu


@PROPERTY
@given(setup=rollout_policies(), group_size=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_table_sampler_draws_the_tokens_of_sample_group(setup, group_size, seed):
    mdp, mu = setup
    table_rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    batched = sample_from_table(mdp, policy_prob_table(mu, mdp), group_size, table_rng)
    oracle = sample_group(mdp, mu, group_size, oracle_rng)
    np.testing.assert_array_equal(batched.tokens, oracle.tokens)
    assert table_rng.bit_generator.state == oracle_rng.bit_generator.state


class TablePolicy:
    """A duck-typed policy that answers ``probs(prefix)`` from a state-indexed table."""

    def __init__(self, mdp, table):
        self.table = table
        self.index = {prefix: i for i, prefix in enumerate(enumerate_prefixes(mdp))}

    def probs(self, prefix):
        return self.table[self.index[tuple(prefix)]]


@settings(max_examples=100, deadline=None)
@given(
    setup=rollout_policies(),
    bad=st.sampled_from(["negative", "sum_high", "sum_low"]),
    where=st.integers(0, 2**16),
    at_root=st.booleans(),
)
def test_table_sampler_rejects_the_rows_sample_group_rejects(setup, bad, where, at_root):
    """A malformed row raises ValueError exactly when a draw reads it, as in
    ``sample_group``; the root row is read by every draw."""
    mdp, mu = setup
    table = policy_prob_table(mu, mdp).copy()
    state = 0 if at_root else where % mdp.n_prefixes
    if bad == "negative":
        table[state, 1] += table[state, 0] + 0.1
        table[state, 0] = -0.1
    else:
        table[state, table[state].argmax()] += 1e-6 if bad == "sum_high" else -1e-6
    try:
        oracle = sample_group(mdp, TablePolicy(mdp, table), 3, np.random.default_rng(where))
    except ValueError:
        oracle = None
    assert oracle is None or not at_root
    if oracle is None:
        with pytest.raises(ValueError):
            sample_from_table(mdp, table, 3, np.random.default_rng(where))
    else:
        batched = sample_from_table(mdp, table, 3, np.random.default_rng(where))
        np.testing.assert_array_equal(batched.tokens, oracle.tokens)


@pytest.mark.parametrize("shape", ["short", "wide", "flat"])
def test_table_sampler_rejects_wrong_shapes(toy_mdp, mu05, shape):
    table = policy_prob_table(mu05, toy_mdp)
    if shape == "short":
        table = table[:-1]
    elif shape == "wide":
        table = np.hstack([table, np.zeros((len(table), 1))])
    else:
        table = table.ravel()
    with pytest.raises(ValueError):
        sample_from_table(toy_mdp, table, 2, np.random.default_rng(0))
