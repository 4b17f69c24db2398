"""Property tests: the batched group kernels against their per-trajectory oracles.

Objective values and gradients come from each policy's rows and one [G, T]
pass; the oracle walks each sampled trajectory prefix by prefix with
``ratios``, ``traces`` and ``token_mask`` (via
``helpers.frozen_nfpo_coefficients``) and the score-function identity.
The row sampler is checked token for token against ``sample_group``.
"""

from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracelab import (
    GroupRollout,
    MaskSpec,
    ObjectiveSpec,
    PolicyRows,
    TabularSoftmaxPolicy,
    TargetFollowingPolicy,
    dynamics_report,
    enumerate_prefixes,
    objective_gradient,
    objective_value,
    policy_rows,
)
from tracelab.lab import DynamicsReport, switch_count
from tracelab.policies import policy_prob_table
from tracelab.weights import group_log_ratios, group_token_mask, sample_from_table
from helpers import (
    frozen_nfpo_coefficients,
    random_setups,
    random_small_mdp,
    random_tabular,
    ratios,
    sample_group,
    token_mask,
    traces,
)

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
    pi_rows, mu_rows = policy_rows(pi, group.mdp), policy_rows(mu, group.mdp)
    rho = np.exp(group_log_ratios(group, pi_rows, mu_rows))
    keep_all = group_token_mask(MaskSpec("none"), group, rho, pi_rows, mu_rows)
    assert keep_all.all()
    for mask in (_mask(kind, delta) for kind in MASK_KINDS[1:]):
        keep = group_token_mask(mask, group, rho, pi_rows, mu_rows)
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
    """From the policy's own rows and from its state-indexed table alike."""
    mdp, mu = setup
    oracle_rng = np.random.default_rng(seed)
    oracle = sample_group(mdp, mu, group_size, oracle_rng)
    for rows in (policy_rows(mu, mdp), PolicyRows(policy_prob_table(mu, mdp))):
        table_rng = np.random.default_rng(seed)
        batched = sample_from_table(mdp, rows, group_size, table_rng)
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
            sample_from_table(mdp, PolicyRows(table), 3, np.random.default_rng(where))
    else:
        batched = sample_from_table(mdp, PolicyRows(table), 3, np.random.default_rng(where))
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
        sample_from_table(toy_mdp, PolicyRows(table), 2, np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_from_table(toy_mdp, PolicyRows(table, "match_length"), 2, np.random.default_rng(0))


def per_prefix_dynamics_report(
    trajectories: Sequence[Sequence[int]],
    pi,
    mu,
    n_step: int,
    beta: float,
    eps_low: float,
    eps_high: float,
) -> DynamicsReport:
    """``dynamics_report`` trajectory by trajectory, from ``ratios`` and ``traces``."""
    if not trajectories:
        raise ValueError("dynamics_report needs at least one trajectory")
    abs_dev_rho: list[np.ndarray] = []
    abs_dev_trace: list[np.ndarray] = []
    trace_values: list[np.ndarray] = []
    switches_rho = switches_trace = pairs = 0
    for y in trajectories:
        if len(y) < 2:
            raise ValueError("each trajectory needs at least 2 tokens")
        profile = ratios(pi, mu, y)
        clipped = traces(profile, n_step, beta, eps_low, eps_high).clipped
        corrected = profile.ratios * clipped
        abs_dev_rho.append(np.abs(profile.ratios - 1.0))
        abs_dev_trace.append(np.abs(corrected - 1.0))
        trace_values.append(clipped)
        switches_rho += switch_count(profile.ratios)
        switches_trace += switch_count(corrected)
        pairs += len(y) - 1
    return DynamicsReport(
        correction_strength_rho=float(np.concatenate(abs_dev_rho).mean()),
        correction_strength_trace=float(np.concatenate(abs_dev_trace).mean()),
        switch_freq_rho=switches_rho / pairs,
        switch_freq_trace=switches_trace / pairs,
        trace_variance=float(np.concatenate(trace_values).var(ddof=1)),
    )


@st.composite
def mixed_setups(draw):
    """A random small MDP, pi and mu each target-following, prefix-keyed
    tabular or match-length-keyed tabular, and a group drawn from mu's rows."""
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    mdp = random_small_mdp(rng)

    def policy(kind):
        if kind == "target_following":
            return TargetFollowingPolicy(mdp, rng.uniform(0.05, 0.95))
        if kind == "prefix":
            return random_tabular(mdp, rng)
        logits = {k: rng.normal(0.0, 0.8, mdp.vocab_size) for k in range(len(mdp.target) + 1)}
        return TabularSoftmaxPolicy(mdp, logits, "match_length")

    kinds = st.sampled_from(["target_following", "prefix", "match_length"])
    pi, mu = policy(draw(kinds)), policy(draw(kinds))
    return mdp, pi, mu, draw(st.integers(1, 6)), seed, draw(st.floats(0.005, 0.5))


@PROPERTY
@given(setup=mixed_setups(), n_step=st.integers(1, 6))
def test_row_indexed_group_equals_per_prefix_oracles(setup, n_step):
    """Sampler, log ratios, every mask and the dynamics report, read from
    each policy's own rows, equal the prefix-by-prefix oracles exactly."""
    mdp, pi, mu, group_size, seed, delta = setup
    n_step = min(n_step, mdp.horizon)
    pi_rows, mu_rows = policy_rows(pi, mdp), policy_rows(mu, mdp)
    group = sample_from_table(mdp, mu_rows, group_size, np.random.default_rng(seed))
    oracle = sample_group(mdp, mu, group_size, np.random.default_rng(seed))
    np.testing.assert_array_equal(group.tokens, oracle.tokens)
    profiles = [ratios(pi, mu, y) for y in group.trajectories]
    log_r = group_log_ratios(group, pi_rows, mu_rows)
    np.testing.assert_array_equal(log_r, [profile.log_ratios for profile in profiles])
    rho = np.exp(log_r)
    for mask in (_mask(kind, delta) for kind in MASK_KINDS):
        keep = group_token_mask(mask, group, rho, pi_rows, mu_rows)
        for row, profile, adv, y in zip(keep, profiles, group.advantages, group.trajectories):
            expected = token_mask(mask, profile, float(adv), mu, pi, y)
            np.testing.assert_array_equal(row, expected.astype(bool))
    report = dynamics_report(rho, n_step, 3.0, 0.2, 0.4)
    assert report == per_prefix_dynamics_report(group.trajectories, pi, mu, n_step, 3.0, 0.2, 0.4)
