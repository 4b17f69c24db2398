"""The single exact pass behind every population quantity.

``population_moments`` enumerates once and derives every window from one
suffix sum of the log ratios, skipping trajectories without reward.  The
oracle here walks every trajectory with ``per_sample_statistic`` and weighs
it by its exact rollout probability; the trace-factorization property checks
the window kernel itself on ``[G, T]`` blocks.
"""

import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracelab import (
    TabularSoftmaxPolicy,
    TargetFollowingPolicy,
    TokenMdp,
    ZeroSupportError,
    bias_variance_sweep,
    exact_return,
    reward,
)
from tracelab import mdp as mdp_module
from tracelab import objectives
from tracelab.objectives import population_moments
from tracelab.weights import iter_window_products, window_products
from helpers import RatioProfile, per_sample_statistic, random_setups, traces, trajectory_log_prob

PROPERTY = settings(max_examples=40, deadline=None)


def _oracle(mdp, pi, mu, n_list):
    """First and second moments and both returns, trajectory by trajectory."""
    mean, second = np.zeros(len(n_list)), np.zeros(len(n_list))
    returns = np.zeros(2)
    with np.errstate(divide="ignore"):
        for y in itertools.product(range(mdp.vocab_size), repeat=mdp.horizon):
            p_pi = np.exp(trajectory_log_prob(pi, y))
            p_mu = np.exp(trajectory_log_prob(mu, y))
            returns += np.array([p_pi, p_mu]) * reward(mdp, y)
            if p_mu == 0.0:
                continue
            z = np.array([per_sample_statistic(mdp, y, pi, mu, n).z for n in n_list])
            mean += p_mu * z
            second += p_mu * z * z
    return mean, second, returns


def _assert_matches_oracle(mdp, pi, mu, n_list, require_full_support=True):
    moments = population_moments(mdp, pi, mu, n_list, require_full_support=require_full_support)
    mean, second, returns = _oracle(mdp, pi, mu, n_list)
    tol = 1e-12 * max(1.0, float(np.abs(second).max(initial=0.0)))
    np.testing.assert_allclose(moments.mean, mean, rtol=0, atol=tol)
    variance = np.maximum(second - mean * mean, 0.0)
    np.testing.assert_allclose(moments.variance, variance, rtol=0, atol=tol)
    exact = [exact_return(mdp, pi), exact_return(mdp, mu)]
    np.testing.assert_allclose(exact, returns, rtol=0, atol=1e-12)


def _with_zero_tokens(policy: TabularSoftmaxPolicy, rng, share: float) -> TabularSoftmaxPolicy:
    """A copy with one token per chosen state set to probability zero; the
    root state is always chosen."""
    logits = policy.logits.copy()
    for i, row in enumerate(logits):
        if i == 0 or rng.random() < share:
            row[rng.integers(len(row))] = -np.inf
    return TabularSoftmaxPolicy(policy.mdp, logits, policy.state_key)


@st.composite
def moment_setups(draw):
    """A ``random_setups`` pair and a random list of windows."""
    seed = draw(st.integers(0, 2**16))
    mdp, pi, mu = random_setups(2, seed)[draw(st.integers(0, 1))]
    n_list = draw(st.lists(st.integers(1, mdp.horizon), min_size=1, max_size=4))
    return mdp, pi, mu, n_list, np.random.default_rng(seed)


@PROPERTY
@given(setup=moment_setups())
def test_moments_match_per_trajectory_oracle(setup):
    mdp, pi, mu, n_list, _ = setup
    _assert_matches_oracle(mdp, pi, mu, n_list)


@PROPERTY
@given(setup=moment_setups())
def test_zero_probability_target_tokens(setup):
    """pi gives some sampled tokens probability zero: log ratios of -inf
    go through the window kernel's count of zero ratios."""
    mdp, pi, mu, n_list, rng = setup
    pi = _with_zero_tokens(TabularSoftmaxPolicy.from_policy(mdp, pi), rng, 0.3)
    _assert_matches_oracle(mdp, pi, mu, n_list)


@PROPERTY
@given(setup=moment_setups())
def test_rollout_without_full_support(setup):
    mdp, pi, mu, n_list, rng = setup
    mu = _with_zero_tokens(TabularSoftmaxPolicy.from_policy(mdp, mu), rng, 0.3)
    _assert_matches_oracle(mdp, pi, mu, n_list, require_full_support=False)
    with pytest.raises(ZeroSupportError):
        population_moments(mdp, pi, mu, n_list, require_full_support=True)


@PROPERTY
@given(
    seed=st.integers(0, 2**16),
    shape=st.tuples(st.integers(1, 6), st.integers(1, 9)),
    zero_share=st.sampled_from([0.0, 0.1, 0.4]),
    data=st.data(),
)
def test_trace_factorization_on_blocks(seed, shape, zero_share, data):
    """full == window_products(., N) * residual along the last axis of a
    [G, T] block of log ratios, zero ratios (-inf) included."""
    rng = np.random.default_rng(seed)
    g, t_len = shape
    log_r = rng.normal(0.0, 0.7, shape)
    log_r[rng.random(shape) < zero_share] = -np.inf
    rho = np.exp(log_r)
    n_list = data.draw(st.lists(st.integers(1, t_len), min_size=1, max_size=4))
    full = np.array([[np.prod(row[i + 1 :]) for i in range(t_len)] for row in rho])
    for n_step, series in zip(n_list, iter_window_products(log_r, n_list)):
        window = window_products(log_r, n_step)
        np.testing.assert_array_equal(series, window)
        ends = np.minimum(np.arange(t_len) + n_step, t_len)
        residual = np.array([[np.prod(row[e:]) for e in ends] for row in rho])
        np.testing.assert_allclose(window * residual, full, rtol=1e-12, atol=0)
        for k in range(g):
            trace = traces(RatioProfile(rho[k], log_r[k]), n_step, 3.0, 0.2, 0.4)
            np.testing.assert_allclose(trace.full, full[k], rtol=1e-12, atol=0)
            np.testing.assert_allclose(trace.n_step, window[k], rtol=1e-12, atol=0)
            np.testing.assert_allclose(trace.residual, residual[k], rtol=1e-12, atol=0)


@pytest.mark.parametrize("horizon", [10, 12])
def test_one_pass_memory_is_bounded_by_the_chunk(horizon):
    """The tracemalloc peak of one pass over every window stays within the
    per-state tables plus a few chunk-sized blocks.  At T=12 those blocks
    together are smaller than the V**T trajectories held as one token array."""
    mdp = TokenMdp.from_symbols("abc", horizon, "abcabc")
    pi, mu = TargetFollowingPolicy(mdp, 0.8), TargetFollowingPolicy(mdp, 0.5)
    block = 8 * mdp_module._CHUNK * horizon  # one [chunk, T] int64 or float64 array
    table = 8 * mdp.n_prefixes * mdp.vocab_size  # one [n_states, V] float64 table
    tracemalloc.start()
    try:
        population_moments(mdp, pi, mu, range(1, horizon + 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Two log tables plus the probability table each is built from.
    assert peak < 3 * table + 5 * block
    if mdp.n_trajectories > 4 * mdp_module._CHUNK:
        assert 5 * block < 8 * mdp.n_trajectories * horizon


def test_exact_return_memory_is_bounded_by_the_table():
    """Backward induction holds the policy table and a few per-state vectors,
    never the V**T trajectories: at T=12 its tracemalloc peak, table build
    included, stays under three tables (a third of one [V**T, T] token array)."""
    mdp = TokenMdp.from_symbols("abc", 12, "abcabc")
    mu = TargetFollowingPolicy(mdp, 0.5)
    table = 8 * mdp.n_prefixes * mdp.vocab_size
    tracemalloc.start()
    try:
        value = exact_return(mdp, mu)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * table < 8 * mdp.n_trajectories * mdp.horizon / 2
    # Each token advances the match with probability 0.5: P(Bin(12, 0.5) >= 6).
    closed_form = sum(math.comb(12, k) for k in range(6, 13)) / 2**12
    assert value == pytest.approx(closed_form, rel=1e-12)


@settings(max_examples=15, deadline=None)
@given(n_list=st.lists(st.integers(1, 7), max_size=7))
def test_sweep_makes_one_pass_and_two_table_builds(toy_mdp, mu05, pi08, n_list):
    calls = Counter()

    def counted(name):
        inner = getattr(objectives, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        for name in ("trajectory_chunks", "policy_log_matrix"):
            patch.setattr(objectives, name, counted(name))
        rows = bias_variance_sweep(toy_mdp, pi08, mu05, n_list, 8, 0.05)
    assert [row.n_step for row in rows] == n_list
    assert calls == {"trajectory_chunks": 1, "policy_log_matrix": 2}
