"""The forward pass over (t, k) that gives the moments of two match-length
policies, checked against enumeration and against an exact rational oracle,
which also checks enumeration, the return and the gap under either key.

``population_moments`` takes the pass only for two match-length policies over
more trajectories than one enumeration chunk; every identity test elsewhere
runs below that size, so enumeration stays their path and the oracle here.
"""

import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracelab import EnumerationCapError, PolicyRows, TokenMdp, bias_variance_sweep, exact_return
from tracelab import mdp as mdp_module
from tracelab import objectives
from tracelab.cli import run
from tracelab.mdp import n_rows
from tracelab.objectives import _enumerated_moments, _match_length_moments, population_moments
from tracelab.policies import policy_gap
from helpers import TabularSoftmaxPolicy, TargetFollowingPolicy, rational_moments

PROPERTY = settings(max_examples=40, deadline=None)
RATIONAL_HORIZON = 5  # the rational oracle walks at most 3**5 trajectories
TAME_RATIO = 10.0  # beyond this ratio, enumeration is not the engine's reference


def _enumerated(mdp, pi, mu, n_list):
    """The enumeration path on two match-length rows, called directly."""
    return _enumerated_moments(mdp, PolicyRows(pi, "match_length"), PolicyRows(mu, "match_length"), n_list)


def _assert_close(values, exact, rtol, scale=None):
    """Each value within ``rtol`` of the exact one, relative to |exact| or,
    where given, to the matching entry of ``scale``."""
    scale = [abs(float(x)) for x in exact] if scale is None else scale
    for value, want, size in zip(np.asarray(values).tolist(), exact, scale):
        assert abs(value - float(want)) <= rtol * size, (value, want)


def _assert_moments_close(moments, mean, variance, sizes, mean_rtol, variance_rtol):
    """The mean within ``mean_rtol`` of the root of each size and the variance
    within ``variance_rtol`` of the size.  The size is E[(sum of |term|)^2]
    where the rational oracle gives it and E[Z^2] (no smaller than Var[Z]) from
    enumeration; a float path rounds on the terms it adds, so where they cancel
    to a mean or variance far below them, no path is within a few roundings of
    that result itself."""
    _assert_close(moments.mean, mean, mean_rtol, scale=[float(s) ** 0.5 for s in sizes])
    _assert_close(moments.variance, variance, variance_rtol, scale=[float(s) for s in sizes])


@st.composite
def rational_setups(draw):
    """An MDP with V <= 3 and T <= 5 and two match-length rows of small
    integer weights: mu has full support, pi may put zero on a token, and
    the ratios reach the thousands."""
    v = draw(st.integers(2, 3), label="vocab")
    horizon = draw(st.integers(1, RATIONAL_HORIZON), label="horizon")
    target = draw(st.lists(st.integers(0, v - 1), min_size=1, max_size=horizon + 1), label="target")
    mdp = TokenMdp("abc"[:v], horizon, tuple(target))
    shape = (len(target) + 1, v)
    weights = [
        np.array(draw(st.lists(st.integers(lo, 1000), min_size=v * shape[0], max_size=v * shape[0])), float)
        .reshape(shape)
        for lo in (0, 1)
    ]
    for w in weights:
        w[w.sum(axis=1) == 0, 0] = 1.0
    pi, mu = (w / w.sum(axis=1, keepdims=True) for w in weights)
    return mdp, pi, mu


@PROPERTY
@given(setup=rational_setups())
def test_both_paths_match_the_rational_oracle(setup):
    """The engine and enumeration agree with exact rationals to 1e-12 of the
    size of Z's terms, and the return by backward induction to 1e-12 of itself."""
    mdp, pi, mu = setup
    n_list = list(range(1, mdp.horizon + 1))
    exact = rational_moments(mdp, pi, mu, n_list)
    for moments in (_match_length_moments(mdp, pi, mu, n_list), _enumerated(mdp, pi, mu, n_list)):
        _assert_moments_close(moments, exact.mean, exact.variance, exact.term_size, 1e-12, 1e-12)
    returns = [exact_return(mdp, PolicyRows(rows, "match_length")) for rows in (pi, mu)]
    _assert_close(returns, exact.returns, 1e-12)


@PROPERTY
@given(setup=rational_setups())
def test_full_window_is_the_improvement_in_rationals(setup):
    mdp, pi, mu = setup
    exact = rational_moments(mdp, pi, mu, [mdp.horizon])
    assert exact.mean[0] == exact.returns[0] - exact.returns[1]


@st.composite
def keyed_rational_setups(draw):
    """An MDP with V <= 3 and T <= 5 and two policies' rows, each under either
    key, of integer weights in 1..1000: mu has full support, about a quarter
    of pi's weights are 0 (each row keeps one), and the ratios reach the
    thousands."""
    v = draw(st.integers(2, 3), label="vocab")
    horizon = draw(st.integers(1, RATIONAL_HORIZON), label="horizon")
    target = draw(st.lists(st.integers(0, v - 1), min_size=1, max_size=horizon + 1), label="target")
    keys = draw(st.tuples(*[st.sampled_from(TabularSoftmaxPolicy.STATE_KEYS)] * 2), label="keys")
    mdp = TokenMdp("abc"[:v], horizon, tuple(target))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    pi, mu = (rng.integers(1, 1001, (n_rows(mdp, key), v)).astype(float) for key in keys)
    zero = rng.random(pi.shape) < 0.25
    zero[np.arange(len(pi)), rng.integers(0, v, len(pi))] = False
    pi[zero] = 0.0
    return mdp, *(PolicyRows(w / w.sum(axis=1, keepdims=True), key) for w, key in zip((pi, mu), keys))


@PROPERTY
@given(setup=keyed_rational_setups())
def test_enumeration_returns_and_gap_match_the_rational_oracle_under_either_key(setup):
    """For a pair under either key, mixed keys too: enumeration's moments to
    1e-12 of the size of Z's terms, the return (the prefix tree for prefix
    rows) to 1e-12 of itself, and eps and dtv_max to 1e-12 of the size of
    their terms (1 + eps, the largest ratio, and 1); the N=T mean is the
    exact improvement in rationals."""
    mdp, pi, mu = setup
    n_list = list(range(1, mdp.horizon + 1))
    exact = rational_moments(mdp, pi, mu, n_list)
    moments = population_moments(mdp, pi, mu, n_list)
    _assert_moments_close(moments, exact.mean, exact.variance, exact.term_size, 1e-12, 1e-12)
    _assert_close([exact_return(mdp, rows) for rows in (pi, mu)], exact.returns, 1e-12)
    _assert_close(policy_gap(mdp, pi, mu), exact.gap, 1e-12, scale=[1.0 + float(exact.gap[0]), 1.0])
    assert exact.mean[-1] == exact.returns[0] - exact.returns[1]


@st.composite
def match_length_pairs(draw):
    """Two random match-length rows with V 2-4 and T 1-9: mu has full support
    and some pi entries are zero.  Past the rational oracle's size mu is
    floored at 1/(2V), so every ratio is at most 2V <= 8; below it the logits
    may be wide and the ratios extreme."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    v = draw(st.integers(2, 4), label="vocab")
    horizon = draw(st.integers(1, 9), label="horizon")
    target = tuple(int(s) for s in rng.integers(0, v, draw(st.integers(1, 4), label="target length")))
    mdp = TokenMdp("abcd"[:v], horizon, target)
    small = v <= 3 and horizon <= RATIONAL_HORIZON
    scale = draw(st.sampled_from([0.5, 4.0] if small else [0.5]), label="logit scale")
    logits = rng.uniform(-scale, scale, (2, len(target) + 1, v))
    pi_logits = logits[0]
    pi_logits[(rng.random(pi_logits.shape) < 0.3) & (pi_logits < pi_logits.max(axis=1, keepdims=True))] = -np.inf
    pi, mu = (np.exp(z - z.max(axis=1, keepdims=True)) for z in logits)
    pi, mu = (p / p.sum(axis=1, keepdims=True) for p in (pi, mu))
    if not small:
        mu = 0.5 * mu + 0.5 / v
    n_list = draw(st.lists(st.integers(1, horizon), min_size=1, max_size=5), label="windows")
    return mdp, pi, mu, n_list


@PROPERTY
@given(setup=match_length_pairs())
def test_engine_matches_enumeration(setup):
    """The mean to 1e-12 and the variance to 1e-10, relative to E[Z^2] from
    enumeration.  A pair with a ratio past 10 is checked against the rational
    oracle instead, relative to the size of Z's terms, since past that ratio
    they cancel in both float paths."""
    mdp, pi, mu, n_list = setup
    engine = _match_length_moments(mdp, pi, mu, n_list)
    if (pi / mu).max() <= TAME_RATIO:
        mean, variance = _enumerated(mdp, pi, mu, n_list)
        sizes = variance + mean * mean
    else:
        assert mdp.vocab_size <= 3 and mdp.horizon <= RATIONAL_HORIZON
        exact = rational_moments(mdp, pi, mu, n_list)
        mean, variance, sizes = exact.mean, exact.variance, exact.term_size
    _assert_moments_close(engine, mean, variance, sizes, 1e-12, 1e-10)


@PROPERTY
@given(setup=match_length_pairs())
def test_a_window_does_not_depend_on_the_others(setup):
    """Each window's moments are bitwise those of the window alone, as they
    are under enumeration, so a sweep's row does not change with its list."""
    mdp, pi, mu, n_list = setup
    together = _match_length_moments(mdp, pi, mu, n_list)
    for i, n_step in enumerate(n_list):
        alone = _match_length_moments(mdp, pi, mu, [n_step])
        assert (alone.mean[0], alone.variance[0]) == (together.mean[i], together.variance[i])


def _counted_chunks(patch) -> Counter:
    calls = Counter()
    inner = objectives.trajectory_chunks

    def counted(*args, **kwargs):
        calls["trajectory_chunks"] += 1
        return inner(*args, **kwargs)

    patch.setattr(objectives, "trajectory_chunks", counted)
    return calls


def test_past_one_chunk_match_length_pairs_enumerate_nothing():
    """At T=9 the 19,683 trajectories are more than one chunk of 16,384: the
    pass enumerates none of them, so a cap of 1000 does not refuse it.  At
    T=8 the 6,561 trajectories are enumerated, and the cap refuses them."""
    assert 3**8 <= mdp_module._CHUNK < 3**9
    for horizon, cap, chunks in ((9, 1000, 0), (8, mdp_module.DEFAULT_ENUMERATION_CAP, 1)):
        mdp = TokenMdp.from_symbols("abc", horizon, "abcabc", enumeration_cap=cap)
        pi, mu = TargetFollowingPolicy(mdp, 0.8), TargetFollowingPolicy(mdp, 0.5)
        with pytest.MonkeyPatch.context() as patch:
            calls = _counted_chunks(patch)
            moments = population_moments(mdp, pi, mu, [1, 4])
        assert calls["trajectory_chunks"] == chunks
        assert np.isfinite(moments.variance).all()
    mdp = TokenMdp.from_symbols("abc", 8, "abcabc", enumeration_cap=100)
    with pytest.raises(EnumerationCapError):
        population_moments(mdp, TargetFollowingPolicy(mdp, 0.8), TargetFollowingPolicy(mdp, 0.5), [1])


def test_only_enumeration_takes_the_log_of_the_rows():
    """The forward pass reads the probabilities themselves and builds no log
    matrix; below one chunk the enumeration builds one per policy."""
    for horizon, builds in ((9, 0), (8, 2)):
        mdp = TokenMdp.from_symbols("abc", horizon, "abcabc")
        pi, mu = TargetFollowingPolicy(mdp, 0.8), TargetFollowingPolicy(mdp, 0.5)
        calls, inner = [], objectives.policy_log_matrix
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(objectives, "policy_log_matrix", lambda rows: calls.append(rows) or inner(rows))
            population_moments(mdp, pi, mu, [1, 4])
        assert len(calls) == builds


def test_engine_grids_are_held_to_the_cap():
    """The cells the pass holds at once, five [max(L, W), L, K] grids and
    [L + 5 W, K] rows for L = max N, W windows and K = |target| + 1, are held
    to the enumeration cap before any grid is built: at T=12 under a cap of
    2500, N=[1, 8] needs (320 + 18) * 7 = 2366 cells and runs, and N=1..12
    needs (720 + 72) * 7 = 5544 and is refused."""
    mdp = TokenMdp.from_symbols("abc", 12, "abcabc", enumeration_cap=2500)
    pi, mu = TargetFollowingPolicy(mdp, 0.8), TargetFollowingPolicy(mdp, 0.5)
    assert np.isfinite(population_moments(mdp, pi, mu, [1, 8]).variance).all()
    with pytest.raises(EnumerationCapError, match=r"\(t, k\) pass \(cells held at once\) needs 5544 items, cap is 2500"):
        population_moments(mdp, pi, mu, range(1, 13))
    with pytest.raises(EnumerationCapError, match="needs 2366 items, cap is 2365"):
        population_moments(replace(mdp, enumeration_cap=2365), pi, mu, [1, 8])


@pytest.mark.parametrize("horizon", [40, 60])
def test_engine_peak_is_within_the_counted_cells(horizon):
    """The cells the pass counts against the cap bound its tracemalloc peak,
    8 B a cell, for every window and a T-token target (about 4.4 grids at
    T=40 and 4.15 at T=60, against the 5 grids and the rows it counts)."""
    mdp = TokenMdp.from_symbols("abc", horizon, ("abc" * horizon)[:horizon], enumeration_cap=1)
    pi, mu = TargetFollowingPolicy(mdp, 0.8), TargetFollowingPolicy(mdp, 0.5)
    n_list = range(1, horizon + 1)
    with pytest.raises(EnumerationCapError) as refused:
        population_moments(mdp, pi, mu, n_list)
    tracemalloc.start()
    try:
        moments = population_moments(replace(mdp, enumeration_cap=refused.value.required), pi, mu, n_list)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(moments.variance).all()
    assert peak <= 8 * refused.value.required


def test_prefix_keyed_and_mixed_pairs_still_enumerate():
    mdp = TokenMdp.from_symbols("abc", 9, "abcabc")
    follow, prefix = TargetFollowingPolicy(mdp, 0.5), TabularSoftmaxPolicy.zeros(mdp, "prefix")
    for pi, mu in ((prefix, prefix), (prefix, follow), (follow, prefix)):
        with pytest.MonkeyPatch.context() as patch:
            calls = _counted_chunks(patch)
            population_moments(mdp, pi, mu, [1, 9])
        assert calls["trajectory_chunks"] == 1


def test_full_window_recovers_the_improvement_past_the_cap():
    """At T=40 (3**40 trajectories) the N=T surrogate, from the forward pass,
    equals the improvement, from backward induction, to 1e-10.  The pair
    matches abcabc rarely enough that the improvement is not a difference of
    two returns near 1."""
    mdp = TokenMdp.from_symbols("abc", 40, "abcabc")
    pi, mu = TargetFollowingPolicy(mdp, 0.1), TargetFollowingPolicy(mdp, 0.05)
    rows = bias_variance_sweep(mdp, pi, mu, [1, 20, 40], 8, 0.05)
    full = rows[-1]
    assert full.n_step == mdp.horizon
    assert full.exact_improvement >= 1e-3
    assert abs(full.population_surrogate - full.exact_improvement) <= 1e-10


def test_engine_memory_is_a_few_age_grids():
    """The pass holds a few [max N, max N, K] grids of weights: at T=64 over
    every window its tracemalloc peak is under 8 of them (1.8 MB)."""
    mdp = TokenMdp.from_symbols("abc", 64, "abcabc")
    pi, mu = TargetFollowingPolicy(mdp, 0.8), TargetFollowingPolicy(mdp, 0.5)
    grid = 8 * mdp.horizon**2 * (len(mdp.target) + 1)
    tracemalloc.start()
    try:
        moments = population_moments(mdp, pi, mu, range(1, mdp.horizon + 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(moments.variance).all()
    assert peak < 8 * grid


def test_enumeration_memory_is_bounded_by_the_chunk():
    """Called directly at T=12, the enumeration pass peaks within a few
    chunk-sized blocks, as ``population_moments`` did there before it took
    the forward pass for match-length pairs."""
    mdp = TokenMdp.from_symbols("abc", 12, "abcabc")
    pi, mu = (TargetFollowingPolicy(mdp, a).rows().probs for a in (0.8, 0.5))
    block = 8 * mdp_module._CHUNK * mdp.horizon
    tracemalloc.start()
    try:
        _enumerated(mdp, pi, mu, range(1, mdp.horizon + 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * block < 8 * mdp.n_trajectories * mdp.horizon


# pi puts 0.05 on the next target token and mu 0.95, so each other token
# weighs E_mu[rho^2] = 18.05 while the target is unmatched: E[Z^2] at N = T
# is 2.3e288 at T = 240 and passes 1e308 near T = 255.
OVERFLOW_HORIZON = 260
OVERFLOW_ALPHAS = {"pi": 0.05, "mu": 0.95}


def test_engine_refuses_an_overflowing_variance_by_window():
    mdp = TokenMdp.from_symbols("abc", OVERFLOW_HORIZON, "abcabc")
    pi, mu = (TargetFollowingPolicy(mdp, OVERFLOW_ALPHAS[name]) for name in ("pi", "mu"))
    with pytest.raises(ValueError, match=f"overflow a float at N = {OVERFLOW_HORIZON}$"):
        population_moments(mdp, pi, mu, [1, 200, OVERFLOW_HORIZON])


def test_enumeration_refuses_an_overflowing_variance_by_window():
    """Prefix-keyed rows where mu gives token a about 1e-304: a path that
    starts with it has rho near 5e303, so Z^2 overflows at N = 1."""
    mdp = TokenMdp.from_symbols("ab", 3, "ab")
    logits = np.zeros((mdp.n_prefixes, mdp.vocab_size))
    logits[:, 0] = -700.0
    mu = TabularSoftmaxPolicy(mdp, logits, "prefix")
    pi = TabularSoftmaxPolicy.zeros(mdp, "prefix")
    with pytest.raises(ValueError, match="overflow a float at N = 1$"):
        population_moments(mdp, pi, mu, [1, 2])


def test_sweep_exits_before_writing_an_overflowing_row(tmp_path, capsys):
    args = ["sweep", "--out", str(tmp_path), "--set", f"mdp.horizon={OVERFLOW_HORIZON}"]
    args += ["--set", f"experiment.N_list=[{OVERFLOW_HORIZON}]"]
    for name, alpha in OVERFLOW_ALPHAS.items():
        args += ["--set", f'policies.{name}={{"family":"target_following","alpha":{alpha}}}']
    assert run(args) == 1
    assert f"overflow a float at N = {OVERFLOW_HORIZON}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
