"""Acceptance suite: one test per criterion, at the stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one
``[acceptance] ...: PASS`` line per criterion.
"""

import itertools
import math
from contextlib import contextmanager

import numpy as np
import pytest

from tracelab import (
    MASK_NONE,
    MaskSpec,
    ObjectiveSpec,
    alternating_profile,
    b_n,
    b_n_increment,
    bias_variance_sweep,
    d_tv_max,
    dynamics_report,
    exact_return,
    objective_gradient,
    population_moments,
    theorem_lower_bound,
    train,
    truncation_bias_bound,
    verify_coverage,
)
from helpers import (
    TabularSoftmaxPolicy,
    TargetFollowingPolicy,
    brute_force_local_surrogate,
    dense_gradient,
    finite_difference_gradient,
    frozen_nfpo_coefficients,
    gradient_gap,
    random_setups,
    random_tabular,
    ratios,
    ratios_from_values,
    residual_check,
    sample_group,
    traces,
)


@contextmanager
def reported(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {number:02d} {name}: FAIL")
        raise
    print(f"[acceptance] {number:02d} {name}: PASS")


@pytest.fixture(scope="module")
def randomized_setups():
    return random_setups(50, seed=2024)


def test_c01_trace_identity(toy_mdp, mu05, pi08, randomized_setups):
    with reported(1, "performance-difference identity, toy + 50 random MDPs"):
        trace = population_moments(toy_mdp, pi08, mu05, [toy_mdp.horizon]).mean[0]
        gap = trace - (exact_return(toy_mdp, pi08) - exact_return(toy_mdp, mu05))
        assert abs(gap) < 1e-10
        for mdp, pi, mu in randomized_setups:
            trace = population_moments(mdp, pi, mu, [mdp.horizon]).mean[0]
            gap = trace - (exact_return(mdp, pi) - exact_return(mdp, mu))
            assert abs(gap) < 1e-10


def test_c02_endpoint_identities(toy_mdp, mu05, pi08, randomized_setups):
    with reported(2, "window endpoints: local surrogate and exact improvement"):
        for mdp, pi, mu in [(toy_mdp, pi08, mu05)] + randomized_setups:
            local = population_moments(mdp, pi, mu, [1]).mean[0]
            assert abs(local - brute_force_local_surrogate(mdp, pi, mu, 1)) < 1e-10
            full = population_moments(mdp, pi, mu, [mdp.horizon]).mean[0]
            assert abs(full - (exact_return(mdp, pi) - exact_return(mdp, mu))) < 1e-10


def test_c03_bias_variance_sweep(toy_mdp, mu05, pi08):
    with reported(3, "toy sweep: bias shrinks with the window, variance grows"):
        rows = bias_variance_sweep(toy_mdp, pi08, mu05, range(1, 8), 8, 0.05)
        biases = [r.abs_bias for r in rows]
        assert all(a >= b for a, b in zip(biases, biases[1:]))
        assert biases[-1] < 1e-10
        assert rows[-1].per_sample_variance > rows[0].per_sample_variance


def test_c04_population_inequality(toy_mdp, mu05, pi08, randomized_setups):
    with reported(4, "deterministic population lower bound at every window"):
        for mdp, pi, mu in [(toy_mdp, pi08, mu05)] + randomized_setups:
            improvement = exact_return(mdp, pi) - exact_return(mdp, mu)
            dtv = d_tv_max(mu, pi, mdp)
            if mdp is toy_mdp:
                assert dtv == pytest.approx(0.3)
            for n_step in range(1, mdp.horizon + 1):
                surrogate = population_moments(mdp, pi, mu, [n_step]).mean[0]
                penalty = truncation_bias_bound(mdp.reward_bound, mdp.horizon, n_step, dtv)
                assert improvement >= surrogate - penalty - 1e-10


def test_c05_empirical_coverage(toy_mdp, mu05, pi08):
    with reported(5, "high-probability bound coverage, 2000 trials"):
        trials, alpha = 2000, 0.05
        threshold = (1 - alpha) - 3 * math.sqrt(alpha * (1 - alpha) / trials)
        for n_step in (1, 4, 7):
            group = sample_group(toy_mdp, mu05, 8, np.random.default_rng(n_step))
            report = theorem_lower_bound(group, pi08, n_step, alpha_conf=alpha)
            coverage = verify_coverage(toy_mdp, pi08, mu05, report, trials=trials, seed=100 + n_step)
            assert coverage >= threshold


def test_c06_envelope_monotonicity():
    with reported(6, "concentration envelope grows by the closed-form increment"):
        for xi in (0.5, 1.0, 2.0):
            for eps in (0.05, 0.1, 0.6):
                for horizon in (2, 3, 5, 7):
                    for n_step in range(1, horizon):
                        direct = b_n(xi, eps, horizon, n_step + 1) - b_n(xi, eps, horizon, n_step)
                        assert abs(direct - b_n_increment(xi, eps, horizon, n_step)) < 1e-12
                        assert direct > 0


def test_c07_trace_decomposition():
    with reported(7, "window/residual factorization on 10^4 random profiles"):
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            length = int(rng.integers(1, 9))
            profile = ratios_from_values(np.exp(rng.uniform(-0.7, 0.7, length)))
            for n_step in range(1, length + 1):
                assert residual_check(traces(profile, n_step, 3.0, 0.2, 0.4)) < 1e-10


def test_c08_window_conditional_mean():
    with reported(8, "window products average to one given the prefix"):
        from tracelab import TokenMdp

        cases = []
        mdp_a = TokenMdp.from_symbols("ab", 4, "ab")
        cases.append((mdp_a, TargetFollowingPolicy(mdp_a, 0.7), TargetFollowingPolicy(mdp_a, 0.4)))
        mdp_b = TokenMdp.from_symbols("abc", 5, "abc")
        rng = np.random.default_rng(3)
        cases.append((mdp_b, random_tabular(mdp_b, rng), random_tabular(mdp_b, rng)))
        for mdp, pi, mu in cases:
            v, horizon = mdp.vocab_size, mdp.horizon
            for t in range(1, horizon + 1):
                for prefix in itertools.product(range(v), repeat=t):
                    for window in range(horizon - t + 1):
                        total = 0.0
                        for cont in itertools.product(range(v), repeat=window):
                            state = prefix
                            prob_mu = 1.0
                            ratio = 1.0
                            for token in cont:
                                p_mu = float(mu.probs(state)[token])
                                prob_mu *= p_mu
                                ratio *= float(pi.probs(state)[token]) / p_mu
                                state = state + (token,)
                            total += prob_mu * ratio
                        assert abs(total - 1.0) < 1e-10


def test_c09_gradient_vs_finite_differences():
    with reported(9, "analytic gradient matches frozen finite differences"):
        from tracelab import TokenMdp

        mdp = TokenMdp.from_symbols("abc", 3, "ab")
        mu = TargetFollowingPolicy(mdp, 0.5)
        masks = [
            MaskSpec("tv", delta=0.2),
            MaskSpec("grpo_ratio", eps_low=0.2, eps_high=0.28),
            MASK_NONE,
            MaskSpec("icepop", beta=3.0),
        ]
        rng = np.random.default_rng(909)
        for trial in range(100):
            pi = random_tabular(mdp, rng)
            group = sample_group(mdp, mu, 6, rng)
            mask = masks[trial % len(masks)]
            spec = ObjectiveSpec("nfpo", 2, 3.0, 0.2, 0.4, mask)
            analytic = dense_gradient(objective_gradient(group, pi, spec)[1], pi.logits.shape)
            coeffs = frozen_nfpo_coefficients(group, pi, mu, 2, 3.0, 0.2, 0.4, mask)
            numeric = finite_difference_gradient(group, pi, mu, coeffs)
            assert gradient_gap(analytic, numeric) < 1e-5


def test_c10_training_improves_and_replays(toy_mdp, mu05):
    with reported(10, "500 trace-objective steps beat the rollout baseline, bitwise replay"):
        spec = ObjectiveSpec(
            kind="nfpo", n_step=4, beta=3.0, eps_low=0.2, eps_high=0.4,
            mask=MaskSpec("tv", delta=0.2),
        )
        runs = []
        for _ in range(2):
            pi = TabularSoftmaxPolicy.from_policy(toy_mdp, mu05, state_key="prefix")
            runs.append(
                train(toy_mdp, pi, spec, steps=500, learning_rate=0.1, group_size=8, seed=0)
            )
        assert runs[0][-1].exact_return > 0.0625
        assert runs[0] == runs[1]


def test_c11_trivial_window_equivalence(toy_mdp, mu05, pi08):
    with reported(11, "window-1 trace objective coincides with the masked surrogate"):
        masks = [
            MaskSpec("tv", delta=0.2),
            MaskSpec("grpo_ratio", eps_low=0.2, eps_high=0.28),
            MASK_NONE,
        ]
        rng = np.random.default_rng(2)
        for trial in range(20):
            group = sample_group(toy_mdp, mu05, 8, rng)
            mask = masks[trial % len(masks)]
            nfpo = ObjectiveSpec("nfpo", 1, 3.0, 0.2, 0.4, mask)
            a = objective_gradient(group, pi08, nfpo)[0]
            b = objective_gradient(group, pi08, ObjectiveSpec("mpg", mask=mask))[0]
            assert abs(a - b) < 1e-14


def test_c12_low_pass_smoothing():
    with reported(12, "trace correction quiets a perfectly alternating profile"):
        spec = ObjectiveSpec("nfpo", 4, 3.0, 0.2, 0.4)
        report = dynamics_report(alternating_profile(0.2, 50)[None], spec)
        assert report.switch_freq_rho == 1.0
        assert report.switch_freq_trace < 1.0
