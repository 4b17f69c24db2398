import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracelab import (
    MASK_NONE,
    EnumerationCapError,
    GroupRollout,
    MaskSpec,
    ObjectiveSpec,
    PolicyRows,
    TabularSoftmaxPolicy,
    TargetFollowingPolicy,
    TokenMdp,
    b_n,
    exact_return,
    n_step_surrogate_empirical,
    n_step_surrogate_population,
    objective_gradient,
    objective_value,
    performance_difference_direct,
    performance_difference_trace,
    policy_rows,
    ratio_deviation_bound,
    reward,
    sample_from_table,
    variance_of_statistic,
)
from helpers import (
    OneHotPolicy,
    brute_force_local_surrogate,
    finite_difference_gradient,
    frozen_nfpo_coefficients,
    gradient_gap,
    per_sample_statistic,
    random_setups,
    random_tabular,
    ratios,
    sample_group,
    token_mask,
    trajectory_log_prob,
)

TOY_TRAJECTORY = (0, 1, 2, 0, 1, 2, 0)
PPO = ObjectiveSpec("ppo", eps_low=0.2, eps_high=0.28)


def _nfpo(n_step: int, mask: MaskSpec) -> ObjectiveSpec:
    return ObjectiveSpec("nfpo", n_step, 3.0, 0.2, 0.4, mask)


def _mpg(mask: MaskSpec) -> ObjectiveSpec:
    return ObjectiveSpec("mpg", mask=mask)


def _single_token_setup():
    """Horizon-1 MDP with a token ratio of exactly 2 on token 0."""
    mdp = TokenMdp.from_symbols("ab", 1, "a")
    mu = TabularSoftmaxPolicy(mdp, np.log([[0.4, 0.6]]))
    pi = TabularSoftmaxPolicy(mdp, np.log([[0.8, 0.2]]))
    return mdp, pi, mu


def _manual_group(mdp, trajectories, advantages, rewards=None):
    g = len(trajectories)
    rewards = np.zeros(g) if rewards is None else np.asarray(rewards, dtype=float)
    return GroupRollout(
        mdp=mdp,
        tokens=np.array(trajectories),
        rewards=rewards,
        advantages=np.asarray(advantages, dtype=float),
        weights=np.full(g, 1.0 / g),
    )


def _enumerated_return(mdp, policy) -> float:
    """Plain-Python oracle: sum of exp(log P(y)) * R(y) over every trajectory."""
    total = 0.0
    for y in itertools.product(range(mdp.vocab_size), repeat=mdp.horizon):
        total += math.exp(trajectory_log_prob(policy, y)) * reward(mdp, y)
    return total


class TestExactReturn:
    def test_rollout_alpha(self, toy_mdp, mu05):
        # closed form: P(Bin(7, 0.5) >= 6) = 8/128
        assert exact_return(toy_mdp, mu05) == pytest.approx(0.0625, abs=1e-12)

    def test_target_alpha(self, toy_mdp, pi08):
        # 0.8^6 * (7 - 6 * 0.8)
        assert exact_return(toy_mdp, pi08) == pytest.approx(0.5767168, abs=1e-12)

    def test_deterministic_success(self, toy_mdp):
        assert exact_return(toy_mdp, OneHotPolicy(toy_mdp)) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), which=st.integers(0, 3))
    def test_backward_induction_matches_enumeration(self, seed, which):
        mdp, pi, mu = random_setups(2, seed)[which // 2]
        policy = (pi, mu)[which % 2]
        oracle = _enumerated_return(mdp, policy)
        assert abs(exact_return(mdp, policy) - oracle) <= 1e-12 * max(1.0, abs(oracle))

    @pytest.mark.parametrize("vocab,horizon,target", [("abc", 7, "abcabc"), ("ab", 4, "bab")])
    def test_zero_probability_tokens(self, vocab, horizon, target):
        mdp = TokenMdp.from_symbols(vocab, horizon, target)
        oracle = _enumerated_return(mdp, OneHotPolicy(mdp))
        assert oracle == 1.0
        assert abs(exact_return(mdp, OneHotPolicy(mdp)) - oracle) <= 1e-12

    def test_target_longer_than_horizon_returns_zero(self):
        mdp = TokenMdp.from_symbols("ab", 3, "abab")
        policy = random_tabular(mdp, np.random.default_rng(5))
        assert _enumerated_return(mdp, policy) == 0.0
        assert exact_return(mdp, policy) == 0.0
        assert exact_return(mdp, OneHotPolicy(mdp)) == 0.0

    def test_single_token_horizon(self):
        mdp, pi, mu = _single_token_setup()
        for policy, value in ((pi, 0.8), (mu, 0.4)):
            assert abs(exact_return(mdp, policy) - _enumerated_return(mdp, policy)) <= 1e-12
            assert exact_return(mdp, policy) == pytest.approx(value, abs=1e-12)

    def test_enumeration_cap(self, toy_mdp, mu05):
        with pytest.raises(EnumerationCapError):
            exact_return(replace(toy_mdp, enumeration_cap=toy_mdp.n_trajectories - 1), mu05)
        capped = exact_return(replace(toy_mdp, enumeration_cap=toy_mdp.n_trajectories), mu05)
        assert capped == pytest.approx(0.0625, abs=1e-12)


class TestPerformanceDifference:
    def test_direct_toy_value(self, toy_mdp, mu05, pi08):
        assert performance_difference_direct(toy_mdp, pi08, mu05) == pytest.approx(
            0.5142168, abs=1e-12
        )

    def test_identical_policies(self, toy_mdp, mu05):
        assert performance_difference_trace(toy_mdp, mu05, mu05) == 0.0

    def test_antisymmetry(self, toy_mdp, mu05, pi08):
        forward = performance_difference_direct(toy_mdp, pi08, mu05)
        backward = performance_difference_direct(toy_mdp, mu05, pi08)
        assert forward == pytest.approx(-backward, abs=1e-12)

    def test_trace_form_matches_direct_on_toy(self, toy_mdp, mu05, pi08):
        trace = performance_difference_trace(toy_mdp, pi08, mu05)
        direct = performance_difference_direct(toy_mdp, pi08, mu05)
        assert abs(trace - direct) < 1e-10

    def test_trace_form_matches_direct_randomized(self):
        """Random full-support pairs on a 2-token horizon-3 MDP."""
        mdp = TokenMdp.from_symbols("ab", 3, "ab")
        rng = np.random.default_rng(17)
        for _ in range(25):
            pi, mu = random_tabular(mdp, rng), random_tabular(mdp, rng)
            gap = performance_difference_trace(mdp, pi, mu) - performance_difference_direct(
                mdp, pi, mu
            )
            assert abs(gap) < 1e-10


class TestWindowedSurrogate:
    def test_full_window_recovers_improvement(self, toy_mdp, mu05, pi08):
        full = n_step_surrogate_population(toy_mdp, pi08, mu05, 7)
        assert abs(full - 0.5142168) < 1e-10

    def test_identical_policies_vanish(self, toy_mdp, mu05):
        for n_step in (1, 3, 7):
            assert n_step_surrogate_population(toy_mdp, mu05, mu05, n_step) == 0.0

    def test_local_window_has_larger_bias(self, toy_mdp, mu05, pi08):
        improvement = performance_difference_direct(toy_mdp, pi08, mu05)
        local = n_step_surrogate_population(toy_mdp, pi08, mu05, 1)
        full = n_step_surrogate_population(toy_mdp, pi08, mu05, 7)
        assert abs(improvement - local) > abs(improvement - full)

    @pytest.mark.parametrize("n_step", [1, 4, 7])
    def test_against_plain_python_oracle(self, toy_mdp, mu05, pi08, n_step):
        oracle = brute_force_local_surrogate(toy_mdp, pi08, mu05, n_step)
        fast = n_step_surrogate_population(toy_mdp, pi08, mu05, n_step)
        assert fast == pytest.approx(oracle, abs=1e-11)

    def test_window_domain(self, toy_mdp, mu05, pi08):
        with pytest.raises(ValueError):
            n_step_surrogate_population(toy_mdp, pi08, mu05, 0)
        with pytest.raises(ValueError):
            n_step_surrogate_population(toy_mdp, pi08, mu05, 8)


class TestPerSampleStatistic:
    def test_zero_reward_kills_statistic(self, toy_mdp, mu05, pi08):
        assert per_sample_statistic(toy_mdp, (0,) * 7, pi08, mu05, 3).z == 0.0

    def test_local_value(self, toy_mdp, mu05, pi08):
        stat = per_sample_statistic(toy_mdp, TOY_TRAJECTORY, pi08, mu05, 1)
        assert stat.z == pytest.approx(3.6, abs=1e-12)

    def test_two_step_value(self, toy_mdp, mu05, pi08):
        stat = per_sample_statistic(toy_mdp, TOY_TRAJECTORY, pi08, mu05, 2)
        assert stat.z == pytest.approx(5.4, abs=1e-12)

    def test_identical_policies(self, toy_mdp, mu05):
        assert per_sample_statistic(toy_mdp, TOY_TRAJECTORY, mu05, mu05, 4).z == 0.0

    def test_bounded_by_concentration_envelope(self, toy_mdp, mu05, pi08):
        eps = ratio_deviation_bound(pi08, mu05, toy_mdp)
        rng = np.random.default_rng(21)
        for n_step in (1, 4, 7):
            envelope = b_n(1.0, eps, 7, n_step)
            for _ in range(100):
                group = sample_group(toy_mdp, mu05, 1, rng)
                z = per_sample_statistic(toy_mdp, group.trajectories[0], pi08, mu05, n_step).z
                assert abs(z) <= envelope + 1e-9


class TestEmpiricalSurrogate:
    def test_identical_policies(self, toy_mdp, mu05):
        group = sample_group(toy_mdp, mu05, 8, np.random.default_rng(0))
        assert n_step_surrogate_empirical(group, mu05, mu05, 4) == 0.0

    def test_singleton_group_equals_statistic(self, toy_mdp, mu05, pi08):
        group = _manual_group(toy_mdp, [TOY_TRAJECTORY], [0.0], rewards=[1.0])
        assert n_step_surrogate_empirical(group, pi08, mu05, 1) == pytest.approx(3.6, abs=1e-12)

    def test_unbiased_over_many_groups(self, toy_mdp, mu05, pi08):
        """Mean over 10^4 independent 8-sample groups lands within 3 SE of
        the enumerated population value."""
        population = n_step_surrogate_population(toy_mdp, pi08, mu05, 4)
        rng = np.random.default_rng(99)
        rows = policy_rows(mu05, toy_mdp)  # draws the tokens of sample_group on this generator
        values = np.array(
            [
                n_step_surrogate_empirical(sample_from_table(toy_mdp, rows, 8, rng), pi08, mu05, 4)
                for _ in range(10_000)
            ]
        )
        stderr = values.std(ddof=1) / np.sqrt(len(values))
        assert abs(values.mean() - population) < 3 * stderr


class TestVariance:
    def test_identical_policies(self, toy_mdp, mu05):
        assert variance_of_statistic(toy_mdp, mu05, mu05, 4).per_sample == 0.0

    def test_deterministic_rollout(self, toy_mdp, pi08):
        class OneHot:
            mdp = toy_mdp

            def probs(self, prefix):
                p = np.zeros(3)
                p[0] = 1.0
                return p

            def rows(self):
                return PolicyRows(np.tile(self.probs(()), (len(self.mdp.target) + 1, 1)), "match_length")

        report = variance_of_statistic(toy_mdp, pi08, OneHot(), 3)
        assert report.per_sample == pytest.approx(0.0, abs=1e-15)

    def test_full_window_noisier_than_local(self, toy_mdp, mu05, pi08):
        local = variance_of_statistic(toy_mdp, pi08, mu05, 1).per_sample
        full = variance_of_statistic(toy_mdp, pi08, mu05, 7).per_sample
        assert full > local

    def test_group_scaling(self, toy_mdp, mu05, pi08):
        report = variance_of_statistic(toy_mdp, pi08, mu05, 4, group_size=8)
        assert report.per_group == pytest.approx(report.per_sample / 8)


class TestPpoObjective:
    def test_identical_policies_center_out(self, toy_mdp, mu05):
        group = sample_group(toy_mdp, mu05, 8, np.random.default_rng(4))
        assert objective_value(group, mu05, mu05, PPO).value == pytest.approx(0.0, abs=1e-12)

    def test_upper_clip_engages(self):
        mdp, pi, mu = _single_token_setup()
        group = _manual_group(mdp, [(0,)], [1.0])
        assert objective_value(group, pi, mu, PPO).value == pytest.approx(1.28, abs=1e-12)

    def test_negative_advantage_stays_pessimistic(self):
        mdp, pi, mu = _single_token_setup()
        group = _manual_group(mdp, [(0,)], [-1.0])
        assert objective_value(group, pi, mu, PPO).value == pytest.approx(-2.0, abs=1e-12)


class TestMpgObjective:
    def test_identical_policies(self, toy_mdp, mu05):
        group = sample_group(toy_mdp, mu05, 8, np.random.default_rng(4))
        value = objective_value(group, mu05, mu05, _mpg(MASK_NONE)).value
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_masked_tokens_contribute_nothing(self, toy_mdp, mu05, pi08):
        """Value equals the hand-summed contribution of unmasked tokens."""
        spec = MaskSpec("tv", delta=0.2)
        group = sample_group(toy_mdp, mu05, 4, np.random.default_rng(8))
        expected = 0.0
        for w, adv, y in zip(group.weights, group.advantages, group.trajectories):
            profile = ratios(pi08, mu05, y)
            keep = token_mask(spec, profile, float(adv), mu05, pi08, y)
            expected += w * sum(
                float(adv) * float(profile.ratios[t]) for t in range(7) if keep[t] == 1
            )
        value = objective_value(group, pi08, mu05, _mpg(spec)).value
        assert value == pytest.approx(expected, abs=1e-12)


class TestNfpoObjective:
    def test_trivial_window_equals_masked_surrogate(self, toy_mdp, mu05, pi08):
        spec = MaskSpec("tv", delta=0.2)
        rng = np.random.default_rng(31)
        for _ in range(10):
            group = sample_group(toy_mdp, mu05, 8, rng)
            a = objective_value(group, pi08, mu05, _nfpo(1, spec)).value
            b = objective_value(group, pi08, mu05, _mpg(spec)).value
            assert abs(a - b) < 1e-14

    def test_identical_policies(self, toy_mdp, mu05):
        group = sample_group(toy_mdp, mu05, 8, np.random.default_rng(4))
        value = objective_value(group, mu05, mu05, _nfpo(4, MASK_NONE)).value
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_hand_evaluated_two_trajectory_group(self, toy_mdp, mu05, pi08):
        """abcabca (rewarded) and aaaaaaa (not): only the absorbed last token
        of the first and the inward first token of the second survive the
        mask, giving 0.5*0.5 + 0.5*(-0.5*1.6*0.8) = -0.07."""
        group = _manual_group(
            toy_mdp, [TOY_TRAJECTORY, (0,) * 7], [0.5, -0.5], rewards=[1.0, 0.0]
        )
        value = objective_value(group, pi08, mu05, _nfpo(4, MaskSpec("tv", delta=0.2))).value
        assert value == pytest.approx(-0.07, abs=1e-12)

    def test_provenance_recorded(self, toy_mdp, mu05, pi08):
        spec = ObjectiveSpec("nfpo", n_step=4, mask=MaskSpec("tv", delta=0.2))
        group = sample_group(toy_mdp, mu05, 4, np.random.default_rng(0))
        result = objective_value(group, pi08, mu05, spec)
        assert result.kind == "nfpo"
        assert result.params["n_step"] == 4
        assert result.params["mask"]["delta"] == 0.2


class TestNfpoGradient:
    def test_zero_advantages_give_zero_gradient(self, toy_mdp, mu05):
        pi = TabularSoftmaxPolicy.from_policy(toy_mdp, mu05)
        group = _manual_group(toy_mdp, [TOY_TRAJECTORY, (1,) * 7], [0.0, 0.0])
        grad = objective_gradient(group, pi, mu05, _nfpo(4, MASK_NONE))
        assert not grad.any()

    def test_single_state_score_identity(self):
        """One unmasked token: d/dlogit_b = c*rho*(1{b=tok} - pi(b))."""
        mdp, pi, mu = _single_token_setup()
        group = _manual_group(mdp, [(0,)], [1.0])
        grad = objective_gradient(group, pi, mu, _nfpo(1, MASK_NONE))
        probs = pi.probs(())
        rho = probs[0] / mu.probs(())[0]
        np.testing.assert_allclose(
            grad[pi.row(())], [rho * (1 - probs[0]), -rho * probs[1]], atol=1e-12
        )

    def test_state_rows_sum_to_zero(self, toy_mdp, mu05):
        rng = np.random.default_rng(1)  # seed chosen so the group has a reward spread
        pi = random_tabular(toy_mdp, rng)
        group = sample_group(toy_mdp, mu05, 8, rng)
        grad = objective_gradient(group, pi, mu05, _nfpo(4, MaskSpec("tv", delta=0.2)))
        assert grad.any()
        for row in grad:
            assert abs(row.sum()) < 1e-10

    def test_matches_finite_differences(self):
        """Analytic gradient vs central differences of the frozen objective,
        in both the rho and the rho-minus-one form (the constant shift)."""
        mdp = TokenMdp.from_symbols("abc", 3, "ab")
        mu = TargetFollowingPolicy(mdp, 0.5)
        rng = np.random.default_rng(77)
        for _ in range(20):
            pi = random_tabular(mdp, rng)
            group = sample_group(mdp, mu, 6, rng)
            grad = objective_gradient(group, pi, mu, _nfpo(2, MaskSpec("tv", delta=0.2)))
            coeffs = frozen_nfpo_coefficients(
                group, pi, mu, 2, 3.0, 0.2, 0.4, MaskSpec("tv", delta=0.2)
            )
            for minus_one in (False, True):
                numeric = finite_difference_gradient(group, pi, mu, coeffs, minus_one=minus_one)
                gap = gradient_gap(grad, numeric)
                assert gap < 1e-5

    def test_requires_tabular_policy(self, toy_mdp, mu05, pi08):
        group = sample_group(toy_mdp, mu05, 4, np.random.default_rng(0))
        with pytest.raises(TypeError):
            objective_gradient(group, pi08, mu05, _nfpo(4, MASK_NONE))
