import math
from collections import Counter

import numpy as np
import pytest

from tracelab import (
    TargetFollowingPolicy,
    TokenMdp,
    b_n,
    b_n_increment,
    hoeffding_penalty,
    s_n,
    sample_from_table,
    theorem_lower_bound,
    truncation_bias_bound,
    verify_coverage,
)
from tracelab import bounds, cli, config, lab, objectives, policies, weights
from helpers import ratios_from_values, residual_check, sample_group, traces


class TestTruncationBias:
    def test_vanishes_at_full_window(self):
        assert truncation_bias_bound(1.0, 7, 7, 0.3) == 0.0

    def test_mid_window_value(self):
        # 2 * 1 * 3 * 4 * 0.09
        assert truncation_bias_bound(1.0, 7, 4, 0.3) == pytest.approx(2.16)

    def test_local_window_value(self):
        # 2 * 1 * 6 * 7 * 0.09
        assert truncation_bias_bound(1.0, 7, 1, 0.3) == pytest.approx(7.56)

    def test_strictly_decreasing_in_window(self):
        values = [truncation_bias_bound(1.0, 7, n, 0.3) for n in range(1, 8)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_domains(self):
        with pytest.raises(ValueError):
            truncation_bias_bound(1.0, 7, 0, 0.3)
        with pytest.raises(ValueError):
            truncation_bias_bound(1.0, 7, 3, 1.5)
        with pytest.raises(ValueError):
            truncation_bias_bound(-1.0, 7, 3, 0.3)


class TestConcentrationEnvelope:
    def test_local_window_is_flat_sum(self):
        # every exponent is zero: xi * eps * horizon
        assert b_n(1.0, 0.1, 3, 1) == pytest.approx(0.3)

    def test_short_horizon_value(self):
        # 0.1 * (1.1 + 1.1 + 1)
        assert b_n(1.0, 0.1, 3, 2) == pytest.approx(0.32)

    def test_toy_family_value(self):
        # 0.6 * (6 * 1.6 + 1)
        assert b_n(1.0, 0.6, 7, 2) == pytest.approx(6.36)

    def test_strictly_increasing(self):
        values = [b_n(1.0, 0.6, 7, n) for n in range(1, 8)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_increment_formula_matches_recomputation(self):
        for xi in (0.5, 1.0, 2.0):
            for eps in (0.05, 0.1, 0.6, 1.5):
                for horizon in (2, 3, 5, 7, 12):
                    for n in range(1, horizon):
                        direct = b_n(xi, eps, horizon, n + 1) - b_n(xi, eps, horizon, n)
                        closed = b_n_increment(xi, eps, horizon, n)
                        assert abs(direct - closed) < 1e-12 * max(1.0, closed)

    def test_domains(self):
        with pytest.raises(ValueError):
            s_n(0.0, 7, 2)
        with pytest.raises(ValueError):
            b_n(0.0, 0.1, 7, 2)
        with pytest.raises(ValueError):
            b_n_increment(1.0, 0.1, 7, 7)

    def test_overflow_named(self):
        """A value past the largest float is refused, naming eps and N, whether a
        power overflows or a sum or product of finite ones does."""
        with pytest.raises(ValueError, match=r"^s_n overflows a float at eps = 18\.0 and N = 300$"):
            s_n(18.0, 300, 300)
        with pytest.raises(ValueError, match=r"^s_n overflows a float at eps = 18\.0 and N = 241$"):
            s_n(18.0, 300, 241)
        assert math.isfinite(s_n(18.0, 240, 240))
        with pytest.raises(ValueError, match=r"^b_n overflows a float at eps = 18\.0 and N = 240$"):
            b_n(1e10, 18.0, 240, 240)
        with pytest.raises(ValueError, match=r"^b_n_increment overflows a float at eps = 18\.0 and N = 299$"):
            b_n_increment(1.0, 18.0, 300, 299)
        with pytest.raises(ValueError, match=r"^b_n_increment overflows a float at eps = 18\.0 and N = 241$"):
            b_n_increment(1e10, 18.0, 300, 241)


class TestHoeffdingPenalty:
    def test_confidence_domain(self):
        with pytest.raises(ValueError):
            hoeffding_penalty(1.0, 1.0, 8)
        with pytest.raises(ValueError):
            hoeffding_penalty(1.0, 0.0, 8)

    def test_unit_value(self):
        assert hoeffding_penalty(1.0, math.exp(-0.5), 1) == pytest.approx(1.0)

    def test_quadrupling_samples_halves_penalty(self):
        base = hoeffding_penalty(2.0, 0.05, 8)
        assert hoeffding_penalty(2.0, 0.05, 32) == pytest.approx(base / 2)

    @pytest.mark.parametrize(
        "b_n_value,group_size,message",
        [(1.0, 0, "group_size must be >= 1"), (-1.0, 8, "b_n_value must be non-negative")],
    )
    def test_sample_domains(self, b_n_value, group_size, message):
        with pytest.raises(ValueError, match=message):
            hoeffding_penalty(b_n_value, 0.05, group_size)


class TestTheoremLowerBound:
    def test_identical_policies(self, toy_mdp, mu05):
        group = sample_group(toy_mdp, mu05, 8, np.random.default_rng(0))
        report = theorem_lower_bound(group, mu05, 4, 0.05)
        assert report.empirical_surrogate == 0.0
        assert report.truncation_bias == 0.0
        assert report.lower_bound == pytest.approx(-report.hoeffding)
        assert report.lower_bound <= 0.0  # true improvement is exactly 0

    def test_full_window_drops_truncation(self, toy_mdp, mu05, pi08):
        group = sample_group(toy_mdp, mu05, 8, np.random.default_rng(1))
        report = theorem_lower_bound(group, pi08, 7, 0.05)
        assert report.truncation_bias == 0.0
        assert report.dtv_max > 0.0

    def test_component_assembly(self, toy_mdp, mu05, pi08):
        group = sample_group(toy_mdp, mu05, 8, np.random.default_rng(2))
        report = theorem_lower_bound(group, pi08, 4, 0.05)
        assert report.eps == pytest.approx(0.6)
        assert report.dtv_max == pytest.approx(0.3)
        assert report.b_n == pytest.approx(report.xi * report.eps * report.s_n)
        assert report.lower_bound == pytest.approx(
            report.empirical_surrogate - report.truncation_bias - report.hoeffding
        )


    def test_reward_above_xi_rejected(self, toy_mdp, mu05, pi08):
        """xi is mdp.reward_bound; a group whose reward exceeds it breaks the
        bound's hypothesis, so the bound refuses the group."""
        group = weights.GroupRollout(
            mdp=toy_mdp,
            tokens=np.zeros((2, toy_mdp.horizon), dtype=np.int64),
            rewards=np.array([2.0, 0.0]),
            advantages=np.array([1.0, -1.0]),
            weights=np.full(2, 0.5),
            rollout=mu05,
        )
        with pytest.raises(ValueError, match="exceeding the bound xi = 1.0"):
            theorem_lower_bound(group, pi08, 4, 0.05)

    @pytest.mark.parametrize("n_step", [0, 8])
    def test_window_past_the_horizon_refused(self, toy_mdp, mu05, pi08, n_step):
        group = sample_group(toy_mdp, mu05, 8, np.random.default_rng(0))
        with pytest.raises(ValueError, match=rf"n_step must lie in \[1, 7\], got {n_step}"):
            theorem_lower_bound(group, pi08, n_step, 0.05)


class TestCoverage:
    def test_identical_policies_cover_always(self, toy_mdp, mu05):
        report = theorem_lower_bound(sample_group(toy_mdp, mu05, 8, np.random.default_rng(0)), mu05, 4, 0.05)
        assert verify_coverage(toy_mdp, mu05, mu05, report, trials=50, seed=0) == 1.0

    def test_needs_a_trial(self, toy_mdp, mu05):
        report = theorem_lower_bound(sample_group(toy_mdp, mu05, 8, np.random.default_rng(0)), mu05, 4, 0.05)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            verify_coverage(toy_mdp, mu05, mu05, report, trials=0)

    def test_toy_coverage_quick(self, toy_mdp, mu05, pi08):
        report = theorem_lower_bound(sample_group(toy_mdp, mu05, 8, np.random.default_rng(0)), pi08, 4, 0.05)
        coverage = verify_coverage(toy_mdp, pi08, mu05, report, trials=300, seed=5)
        sigma = math.sqrt(0.95 * 0.05 / 300)
        assert coverage >= 0.95 - 3 * sigma

    def test_loose_confidence_still_valid(self, toy_mdp, mu05, pi08):
        report = theorem_lower_bound(sample_group(toy_mdp, mu05, 8, np.random.default_rng(0)), pi08, 4, 0.5)
        coverage = verify_coverage(toy_mdp, pi08, mu05, report, trials=300, seed=6)
        sigma = math.sqrt(0.5 * 0.5 / 300)
        assert coverage >= 0.5 - 3 * sigma

    @pytest.mark.parametrize("seed", [0, 1])
    def test_dropping_the_hoeffding_term_fails_coverage(self, seed):
        """On a close pair with a large group the bound is not vacuous, so the
        coverage check has teeth: the full bound reaches the CLI's threshold,
        and the same bound without its Hoeffding term falls below it."""
        mdp = TokenMdp.from_symbols("abc", 11, "abcabc")
        mu, pi = TargetFollowingPolicy(mdp, 0.5), TargetFollowingPolicy(mdp, 0.52)
        group = sample_from_table(mdp, mu, 1024, np.random.default_rng(seed))
        report = theorem_lower_bound(group, pi, 11, 0.05)
        threshold = 0.95 - 3 * math.sqrt(0.95 * 0.05 / 200)
        assert verify_coverage(mdp, pi, mu, report, trials=200, seed=seed + 1) >= threshold
        dropped = report._replace(hoeffding=0.0)
        assert verify_coverage(mdp, pi, mu, dropped, trials=200, seed=seed + 1) < threshold


PREFIX_PI = 'policies.pi={"family":"tabular_softmax","init":"zeros","state_key":"prefix"}'


class TestTableBuilds:
    @pytest.mark.parametrize(
        "command,overrides,builds",
        [
            pytest.param("verify", [], {}, id="verify"),
            pytest.param("sweep", [], {"policy_log_matrix": 2}, id="sweep"),
            pytest.param("verify", [PREFIX_PI], {"policy_prob_table": 2}, id="verify-prefix-pi"),
            pytest.param(
                "sweep", [PREFIX_PI], {"policy_log_matrix": 2, "policy_prob_table": 2}, id="sweep-prefix-pi"
            ),
        ],
    )
    def test_state_tables_built_per_run(self, tmp_path, command, overrides, builds):
        """Both table builders are counted: policy_log_matrix, the log of a
        policy's own rows that the enumeration pass reads, and
        policy_prob_table, which lifts a policy or its rows to [n_states, V].
        The default target-following pair is read from its own rows, so
        verify builds no table and sweep only its pass's two log rows.  A
        prefix-keyed pi beside the match-length mu lifts both policies once for
        eps and dtv_max, which verify's bound report and coverage check share."""
        calls = Counter()

        def counted(name, inner):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            return wrapper

        with pytest.MonkeyPatch.context() as patch:
            for name in ("policy_log_matrix", "policy_prob_table"):
                inner = getattr(policies, name)
                for module in (policies, weights, objectives, bounds, lab, config, cli):
                    if getattr(module, name, None) is inner:
                        patch.setattr(module, name, counted(name, inner))
            sets = [arg for s in ["experiment.trials=20", *overrides] for arg in ("--set", s)]
            assert cli.run([command, "--out", str(tmp_path), *sets]) == 0
        assert calls == builds


class TestResidualCheck:
    def test_random_profiles(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            length = int(rng.integers(1, 11))
            profile = ratios_from_values(np.exp(rng.uniform(-0.7, 0.7, length)))
            for n_step in range(1, length + 1):
                assert residual_check(traces(profile, n_step, 3.0, 0.2, 0.4)) < 1e-10
