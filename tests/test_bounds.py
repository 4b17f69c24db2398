import math
from collections import Counter

import numpy as np
import pytest

from tracelab import (
    b_n,
    b_n_increment,
    hoeffding_penalty,
    s_n,
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


class TestTheoremLowerBound:
    def test_identical_policies(self, toy_mdp, mu05):
        group = sample_group(toy_mdp, mu05, 8, np.random.default_rng(0))
        report = theorem_lower_bound(group, mu05, mu05, 4, 0.05)
        assert report.empirical_surrogate == 0.0
        assert report.truncation_bias == 0.0
        assert report.lower_bound == pytest.approx(-report.hoeffding)
        assert report.lower_bound <= 0.0  # true improvement is exactly 0

    def test_full_window_drops_truncation(self, toy_mdp, mu05, pi08):
        group = sample_group(toy_mdp, mu05, 8, np.random.default_rng(1))
        report = theorem_lower_bound(group, pi08, mu05, 7, 0.05)
        assert report.truncation_bias == 0.0
        assert report.dtv_max > 0.0

    def test_component_assembly(self, toy_mdp, mu05, pi08):
        group = sample_group(toy_mdp, mu05, 8, np.random.default_rng(2))
        report = theorem_lower_bound(group, pi08, mu05, 4, 0.05)
        assert report.eps == pytest.approx(0.6)
        assert report.dtv_max == pytest.approx(0.3)
        assert report.b_n == pytest.approx(report.xi * report.eps * report.s_n)
        assert report.lower_bound == pytest.approx(
            report.empirical_surrogate - report.truncation_bias - report.hoeffding
        )

    def test_understated_eps_rejected(self, toy_mdp, mu05, pi08):
        group = sample_group(toy_mdp, mu05, 8, np.random.default_rng(3))
        with pytest.raises(ValueError, match="ratio-deviation bound"):
            theorem_lower_bound(group, pi08, mu05, 4, 0.05, eps=0.3)

    def test_generous_eps_accepted(self, toy_mdp, mu05, pi08):
        group = sample_group(toy_mdp, mu05, 8, np.random.default_rng(3))
        report = theorem_lower_bound(group, pi08, mu05, 4, 0.05, eps=0.9)
        assert report.eps == 0.9


class TestCoverage:
    def test_identical_policies_cover_always(self, toy_mdp, mu05):
        assert verify_coverage(toy_mdp, mu05, mu05, 4, 8, 0.05, trials=50, seed=0) == 1.0

    def test_toy_coverage_quick(self, toy_mdp, mu05, pi08):
        coverage = verify_coverage(toy_mdp, pi08, mu05, 4, 8, 0.05, trials=300, seed=5)
        sigma = math.sqrt(0.95 * 0.05 / 300)
        assert coverage >= 0.95 - 3 * sigma

    def test_loose_confidence_still_valid(self, toy_mdp, mu05, pi08):
        coverage = verify_coverage(toy_mdp, pi08, mu05, 4, 8, 0.5, trials=300, seed=6)
        sigma = math.sqrt(0.5 * 0.5 / 300)
        assert coverage >= 0.5 - 3 * sigma


class TestTableBuilds:
    @pytest.mark.parametrize("command", ["verify", "sweep"])
    def test_each_policy_table_built_twice_per_run(self, tmp_path, command):
        """verify builds pi's and mu's tables once for the bound report and
        once for the coverage check; sweep once for its enumeration pass and
        once for eps and dtv_max."""
        calls = Counter()
        inner = policies.policy_prob_table

        def counted(*args, **kwargs):
            calls["policy_prob_table"] += 1
            return inner(*args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            for module in (policies, weights, objectives, bounds, lab, config, cli):
                if getattr(module, "policy_prob_table", None) is inner:
                    patch.setattr(module, "policy_prob_table", counted)
            args = [command, "--out", str(tmp_path), "--set", "experiment.trials=20"]
            assert cli.run(args) == 0
        assert calls == {"policy_prob_table": 4}


class TestResidualCheck:
    def test_random_profiles(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            length = int(rng.integers(1, 11))
            profile = ratios_from_values(np.exp(rng.uniform(-0.7, 0.7, length)))
            for n_step in range(1, length + 1):
                assert residual_check(traces(profile, n_step, 3.0, 0.2, 0.4)) < 1e-10
