import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracelab import (
    MASK_NONE,
    GroupRollout,
    MaskSpec,
    ObjectiveSpec,
    ZeroSupportError,
    exact_return,
    sample_from_table,
)
from helpers import (
    population_group,
    ratios,
    ratios_from_values,
    residual_check,
    sample_group,
    token_mask,
    traces,
)

TOY_TRAJECTORY = (0, 1, 2, 0, 1, 2, 0)  # abcabca


class TestRatios:
    def test_identical_policies_bitwise_one(self, toy_mdp, mu05):
        profile = ratios(mu05, mu05, TOY_TRAJECTORY)
        assert np.all(profile.ratios == 1.0)
        assert np.all(profile.log_ratios == 0.0)

    def test_toy_values(self, toy_mdp, mu05, pi08):
        profile = ratios(pi08, mu05, TOY_TRAJECTORY)
        np.testing.assert_allclose(profile.ratios, [1.6] * 6 + [1.0], atol=1e-12)

    def test_off_target_ratio(self, toy_mdp, mu05, pi08):
        profile = ratios(pi08, mu05, (1,) * 7)
        # first token misses the required 'a': 0.1 / 0.25
        assert profile.ratios[0] == pytest.approx(0.4)

    def test_log_ratio_consistency(self, toy_mdp, mu05, pi08):
        profile = ratios(pi08, mu05, TOY_TRAJECTORY)
        np.testing.assert_allclose(np.exp(profile.log_ratios), profile.ratios, atol=1e-12)

    def test_zero_support_rejected(self, toy_mdp, pi08):
        class OneHot:
            def probs(self, prefix):
                p = np.zeros(3)
                p[0] = 1.0
                return p

        with pytest.raises(ZeroSupportError):
            ratios(pi08, OneHot(), (1,) * 7)


class TestTraces:
    def _toy_profile(self, mu05, pi08):
        return ratios(pi08, mu05, TOY_TRAJECTORY)

    def test_full_trace_after_first_token(self, toy_mdp, mu05, pi08):
        ts = traces(self._toy_profile(mu05, pi08), 4, 3.0, 0.2, 0.4)
        assert ts.full[0] == pytest.approx(1.6**5, rel=1e-12)

    def test_window_and_clip(self, toy_mdp, mu05, pi08):
        ts = traces(self._toy_profile(mu05, pi08), 4, 3.0, 0.2, 0.4)
        assert ts.n_step[0] == pytest.approx(1.6**3, rel=1e-12)
        assert ts.clipped[0] == pytest.approx(1.4)

    def test_single_step_window_is_trivial(self, toy_mdp, mu05, pi08):
        profile = self._toy_profile(mu05, pi08)
        ts = traces(profile, 1, 3.0, 0.2, 0.4)
        assert np.all(ts.n_step == 1.0)
        assert np.all(ts.residual == ts.full)
        assert residual_check(ts) == 0.0

    def test_full_window_has_no_residual(self, toy_mdp, mu05, pi08):
        profile = self._toy_profile(mu05, pi08)
        ts = traces(profile, 7, 3.0, 0.2, 0.4)
        assert np.all(ts.n_step == ts.full)
        assert np.all(ts.residual == 1.0)
        assert residual_check(ts) == 0.0

    def test_terminal_positions_are_empty_products(self, toy_mdp, mu05, pi08):
        ts = traces(self._toy_profile(mu05, pi08), 4, 3.0, 0.2, 0.4)
        assert ts.full[-1] == 1.0
        assert ts.n_step[-1] == 1.0

    def test_clipped_stays_in_band(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            profile = ratios_from_values(np.exp(rng.normal(0, 1, 9)))
            ts = traces(profile, 3, 3.0, 0.2, 0.4)
            assert np.all(ts.clipped >= 0.8 - 1e-15)
            assert np.all(ts.clipped <= 1.4 + 1e-15)

    def test_clipped_ratio_band(self):
        profile = ratios_from_values([5.0, 0.01, 1.0])
        ts = traces(profile, 2, 3.0, 0.2, 0.4)
        np.testing.assert_allclose(ts.clipped_ratio, [3.0, 1 / 3, 1.0])

    @pytest.mark.parametrize(
        "n_step,beta,eps_low,eps_high,message",
        [
            pytest.param(0, 3.0, 0.2, 0.4, "n_step must be >= 1", id="0-3.0-0.2-0.4"),
            pytest.param(8, 3.0, 0.2, 0.4, r"n_step must lie in \[1, 7\], got 8", id="8-3.0-0.2-0.4"),
            pytest.param(7, 1.0, 0.2, 0.4, "beta must exceed 1", id="7-1.0-0.2-0.4"),
            pytest.param(7, 3.0, 1.2, 0.4, r"eps_low must lie in \(0, 1\)", id="7-3.0-1.2-0.4"),
            pytest.param(7, 3.0, 0.2, 0.0, "eps_high must be positive", id="7-3.0-0.2-0.0"),
        ],
    )
    def test_parameter_domains(self, toy_mdp, mu05, pi08, n_step, beta, eps_low, eps_high, message):
        """The spec refuses the trace's knobs when built, and the trace a window past the horizon."""
        with pytest.raises(ValueError, match=message):
            ObjectiveSpec("nfpo", n_step, beta, eps_low, eps_high).trace(self._toy_profile(mu05, pi08).ratios)

    @given(
        st.lists(st.floats(-0.7, 0.7), min_size=1, max_size=10),
        st.integers(1, 10),
    )
    @settings(max_examples=300)
    def test_decomposition_identity(self, log_ratios, n_step):
        """full = window * residual at every position and window size."""
        profile = ratios_from_values(np.exp(np.array(log_ratios)))
        n_step = min(n_step, len(log_ratios))
        ts = traces(profile, n_step, 3.0, 0.2, 0.4)
        assert residual_check(ts) < 1e-10


class TestTokenMask:
    def test_none_keeps_everything(self, toy_mdp, mu05, pi08):
        profile = ratios(pi08, mu05, TOY_TRAJECTORY)
        mask = token_mask(MASK_NONE, profile, 0.5, mu05, pi08, TOY_TRAJECTORY)
        assert np.all(mask == 1)

    def test_tv_mask_drops_outward_moves(self, toy_mdp, mu05, pi08):
        """At positive advantage: ratio-0.4 tokens point back toward the
        rollout policy (kept); ratio-1.6 tokens at wide states are dropped."""
        spec = MaskSpec("tv", delta=0.2)
        y = (0, 0, 1, 2, 0, 1, 2)  # second token misses the required 'b'
        profile = ratios(pi08, mu05, y)
        mask = token_mask(spec, profile, 0.5, mu05, pi08, y)
        assert profile.ratios[1] == pytest.approx(0.4)
        assert mask[1] == 1
        assert profile.ratios[0] == pytest.approx(1.6)
        assert mask[0] == 0

    def test_tv_mask_keeps_absorbed_states(self, toy_mdp, mu05, pi08):
        spec = MaskSpec("tv", delta=0.2)
        profile = ratios(pi08, mu05, TOY_TRAJECTORY)
        mask = token_mask(spec, profile, 0.5, mu05, pi08, TOY_TRAJECTORY)
        # last token sits at the fully-matched state where both are uniform
        assert mask[-1] == 1

    def test_ratio_band_mask(self, toy_mdp, mu05):
        spec = MaskSpec("grpo_ratio", eps_low=0.2, eps_high=0.28)
        profile = ratios_from_values([1.25, 1.3, 0.75])
        mask = token_mask(spec, profile, 1.0, mu05, mu05, TOY_TRAJECTORY[:3])
        # 1.25 inside (0.8, 1.28); 1.3 outside and outward; 0.75 outside but inward
        np.testing.assert_array_equal(mask, [1, 0, 1])

    def test_icepop_mask_ignores_advantage(self, toy_mdp, mu05):
        spec = MaskSpec("icepop", beta=3.0)
        profile = ratios_from_values([2.9, 3.1, 0.2, 1.0])
        for advantage in (1.0, -1.0):
            mask = token_mask(spec, profile, advantage, mu05, mu05, (0, 0, 0, 0))
            np.testing.assert_array_equal(mask, [1, 0, 0, 1])

    def test_kl_mask(self, toy_mdp, mu05, pi08):
        spec = MaskSpec("kl", delta=1e-6)
        profile = ratios(pi08, mu05, TOY_TRAJECTORY)
        mask = token_mask(spec, profile, 0.5, mu05, pi08, TOY_TRAJECTORY)
        assert mask[0] == 0  # KL at the start state far exceeds the threshold
        assert mask[-1] == 1  # uniform-vs-uniform has zero KL

    def test_none_dominates_every_mask(self, toy_mdp, mu05, pi08):
        specs = [
            MaskSpec("grpo_ratio", eps_low=0.2, eps_high=0.28),
            MaskSpec("tv", delta=0.2),
            MaskSpec("kl", delta=0.05),
            MaskSpec("icepop", beta=3.0),
        ]
        rng = np.random.default_rng(9)
        group = sample_group(toy_mdp, mu05, 6, rng)
        for y, adv in zip(map(tuple, group.tokens.tolist()), group.advantages):
            profile = ratios(pi08, mu05, y)
            baseline = token_mask(MASK_NONE, profile, float(adv), mu05, pi08, y)
            for spec in specs:
                masked = token_mask(spec, profile, float(adv), mu05, pi08, y)
                assert set(np.unique(masked)) <= {0, 1}
                assert np.all(baseline >= masked)

    def test_mask_parameter_domains(self):
        with pytest.raises(ValueError):
            MaskSpec("tv")
        with pytest.raises(ValueError):
            MaskSpec("grpo_ratio", eps_low=1.2, eps_high=0.28)
        with pytest.raises(ValueError):
            MaskSpec("icepop", beta=0.5)
        with pytest.raises(ValueError):
            MaskSpec("sequence")


@pytest.mark.parametrize(
    "build,message",
    [
        pytest.param(
            lambda mdp, mu: MaskSpec("grpo_ratio", eps_low=0.2, eps_high=0.0),
            "grpo_ratio mask needs eps_high > 0",
            id="grpo_ratio-eps_high",
        ),
        pytest.param(
            lambda mdp, mu: GroupRollout(mdp, [TOY_TRAJECTORY], [0.0, 1.0], [0.0], [1.0], mu),
            "rollout group field lengths disagree",
            id="field-lengths",
        ),
        pytest.param(
            lambda mdp, mu: GroupRollout(mdp, [TOY_TRAJECTORY], [0.0], [0.0], [0.5], mu),
            "rollout group weights must sum to 1",
            id="weights-sum",
        ),
        pytest.param(
            lambda mdp, mu: sample_from_table(mdp, mu, 0, np.random.default_rng(0)),
            "group_size must be >= 1, got 0",
            id="empty-draw",
        ),
    ],
)
def test_group_inputs_refused(toy_mdp, mu05, build, message):
    with pytest.raises(ValueError, match=message):
        build(toy_mdp, mu05)


def _sampled_groups(mdp, policy, group_size: int, count: int, seed: int):
    rng = np.random.default_rng(seed)
    return [sample_from_table(mdp, policy, group_size, rng) for _ in range(count)]


class TestGroups:
    def test_centering_example(self, toy_mdp, pi08):
        """With h hits among G rewards, a hit is centred to 1 - h/G and a miss to -h/G."""
        groups = _sampled_groups(toy_mdp, pi08, 4, 50, 0)
        assert any(0 < group.rewards.sum() < 4 for group in groups)
        for group in groups:
            hits = group.rewards.sum()
            expected = np.where(group.rewards == 1.0, 1.0 - hits / 4, -hits / 4)
            np.testing.assert_allclose(group.advantages, expected, rtol=0, atol=1e-15)

    def test_equal_rewards_center_to_zero(self, toy_mdp, mu05):
        groups = _sampled_groups(toy_mdp, mu05, 5, 20, 1) + _sampled_groups(toy_mdp, mu05, 1, 20, 2)
        equal = [g for g in groups if np.all(g.rewards == g.rewards[0])]
        assert any(g.group_size == 5 for g in equal)
        for group in equal:
            np.testing.assert_array_equal(group.advantages, np.zeros(group.group_size))

    def test_eight_sample_centering(self, toy_mdp, pi08):
        two_hits = [g for g in _sampled_groups(toy_mdp, pi08, 8, 100, 3) if g.rewards.sum() == 2]
        assert two_hits
        for group in two_hits:
            adv = np.sort(group.advantages)[::-1]
            np.testing.assert_allclose(adv, [0.75, 0.75] + [-0.25] * 6)

    def test_advantages_sum_to_zero(self, toy_mdp, pi08):
        for group in _sampled_groups(toy_mdp, pi08, 17, 20, 4):
            assert abs(group.advantages.sum()) < 1e-12

    def test_sample_group_shapes(self, toy_mdp, mu05):
        group = sample_group(toy_mdp, mu05, 8, np.random.default_rng(0))
        assert group.group_size == 8
        assert abs(group.advantages.sum()) < 1e-12
        np.testing.assert_allclose(group.weights, 1 / 8)

    def test_population_group_matches_exact_return(self, toy_mdp, mu05):
        group = population_group(toy_mdp, mu05)
        assert group.weights.sum() == pytest.approx(1.0, abs=1e-12)
        mean_reward = float(group.weights @ group.rewards)
        assert mean_reward == pytest.approx(exact_return(toy_mdp, mu05), abs=1e-12)
