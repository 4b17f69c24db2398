from collections import Counter

import numpy as np
import pytest

from tracelab import (
    MASK_NONE,
    MaskSpec,
    ObjectiveSpec,
    TabularSoftmaxPolicy,
    TrainRecord,
    alternating_profile,
    bias_variance_sweep,
    d_tv_max,
    dynamics_report,
    exact_return,
    gradient_norm,
    n_step_surrogate_population,
    objective_gradient,
    objective_value,
    performance_difference_direct,
    smoothing_demo,
    switch_frequency,
    train,
)
from tracelab import bounds, lab, objectives, policies, weights
from tracelab import mdp as mdp_module
from helpers import population_group, ratios, sample_group

NFPO_TOY = ObjectiveSpec(
    kind="nfpo", n_step=4, beta=3.0, eps_low=0.2, eps_high=0.4, mask=MaskSpec("tv", delta=0.2)
)


@pytest.fixture(scope="module")
def rows(toy_mdp, mu05, pi08):
    return bias_variance_sweep(toy_mdp, pi08, mu05, range(1, 8), 8, 0.05)


class TestSweep:

    def test_full_window_is_exact(self, rows):
        assert rows[-1].abs_bias < 1e-10

    def test_bias_shrinks_with_window(self, rows):
        biases = [r.abs_bias for r in rows]
        assert all(a >= b for a, b in zip(biases, biases[1:]))
        assert biases[0] > biases[-1]

    def test_variance_grows_from_local_to_full(self, rows):
        assert rows[-1].per_sample_variance > rows[0].per_sample_variance

    def test_rows_match_objective_module(self, rows, toy_mdp, mu05, pi08):
        local = n_step_surrogate_population(toy_mdp, pi08, mu05, 1)
        improvement = performance_difference_direct(toy_mdp, pi08, mu05)
        assert abs(rows[0].population_surrogate - local) < 1e-10
        assert abs(rows[-1].population_surrogate - improvement) < 1e-10
        assert all(r.exact_improvement == pytest.approx(improvement) for r in rows)

    def test_exact_improvement_is_the_direct_return_gap(self, rows, toy_mdp, mu05, pi08):
        """The improvement comes from backward induction, not from the
        enumeration pass that gives the N = T surrogate."""
        improvement = performance_difference_direct(toy_mdp, pi08, mu05)
        assert [r.exact_improvement for r in rows] == [improvement] * len(rows)

    def test_population_inequality_every_window(self, rows):
        """Improvement >= surrogate - truncation term, deterministically."""
        for row in rows:
            assert row.exact_improvement >= row.population_surrogate - row.bound_truncation - 1e-10


class TestTrain:
    def test_zero_learning_rate_freezes_return(self, toy_mdp, mu05):
        pi = TabularSoftmaxPolicy.from_policy(toy_mdp, mu05)
        records = train(toy_mdp, pi, NFPO_TOY, steps=10, learning_rate=0.0, group_size=8, seed=0)
        returns = [r.exact_return for r in records]
        assert len(set(returns)) == 1
        assert returns[0] == pytest.approx(0.0625, abs=1e-12)

    def test_bitwise_deterministic(self, toy_mdp, mu05):
        runs = []
        for _ in range(2):
            pi = TabularSoftmaxPolicy.from_policy(toy_mdp, mu05)
            runs.append(
                train(toy_mdp, pi, NFPO_TOY, steps=30, learning_rate=0.1, group_size=8, seed=11)
            )
        assert runs[0] == runs[1]

    def test_off_policy_refresh_creates_policy_gap(self, toy_mdp, mu05):
        pi = TabularSoftmaxPolicy.from_policy(toy_mdp, mu05)
        records = train(
            toy_mdp, pi, NFPO_TOY, steps=40, learning_rate=0.3, group_size=8, seed=1,
            rollout_refresh=10,
        )
        assert max(r.dtv_max for r in records) > 0.0

    def test_improves_from_rollout_baseline(self, toy_mdp, mu05):
        pi = TabularSoftmaxPolicy.from_policy(toy_mdp, mu05, state_key="match_length")
        records = train(toy_mdp, pi, NFPO_TOY, steps=150, learning_rate=0.1, group_size=8, seed=0)
        assert records[-1].exact_return > 0.0625

    @pytest.mark.parametrize("kind", ["mpg", "ppo"])
    def test_alternative_objectives_run(self, toy_mdp, mu05, kind):
        spec = ObjectiveSpec(kind=kind, eps_low=0.2, eps_high=0.28, mask=MaskSpec("tv", delta=0.2))
        pi = TabularSoftmaxPolicy.from_policy(toy_mdp, mu05, state_key="match_length")
        records = train(toy_mdp, pi, spec, steps=20, learning_rate=0.1, group_size=8, seed=2)
        assert len(records) == 20
        assert all(np.isfinite(r.objective) for r in records)

    def test_first_population_step_ascends_surrogate(self, toy_mdp, mu05):
        """Full-enumeration pseudo-group, no mask: one ascent step raises the
        population windowed surrogate above its on-policy value of zero."""
        pi = TabularSoftmaxPolicy.from_policy(toy_mdp, mu05)
        group = population_group(toy_mdp, pi)
        spec = ObjectiveSpec("nfpo", 4, 3.0, 0.2, 0.4, MASK_NONE)
        gradient = objective_gradient(group, pi, pi, spec)
        pi.apply_gradient(gradient, 0.05)
        assert n_step_surrogate_population(toy_mdp, pi, mu05, 4) > 0.0


def _reference_train(mdp, pi, spec, steps, learning_rate, group_size, seed, rollout_refresh):
    """The policy-object training loop that ``train`` runs on tables: a
    copied rollout policy, token-by-token sampling, and fresh tables inside
    every objective, gradient, return and TV call."""
    rng = np.random.default_rng(seed)
    records = []
    mu = pi.copy()
    group = sample_group(mdp, mu, group_size, rng)
    for step in range(steps):
        if step > 0 and step % rollout_refresh == 0:
            mu = pi.copy()
            group = sample_group(mdp, mu, group_size, rng)
        value = objective_value(group, pi, mu, spec).value
        gradient = objective_gradient(group, pi, mu, spec)
        pi.apply_gradient(gradient, learning_rate)
        records.append(
            TrainRecord(
                step, value, exact_return(mdp, pi), d_tv_max(mu, pi, mdp), gradient_norm(gradient)
            )
        )
    return records


class TestTableTraining:
    @pytest.mark.parametrize("rollout_refresh", [1, 4])
    @pytest.mark.parametrize("kind", ["nfpo", "mpg", "ppo"])
    @pytest.mark.parametrize("state_key", TabularSoftmaxPolicy.STATE_KEYS)
    def test_matches_policy_object_loop(self, toy_mdp, mu05, state_key, kind, rollout_refresh):
        spec = ObjectiveSpec(kind, eps_low=0.2, eps_high=0.28, mask=MaskSpec("tv", delta=0.2))
        runs = []
        for loop in (train, _reference_train):
            pi = TabularSoftmaxPolicy.from_policy(toy_mdp, mu05, state_key)
            runs.append(loop(toy_mdp, pi, spec, 20, 0.3, 8, 3, rollout_refresh=rollout_refresh))
        for fast, slow in zip(*runs):
            assert (fast.step, fast.objective, fast.dtv_max, fast.grad_norm) == (
                slow.step, slow.objective, slow.dtv_max, slow.grad_norm
            )
            assert abs(fast.exact_return - slow.exact_return) <= 1e-12
        assert len(runs[0]) == len(runs[1]) == 20
        assert max(r.dtv_max for r in runs[0]) > 0.0

    @pytest.mark.parametrize("state_key", TabularSoftmaxPolicy.STATE_KEYS)
    def test_one_table_and_one_kernel_pass_per_step(self, toy_mdp, mu05, state_key):
        calls = Counter()

        def counted(name, inner):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            return wrapper

        steps = 7
        with pytest.MonkeyPatch.context() as patch:
            for home, name in (
                (policies, "policy_prob_table"),
                (objectives, "_token_terms"),
                (mdp_module, "trajectory_chunks"),
            ):
                inner = getattr(home, name)
                for module in (mdp_module, policies, weights, objectives, bounds, lab):
                    if getattr(module, name, None) is inner:
                        patch.setattr(module, name, counted(name, inner))
            pi = TabularSoftmaxPolicy.from_policy(toy_mdp, mu05, state_key)
            calls.clear()
            train(toy_mdp, pi, NFPO_TOY, steps, 0.1, 8, 0, rollout_refresh=3)
        assert dict(calls) == {"policy_prob_table": steps + 1, "_token_terms": steps}

    @pytest.mark.parametrize("state_key,per_run", [("prefix", 0), ("match_length", 1)])
    def test_match_lengths_built_once_per_step(self, toy_mdp, mu05, state_key, per_run):
        """The return's match lengths are built once per run; a match-length
        pi builds its own once per table, and its gradient reads the group's
        row ids."""
        calls = Counter()
        inner = mdp_module.prefix_match_lengths

        def counted(*args, **kwargs):
            calls["prefix_match_lengths"] += 1
            return inner(*args, **kwargs)

        steps = 7
        with pytest.MonkeyPatch.context() as patch:
            for module in (mdp_module, policies, weights, objectives, bounds, lab):
                if getattr(module, "prefix_match_lengths", None) is inner:
                    patch.setattr(module, "prefix_match_lengths", counted)
            pi = TabularSoftmaxPolicy.from_policy(toy_mdp, mu05, state_key)
            calls.clear()
            train(toy_mdp, pi, NFPO_TOY, steps, 0.1, 8, 0, rollout_refresh=3)
        assert calls["prefix_match_lengths"] == 1 + per_run * (steps + 1)


def _ratio_rows(trajectories, pi, mu) -> np.ndarray:
    """The [G, T] token ratios of the trajectories, prefix by prefix."""
    return np.array([ratios(pi, mu, y).ratios for y in trajectories])


class TestDynamics:
    def test_switch_frequency_example(self):
        assert switch_frequency([1.2, 0.9, 1.1, 1.3]) == pytest.approx(2 / 3)

    def test_neutral_values_never_switch(self):
        assert switch_frequency([1.0, 1.0, 1.0]) == 0.0
        assert switch_frequency([1.2, 1.0, 0.8]) == 0.0

    def test_identical_policies_silent(self, toy_mdp, mu05):
        trajectories = [(0, 1, 2, 0, 1, 2, 0), (1,) * 7]
        report = dynamics_report(_ratio_rows(trajectories, mu05, mu05), 4, 3.0, 0.2, 0.4)
        assert report.correction_strength_rho == 0.0
        assert report.correction_strength_trace == 0.0
        assert report.switch_freq_rho == 0.0
        assert report.switch_freq_trace == 0.0

    def test_correction_strength_pools_tokens(self, toy_mdp, mu05, pi08):
        rho = _ratio_rows([(0, 1, 2, 0, 1, 2, 0)], pi08, mu05)
        report = dynamics_report(rho, 4, 3.0, 0.2, 0.4)
        # six tokens deviate by 0.6, the absorbed one by 0
        assert report.correction_strength_rho == pytest.approx(0.6 * 6 / 7)

    def test_permutation_equivariant(self, toy_mdp, mu05, pi08):
        trajectories = [(0, 1, 2, 0, 1, 2, 0), (1,) * 7, (2, 0, 1, 2, 0, 1, 2)]
        forward = dynamics_report(_ratio_rows(trajectories, pi08, mu05), 4, 3.0, 0.2, 0.4)
        shuffled = dynamics_report(_ratio_rows(trajectories[::-1], pi08, mu05), 4, 3.0, 0.2, 0.4)
        for field in forward.to_dict():
            assert forward.to_dict()[field] == pytest.approx(
                shuffled.to_dict()[field], abs=1e-12
            )

    def test_rejects_empty_input(self, toy_mdp, mu05):
        with pytest.raises(ValueError):
            dynamics_report(np.empty((0, 7)), 4, 3.0, 0.2, 0.4)


class TestSmoothing:
    def test_perfect_alternation_smoothed(self):
        before, after = smoothing_demo(alternating_profile(0.2, 50), 4)
        assert before == 1.0
        assert after < 1.0

    def test_constant_profile_untouched(self):
        before, after = smoothing_demo(np.full(20, 1.1), 4)
        assert before == 0.0
        assert after == 0.0

    def test_reduction_for_all_windows(self):
        """Every window size >= 3 lowers the switch frequency of the
        constructed alternating profile, for amplitudes below the clip
        floor's re-exposure threshold eps_low / (1 - eps_low) = 0.25."""
        for amplitude in (0.05, 0.1, 0.2, 0.24):
            profile = alternating_profile(amplitude, 50)
            for n_step in range(3, 51):
                before, after = smoothing_demo(profile, n_step)
                assert before == 1.0
                assert after < 1.0, (amplitude, n_step)

    def test_clip_floor_defeats_smoothing_for_large_swings(self):
        """Above the threshold the lower trace clip pins the correction, so
        the corrected signal oscillates exactly like the raw ratio."""
        before, after = smoothing_demo(alternating_profile(0.3, 50), 4)
        assert before == after == 1.0

    def test_amplitude_domain(self):
        with pytest.raises(ValueError):
            alternating_profile(0.6, 50)
