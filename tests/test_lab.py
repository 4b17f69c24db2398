import tracemalloc
from collections import Counter

import numpy as np
import pytest

from tracelab import (
    MASK_NONE,
    MaskSpec,
    ObjectiveSpec,
    TokenMdp,
    TrainingDivergedError,
    TrainRecord,
    alternating_profile,
    bias_variance_sweep,
    d_tv_max,
    dynamics_report,
    exact_return,
    gradient_norm,
    objective_gradient,
    population_moments,
    switch_frequency,
    train,
)
from tracelab import bounds, lab, objectives, policies, weights
from tracelab import mdp as mdp_module
from helpers import TabularSoftmaxPolicy, TargetFollowingPolicy, population_group, ratios, sample_group

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
        local = population_moments(toy_mdp, pi08, mu05, [1]).mean[0]
        improvement = exact_return(toy_mdp, pi08) - exact_return(toy_mdp, mu05)
        assert abs(rows[0].population_surrogate - local) < 1e-10
        assert abs(rows[-1].population_surrogate - improvement) < 1e-10
        assert all(r.exact_improvement == pytest.approx(improvement) for r in rows)

    def test_exact_improvement_is_the_direct_return_gap(self, rows, toy_mdp, mu05, pi08):
        """The improvement comes from backward induction, not from the
        enumeration pass that gives the N = T surrogate."""
        improvement = exact_return(toy_mdp, pi08) - exact_return(toy_mdp, mu05)
        assert [r.exact_improvement for r in rows] == [improvement] * len(rows)

    def test_population_inequality_every_window(self, rows):
        """Improvement >= surrogate - truncation term, deterministically."""
        for row in rows:
            assert row.exact_improvement >= row.population_surrogate - row.bound_truncation - 1e-10

    def test_reads_a_tabular_pis_rows_once(self, toy_mdp, mu05, pi08):
        """The pass, the return and the bound's hypotheses share one softmax."""
        pi = TabularSoftmaxPolicy.from_policy(toy_mdp, pi08)
        calls = Counter()
        inner = TabularSoftmaxPolicy.rows

        def counted(self):
            calls["rows"] += 1
            return inner(self)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(TabularSoftmaxPolicy, "rows", counted)
            swept = bias_variance_sweep(toy_mdp, pi, mu05, range(1, 8), 8, 0.05)
        assert calls["rows"] == 1
        expected = bias_variance_sweep(toy_mdp, pi08, mu05, range(1, 8), 8, 0.05)
        for got, want in zip(swept, expected):
            assert got.population_surrogate == pytest.approx(want.population_surrogate, abs=1e-12)


class TestTrain:
    @pytest.mark.parametrize(
        "steps,refresh,message", [(0, 1, "steps must be >= 1"), (5, 0, "rollout_refresh must be >= 1")]
    )
    def test_schedule_domains(self, toy_mdp, mu05, steps, refresh, message):
        pi = TabularSoftmaxPolicy.from_policy(toy_mdp, mu05)
        with pytest.raises(ValueError, match=message):
            train(toy_mdp, pi, NFPO_TOY, steps, learning_rate=0.1, group_size=8, seed=0, rollout_refresh=refresh)

    def test_non_finite_objective_refused(self, toy_mdp, mu05):
        """An infinite step leaves non-finite logits, so the next step's ratios
        over the same rollouts, and its objective, are NaN."""
        pi = TabularSoftmaxPolicy.from_policy(toy_mdp, mu05, "match_length")
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            TrainingDivergedError, match="objective became nan at step 1"
        ):
            train(toy_mdp, pi, NFPO_TOY, steps=4, learning_rate=np.inf, group_size=64, seed=0, rollout_refresh=4)

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
        _, gradient = objective_gradient(group, pi, spec)
        pi.apply_gradient(gradient, 0.05)
        assert population_moments(toy_mdp, pi, mu05, [4]).mean[0] > 0.0


def _reference_train(mdp, pi, spec, steps, learning_rate, group_size, seed, rollout_refresh):
    """The policy-object training loop that ``train`` runs on pi's rows: a
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
        value, gradient = objective_gradient(group, pi, spec)
        pi.apply_gradient(gradient, learning_rate)
        records.append(
            TrainRecord(
                step, value, exact_return(mdp, pi), d_tv_max(mu, pi, mdp), gradient_norm(gradient)
            )
        )
    return records


# Tight enough that each mask drops some tokens of the runs below (up to about
# half of a group's tokens at the last step before a refresh).
MASKS = {
    "none": MASK_NONE,
    "tv": MaskSpec("tv", delta=0.02),
    "kl": MaskSpec("kl", delta=0.002),
    "grpo_ratio": MaskSpec("grpo_ratio", eps_low=0.05, eps_high=0.05),
    "icepop": MaskSpec("icepop", beta=1.1),
}


def _assert_matches_reference(mdp, mu, state_key, spec, rollout_refresh):
    """``train`` and ``_reference_train`` give the same records: bitwise, and
    the return to 1e-12."""
    runs = []
    for loop in (train, _reference_train):
        pi = TabularSoftmaxPolicy.from_policy(mdp, mu, state_key)
        runs.append(loop(mdp, pi, spec, 20, 0.3, 8, 3, rollout_refresh=rollout_refresh))
    for fast, slow in zip(*runs):
        assert (fast.step, fast.objective, fast.dtv_max, fast.grad_norm) == (
            slow.step, slow.objective, slow.dtv_max, slow.grad_norm
        )
        assert abs(fast.exact_return - slow.exact_return) <= 1e-12
    assert len(runs[0]) == len(runs[1]) == 20
    assert max(r.dtv_max for r in runs[0]) > 0.0


class TestTableTraining:
    @pytest.mark.parametrize("rollout_refresh", [1, 4])
    @pytest.mark.parametrize("kind", ["nfpo", "mpg", "ppo"])
    @pytest.mark.parametrize("state_key", TabularSoftmaxPolicy.STATE_KEYS)
    def test_matches_policy_object_loop(self, toy_mdp, mu05, state_key, kind, rollout_refresh):
        """Also at T = 4 with target "abca", which has a match length no state reaches."""
        short = TokenMdp.from_symbols("abc", 4, "abca")
        spec = ObjectiveSpec(kind, eps_low=0.2, eps_high=0.28, mask=MaskSpec("tv", delta=0.2))
        for mdp, mu in ((toy_mdp, mu05), (short, TargetFollowingPolicy(short, 0.5))):
            _assert_matches_reference(mdp, mu, state_key, spec, rollout_refresh)

    @pytest.mark.parametrize("rollout_refresh", [1, 4])
    @pytest.mark.parametrize("mask_kind", list(MASKS))
    @pytest.mark.parametrize("kind", ["nfpo", "mpg"])
    @pytest.mark.parametrize("state_key", TabularSoftmaxPolicy.STATE_KEYS)
    def test_every_mask_matches_policy_object_loop(
        self, toy_mdp, mu05, state_key, kind, mask_kind, rollout_refresh
    ):
        """:meth:`test_matches_policy_object_loop` under every mask; ppo reads none."""
        short = TokenMdp.from_symbols("abc", 4, "abca")
        spec = ObjectiveSpec(kind, eps_low=0.2, eps_high=0.28, mask=MASKS[mask_kind])
        for mdp, mu in ((toy_mdp, mu05), (short, TargetFollowingPolicy(short, 0.5))):
            _assert_matches_reference(mdp, mu, state_key, spec, rollout_refresh)

    @pytest.mark.parametrize("rollout_refresh", [1, 4])
    def test_prefix_keyed_matches_policy_object_loop_at_t9(self, rollout_refresh):
        """9,841 prefix rows, of which a step moves at most 72."""
        mdp = TokenMdp.from_symbols("abc", 9, "abcabc")
        mu = TargetFollowingPolicy(mdp, 0.5)
        _assert_matches_reference(mdp, mu, "prefix", NFPO_TOY, rollout_refresh)

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
            patch.setattr(
                TabularSoftmaxPolicy, "rows", counted("rows", TabularSoftmaxPolicy.rows)
            )
            pi = TabularSoftmaxPolicy.from_policy(toy_mdp, mu05, state_key)
            calls.clear()
            train(toy_mdp, pi, NFPO_TOY, steps, 0.1, 8, 0, rollout_refresh=3)
        assert dict(calls) == {"rows": 1, "_token_terms": steps}

    @pytest.mark.parametrize("state_key,expected", [("prefix", 1), ("match_length", 0)])
    def test_match_lengths_built_once_per_step(self, state_key, expected):
        """The MDP builds its per-state match lengths once, for a prefix-keyed
        pi's copy of mu and every return of two runs after it; a match-length
        pi needs none, since every quantity reads its own rows.  The MDP is the
        test's own, so no match lengths an earlier test built are cached."""
        mdp = TokenMdp.from_symbols("abc", 7, "abcabc")
        mu05 = TargetFollowingPolicy(mdp, 0.5)
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
            pi = TabularSoftmaxPolicy.from_policy(mdp, mu05, state_key)
            for _ in range(2):
                train(mdp, pi.copy(), NFPO_TOY, steps, 0.1, 8, 0, rollout_refresh=3)
        assert calls["prefix_match_lengths"] == expected


def test_match_length_training_allocates_no_state_table():
    """A warm match-length run at T=13 reads only its |target| + 1 rows; one
    [n_states, V] table there would take 19 MB."""
    mdp = TokenMdp.from_symbols("abc", 13, "abcabc")
    mu = TargetFollowingPolicy(mdp, 0.5)
    runs = [TabularSoftmaxPolicy.from_policy(mdp, mu, "match_length") for _ in range(2)]
    train(mdp, runs[0], NFPO_TOY, 5, 0.1, 8, 0, rollout_refresh=3)
    tracemalloc.start()
    try:
        train(mdp, runs[1], NFPO_TOY, 5, 0.1, 8, 0, rollout_refresh=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_prefix_keyed_training_peaks_below_three_and_a_half_logit_tables():
    """A warm prefix-keyed run at T=11 holds pi's probabilities, the rollout
    snapshot and the per-state match lengths; a step re-runs the softmax
    only on the rows it moved, so no dense gradient or fresh table appears."""
    mdp = TokenMdp.from_symbols("abc", 11, "abcabc")
    mu = TargetFollowingPolicy(mdp, 0.5)
    runs = [TabularSoftmaxPolicy.from_policy(mdp, mu, "prefix") for _ in range(2)]
    train(mdp, runs[0], NFPO_TOY, 8, 0.1, 8, 0, rollout_refresh=4)
    tracemalloc.start()
    try:
        train(mdp, runs[1], NFPO_TOY, 8, 0.1, 8, 0, rollout_refresh=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * runs[1].logits.nbytes


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
        report = dynamics_report(_ratio_rows(trajectories, mu05, mu05), NFPO_TOY)
        assert report.correction_strength_rho == 0.0
        assert report.correction_strength_trace == 0.0
        assert report.switch_freq_rho == 0.0
        assert report.switch_freq_trace == 0.0

    def test_correction_strength_pools_tokens(self, toy_mdp, mu05, pi08):
        rho = _ratio_rows([(0, 1, 2, 0, 1, 2, 0)], pi08, mu05)
        report = dynamics_report(rho, NFPO_TOY)
        # six tokens deviate by 0.6, the absorbed one by 0
        assert report.correction_strength_rho == pytest.approx(0.6 * 6 / 7)

    def test_permutation_equivariant(self, toy_mdp, mu05, pi08):
        trajectories = [(0, 1, 2, 0, 1, 2, 0), (1,) * 7, (2, 0, 1, 2, 0, 1, 2)]
        forward = dynamics_report(_ratio_rows(trajectories, pi08, mu05), NFPO_TOY)
        shuffled = dynamics_report(_ratio_rows(trajectories[::-1], pi08, mu05), NFPO_TOY)
        for field in forward._asdict():
            assert forward._asdict()[field] == pytest.approx(
                shuffled._asdict()[field], abs=1e-12
            )

    def test_rejects_empty_input(self, toy_mdp, mu05):
        with pytest.raises(ValueError):
            dynamics_report(np.empty((0, 7)), NFPO_TOY)

    def test_switch_needs_two_tokens(self):
        with pytest.raises(ValueError, match="switch frequency needs at least 2 tokens"):
            switch_frequency([[1.2], [0.8]])


class TestSmoothing:
    def test_perfect_alternation_smoothed(self):
        report = dynamics_report(alternating_profile(0.2, 50)[None], NFPO_TOY)
        assert report.switch_freq_rho == 1.0
        assert report.switch_freq_trace < 1.0

    def test_constant_profile_untouched(self):
        report = dynamics_report(np.full((1, 20), 1.1), NFPO_TOY)
        assert report.switch_freq_rho == 0.0
        assert report.switch_freq_trace == 0.0

    def test_reduction_for_all_windows(self):
        """Every window size >= 3 lowers the switch frequency of the
        constructed alternating profile, for amplitudes below the clip
        floor's re-exposure threshold eps_low / (1 - eps_low) = 0.25."""
        for amplitude in (0.05, 0.1, 0.2, 0.24):
            profile = alternating_profile(amplitude, 50)
            for n_step in range(3, 51):
                report = dynamics_report(profile[None], ObjectiveSpec("nfpo", n_step, 3.0, 0.2, 0.4))
                assert report.switch_freq_rho == 1.0
                assert report.switch_freq_trace < 1.0, (amplitude, n_step)

    def test_clip_floor_defeats_smoothing_for_large_swings(self):
        """Above the threshold the lower trace clip pins the correction, so
        the corrected signal oscillates exactly like the raw ratio."""
        report = dynamics_report(alternating_profile(0.3, 50)[None], NFPO_TOY)
        assert report.switch_freq_rho == report.switch_freq_trace == 1.0

    def test_amplitude_domain(self):
        with pytest.raises(ValueError):
            alternating_profile(0.6, 50)

    def test_length_domain(self):
        with pytest.raises(ValueError, match="length must be >= 2"):
            alternating_profile(0.2, 1)
