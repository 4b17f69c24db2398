import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import tracelab
from tracelab import (
    EnumerationCapError,
    RowGradient,
    TokenMdp,
    UnknownStateError,
    d_tv_max,
    exact_return,
)
from tracelab.policies import policy_prob_table, total_variation
from helpers import TabularSoftmaxPolicy, TargetFollowingPolicy, enumerate_prefixes, ratio_deviation_bound
from helpers import random_tabular, ratios, sample_trajectory, state_kl, state_tv, token_prob


class TestTargetFollowing:
    def test_required_token_mass(self, toy_mdp):
        pi = TargetFollowingPolicy(toy_mdp, 0.8)
        assert token_prob(pi, (), 0) == pytest.approx(0.8)

    def test_off_target_mass(self, toy_mdp):
        pi = TargetFollowingPolicy(toy_mdp, 0.8)
        assert token_prob(pi, (), 1) == pytest.approx(0.1)

    def test_uniform_after_full_match(self, toy_mdp):
        pi = TargetFollowingPolicy(toy_mdp, 0.8)
        matched = (0, 1, 2, 0, 1, 2)
        for token in range(3):
            assert token_prob(pi, matched, token) == pytest.approx(1 / 3)

    def test_distributions_sum_to_one(self, toy_mdp, mu05):
        for prefix in enumerate_prefixes(toy_mdp):
            assert mu05.probs(prefix).sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.7])
    def test_alpha_domain(self, toy_mdp, alpha):
        with pytest.raises(ValueError):
            TargetFollowingPolicy(toy_mdp, alpha)


class TestTabularSoftmax:
    def test_zeros_is_uniform(self, toy_mdp):
        pi = TabularSoftmaxPolicy.zeros(toy_mdp)
        np.testing.assert_allclose(pi.probs((0, 1)), [1 / 3] * 3, atol=1e-15)

    @pytest.mark.parametrize("state_key", ["prefix", "match_length"])
    def test_copy_of_policy_matches_everywhere(self, toy_mdp, mu05, state_key):
        pi = TabularSoftmaxPolicy.from_policy(toy_mdp, mu05, state_key=state_key)
        for prefix in enumerate_prefixes(toy_mdp):
            np.testing.assert_allclose(pi.probs(prefix), mu05.probs(prefix), atol=1e-12)

    def test_probabilities_positive_and_normalized(self, toy_mdp):
        rng = np.random.default_rng(5)
        pi = random_tabular(toy_mdp, rng)
        for prefix in [(), (2,), (1, 0, 2)]:
            p = pi.probs(prefix)
            assert np.all(p > 0)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_unknown_state_rejected(self, toy_mdp):
        # A length-7 prefix is past the last decision point; under the prefix key
        # (3,) would alias the state id of (0, 0), and (-1,) that of the root.
        # Both keys refuse the same prefixes.
        for state_key in TabularSoftmaxPolicy.STATE_KEYS:
            pi = TabularSoftmaxPolicy.zeros(toy_mdp, state_key)
            for prefix in [(0,) * 7, (0,) * 8, (3,), (-1,), (5, 9)]:
                with pytest.raises(UnknownStateError):
                    pi.probs(prefix)

    def test_match_length_key_collapses(self, toy_mdp):
        pi = TabularSoftmaxPolicy.zeros(toy_mdp, state_key="match_length")
        assert len(pi.logits) == 7
        assert pi.row((0, 1, 2)) == 3

    @pytest.mark.parametrize("target", ["aba", "abab", "ab"])
    def test_match_length_copy_of_prefix_keyed_source(self, target):
        """A target at least as long as the horizon has match lengths no state
        reaches; copying a prefix-keyed source must not ask it about them."""
        mdp = TokenMdp.from_symbols("ab", 3, target)
        src = random_tabular(mdp, np.random.default_rng(3))
        pi = TabularSoftmaxPolicy.from_policy(mdp, src, state_key="match_length")
        assert len(pi.logits) == len(target) + 1
        rows = pi.rows().probs
        for k in range(len(target) + 1):
            expected = src.probs(mdp.target[:k]) if k < mdp.horizon else [0.5, 0.5]
            # No state has a match length k >= T; its row is read directly.
            got = pi.probs(mdp.target[:k]) if k < mdp.horizon else rows[k]
            np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_copy_is_independent(self, toy_mdp):
        pi = TabularSoftmaxPolicy.zeros(toy_mdp)
        snapshot = pi.copy()
        gradient = RowGradient(np.array([pi.row(())]), np.array([[1.0, -1.0, 0.0]]))
        pi.apply_gradient(gradient, 0.5)
        np.testing.assert_allclose(snapshot.probs(()), [1 / 3] * 3, atol=1e-15)
        assert pi.probs(())[0] > 1 / 3

    def test_apply_gradient_moves_only_its_rows(self, toy_mdp):
        pi = TabularSoftmaxPolicy.zeros(toy_mdp)
        pi.apply_gradient(RowGradient(np.array([0, 5]), np.array([[1.0, 0, 0], [0, 2.0, 0]])), 0.5)
        expected = np.zeros(pi.logits.shape)
        expected[0, 0], expected[5, 1] = 0.5, 1.0
        np.testing.assert_array_equal(pi.logits, expected)

    @pytest.mark.parametrize("state_key", TabularSoftmaxPolicy.STATE_KEYS)
    def test_apply_gradient_returns_the_moved_rows(self, toy_mdp, state_key):
        """The new probabilities of the rows a step moved, in the order of its
        rows: bitwise the rows of the whole policy afterwards."""
        rng = np.random.default_rng(11)
        pi = TabularSoftmaxPolicy.zeros(toy_mdp, state_key)
        pi.logits[:] = rng.normal(0.0, 2.0, pi.logits.shape)
        rows = np.array([0, 2, 3, 5])
        moved = pi.apply_gradient(RowGradient(rows, rng.normal(0.0, 1.0, (4, 3))), 0.7)
        assert moved.tobytes() == pi.rows().probs[rows].tobytes()

    @pytest.mark.parametrize("state_key", TabularSoftmaxPolicy.STATE_KEYS)
    def test_package_probs_reads_the_walked_row(self, toy_mdp, state_key):
        """The package ``probs`` finds a prefix's row through ``prefix_row_ids``:
        bitwise the row of the per-prefix walk, and the same prefixes refused."""
        pi = TabularSoftmaxPolicy.zeros(toy_mdp, state_key)
        pi.logits[:] = np.random.default_rng(12).normal(0.0, 2.0, pi.logits.shape)
        package = tracelab.TabularSoftmaxPolicy(toy_mdp, pi.logits, state_key)
        for prefix in enumerate_prefixes(toy_mdp):
            assert package.probs(prefix).tobytes() == pi.probs(prefix).tobytes(), prefix
        for prefix in [(0,) * 7, (0,) * 8, (3,), (-1,), (5, 9)]:
            with pytest.raises(UnknownStateError):
                package.probs(prefix)

    @pytest.mark.parametrize(
        "rows,values",
        [
            ([0, 1], np.zeros((2, 2))),  # too narrow
            ([0, 1], np.zeros((3, 3))),  # a row count that is not len(rows)
            ([[0, 1]], np.zeros((1, 3))),  # rows not one-dimensional
            ([2, 1], np.zeros((2, 3))),  # unsorted
            ([1, 1], np.zeros((2, 3))),  # duplicate
            ([-1, 0], np.zeros((2, 3))),  # below range
            ([0, 1093], np.zeros((2, 3))),  # past the last of 1093 rows
        ],
    )
    def test_apply_gradient_rejects_bad_rows(self, toy_mdp, rows, values):
        pi = TabularSoftmaxPolicy.zeros(toy_mdp)
        with pytest.raises(ValueError, match="^gradient"):
            pi.apply_gradient(RowGradient(np.array(rows), values), 0.1)
        assert not pi.logits.any()

    @pytest.mark.parametrize("state_key,rows", [("prefix", 1093), ("match_length", 7)])
    def test_logits_of_the_wrong_shape_refused(self, toy_mdp, state_key, rows):
        message = f"logits must be ({rows}, 3) under '{state_key}', got (2, 3)"
        with pytest.raises(ValueError, match=re.escape(message)):
            TabularSoftmaxPolicy(toy_mdp, np.zeros((2, 3)), state_key)

    @pytest.mark.parametrize("state_key", TabularSoftmaxPolicy.STATE_KEYS)
    def test_table_bounded_by_the_asking_mdps_cap(self, toy_mdp, mu05, state_key):
        # 1093 states: every table build is checked against the MDP it is built for.
        small = replace(toy_mdp, enumeration_cap=toy_mdp.n_prefixes - 1)
        pi = TabularSoftmaxPolicy.from_policy(toy_mdp, mu05, state_key)
        for policy in (pi, mu05):
            with pytest.raises(EnumerationCapError, match=r"a state table \(rows, one per state\) needs 1093 items"):
                policy_prob_table(policy, small)
        with pytest.raises(EnumerationCapError):
            TabularSoftmaxPolicy.from_policy(small, mu05)
        np.testing.assert_array_equal(
            policy_prob_table(pi, replace(small, enumeration_cap=toy_mdp.n_prefixes)),
            policy_prob_table(pi, toy_mdp),
        )

    @pytest.mark.parametrize("build", ["zeros", "from_policy"])
    def test_prefix_build_holds_one_logit_table(self, build):
        """At T=11 a prefix-keyed policy keeps one [n_prefixes, V] logit table
        and allocates at most three while it is built."""
        mdp = TokenMdp.from_symbols("abc", 11, "abcabc")
        mu = TargetFollowingPolicy(mdp, 0.5)
        tracemalloc.start()
        try:
            if build == "zeros":
                pi = TabularSoftmaxPolicy.zeros(mdp)
            else:
                pi = TabularSoftmaxPolicy.from_policy(mdp, mu)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        table = mdp.n_prefixes * mdp.vocab_size * 8
        assert pi.logits.nbytes == table
        assert kept <= 1.1 * table
        assert peak <= 3.0 * table

    def test_rows_allocate_one_probability_table(self):
        """At T=11 the softmax of a prefix-keyed policy's logits is built in
        the one [n_prefixes, V] array it returns."""
        mdp = TokenMdp.from_symbols("abc", 11, "abcabc")
        pi = random_tabular(mdp, np.random.default_rng(0))
        tracemalloc.start()
        try:
            rows = pi.rows()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows.probs.nbytes == pi.logits.nbytes
        assert peak <= 1.5 * pi.logits.nbytes


class TestDivergences:
    def test_identical_policies(self, toy_mdp, mu05):
        assert state_tv(mu05, mu05, ()) == 0.0
        assert state_kl(mu05, mu05, ()) == 0.0

    def test_toy_state_tv(self, toy_mdp, mu05, pi08):
        # 0.5 * (|0.5-0.8| + 2 * |0.25-0.1|)
        assert state_tv(mu05, pi08, ()) == pytest.approx(0.3)

    def test_absorbed_state_tv_zero(self, toy_mdp, mu05, pi08):
        assert state_tv(mu05, pi08, (0, 1, 2, 0, 1, 2)) == pytest.approx(0.0)

    def test_kl_positive_when_different(self, toy_mdp, mu05, pi08):
        assert state_kl(mu05, pi08, ()) > 0.0

    def test_d_tv_max_identical(self, toy_mdp, mu05):
        assert d_tv_max(mu05, mu05, toy_mdp) == 0.0

    def test_d_tv_max_toy(self, toy_mdp, mu05, pi08):
        assert d_tv_max(mu05, pi08, toy_mdp) == pytest.approx(0.3)

    def test_d_tv_max_matches_manual_scan(self):
        """A target-following policy against a random prefix-keyed one,
        checked against an independent prefix scan."""
        mdp_a = TokenMdp.from_symbols("abc", 4, "abca")
        pi = TargetFollowingPolicy(mdp_a, 0.5)
        mu = random_tabular(mdp_a, np.random.default_rng(4))
        manual = 0.0
        for prefix in enumerate_prefixes(mdp_a):
            gap = 0.5 * np.abs(mu.probs(prefix) - pi.probs(prefix)).sum()
            manual = max(manual, float(gap))
        assert d_tv_max(mu, pi, mdp_a) == pytest.approx(manual, abs=1e-15)

    def test_total_variation_allocates_one_table(self):
        """The state TV of two [n_prefixes, V] tables at T=11 takes the
        absolute value of their difference in place."""
        mdp = TokenMdp.from_symbols("abc", 11, "abcabc")
        rng = np.random.default_rng(0)
        p, q = (random_tabular(mdp, rng).rows().probs for _ in range(2))
        tracemalloc.start()
        try:
            tv = total_variation(p, q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(tv, 0.5 * np.abs(p - q).sum(axis=-1))
        assert peak <= 1.5 * p.nbytes

    def test_policy_of_another_mdp_rejected(self):
        """Same-alpha policies on different targets have no common states."""
        mdp_a = TokenMdp.from_symbols("abc", 4, "abca")
        pi = TargetFollowingPolicy(mdp_a, 0.5)
        mu = TargetFollowingPolicy(TokenMdp.from_symbols("abc", 4, "bcab"), 0.5)
        for call in (
            lambda: policy_prob_table(mu, mdp_a),
            lambda: exact_return(mdp_a, mu),
            lambda: d_tv_max(mu, pi, mdp_a),
            lambda: TabularSoftmaxPolicy.from_policy(mdp_a, mu, "match_length"),
        ):
            with pytest.raises(UnknownStateError):
                call()

    def test_tv_equals_expected_ratio_deviation(self, toy_mdp, mu05, pi08):
        """E_mu |pi/mu - 1| = 2 TV at every state."""
        for prefix in enumerate_prefixes(toy_mdp):
            p_mu = mu05.probs(prefix)
            p_pi = pi08.probs(prefix)
            lhs = float((p_mu * np.abs(p_pi / p_mu - 1.0)).sum())
            assert lhs == pytest.approx(2.0 * state_tv(mu05, pi08, prefix), abs=1e-12)


class TestRatioDeviationBound:
    def test_toy_value(self, toy_mdp, mu05, pi08):
        assert ratio_deviation_bound(pi08, mu05, toy_mdp) == pytest.approx(0.6)

    def test_sampled_ratios_obey_bound(self, toy_mdp, mu05, pi08):
        bound = ratio_deviation_bound(pi08, mu05, toy_mdp)
        rng = np.random.default_rng(11)
        for _ in range(200):
            y = sample_trajectory(toy_mdp, mu05, rng)
            deviation = np.abs(ratios(pi08, mu05, y).ratios - 1.0).max()
            assert deviation <= bound + 1e-12

    def test_random_tabular_pair(self, toy_mdp):
        rng = np.random.default_rng(3)
        pi, mu = random_tabular(toy_mdp, rng), random_tabular(toy_mdp, rng)
        bound = ratio_deviation_bound(pi, mu, toy_mdp)
        for _ in range(100):
            y = sample_trajectory(toy_mdp, mu, rng)
            assert np.abs(ratios(pi, mu, y).ratios - 1.0).max() <= bound + 1e-12
