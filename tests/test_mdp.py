import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracelab import (
    EnumerationCapError,
    TokenMdp,
    enumerate_prefixes,
    match_length,
    policy_rows,
    reward,
    sample_from_table,
)
from tracelab.mdp import prefix_row_ids, prefix_state_ids, trajectory_chunks
from helpers import OneHotPolicy, enumerate_trajectories, sample_trajectory, trajectory_log_prob


class TestMatchLength:
    def test_empty_prefix(self):
        assert match_length("", "abcabc") == 0

    def test_literal_prefix(self):
        assert match_length("abc", "abcabc") == 3

    def test_interleaved(self):
        # 'a' matches at 1, 'b' at 3, no 'c' afterwards
        assert match_length("acb", "abcabc") == 2

    def test_works_on_index_tuples(self):
        assert match_length((0, 2, 1), (0, 1, 2, 0, 1, 2)) == 2

    @given(
        st.lists(st.integers(0, 2), max_size=12),
        st.lists(st.integers(0, 2), min_size=1, max_size=6),
    )
    @settings(max_examples=200)
    def test_monotone_with_unit_increments(self, prefix, target):
        """Growing the prefix never shrinks the match and adds at most 1."""
        previous = 0
        for cut in range(len(prefix) + 1):
            current = match_length(prefix[:cut], target)
            assert previous <= current <= previous + 1
            previous = current


class TestReward:
    def test_target_as_literal_prefix(self, toy_mdp):
        assert reward(toy_mdp, (0, 1, 2, 0, 1, 2, 0)) == 1.0

    def test_missing_symbol(self, toy_mdp):
        assert reward(toy_mdp, (0,) * 7) == 0.0

    def test_shifted_match(self, toy_mdp):
        # "babcabc": the pattern sits in positions 2..7
        assert reward(toy_mdp, (1, 0, 1, 2, 0, 1, 2)) == 1.0

    def test_reward_absorbs_extensions(self, toy_mdp):
        """Once rewarded, any extension keeps the full match."""
        y = (0, 1, 2, 0, 1, 2)
        assert match_length(y, toy_mdp.target) == 6
        for extra in range(3):
            assert match_length(y + (extra,), toy_mdp.target) == 6

    def test_rejects_wrong_length(self, toy_mdp):
        with pytest.raises(ValueError):
            reward(toy_mdp, (0, 1, 2))


class TestConstruction:
    def test_rejects_tiny_vocab(self):
        with pytest.raises(ValueError):
            TokenMdp.from_symbols("a", 3, "a")

    def test_rejects_foreign_target(self):
        with pytest.raises(ValueError):
            TokenMdp.from_symbols("ab", 3, "abc")

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            TokenMdp.from_symbols("ab", 0, "a")


class TestEnumeration:
    def test_toy_count(self, toy_mdp):
        trajectories = list(enumerate_trajectories(toy_mdp))
        assert len(trajectories) == 3**7 == 2187
        assert len(set(trajectories)) == 2187

    def test_lexicographic_order(self, toy_mdp):
        trajectories = list(enumerate_trajectories(toy_mdp))
        assert trajectories[0] == (0,) * 7
        assert trajectories[-1] == (2,) * 7
        assert trajectories == sorted(trajectories)

    def test_two_token_single_step(self):
        mdp = TokenMdp.from_symbols("ab", 1, "a")
        assert list(enumerate_trajectories(mdp)) == [(0,), (1,)]

    def test_cap_exceeded_names_count(self):
        mdp = TokenMdp.from_symbols("abc", 20, "abc")
        with pytest.raises(EnumerationCapError) as err:
            enumerate_trajectories(mdp)
        assert str(3**20) in str(err.value)

    def test_cap_is_the_mdps_own(self):
        # 40 prefixes and 81 trajectories; each site compares its own count.
        mdp = TokenMdp.from_symbols("abc", 4, "abc", enumeration_cap=40)
        assert len(list(enumerate_prefixes(mdp))) == 40
        with pytest.raises(EnumerationCapError, match="needs 81 items, cap is 40"):
            enumerate_trajectories(mdp)
        with pytest.raises(EnumerationCapError, match="needs 81 items, cap is 40"):
            next(trajectory_chunks(mdp))
        with pytest.raises(EnumerationCapError, match="needs 40 items, cap is 39"):
            enumerate_prefixes(TokenMdp.from_symbols("abc", 4, "abc", enumeration_cap=39))
        with pytest.raises(ValueError, match="enumeration_cap"):
            TokenMdp.from_symbols("abc", 4, "abc", enumeration_cap=0)

    def test_state_ids_refuse_to_wrap(self):
        """3**41 states overflow int64; match lengths stay exact at any horizon."""
        twos = np.full((2, 41), 2, dtype=np.int64)
        last = TokenMdp.from_symbols("abc", 40, "abc")
        assert prefix_state_ids(last, twos[:, :40])[0, -1] == last.n_prefixes - 1
        with pytest.raises(ValueError, match="overflow int64"):
            prefix_state_ids(TokenMdp.from_symbols("abc", 41, "abc"), twos)
        mdp = TokenMdp.from_symbols("abc", 45, "abcabc")
        ids = prefix_row_ids(mdp, np.tile(np.arange(3), (2, 15)), "match_length")
        np.testing.assert_array_equal(ids[0, :8], [0, 1, 2, 3, 4, 5, 6, 6])

    def test_chunks_and_state_ids_follow_enumeration_order(self):
        mdp = TokenMdp.from_symbols("abc", 4, "acb")
        trajectories = list(enumerate_trajectories(mdp))
        chunks = list(trajectory_chunks(mdp, chunk_size=10))
        tokens = np.concatenate([chunk[0] for chunk in chunks])
        np.testing.assert_array_equal(tokens, trajectories)
        rewards = np.concatenate([chunk[1] for chunk in chunks])
        np.testing.assert_array_equal(rewards, [reward(mdp, y) for y in trajectories])
        index = {prefix: i for i, prefix in enumerate(enumerate_prefixes(mdp))}
        expected = [[index[y[:t]] for t in range(mdp.horizon)] for y in trajectories]
        np.testing.assert_array_equal(prefix_state_ids(mdp, tokens), expected)

    def test_probabilities_sum_to_one(self, toy_mdp, mu05):
        total = sum(
            np.exp(trajectory_log_prob(mu05, y)) for y in enumerate_trajectories(toy_mdp)
        )
        assert total == pytest.approx(1.0, abs=1e-12)


class _BrokenPolicy:
    def probs(self, prefix):
        return np.array([0.7, 0.7, 0.7])


class TestSampling:
    def test_deterministic_policy_completes_target(self, toy_mdp):
        y = sample_trajectory(toy_mdp, OneHotPolicy(toy_mdp), np.random.default_rng(0))
        assert y[:6] == toy_mdp.target
        assert reward(toy_mdp, y) == 1.0

    def test_same_seed_replays(self, toy_mdp, mu05):
        a = sample_trajectory(toy_mdp, mu05, np.random.default_rng(123))
        b = sample_trajectory(toy_mdp, mu05, np.random.default_rng(123))
        assert a == b

    def test_invalid_distribution_rejected(self, toy_mdp):
        with pytest.raises(ValueError, match="invalid distribution"):
            sample_trajectory(toy_mdp, _BrokenPolicy(), np.random.default_rng(0))

    def test_empirical_reward_and_frequencies(self, toy_mdp, mu05):
        """10^5 rollouts: mean reward near the closed form, frequencies
        compatible with enumerated probabilities (chi-square, normal approx)."""
        n_samples = 100_000
        rng = np.random.default_rng(2024)
        counts: dict[tuple, int] = {}
        hits = 0
        # The same tokens as n_samples sample_trajectory calls on this generator.
        group = sample_from_table(toy_mdp, policy_rows(mu05, toy_mdp), n_samples, rng)
        for y in group.trajectories:
            counts[y] = counts.get(y, 0) + 1
            hits += reward(toy_mdp, y)

        # P(completing 6 required picks within 7 alpha=0.5 draws) = 8/128
        p = 0.0625
        sigma = np.sqrt(p * (1 - p) / n_samples)
        assert abs(hits / n_samples - p) < 3 * sigma

        statistic = 0.0
        for y in enumerate_trajectories(toy_mdp):
            expected = np.exp(trajectory_log_prob(mu05, y)) * n_samples
            observed = counts.get(y, 0)
            statistic += (observed - expected) ** 2 / expected
        dof = 3**7 - 1
        assert statistic < dof + 5 * np.sqrt(2 * dof)
