import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracelab import (
    EnumerationCapError,
    TokenMdp,
    policy_rows,
    sample_from_table,
)
from tracelab.mdp import n_rows, prefix_row_ids, reached_rows, trajectory_chunks
from helpers import OneHotPolicy, decoded_trajectories, enumerate_prefixes, enumerate_trajectories, match_length
from helpers import prefix_state_ids, reward, sample_trajectory, trajectory_log_prob


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

    def test_rejects_repeated_vocab(self):
        """The constructor owns the check, so both ways in refuse the same vocab."""
        with pytest.raises(ValueError, match="vocab tokens must be distinct"):
            TokenMdp.from_symbols("aba", 3, "ab")
        with pytest.raises(ValueError, match="vocab tokens must be distinct"):
            TokenMdp(("a", "b", "a"), 3, (0, 1))

    @pytest.mark.parametrize(
        "target,message",
        [
            ((), "target must be non-empty"),
            ((2,), "target contains out-of-vocab indices"),
            ((0, -1), "target contains out-of-vocab indices"),
        ],
    )
    def test_rejects_bad_target_indices(self, target, message):
        """The constructor checks the indices that ``from_symbols`` would have mapped."""
        with pytest.raises(ValueError, match=message):
            TokenMdp(("a", "b"), 3, target)


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
        """The refusal says what it counted, how many, and which config key caps it."""
        mdp = TokenMdp.from_symbols("abc", 20, "abc")
        with pytest.raises(EnumerationCapError) as err:
            next(trajectory_chunks(mdp))
        assert str(err.value) == (
            f"exhaustive enumeration (trajectories) needs {3**20} items, "
            f"cap is {mdp.enumeration_cap} (config key 'enumeration_cap')"
        )

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

    @pytest.mark.parametrize("horizon,target", [(1, "a"), (4, "acb"), (3, "abcabc")])
    def test_matched_leaves_are_cached_and_read_only(self, horizon, target):
        """The leaves that match the whole target, then those one token short of
        it, as ids counted from the first leaf; built once per MDP, never written."""
        mdp = TokenMdp.from_symbols("abc", horizon, target)
        lengths = np.array([match_length(y, mdp.target) for y in enumerate_prefixes(mdp) if len(y) == horizon - 1])
        for ids, cached, k in zip(mdp.matched_leaves, mdp.matched_leaves, (len(target), len(target) - 1)):
            np.testing.assert_array_equal(ids, np.flatnonzero(lengths == k))
            assert ids is cached and not ids.flags.writeable

    @settings(max_examples=40, deadline=None)
    @given(vocab_size=st.integers(2, 4), horizon=st.integers(1, 8), data=st.data())
    def test_chunks_match_the_division_decode(self, vocab_size, horizon, data):
        """Every time-major chunk holds the tokens that dividing its codes by
        the place values gives, and the reward of each of them.  The chunk
        size stays 1-100, and at least V**T / 1000 so a case has at most
        1000 chunks."""
        mdp = TokenMdp(tuple("abcd"[:vocab_size]), horizon, (0, 1))
        low = -(-mdp.n_trajectories // 1000)
        chunk_size = data.draw(st.integers(low, 100), label="chunk_size")
        lo = 0
        for tokens, rewards in trajectory_chunks(mdp, chunk_size):
            hi = lo + len(tokens)
            np.testing.assert_array_equal(tokens, decoded_trajectories(mdp, lo, hi))
            assert tokens.T.flags.c_contiguous
            assert rewards.tolist() == [reward(mdp, y) for y in tokens.tolist()]
            lo = hi
        assert lo == mdp.n_trajectories

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
        for y in map(tuple, group.tokens.tolist()):
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


class TestRowKeys:
    """The MDP owns the row keys: every function that reads a key refuses any other."""

    @pytest.mark.parametrize("key", ["Prefix", "state", ""])
    def test_unknown_key_refused(self, toy_mdp, mu05, key):
        group = sample_from_table(toy_mdp, policy_rows(mu05, toy_mdp), 2, np.random.default_rng(0))
        tokens = np.zeros((2, toy_mdp.horizon), dtype=np.int64)
        for read in (
            lambda: n_rows(toy_mdp, key),
            lambda: reached_rows(toy_mdp, key),
            lambda: prefix_row_ids(toy_mdp, tokens, key),
            lambda: group.row_ids(key),
        ):
            with pytest.raises(ValueError, match="row key must be one of"):
                read()

    @pytest.mark.parametrize("horizon,reached", [(3, 3), (6, 6), (7, 7), (9, 7)])
    def test_reached_match_lengths(self, horizon, reached):
        """min(|target|, T - 1) + 1 match lengths are reached, of |target| + 1 rows."""
        mdp = TokenMdp.from_symbols("abc", horizon, "abcabc")
        assert n_rows(mdp, "match_length") == 7
        assert reached_rows(mdp, "match_length") == reached
        assert reached_rows(mdp, "prefix") == n_rows(mdp, "prefix") == mdp.n_prefixes
