import itertools
import math
import re
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
    TokenMdp,
    ZeroSupportError,
    b_n,
    exact_return,
    n_step_surrogate_empirical,
    objective_gradient,
    policy_rows,
    sample_from_table,
)
from tracelab.mdp import n_rows
from tracelab.objectives import population_moments
from tracelab.policies import policy_gap, policy_prob_table
from helpers import (
    OneHotPolicy,
    TabularSoftmaxPolicy,
    TargetFollowingPolicy,
    brute_force_local_surrogate,
    d_tv_max,
    dense_gradient,
    finite_difference_gradient,
    frozen_nfpo_coefficients,
    gradient_gap,
    per_sample_statistic,
    random_setups,
    random_tabular,
    ratio_deviation_bound,
    ratios,
    reward,
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


def _manual_group(mdp, mu, trajectories, advantages, rewards=None):
    g = len(trajectories)
    rewards = np.zeros(g) if rewards is None else np.asarray(rewards, dtype=float)
    return GroupRollout(
        mdp=mdp,
        tokens=np.array(trajectories),
        rewards=rewards,
        advantages=np.asarray(advantages, dtype=float),
        weights=np.full(g, 1.0 / g),
        rollout=mu,
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
        """Backward induction walks states, never trajectories: prefix rows
        are refused only past the 1093 states, and match-length rows need no
        state table at all."""
        prefix = TabularSoftmaxPolicy.from_policy(toy_mdp, mu05, "prefix")
        with pytest.raises(EnumerationCapError, match="needs 1093 items"):
            exact_return(replace(toy_mdp, enumeration_cap=toy_mdp.n_prefixes - 1), prefix)
        capped = exact_return(replace(toy_mdp, enumeration_cap=toy_mdp.n_prefixes), prefix)
        assert capped == pytest.approx(0.0625, abs=1e-12)
        capped = exact_return(replace(toy_mdp, enumeration_cap=toy_mdp.n_trajectories - 1), mu05)
        assert capped == pytest.approx(0.0625, abs=1e-12)


def _random_rows_policy(mdp, key, rng):
    """A tabular policy under ``key`` with random logits, about a quarter of
    its tokens at zero probability; every row keeps at least one token."""
    logits = rng.normal(0.0, 1.0, (n_rows(mdp, key), mdp.vocab_size))
    zero = rng.random(logits.shape) < 0.25
    zero[np.arange(len(logits)), rng.integers(0, mdp.vocab_size, len(logits))] = False
    logits[zero] = -np.inf
    return TabularSoftmaxPolicy(mdp, logits, key)


# Horizons whose V**T trajectories the plain-Python oracle enumerates quickly.
_ORACLE_HORIZON = {2: 9, 3: 7, 4: 6}


@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_rows_match_the_state_table_paths(data, seed):
    """The return and the bound's eps and dtv_max read from each policy's
    own rows agree with the paths through [n_states, V] tables: the return
    with the enumerated oracle to 1e-12 and bit for bit with the return from
    the state table (prefix rows), eps and dtv_max bit for bit with
    ratio_deviation_bound and d_tv_max, under either key, mixed keys, and
    zero-probability tokens under pi and mu."""
    v = data.draw(st.integers(2, 4), label="vocab")
    horizon = data.draw(st.integers(1, _ORACLE_HORIZON[v]), label="horizon")
    target = data.draw(st.lists(st.integers(0, v - 1), min_size=1, max_size=horizon + 1), label="target")
    keys = data.draw(st.tuples(*[st.sampled_from(TabularSoftmaxPolicy.STATE_KEYS)] * 2), label="keys")
    mdp = TokenMdp("abcd"[:v], horizon, tuple(target))
    rng = np.random.default_rng(seed)
    pi, mu = (_random_rows_policy(mdp, key, rng) for key in keys)
    for policy in (pi, mu):
        value = exact_return(mdp, policy_rows(policy, mdp))
        oracle = _enumerated_return(mdp, policy)
        assert abs(value - oracle) <= 1e-12 * max(1.0, abs(oracle))
        assert value == exact_return(mdp, PolicyRows(policy_prob_table(policy, mdp)))
    eps, dtv_max = policy_gap(mdp, policy_rows(pi, mdp), policy_rows(mu, mdp))
    assert eps == ratio_deviation_bound(pi, mu, mdp)
    assert dtv_max == d_tv_max(mu, pi, mdp)


def _gradient_bits(value, gradient):
    """The value of :func:`objective_gradient` and its gradient's rows and values, as one array."""
    return np.concatenate([[value], gradient.rows, gradient.values.ravel()])


def _gated_quantities(mdp, mu, seed):
    """Every public quantity that reads a policy or its rows, as a function of
    (pi, mu); the sampled ones read the tokens of a group drawn from ``mu``,
    rebuilt with the given mu as its rollout, so mu is read where the group
    is built."""
    drawn = sample_from_table(mdp, mu, 6, np.random.default_rng(seed))

    def group(mu):
        return replace(drawn, rollout=mu)

    n_list, nfpo = range(1, mdp.horizon + 1), _nfpo(2, MASK_NONE)
    return {
        "exact_return": lambda pi, mu: exact_return(mdp, pi),
        "population_moments": lambda pi, mu: population_moments(mdp, pi, mu, n_list),
        "n_step_surrogate_empirical": lambda pi, mu: n_step_surrogate_empirical(group(mu), pi, 2),
        "objective_value": lambda pi, mu: objective_gradient(group(mu), pi, nfpo)[0],
        "objective_gradient": lambda pi, mu: _gradient_bits(*objective_gradient(group(mu), pi, nfpo)),
        "policy_prob_table": lambda pi, mu: policy_prob_table(pi, mdp),
        "sample_from_table": lambda pi, mu: sample_from_table(
            mdp, mu, 6, np.random.default_rng(seed)
        ).tokens,
    }


GATED = (
    "exact_return",
    "population_moments",
    "n_step_surrogate_empirical",
    "objective_value",
    "objective_gradient",
    "policy_prob_table",
    "sample_from_table",
)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), which=st.integers(0, 2))
def test_rows_read_bit_for_bit_like_their_policy(seed, which):
    """Each quantity gives the same bits from a policy as from its rows, which
    the gate passes through as they are: for a target-following pair, a
    prefix-keyed tabular pair, and a match-length tabular pi (``which = 2``)."""
    mdp, pi, mu = random_setups(2, seed)[which % 2]
    if which == 2:
        logits = np.random.default_rng(seed).normal(0.0, 0.8, (len(mdp.target) + 1, mdp.vocab_size))
        pi = TabularSoftmaxPolicy(mdp, logits, "match_length")
    rows = policy_rows(pi, mdp), policy_rows(mu, mdp)
    assert policy_rows(rows[0], mdp) is rows[0]
    quantities = _gated_quantities(mdp, mu, seed)
    assert tuple(quantities) == GATED
    for name, quantity in quantities.items():
        from_policies, from_rows = quantity(pi, mu), quantity(*rows)
        assert np.asarray(from_policies).tobytes() == np.asarray(from_rows).tobytes(), name


@pytest.mark.parametrize("bad", ["key", "row_count", "vocab_width"])
@pytest.mark.parametrize("key", TabularSoftmaxPolicy.STATE_KEYS)
@pytest.mark.parametrize("name", GATED)
def test_malformed_rows_refused(toy_mdp, mu05, pi08, name, key, bad):
    """Rows under an unknown key or of the wrong shape are refused by the gate,
    which names the shape it expects."""
    probs = policy_rows(pi08, toy_mdp).probs if key == "match_length" else policy_prob_table(pi08, toy_mdp)
    rows, expected = {
        "key": (PolicyRows(probs, "state"), "row key must be one of"),
        "row_count": (PolicyRows(probs[:-1], key), f"must be {probs.shape}"),
        "vocab_width": (PolicyRows(probs[:, :-1], key), f"must be {probs.shape}"),
    }[bad]
    quantity = _gated_quantities(toy_mdp, mu05, 0)[name]
    with pytest.raises(ValueError, match=re.escape(expected)):
        quantity(rows, rows)


def test_group_token_outside_its_rollout_refused(toy_mdp):
    """A group whose rollout policy gives one of its tokens probability 0 was
    not drawn from it: the one-hot policy puts no mass on the last token of
    TOY_TRAJECTORY, read once the target is matched.  The group is refused
    where it is built, so no objective or surrogate ever reads it."""
    message = "rollout policy gives zero probability to a sampled token"
    with pytest.raises(ZeroSupportError, match=message):
        _manual_group(toy_mdp, OneHotPolicy(toy_mdp), [TOY_TRAJECTORY], [0.0], rewards=[1.0])


class TestPerformanceDifference:
    def test_direct_toy_value(self, toy_mdp, mu05, pi08):
        assert exact_return(toy_mdp, pi08) - exact_return(toy_mdp, mu05) == pytest.approx(
            0.5142168, abs=1e-12
        )

    def test_identical_policies(self, toy_mdp, mu05):
        assert population_moments(toy_mdp, mu05, mu05, [toy_mdp.horizon]).mean[0] == 0.0

    def test_antisymmetry(self, toy_mdp, mu05, pi08):
        forward = exact_return(toy_mdp, pi08) - exact_return(toy_mdp, mu05)
        backward = exact_return(toy_mdp, mu05) - exact_return(toy_mdp, pi08)
        assert forward == pytest.approx(-backward, abs=1e-12)

    def test_trace_form_matches_direct_on_toy(self, toy_mdp, mu05, pi08):
        trace = population_moments(toy_mdp, pi08, mu05, [toy_mdp.horizon]).mean[0]
        direct = exact_return(toy_mdp, pi08) - exact_return(toy_mdp, mu05)
        assert abs(trace - direct) < 1e-10

    def test_trace_form_matches_direct_randomized(self):
        """Random full-support pairs on a 2-token horizon-3 MDP."""
        mdp = TokenMdp.from_symbols("ab", 3, "ab")
        rng = np.random.default_rng(17)
        for _ in range(25):
            pi, mu = random_tabular(mdp, rng), random_tabular(mdp, rng)
            trace = population_moments(mdp, pi, mu, [mdp.horizon]).mean[0]
            gap = trace - (exact_return(mdp, pi) - exact_return(mdp, mu))
            assert abs(gap) < 1e-10


class TestWindowedSurrogate:
    def test_full_window_recovers_improvement(self, toy_mdp, mu05, pi08):
        full = population_moments(toy_mdp, pi08, mu05, [7]).mean[0]
        assert abs(full - 0.5142168) < 1e-10

    def test_identical_policies_vanish(self, toy_mdp, mu05):
        for n_step in (1, 3, 7):
            assert population_moments(toy_mdp, mu05, mu05, [n_step]).mean[0] == 0.0

    def test_local_window_has_larger_bias(self, toy_mdp, mu05, pi08):
        improvement = exact_return(toy_mdp, pi08) - exact_return(toy_mdp, mu05)
        local = population_moments(toy_mdp, pi08, mu05, [1]).mean[0]
        full = population_moments(toy_mdp, pi08, mu05, [7]).mean[0]
        assert abs(improvement - local) > abs(improvement - full)

    @pytest.mark.parametrize("n_step", [1, 4, 7])
    def test_against_plain_python_oracle(self, toy_mdp, mu05, pi08, n_step):
        oracle = brute_force_local_surrogate(toy_mdp, pi08, mu05, n_step)
        fast = population_moments(toy_mdp, pi08, mu05, [n_step]).mean[0]
        assert fast == pytest.approx(oracle, abs=1e-11)

    def test_window_domain(self, toy_mdp, mu05, pi08):
        with pytest.raises(ValueError):
            population_moments(toy_mdp, pi08, mu05, [0])
        with pytest.raises(ValueError):
            population_moments(toy_mdp, pi08, mu05, [8])


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
                z = per_sample_statistic(toy_mdp, tuple(group.tokens[0].tolist()), pi08, mu05, n_step).z
                assert abs(z) <= envelope + 1e-9


class TestEmpiricalSurrogate:
    def test_identical_policies(self, toy_mdp, mu05):
        group = sample_group(toy_mdp, mu05, 8, np.random.default_rng(0))
        assert n_step_surrogate_empirical(group, mu05, 4) == 0.0

    def test_singleton_group_equals_statistic(self, toy_mdp, mu05, pi08):
        group = _manual_group(toy_mdp, mu05, [TOY_TRAJECTORY], [0.0], rewards=[1.0])
        assert n_step_surrogate_empirical(group, pi08, 1) == pytest.approx(3.6, abs=1e-12)

    def test_unbiased_over_many_groups(self, toy_mdp, mu05, pi08):
        """Mean over 10^4 independent 8-sample groups lands within 3 SE of
        the enumerated population value."""
        population = population_moments(toy_mdp, pi08, mu05, [4]).mean[0]
        rng = np.random.default_rng(99)
        rows = policy_rows(mu05, toy_mdp)  # draws the tokens of sample_group on this generator
        values = np.array(
            [
                n_step_surrogate_empirical(sample_from_table(toy_mdp, rows, 8, rng), pi08, 4)
                for _ in range(10_000)
            ]
        )
        stderr = values.std(ddof=1) / np.sqrt(len(values))
        assert abs(values.mean() - population) < 3 * stderr


class TestVariance:
    def test_identical_policies(self, toy_mdp, mu05):
        assert population_moments(toy_mdp, mu05, mu05, [4]).variance[0] == 0.0

    def test_deterministic_rollout(self, toy_mdp, pi08):
        class OneHot:
            mdp = toy_mdp

            def probs(self, prefix):
                p = np.zeros(3)
                p[0] = 1.0
                return p

            def rows(self):
                return PolicyRows(np.tile(self.probs(()), (len(self.mdp.target) + 1, 1)), "match_length")

        with pytest.raises(ZeroSupportError):
            population_moments(toy_mdp, pi08, OneHot(), [3])

    def test_full_window_noisier_than_local(self, toy_mdp, mu05, pi08):
        local = population_moments(toy_mdp, pi08, mu05, [1]).variance[0]
        full = population_moments(toy_mdp, pi08, mu05, [7]).variance[0]
        assert full > local


class TestPpoObjective:
    def test_identical_policies_center_out(self, toy_mdp, mu05):
        group = sample_group(toy_mdp, mu05, 8, np.random.default_rng(4))
        assert objective_gradient(group, mu05, PPO)[0] == pytest.approx(0.0, abs=1e-12)

    def test_upper_clip_engages(self):
        mdp, pi, mu = _single_token_setup()
        group = _manual_group(mdp, mu, [(0,)], [1.0])
        assert objective_gradient(group, pi, PPO)[0] == pytest.approx(1.28, abs=1e-12)

    def test_negative_advantage_stays_pessimistic(self):
        mdp, pi, mu = _single_token_setup()
        group = _manual_group(mdp, mu, [(0,)], [-1.0])
        assert objective_gradient(group, pi, PPO)[0] == pytest.approx(-2.0, abs=1e-12)


class TestMpgObjective:
    def test_identical_policies(self, toy_mdp, mu05):
        group = sample_group(toy_mdp, mu05, 8, np.random.default_rng(4))
        value = objective_gradient(group, mu05, _mpg(MASK_NONE))[0]
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_masked_tokens_contribute_nothing(self, toy_mdp, mu05, pi08):
        """Value equals the hand-summed contribution of unmasked tokens."""
        spec = MaskSpec("tv", delta=0.2)
        group = sample_group(toy_mdp, mu05, 4, np.random.default_rng(8))
        expected = 0.0
        for w, adv, y in zip(group.weights, group.advantages, map(tuple, group.tokens.tolist())):
            profile = ratios(pi08, mu05, y)
            keep = token_mask(spec, profile, float(adv), mu05, pi08, y)
            expected += w * sum(
                float(adv) * float(profile.ratios[t]) for t in range(7) if keep[t] == 1
            )
        value = objective_gradient(group, pi08, _mpg(spec))[0]
        assert value == pytest.approx(expected, abs=1e-12)


class TestNfpoObjective:
    def test_trivial_window_equals_masked_surrogate(self, toy_mdp, mu05, pi08):
        spec = MaskSpec("tv", delta=0.2)
        rng = np.random.default_rng(31)
        for _ in range(10):
            group = sample_group(toy_mdp, mu05, 8, rng)
            a = objective_gradient(group, pi08, _nfpo(1, spec))[0]
            b = objective_gradient(group, pi08, _mpg(spec))[0]
            assert abs(a - b) < 1e-14

    def test_identical_policies(self, toy_mdp, mu05):
        group = sample_group(toy_mdp, mu05, 8, np.random.default_rng(4))
        value = objective_gradient(group, mu05, _nfpo(4, MASK_NONE))[0]
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_hand_evaluated_two_trajectory_group(self, toy_mdp, mu05, pi08):
        """abcabca (rewarded) and aaaaaaa (not): only the absorbed last token
        of the first and the inward first token of the second survive the
        mask, giving 0.5*0.5 + 0.5*(-0.5*1.6*0.8) = -0.07."""
        group = _manual_group(
            toy_mdp, mu05, [TOY_TRAJECTORY, (0,) * 7], [0.5, -0.5], rewards=[1.0, 0.0]
        )
        value = objective_gradient(group, pi08, _nfpo(4, MaskSpec("tv", delta=0.2)))[0]
        assert value == pytest.approx(-0.07, abs=1e-12)

    def test_unknown_kind_refused(self):
        with pytest.raises(ValueError, match=r"objective kind must be one of \('nfpo', 'mpg', 'ppo'\)"):
            ObjectiveSpec("trpo")


class TestNfpoGradient:
    def test_zero_advantages_give_zero_gradient(self, toy_mdp, mu05):
        pi = TabularSoftmaxPolicy.from_policy(toy_mdp, mu05)
        group = _manual_group(toy_mdp, mu05, [TOY_TRAJECTORY, (1,) * 7], [0.0, 0.0])
        _, grad = objective_gradient(group, pi, _nfpo(4, MASK_NONE))
        grad = dense_gradient(grad, pi.logits.shape)
        assert not grad.any()

    def test_single_state_score_identity(self):
        """One unmasked token: d/dlogit_b = c*rho*(1{b=tok} - pi(b))."""
        mdp, pi, mu = _single_token_setup()
        group = _manual_group(mdp, mu, [(0,)], [1.0])
        _, grad = objective_gradient(group, pi, _nfpo(1, MASK_NONE))
        grad = dense_gradient(grad, pi.logits.shape)
        probs = pi.probs(())
        rho = probs[0] / mu.probs(())[0]
        np.testing.assert_allclose(
            grad[pi.row(())], [rho * (1 - probs[0]), -rho * probs[1]], atol=1e-12
        )

    def test_state_rows_sum_to_zero(self, toy_mdp, mu05):
        rng = np.random.default_rng(1)  # seed chosen so the group has a reward spread
        pi = random_tabular(toy_mdp, rng)
        group = sample_group(toy_mdp, mu05, 8, rng)
        _, grad = objective_gradient(group, pi, _nfpo(4, MaskSpec("tv", delta=0.2)))
        grad = dense_gradient(grad, pi.logits.shape)
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
            _, grad = objective_gradient(group, pi, _nfpo(2, MaskSpec("tv", delta=0.2)))
            grad = dense_gradient(grad, pi.logits.shape)
            coeffs = frozen_nfpo_coefficients(
                group, pi, mu, 2, 3.0, 0.2, 0.4, MaskSpec("tv", delta=0.2)
            )
            for minus_one in (False, True):
                numeric = finite_difference_gradient(group, pi, mu, coeffs, minus_one=minus_one)
                gap = gradient_gap(grad, numeric)
                assert gap < 1e-5
