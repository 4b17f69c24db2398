"""Shared builders for randomized test configurations, and the per-prefix
oracles: each walks one trajectory prefix by prefix through ``probs``, the
slow path that the row-indexed group kernels are checked against.  The
policy classes here are the package's, plus the per-prefix reads that only
these oracles use."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

import numpy as np

import tracelab
from tracelab import (
    GroupRollout,
    MaskSpec,
    ObjectiveSpec,
    PolicyRows,
    TokenMdp,
    UnknownStateError,
    ZeroSupportError,
)
from tracelab.mdp import (
    ENUMERATION,
    STATE_TABLE,
    check_enumeration_cap,
    check_window,
    prefix_row_ids,
    reward_vector,
    trajectory_chunks,
)
from tracelab.objectives import _windowed_statistics
from tracelab.policies import _softmax, kl_divergence, policy_prob_table, total_variation
from tracelab.weights import _suffix_sums, iter_window_products

Trajectory = tuple[int, ...]


def match_length(prefix: Sequence, target: Sequence) -> int:
    """Longest k such that target[:k] is an ordered subsequence of prefix.

    Greedy left-to-right matching is optimal here: skipping an available
    match can never extend the matched prefix of the target.
    """
    k = 0
    n = len(target)
    for sym in prefix:
        if k == n:
            break
        if sym == target[k]:
            k += 1
    return k


def reward(mdp: TokenMdp, y: Sequence[int]) -> float:
    """1.0 when the target is an ordered subsequence of y, else 0.0."""
    if len(y) != mdp.horizon:
        raise ValueError(f"trajectory length {len(y)} != horizon {mdp.horizon}")
    if any(not (0 <= t < mdp.vocab_size) for t in y):
        raise ValueError("trajectory contains out-of-vocab indices")
    return 1.0 if match_length(y, mdp.target) == len(mdp.target) else 0.0


def enumerate_prefixes(mdp: TokenMdp) -> Iterator[tuple[int, ...]]:
    """All reachable states: prefixes of length 0 .. horizon-1.

    Ordered by length, lexicographic within each length, which matches the
    integer state codes used by the vectorized enumeration helpers.  The cap
    is checked on the call, before the first prefix is asked for.
    """
    check_enumeration_cap(mdp, mdp.n_prefixes, STATE_TABLE)
    v = range(mdp.vocab_size)
    return itertools.chain.from_iterable(
        itertools.product(v, repeat=length) for length in range(mdp.horizon)
    )


class TargetFollowingPolicy(tracelab.TargetFollowingPolicy):
    """The package policy, read at a prefix through its matched length."""

    def probs(self, prefix: Sequence[int]) -> np.ndarray:
        return self._table[match_length(prefix, self.mdp.target)]


def row_id(mdp: TokenMdp, key: str, prefix: Sequence[int]) -> int:
    """The row id of ``prefix`` under ``key``, walked token by token: its
    matched length, or its state code in the order of ``enumerate_prefixes``."""
    if key == "match_length":
        return match_length(prefix, mdp.target)
    state = 0
    for token in prefix:
        state = mdp.vocab_size * state + 1 + token
    return state


class TabularSoftmaxPolicy(tracelab.TabularSoftmaxPolicy):
    """The package policy, with a prefix's row id found by a per-prefix walk."""

    def row(self, prefix: Sequence[int]) -> int:
        """The row id of ``prefix`` under ``state_key``; only a state of the MDP,
        a prefix of vocab tokens shorter than the horizon, has one."""
        v = self.mdp.vocab_size
        if len(prefix) >= self.mdp.horizon or not all(0 <= token < v for token in prefix):
            raise UnknownStateError(f"no logits for state {tuple(prefix)!r}; policy/MDP mismatch?")
        return row_id(self.mdp, self.state_key, prefix)

    def probs(self, prefix: Sequence[int]) -> np.ndarray:
        return _softmax(self.logits[self.row(prefix)])

    def copy(self) -> "TabularSoftmaxPolicy":
        return TabularSoftmaxPolicy(self.mdp, self.logits.copy(), self.state_key)


def d_tv_max(mu, pi, mdp: TokenMdp) -> float:
    """Max state-wise total variation over all reachable prefixes, from the two
    state-indexed tables."""
    tv = total_variation(policy_prob_table(mu, mdp), policy_prob_table(pi, mdp))
    return float(tv.max())


def ratio_deviation_bound(pi, mu, mdp: TokenMdp) -> float:
    """Exact sup over (state, token) of |pi/mu - 1| on the rollout support.

    Tokens with zero rollout probability never appear in sampled
    trajectories, so they are excluded from the bound.
    """
    p_pi, p_mu = policy_prob_table(pi, mdp), policy_prob_table(mu, mdp)
    ratio = np.divide(p_pi, p_mu, out=np.ones_like(p_pi), where=p_mu > 0)
    return float(np.abs(ratio - 1.0).max())


class OneHotPolicy:
    """Puts all mass on the next required target token: zero probability elsewhere."""

    def __init__(self, mdp: TokenMdp):
        self.mdp = mdp

    def probs(self, prefix):
        p = np.zeros(self.mdp.vocab_size)
        k = match_length(prefix, self.mdp.target)
        p[self.mdp.target[min(k, len(self.mdp.target) - 1)]] = 1.0
        return p

    def rows(self) -> PolicyRows:
        """One row per matched length, as ``probs`` gives it."""
        heads = [self.mdp.target[:k] for k in range(len(self.mdp.target) + 1)]
        return PolicyRows(np.array([self.probs(head) for head in heads]), "match_length")


def random_small_mdp(rng: np.random.Generator) -> TokenMdp:
    """A random enumerable MDP: 2-3 tokens, horizon 2-6, random target."""
    vocab_size = int(rng.integers(2, 4))
    horizon = int(rng.integers(2, 7))
    vocab = "abcdef"[:vocab_size]
    target_len = int(rng.integers(1, horizon + 1))
    target = "".join(vocab[i] for i in rng.integers(0, vocab_size, target_len))
    return TokenMdp.from_symbols(vocab, horizon, target)


def random_tabular(mdp: TokenMdp, rng: np.random.Generator, scale: float = 0.8):
    logits = rng.normal(0.0, scale, (mdp.n_prefixes, mdp.vocab_size))
    return TabularSoftmaxPolicy(mdp, logits, "prefix")


def random_policy_pair(mdp: TokenMdp, rng: np.random.Generator, kind: str):
    """Either a random alpha pair or a random tabular pair."""
    if kind == "alpha":
        a, b = rng.uniform(0.05, 0.95, 2)
        return TargetFollowingPolicy(mdp, a), TargetFollowingPolicy(mdp, b)
    return random_tabular(mdp, rng), random_tabular(mdp, rng)


def random_setups(count: int, seed: int):
    """Alternating alpha-pair / tabular-pair setups on random small MDPs."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        mdp = random_small_mdp(rng)
        pi, mu = random_policy_pair(mdp, rng, "alpha" if i % 2 == 0 else "tabular")
        out.append((mdp, pi, mu))
    return out


def frozen_nfpo_coefficients(group, pi, mu, n_step, beta, eps_low, eps_high, mask):
    """Per-token multipliers of the trace objective, pinned at the current pi."""
    coeffs = []
    for w, adv, y in zip(group.weights, group.advantages, map(tuple, group.tokens.tolist())):
        profile = ratios(pi, mu, y)
        trace = traces(profile, n_step, beta, eps_low, eps_high)
        keep = token_mask(mask, profile, float(adv), mu, pi, y)
        coeffs.append(w * adv * keep * trace.clipped)
    return coeffs


def frozen_objective(group, pi, mu, coeffs, minus_one: bool = False) -> float:
    """sum of c_t * rho_t (or c_t * (rho_t - 1)) with the c_t held fixed."""
    total = 0.0
    for coeff, y in zip(coeffs, map(tuple, group.tokens.tolist())):
        rho = ratios(pi, mu, y).ratios
        total += float((coeff * (rho - 1.0 if minus_one else rho)).sum())
    return total


def finite_difference_gradient(group, pi, mu, coeffs, step=1e-6, minus_one=False):
    """Central differences of the frozen-coefficient objective over all logits."""
    grads = np.zeros(pi.logits.shape)
    for index in np.ndindex(*pi.logits.shape):
        pi.logits[index] += step
        up = frozen_objective(group, pi, mu, coeffs, minus_one)
        pi.logits[index] -= 2 * step
        down = frozen_objective(group, pi, mu, coeffs, minus_one)
        pi.logits[index] += step
        grads[index] = (up - down) / (2 * step)
    return grads


def dense_gradient(gradient, shape) -> np.ndarray:
    """A ``RowGradient`` scattered into a dense ``[R, V]`` array of ``shape``,
    zero in every row it does not touch."""
    dense = np.zeros(shape)
    dense[gradient.rows] = gradient.values
    return dense


def gradient_gap(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Vector-norm relative error between two logit gradients."""
    a, f = np.ravel(analytic), np.ravel(numeric)
    scale = max(1.0, float(np.linalg.norm(a)), float(np.linalg.norm(f)))
    return float(np.linalg.norm(a - f)) / scale


def brute_force_local_surrogate(mdp: TokenMdp, pi, mu, n_step: int) -> float:
    """Independent oracle: the windowed surrogate by plain Python loops."""
    total = 0.0
    for y in itertools.product(range(mdp.vocab_size), repeat=mdp.horizon):
        prob_mu = 1.0
        rho = []
        for t in range(mdp.horizon):
            prefix = y[:t]
            p_mu = float(mu.probs(prefix)[y[t]])
            prob_mu *= p_mu
            rho.append(float(pi.probs(prefix)[y[t]]) / p_mu)
        if prob_mu == 0.0:
            continue
        inner = 0.0
        for t in range(mdp.horizon):
            window = 1.0
            for j in range(t + 1, min(t + n_step, mdp.horizon)):
                window *= rho[j]
            inner += (rho[t] - 1.0) * window
        total += prob_mu * reward(mdp, y) * inner
    return total


def prefix_state_ids(mdp: TokenMdp, tokens: np.ndarray) -> np.ndarray:
    """State id of every prefix y_{<t} in a [m, T] token block."""
    return prefix_row_ids(mdp, tokens, "prefix")


def decoded_trajectories(mdp: TokenMdp, lo: int, hi: int) -> np.ndarray:
    """Tokens [hi - lo, T] of the trajectories with codes lo .. hi-1, by
    dividing each code by every place value: the slow path of the chunks."""
    v, t_len = mdp.vocab_size, mdp.horizon
    place = np.array([v ** (t_len - 1 - t) for t in range(t_len)], dtype=np.int64)
    return np.arange(lo, hi, dtype=np.int64)[:, None] // place % v


# --- per-prefix oracles ------------------------------------------------------


def enumerate_trajectories(mdp: TokenMdp) -> Iterator[Trajectory]:
    """All |vocab|^horizon trajectories, each exactly once, lexicographic."""
    check_enumeration_cap(mdp, mdp.n_trajectories, ENUMERATION)
    return itertools.product(range(mdp.vocab_size), repeat=mdp.horizon)


def sample_trajectory(mdp: TokenMdp, policy, rng: np.random.Generator) -> Trajectory:
    """Draw one trajectory token by token from policy(. | prefix)."""
    tokens: list[int] = []
    for _ in range(mdp.horizon):
        probs = np.asarray(policy.probs(tuple(tokens)), dtype=float)
        if probs.shape != (mdp.vocab_size,) or np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError(f"policy returned an invalid distribution: {probs!r}")
        u = rng.random()
        tok = int(np.searchsorted(np.cumsum(probs), u, side="right"))
        tokens.append(min(tok, mdp.vocab_size - 1))
    return tuple(tokens)


def token_prob(policy, prefix: Sequence[int], token: int) -> float:
    """Probability of one token at one state."""
    return float(policy.probs(prefix)[token])


def trajectory_log_prob(policy, y: Sequence[int]) -> float:
    """log P(y) under the policy's autoregressive factorization."""
    y = tuple(y)
    total = 0.0
    for t, tok in enumerate(y):
        p = float(policy.probs(y[:t])[tok])
        if p == 0.0:
            return -np.inf
        total += np.log(p)
    return total


def state_tv(mu, pi, prefix: Sequence[int]) -> float:
    """Total variation distance between the two token distributions at a state."""
    return float(total_variation(np.asarray(mu.probs(prefix)), np.asarray(pi.probs(prefix))))


def state_kl(mu, pi, prefix: Sequence[int]) -> float:
    """KL(mu(.|s) || pi(.|s)); the rollout-to-target direction."""
    p = np.asarray(mu.probs(prefix), dtype=float)
    q = np.asarray(pi.probs(prefix), dtype=float)
    return float(kl_divergence(p, q))


@dataclass(frozen=True)
class RatioProfile:
    """Per-token likelihood ratios pi/mu along one trajectory."""

    ratios: np.ndarray
    log_ratios: np.ndarray

    def __len__(self) -> int:
        return len(self.ratios)


def ratios(pi, mu, y: Sequence[int]) -> RatioProfile:
    """Token-level likelihood ratios of pi relative to mu along y."""
    y = tuple(y)
    log_r = np.zeros(len(y))
    if pi is not mu:
        for t, tok in enumerate(y):
            prefix = y[:t]
            p_mu = float(mu.probs(prefix)[tok])
            if p_mu == 0.0:
                raise ZeroSupportError(
                    f"rollout policy gives zero probability to token {tok} at step {t + 1}"
                )
            log_r[t] = np.log(float(pi.probs(prefix)[tok])) - np.log(p_mu)
    return RatioProfile(ratios=np.exp(log_r), log_ratios=log_r)


def ratios_from_values(values: Sequence[float]) -> RatioProfile:
    """Wrap a raw positive ratio sequence as a profile (for constructed demos)."""
    arr = np.asarray(values, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("ratios must be positive")
    return RatioProfile(ratios=arr, log_ratios=np.log(arr))


@dataclass(frozen=True)
class TraceSet:
    """Forward-trace family for one ratio profile.

    full[i]          product of all ratios after token i+1 (1 at the end)
    n_step[i]        product of the next window of ratios only
    residual[i]      product of the ratios the window left out
    clipped_ratio[i] token ratio clipped to [1/beta, beta]
    clipped[i]       window product of clipped ratios, then clipped to
                     [1 - eps_low, 1 + eps_high]
    """

    full: np.ndarray
    n_step: np.ndarray
    residual: np.ndarray
    clipped_ratio: np.ndarray
    clipped: np.ndarray
    horizon_n: int
    beta: float
    eps_low: float
    eps_high: float


def traces(
    profile: RatioProfile,
    n_step: int,
    beta: float,
    eps_low: float,
    eps_high: float,
) -> TraceSet:
    """All trace variants for one trajectory's ratio profile."""
    t_len = len(profile)
    check_window(t_len, n_step)

    suffix = _suffix_sums(profile.log_ratios)
    return TraceSet(
        full=np.exp(suffix[1:]),
        n_step=next(iter_window_products(profile.log_ratios, [n_step])),
        residual=np.exp(suffix[np.minimum(np.arange(t_len) + n_step, t_len)]),
        clipped_ratio=np.clip(profile.ratios, 1.0 / beta, beta),
        clipped=ObjectiveSpec("nfpo", n_step, beta, eps_low, eps_high).trace(profile.ratios),
        horizon_n=n_step,
        beta=beta,
        eps_low=eps_low,
        eps_high=eps_high,
    )


def token_mask(
    mask: MaskSpec,
    profile: RatioProfile,
    advantage: float,
    mu,
    pi,
    y: Sequence[int],
) -> np.ndarray:
    """Binary keep/drop vector for one trajectory's tokens, decided token by
    token; the tv and kl masks measure each token's state prefix by prefix."""
    y = tuple(y)
    measure = state_tv if mask.kind == "tv" else state_kl
    keep = []
    for t, rho in enumerate(profile.ratios):
        toward_rollout = advantage * (rho - 1.0) <= 0.0
        if mask.kind == "none":
            keep.append(True)
        elif mask.kind == "grpo_ratio":
            keep.append(1.0 - mask.eps_low < rho < 1.0 + mask.eps_high or toward_rollout)
        elif mask.kind == "icepop":
            keep.append(1.0 / mask.beta <= rho <= mask.beta)
        else:
            keep.append(measure(mu, pi, y[:t]) <= mask.delta or toward_rollout)
    return np.array(keep, dtype=np.int64)


def sample_group(
    mdp: TokenMdp, mu, group_size: int, rng: np.random.Generator
) -> GroupRollout:
    """Sample G trajectories from the rollout policy and center their rewards;
    the group carries mu's rows."""
    if group_size < 1:
        raise ValueError(f"group_size must be >= 1, got {group_size}")
    tokens = np.array([sample_trajectory(mdp, mu, rng) for _ in range(group_size)])
    rewards = reward_vector(mdp, tokens)
    return GroupRollout(
        mdp=mdp,
        tokens=tokens,
        rewards=rewards,
        advantages=rewards - rewards.mean(),
        weights=np.full(group_size, 1.0 / group_size),
        rollout=mu,
    )


def population_group(mdp: TokenMdp, mu) -> GroupRollout:
    """Every trajectory, weighted by its exact rollout probability; the group
    carries mu's rows.

    Batch means over this pseudo-group are population expectations under mu;
    zero-probability trajectories are dropped so ratios stay well-defined.
    """
    with np.errstate(divide="ignore"):
        log_mu = np.log(policy_prob_table(mu, mdp))
    blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for tokens, rewards in trajectory_chunks(mdp):
        log_p = log_mu[prefix_state_ids(mdp, tokens), tokens].sum(axis=1)
        keep = ~np.isneginf(log_p)
        blocks.append((tokens[keep], np.exp(log_p[keep]), rewards[keep]))
    tokens, weights, rewards = (np.concatenate(parts) for parts in zip(*blocks))
    mean_reward = float(weights @ rewards)
    return GroupRollout(
        mdp=mdp,
        tokens=tokens,
        rewards=rewards,
        advantages=rewards - mean_reward,
        weights=weights,
        rollout=mu,
    )


@dataclass(frozen=True)
class PerSampleStat:
    """Single-trajectory windowed-surrogate statistic."""

    z: float
    trajectory: Trajectory


def per_sample_statistic(mdp: TokenMdp, y: Sequence[int], pi, mu, n_step: int) -> PerSampleStat:
    """Reward times the window-corrected sum of ratio deviations for one y."""
    check_window(mdp.horizon, n_step)
    (z,) = _windowed_statistics(reward(mdp, y), ratios(pi, mu, y).log_ratios, [n_step])
    return PerSampleStat(z=float(z), trajectory=tuple(y))


def residual_check(trace_set: TraceSet) -> float:
    """Largest defect of the window/residual factorization of the full trace."""
    return float(
        np.abs(trace_set.full - trace_set.n_step * trace_set.residual).max(initial=0.0)
    )


class RationalMoments(NamedTuple):
    """Exact E[Z] and Var[Z], one per window, the returns of pi and mu,
    E[(sum of |term|)^2] per window, and the pair's eps and dtv_max: Z is a
    sum of one term per token, and a float path that adds or multiplies those
    terms rounds on their size."""

    mean: list[Fraction]
    variance: list[Fraction]
    returns: tuple[Fraction, Fraction]
    term_size: list[Fraction]
    gap: tuple[Fraction, Fraction]


def _rational_rows(rows) -> tuple[list[list[Fraction]], str]:
    """``PolicyRows``, or bare match-length rows, as [row][token] rationals
    (floats convert exactly) and their key."""
    probs, key = rows if isinstance(rows, PolicyRows) else (rows, "match_length")
    return [[Fraction(p) for p in row] for row in probs], key


def rational_moments(mdp: TokenMdp, pi, mu, n_list: Sequence[int]) -> RationalMoments:
    """The population moments of Z, both returns, and eps and dtv_max as
    ``policy_gap`` defines them, in exact rationals, by brute force over every
    trajectory and every state, for rows ``pi`` and ``mu`` given as
    ``PolicyRows`` under either key, or as match-length ``[k][token]`` rows.

    A prefix's row is walked token by token (:func:`row_id`), and each window
    multiplies the ratios after a token one by one, so nothing is shared
    with the package's step table, row ids, state tables or window kernel.
    """
    (pi, pi_key), (mu, mu_key) = _rational_rows(pi), _rational_rows(mu)
    t_len = mdp.horizon
    mean, second, size = ([Fraction(0)] * len(n_list) for _ in range(3))
    ret_pi = ret_mu = eps = dtv_max = Fraction(0)
    states = itertools.chain.from_iterable(
        itertools.product(range(mdp.vocab_size), repeat=length) for length in range(t_len)
    )
    for state in states:
        p, q = pi[row_id(mdp, pi_key, state)], mu[row_id(mdp, mu_key, state)]
        eps = max([eps] + [abs(a / b - 1) for a, b in zip(p, q) if b])
        dtv_max = max(dtv_max, sum(abs(a - b) for a, b in zip(p, q)) / 2)
    for y in itertools.product(range(mdp.vocab_size), repeat=t_len):
        if not reward(mdp, y):
            continue
        steps = [
            (pi[row_id(mdp, pi_key, y[:t])][token], mu[row_id(mdp, mu_key, y[:t])][token])
            for t, token in enumerate(y)
        ]
        p_pi = math.prod((a for a, _ in steps), start=Fraction(1))
        p_mu = math.prod((b for _, b in steps), start=Fraction(1))
        ret_pi, ret_mu = ret_pi + p_pi, ret_mu + p_mu
        if p_mu == 0:
            continue
        rho = [a / b for a, b in steps]
        for i, n_step in enumerate(n_list):
            terms = [
                (rho[t] - 1) * math.prod(rho[t + 1 : min(t + n_step, t_len)], start=Fraction(1))
                for t in range(t_len)
            ]
            z = sum(terms)
            mean[i] += p_mu * z
            second[i] += p_mu * z * z
            size[i] += p_mu * sum(abs(term) for term in terms) ** 2
    variance = [s - m * m for s, m in zip(second, mean)]
    return RationalMoments(mean, variance, (ret_pi, ret_mu), size, (eps, dtv_max))
