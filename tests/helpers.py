"""Shared builders for randomized test configurations, and the per-prefix
oracles: each walks one trajectory prefix by prefix through ``probs``, the
slow path that the row-indexed group kernels are checked against."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from tracelab import GroupRollout, MaskSpec, PolicyRows, TabularSoftmaxPolicy, TargetFollowingPolicy, TokenMdp
from tracelab import ZeroSupportError, match_length, reward
from tracelab.mdp import Trajectory, check_enumeration_cap, check_window, prefix_state_ids
from tracelab.mdp import trajectory_chunks
from tracelab.objectives import _windowed_statistics
from tracelab.policies import kl_divergence, policy_log_matrix, total_variation
from tracelab.weights import _keep, _sampled_group, _suffix_sums, clipped_trace, window_products


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
    for w, adv, y in zip(group.weights, group.advantages, group.trajectories):
        profile = ratios(pi, mu, y)
        trace = traces(profile, n_step, beta, eps_low, eps_high)
        keep = token_mask(mask, profile, float(adv), mu, pi, y)
        coeffs.append(w * adv * keep * trace.clipped)
    return coeffs


def frozen_objective(group, pi, mu, coeffs, minus_one: bool = False) -> float:
    """sum of c_t * rho_t (or c_t * (rho_t - 1)) with the c_t held fixed."""
    total = 0.0
    for coeff, y in zip(coeffs, group.trajectories):
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


# --- per-prefix oracles ------------------------------------------------------


def enumerate_trajectories(mdp: TokenMdp) -> Iterator[Trajectory]:
    """All |vocab|^horizon trajectories, each exactly once, lexicographic."""
    check_enumeration_cap(mdp, mdp.n_trajectories)
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
    if not beta > 1:
        raise ValueError(f"beta must exceed 1, got {beta}")
    if not 0.0 < eps_low < 1.0:
        raise ValueError(f"eps_low must lie in (0, 1), got {eps_low}")
    if not eps_high > 0.0:
        raise ValueError(f"eps_high must be positive, got {eps_high}")

    suffix = _suffix_sums(profile.log_ratios)
    return TraceSet(
        full=np.exp(suffix[1:]),
        n_step=window_products(profile.log_ratios, n_step),
        residual=np.exp(suffix[np.minimum(np.arange(t_len) + n_step, t_len)]),
        clipped_ratio=np.clip(profile.ratios, 1.0 / beta, beta),
        clipped=clipped_trace(profile.ratios, n_step, beta, eps_low, eps_high),
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
    """Binary keep/drop vector for one trajectory's tokens."""
    y = tuple(y)
    measure = state_tv if mask.kind == "tv" else state_kl

    def per_token() -> np.ndarray:
        return np.array([measure(mu, pi, y[:t]) for t in range(len(y))])

    return _keep(mask, profile.ratios, advantage, per_token).astype(np.int64)


def sample_group(
    mdp: TokenMdp, mu, group_size: int, rng: np.random.Generator
) -> GroupRollout:
    """Sample G trajectories from the rollout policy and center their rewards."""
    if group_size < 1:
        raise ValueError(f"group_size must be >= 1, got {group_size}")
    tokens = np.array([sample_trajectory(mdp, mu, rng) for _ in range(group_size)])
    return _sampled_group(mdp, tokens)


def population_group(mdp: TokenMdp, mu) -> GroupRollout:
    """Every trajectory, weighted by its exact rollout probability.

    Batch means over this pseudo-group are population expectations under mu;
    zero-probability trajectories are dropped so ratios stay well-defined.
    """
    log_mu = policy_log_matrix(mu, mdp)
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
    )


@dataclass(frozen=True)
class PerSampleStat:
    """Single-trajectory windowed-surrogate statistic."""

    z: float
    trajectory: Trajectory


def per_sample_statistic(mdp: TokenMdp, y: Sequence[int], pi, mu, n_step: int) -> PerSampleStat:
    """Reward times the window-corrected sum of ratio deviations for one y."""
    y = mdp.check_trajectory(y)
    check_window(mdp.horizon, n_step)
    (z,) = _windowed_statistics(reward(mdp, y), ratios(pi, mu, y).log_ratios, [n_step])
    return PerSampleStat(z=float(z), trajectory=y)


def residual_check(trace_set: TraceSet) -> float:
    """Largest defect of the window/residual factorization of the full trace."""
    return float(
        np.abs(trace_set.full - trace_set.n_step * trace_set.residual).max(initial=0.0)
    )
