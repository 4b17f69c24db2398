"""Scalar objectives and their gradients.

Population quantities (exact return, performance differences, windowed
surrogates and their variance) are computed by exhaustive enumeration, or
for the return by backward induction over every state, so they are exact up
to float rounding.  Sampled groups feed the empirical
estimators and the practical clipped/masked objectives.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import EnumerationCapError, ZeroSupportError
from .mdp import (
    DEFAULT_ENUMERATION_CAP,
    TokenMdp,
    Trajectory,
    check_window,
    prefix_match_lengths,
    prefix_state_ids,
    reward,
    reward_vector,
    trajectory_chunks,
)
from .policies import TabularSoftmaxPolicy, policy_log_matrix, policy_prob_table
from .weights import (
    MASK_NONE,
    GroupRollout,
    MaskSpec,
    clipped_trace,
    group_log_ratios,
    group_token_mask,
    iter_window_products,
    ratios,
)

OBJECTIVE_KINDS = ("nfpo", "mpg", "ppo")


@dataclass(frozen=True)
class ObjectiveSpec:
    """Which practical objective to evaluate, with all of its knobs.

    For ``nfpo``, ``eps_low``/``eps_high`` bound the clipped forward trace
    and ``beta`` clips each token ratio first.  For ``ppo`` they are the
    usual ratio clip band; ``beta`` and ``n_step`` are ignored.  ``mpg``
    uses only the mask.
    """

    kind: str
    n_step: int = 4
    beta: float = 3.0
    eps_low: float = 0.2
    eps_high: float = 0.4
    mask: MaskSpec = MASK_NONE

    def __post_init__(self):
        if self.kind not in OBJECTIVE_KINDS:
            raise ValueError(f"objective kind must be one of {OBJECTIVE_KINDS}")
        if self.n_step < 1:
            raise ValueError("n_step must be >= 1")
        if not self.beta > 1:
            raise ValueError("beta must exceed 1")
        if not 0.0 < self.eps_low < 1.0:
            raise ValueError("eps_low must lie in (0, 1)")
        if not self.eps_high > 0.0:
            raise ValueError("eps_high must be positive")

    def params(self) -> dict:
        return {
            "n_step": self.n_step,
            "beta": self.beta,
            "eps_low": self.eps_low,
            "eps_high": self.eps_high,
            "mask": {k: v for k, v in asdict(self.mask).items() if v is not None},
        }


@dataclass(frozen=True)
class ObjectiveValue:
    value: float
    kind: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PerSampleStat:
    """Single-trajectory windowed-surrogate statistic."""

    z: float
    trajectory: Trajectory


class VarianceReport(NamedTuple):
    per_sample: float
    per_group: float


# --- exact population quantities ---------------------------------------------


def exact_return(mdp: TokenMdp, policy, cap: int = DEFAULT_ENUMERATION_CAP) -> float:
    """Expected reward under the policy, by backward induction over every state."""
    return _return_from_table(mdp, policy_prob_table(policy, mdp, cap), cap)


def _return_from_table(
    mdp: TokenMdp, probs: np.ndarray, cap: int = DEFAULT_ENUMERATION_CAP
) -> float:
    """:func:`exact_return` from a state-indexed probability table.

    A state one token short of the horizon is worth the probability of its
    rewarded next tokens.  Every shorter state is worth the probability-
    weighted value of its |vocab| children, which are consecutive states one
    level down, so each level is one row-wise dot.
    """
    if mdp.n_trajectories > cap:
        raise EnumerationCapError(mdp.n_trajectories, cap)
    v, n = mdp.vocab_size, len(mdp.target)
    first = mdp.n_prefixes - v ** (mdp.horizon - 1)
    matched, last = prefix_match_lengths(mdp, mdp.target, cap)[first:], probs[first:]
    value = np.where(matched == n, last.sum(axis=1), 0.0)
    value += np.where(matched == n - 1, last[:, mdp.target[-1]], 0.0)
    for t in range(mdp.horizon - 2, -1, -1):
        first -= v**t
        value = np.einsum("ij,ij->i", probs[first : first + v**t], value.reshape(-1, v))
    return float(value[0])


def performance_difference_direct(
    mdp: TokenMdp, pi, mu, cap: int = DEFAULT_ENUMERATION_CAP
) -> float:
    """Expected-reward gap computed from the two returns separately."""
    return exact_return(mdp, pi, cap) - exact_return(mdp, mu, cap)


def _windowed_statistics(rewards, log_r: np.ndarray, n_list: Sequence[int]) -> Iterator[np.ndarray]:
    """Z = R * sum_t (rho_t - 1) * (product of the next N-1 ratios), along
    the last axis, for each window N in ``n_list``."""
    deviation = np.exp(log_r) - 1.0
    for gamma in iter_window_products(log_r, n_list):
        gamma *= deviation
        yield rewards * gamma.sum(axis=-1)


class PopulationMoments(NamedTuple):
    """Per-window mean and variance of Z under mu, and both exact returns."""

    mean: np.ndarray
    variance: np.ndarray
    return_pi: float
    return_mu: float


def population_moments(
    mdp: TokenMdp,
    pi,
    mu,
    n_list: Sequence[int],
    cap: int = DEFAULT_ENUMERATION_CAP,
    require_full_support: bool = True,
) -> PopulationMoments:
    """Mean and variance of Z for each window in ``n_list``, and both returns, in one pass.

    Z and the return terms p(y) R(y) vanish where R(y) = 0, so each chunk
    keeps only its rewarded trajectories, and the moments only those mu can
    generate.  Every window comes from one suffix sum of the log ratios.
    """
    for n_step in n_list:
        check_window(mdp.horizon, n_step)
    log_pi = policy_log_matrix(pi, mdp, cap)
    log_mu = policy_log_matrix(mu, mdp, cap)
    if require_full_support and np.isneginf(log_mu).any():
        raise ZeroSupportError("rollout policy must have full support for exact identities")
    totals = np.zeros((len(n_list) + 1, 2))
    for chunk in trajectory_chunks(mdp, cap):
        totals += _chunk_moments(mdp, log_pi, log_mu, *chunk, n_list)
        del chunk  # free this chunk before the next one is built
    mean, second = totals[1:].T
    return PopulationMoments(mean, np.maximum(second - mean * mean, 0.0), *totals[0].tolist())


def _chunk_moments(mdp: TokenMdp, log_pi, log_mu, tokens, rewards, n_list) -> np.ndarray:
    """One chunk's sums: row 0 is (J(pi), J(mu)), then (E[Z], E[Z^2]) per window."""
    hit = np.flatnonzero(rewards)
    tokens = tokens[hit]
    at = (prefix_state_ids(mdp, tokens), tokens)
    rewards, log_r, token_log_mu = rewards[hit], log_pi[at], log_mu[at]
    del at, tokens
    log_weight = token_log_mu.sum(axis=1)
    returns = np.exp([log_r.sum(axis=1), log_weight]) @ rewards
    keep = ~np.isneginf(log_weight)
    if not keep.all():
        rewards, log_r, token_log_mu = rewards[keep], log_r[keep], token_log_mu[keep]
    log_r -= token_log_mu
    del token_log_mu
    weights = np.exp(log_weight[keep])
    stats = [(weights @ z, weights @ (z * z)) for z in _windowed_statistics(rewards, log_r, n_list)]
    return np.vstack([returns, np.reshape(stats, (-1, 2))])


def n_step_surrogate_population(
    mdp: TokenMdp, pi, mu, n_step: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> float:
    """Exact windowed surrogate; the local surrogate at n_step=1 and the
    full performance difference at n_step=horizon."""
    return float(population_moments(mdp, pi, mu, [n_step], cap).mean[0])


def performance_difference_trace(
    mdp: TokenMdp, pi, mu, cap: int = DEFAULT_ENUMERATION_CAP
) -> float:
    """Expected-reward gap through the forward-trace identity.

    Agreement with :func:`performance_difference_direct` is the exact
    telescoping identity, verified by the test suite on every enumerable
    configuration.
    """
    return float(population_moments(mdp, pi, mu, [mdp.horizon], cap).mean[0])


def variance_of_statistic(
    mdp: TokenMdp,
    pi,
    mu,
    n_step: int,
    group_size: int = 1,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> VarianceReport:
    """Exact variance of the per-sample statistic, and its mean-of-G scaling."""
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    moments = population_moments(mdp, pi, mu, [n_step], cap, require_full_support=False)
    per_sample = float(moments.variance[0])
    return VarianceReport(per_sample=per_sample, per_group=per_sample / group_size)


# --- empirical estimators ------------------------------------------------------


def per_sample_statistic(mdp: TokenMdp, y: Sequence[int], pi, mu, n_step: int) -> PerSampleStat:
    """Reward times the window-corrected sum of ratio deviations for one y."""
    y = mdp.check_trajectory(y)
    check_window(mdp.horizon, n_step)
    (z,) = _windowed_statistics(reward(mdp, y), ratios(pi, mu, y).log_ratios, [n_step])
    return PerSampleStat(z=float(z), trajectory=y)


def n_step_surrogate_empirical(group: GroupRollout, pi, mu, n_step: int) -> float:
    """Group mean of the per-sample statistic; unbiased for the population value."""
    p_pi = policy_prob_table(pi, group.mdp)
    return _empirical_surrogate(group, p_pi, policy_prob_table(mu, group.mdp), n_step)


def _empirical_surrogate(group: GroupRollout, p_pi, p_mu, n_step: int) -> float:
    """:func:`n_step_surrogate_empirical` from prebuilt probability tables."""
    check_window(group.mdp.horizon, n_step)
    log_r = group_log_ratios(group, p_pi, p_mu)
    (z,) = _windowed_statistics(reward_vector(group.mdp, group.tokens), log_r, [n_step])
    return float(group.weights @ z)


# --- practical objectives ------------------------------------------------------


def _token_terms(
    group: GroupRollout, p_pi: np.ndarray, p_mu: np.ndarray, spec: ObjectiveSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Per-token objective terms and frozen gradient coefficients, both [G, T].

    nfpo and mpg weigh each token by A * keep * trace * rho (trace = 1 for
    mpg); ppo takes the pessimistic min of the raw and clipped ratio.  The
    mask, the clipped trace and ppo's active branch are frozen at the
    evaluation point, so with coefficient c = w * A * keep * trace * rho a
    token's term has d/d logit(s, b) = c * (1{b = token} - pi(b | s)).
    """
    rho = np.exp(group_log_ratios(group, p_pi, p_mu))
    adv = group.advantages[:, None]
    trace = 1.0
    if spec.kind == "ppo":
        clipped = np.clip(rho, 1.0 - spec.eps_low, 1.0 + spec.eps_high)
        terms = np.minimum(rho * adv, clipped * adv)
        keep = rho * adv <= clipped * adv
    else:
        keep = group_token_mask(spec.mask, group, rho, p_pi, p_mu)
        if spec.kind == "nfpo":
            check_window(group.mdp.horizon, spec.n_step)
            trace = clipped_trace(rho, spec.n_step, spec.beta, spec.eps_low, spec.eps_high)
        terms = keep * adv * rho * trace
    return terms, group.weights[:, None] * adv * keep * trace * rho


def objective_value(group: GroupRollout, pi, mu, spec: ObjectiveSpec) -> ObjectiveValue:
    p_pi, p_mu = policy_prob_table(pi, group.mdp), policy_prob_table(mu, group.mdp)
    terms, _ = _token_terms(group, p_pi, p_mu, spec)
    value = float(group.weights @ terms.sum(axis=-1))
    return ObjectiveValue(value=value, kind=spec.kind, params=spec.params())


def objective_gradient(group: GroupRollout, pi, mu, spec: ObjectiveSpec) -> dict:
    """Analytic gradient w.r.t. the tabular logits, keyed by state; states
    no kept token touches are absent."""
    if not isinstance(pi, TabularSoftmaxPolicy):
        raise TypeError("analytic gradients need a TabularSoftmaxPolicy target")
    p_pi, p_mu = policy_prob_table(pi, group.mdp), policy_prob_table(mu, group.mdp)
    _, coeffs = _token_terms(group, p_pi, p_mu, spec)
    return _logit_gradient(group, pi, p_pi, coeffs)


def _logit_gradient(
    group: GroupRollout, pi: TabularSoftmaxPolicy, p_pi: np.ndarray, coeffs: np.ndarray
) -> dict:
    """Scatter the frozen coefficients of :func:`_token_terms` into pi's
    logit rows, keyed by state."""
    hit = coeffs != 0.0
    states, c = group.state_ids[hit], coeffs[hit]
    contrib = -c[:, None] * p_pi[states]
    contrib[np.arange(len(c)), group.tokens[hit]] += c
    rows = pi.state_rows(group.mdp)[states]
    grad = np.zeros((len(pi.logits), group.mdp.vocab_size))
    np.add.at(grad, rows, contrib)
    keys = list(pi.logits)
    return {keys[r]: grad[r] for r in np.flatnonzero(np.bincount(rows, minlength=len(grad)))}


def ppo_objective(group: GroupRollout, pi, mu, eps_low: float, eps_high: float) -> float:
    """Clipped-ratio surrogate with the usual pessimistic min."""
    spec = ObjectiveSpec("ppo", eps_low=eps_low, eps_high=eps_high)
    return objective_value(group, pi, mu, spec).value


def mpg_objective(group: GroupRollout, pi, mu, mask: MaskSpec) -> float:
    """Masked token-level surrogate: masked tokens contribute exactly nothing."""
    return objective_value(group, pi, mu, ObjectiveSpec("mpg", mask=mask)).value


def nfpo_objective(
    group: GroupRollout,
    pi,
    mu,
    n_step: int,
    beta: float,
    eps_low: float,
    eps_high: float,
    mask: MaskSpec,
) -> float:
    """Masked surrogate reweighted by the clipped forward trace.

    The trace enters as a frozen coefficient: it shapes the value here and
    is held constant by :func:`nfpo_gradient` when differentiating.
    """
    spec = ObjectiveSpec("nfpo", n_step, beta, eps_low, eps_high, mask)
    return objective_value(group, pi, mu, spec).value


def nfpo_gradient(
    group: GroupRollout,
    pi,
    mu,
    n_step: int,
    beta: float,
    eps_low: float,
    eps_high: float,
    mask: MaskSpec,
) -> dict:
    """Analytic gradient with masks and clipped traces frozen at the
    evaluation point; gradient flows only through the token ratio."""
    spec = ObjectiveSpec("nfpo", n_step, beta, eps_low, eps_high, mask)
    return objective_gradient(group, pi, mu, spec)


def gradient_norm(gradient: dict) -> float:
    if not gradient:
        return 0.0
    return float(np.sqrt(sum(float(np.square(g).sum()) for g in gradient.values())))
