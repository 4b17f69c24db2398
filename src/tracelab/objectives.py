"""Scalar objectives and their gradients.

Population quantities are exact up to float rounding: the return by
backward induction over every state, and the windowed surrogates and their
variance by exhaustive enumeration.  Sampled groups feed the empirical
estimators and the practical clipped/masked objectives.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ZeroSupportError
from .mdp import (
    TokenMdp,
    check_enumeration_cap,
    check_window,
    prefix_match_lengths,
    prefix_state_ids,
    trajectory_chunks,
)
from .policies import (
    PolicyRows,
    TabularSoftmaxPolicy,
    policy_log_matrix,
    policy_prob_table,
    policy_rows,
)
from .weights import (
    MASK_NONE,
    GroupRollout,
    MaskSpec,
    clipped_trace,
    group_log_ratios,
    group_token_mask,
    iter_window_products,
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


class VarianceReport(NamedTuple):
    per_sample: float
    per_group: float


# --- exact population quantities ---------------------------------------------


def exact_return(mdp: TokenMdp, policy) -> float:
    """Expected reward under the policy, by backward induction over every state."""
    return _return_from_table(mdp, policy_prob_table(policy, mdp))


def _return_from_table(mdp: TokenMdp, probs: np.ndarray, matched=None) -> float:
    """:func:`exact_return` from a state-indexed probability table.

    A state one token short of the horizon is worth the probability of its
    rewarded next tokens.  Every shorter state is worth the probability-
    weighted value of its |vocab| children, which are consecutive states one
    level down, so each level is one row-wise dot.  ``matched`` is
    ``prefix_match_lengths(mdp, mdp.target)`` when the caller has it.
    """
    check_enumeration_cap(mdp, mdp.n_trajectories)
    if matched is None:
        matched = prefix_match_lengths(mdp, mdp.target)
    v, n = mdp.vocab_size, len(mdp.target)
    first = mdp.n_prefixes - v ** (mdp.horizon - 1)
    matched, last = matched[first:], probs[first:]
    value = np.where(matched == n, last.sum(axis=1), 0.0)
    value += np.where(matched == n - 1, last[:, mdp.target[-1]], 0.0)
    for t in range(mdp.horizon - 2, -1, -1):
        first -= v**t
        value = np.einsum("ij,ij->i", probs[first : first + v**t], value.reshape(-1, v))
    return float(value[0])


def performance_difference_direct(mdp: TokenMdp, pi, mu) -> float:
    """Expected-reward gap computed from the two returns separately."""
    return exact_return(mdp, pi) - exact_return(mdp, mu)


def _windowed_statistics(rewards, log_r: np.ndarray, n_list: Sequence[int]) -> Iterator[np.ndarray]:
    """Z = R * sum_t (rho_t - 1) * (product of the next N-1 ratios), along
    the last axis, for each window N in ``n_list``."""
    deviation = np.exp(log_r) - 1.0
    for gamma in iter_window_products(log_r, n_list):
        gamma *= deviation
        yield rewards * gamma.sum(axis=-1)


class PopulationMoments(NamedTuple):
    """Per-window mean and variance of Z under mu."""

    mean: np.ndarray
    variance: np.ndarray


def population_moments(
    mdp: TokenMdp,
    pi,
    mu,
    n_list: Sequence[int],
    require_full_support: bool = True,
) -> PopulationMoments:
    """Mean and variance of Z for each window in ``n_list``, in one pass.

    Z vanishes where R(y) = 0, so each chunk keeps only the rewarded
    trajectories mu can generate.  Every window comes from one suffix sum of
    the log ratios.
    """
    check_enumeration_cap(mdp, mdp.n_trajectories)
    for n_step in n_list:
        check_window(mdp.horizon, n_step)
    log_pi = policy_log_matrix(pi, mdp)
    log_mu = policy_log_matrix(mu, mdp)
    if require_full_support and np.isneginf(log_mu).any():
        raise ZeroSupportError("rollout policy must have full support for exact identities")
    totals = np.zeros((len(n_list), 2))
    for chunk in trajectory_chunks(mdp):
        totals += _chunk_moments(mdp, log_pi, log_mu, *chunk, n_list)
        del chunk  # free this chunk before the next one is built
    mean, second = totals.T
    return PopulationMoments(mean, np.maximum(second - mean * mean, 0.0))


def _chunk_moments(mdp: TokenMdp, log_pi, log_mu, tokens, rewards, n_list) -> np.ndarray:
    """One chunk's sums (E[Z], E[Z^2]), one row per window."""
    hit = np.flatnonzero(rewards)
    tokens = tokens[hit]
    at = (prefix_state_ids(mdp, tokens), tokens)
    rewards, log_r, token_log_mu = rewards[hit], log_pi[at], log_mu[at]
    del at, tokens
    log_weight = token_log_mu.sum(axis=1)
    keep = ~np.isneginf(log_weight)
    if not keep.all():
        rewards, log_r, token_log_mu = rewards[keep], log_r[keep], token_log_mu[keep]
    log_r -= token_log_mu
    del token_log_mu
    weights = np.exp(log_weight[keep])
    stats = [(weights @ z, weights @ (z * z)) for z in _windowed_statistics(rewards, log_r, n_list)]
    return np.reshape(stats, (-1, 2))


def n_step_surrogate_population(mdp: TokenMdp, pi, mu, n_step: int) -> float:
    """Exact windowed surrogate; the local surrogate at n_step=1 and the
    full performance difference at n_step=horizon."""
    return float(population_moments(mdp, pi, mu, [n_step]).mean[0])


def performance_difference_trace(mdp: TokenMdp, pi, mu) -> float:
    """Expected-reward gap through the forward-trace identity.

    Agreement with :func:`performance_difference_direct` is the exact
    telescoping identity, verified by the test suite on every enumerable
    configuration.
    """
    return float(population_moments(mdp, pi, mu, [mdp.horizon]).mean[0])


def variance_of_statistic(
    mdp: TokenMdp, pi, mu, n_step: int, group_size: int = 1
) -> VarianceReport:
    """Exact variance of the per-sample statistic, and its mean-of-G scaling."""
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    moments = population_moments(mdp, pi, mu, [n_step], require_full_support=False)
    per_sample = float(moments.variance[0])
    return VarianceReport(per_sample=per_sample, per_group=per_sample / group_size)


# --- empirical estimators ------------------------------------------------------


def n_step_surrogate_empirical(group: GroupRollout, pi, mu, n_step: int) -> float:
    """Group mean of the per-sample statistic; unbiased for the population value."""
    return _empirical_surrogate(
        group, policy_rows(pi, group.mdp), policy_rows(mu, group.mdp), n_step
    )


def _empirical_surrogate(group: GroupRollout, pi_rows, mu_rows, n_step: int) -> float:
    """:func:`n_step_surrogate_empirical` from the two policies' rows."""
    check_window(group.mdp.horizon, n_step)
    log_r = group_log_ratios(group, pi_rows, mu_rows)
    (z,) = _windowed_statistics(group.rewards, log_r, [n_step])
    return float(group.weights @ z)


# --- practical objectives ------------------------------------------------------


def _token_terms(
    group: GroupRollout, pi_rows: PolicyRows, mu_rows: PolicyRows, spec: ObjectiveSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Per-token objective terms and frozen gradient coefficients, both [G, T].

    nfpo and mpg weigh each token by A * keep * trace * rho (trace = 1 for
    mpg); ppo takes the pessimistic min of the raw and clipped ratio.  The
    mask, the clipped trace and ppo's active branch are frozen at the
    evaluation point, so with coefficient c = w * A * keep * trace * rho a
    token's term has d/d logit(s, b) = c * (1{b = token} - pi(b | s)).
    """
    rho = np.exp(group_log_ratios(group, pi_rows, mu_rows))
    adv = group.advantages[:, None]
    trace = 1.0
    if spec.kind == "ppo":
        clipped = np.clip(rho, 1.0 - spec.eps_low, 1.0 + spec.eps_high)
        terms = np.minimum(rho * adv, clipped * adv)
        keep = rho * adv <= clipped * adv
    else:
        keep = group_token_mask(spec.mask, group, rho, pi_rows, mu_rows)
        if spec.kind == "nfpo":
            trace = clipped_trace(rho, spec.n_step, spec.beta, spec.eps_low, spec.eps_high)
        terms = keep * adv * rho * trace
    return terms, group.weights[:, None] * adv * keep * trace * rho


def objective_value(group: GroupRollout, pi, mu, spec: ObjectiveSpec) -> ObjectiveValue:
    """The practical objective ``spec`` of a group: nfpo (the masked surrogate
    reweighted by the clipped forward trace), mpg (masked tokens contribute
    nothing) or ppo (the clipped-ratio surrogate with the pessimistic min)."""
    pi_rows, mu_rows = policy_rows(pi, group.mdp), policy_rows(mu, group.mdp)
    terms, _ = _token_terms(group, pi_rows, mu_rows, spec)
    value = float(group.weights @ terms.sum(axis=-1))
    return ObjectiveValue(value=value, kind=spec.kind, params=spec.params())


def objective_gradient(group: GroupRollout, pi, mu, spec: ObjectiveSpec) -> np.ndarray:
    """Analytic gradient w.r.t. the tabular logits, ``[R, vocab]`` like ``pi.logits``;
    rows no kept token touches are zero.  Masks and clipped traces are frozen
    at the evaluation point, so gradient flows only through the token ratio."""
    if not isinstance(pi, TabularSoftmaxPolicy):
        raise TypeError("analytic gradients need a TabularSoftmaxPolicy target")
    pi_rows = policy_rows(pi, group.mdp)
    _, coeffs = _token_terms(group, pi_rows, policy_rows(mu, group.mdp), spec)
    return _logit_gradient(group, pi, pi_rows, coeffs)


def _logit_gradient(
    group: GroupRollout, pi: TabularSoftmaxPolicy, pi_rows: PolicyRows, coeffs: np.ndarray
) -> np.ndarray:
    """Scatter the frozen coefficients of :func:`_token_terms` into pi's logit rows."""
    hit = coeffs != 0.0
    c = coeffs[hit]
    contrib = -c[:, None] * group.dists(pi_rows)[hit]
    contrib[np.arange(len(c)), group.tokens[hit]] += c
    grad = np.zeros(pi.logits.shape)
    np.add.at(grad, group.row_ids(pi.state_key)[hit], contrib)
    return grad


def gradient_norm(gradient: np.ndarray) -> float:
    """Euclidean norm of a logit gradient, summing the row sums in row order."""
    return float(np.sqrt(sum(np.square(gradient).sum(axis=1).tolist())))
