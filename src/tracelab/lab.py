"""Experiment drivers: the bias/variance sweep across window sizes,
full-batch tabular training, and learning-dynamics metrics."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .bounds import _bound_report, _policy_gap
from .errors import TrainingDivergedError
from .mdp import TokenMdp, prefix_match_lengths
from .objectives import (
    ObjectiveSpec,
    _logit_gradient,
    _return_from_table,
    _token_terms,
    gradient_norm,
    population_moments,
)
from .policies import PolicyRows, TabularSoftmaxPolicy, policy_prob_table, total_variation
from .policies import d_tv_max  # noqa: F401  (bench/tests/test_tracer.py wraps this binding)
from .weights import clipped_trace, sample_from_table


@dataclass(frozen=True)
class SweepRow:
    """One window size of the bias/variance sweep."""

    n_step: int
    population_surrogate: float
    exact_improvement: float
    abs_bias: float
    per_sample_variance: float
    bound_truncation: float
    b_n: float
    hoeffding: float


def bias_variance_sweep(
    mdp: TokenMdp,
    pi,
    mu,
    n_list: Sequence[int],
    group_size: int,
    alpha_conf: float,
) -> list[SweepRow]:
    """Exact surrogate, bias, variance, and bound terms for each window size:
    the surrogates from one enumeration pass, and the improvement (by backward
    induction), eps and dtv_max from one build of each policy's table."""
    moments = population_moments(mdp, pi, mu, n_list)
    p_pi, p_mu = policy_prob_table(pi, mdp), policy_prob_table(mu, mdp)
    improvement = _return_from_table(mdp, p_pi) - _return_from_table(mdp, p_mu)
    gap = _policy_gap(p_pi, p_mu)
    rows = []
    for n_step, surrogate, var in zip(n_list, moments.mean.tolist(), moments.variance.tolist()):
        report = _bound_report(
            mdp.horizon, n_step, alpha_conf, group_size, surrogate, mdp.reward_bound, *gap
        )
        rows.append(
            SweepRow(
                n_step=n_step,
                population_surrogate=surrogate,
                exact_improvement=improvement,
                abs_bias=abs(improvement - surrogate),
                per_sample_variance=var,
                bound_truncation=report.truncation_bias,
                b_n=report.b_n,
                hoeffding=report.hoeffding,
            )
        )
    return rows


@dataclass(frozen=True)
class TrainRecord:
    """Telemetry for one gradient-ascent step (post-update policy)."""

    step: int
    objective: float
    exact_return: float
    dtv_max: float
    grad_norm: float


def train(
    mdp: TokenMdp,
    pi: TabularSoftmaxPolicy,
    objective_spec: ObjectiveSpec,
    steps: int,
    learning_rate: float,
    group_size: int,
    seed: int,
    rollout_refresh: int = 1,
) -> list[TrainRecord]:
    """Full-batch gradient ascent on the chosen objective.

    Every ``rollout_refresh`` steps the rollout policy is re-snapshotted
    from the current target policy and a fresh group is sampled; between
    refreshes the same rollouts are re-weighted as the target moves, which
    is what makes the forward traces non-trivial.  The whole run is a pure
    function of its arguments: one seed, one record stream.

    The step works on state-indexed tables: pi's table is built once per
    step and serves the update, the records and the next step; the rollout
    snapshot is that table, frozen at the refresh.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if rollout_refresh < 1:
        raise ValueError("rollout_refresh must be >= 1")
    rng = np.random.default_rng(seed)
    records: list[TrainRecord] = []
    matched = prefix_match_lengths(mdp, mdp.target)
    p_pi = policy_prob_table(pi, mdp)
    for step in range(steps):
        if step % rollout_refresh == 0:
            p_mu = p_pi
            p_mu.flags.writeable = False
            group = sample_from_table(mdp, PolicyRows(p_mu), group_size, rng)
        pi_rows = PolicyRows(p_pi)
        terms, coeffs = _token_terms(group, pi_rows, PolicyRows(p_mu), objective_spec)
        value = float(group.weights @ terms.sum(axis=-1))
        if not math.isfinite(value):
            raise TrainingDivergedError(f"objective became {value} at step {step}")
        gradient = _logit_gradient(group, pi, pi_rows, coeffs)
        pi.apply_gradient(gradient, learning_rate)
        p_pi = policy_prob_table(pi, mdp)
        records.append(
            TrainRecord(
                step=step,
                objective=value,
                exact_return=_return_from_table(mdp, p_pi, matched),
                dtv_max=float(total_variation(p_mu, p_pi).max()),
                grad_norm=gradient_norm(gradient),
            )
        )
    return records


@dataclass(frozen=True)
class DynamicsReport:
    """Pooled token-weighting statistics for a batch of rollouts.

    Correction strength is the mean absolute deviation of a weighting
    signal from 1; switch frequency is the fraction of adjacent token pairs
    whose signals sit on opposite sides of 1 (exactly 1 counts as neither
    side).
    """

    correction_strength_rho: float
    correction_strength_trace: float
    switch_freq_rho: float
    switch_freq_trace: float
    trace_variance: float

    def to_dict(self) -> dict:
        return asdict(self)


def switch_count(signal: np.ndarray) -> int:
    """Adjacent pairs strictly straddling the neutral value 1, summed over
    every row of the last axis."""
    deviations = np.asarray(signal, dtype=float) - 1.0
    return int(np.sum(deviations[..., :-1] * deviations[..., 1:] < 0.0))


def switch_frequency(signal: Sequence[float]) -> float:
    """Share of adjacent pairs that switch, pooled over every row of the last axis."""
    signal = np.asarray(signal, dtype=float)
    if signal.shape[-1] < 2:
        raise ValueError("switch frequency needs at least 2 tokens")
    return switch_count(signal) / (signal.size - signal.size // signal.shape[-1])


def dynamics_report(
    rho: np.ndarray, n_step: int, beta: float, eps_low: float, eps_high: float
) -> DynamicsReport:
    """Correction-strength / switch-frequency metrics pooled over the tokens
    of a [G, T] array of token ratios, one row per rollout."""
    rho = np.asarray(rho, dtype=float)
    if rho.ndim != 2 or len(rho) < 1:
        raise ValueError("dynamics_report needs a [G, T] ratio array with G >= 1")
    clipped = clipped_trace(rho, n_step, beta, eps_low, eps_high)
    corrected = rho * clipped
    # Pooled over the flattened tokens: 2-D reductions sum in another order.
    return DynamicsReport(
        correction_strength_rho=float(np.abs(rho - 1.0).ravel().mean()),
        correction_strength_trace=float(np.abs(corrected - 1.0).ravel().mean()),
        switch_freq_rho=switch_frequency(rho),
        switch_freq_trace=switch_frequency(corrected),
        trace_variance=float(clipped.ravel().var(ddof=1)),
    )


def alternating_profile(amplitude: float, length: int = 50) -> np.ndarray:
    """Ratio profile oscillating between 1 + a and 1 - a every token."""
    if not 0.0 < amplitude < 0.5:
        raise ValueError("amplitude must lie in (0, 0.5)")
    if length < 2:
        raise ValueError("length must be >= 2")
    profile = np.where(np.arange(length) % 2 == 0, 1.0 + amplitude, 1.0 - amplitude)
    return profile.astype(float)


def smoothing_demo(
    oscillation_profile: Sequence[float],
    n_step: int,
    beta: float = 3.0,
    eps_low: float = 0.2,
    eps_high: float = 0.4,
) -> tuple[float, float]:
    """Switch frequency of a ratio profile before and after trace correction."""
    rho = np.asarray(oscillation_profile, dtype=float)
    if np.any(rho <= 0):
        raise ValueError("ratios must be positive")
    clipped = clipped_trace(rho, n_step, beta, eps_low, eps_high)
    return switch_frequency(rho), switch_frequency(rho * clipped)
