"""Experiment drivers: the bias/variance sweep across window sizes,
full-batch tabular training, and learning-dynamics metrics."""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .bounds import bound_report
from .errors import TrainingDivergedError
from .mdp import TokenMdp
from .objectives import ObjectiveSpec, exact_return, gradient_norm, objective_gradient, population_moments
from .policies import PolicyRows, TabularSoftmaxPolicy, policy_gap, policy_rows, total_variation
from .policies import d_tv_max  # noqa: F401  (bench/tests/test_tracer.py wraps this binding)
from .weights import sample_from_table


class SweepRow(NamedTuple):
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
    induction), eps and dtv_max from each policy's own rows."""
    pi_rows, mu_rows = policy_rows(pi, mdp), policy_rows(mu, mdp)
    moments = population_moments(mdp, pi_rows, mu_rows, n_list)
    improvement = exact_return(mdp, pi_rows) - exact_return(mdp, mu_rows)
    gap = policy_gap(mdp, pi_rows, mu_rows)
    rows = []
    for n_step, surrogate, var in zip(n_list, moments.mean.tolist(), moments.variance.tolist()):
        report = bound_report(mdp, n_step, alpha_conf, group_size, surrogate, *gap)
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


class TrainRecord(NamedTuple):
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

    The run reads pi's own rows once; each step writes in the rows that
    ``apply_gradient`` returns for the rows it moved, and the rollout snapshot
    is a frozen copy of the rows taken at the refresh.  ``dtv_max`` reads the
    rows moved since the refresh, since every other row has a TV of exactly 0.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if rollout_refresh < 1:
        raise ValueError("rollout_refresh must be >= 1")
    rng = np.random.default_rng(seed)
    records: list[TrainRecord] = []
    pi_rows = policy_rows(pi, mdp)
    for step in range(steps):
        if step % rollout_refresh == 0:
            mu_rows = PolicyRows(pi_rows.probs.copy(), pi_rows.key)
            mu_rows.probs.flags.writeable = False
            moved = np.zeros(len(pi_rows.probs), dtype=bool)
            group = sample_from_table(mdp, mu_rows, group_size, rng)
        value, gradient = objective_gradient(group, pi_rows, objective_spec)
        if not math.isfinite(value):
            raise TrainingDivergedError(f"objective became {value} at step {step}")
        pi_rows.probs[gradient.rows] = pi.apply_gradient(gradient, learning_rate)
        moved[gradient.rows] = True
        ids = moved.nonzero()[0]
        tv = total_variation(mu_rows.probs.take(ids, axis=0), pi_rows.probs.take(ids, axis=0))
        dtv_max = float(tv.max(initial=0.0))
        exact = exact_return(mdp, pi_rows)
        records.append(TrainRecord(step, value, exact, dtv_max, gradient_norm(gradient)))
    return records


class DynamicsReport(NamedTuple):
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


def dynamics_report(rho: np.ndarray, spec: ObjectiveSpec) -> DynamicsReport:
    """Correction-strength / switch-frequency metrics pooled over the tokens
    of a [G, T] array of token ratios, one row per rollout, with the clipped
    trace of ``spec``."""
    rho = np.asarray(rho, dtype=float)
    if rho.ndim != 2 or len(rho) < 1:
        raise ValueError("dynamics_report needs a [G, T] ratio array with G >= 1")
    clipped = spec.trace(rho)
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

