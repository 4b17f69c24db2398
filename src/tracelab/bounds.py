"""Closed-form improvement-bound components and their Monte Carlo check.

The high-probability lower bound on the true policy improvement assembles
three pieces: the empirical windowed surrogate, a truncation penalty that
shrinks as the window grows (:func:`truncation_bias_bound`), and a
concentration penalty that grows with it (:func:`s_n`, :func:`b_n`,
:func:`hoeffding_penalty`).  Everything here is a direct formula;
:func:`theorem_lower_bound` assembles the inequality for one sampled group,
and :func:`verify_coverage` checks it empirically against enumerated truth.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .mdp import TokenMdp, check_window
from .objectives import exact_return, n_step_surrogate_empirical
from .policies import policy_gap, policy_rows
from .policies import d_tv_max  # noqa: F401  (bench/tests/test_tracer.py wraps this binding)
from .weights import GroupRollout, sample_from_table


def _finite(name: str, eps: float, n_step: int, value) -> float:
    """``value()`` as a float, refused by name when it overflows one."""
    try:
        if math.isfinite(result := float(value())):
            return result
    except OverflowError:
        pass
    raise ValueError(f"{name} overflows a float at eps = {eps!r} and N = {n_step}")


def s_n(eps: float, horizon: int, n_step: int) -> float:
    """Sum over tokens of (1 + eps) raised to each token's window length."""
    check_window(horizon, n_step)
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    powers = ((1.0 + eps) ** min(n_step - 1, horizon - t) for t in range(1, horizon + 1))
    return _finite("s_n", eps, n_step, lambda: sum(powers))


def b_n(xi: float, eps: float, horizon: int, n_step: int) -> float:
    """Worst-case magnitude of the per-sample windowed statistic."""
    if not xi > 0.0:
        raise ValueError("xi must be positive")
    return _finite("b_n", eps, n_step, lambda: xi * eps * s_n(eps, horizon, n_step))


def b_n_increment(xi: float, eps: float, horizon: int, n_step: int) -> float:
    """Closed form for b_n(N+1) - b_n(N); strictly positive below the horizon."""
    check_window(horizon, n_step)
    if n_step >= horizon:
        raise ValueError("increment defined for n_step < horizon")
    return _finite(
        "b_n_increment", eps, n_step, lambda: xi * eps * eps * (horizon - n_step) * (1.0 + eps) ** (n_step - 1)
    )


def truncation_bias_bound(xi: float, horizon: int, n_step: int, dtv_max: float) -> float:
    """Penalty for the future ratios the window drops; zero at a full window."""
    check_window(horizon, n_step)
    if not xi > 0.0:
        raise ValueError("xi must be positive")
    if not 0.0 <= dtv_max <= 1.0:
        raise ValueError("dtv_max must lie in [0, 1]")
    gap = horizon - n_step
    return 2.0 * xi * gap * (gap + 1) * dtv_max * dtv_max


def hoeffding_penalty(b_n_value: float, alpha_conf: float, group_size: int) -> float:
    """Concentration slack at confidence 1 - alpha over a G-sample mean."""
    if not 0.0 < alpha_conf < 1.0:
        raise ValueError("alpha_conf must lie in (0, 1)")
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    if not b_n_value >= 0.0:
        raise ValueError("b_n_value must be non-negative")
    return b_n_value * math.sqrt(2.0 * math.log(1.0 / alpha_conf) / group_size)


class BoundReport(NamedTuple):
    """All components of the assembled high-probability lower bound."""

    xi: float
    eps: float
    dtv_max: float
    horizon: int
    n_step: int
    group_size: int
    alpha_conf: float
    empirical_surrogate: float
    truncation_bias: float
    s_n: float
    b_n: float
    hoeffding: float
    lower_bound: float


def bound_report(
    mdp: TokenMdp, n_step: int, alpha_conf: float, group_size: int, surrogate: float,
    eps: float, dtv_max: float,
) -> BoundReport:
    """The bound terms around a surrogate, for xi = ``mdp.reward_bound`` and eps
    and dtv_max from :func:`policy_gap`.  eps is floored at 1e-12: identical
    policies deviate by zero, and the floor keeps the formulas well-defined."""
    xi, horizon, eps = mdp.reward_bound, mdp.horizon, max(eps, 1e-12)
    truncation = truncation_bias_bound(xi, horizon, n_step, dtv_max)
    b_val = b_n(xi, eps, horizon, n_step)
    penalty = hoeffding_penalty(b_val, alpha_conf, group_size)
    return BoundReport(
        xi=xi,
        eps=eps,
        dtv_max=dtv_max,
        horizon=horizon,
        n_step=n_step,
        group_size=group_size,
        alpha_conf=alpha_conf,
        empirical_surrogate=surrogate,
        truncation_bias=truncation,
        s_n=s_n(eps, horizon, n_step),
        b_n=b_val,
        hoeffding=penalty,
        lower_bound=surrogate - truncation - penalty,
    )


def theorem_lower_bound(group: GroupRollout, pi, n_step: int, alpha_conf: float) -> BoundReport:
    """Assemble the full lower bound for one sampled group.

    The hypotheses are the exact ones: xi is ``mdp.reward_bound``, and eps
    and dtv_max are exact for pi and the group's rollout policy; both, and
    the surrogate, are read from pi's rows and the group's rollout rows.
    """
    mdp = group.mdp
    if float(np.abs(group.rewards).max(initial=0.0)) > mdp.reward_bound + 1e-12:
        raise ValueError(f"group contains rewards exceeding the bound xi = {mdp.reward_bound}")
    pi_rows = policy_rows(pi, mdp)
    surrogate = n_step_surrogate_empirical(group, pi_rows, n_step)
    gap = policy_gap(mdp, pi_rows, group.rollout)
    return bound_report(mdp, n_step, alpha_conf, group.group_size, surrogate, *gap)


def verify_coverage(mdp: TokenMdp, pi, mu, report: BoundReport, trials: int, seed: int = 0) -> float:
    """Fraction of independent groups of ``report.group_size`` whose bound, with
    the truncation and Hoeffding terms of ``report``, the true improvement beats.

    The truth comes from each policy's own rows, so each trial only samples a
    fresh group from mu's rows and evaluates its empirical surrogate.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    pi_rows, mu_rows = policy_rows(pi, mdp), policy_rows(mu, mdp)
    truth = exact_return(mdp, pi_rows) - exact_return(mdp, mu_rows)
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(trials):
        group = sample_from_table(mdp, mu_rows, report.group_size, rng)
        surrogate = n_step_surrogate_empirical(group, pi_rows, report.n_step)
        if truth >= surrogate - report.truncation_bias - report.hoeffding:
            hits += 1
    return hits / trials
