"""Closed-form improvement-bound components and their Monte Carlo check.

The high-probability lower bound on the true policy improvement assembles
three pieces: the empirical windowed surrogate, a truncation penalty that
shrinks as the window grows, and a concentration penalty that grows with
it.  Everything here is a direct formula; the coverage check verifies the
assembled inequality empirically against enumerated truth.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .mdp import TokenMdp, check_window
from .objectives import _empirical_surrogate, _return_from_table
from .policies import PolicyRows, policy_prob_table, table_ratio_deviation, total_variation
from .policies import d_tv_max  # noqa: F401  (bench/tests/test_tracer.py wraps this binding)
from .weights import GroupRollout, sample_from_table


def s_n(eps: float, horizon: int, n_step: int) -> float:
    """Sum over tokens of (1 + eps) raised to each token's window length."""
    check_window(horizon, n_step)
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    return float(
        sum((1.0 + eps) ** min(n_step - 1, horizon - t) for t in range(1, horizon + 1))
    )


def b_n(xi: float, eps: float, horizon: int, n_step: int) -> float:
    """Worst-case magnitude of the per-sample windowed statistic."""
    if not xi > 0.0:
        raise ValueError("xi must be positive")
    return xi * eps * s_n(eps, horizon, n_step)


def b_n_increment(xi: float, eps: float, horizon: int, n_step: int) -> float:
    """Closed form for b_n(N+1) - b_n(N); strictly positive below the horizon."""
    check_window(horizon, n_step)
    if n_step >= horizon:
        raise ValueError("increment defined for n_step < horizon")
    return xi * eps * eps * (horizon - n_step) * (1.0 + eps) ** (n_step - 1)


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


@dataclass(frozen=True)
class BoundReport:
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

    def to_dict(self) -> dict:
        return asdict(self)


def _policy_gap(
    p_pi, p_mu, eps: float | None = None, dtv_max: float | None = None
) -> tuple[float, float]:
    """eps and dtv_max for a policy pair, read from its two state-indexed tables.

    Each defaults to its exact value.  A supplied ``eps`` smaller than the
    exact ratio-deviation bound would void the hypothesis the bound rests
    on, so it is rejected.
    """
    exact_eps = table_ratio_deviation(p_pi, p_mu)
    if eps is None:
        eps = exact_eps
    elif eps < exact_eps - 1e-12:
        raise ValueError(f"supplied eps {eps} is below the exact ratio-deviation bound {exact_eps}")
    if dtv_max is None:
        dtv_max = float(total_variation(p_mu, p_pi).max())
    # Identical policies deviate by zero; keep the formulas well-defined.
    return max(eps, 1e-12), dtv_max


def _bound_report(
    horizon: int, n_step: int, alpha_conf: float, group_size: int, surrogate: float,
    xi: float, eps: float, dtv_max: float,
) -> BoundReport:
    """The bound terms around a surrogate, for eps and dtv_max from :func:`_policy_gap`."""
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


def theorem_lower_bound(
    group: GroupRollout,
    pi,
    mu,
    n_step: int,
    alpha_conf: float,
    xi: float | None = None,
    eps: float | None = None,
    dtv_max: float | None = None,
) -> BoundReport:
    """Assemble the full lower bound for one sampled group.

    ``eps`` and ``dtv_max`` default to their exact values for the policy
    pair; both, and the surrogate, come from one build of each policy's
    state-indexed table.  A supplied ``eps`` smaller than the exact
    ratio-deviation bound is rejected (see :func:`_policy_gap`).
    """
    mdp = group.mdp
    check_window(mdp.horizon, n_step)
    if xi is None:
        xi = mdp.reward_bound
    if float(np.abs(group.rewards).max(initial=0.0)) > xi + 1e-12:
        raise ValueError("group contains rewards exceeding the bound xi")
    p_pi, p_mu = policy_prob_table(pi, mdp), policy_prob_table(mu, mdp)
    surrogate = _empirical_surrogate(group, PolicyRows(p_pi), PolicyRows(p_mu), n_step)
    eps, dtv_max = _policy_gap(p_pi, p_mu, eps, dtv_max)
    return _bound_report(
        mdp.horizon, n_step, alpha_conf, group.group_size, surrogate, xi, eps, dtv_max
    )


def verify_coverage(
    mdp: TokenMdp,
    pi,
    mu,
    n_step: int,
    group_size: int,
    alpha_conf: float,
    trials: int,
    seed: int = 0,
) -> float:
    """Fraction of independent groups whose bound the true improvement beats.

    The two policy tables are built once; the truth, eps and dtv_max all
    come from them, so each trial only samples a fresh group from mu's
    table and evaluates its empirical surrogate.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p_pi, p_mu = policy_prob_table(pi, mdp), policy_prob_table(mu, mdp)
    truth = _return_from_table(mdp, p_pi) - _return_from_table(mdp, p_mu)
    report = _bound_report(
        mdp.horizon, n_step, alpha_conf, group_size, 0.0, mdp.reward_bound, *_policy_gap(p_pi, p_mu)
    )
    rng = np.random.default_rng(seed)
    pi_rows, mu_rows = PolicyRows(p_pi), PolicyRows(p_mu)
    hits = 0
    for _ in range(trials):
        group = sample_from_table(mdp, mu_rows, group_size, rng)
        surrogate = _empirical_surrogate(group, pi_rows, mu_rows, n_step)
        if truth >= surrogate - report.truncation_bias - report.hoeffding:
            hits += 1
    return hits / trials
