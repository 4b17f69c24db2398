"""Scalar objectives and their gradients, one public entry per quantity.

Population quantities are exact up to float rounding.  :func:`exact_return`
is the return, by backward induction over every state; the exact improvement
of pi over mu is the difference of two returns.  :func:`population_moments`
gives the windowed surrogates (its means: the local surrogate at N = 1, the
improvement at N = T) and their variance, by exhaustive enumeration, or for
two match-length policies by a forward pass over (t, k).  Sampled groups feed
the empirical estimator :func:`n_step_surrogate_empirical` and the practical
clipped/masked objective with its gradient, :func:`objective_gradient`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ZeroSupportError
from .mdp import (
    _CHUNK,
    ENUMERATION,
    TokenMdp,
    check_enumeration_cap,
    check_window,
    prefix_row_ids,
    reached_rows,
    trajectory_chunks,
)
from .policies import PolicyRows, policy_log_matrix, policy_rows
from .weights import (
    MASK_NONE,
    GroupRollout,
    MaskSpec,
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

    def trace(self, ratios) -> np.ndarray:
        """The clipped forward trace along the last axis: the window product of
        the ratios clipped to [1/beta, beta], then clipped to
        [1 - eps_low, 1 + eps_high]."""
        check_window(np.shape(ratios)[-1], self.n_step)
        log_clipped = np.log(np.clip(ratios, 1.0 / self.beta, self.beta))
        window = next(iter_window_products(log_clipped, [self.n_step]))
        return np.clip(window, 1.0 - self.eps_low, 1.0 + self.eps_high)


# --- exact population quantities ---------------------------------------------


def exact_return(mdp: TokenMdp, policy) -> float:
    """Expected reward under a policy, by backward induction over its own rows.

    A state one token short of the horizon is worth the probability of its
    rewarded next tokens; every shorter state is worth the probability-
    weighted value of its |vocab| children, so each level is one row-wise
    dot.  Prefix rows walk the prefix tree, whose children are consecutive
    states one level down, with the matched leaves read from
    ``mdp.matched_leaves``.  Match-length rows walk the (t, k) chain: a
    state's value depends only on its level t and matched length
    k <= min(|target|, t), and the children of k are k and k + 1.
    """
    probs, key = policy_rows(policy, mdp)
    v, n = mdp.vocab_size, len(mdp.target)
    if key == "match_length":
        ks = np.arange(reached_rows(mdp, key))
        value = _leaf_values(mdp, probs[: len(ks)], ks[ks == n], ks[ks == n - 1])
        for t in range(mdp.horizon - 2, -1, -1):
            m = min(n, t) + 1
            value = np.einsum("ij,ij->i", probs[:m], value[mdp.step_table[:m]])
        return float(value[0])
    first = mdp.n_prefixes - v ** (mdp.horizon - 1)
    value = _leaf_values(mdp, probs[first:], *mdp.matched_leaves)
    for t in range(mdp.horizon - 2, -1, -1):
        first -= v**t
        value = np.einsum("ij,ij->i", probs[first : first + v**t], value.reshape(-1, v))
    return float(value[0])


def _leaf_values(mdp: TokenMdp, last: np.ndarray, done: np.ndarray, near: np.ndarray) -> np.ndarray:
    """Value of the states one token short of the horizon, with rows ``last``:
    the row sum at the ids ``done``, where the target is matched, the target's
    last token at the ids ``near``, where it is one short, and 0 at every other
    state, whose row is never read."""
    value = np.zeros(len(last))
    value[done] = last[done].sum(axis=1)
    value[near] = last[near, mdp.target[-1]]
    return value


def _windowed_statistics(rewards, log_r: np.ndarray, n_list: Sequence[int]) -> Iterator[np.ndarray]:
    """Z = R * sum_t (rho_t - 1) * (product of the next N-1 ratios), along
    the last axis, for each window N in ``n_list``."""
    deviation = np.exp(log_r) - 1.0
    for gamma in iter_window_products(log_r, n_list):
        gamma *= deviation
        z = rewards * gamma.sum(axis=-1)
        del gamma  # free this window before the next one is built
        yield z


class PopulationMoments(NamedTuple):
    """Per-window mean and variance of Z under mu."""

    mean: np.ndarray
    variance: np.ndarray


def population_moments(mdp: TokenMdp, pi, mu, n_list: Sequence[int]) -> PopulationMoments:
    """Mean and variance of Z for each window in ``n_list``, in one pass.

    Two match-length policies over more trajectories than one enumeration
    chunk take the forward pass over (t, k) of :func:`_match_length_moments`,
    which enumerates nothing and is held to the enumeration cap by the cells
    of its largest grid.  Every other pair enumerates
    (:func:`_enumerated_moments`), held to the cap by its trajectory count.
    A mu that gives zero probability to a token at a reached row is refused
    with ``ZeroSupportError``, and a mean or variance that overflows a float
    with a ``ValueError`` naming its window.
    """
    pi_rows, mu_rows = policy_rows(pi, mdp), policy_rows(mu, mdp)
    by_match_length = pi_rows.key == mu_rows.key == "match_length" and mdp.n_trajectories > _CHUNK
    if not by_match_length:
        check_enumeration_cap(mdp, mdp.n_trajectories, ENUMERATION)
    for n_step in n_list:
        check_window(mdp.horizon, n_step)
    if (mu_rows.probs[: reached_rows(mdp, mu_rows.key)] == 0).any():
        raise ZeroSupportError("rollout policy must have full support for exact identities")
    with np.errstate(over="ignore", invalid="ignore"):
        if by_match_length:
            moments = _match_length_moments(mdp, pi_rows.probs, mu_rows.probs, n_list)
        else:
            moments = _enumerated_moments(mdp, pi_rows, mu_rows, n_list)
    finite = np.isfinite(moments.mean) & np.isfinite(moments.variance)
    if not finite.all():
        n_step = list(n_list)[int(np.argmin(finite))]
        raise ValueError(f"the moments of Z overflow a float at N = {n_step}")
    return moments


def _moments(mean: np.ndarray, second: np.ndarray) -> PopulationMoments:
    """The moments from E[Z] and E[Z^2], the variance floored at 0 against rounding."""
    return PopulationMoments(mean, np.maximum(second - mean * mean, 0.0))


def _enumerated_moments(
    mdp: TokenMdp, pi_rows: PolicyRows, mu_rows: PolicyRows, n_list: Sequence[int]
) -> PopulationMoments:
    """The moments by enumeration, from the log of each policy's rows.

    Z vanishes where R(y) = 0, so each chunk keeps only the rewarded
    trajectories.  Log ratios are gathered from each policy's own rows, and
    every window comes from one suffix sum of them.
    """
    logs = [(policy_log_matrix(rows), rows.key) for rows in (pi_rows, mu_rows)]
    totals = np.zeros((len(n_list), 2))
    for chunk in trajectory_chunks(mdp):
        totals += _chunk_moments(mdp, logs, *chunk, n_list)
        del chunk  # free this chunk before the next one is built
    return _moments(*totals.T)


def _chunk_moments(mdp: TokenMdp, logs, tokens, rewards, n_list) -> np.ndarray:
    """One chunk's sums (E[Z], E[Z^2]), one row per window, from the log rows
    and key of pi and of mu.  The hit rows stay time-major, and their row ids
    are built once for each distinct key."""
    hit = np.flatnonzero(rewards)
    tokens = np.take(tokens.T, hit, axis=1).T
    ids = {key: prefix_row_ids(mdp, tokens, key) for key in {key for _, key in logs}}
    log_r, token_log_mu = (log[ids[key], tokens] for log, key in logs)
    del ids, tokens
    # Summed along contiguous rows, which numpy adds pairwise, not as a strided running sum.
    weights = np.exp(np.ascontiguousarray(token_log_mu).sum(axis=1))
    log_r -= token_log_mu
    del token_log_mu
    stats = [(weights @ z, weights @ (z * z)) for z in _windowed_statistics(rewards[hit], log_r, n_list)]
    return np.reshape(stats, (-1, 2))


def _match_length_moments(
    mdp: TokenMdp, pi: np.ndarray, mu: np.ndarray, n_list: Sequence[int]
) -> PopulationMoments:
    """The moments for two match-length policies with rows ``pi`` and ``mu``,
    from one forward pass over the tokens; no trajectory is enumerated.

    Z sums one term per token t: rho_t - 1 times the ratios of the next N - 1
    tokens, the term's ages 1 .. N - 1, after which it is closed.  The mu
    weight of a path times one term, or times two, factors over its tokens,
    so each token multiplies a weight over the matched length k by one of six
    [K, K] kernels from ``mdp.step_table``: mu times the factor of each term
    at that token, 1 (not started, or closed), rho (live) or rho - 1
    (starting), i.e. mu times 1, rho, rho - 1, rho^2, rho (rho - 1) or
    (rho - 1)^2.  Only a row no state reaches may have mu = 0; its rho is 0.

    A live term of age a < N has the same value under every window N, so
    the terms still live are shared by all windows: ``live[a]`` for one term
    and ``pairs[a1, a2]`` for two, for ages below max(N).  Each window keeps
    what its closed terms carry: ``closed`` for one term, ``closed_live[a]``
    for a closed term and a live one, and ``both_closed``.  ``unstarted`` is
    the path weight alone.  E[Z] and E[Z^2] are the weights at k = |target|
    after the last token.  Every step and sum is elementwise or runs along
    the ages in order, so a window's moments do not depend on the others.
    The cells the pass holds at once are held to the enumeration cap before
    any grid is built: four grids, ``pairs``, ``closed_live`` (which takes the
    closing pairs in place) and a ``_chain_step`` output and its temporary,
    each at most [max(L, W), L, K] for L = max(N) and W windows; one grid
    more for numpy's iteration buffers and the kernels; and [L + 5 W, K] for
    the rows.  Once a grid outgrows numpy's buffers, that bounds the peak.
    """
    k_len, n_steps = len(mdp.step_table), np.asarray(n_list)
    longest, width = int(n_steps.max()), len(n_steps)
    held = (5 * max(longest, width) * longest + longest + 5 * width) * k_len
    check_enumeration_cap(mdp, held, "the (t, k) pass (cells held at once)")
    rho = np.divide(pi, mu, out=np.zeros_like(pi), where=mu > 0)
    dev = rho - 1.0
    factors = mu * np.stack([np.ones_like(rho), rho, dev, rho * rho, rho * dev, dev * dev])
    moves = mdp.step_table > np.arange(k_len)[:, None]  # a token keeps k or moves it to k + 1
    stay, advance = (np.where(moves == step, factors, 0.0).sum(axis=-1) for step in (False, True))
    k_mu, k_rho, k_dev, k_rho2, k_rho_dev, k_dev2 = np.stack([stay, advance], axis=1)

    last, windows = n_steps - 1, np.arange(width)  # a term closes after age N - 1
    open_ages = (np.arange(longest) < n_steps[:, None])[..., None]
    unstarted = np.eye(1, k_len)[0]
    live = np.zeros((longest, k_len))
    pairs = np.zeros(live.shape[:1] + live.shape)
    closed, both_closed = np.zeros((2, width, k_len))
    closed_live = np.zeros(closed.shape[:1] + live.shape)
    for _ in range(mdp.horizon):  # every right-hand side is read before its row is written
        closing, closed_live_last = closed + live[last], closed_live[windows, last]
        closed_live += pairs[last]  # the closing pairs, in place: add those whose first term closes now
        both_closed = _chain_step(both_closed + closed_live[windows, last] + closed_live_last, k_mu)
        closed_live[:, 1:] = _chain_step(closed_live[:, :-1], k_rho)
        closed_live[:, 0] = _chain_step(closing, k_dev)
        closed_live *= open_ages
        closed = _chain_step(closing, k_mu)
        pairs[1:, 1:] = _chain_step(pairs[:-1, :-1], k_rho2)
        pairs[0, 1:] = pairs[1:, 0] = _chain_step(live[:-1], k_rho_dev)
        pairs[0, 0] = _chain_step(unstarted, k_dev2)
        live[1:] = _chain_step(live[:-1], k_rho)
        live[0] = _chain_step(unstarted, k_dev)
        unstarted = _chain_step(unstarted, k_mu)
    n = len(mdp.target)
    mean = live[:, n].cumsum()[last] + closed[:, n]
    live_pairs = pairs[:, :, n].cumsum(axis=0).cumsum(axis=1)[last, last]
    closed_live_pairs = closed_live[:, :, n].cumsum(axis=1)[windows, last]
    return _moments(mean, live_pairs + 2.0 * closed_live_pairs + both_closed[:, n])


def _chain_step(weights: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """``weights @`` the [K, K] kernel whose diagonal is ``kernel[0]`` (the
    token keeps k) and whose superdiagonal is ``kernel[1][:-1]`` (it moves k to
    k + 1), along the last axis, elementwise."""
    out = weights * kernel[0]
    out[..., 1:] += weights[..., :-1] * kernel[1][:-1]
    return out


# --- empirical estimators ------------------------------------------------------


def n_step_surrogate_empirical(group: GroupRollout, pi, n_step: int) -> float:
    """Group mean of the per-sample statistic, with ratios over the group's
    rollout policy; unbiased for the population value."""
    check_window(group.mdp.horizon, n_step)
    log_r = group_log_ratios(group, policy_rows(pi, group.mdp))
    (z,) = _windowed_statistics(group.rewards, log_r, [n_step])
    return float(group.weights @ z)


# --- practical objectives ------------------------------------------------------


def _token_terms(group: GroupRollout, pi_rows: PolicyRows, spec: ObjectiveSpec) -> tuple[float, np.ndarray]:
    """The group's objective value and the frozen gradient coefficients, [G, T].

    nfpo and mpg weigh each token by A * keep * trace * rho (trace = 1 for
    mpg); ppo takes the pessimistic min of the raw and clipped ratio.  The
    mask, the clipped trace and ppo's active branch are frozen at the
    evaluation point, so with coefficient c = w * A * keep * trace * rho a
    token's term has d/d logit(s, b) = c * (1{b = token} - pi(b | s)).
    """
    rho = np.exp(group_log_ratios(group, pi_rows))
    adv = group.advantages[:, None]
    trace = 1.0
    if spec.kind == "ppo":
        clipped = np.clip(rho, 1.0 - spec.eps_low, 1.0 + spec.eps_high)
        terms = np.minimum(rho * adv, clipped * adv)
        keep = rho * adv <= clipped * adv
    else:
        keep = group_token_mask(spec.mask, group, rho, pi_rows)
        if spec.kind == "nfpo":
            trace = spec.trace(rho)
        terms = keep * adv * rho * trace
    value = float(group.weights @ terms.sum(axis=-1))
    return value, group.weights[:, None] * adv * keep * trace * rho


class RowGradient(NamedTuple):
    """A logit gradient on the rows it touches: ``values[i]`` is the gradient of
    row ``rows[i]``, ``rows`` is sorted and unique, and every other row is zero."""

    rows: np.ndarray
    values: np.ndarray


def objective_gradient(group: GroupRollout, pi, spec: ObjectiveSpec) -> tuple[float, RowGradient]:
    """The practical objective ``spec`` of a group, with ratios over the group's
    rollout policy, and its gradient w.r.t. the logits of pi's rows, from one
    pass of :func:`_token_terms`.

    The objective is nfpo (the masked surrogate reweighted by the clipped
    forward trace), mpg (masked tokens contribute nothing) or ppo (the
    clipped-ratio surrogate with the pessimistic min).  Masks and clipped
    traces are frozen at the evaluation point, so gradient flows only through
    the token ratio.  The gradient is on the rows that a token with a non-zero
    coefficient touches, each row summed in token order.
    """
    pi_rows = policy_rows(pi, group.mdp)
    value, coeffs = _token_terms(group, pi_rows, spec)
    hit = coeffs != 0.0
    c = coeffs[hit]
    ids = group.row_ids(pi_rows.key)[hit]
    touched = np.zeros(len(pi_rows.probs), dtype=bool)
    touched[ids] = True
    rows = touched.nonzero()[0]
    contrib = -c[:, None] * pi_rows.probs.take(ids, axis=0)
    contrib[np.arange(len(c)), group.tokens[hit]] += c
    values = np.zeros((len(rows), pi_rows.probs.shape[1]))
    np.add.at(values, rows.searchsorted(ids), contrib)
    return value, RowGradient(rows, values)


def gradient_norm(gradient: RowGradient) -> float:
    """Euclidean norm of a logit gradient, summing the row sums in row order."""
    return float(np.sqrt(sum(np.square(gradient.values).sum(axis=1).tolist())))
