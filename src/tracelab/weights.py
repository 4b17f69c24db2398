"""Per-trajectory weighting machinery: likelihood ratios, forward traces,
token masks, and group-centered advantages.

All products are accumulated in log space and exponentiated once, so the
window/residual decomposition stays numerically exact at any horizon.
Index convention: position ``i`` (0-based) holds the quantity attached to
token ``t = i + 1``, e.g. ``full[i]`` is the product of all ratios strictly
after token ``t``.  Window and trace arrays run along the last axis, so one
trajectory ``[T]`` and a whole group ``[G, T]`` share the same code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import ZeroSupportError
from .mdp import (
    TokenMdp,
    Trajectory,
    check_window,
    prefix_state_ids,
    reward_vector,
    sample_trajectory,
    trajectory_chunks,
)
from .policies import kl_divergence, policy_log_matrix, state_kl, state_tv, total_variation


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


def window_products(log_ratios: np.ndarray, n_step: int) -> np.ndarray:
    """For each position i: product of the next min(n_step-1, T-1-i) ratios.

    This is the truncated forward correction attached to token i+1; an
    empty window gives 1.  Works along the last axis and stays exact when
    a ratio is zero (log ratio -inf).
    """
    return next(iter_window_products(log_ratios, [n_step]))


def iter_window_products(log_ratios: np.ndarray, n_steps: Iterable[int]) -> Iterator[np.ndarray]:
    """:func:`window_products` for each window in ``n_steps``, in order.

    Each window is one ``exp`` of the difference of two columns of a shared
    suffix sum, computed in place in a new array the caller may overwrite.
    """
    t_len = log_ratios.shape[-1]
    ends = [np.minimum(np.arange(t_len) + n_step, t_len) for n_step in n_steps]
    if not np.isfinite(log_ratios).all():
        rho = np.exp(log_ratios)
        for end in ends:
            yield np.stack([np.prod(rho[..., i + 1 : e], axis=-1) for i, e in enumerate(end)], -1)
        return
    suffix = _suffix_sums(log_ratios)
    for end in ends:
        out = suffix[..., end]
        np.subtract(suffix[..., 1:], out, out=out)
        yield np.exp(out, out=out)


def _suffix_sums(values: np.ndarray) -> np.ndarray:
    """suffix[..., i] = sum(values[..., i:]); suffix[..., T] = 0."""
    out = np.zeros(values.shape[:-1] + (values.shape[-1] + 1,))
    out[..., :-1] = np.cumsum(values[..., ::-1], axis=-1)[..., ::-1]
    return out


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


def clipped_trace(ratios, n_step: int, beta: float, eps_low: float, eps_high: float) -> np.ndarray:
    """Window product of ratios clipped to [1/beta, beta], then clipped to
    [1 - eps_low, 1 + eps_high]; along the last axis."""
    log_clipped = np.log(np.clip(ratios, 1.0 / beta, beta))
    return np.clip(window_products(log_clipped, n_step), 1.0 - eps_low, 1.0 + eps_high)


# --- token masks -------------------------------------------------------------

MASK_KINDS = ("grpo_ratio", "tv", "kl", "icepop", "none")


@dataclass(frozen=True)
class MaskSpec:
    """Which tokens keep their gradient signal.

    grpo_ratio  asymmetric ratio band (1 - eps_low, 1 + eps_high), advantage
                escape hatch for updates moving back toward the rollout policy
    tv          state total variation <= delta, same escape hatch
    kl          state KL(mu || pi) <= delta, same escape hatch
    icepop      plain ratio band [1/beta, beta], no advantage condition
    none        keep everything
    """

    kind: str
    eps_low: Optional[float] = None
    eps_high: Optional[float] = None
    delta: Optional[float] = None
    beta: Optional[float] = None

    def __post_init__(self):
        if self.kind not in MASK_KINDS:
            raise ValueError(f"mask kind must be one of {MASK_KINDS}, got {self.kind!r}")
        if self.kind == "grpo_ratio":
            if self.eps_low is None or not 0.0 < self.eps_low < 1.0:
                raise ValueError("grpo_ratio mask needs eps_low in (0, 1)")
            if self.eps_high is None or not self.eps_high > 0.0:
                raise ValueError("grpo_ratio mask needs eps_high > 0")
        elif self.kind in ("tv", "kl"):
            if self.delta is None or not self.delta > 0.0:
                raise ValueError(f"{self.kind} mask needs delta > 0")
        elif self.kind == "icepop":
            if self.beta is None or not self.beta > 1.0:
                raise ValueError("icepop mask needs beta > 1")


MASK_NONE = MaskSpec("none")


def _keep(mask: MaskSpec, rho: np.ndarray, advantage, measure: Callable) -> np.ndarray:
    """Keep/drop for tokens with ratios ``rho``; ``measure()`` gives each
    token's state TV or KL and is only called by the tv and kl masks."""
    toward_rollout = advantage * (rho - 1.0) <= 0.0
    if mask.kind == "none":
        return np.ones(rho.shape, dtype=bool)
    if mask.kind == "grpo_ratio":
        inside = (rho > 1.0 - mask.eps_low) & (rho < 1.0 + mask.eps_high)
        return inside | toward_rollout
    if mask.kind == "icepop":
        return (rho >= 1.0 / mask.beta) & (rho <= mask.beta)
    return (measure() <= mask.delta) | toward_rollout


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


def group_token_mask(mask: MaskSpec, group: GroupRollout, rho, p_pi, p_mu) -> np.ndarray:
    """:func:`token_mask` for a whole group as a [G, T] bool array, with the
    state TV or KL read from state-indexed probability tables."""
    measure = total_variation if mask.kind == "tv" else kl_divergence
    advantage = group.advantages[:, None]
    return _keep(mask, rho, advantage, lambda: measure(p_mu, p_pi)[group.state_ids])


# --- group rollouts ----------------------------------------------------------


def group_advantages(rewards: Sequence[float]) -> np.ndarray:
    """Center each reward on its group mean."""
    r = np.asarray(rewards, dtype=float)
    if len(r) < 2:
        raise ValueError(f"group advantages need at least 2 rewards, got {len(r)}")
    return r - r.mean()


@dataclass(frozen=True)
class GroupRollout:
    """A batch of trajectories with rewards and group-centered advantages.

    ``tokens`` is a read-only ``[G, T]`` integer array and ``state_ids``
    holds the state id of every token's prefix, the row index into the
    state-indexed policy tables.  ``weights`` are the aggregation weights of
    the batch mean: uniform 1/G for sampled groups, exact trajectory
    probabilities for the population pseudo-group used in enumeration checks.
    """

    mdp: TokenMdp
    tokens: np.ndarray
    rewards: np.ndarray
    advantages: np.ndarray
    weights: np.ndarray
    state_ids: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        tokens = np.array(self.tokens)
        t_len, v = self.mdp.horizon, self.mdp.vocab_size
        if tokens.ndim != 2 or len(tokens) < 1 or tokens.shape[1] != t_len:
            raise ValueError(f"rollout tokens must be a [G, {t_len}] array, got {tokens.shape}")
        if not np.issubdtype(tokens.dtype, np.integer) or tokens.min() < 0 or tokens.max() >= v:
            raise ValueError(f"rollout tokens must be integers in [0, {v})")
        g = len(tokens)
        if not (len(self.rewards) == len(self.advantages) == len(self.weights) == g):
            raise ValueError("rollout group field lengths disagree")
        if abs(float(self.weights.sum()) - 1.0) > 1e-9:
            raise ValueError("rollout group weights must sum to 1")
        tokens = tokens.astype(np.int64, copy=False)
        state_ids = prefix_state_ids(self.mdp, tokens)
        tokens.flags.writeable = state_ids.flags.writeable = False
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "state_ids", state_ids)

    @property
    def trajectories(self) -> tuple[Trajectory, ...]:
        """The tokens as a tuple of trajectories."""
        return tuple(tuple(row) for row in self.tokens.tolist())

    @property
    def group_size(self) -> int:
        return len(self.tokens)


def group_log_ratios(group: GroupRollout, p_pi: np.ndarray, p_mu: np.ndarray) -> np.ndarray:
    """log(pi / mu) at every token of the group, [G, T], read from
    state-indexed probability tables."""
    at = (group.state_ids, group.tokens)
    p_mu_tok = p_mu[at]
    if np.any(p_mu_tok == 0.0):
        raise ZeroSupportError("rollout policy gives zero probability to a sampled token")
    with np.errstate(divide="ignore"):
        return np.log(p_pi[at]) - np.log(p_mu_tok)


def sample_group(
    mdp: TokenMdp, mu, group_size: int, rng: np.random.Generator
) -> GroupRollout:
    """Sample G trajectories from the rollout policy and center their rewards."""
    if group_size < 1:
        raise ValueError(f"group_size must be >= 1, got {group_size}")
    tokens = np.array([sample_trajectory(mdp, mu, rng) for _ in range(group_size)])
    return _sampled_group(mdp, tokens)


def sample_from_table(
    mdp: TokenMdp, p_mu: np.ndarray, group_size: int, rng: np.random.Generator
) -> GroupRollout:
    """:func:`sample_group` from the rollout policy's state-indexed table.

    One ``[G, T]`` draw of uniforms, in the trajectory-major order in which
    :func:`sample_group` draws them one token at a time, so equal generators
    give equal tokens.  Each step is an inverse-CDF lookup for all G rows.
    Like :func:`sample_trajectory`, it checks every distribution the draw
    reads, so a draw costs O(G T V) however many states the table has.
    """
    if group_size < 1:
        raise ValueError(f"group_size must be >= 1, got {group_size}")
    p_mu = np.asarray(p_mu, dtype=float)
    v = mdp.vocab_size
    if p_mu.shape != (mdp.n_prefixes, v):
        raise ValueError(f"rollout table must be [{mdp.n_prefixes}, {v}], got {p_mu.shape}")
    u = rng.random((group_size, mdp.horizon))
    tokens = np.empty(u.shape, dtype=np.int64)
    states = np.zeros(u.shape, dtype=np.int64)
    for t in range(mdp.horizon):
        below = np.cumsum(p_mu[states[:, t]], axis=1) <= u[:, t, None]
        tokens[:, t] = np.minimum(below.sum(axis=1), v - 1)
        if t + 1 < mdp.horizon:
            states[:, t + 1] = states[:, t] * v + 1 + tokens[:, t]
    read = p_mu[states]
    if np.any(read < 0) or not np.all(np.abs(read.sum(axis=-1) - 1.0) <= 1e-9):
        raise ValueError("rollout table holds an invalid distribution at a sampled state")
    return _sampled_group(mdp, tokens)


def _sampled_group(mdp: TokenMdp, tokens: np.ndarray) -> GroupRollout:
    """A uniformly weighted group with group-centered rewards."""
    rewards = reward_vector(mdp, tokens)
    return GroupRollout(
        mdp=mdp,
        tokens=tokens,
        rewards=rewards,
        advantages=rewards - rewards.mean(),
        weights=np.full(len(tokens), 1.0 / len(tokens)),
    )


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
