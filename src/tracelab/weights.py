"""Per-group weighting machinery: likelihood ratios, forward traces, token
masks, and group-centered advantages.

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
from .mdp import TokenMdp, Trajectory, check_window, extend_rows, n_rows, prefix_row_ids, reward_vector
from .policies import PolicyRows, kl_divergence, total_variation


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
    A zero ratio adds 0 to that sum and 1 to a suffix count of zeros, and a
    window whose count changes is 0.
    """
    t_len = log_ratios.shape[-1]
    zero = np.isneginf(log_ratios)
    suffix = _suffix_sums(np.where(zero, 0.0, log_ratios))
    zeros = _suffix_sums(zero) if zero.any() else None
    for n_step in n_steps:
        end = np.minimum(np.arange(t_len) + n_step, t_len)
        out = suffix[..., end]
        np.subtract(suffix[..., 1:], out, out=out)
        np.exp(out, out=out)
        if zeros is not None:
            out[zeros[..., 1:] != zeros[..., end]] = 0.0
        yield out


def _suffix_sums(values: np.ndarray) -> np.ndarray:
    """suffix[..., i] = sum(values[..., i:]); suffix[..., T] = 0."""
    out = np.zeros(values.shape[:-1] + (values.shape[-1] + 1,))
    out[..., :-1] = np.cumsum(values[..., ::-1], axis=-1)[..., ::-1]
    return out


def clipped_trace(ratios, n_step: int, beta: float, eps_low: float, eps_high: float) -> np.ndarray:
    """Window product of ratios clipped to [1/beta, beta], then clipped to
    [1 - eps_low, 1 + eps_high]; along the last axis."""
    check_window(np.shape(ratios)[-1], n_step)
    if not beta > 1:
        raise ValueError(f"beta must exceed 1, got {beta}")
    if not 0.0 < eps_low < 1.0:
        raise ValueError(f"eps_low must lie in (0, 1), got {eps_low}")
    if not eps_high > 0.0:
        raise ValueError(f"eps_high must be positive, got {eps_high}")
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


def group_token_mask(
    mask: MaskSpec, group: GroupRollout, rho, pi_rows: PolicyRows, mu_rows: PolicyRows
) -> np.ndarray:
    """Keep/drop of every token of a group as a [G, T] bool array, for token
    ratios ``rho``; the tv and kl masks measure each token's state from the
    two policies' rows."""
    measure = total_variation if mask.kind == "tv" else kl_divergence
    advantage = group.advantages[:, None]
    return _keep(mask, rho, advantage, lambda: measure(group.dists(mu_rows), group.dists(pi_rows)))


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

    ``tokens`` is a read-only ``[G, T]`` integer array.  :meth:`row_ids`
    gives the row id of every token's prefix under a row key, built the
    first time a policy with that key reads the group.  ``weights`` are the
    aggregation weights of the batch mean: uniform 1/G for sampled groups,
    exact trajectory probabilities for a population pseudo-group.
    """

    mdp: TokenMdp
    tokens: np.ndarray
    rewards: np.ndarray
    advantages: np.ndarray
    weights: np.ndarray
    _row_ids: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        tokens.flags.writeable = False
        object.__setattr__(self, "tokens", tokens)

    def row_ids(self, key: str) -> np.ndarray:
        """Read-only [G, T] row ids under ``key`` of every token's prefix."""
        if key not in self._row_ids:
            ids = prefix_row_ids(self.mdp, self.tokens, key)
            ids.flags.writeable = False
            self._row_ids[key] = ids
        return self._row_ids[key]

    def dists(self, rows: PolicyRows) -> np.ndarray:
        """The distribution of every token's state, [G, T, V]."""
        return rows.probs[self.row_ids(rows.key)]

    @property
    def trajectories(self) -> tuple[Trajectory, ...]:
        """The tokens as a tuple of trajectories."""
        return tuple(tuple(row) for row in self.tokens.tolist())

    @property
    def group_size(self) -> int:
        return len(self.tokens)


def group_log_ratios(group: GroupRollout, pi_rows: PolicyRows, mu_rows: PolicyRows) -> np.ndarray:
    """log(pi / mu) at every token of the group, [G, T], read from each
    policy's rows."""
    p_mu, p_pi = (rows.probs[group.row_ids(rows.key), group.tokens] for rows in (mu_rows, pi_rows))
    if np.any(p_mu == 0.0):
        raise ZeroSupportError("rollout policy gives zero probability to a sampled token")
    with np.errstate(divide="ignore"):
        return np.log(p_pi) - np.log(p_mu)


def sample_from_table(
    mdp: TokenMdp, mu_rows: PolicyRows, group_size: int, rng: np.random.Generator
) -> GroupRollout:
    """Sample G trajectories from the rollout policy's rows and center their rewards.

    One ``[G, T]`` draw of uniforms, in the trajectory-major order of a
    token-by-token sampler, so equal generators give equal tokens.  Each
    step is an inverse-CDF lookup for all G rows at the row ids of mu's key,
    which the group keeps.  Every distribution the draw reads is checked.
    """
    if group_size < 1:
        raise ValueError(f"group_size must be >= 1, got {group_size}")
    probs, key = np.asarray(mu_rows.probs, dtype=float), mu_rows.key
    v, count = mdp.vocab_size, n_rows(mdp, key)
    if probs.shape != (count, v):
        raise ValueError(f"rollout rows must be [{count}, {v}], got {probs.shape}")
    u = rng.random((group_size, mdp.horizon))
    tokens = np.empty(u.shape, dtype=np.int64)
    ids = np.zeros(u.shape, dtype=np.int64)
    for t in range(mdp.horizon):
        below = np.cumsum(probs[ids[:, t]], axis=1) <= u[:, t, None]
        tokens[:, t] = np.minimum(below.sum(axis=1), v - 1)
        if t + 1 < mdp.horizon:
            ids[:, t + 1] = extend_rows(mdp, key, ids[:, t], tokens[:, t])
    read = probs[ids]
    if np.any(read < 0) or not np.all(np.abs(read.sum(axis=-1) - 1.0) <= 1e-9):
        raise ValueError("rollout rows hold an invalid distribution at a sampled state")
    group = _sampled_group(mdp, tokens)
    ids.flags.writeable = False
    group._row_ids[key] = ids
    return group


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
