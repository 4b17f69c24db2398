"""Per-group weighting machinery: likelihood ratios, forward-window products,
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
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import ZeroSupportError
from .mdp import TokenMdp, check_enumeration_cap, extend_rows, prefix_row_ids
from .policies import PolicyRows, kl_divergence, policy_rows, total_variation


def iter_window_products(log_ratios: np.ndarray, n_steps: Iterable[int]) -> Iterator[np.ndarray]:
    """For each window N in ``n_steps``, in order: at each position i, the
    product of the next min(N-1, T-1-i) ratios.

    This is the truncated forward correction attached to token i+1; an
    empty window gives 1.  Works along the last axis and stays exact when
    a ratio is zero (log ratio -inf).

    The kernel runs time-major, on ``log_ratios.T``: one suffix sum along
    axis 0, and each window is one ``exp`` of the difference of two blocks of
    its rows, computed in place in a new array whose transpose is yielded and
    which the caller may overwrite.  A zero ratio adds 0 to that sum and 1 to
    a suffix count of zeros, and a window whose count changes is 0.
    """
    log_t = log_ratios.T
    t_len = log_t.shape[0]
    zero = np.isneginf(log_t)
    suffix = _suffix_sums(np.where(zero, 0.0, log_t))
    zeros = _suffix_sums(zero) if zero.any() else None
    for n_step in n_steps:
        end = np.minimum(np.arange(t_len) + n_step, t_len)
        out = suffix[end]
        np.subtract(suffix[1:], out, out=out)
        np.exp(out, out=out)
        if zeros is not None:
            out[zeros[1:] != zeros[end]] = 0.0
        yield out.T
        del out  # a consumer that drops its window keeps one window alive, not two


def _suffix_sums(values: np.ndarray) -> np.ndarray:
    """suffix[i] = sum(values[i:]) along axis 0; suffix[T] = 0."""
    out = np.zeros((values.shape[0] + 1,) + values.shape[1:])
    np.cumsum(values[::-1], axis=0, out=out[-2::-1])  # written in place, no temporary
    return out


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


def group_token_mask(mask: MaskSpec, group: GroupRollout, rho, pi_rows: PolicyRows) -> np.ndarray:
    """Keep/drop of every token of a group as a [G, T] bool array, for token
    ratios ``rho``; the tv and kl masks measure each token's state from the
    rows of the group's rollout policy and of pi."""
    toward_rollout = group.advantages[:, None] * (rho - 1.0) <= 0.0
    if mask.kind == "none":
        return np.ones(rho.shape, dtype=bool)
    if mask.kind == "grpo_ratio":
        inside = (rho > 1.0 - mask.eps_low) & (rho < 1.0 + mask.eps_high)
        return inside | toward_rollout
    if mask.kind == "icepop":
        return (rho >= 1.0 / mask.beta) & (rho <= mask.beta)
    measure = total_variation if mask.kind == "tv" else kl_divergence
    return (measure(group.dists(group.rollout), group.dists(pi_rows)) <= mask.delta) | toward_rollout


# --- group rollouts ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GroupRollout:
    """A batch of trajectories with rewards and group-centered advantages,
    and the rows of the rollout policy mu that drew them.

    A group is complete when built, its arrays read-only, and compares by
    identity.  ``tokens`` is ``[G, T]``; ``rollout_log_probs`` is the log
    probability mu gave each token, a zero refused at build.  ``weights``
    are the aggregation weights of the batch mean: uniform 1/G for sampled
    groups, exact trajectory probabilities for a population pseudo-group.
    """

    mdp: TokenMdp
    tokens: np.ndarray
    rewards: np.ndarray
    advantages: np.ndarray
    weights: np.ndarray
    rollout: PolicyRows
    rollout_log_probs: np.ndarray = field(init=False, repr=False)
    _rollout_ids: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        tokens = np.array(self.tokens)
        t_len, v = self.mdp.horizon, self.mdp.vocab_size
        if tokens.ndim != 2 or len(tokens) < 1 or tokens.shape[1] != t_len:
            raise ValueError(f"rollout tokens must be a [G, {t_len}] array, got {tokens.shape}")
        if not np.issubdtype(tokens.dtype, np.integer) or tokens.min() < 0 or tokens.max() >= v:
            raise ValueError(f"rollout tokens must be integers in [0, {v})")
        rewards, advantages, weights = (np.array(x, dtype=float) for x in (self.rewards, self.advantages, self.weights))
        if not (len(rewards) == len(advantages) == len(weights) == len(tokens)):
            raise ValueError("rollout group field lengths disagree")
        if abs(float(weights.sum()) - 1.0) > 1e-9:
            raise ValueError("rollout group weights must sum to 1")
        tokens = tokens.astype(np.int64, copy=False)
        rollout = policy_rows(self.rollout, self.mdp)
        ids = prefix_row_ids(self.mdp, tokens, rollout.key)
        p_mu = rollout.probs[ids, tokens]
        if np.any(p_mu == 0.0):
            raise ZeroSupportError("rollout policy gives zero probability to a sampled token")
        derived = dict(tokens=tokens, rewards=rewards, advantages=advantages, weights=weights,
                       rollout_log_probs=np.log(p_mu), _rollout_ids=ids)
        for name, array in derived.items():
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        object.__setattr__(self, "rollout", rollout)

    def row_ids(self, key: str) -> np.ndarray:
        """[G, T] row ids under ``key`` of every token's prefix: the group's
        own, read-only, under its rollout's key, and built afresh under any other."""
        if key == self.rollout.key:
            return self._rollout_ids
        return prefix_row_ids(self.mdp, self.tokens, key)

    def dists(self, rows: PolicyRows) -> np.ndarray:
        """The distribution of every token's state, [G, T, V]."""
        return rows.probs[self.row_ids(rows.key)]

    @property
    def group_size(self) -> int:
        return len(self.tokens)


def group_log_ratios(group: GroupRollout, pi_rows: PolicyRows) -> np.ndarray:
    """log(pi / mu) at every token of the group, [G, T], read from pi's rows
    and the log probabilities the group's rollout gave its tokens."""
    p_pi = pi_rows.probs[group.row_ids(pi_rows.key), group.tokens]
    with np.errstate(divide="ignore"):
        return np.log(p_pi) - group.rollout_log_probs


def sample_from_table(mdp: TokenMdp, mu, group_size: int, rng: np.random.Generator) -> GroupRollout:
    """Sample G trajectories from the rollout policy or its rows, and center their rewards.

    One ``[G, T]`` draw of uniforms, in the trajectory-major order of a
    token-by-token sampler, so equal generators give equal tokens.  Each
    step is an inverse-CDF lookup for all G rows at the row ids of mu's key.
    Every distribution the draw reads is checked, and the G * T tokens are
    held to the enumeration cap before the draw.  Each row's reward is one
    more step of its walk, from the match length of its last row.
    """
    if group_size < 1:
        raise ValueError(f"group_size must be >= 1, got {group_size}")
    probs, key = rollout = policy_rows(mu, mdp)
    check_enumeration_cap(mdp, group_size * mdp.horizon, "a sampled group (G x T tokens)")
    u = rng.random((group_size, mdp.horizon))
    tokens = np.empty(u.shape, dtype=np.int64)
    ids = np.zeros(u.shape, dtype=np.int64)
    for t in range(mdp.horizon):
        below = np.cumsum(probs[ids[:, t]], axis=1) <= u[:, t, None]
        tokens[:, t] = np.minimum(below.sum(axis=1), mdp.vocab_size - 1)
        if t + 1 < mdp.horizon:
            ids[:, t + 1] = extend_rows(mdp, key, ids[:, t], tokens[:, t])
    read = probs[ids]
    if np.any(read < 0) or not np.all(np.abs(read.sum(axis=-1) - 1.0) <= 1e-9):
        raise ValueError("rollout rows hold an invalid distribution at a sampled state")
    # State match lengths are stored narrow; widen them before extend_rows multiplies them by V.
    last = ids[:, -1] if key == "match_length" else mdp.state_match_lengths[ids[:, -1]].astype(np.int64)
    matched = extend_rows(mdp, "match_length", last, tokens[:, -1])
    rewards = (matched == len(mdp.target)).astype(np.float64)
    return GroupRollout(
        mdp=mdp,
        tokens=tokens,
        rewards=rewards,
        advantages=rewards - rewards.mean(),
        weights=np.full(group_size, 1.0 / group_size),
        rollout=rollout,
    )
