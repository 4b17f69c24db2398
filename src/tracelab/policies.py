"""Policy families, their rows, and the divergences of a policy pair.

Two families cover everything the lab needs: the analytic target-following
policy (probability ``alpha`` on the next unmatched target token, the rest
uniform) and a trainable tabular softmax keyed either by the full prefix or
by the matched-target length.  A policy is read through its rows
(:func:`policy_rows`), one distribution per row id under its key.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import UnknownStateError
from .mdp import ROW_KEYS, STATE_TABLE, TokenMdp, check_enumeration_cap, n_rows, prefix_row_ids, reached_rows


class PolicyRows(NamedTuple):
    """A policy's distinct token distributions, and the key that picks a
    state's row (see :func:`tracelab.mdp.extend_rows`); every state-indexed
    table is prefix-keyed rows."""

    probs: np.ndarray
    key: str = "prefix"


class TargetFollowingPolicy:
    """Puts mass alpha on the next required target token, uniform otherwise.

    Once the full target has been matched the distribution is uniform over
    the vocabulary.  The distribution depends on the prefix only through the
    matched length k, so all |target|+1 rows are precomputed.
    """

    def __init__(self, mdp: TokenMdp, alpha: float):
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
        self.mdp = mdp
        self.alpha = float(alpha)
        v, n = mdp.vocab_size, len(mdp.target)
        table = np.full((n + 1, v), (1.0 - alpha) / (v - 1))
        for k in range(n):
            table[k, mdp.target[k]] = alpha
        table[n, :] = 1.0 / v
        table.flags.writeable = False
        self._table = table

    def rows(self) -> PolicyRows:
        """The |target|+1 distributions, one per matched length."""
        return PolicyRows(self._table, "match_length")

    def __repr__(self) -> str:
        return f"TargetFollowingPolicy(alpha={self.alpha})"


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, computed in one new array."""
    out = logits - logits.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


class TabularSoftmaxPolicy:
    """Trainable softmax policy with one logit row per state.

    ``state_key`` selects the state representation: ``"prefix"`` keeps the
    exact generated prefix (faithful but larger), ``"match_length"``
    collapses it to the matched-target length (a sufficient statistic for
    the target-following family, much cheaper to train).  ``logits`` is one
    ``[R, vocab]`` array whose row r is the state with row id r under
    ``state_key`` (see :func:`tracelab.mdp.extend_rows`); the policy keeps
    the array it is given, and every update edits it in place.
    """

    STATE_KEYS = ROW_KEYS

    def __init__(self, mdp: TokenMdp, logits: np.ndarray, state_key: str = "prefix"):
        shape = (n_rows(mdp, state_key), mdp.vocab_size)
        self.mdp, self.state_key, self.logits = mdp, state_key, np.asarray(logits, dtype=float)
        if self.logits.shape != shape:
            raise ValueError(f"logits must be {shape} under {state_key!r}, got {self.logits.shape}")

    @classmethod
    def zeros(cls, mdp: TokenMdp, state_key: str = "prefix") -> "TabularSoftmaxPolicy":
        """Uniform policy: zero logits at every state."""
        return cls(mdp, np.zeros((n_rows(mdp, state_key), mdp.vocab_size)), state_key)

    @classmethod
    def from_policy(
        cls, mdp: TokenMdp, policy, state_key: str = "prefix"
    ) -> "TabularSoftmaxPolicy":
        """Copy a policy's (or its rows') distributions into logits (log-probabilities)."""
        rows = policy_rows(policy, mdp)
        if state_key == "prefix":
            probs = policy_prob_table(rows, mdp)
        else:
            # Matched length k copies the row of the target's head target[:k] (the pad
            # token is never read); longer matches are never reached and stay uniform.
            probs = np.full((n_rows(mdp, state_key), mdp.vocab_size), 1.0 / mdp.vocab_size)
            reached = reached_rows(mdp, state_key)
            heads = np.array([mdp.target[: reached - 1] + (0,)])
            probs[:reached] = rows.probs[prefix_row_ids(mdp, heads, rows.key)[0]]
        with np.errstate(divide="ignore"):
            return cls(mdp, np.log(probs), state_key)

    def probs(self, prefix: Sequence[int]) -> np.ndarray:
        """The softmax of the logit row of ``prefix`` (see :func:`prefix_row_ids`);
        only a state of the MDP, a prefix of vocab tokens shorter than the
        horizon, has one."""
        v = self.mdp.vocab_size
        if len(prefix) >= self.mdp.horizon or not all(0 <= token < v for token in prefix):
            raise UnknownStateError(f"no logits for state {tuple(prefix)!r}; policy/MDP mismatch?")
        ids = prefix_row_ids(self.mdp, np.array([[*prefix, 0]]), self.state_key)
        return _softmax(self.logits[ids[0, -1]])

    def rows(self) -> PolicyRows:
        """The softmax of every logit row, keyed by ``state_key``."""
        return PolicyRows(_softmax(self.logits), self.state_key)

    def apply_gradient(self, gradient, learning_rate: float) -> np.ndarray:
        """Ascent step on a ``RowGradient``: logits[rows] += learning_rate * values.
        Returns the new probabilities of those rows, in the order of ``gradient.rows``."""
        rows, values = np.asarray(gradient.rows), np.asarray(gradient.values, dtype=float)
        shape = (len(rows), self.logits.shape[1])
        if rows.ndim != 1 or values.shape != shape:
            raise ValueError(f"gradient values {values.shape} are not {shape}")
        if len(rows) and (rows[0] < 0 or rows[-1] >= len(self.logits) or (rows[1:] <= rows[:-1]).any()):
            raise ValueError(f"gradient rows must be sorted, unique ids below {len(self.logits)}")
        self.logits[rows] += learning_rate * values
        return _softmax(self.logits.take(rows, axis=0))

    def __repr__(self) -> str:
        return f"TabularSoftmaxPolicy(states={len(self.logits)}, state_key={self.state_key!r})"


def total_variation(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Total variation distance between distributions along the last axis."""
    gap = p - q
    np.abs(gap, out=gap)
    return 0.5 * gap.sum(axis=-1)


def kl_divergence(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """KL(p || q) along the last axis; terms with p = 0 contribute nothing."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p > 0, p * (np.log(p) - np.log(q)), 0.0).sum(axis=-1)


def policy_gap(mdp: TokenMdp, pi, mu) -> tuple[float, float]:
    """The exact eps and dtv_max of a policy pair (or of their rows): the sup
    over (state, token) of |pi/mu - 1|, and the max state-wise total variation.

    Tokens mu never emits never appear in sampled trajectories, so eps leaves
    them out.  When both policies have the same key they are read from the rows
    some state reaches: every prefix row, or the match lengths
    k <= min(|target|, T - 1).  Otherwise both are lifted to state tables first.
    """
    pi_rows, mu_rows = policy_rows(pi, mdp), policy_rows(mu, mdp)
    if pi_rows.key != mu_rows.key:
        p_pi, p_mu = policy_prob_table(pi_rows, mdp), policy_prob_table(mu_rows, mdp)
    else:
        reached = reached_rows(mdp, pi_rows.key)
        p_pi, p_mu = pi_rows.probs[:reached], mu_rows.probs[:reached]
    ratio = np.divide(p_pi, p_mu, out=np.ones_like(p_pi), where=p_mu > 0)
    return float(np.abs(ratio - 1.0).max()), float(total_variation(p_mu, p_pi).max())


def d_tv_max(mu, pi, mdp: TokenMdp) -> float:
    """Max state-wise total variation over all reachable prefixes."""
    return policy_gap(mdp, pi, mu)[1]


def policy_prob_table(policy, mdp: TokenMdp) -> np.ndarray:
    """A policy's (or its rows') [n_prefixes, vocab] probabilities in state-id order.

    Row order matches the state ids produced by ``mdp.trajectory_chunks``.  Match-length
    rows are gathered at each state's matched length; prefix rows are the table itself.
    """
    check_enumeration_cap(mdp, mdp.n_prefixes, STATE_TABLE)
    probs, key = policy_rows(policy, mdp)
    return probs[mdp.state_match_lengths] if key == "match_length" else probs


def policy_rows(policy, mdp: TokenMdp) -> PolicyRows:
    """The policy's rows, which are only defined for the tokens, horizon and
    target of the MDP it was built for.  Rows pass through as they are, once
    their key and their [n_rows(mdp, key), vocab] shape are checked."""
    if isinstance(policy, PolicyRows):
        probs, key = policy
        shape = (n_rows(mdp, key), mdp.vocab_size)
        if np.shape(probs) != shape:
            raise ValueError(f"rows under {key!r} must be {shape}, got {np.shape(probs)}")
        return policy
    own = policy.mdp
    if (own.vocab, own.horizon, own.target) != (mdp.vocab, mdp.horizon, mdp.target):
        raise UnknownStateError("the policy was built for another vocab, horizon or target")
    return policy.rows()


def policy_log_matrix(rows: PolicyRows) -> np.ndarray:
    """The log of a policy's [R, vocab] rows (see :func:`policy_rows`); zero
    probabilities map to -inf."""
    with np.errstate(divide="ignore"):
        return np.log(rows.probs)
