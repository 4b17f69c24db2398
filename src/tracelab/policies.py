"""Policy families and per-state divergence measures.

Two families cover everything the lab needs: the analytic target-following
policy (probability ``alpha`` on the next unmatched target token, the rest
uniform) and a trainable tabular softmax keyed either by the full prefix or
by the matched-target length.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import UnknownStateError
from .mdp import TokenMdp, check_enumeration_cap, match_length, n_rows, prefix_match_lengths


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

    def probs(self, prefix: Sequence[int]) -> np.ndarray:
        return self._table[match_length(prefix, self.mdp.target)]

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

    STATE_KEYS = ("prefix", "match_length")

    def __init__(self, mdp: TokenMdp, logits: np.ndarray, state_key: str = "prefix"):
        if state_key not in self.STATE_KEYS:
            raise ValueError(f"state_key must be one of {self.STATE_KEYS}")
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
        """Copy another policy's distributions into logits (log-probabilities)."""
        if state_key == "prefix":
            probs = policy_prob_table(policy, mdp)
        else:
            # A representative prefix per matched length a state can reach: the
            # target's own head.  Longer matches are never reached; they stay uniform.
            probs = np.full((n_rows(mdp, state_key), mdp.vocab_size), 1.0 / mdp.vocab_size)
            for k in range(min(len(mdp.target), mdp.horizon - 1) + 1):
                probs[k] = policy.probs(mdp.target[:k])
        with np.errstate(divide="ignore"):
            return cls(mdp, np.log(probs), state_key)

    def row(self, prefix: Sequence[int]) -> int:
        """The row id of ``prefix`` under ``state_key``."""
        if self.state_key == "match_length":
            return match_length(prefix, self.mdp.target)
        v = self.mdp.vocab_size
        if len(prefix) >= self.mdp.horizon or not all(0 <= token < v for token in prefix):
            raise UnknownStateError(f"no logits for state {tuple(prefix)!r}; policy/MDP mismatch?")
        state = 0
        for token in prefix:
            state = v * state + 1 + token
        return state

    def probs(self, prefix: Sequence[int]) -> np.ndarray:
        return _softmax(self.logits[self.row(prefix)])

    def rows(self) -> PolicyRows:
        """The softmax of every logit row, keyed by ``state_key``."""
        return PolicyRows(_softmax(self.logits), self.state_key)

    def apply_gradient(self, gradient: np.ndarray, learning_rate: float) -> None:
        """Ascent step: logits += learning_rate * gradient, for an ``[R, vocab]`` gradient."""
        if np.shape(gradient) != self.logits.shape:
            raise ValueError(f"gradient shape {np.shape(gradient)} is not {self.logits.shape}")
        self.logits += learning_rate * np.asarray(gradient, dtype=float)

    def copy(self) -> "TabularSoftmaxPolicy":
        return TabularSoftmaxPolicy(self.mdp, self.logits.copy(), self.state_key)

    def __repr__(self) -> str:
        return f"TabularSoftmaxPolicy(states={len(self.logits)}, state_key={self.state_key!r})"


def total_variation(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Total variation distance between distributions along the last axis."""
    return 0.5 * np.abs(p - q).sum(axis=-1)


def kl_divergence(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """KL(p || q) along the last axis; terms with p = 0 contribute nothing."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p > 0, p * (np.log(p) - np.log(q)), 0.0).sum(axis=-1)


def d_tv_max(mu, pi, mdp: TokenMdp) -> float:
    """Max state-wise total variation over all reachable prefixes."""
    tv = total_variation(policy_prob_table(mu, mdp), policy_prob_table(pi, mdp))
    return float(tv.max())


def ratio_deviation_bound(pi, mu, mdp: TokenMdp) -> float:
    """Exact sup over (state, token) of |pi/mu - 1| on the rollout support.

    Tokens with zero rollout probability never appear in sampled
    trajectories, so they are excluded from the bound.
    """
    return table_ratio_deviation(policy_prob_table(pi, mdp), policy_prob_table(mu, mdp))


def table_ratio_deviation(p_pi: np.ndarray, p_mu: np.ndarray) -> float:
    """:func:`ratio_deviation_bound` from the two state-indexed tables."""
    ratio = np.divide(p_pi, p_mu, out=np.ones_like(p_pi), where=p_mu > 0)
    return float(np.abs(ratio - 1.0).max())


def policy_prob_table(policy, mdp: TokenMdp) -> np.ndarray:
    """[n_prefixes, vocab] probabilities in state-id order.

    Row order matches the state ids produced by ``mdp.trajectory_chunks``.  Match-length
    rows are gathered at each state's matched length; prefix rows are the table itself.
    """
    check_enumeration_cap(mdp, mdp.n_prefixes)
    probs, key = policy_rows(policy, mdp)
    return probs[prefix_match_lengths(mdp, mdp.target)] if key == "match_length" else probs


def policy_rows(policy, mdp: TokenMdp) -> PolicyRows:
    """The policy's rows, which are only defined for the tokens, horizon and
    target of the MDP it was built for."""
    own = policy.mdp
    if (own.vocab, own.horizon, own.target) != (mdp.vocab, mdp.horizon, mdp.target):
        raise UnknownStateError("the policy was built for another vocab, horizon or target")
    return policy.rows()


def policy_log_matrix(policy, mdp: TokenMdp) -> np.ndarray:
    """[n_prefixes, vocab] log-probabilities in state-id order; zero
    probabilities map to -inf."""
    with np.errstate(divide="ignore"):
        return np.log(policy_prob_table(policy, mdp))
