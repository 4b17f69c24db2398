"""Policy families and per-state divergence measures.

Two families cover everything the lab needs: the analytic target-following
policy (probability ``alpha`` on the next unmatched target token, the rest
uniform) and a trainable tabular softmax keyed either by the full prefix or
by the matched-target length.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Hashable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import UnknownStateError
from .mdp import (
    TokenMdp,
    check_enumeration_cap,
    enumerate_prefixes,
    match_length,
    prefix_match_lengths,
)

StateKey = Hashable


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

    def prob_table(self, mdp: TokenMdp) -> np.ndarray:
        """[n_prefixes, vocab] probabilities, one row per state id of ``mdp``."""
        return self._table[prefix_match_lengths(mdp, self.mdp.target)]

    def __repr__(self) -> str:
        return f"TargetFollowingPolicy(alpha={self.alpha})"


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax along the last axis."""
    shifted = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)


class TabularSoftmaxPolicy:
    """Trainable softmax policy with one logit row per state.

    ``state_key`` selects the state representation: ``"prefix"`` keeps the
    exact generated prefix (faithful but larger), ``"match_length"``
    collapses it to the matched-target length (a sufficient statistic for
    the target-following family, much cheaper to train).  The logits live in
    one ``[n_rows, vocab]`` array; ``logits`` is a read-only mapping from each
    state key to a view of its row, so every edit of a row is in place.
    """

    STATE_KEYS = ("prefix", "match_length")

    def __init__(
        self,
        mdp: TokenMdp,
        logits: dict[StateKey, np.ndarray],
        state_key: str = "prefix",
    ):
        keys = list(self._all_keys(mdp, state_key))
        if logits.keys() != set(keys):
            raise ValueError(f"logits must cover exactly the {len(keys)} states of the MDP")
        rows = [np.asarray(logits[k], dtype=float) for k in keys]
        for k, row in zip(keys, rows):
            if row.shape != (mdp.vocab_size,):
                raise ValueError(f"logit row for state {k!r} has shape {row.shape}")
        self.mdp = mdp
        self.state_key = state_key
        self._table = np.array(rows)
        self.logits = MappingProxyType(dict(zip(keys, self._table)))

    @classmethod
    def _all_keys(cls, mdp: TokenMdp, state_key: str) -> Iterable[StateKey]:
        if state_key not in cls.STATE_KEYS:
            raise ValueError(f"state_key must be one of {cls.STATE_KEYS}")
        if state_key == "match_length":
            return range(len(mdp.target) + 1)
        return enumerate_prefixes(mdp)

    @classmethod
    def zeros(cls, mdp: TokenMdp, state_key: str = "prefix") -> "TabularSoftmaxPolicy":
        """Uniform policy: zero logits at every state."""
        zero = np.zeros(mdp.vocab_size)
        return cls(mdp, dict.fromkeys(cls._all_keys(mdp, state_key), zero), state_key)

    @classmethod
    def from_policy(
        cls, mdp: TokenMdp, policy, state_key: str = "prefix"
    ) -> "TabularSoftmaxPolicy":
        """Copy another policy's distributions into logits (log-probabilities)."""
        if state_key == "match_length":
            # A representative prefix per matched length a state can reach: the
            # target's own head.  Longer matches are never reached; they stay uniform.
            reach = min(len(mdp.target), mdp.horizon - 1) + 1
            probs = [policy.probs(mdp.target[:k]) for k in range(reach)]
            probs += [np.full(mdp.vocab_size, 1.0 / mdp.vocab_size)] * (len(mdp.target) + 1 - reach)
        else:
            probs = policy_prob_table(policy, mdp)
        with np.errstate(divide="ignore"):
            logits = np.log(np.asarray(probs, dtype=float))
        return cls(mdp, dict(zip(cls._all_keys(mdp, state_key), logits)), state_key)

    def key(self, prefix: Sequence[int]) -> StateKey:
        if self.state_key == "match_length":
            return match_length(prefix, self.mdp.target)
        return tuple(prefix)

    def _row(self, prefix: Sequence[int]) -> np.ndarray:
        key = self.key(prefix)
        try:
            return self.logits[key]
        except KeyError:
            raise UnknownStateError(
                f"no logits for state {key!r}; policy/MDP mismatch?"
            ) from None

    def probs(self, prefix: Sequence[int]) -> np.ndarray:
        return _softmax(self._row(prefix))

    def rows(self) -> PolicyRows:
        """The softmax of every logit row, keyed by ``state_key``."""
        return PolicyRows(_softmax(self._table), self.state_key)

    def prob_table(self, mdp: TokenMdp) -> np.ndarray:
        """[n_prefixes, vocab] probabilities, one row per state id of ``mdp``."""
        if self.state_key == "match_length":
            return _softmax(self._table)[prefix_match_lengths(mdp, self.mdp.target)]
        check_enumeration_cap(mdp, mdp.n_prefixes)
        if mdp.vocab_size != self.mdp.vocab_size or mdp.n_prefixes > len(self._table):
            raise UnknownStateError("prefix-keyed logits do not cover this MDP's states")
        return _softmax(self._table[: mdp.n_prefixes])

    def apply_gradient(self, gradient: dict[StateKey, np.ndarray], learning_rate: float) -> None:
        """Ascent step: logits[state] += learning_rate * gradient[state]."""
        for key, g in gradient.items():
            if key not in self.logits:
                raise UnknownStateError(f"gradient for unknown state {key!r}")
            self.logits[key][:] += learning_rate * np.asarray(g, dtype=float)

    def copy(self) -> "TabularSoftmaxPolicy":
        return TabularSoftmaxPolicy(self.mdp, self.logits, self.state_key)

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

    Row order matches the state ids produced by ``mdp.trajectory_chunks``.
    Policies without a ``prob_table`` method, which only answer
    ``probs(prefix)``, are asked once per state.
    """
    if hasattr(policy, "prob_table"):
        return policy.prob_table(mdp)
    prefixes = enumerate_prefixes(mdp)
    rows = np.empty((mdp.n_prefixes, mdp.vocab_size))
    for i, prefix in enumerate(prefixes):
        rows[i] = np.asarray(policy.probs(prefix), dtype=float)
    return rows


def policy_rows(policy, mdp: TokenMdp) -> PolicyRows:
    """The rows that a sampled group of ``mdp`` reads for ``policy``: its own
    rows when it was built for the same tokens, horizon and target, and its
    state-indexed table otherwise."""
    if hasattr(policy, "rows"):
        own = policy.mdp
        if (own.vocab, own.horizon, own.target) == (mdp.vocab, mdp.horizon, mdp.target):
            return policy.rows()
    return PolicyRows(policy_prob_table(policy, mdp))


def policy_log_matrix(policy, mdp: TokenMdp) -> np.ndarray:
    """[n_prefixes, vocab] log-probabilities in state-id order; zero
    probabilities map to -inf."""
    with np.errstate(divide="ignore"):
        return np.log(policy_prob_table(policy, mdp))
