"""Finite-horizon token MDP with a subsequence-pattern reward.

States are generated prefixes, dynamics append one vocabulary token per
step, and a trajectory earns reward 1 exactly when the target pattern
occurs inside it as an ordered (not necessarily contiguous) subsequence.
Everything here is small enough to enumerate, which is what makes exact
expectations possible downstream.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import EnumerationCapError

DEFAULT_ENUMERATION_CAP = 10_000_000
_CHUNK = 1 << 16

Prefix = tuple[int, ...]
Trajectory = tuple[int, ...]


@dataclass(frozen=True)
class TokenMdp:
    """Deterministic prefix-append MDP over a finite vocabulary.

    ``target`` is stored as vocabulary indices.  ``reward_bound`` is the
    declared bound on |reward|; it is 1 for the binary subsequence reward
    but kept as a field so the concentration formulas generalize.
    ``enumeration_cap`` bounds every enumeration and every state-indexed
    table built for this MDP; each is checked before it is built.
    """

    vocab: tuple[str, ...]
    horizon: int
    target: tuple[int, ...]
    reward_bound: float = 1.0
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP

    def __post_init__(self):
        if len(self.vocab) < 2:
            raise ValueError("vocab must contain at least 2 tokens")
        if len(set(self.vocab)) != len(self.vocab):
            raise ValueError("vocab tokens must be distinct")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not self.target:
            raise ValueError("target must be non-empty")
        if any(not (0 <= s < len(self.vocab)) for s in self.target):
            raise ValueError("target contains out-of-vocab indices")
        if not (self.reward_bound > 0):
            raise ValueError("reward_bound must be positive")
        if not self.enumeration_cap >= 1:
            raise ValueError("enumeration_cap must be >= 1")

    @classmethod
    def from_symbols(
        cls,
        vocab: Sequence[str],
        horizon: int,
        target: Sequence[str],
        reward_bound: float = 1.0,
        enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
    ) -> "TokenMdp":
        """Build an MDP from token symbols, e.g. vocab "abc", target "abcabc"."""
        index = {sym: i for i, sym in enumerate(vocab)}
        if len(index) != len(vocab):
            raise ValueError("vocab tokens must be distinct")
        try:
            target_idx = tuple(index[s] for s in target)
        except KeyError as exc:
            raise ValueError(f"target symbol {exc.args[0]!r} not in vocab") from exc
        return cls(tuple(vocab), int(horizon), target_idx, float(reward_bound), enumeration_cap)

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    @property
    def n_trajectories(self) -> int:
        return self.vocab_size**self.horizon

    @property
    def n_prefixes(self) -> int:
        """Number of states: prefixes of length 0 .. horizon-1."""
        v = self.vocab_size
        return (v**self.horizon - 1) // (v - 1)

    def format_tokens(self, tokens: Sequence[int]) -> str:
        return "".join(self.vocab[i] for i in tokens)

    def check_trajectory(self, y: Sequence[int]) -> Trajectory:
        y = tuple(int(t) for t in y)
        if len(y) != self.horizon:
            raise ValueError(f"trajectory length {len(y)} != horizon {self.horizon}")
        if any(not (0 <= t < self.vocab_size) for t in y):
            raise ValueError("trajectory contains out-of-vocab indices")
        return y


def check_enumeration_cap(mdp: TokenMdp, count: int) -> None:
    """Refuse to enumerate or tabulate ``count`` items beyond the MDP's cap."""
    if count > mdp.enumeration_cap:
        raise EnumerationCapError(count, mdp.enumeration_cap)


def check_window(horizon: int, n_step: int) -> None:
    if not 1 <= n_step <= horizon:
        raise ValueError(f"n_step must lie in [1, {horizon}], got {n_step}")


def match_length(prefix: Sequence, target: Sequence) -> int:
    """Longest k such that target[:k] is an ordered subsequence of prefix.

    Greedy left-to-right matching is optimal here: skipping an available
    match can never extend the matched prefix of the target.
    """
    k = 0
    n = len(target)
    for sym in prefix:
        if k == n:
            break
        if sym == target[k]:
            k += 1
    return k


def reward(mdp: TokenMdp, y: Sequence[int]) -> float:
    """1.0 when the target is an ordered subsequence of y, else 0.0."""
    y = mdp.check_trajectory(y)
    return 1.0 if match_length(y, mdp.target) == len(mdp.target) else 0.0


def enumerate_prefixes(mdp: TokenMdp) -> Iterator[Prefix]:
    """All reachable states: prefixes of length 0 .. horizon-1.

    Ordered by length, lexicographic within each length, which matches the
    integer state codes used by the vectorized enumeration helpers.  The cap
    is checked on the call, before the first prefix is asked for.
    """
    check_enumeration_cap(mdp, mdp.n_prefixes)
    v = range(mdp.vocab_size)
    return itertools.chain.from_iterable(
        itertools.product(v, repeat=length) for length in range(mdp.horizon)
    )


# --- vectorized enumeration internals ---------------------------------------
#
# Trajectory m is identified with its base-|vocab| code, and the prefix
# y_{<t} with code offset(t) + encode(y_{<t}).  The children of state s are
# then the consecutive states |vocab| * s + 1 + token.  Chunked iteration
# keeps the memory footprint of a pass to a few chunks.


def trajectory_chunks(
    mdp: TokenMdp, chunk_size: int = _CHUNK
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (tokens [m, T], rewards [m]) over all trajectories.

    Consumers that need state ids build them with :func:`prefix_state_ids`
    for the rows they keep.
    """
    total = mdp.n_trajectories
    check_enumeration_cap(mdp, total)
    v, t_len = mdp.vocab_size, mdp.horizon
    place = np.array([v ** (t_len - 1 - t) for t in range(t_len)], dtype=np.int64)
    for lo in range(0, total, chunk_size):
        tokens = np.arange(lo, min(lo + chunk_size, total), dtype=np.int64)[:, None] // place
        tokens %= v
        yield tokens, reward_vector(mdp, tokens)
        del tokens  # a consumer that drops its chunk keeps one chunk alive, not two


def extend_rows(mdp: TokenMdp, key: str, ids: np.ndarray, tokens: np.ndarray) -> np.ndarray:
    """Row ids of the prefixes with row ids ``ids`` once ``tokens`` are appended:
    state ids under key ``"prefix"``, matched target lengths under ``"match_length"``."""
    if key == "prefix":
        return ids * mdp.vocab_size + 1 + tokens
    return _extend_match(ids, tokens, np.asarray(mdp.target, dtype=np.int64))


def prefix_row_ids(mdp: TokenMdp, tokens: np.ndarray, key: str) -> np.ndarray:
    """Row id under ``key`` (see :func:`extend_rows`) of every prefix y_{<t}
    in a [m, T] token block."""
    if key == "prefix" and mdp.n_prefixes - 1 > np.iinfo(np.int64).max:
        raise ValueError(f"state ids at horizon {mdp.horizon} overflow int64")
    ids = np.zeros(tokens.shape, dtype=np.int64)
    for t in range(1, tokens.shape[1]):
        ids[:, t] = extend_rows(mdp, key, ids[:, t - 1], tokens[:, t - 1])
    return ids


def prefix_state_ids(mdp: TokenMdp, tokens: np.ndarray) -> np.ndarray:
    """State id of every prefix y_{<t} in a [m, T] token block."""
    return prefix_row_ids(mdp, tokens, "prefix")


def _extend_match(k: np.ndarray, tokens: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Match lengths of ``target`` once ``tokens`` extend prefixes matched up to ``k``."""
    n = len(target)
    return k + ((tokens == target[np.minimum(k, n - 1)]) & (k < n))


def prefix_match_lengths(mdp: TokenMdp, target: Sequence[int]) -> np.ndarray:
    """match_length(prefix, target) for every state id, built level by level.

    The length-t prefix with code c extends the length-(t-1) prefix with
    code c // |vocab| by the token c % |vocab|.
    """
    check_enumeration_cap(mdp, mdp.n_prefixes)
    target = np.asarray(target, dtype=np.int64)
    v = mdp.vocab_size
    levels = [np.zeros(1, dtype=np.int64)]
    for _ in range(1, mdp.horizon):
        parent = np.repeat(levels[-1], v)
        levels.append(_extend_match(parent, np.tile(np.arange(v), len(levels[-1])), target))
    return np.concatenate(levels)


def reward_vector(mdp: TokenMdp, tokens: np.ndarray) -> np.ndarray:
    """Vectorized subsequence reward for a [m, T] block of trajectories."""
    target = np.asarray(mdp.target, dtype=np.int64)
    k = np.zeros(tokens.shape[0], dtype=np.int64)
    for t in range(tokens.shape[1]):
        k = _extend_match(k, tokens[:, t], target)
    return (k == len(target)).astype(np.float64)
