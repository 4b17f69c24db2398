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
    """

    vocab: tuple[str, ...]
    horizon: int
    target: tuple[int, ...]
    reward_bound: float = 1.0

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

    @classmethod
    def from_symbols(
        cls,
        vocab: Sequence[str],
        horizon: int,
        target: Sequence[str],
        reward_bound: float = 1.0,
    ) -> "TokenMdp":
        """Build an MDP from token symbols, e.g. vocab "abc", target "abcabc"."""
        index = {sym: i for i, sym in enumerate(vocab)}
        if len(index) != len(vocab):
            raise ValueError("vocab tokens must be distinct")
        try:
            target_idx = tuple(index[s] for s in target)
        except KeyError as exc:
            raise ValueError(f"target symbol {exc.args[0]!r} not in vocab") from exc
        return cls(tuple(vocab), int(horizon), target_idx, float(reward_bound))

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


def enumerate_trajectories(
    mdp: TokenMdp, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[Trajectory]:
    """All |vocab|^horizon trajectories, each exactly once, lexicographic."""
    total = mdp.n_trajectories
    if total > cap:
        raise EnumerationCapError(total, cap)
    return itertools.product(range(mdp.vocab_size), repeat=mdp.horizon)


def enumerate_prefixes(
    mdp: TokenMdp, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[Prefix]:
    """All reachable states: prefixes of length 0 .. horizon-1.

    Ordered by length, lexicographic within each length, which matches the
    integer state codes used by the vectorized enumeration helpers.
    """
    if mdp.n_prefixes > cap:
        raise EnumerationCapError(mdp.n_prefixes, cap)
    for length in range(mdp.horizon):
        yield from itertools.product(range(mdp.vocab_size), repeat=length)


def sample_trajectory(mdp: TokenMdp, policy, rng: np.random.Generator) -> Trajectory:
    """Draw one trajectory token by token from policy(. | prefix)."""
    tokens: list[int] = []
    for _ in range(mdp.horizon):
        probs = np.asarray(policy.probs(tuple(tokens)), dtype=float)
        if probs.shape != (mdp.vocab_size,) or np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError(f"policy returned an invalid distribution: {probs!r}")
        u = rng.random()
        tok = int(np.searchsorted(np.cumsum(probs), u, side="right"))
        tokens.append(min(tok, mdp.vocab_size - 1))
    return tuple(tokens)


# --- vectorized enumeration internals ---------------------------------------
#
# Trajectory m is identified with its base-|vocab| code, and the prefix
# y_{<t} with code offset(t) + encode(y_{<t}).  The children of state s are
# then the consecutive states |vocab| * s + 1 + token.  Chunked iteration
# keeps the memory footprint bounded near the enumeration cap.


def trajectory_chunks(
    mdp: TokenMdp,
    cap: int = DEFAULT_ENUMERATION_CAP,
    chunk_size: int = _CHUNK,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (tokens [m, T], rewards [m]) over all trajectories.

    Consumers that need state ids build them with :func:`prefix_state_ids`
    for the rows they keep.
    """
    total = mdp.n_trajectories
    if total > cap:
        raise EnumerationCapError(total, cap)
    v, t_len = mdp.vocab_size, mdp.horizon
    place = np.array([v ** (t_len - 1 - t) for t in range(t_len)], dtype=np.int64)
    for lo in range(0, total, chunk_size):
        tokens = np.arange(lo, min(lo + chunk_size, total), dtype=np.int64)[:, None] // place
        tokens %= v
        yield tokens, reward_vector(mdp, tokens)
        del tokens  # a consumer that drops its chunk keeps one chunk alive, not two


def prefix_state_ids(mdp: TokenMdp, tokens: np.ndarray) -> np.ndarray:
    """State id of every prefix y_{<t} in a [m, T] token block."""
    state_ids = np.zeros(tokens.shape, dtype=np.int64)
    for t in range(1, tokens.shape[1]):
        state_ids[:, t] = state_ids[:, t - 1] * mdp.vocab_size + 1 + tokens[:, t - 1]
    return state_ids


def prefix_match_lengths(
    mdp: TokenMdp, target: Sequence[int], cap: int = DEFAULT_ENUMERATION_CAP
) -> np.ndarray:
    """match_length(prefix, target) for every state id, built level by level.

    The length-t prefix with code c extends the length-(t-1) prefix with
    code c // |vocab| by the token c % |vocab|.
    """
    if mdp.n_prefixes > cap:
        raise EnumerationCapError(mdp.n_prefixes, cap)
    target = np.asarray(target, dtype=np.int64)
    n, v = len(target), mdp.vocab_size
    levels = [np.zeros(1, dtype=np.int64)]
    for _ in range(1, mdp.horizon):
        parent = np.repeat(levels[-1], v)
        token = np.tile(np.arange(v), len(levels[-1]))
        levels.append(parent + ((token == target[np.minimum(parent, n - 1)]) & (parent < n)))
    return np.concatenate(levels)


def reward_vector(mdp: TokenMdp, tokens: np.ndarray) -> np.ndarray:
    """Vectorized subsequence reward for a [m, T] block of trajectories."""
    target = np.asarray(mdp.target, dtype=np.int64)
    n = len(target)
    k = np.zeros(tokens.shape[0], dtype=np.int64)
    for t in range(tokens.shape[1]):
        need = target[np.minimum(k, n - 1)]
        k = k + ((tokens[:, t] == need) & (k < n))
    return (k == n).astype(np.float64)
