"""Finite-horizon token MDP with a subsequence-pattern reward.

States are generated prefixes, dynamics append one vocabulary token per
step, and a trajectory earns reward 1 exactly when the target pattern
occurs inside it as an ordered (not necessarily contiguous) subsequence.
Everything here is small enough to enumerate, which is what makes exact
expectations possible downstream.  Prefixes are read in blocks, as row ids
under a row key (see :func:`extend_rows`), never one prefix at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Iterator, Sequence

import numpy as np

from .errors import EnumerationCapError

DEFAULT_ENUMERATION_CAP = 10_000_000
ROW_KEYS = ("prefix", "match_length")  # how a state picks its row: see extend_rows
_CHUNK = 1 << 14
# How a refusal names the two counts that most checks against the cap make.
ENUMERATION, STATE_TABLE = "exhaustive enumeration (trajectories)", "a state table (rows, one per state)"


@dataclass(frozen=True)
class TokenMdp:
    """Deterministic prefix-append MDP over a finite vocabulary.

    ``target`` is stored as vocabulary indices.  ``reward_bound`` is the
    bound xi on |reward| that the concentration formulas use: 1, the largest
    value of the binary subsequence reward.  ``enumeration_cap`` bounds every
    enumeration and every state-indexed table built for this MDP; each is
    checked before it is built.
    """

    reward_bound: ClassVar[float] = 1.0
    vocab: tuple[str, ...]
    horizon: int
    target: tuple[int, ...]
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
        if not self.enumeration_cap >= 1:
            raise ValueError("enumeration_cap must be >= 1")

    @classmethod
    def from_symbols(
        cls,
        vocab: Sequence[str],
        horizon: int,
        target: Sequence[str],
        enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
    ) -> "TokenMdp":
        """Build an MDP from token symbols, e.g. vocab "abc", target "abcabc"."""
        index = {sym: i for i, sym in enumerate(vocab)}
        try:
            target_idx = tuple(index[s] for s in target)
        except KeyError as exc:
            raise ValueError(f"target symbol {exc.args[0]!r} not in vocab") from exc
        return cls(tuple(vocab), int(horizon), target_idx, enumeration_cap)

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

    @cached_property
    def step_table(self) -> np.ndarray:
        """[|target| + 1, V] read-only: the matched length (the longest k such that
        target[:k] is an ordered subsequence of a prefix) once each token
        extends a prefix matched up to each length k."""
        n = len(self.target)
        k = np.arange(n + 1)[:, None]
        step = k + ((np.array(self.target)[np.minimum(k, n - 1)] == np.arange(self.vocab_size)) & (k < n))
        step.flags.writeable = False
        return step

    @cached_property
    def state_match_lengths(self) -> np.ndarray:
        """[n_prefixes] read-only: :func:`prefix_match_lengths`, built on first use."""
        lengths = prefix_match_lengths(self)
        lengths.flags.writeable = False
        return lengths

    @cached_property
    def matched_leaves(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (done, near): the states one token short of the horizon
        that have matched the whole target, and those one token short of it,
        as ids counted from the first such state; built on first use."""
        leaves = self.state_match_lengths[self.n_prefixes - self.vocab_size ** (self.horizon - 1) :]
        done, near = (np.flatnonzero(leaves == k) for k in (len(self.target), len(self.target) - 1))
        done.flags.writeable = near.flags.writeable = False
        return done, near


def check_enumeration_cap(mdp: TokenMdp, count: int, what: str) -> None:
    """Refuse to enumerate or hold ``count`` items beyond the MDP's cap;
    ``what`` says what the items are, for the error."""
    if count > mdp.enumeration_cap:
        raise EnumerationCapError(count, mdp.enumeration_cap, what)


def check_window(horizon: int, n_step: int) -> None:
    if not 1 <= n_step <= horizon:
        raise ValueError(f"n_step must lie in [1, {horizon}], got {n_step}")


# --- vectorized enumeration internals ---------------------------------------
#
# Trajectory m is identified with its base-|vocab| code, and the prefix
# y_{<t} with code offset(t) + encode(y_{<t}).  The children of state s are
# then the consecutive states |vocab| * s + 1 + token.  Chunked iteration
# keeps the memory footprint of a pass to a few chunks.


def trajectory_chunks(
    mdp: TokenMdp, chunk_size: int = _CHUNK
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (tokens [m, T], rewards [m]) over all trajectories, in code order.

    Each chunk is built time-major, as a [T, m] array whose transpose is
    yielded, so every token column is contiguous.  Column t of consecutive
    codes is made of runs of V^(T-1-t) equal digits, so it is one repeat of
    the digits of its runs, with no division over the chunk.
    """
    total = mdp.n_trajectories
    check_enumeration_cap(mdp, total, ENUMERATION)
    v, t_len = mdp.vocab_size, mdp.horizon
    for lo in range(0, total, chunk_size):
        hi = min(lo + chunk_size, total)
        block = np.empty((t_len, hi - lo), dtype=np.int64)
        for t in range(t_len):
            run = v ** (t_len - 1 - t)
            first, last = lo // run, (hi - 1) // run
            counts = np.full(last - first + 1, run)
            counts[0] -= lo - first * run  # the chunk's first and last runs may be cut
            counts[-1] -= (last + 1) * run - hi
            block[t] = np.repeat(np.arange(first, last + 1) % v, counts)
        tokens = block.T
        yield tokens, reward_vector(mdp, tokens)
        del tokens, block  # a consumer that drops its chunk keeps one chunk alive, not two


def extend_rows(mdp: TokenMdp, key: str, ids: np.ndarray, tokens: np.ndarray) -> np.ndarray:
    """Row ids of the prefixes with row ids ``ids`` once ``tokens`` are appended:
    state ids under key ``"prefix"``, matched target lengths under ``"match_length"``."""
    if key == "prefix":
        return ids * mdp.vocab_size + 1 + tokens
    return np.take(mdp.step_table, ids * mdp.vocab_size + tokens)


def _row_key(key: str) -> str:
    if key not in ROW_KEYS:
        raise ValueError(f"row key must be one of {ROW_KEYS}, got {key!r}")
    return key


def n_rows(mdp: TokenMdp, key: str) -> int:
    """Number of row ids under ``key`` (see :func:`extend_rows`); a prefix-keyed
    count is every state id, and is refused beyond the cap like every state table."""
    if _row_key(key) == "prefix":
        check_enumeration_cap(mdp, mdp.n_prefixes, STATE_TABLE)
        return mdp.n_prefixes
    return len(mdp.target) + 1


def reached_rows(mdp: TokenMdp, key: str) -> int:
    """Number of leading row ids under ``key`` that some state reaches: every
    state id, or the match lengths k <= min(|target|, T - 1)."""
    rows = n_rows(mdp, key)
    return rows if key == "prefix" else min(rows, mdp.horizon)


def prefix_row_ids(mdp: TokenMdp, tokens: np.ndarray, key: str) -> np.ndarray:
    """Row id under ``key`` (see :func:`extend_rows`) of every prefix y_{<t}
    in a [m, T] token block, laid out in memory like the block."""
    if _row_key(key) == "prefix" and mdp.n_prefixes - 1 > np.iinfo(np.int64).max:
        raise ValueError(f"state ids at horizon {mdp.horizon} overflow int64")
    ids = np.zeros_like(tokens, dtype=np.int64)
    for t in range(1, tokens.shape[1]):
        ids[:, t] = extend_rows(mdp, key, ids[:, t - 1], tokens[:, t - 1])
    return ids


def prefix_match_lengths(mdp: TokenMdp) -> np.ndarray:
    """The matched length (see ``TokenMdp.step_table``) of every state id, built
    level by level in the smallest unsigned dtype that holds |target|.

    The children of a length-(t-1) prefix are consecutive length-t states, so
    a level is the step-table rows of its parent level, in order.
    """
    check_enumeration_cap(mdp, mdp.n_prefixes, STATE_TABLE)
    step = mdp.step_table.astype(np.min_scalar_type(len(mdp.target)))
    levels = [np.zeros(1, dtype=step.dtype)]
    for _ in range(1, mdp.horizon):
        levels.append(step[levels[-1]].ravel())
    return np.concatenate(levels)


def reward_vector(mdp: TokenMdp, tokens: np.ndarray) -> np.ndarray:
    """Vectorized subsequence reward for a [m, T] block of trajectories."""
    k = np.zeros(tokens.shape[0], dtype=np.int64)
    for t in range(tokens.shape[1]):
        k = extend_rows(mdp, "match_length", k, tokens[:, t])
    return (k == len(mdp.target)).astype(np.float64)
