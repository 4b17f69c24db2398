"""Shared exception types."""

from __future__ import annotations


class TracelabError(Exception):
    """Base class for all package-specific failures."""


class EnumerationCapError(TracelabError):
    """Exhaustive enumeration would exceed the configured cap."""

    def __init__(self, required: int, cap: int):
        super().__init__(
            f"exhaustive enumeration needs {required} items, cap is {cap}"
        )
        self.required = required
        self.cap = cap


class ZeroSupportError(TracelabError):
    """The rollout policy assigns zero probability to a sampled token."""


class UnknownStateError(TracelabError):
    """A policy was queried at a state it has no entry for.

    Signals a prefix outside a tabular policy's table, or a policy asked
    about the states of an MDP with another vocab, horizon or target.
    """


class ConfigError(TracelabError):
    """A run configuration violates the strict schema."""


class TrainingDivergedError(TracelabError):
    """The training objective became non-finite."""
