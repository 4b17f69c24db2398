import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from helpers import TargetFollowingPolicy
from tracelab import TokenMdp


@pytest.fixture(scope="session")
def toy_mdp() -> TokenMdp:
    """The 3-token, horizon-7 MDP with target pattern abcabc."""
    return TokenMdp.from_symbols("abc", 7, "abcabc")


@pytest.fixture(scope="session")
def mu05(toy_mdp) -> TargetFollowingPolicy:
    return TargetFollowingPolicy(toy_mdp, 0.5)


@pytest.fixture(scope="session")
def pi08(toy_mdp) -> TargetFollowingPolicy:
    return TargetFollowingPolicy(toy_mdp, 0.8)
