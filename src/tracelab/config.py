"""Strict run-configuration parsing.

One JSON document describes a whole run: the MDP, both policies, the
objective with its clip/mask knobs, and the experiment parameters.  Unknown
keys are rejected and every domain violation names the offending key, so a
config either parses completely or fails loudly.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import sys
from typing import Any, NamedTuple, Sequence

from .errors import ConfigError
from .mdp import DEFAULT_ENUMERATION_CAP, TokenMdp, check_enumeration_cap
from .objectives import OBJECTIVE_KINDS, ObjectiveSpec
from .policies import TabularSoftmaxPolicy, TargetFollowingPolicy
from .weights import MASK_KINDS, MaskSpec

POLICY_FAMILIES = ("target_following", "tabular_softmax")
TABULAR_INITS = ("zeros", "copy_of_mu")

# The toy problem; every other key takes the parser's default, which the echo records.
DEFAULT_CONFIG: dict = {
    "mdp": {"vocab": ["a", "b", "c"], "horizon": 7, "target": "abcabc"},
    "policies": {
        "mu": {"family": "target_following", "alpha": 0.5},
        "pi": {"family": "target_following", "alpha": 0.8},
    },
    "objective": {"kind": "nfpo", "mask": {"kind": "tv", "delta": 0.2}},
    "experiment": {},
    "enumeration_cap": DEFAULT_ENUMERATION_CAP,
}


def default_config() -> dict:
    return copy.deepcopy(DEFAULT_CONFIG)


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _fail(path: str, expected: str, got: Any) -> ConfigError:
    return ConfigError(f"config key '{path}': expected {expected}, got {got!r}")


def _require_keys(section: dict, path: str, known: Sequence[str], required: Sequence[str]):
    if not isinstance(section, dict):
        raise _fail(path or "<root>", "an object", section)
    for key in section:
        if key not in known:
            raise ConfigError(f"unknown config key '{_join(path, key)}'")
    for key in required:
        if key not in section:
            raise ConfigError(f"missing config key '{_join(path, key)}'")


def _number(section: dict, path: str, key: str, lo=None, hi=None, *, open_lo=False, open_hi=False, default=None):
    value = section.setdefault(key, default)  # _require_keys has refused a missing required key
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(_join(path, key), "a number", value)
    try:
        number = float(value)
    except OverflowError:  # an integer past float range
        number = math.inf
    if not math.isfinite(number):
        raise _fail(_join(path, key), "a finite number", value)
    value = number
    if lo is not None and (value <= lo if open_lo else value < lo):
        raise _fail(_join(path, key), _domain(lo, hi, open_lo, open_hi), value)
    if hi is not None and (value >= hi if open_hi else value > hi):
        raise _fail(_join(path, key), _domain(lo, hi, open_lo, open_hi), value)
    section[key] = value
    return value


def _integer(section: dict, path: str, key: str, lo=None, hi=None, default=None):
    value = section.setdefault(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(_join(path, key), "an integer", value)
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        raise _fail(_join(path, key), _domain(lo, hi, False, False, "an integer"), value)
    return value


def _domain(lo, hi, open_lo, open_hi, kind: str = "a number") -> str:
    left = "(" if open_lo else "["
    right = ")" if open_hi else "]"
    return f"{kind} in {left}{lo if lo is not None else '-inf'}, {hi if hi is not None else 'inf'}{right}"


def _choice(section: dict, path: str, key: str, options: Sequence[str], default=None):
    value = section.setdefault(key, default)
    if value not in options:
        raise _fail(_join(path, key), f"one of {list(options)}", value)
    return value


class PolicyConfig(NamedTuple):
    family: str
    alpha: float | None = None
    init: str | None = None
    state_key: str | None = None


def _parse_policy(section: dict, path: str, *, allow_copy: bool) -> PolicyConfig:
    _require_keys(section, path, ["family", "alpha", "init", "state_key"], ["family"])
    family = _choice(section, path, "family", POLICY_FAMILIES)
    if family == "target_following":
        _require_keys(section, path, ["family", "alpha"], ["family", "alpha"])
        alpha = _number(section, path, "alpha", 0.0, 1.0, open_lo=True, open_hi=True)
        return PolicyConfig(family=family, alpha=alpha)
    _require_keys(section, path, ["family", "init", "state_key"], ["family"])
    init = _choice(section, path, "init", TABULAR_INITS, default="zeros")
    if init == "copy_of_mu" and not allow_copy:
        raise _fail(f"{path}.init", "'zeros' (only pi may copy mu)", init)
    state_key = _choice(section, path, "state_key", TabularSoftmaxPolicy.STATE_KEYS, default="prefix")
    return PolicyConfig(family=family, init=init, state_key=state_key)


def _parse_mask(section: dict, path: str) -> MaskSpec:
    known = ["kind", "eps_low", "eps_high", "delta", "beta"]
    _require_keys(section, path, known, ["kind"])
    kind = _choice(section, path, "kind", MASK_KINDS)
    params = {"grpo_ratio": ["eps_low", "eps_high"], "tv": ["delta"], "kl": ["delta"], "icepop": ["beta"]}
    _require_keys(section, path, known, params.get(kind, []))
    kwargs: dict[str, float] = {}
    if kind == "grpo_ratio":
        kwargs["eps_low"] = _number(section, path, "eps_low", 0.0, 1.0, open_lo=True, open_hi=True)
        kwargs["eps_high"] = _number(section, path, "eps_high", 0.0, open_lo=True)
    elif kind in ("tv", "kl"):
        kwargs["delta"] = _number(section, path, "delta", 0.0, open_lo=True)
    elif kind == "icepop":
        kwargs["beta"] = _number(section, path, "beta", 1.0, open_lo=True)
    allowed = {"kind", *kwargs}
    for key in section:
        if key not in allowed:
            raise ConfigError(f"config key '{path}.{key}' does not apply to mask kind {kind!r}")
    return MaskSpec(kind, **kwargs)


class RunConfig(NamedTuple):
    """Fully validated run description."""

    mdp: TokenMdp
    mu: PolicyConfig
    pi: PolicyConfig
    objective: ObjectiveSpec
    group_size: int
    steps: int
    learning_rate: float
    trials: int
    alpha_conf: float
    n_list: tuple[int, ...]
    rollout_refresh: int
    seed: int
    echo: str

    def build_mu(self):
        return _build_policy(self.mu, self.mdp, mu=None)

    def build_pi(self, mu=None):
        """The target policy; a ``copy_of_mu`` pi copies ``mu``, which is built
        here when not given."""
        if mu is None and self.pi.init == "copy_of_mu":
            mu = self.build_mu()
        return _build_policy(self.pi, self.mdp, mu)

    def to_dict(self) -> dict:
        """Canonical echo: the parsed document, with every default filled in and
        every number-valued key a float; parsing it again reproduces this config."""
        return json.loads(self.echo)


def _build_policy(cfg: PolicyConfig, mdp: TokenMdp, mu):
    if cfg.family == "target_following":
        return TargetFollowingPolicy(mdp, cfg.alpha)
    if cfg.init == "copy_of_mu":
        return TabularSoftmaxPolicy.from_policy(mdp, mu, state_key=cfg.state_key)
    return TabularSoftmaxPolicy.zeros(mdp, state_key=cfg.state_key)


def parse_config(data: dict) -> RunConfig:
    """Validate a config document.  Parsing works on a copy of ``data``; each
    validated value is written back into the copy, which becomes the echo."""
    data = copy.deepcopy(data)
    _require_keys(
        data,
        "",
        ["mdp", "policies", "objective", "experiment", "seed", "enumeration_cap"],
        ["mdp", "policies", "objective", "experiment"],
    )

    mdp_section = data["mdp"]
    _require_keys(mdp_section, "mdp", ["vocab", "horizon", "target"], ["vocab", "horizon", "target"])
    vocab = mdp_section["vocab"]
    if (
        not isinstance(vocab, list)
        or len(vocab) < 2
        or any(not (isinstance(v, str) and len(v) == 1) for v in vocab)
        or len(set(vocab)) != len(vocab)
    ):
        raise _fail("mdp.vocab", "a list of >= 2 distinct single-character strings", vocab)
    horizon = _integer(mdp_section, "mdp", "horizon", lo=1)
    target = mdp_section["target"]
    if not isinstance(target, str) or not target or not set(target) <= set(vocab):
        raise _fail("mdp.target", "a non-empty string over the vocab", target)
    cap = _integer(data, "", "enumeration_cap", lo=1, default=DEFAULT_ENUMERATION_CAP)
    mdp = TokenMdp.from_symbols(vocab, horizon, target, cap)

    policies = data["policies"]
    _require_keys(policies, "policies", ["mu", "pi"], ["mu", "pi"])
    mu_cfg = _parse_policy(policies["mu"], "policies.mu", allow_copy=False)
    pi_cfg = _parse_policy(policies["pi"], "policies.pi", allow_copy=True)

    objective = data["objective"]
    _require_keys(
        objective,
        "objective",
        ["kind", "N", "beta", "eps_low", "eps_high", "mask"],
        ["kind"],
    )
    kind = _choice(objective, "objective", "kind", OBJECTIVE_KINDS)
    n_step = _integer(objective, "objective", "N", lo=1, hi=mdp.horizon, default=min(4, mdp.horizon))
    beta = _number(objective, "objective", "beta", 1.0, open_lo=True, default=3.0)
    eps_low = _number(objective, "objective", "eps_low", 0.0, 1.0, open_lo=True, open_hi=True, default=0.2)
    eps_high = _number(objective, "objective", "eps_high", 0.0, open_lo=True, default=0.4)
    mask = _parse_mask(objective.setdefault("mask", {"kind": "none"}), "objective.mask")
    spec = ObjectiveSpec(
        kind=kind, n_step=n_step, beta=beta, eps_low=eps_low, eps_high=eps_high, mask=mask
    )

    experiment = data["experiment"]
    _require_keys(
        experiment,
        "experiment",
        ["G", "steps", "learning_rate", "trials", "alpha_conf", "N_list", "rollout_refresh"],
        [],
    )
    group_size = _integer(experiment, "experiment", "G", lo=1, default=8)
    if group_size > sys.float_info.max:  # the Hoeffding term divides by G as a float
        raise _fail("experiment.G", "an integer within float range", group_size)
    steps = _integer(experiment, "experiment", "steps", lo=1, default=500)
    learning_rate = _number(experiment, "experiment", "learning_rate", 0.0, default=0.1)
    trials = _integer(experiment, "experiment", "trials", lo=1, default=2000)
    alpha_conf = _number(
        experiment, "experiment", "alpha_conf", 0.0, 1.0, open_lo=True, open_hi=True, default=0.05
    )
    # Every command takes one step per token, so a horizon past the cap is refused
    # here, before the default N_list's T windows or a command's first step.
    if "N_list" in experiment:
        check_enumeration_cap(mdp, mdp.horizon, "mdp.horizon (one step per token)")
    else:
        check_enumeration_cap(mdp, mdp.horizon, "the default experiment.N_list (one window per token)")
        experiment["N_list"] = list(range(1, mdp.horizon + 1))
    n_list_raw = experiment["N_list"]
    if (
        not isinstance(n_list_raw, list)
        or not n_list_raw
        or any(isinstance(n, bool) or not isinstance(n, int) for n in n_list_raw)
        or any(not 1 <= n <= mdp.horizon for n in n_list_raw)
    ):
        raise _fail("experiment.N_list", f"a non-empty list of integers in [1, {mdp.horizon}]", n_list_raw)
    rollout_refresh = _integer(experiment, "experiment", "rollout_refresh", lo=1, default=1)

    seed = _integer(data, "", "seed", lo=0, default=0)

    return RunConfig(
        mdp=mdp,
        mu=mu_cfg,
        pi=pi_cfg,
        objective=spec,
        group_size=group_size,
        steps=steps,
        learning_rate=learning_rate,
        trials=trials,
        alpha_conf=alpha_conf,
        n_list=tuple(n_list_raw),
        rollout_refresh=rollout_refresh,
        seed=seed,
        echo=json.dumps(data, sort_keys=True),
    )


def apply_overrides(data: dict, assignments: Sequence[str]) -> dict:
    """Apply ``--set path.to.key=value`` overrides onto a raw config dict.

    Values parse as JSON when possible (so numbers, lists, and objects all
    work) and fall back to plain strings.
    """
    if not isinstance(data, dict):
        raise _fail("<root>", "an object", data)
    out = copy.deepcopy(data)
    for assignment in assignments:
        if "=" not in assignment:
            raise ConfigError(f"override {assignment!r} is not of the form key=value")
        path, raw_value = assignment.split("=", 1)
        keys = path.split(".")
        if not all(keys):
            raise ConfigError(f"override {assignment!r} has an empty key segment")
        try:
            value = json.loads(raw_value)
        except json.JSONDecodeError:
            value = raw_value
        except ValueError as exc:  # valid JSON that Python refuses, e.g. an integer past 4300 digits
            raise ConfigError(f"config key '{path}': cannot read override value: {exc}") from exc
        cursor = out
        for key in keys[:-1]:
            cursor = cursor.setdefault(key, {})
            if not isinstance(cursor, dict):
                raise ConfigError(f"override path '{path}' crosses a non-object value")
        cursor[keys[-1]] = value
    return out


def config_hash(echo: dict) -> str:
    canonical = json.dumps(echo, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
