"""Deterministic command-line front end.

Every subcommand reads one JSON config (the built-in toy default when no
file is given), runs a fully seeded experiment, and writes plot-ready CSV
or JSON plus a manifest echoing the complete config.  Identical config and
seed produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import astuple, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .bounds import theorem_lower_bound, verify_coverage
from .config import (
    RunConfig,
    apply_overrides,
    config_hash,
    default_config,
    parse_config,
)
from .errors import ConfigError, TracelabError
from .lab import (
    SweepRow,
    TrainRecord,
    alternating_profile,
    bias_variance_sweep,
    dynamics_report,
    smoothing_demo,
    train,
)
from .policies import policy_rows
from .weights import group_log_ratios, sample_from_table

# Each CSV row is one record dataclass as a tuple; the header names its fields.
SWEEP_COLUMNS = ("N",) + tuple(f.name for f in fields(SweepRow))[1:]
TRAIN_COLUMNS = tuple(f.name for f in fields(TrainRecord))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracelab",
        description="Exact-enumeration lab for forward-trace policy optimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("sweep", "bias/variance sweep over trace window sizes"),
        ("train", "gradient-ascent training of a tabular policy"),
        ("analyze", "token-weighting dynamics metrics on sampled rollouts"),
        ("verify", "improvement-bound report and Monte Carlo coverage check"),
    ):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", type=Path, default=None, help="JSON config file")
        cmd.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        cmd.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config leaf, e.g. --set objective.N=2",
        )
    return parser


def _load_config(args) -> RunConfig:
    if args.config is None:
        raw = default_config()
    else:
        try:
            raw = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return parse_config(apply_overrides(raw, args.overrides))


def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)  # mkstemp creates 0600; outputs honour the umask
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def _write_json(path: Path, payload: dict) -> None:
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _format(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, columns: Sequence[str], rows, stamp: str) -> None:
    lines = [stamp, ",".join(columns)]
    lines.extend(",".join(_format(v) for v in row) for row in rows)
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_manifest(out_dir: Path, command: str, cfg: RunConfig, outputs: list[str]) -> None:
    echo = cfg.to_dict()
    manifest = {
        "command": command,
        "config": echo,
        "config_hash": config_hash(echo),
        "seed": cfg.seed,
        "outputs": outputs,
    }
    _write_json(out_dir / "run_manifest.json", manifest)


def _stamp(cfg: RunConfig) -> str:
    return f"# config_hash={config_hash(cfg.to_dict())} seed={cfg.seed}"


def _cmd_sweep(cfg: RunConfig, out_dir: Path) -> int:
    rows = bias_variance_sweep(
        cfg.mdp,
        cfg.build_pi(),
        cfg.build_mu(),
        cfg.n_list,
        cfg.group_size,
        cfg.alpha_conf,
    )
    _write_csv(out_dir / "sweep.csv", SWEEP_COLUMNS, map(astuple, rows), _stamp(cfg))
    _write_manifest(out_dir, "sweep", cfg, ["sweep.csv"])
    return 0


def _cmd_train(cfg: RunConfig, out_dir: Path) -> int:
    if cfg.pi.family != "tabular_softmax":
        raise ConfigError(
            "config key 'policies.pi.family': train needs 'tabular_softmax', "
            f"got {cfg.pi.family!r}"
        )
    records = train(
        cfg.mdp,
        cfg.build_pi(),
        cfg.objective,
        steps=cfg.steps,
        learning_rate=cfg.learning_rate,
        group_size=cfg.group_size,
        seed=cfg.seed,
        rollout_refresh=cfg.rollout_refresh,
    )
    _write_csv(out_dir / "train.csv", TRAIN_COLUMNS, map(astuple, records), _stamp(cfg))
    _write_manifest(out_dir, "train", cfg, ["train.csv"])
    return 0


def _cmd_analyze(cfg: RunConfig, out_dir: Path) -> int:
    if cfg.mdp.horizon < 2:
        raise ConfigError(f"config key 'mdp.horizon': analyze needs T >= 2, got {cfg.mdp.horizon}")
    mu_rows = policy_rows(cfg.build_mu(), cfg.mdp)
    pi_rows = policy_rows(cfg.build_pi(), cfg.mdp)
    group = sample_from_table(cfg.mdp, mu_rows, cfg.group_size, np.random.default_rng(cfg.seed))
    rho = np.exp(group_log_ratios(group, pi_rows, mu_rows))
    spec = cfg.objective
    report = dynamics_report(rho, spec.n_step, spec.beta, spec.eps_low, spec.eps_high)
    demo_profile = alternating_profile(0.2, 50)
    before, after = smoothing_demo(
        demo_profile, spec.n_step, spec.beta, spec.eps_low, spec.eps_high
    )
    payload = {
        "config_hash": config_hash(cfg.to_dict()),
        "seed": cfg.seed,
        "dynamics": report.to_dict(),
        "smoothing": {
            "amplitude": 0.2,
            "length": 50,
            "n_step": spec.n_step,
            "switch_freq_rho": before,
            "switch_freq_traced": after,
        },
    }
    _write_json(out_dir / "analyze.json", payload)
    _write_manifest(out_dir, "analyze", cfg, ["analyze.json"])
    return 0


def _cmd_verify(cfg: RunConfig, out_dir: Path) -> int:
    mu = cfg.build_mu()
    pi = cfg.build_pi()
    rng = np.random.default_rng(cfg.seed)
    group = sample_from_table(cfg.mdp, policy_rows(mu, cfg.mdp), cfg.group_size, rng)
    report = theorem_lower_bound(group, pi, mu, cfg.objective.n_step, cfg.alpha_conf)
    coverage = verify_coverage(
        cfg.mdp,
        pi,
        mu,
        cfg.objective.n_step,
        cfg.group_size,
        cfg.alpha_conf,
        cfg.trials,
        seed=cfg.seed + 1,
    )
    nominal = 1.0 - cfg.alpha_conf
    threshold = nominal - 3.0 * math.sqrt(nominal * cfg.alpha_conf / cfg.trials)
    passed = coverage >= threshold
    payload = {
        "config_hash": config_hash(cfg.to_dict()),
        "seed": cfg.seed,
        "bound_report": report.to_dict(),
        "coverage": coverage,
        "trials": cfg.trials,
        "threshold": threshold,
        "passed": passed,
    }
    _write_json(out_dir / "verify.json", payload)
    _write_manifest(out_dir, "verify", cfg, ["verify.json"])
    return 0 if passed else 2


_COMMANDS = {
    "sweep": _cmd_sweep,
    "train": _cmd_train,
    "analyze": _cmd_analyze,
    "verify": _cmd_verify,
}


def run(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out_dir)
    except (ConfigError, TracelabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
