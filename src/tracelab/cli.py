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
from pathlib import Path
from typing import Sequence

import numpy as np

from .bounds import theorem_lower_bound, verify_coverage
from .config import RunConfig, apply_overrides, config_hash, default_config, parse_config
from .errors import ConfigError, TracelabError
from .lab import (
    SweepRow,
    TrainRecord,
    alternating_profile,
    bias_variance_sweep,
    dynamics_report,
    train,
)
from .policies import policy_rows
from .weights import group_log_ratios, sample_from_table

# Each CSV row is one record as it is; the header is its field names, the sweep's window named N.
SWEEP_COLUMNS = ("N",) + SweepRow._fields[1:]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracelab",
        description="""Exact-enumeration lab for forward-trace policy optimization

commands:
  sweep    bias/variance sweep over trace window sizes
  train    gradient-ascent training of a tabular policy
  analyze  token-weighting dynamics metrics on sampled rollouts
  verify   improvement-bound report and Monte Carlo coverage check""",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", type=Path, default=None, help="JSON config file")
    parser.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    parser.add_argument("--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config leaf, e.g. --set objective.N=2")
    return parser


def _load_config(args) -> RunConfig:
    if args.config is None:
        raw = default_config()
    else:
        try:
            raw = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except ValueError as exc:  # malformed JSON, or an integer past 4300 digits
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


def _csv(columns: Sequence[str], rows) -> str:
    lines = [",".join(columns)]
    lines.extend(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


# Each command returns its output's file name, its body (CSV text, or JSON sections) and its exit code.


def _cmd_sweep(cfg: RunConfig):
    mu = cfg.build_mu()
    rows = bias_variance_sweep(cfg.mdp, cfg.build_pi(mu), mu, cfg.n_list, cfg.group_size, cfg.alpha_conf)
    return "sweep.csv", _csv(SWEEP_COLUMNS, rows), 0


def _cmd_train(cfg: RunConfig):
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
    return "train.csv", _csv(TrainRecord._fields, records), 0


def _cmd_analyze(cfg: RunConfig):
    if cfg.mdp.horizon < 2:
        raise ConfigError(f"config key 'mdp.horizon': analyze needs T >= 2, got {cfg.mdp.horizon}")
    mu = cfg.build_mu()
    group = sample_from_table(cfg.mdp, mu, cfg.group_size, np.random.default_rng(cfg.seed))
    rho = np.exp(group_log_ratios(group, policy_rows(cfg.build_pi(mu), cfg.mdp)))
    length = max(50, cfg.objective.n_step)  # the demo profile holds every window the config accepts
    demo = dynamics_report(alternating_profile(0.2, length)[None], cfg.objective)
    sections = {
        "dynamics": dynamics_report(rho, cfg.objective)._asdict(),
        "smoothing": {
            "amplitude": 0.2,
            "length": length,
            "n_step": cfg.objective.n_step,
            "switch_freq_rho": demo.switch_freq_rho,
            "switch_freq_traced": demo.switch_freq_trace,
        },
    }
    return "analyze.json", sections, 0


def _cmd_verify(cfg: RunConfig):
    mu = cfg.build_mu()
    mu_rows, pi_rows = policy_rows(mu, cfg.mdp), policy_rows(cfg.build_pi(mu), cfg.mdp)
    group = sample_from_table(cfg.mdp, mu_rows, cfg.group_size, np.random.default_rng(cfg.seed))
    report = theorem_lower_bound(group, pi_rows, cfg.objective.n_step, cfg.alpha_conf)
    coverage = verify_coverage(cfg.mdp, pi_rows, mu_rows, report, cfg.trials, seed=cfg.seed + 1)
    nominal = 1.0 - cfg.alpha_conf
    threshold = nominal - 3.0 * math.sqrt(nominal * cfg.alpha_conf / cfg.trials)
    passed = coverage >= threshold
    sections = {
        "bound_report": report._asdict(),
        "coverage": coverage,
        "trials": cfg.trials,
        "threshold": threshold,
        "passed": passed,
    }
    return "verify.json", sections, 0 if passed else 2


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
        name, body, code = _COMMANDS[args.command](cfg)
        out_dir = Path(args.out)  # made only once the command has returned, so a refusal leaves none
        out_dir.mkdir(parents=True, exist_ok=True)
        echo = cfg.to_dict()
        stamp = {"config_hash": config_hash(echo), "seed": cfg.seed}
        if isinstance(body, str):
            _atomic_write(out_dir / name, "# config_hash={config_hash} seed={seed}\n".format(**stamp) + body)
        else:
            _write_json(out_dir / name, {**stamp, **body})
        manifest = {"command": args.command, "config": echo, **stamp, "outputs": [name]}
        _write_json(out_dir / "run_manifest.json", manifest)
        return code
    except (ConfigError, TracelabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
