"""The two benchmark workloads and the checks on their outputs.

Each workload is one ``tracelab`` subcommand plus ``--set`` overrides.  The
overrides name every knob the workload depends on, so a change to the
built-in default config does not silently change the benchmark.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE = Path(__file__).resolve().parent / "reference.json"

MU = {"family": "target_following", "alpha": 0.5}
PI_FOLLOW = {"family": "target_following", "alpha": 0.8}
PI_TABULAR = {"family": "tabular_softmax", "init": "copy_of_mu", "state_key": "prefix"}

# Exact quantities must match the stored reference to this relative
# tolerance, scaled by max(1, |reference|).
EXACT_TOL = 1e-12
# The N = T row of the sweep recovers the exact improvement to this tolerance.
IDENTITY_TOL = 1e-10


class CheckError(Exception):
    """A workload's outputs are wrong."""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    settings: dict
    unit_name: str  # what one unit of work is, for the throughput metric
    unit_key: str  # the setting that counts those units
    output: str  # the file the subcommand writes
    check: Callable[[Path, dict], None]

    @property
    def units(self) -> int:
        value = self.settings[self.unit_key]
        return len(value) if isinstance(value, list) else value

    def overrides(self, seed: int) -> list[str]:
        """The ``--set`` values for one seed, as the CLI takes them."""
        items = dict(self.settings, seed=seed)
        return [f"{key}={json.dumps(value)}" for key, value in items.items()]

    def argv(self, seed: int, out_dir: Path) -> list[str]:
        args = [self.command, "--out", str(out_dir)]
        for item in self.overrides(seed):
            args += ["--set", item]
        return args


def _close(value: float, expected: float, tol: float = EXACT_TOL) -> bool:
    return abs(value - expected) <= tol * max(1.0, abs(expected))


def csv_rows(path: Path) -> tuple[list[str], list[list[float]]]:
    """Header and float rows of a CLI CSV, skipping its ``#`` stamp line."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    return header, [[float(v) for v in line.split(",")] for line in lines[1:]]


def check_sweep(out_dir: Path, reference: dict) -> None:
    header, rows = csv_rows(out_dir / "sweep.csv")
    ref = reference["sweep_t11"]
    if header != ref["columns"]:
        raise CheckError(f"sweep.csv columns {header} != {ref['columns']}")
    if len(rows) != len(ref["rows"]):
        raise CheckError(f"sweep.csv has {len(rows)} rows, expected {len(ref['rows'])}")
    horizon = max(int(r[0]) for r in ref["rows"])
    col = {name: i for i, name in enumerate(header)}
    for row, expected in zip(rows, ref["rows"]):
        for name, value, want in zip(header, row, expected):
            if not _close(value, want):
                raise CheckError(f"sweep N={int(row[0])} {name}={value!r}, reference {want!r}")
        if int(row[0]) == horizon:
            gap = abs(row[col["population_surrogate"]] - row[col["exact_improvement"]])
            if not gap <= IDENTITY_TOL:
                raise CheckError(f"N=T surrogate misses the exact improvement by {gap}")


def check_train(out_dir: Path, reference: dict) -> None:
    header, rows = csv_rows(out_dir / "train.csv")
    col = header.index("exact_return")
    first, last = rows[0][col], rows[-1][col]
    if not (math.isfinite(last) and last > first):
        raise CheckError(f"training did not improve exact_return: {first!r} -> {last!r}")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train_t7",
            command="train",
            settings={
                "mdp.horizon": 7,
                "policies.mu": MU,
                "policies.pi": PI_TABULAR,
                "objective.kind": "nfpo",
                "objective.N": 4,
                "objective.mask": {"kind": "tv", "delta": 0.2},
                "experiment.G": 8,
                "experiment.rollout_refresh": 4,
                "experiment.steps": 100,
            },
            unit_name="train_steps",
            unit_key="experiment.steps",
            output="train.csv",
            check=check_train,
        ),
        Workload(
            name="sweep_t11",
            command="sweep",
            settings={
                "mdp.horizon": 11,
                "policies.mu": MU,
                "policies.pi": PI_FOLLOW,
                "experiment.G": 8,
                "experiment.N_list": list(range(1, 12)),
            },
            unit_name="sweep_windows",
            unit_key="experiment.N_list",
            output="sweep.csv",
            check=check_sweep,
        ),
    )
}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())
