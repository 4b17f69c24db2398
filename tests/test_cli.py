import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tracelab import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    TargetFollowingPolicy,
    objective_value,
    theorem_lower_bound,
)
from tracelab import cli as cli_module
from tracelab import lab, objectives, policies
from tracelab.cli import run
from tracelab.config import (
    apply_overrides,
    config_hash,
    default_config,
    parse_config,
)
from tracelab.errors import ConfigError
from helpers import sample_group

SRC = Path(__file__).resolve().parent.parent / "src"
COPY_OF_MU = 'policies.pi={"family":"tabular_softmax","init":"copy_of_mu"}'
# Runs argv[1:] from a small interpreter and prints its exit code and peak RSS
# in MB.  A child started straight from the test process would report the
# test process's own high-water mark instead.
PEAK_RSS = """
import os, sys
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0)
"""


def _read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    return lines[0], lines[1].split(","), [line.split(",") for line in lines[2:]]


class TestConfigParsing:
    def test_default_config_parses(self):
        cfg = parse_config(default_config())
        assert cfg.mdp.horizon == 7
        assert cfg.objective.kind == "nfpo"
        assert cfg.n_list == tuple(range(1, 8))

    def test_echo_round_trips(self):
        cfg = parse_config(default_config())
        assert parse_config(cfg.to_dict()) == cfg

    def test_unknown_key_named(self):
        raw = default_config()
        raw["mdp"]["reward_scale"] = 2.0
        with pytest.raises(ConfigError, match="mdp.reward_scale"):
            parse_config(raw)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("policies.mu.alpha", "1.5"),
            ("experiment.learning_rate", "NaN"),
            ("objective.beta", "NaN"),
            ("mdp.reward_bound", "Infinity"),
            ("enumeration_cap", "0"),
            ("mdp.target", '"abx"'),
        ],
    )
    def test_domain_violation_named(self, key, value):
        raw = apply_overrides(default_config(), [f"{key}={value}"])
        with pytest.raises(ConfigError, match=key):
            parse_config(raw)

    def test_integer_range_named_as_integer(self):
        raw = apply_overrides(default_config(), ["experiment.G=0"])
        with pytest.raises(ConfigError, match=r"'experiment.G': expected an integer in \[1, inf\], got 0"):
            parse_config(raw)

    def test_window_must_fit_horizon(self):
        raw = apply_overrides(default_config(), ["objective.N=9"])
        with pytest.raises(ConfigError, match="objective.N"):
            parse_config(raw)

    def test_mask_params_checked_per_kind(self):
        raw = apply_overrides(default_config(), ["objective.mask.beta=3.0"])
        with pytest.raises(ConfigError, match="objective.mask.beta"):
            parse_config(raw)

    def test_override_parses_json_values(self):
        raw = apply_overrides(default_config(), ["experiment.N_list=[1,7]", "seed=9"])
        cfg = parse_config(raw)
        assert cfg.n_list == (1, 7)
        assert cfg.seed == 9

    def test_hash_is_stable(self):
        a = config_hash(parse_config(default_config()).to_dict())
        b = config_hash(parse_config(default_config()).to_dict())
        assert a == b and len(a) == 64


class TestEnumerationCap:
    """The config's cap lives on the MDP, so every enumeration and every
    state-indexed table of a run is checked against it before it is built."""

    def test_cap_rides_on_the_mdp(self):
        assert default_config()["enumeration_cap"] == DEFAULT_ENUMERATION_CAP
        cfg = parse_config(apply_overrides(default_config(), ["enumeration_cap=5000"]))
        assert cfg.mdp.enumeration_cap == 5000
        assert cfg.to_dict()["enumeration_cap"] == 5000
        assert parse_config(default_config()).mdp.enumeration_cap == DEFAULT_ENUMERATION_CAP

    @pytest.mark.parametrize(
        "command,horizon,overrides",
        [
            ("verify", 13, ["experiment.trials=10"]),
            ("train", 12, ["experiment.steps=2", COPY_OF_MU]),
        ],
    )
    def test_cap_bounds_child_memory(self, tmp_path, command, horizon, overrides):
        """A capped run fails before it builds any table: its peak RSS stays
        within a few MB of the interpreter with numpy loaded, less than one
        [n_states, V] table (19 MB at T=13, 6 MB at T=12) would add."""
        sets = [f"mdp.horizon={horizon}", "enumeration_cap=100", *overrides]
        argv = ["-m", "tracelab.cli", command, "--out", str(tmp_path)]
        argv += [arg for s in sets for arg in ("--set", s)]
        env = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
        runs = [
            subprocess.run(
                [sys.executable, "-c", PEAK_RSS, sys.executable, *cmd],
                env=env, capture_output=True, text=True, check=True,
            )
            for cmd in (["-c", "import numpy, tracelab.cli"], argv)
        ]
        (_, base_rss), (code, rss) = (run.stdout.split() for run in runs)
        assert int(code) == 1
        assert f"needs {(3**horizon - 1) // 2} items, cap is 100" in runs[1].stderr
        assert list(tmp_path.iterdir()) == []
        assert float(rss) - float(base_rss) < 5.0, (base_rss, rss)

    def test_cap_checked_before_allocation(self):
        raw = apply_overrides(
            default_config(), ["mdp.horizon=12", "enumeration_cap=100", COPY_OF_MU]
        )
        cfg = parse_config(raw)
        mu, pi = cfg.build_mu(), TargetFollowingPolicy(cfg.mdp, 0.8)
        group = sample_group(cfg.mdp, mu, 8, np.random.default_rng(0))
        # Target-following rows need no table; a bound reads state tables,
        # which the cap refuses.
        assert np.isfinite(objective_value(group, pi, mu, cfg.objective).value)
        calls = [cfg.build_pi, lambda: theorem_lower_bound(group, pi, mu, 4, 0.05)]
        for call in calls:
            tracemalloc.start()
            try:
                with pytest.raises(EnumerationCapError, match="cap is 100"):
                    call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20


    def test_sweep_refuses_before_any_table(self, tmp_path, capsys):
        """1093 states fit under the cap, 2187 trajectories do not: the pass
        is refused before either policy table is built."""
        calls = []
        inner = policies.policy_prob_table

        def counted(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            for module in (policies, objectives, lab, cli_module):
                if getattr(module, "policy_prob_table", None) is inner:
                    patch.setattr(module, "policy_prob_table", counted)
            code = run(["sweep", "--out", str(tmp_path), "--set", "enumeration_cap=2000"])
        assert code == 1
        assert "needs 2187 items, cap is 2000" in capsys.readouterr().err
        assert calls == []
        assert list(tmp_path.iterdir()) == []


class TestSweepCommand:
    def test_default_run_produces_seven_rows(self, tmp_path):
        assert run(["sweep", "--out", str(tmp_path)]) == 0
        stamp, header, rows = _read_csv(tmp_path / "sweep.csv")
        assert header[0] == "N"
        assert len(rows) == 7
        assert [r[0] for r in rows] == [str(n) for n in range(1, 8)]

    def test_byte_identical_reruns_and_worker_invariance(self, tmp_path):
        run(["sweep", "--out", str(tmp_path / "a")])
        run(["sweep", "--out", str(tmp_path / "b")])
        for name in ("sweep.csv", "run_manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_manifest_round_trip(self, tmp_path):
        run(["sweep", "--out", str(tmp_path)])
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        cfg = parse_config(manifest["config"])
        assert config_hash(cfg.to_dict()) == manifest["config_hash"]
        assert manifest["outputs"] == ["sweep.csv"]

    def test_no_temp_files_left(self, tmp_path):
        run(["sweep", "--out", str(tmp_path)])
        assert not list(tmp_path.glob("*.tmp"))

    def test_stale_temp_directory_ignored(self, tmp_path):
        (tmp_path / "sweep.csv.tmp").mkdir()
        umask = os.umask(0o022)
        try:
            assert run(["sweep", "--out", str(tmp_path)]) == 0
        finally:
            os.umask(umask)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["run_manifest.json", "sweep.csv", "sweep.csv.tmp"]
        assert (tmp_path / "sweep.csv").stat().st_mode & 0o777 == 0o644

    def test_invalid_config_exits_one(self, tmp_path, capsys):
        code = run(["sweep", "--out", str(tmp_path), "--set", "policies.mu.alpha=1.5"])
        assert code == 1
        assert "policies.mu.alpha" in capsys.readouterr().err

    def test_output_path_naming_a_file_exits_one(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert run(["sweep", "--out", str(taken)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_config_file_loaded(self, tmp_path):
        config_path = tmp_path / "cfg.json"
        raw = default_config()
        raw["experiment"]["N_list"] = [1, 4, 7]
        config_path.write_text(json.dumps(raw))
        assert run(["sweep", "--config", str(config_path), "--out", str(tmp_path)]) == 0
        _, _, rows = _read_csv(tmp_path / "sweep.csv")
        assert len(rows) == 3


class TestTrainCommand:
    def test_needs_tabular_target(self, tmp_path, capsys):
        code = run(["train", "--out", str(tmp_path), "--set", "experiment.steps=2"])
        assert code == 1
        assert "tabular_softmax" in capsys.readouterr().err

    def test_short_training_run(self, tmp_path):
        overrides = [
            "--set", 'policies.pi={"family":"tabular_softmax","init":"copy_of_mu","state_key":"match_length"}',
            "--set", "experiment.steps=5",
        ]
        assert run(["train", "--out", str(tmp_path), *overrides]) == 0
        _, header, rows = _read_csv(tmp_path / "train.csv")
        assert header == ["step", "objective", "exact_return", "dtv_max", "grad_norm"]
        assert len(rows) == 5
        assert float(rows[0][2]) == pytest.approx(0.0625, abs=1e-9)


class TestAnalyzeCommand:
    def test_report_structure(self, tmp_path):
        assert run(["analyze", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "analyze.json").read_text())
        assert set(payload["dynamics"]) == {
            "correction_strength_rho",
            "correction_strength_trace",
            "switch_freq_rho",
            "switch_freq_trace",
            "trace_variance",
        }
        assert payload["smoothing"]["switch_freq_rho"] == 1.0
        assert payload["smoothing"]["switch_freq_traced"] < 1.0

    def test_single_token_horizon_named(self, tmp_path, capsys):
        args = ["analyze", "--out", str(tmp_path)]
        for item in ("mdp.horizon=1", "objective.N=1", "experiment.N_list=[1]"):
            args += ["--set", item]
        assert run(args) == 1
        assert "config key 'mdp.horizon'" in capsys.readouterr().err
        assert not (tmp_path / "analyze.json").exists()

    def test_long_horizon_needs_no_state_ids(self, tmp_path):
        """At T=45 state ids overflow int64 and raise; target-following rows
        are keyed by match length, so analyze never asks for them."""
        assert run(["analyze", "--out", str(tmp_path), "--set", "mdp.horizon=45"]) == 0
        payload = json.loads((tmp_path / "analyze.json").read_text())
        assert 0.0 < payload["dynamics"]["correction_strength_rho"] < 1.0


class TestVerifyCommand:
    def test_identical_policies_pass(self, tmp_path):
        code = run(
            [
                "verify",
                "--out", str(tmp_path),
                "--set", "policies.pi.alpha=0.5",
                "--set", "experiment.trials=100",
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "verify.json").read_text())
        assert payload["coverage"] == 1.0
        assert payload["passed"] is True

    def test_toy_pair_passes_quickly(self, tmp_path):
        code = run(["verify", "--out", str(tmp_path), "--set", "experiment.trials=200"])
        assert code == 0
        payload = json.loads((tmp_path / "verify.json").read_text())
        assert payload["bound_report"]["dtv_max"] == pytest.approx(0.3)
