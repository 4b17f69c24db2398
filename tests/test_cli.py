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
    MASK_NONE,
    EnumerationCapError,
    MaskSpec,
    TabularSoftmaxPolicy,
    TargetFollowingPolicy,
    TokenMdp,
    objective_gradient,
    sample_from_table,
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
from tracelab.weights import MASK_KINDS

SRC = Path(__file__).resolve().parent.parent / "src"
COPY_OF_MU = 'policies.pi={"family":"tabular_softmax","init":"copy_of_mu"}'
PREFIX_ZEROS = 'policies.pi={"family":"tabular_softmax","init":"zeros","state_key":"prefix"}'
# An integer that converts to no float.
PAST_FLOAT_RANGE = "1" + "0" * 400
# Runs argv[1:] from a small interpreter and prints its exit code and peak RSS
# in MB.  A child started straight from the test process would report the
# test process's own high-water mark instead.
PEAK_RSS = """
import os, sys
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0)
"""

# Runs one command through tracelab.cli.run in this fresh interpreter and prints
# its exit code and whether numpy.ma and numpy.random are loaded after it.
LOADED_MODULES = """
import sys
import tracelab.cli
code = tracelab.cli.run(sys.argv[1:])
print(code, "numpy.ma" in sys.modules, "numpy.random" in sys.modules)
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

    def test_reward_bound_is_the_rewards_maximum(self):
        """xi is the binary reward's maximum, not a knob: a config that names it is refused."""
        raw = apply_overrides(default_config(), ["mdp.reward_bound=1.0"])
        with pytest.raises(ConfigError, match="unknown config key 'mdp.reward_bound'"):
            parse_config(raw)
        assert TokenMdp.reward_bound == parse_config(default_config()).mdp.reward_bound == 1.0

    @pytest.mark.parametrize(
        "key,value",
        [
            ("policies.mu.alpha", "1.5"),
            ("experiment.learning_rate", "NaN"),
            ("objective.beta", "NaN"),
            ("enumeration_cap", "0"),
            ("mdp.target", '"abx"'),
            pytest.param("experiment.learning_rate", PAST_FLOAT_RANGE, id="experiment.learning_rate-1e400"),
            pytest.param("experiment.G", PAST_FLOAT_RANGE, id="experiment.G-1e400"),
            pytest.param("experiment.learning_rate", "1" * 5000, id="experiment.learning_rate-5000-digits"),
        ],
    )
    def test_domain_violation_named(self, key, value):
        with pytest.raises(ConfigError, match=key):
            parse_config(apply_overrides(default_config(), [f"{key}={value}"]))

    @pytest.mark.parametrize(
        "assignment,message",
        [
            ("policies.mu=3", "config key 'policies.mu': expected an object, got 3"),
            ('mdp={"vocab":["a","b"],"horizon":3}', "missing config key 'mdp.target'"),
            ('objective.mask={"kind":"grpo_ratio","eps_low":0.2}', "missing config key 'objective.mask.eps_high'"),
            ('objective.beta="big"', "config key 'objective.beta': expected a number, got 'big'"),
            (
                "experiment.learning_rate=-0.5",
                "config key 'experiment.learning_rate': expected a number in [0.0, inf], got -0.5",
            ),
            ("experiment.G=2.5", "config key 'experiment.G': expected an integer, got 2.5"),
            (
                'objective.kind="trpo"',
                "config key 'objective.kind': expected one of ['nfpo', 'mpg', 'ppo'], got 'trpo'",
            ),
            (
                'policies.mu={"family":"tabular_softmax","init":"copy_of_mu"}',
                "config key 'policies.mu.init': expected 'zeros' (only pi may copy mu), got 'copy_of_mu'",
            ),
            (
                'mdp.vocab=["a","a"]',
                "config key 'mdp.vocab': expected a list of >= 2 distinct single-character strings, got ['a', 'a']",
            ),
            (
                "experiment.N_list=[0]",
                "config key 'experiment.N_list': expected a non-empty list of integers in [1, 7], got [0]",
            ),
            ("seed", "override 'seed' is not of the form key=value"),
            ("mdp..horizon=3", "override 'mdp..horizon=3' has an empty key segment"),
            ("mdp.horizon.x=1", "override path 'mdp.horizon.x' crosses a non-object value"),
        ],
    )
    def test_refusal_message_names_the_key(self, assignment, message):
        with pytest.raises(ConfigError) as refused:
            parse_config(apply_overrides(default_config(), [assignment]))
        assert str(refused.value) == message

    def test_unreadable_config_file_named(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert run(["sweep", "--config", str(missing), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: cannot read config file: ")
        assert not (tmp_path / "out").exists()

    def test_config_file_past_the_digit_limit_named(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text('{"seed": %s}' % ("1" * 5000))
        assert run(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: config file is not valid JSON")

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

    @pytest.mark.parametrize(
        "mask,spec,foreign",
        [
            (
                {"kind": "grpo_ratio", "eps_low": 0.2, "eps_high": 0.3},
                MaskSpec("grpo_ratio", eps_low=0.2, eps_high=0.3),
                "delta",
            ),
            ({"kind": "tv", "delta": 0.2}, MaskSpec("tv", delta=0.2), "eps_high"),
            ({"kind": "kl", "delta": 0.1}, MaskSpec("kl", delta=0.1), "eps_low"),
            ({"kind": "icepop", "beta": 2}, MaskSpec("icepop", beta=2.0), "delta"),
            ({"kind": "none"}, MASK_NONE, "beta"),
        ],
        ids=MASK_KINDS,
    )
    def test_every_mask_kind_parses_and_round_trips(self, mask, spec, foreign):
        raw = default_config()
        raw["objective"]["mask"] = mask
        cfg = parse_config(raw)
        assert cfg.objective.mask == spec
        assert parse_config(cfg.to_dict()) == cfg
        raw["objective"]["mask"] = {**mask, foreign: 0.5}
        with pytest.raises(ConfigError, match=f"'objective.mask.{foreign}' does not apply to mask kind"):
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

    def test_default_echo_is_pinned(self):
        """The built-in default names only the toy problem; the parser fills in
        every other key, so the echo and every output's stamp stay put."""
        echo = parse_config(default_config()).to_dict()
        assert config_hash(echo) == "06b00e9f49ca950e92b9a06233e561bfb2eabe3b93995c840b1ed18faf6ef8ff"

    @pytest.mark.parametrize("override", ["seed=1", "a.b=1"])
    def test_override_on_a_non_object_root_named(self, tmp_path, capsys, override):
        path = tmp_path / "list.json"
        path.write_text("[]")
        code = run(["sweep", "--config", str(path), "--out", str(tmp_path / "out"), "--set", override])
        assert code == 1
        assert "config key '<root>': expected an object, got []" in capsys.readouterr().err


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
        "sets",
        [["mdp.horizon=1000", "enumeration_cap=100"], [f"mdp.horizon={PAST_FLOAT_RANGE}"]],
        ids=["T=1000-cap=100", "T=1e400"],
    )
    def test_default_n_list_held_to_the_cap(self, sets):
        """Left out, N_list defaults to the windows 1..T: T entries past the cap
        are refused before the list is built."""
        raw = apply_overrides(default_config(), sets)
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationCapError, match=r"the default experiment\.N_list .* needs \d+ items"):
                parse_config(raw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "sets",
        [["mdp.horizon=1000", "enumeration_cap=100"], [f"mdp.horizon={PAST_FLOAT_RANGE}"]],
        ids=["T=1000-cap=100", "T=1e400"],
    )
    def test_horizon_held_to_the_cap_with_any_n_list(self, sets):
        """Every command takes one step per token, so a horizon past the cap is
        refused while parsing even when N_list is given."""
        raw = apply_overrides(default_config(), [*sets, "experiment.N_list=[1]"])
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationCapError, match=r"mdp\.horizon .* needs \d+ items"):
                parse_config(raw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "command,horizon,overrides",
        [
            ("verify", 13, ["experiment.trials=10", COPY_OF_MU]),
            ("train", 12, ["experiment.steps=2", COPY_OF_MU]),
        ],
    )
    def test_cap_bounds_child_memory(self, tmp_path, command, horizon, overrides):
        """A capped run fails before it builds any table: its peak RSS stays
        within a few MB of the interpreter with numpy loaded, less than one
        [n_states, V] table (19 MB at T=13, 6 MB at T=12) would add.  Both
        runs need a prefix-keyed pi, since target-following rows need no
        table."""
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
        group = sample_from_table(cfg.mdp, mu, 8, np.random.default_rng(0))
        # Target-following rows need no table, so the objective and the bound
        # both run under the cap; a prefix-keyed pi is refused before its
        # logits are allocated.
        assert np.isfinite(objective_gradient(group, pi, cfg.objective)[0])
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationCapError, match="cap is 100"):
                cfg.build_pi()
            _, refused_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            report = theorem_lower_bound(group, pi, 4, 0.05)
            _, bound_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert refused_peak < 1 << 20
        assert bound_peak < 1 << 20
        assert report.horizon == 12 and np.isfinite(report.lower_bound)


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

    def test_long_target_sweep_refused_before_any_grid(self, tmp_path, capsys):
        """Two match-length policies at T=300 with a 300-token target: the
        forward pass would hold five [300, 300, 301] grids and [1800, 301]
        rows at once, 135,991,800 cells (1.1 GB), over the default cap, so the
        sweep is refused before any grid is built."""
        sets = ["mdp.horizon=300", "mdp.target=" + "abc" * 100]
        tracemalloc.start()
        try:
            code = run(["sweep", "--out", str(tmp_path), *(arg for s in sets for arg in ("--set", s))])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        err = capsys.readouterr().err
        assert f"the (t, k) pass (cells held at once) needs 135991800 items, cap is {DEFAULT_ENUMERATION_CAP}" in err
        assert "(config key 'enumeration_cap')" in err
        assert list(tmp_path.iterdir()) == []
        assert peak < 1 << 20

    def test_huge_group_refused_before_the_draw(self, tmp_path, capsys):
        """A group of 10^9 trajectories at T=7 is 7 * 10^9 tokens, over the
        default cap, so analyze is refused before any [G, T] array is drawn."""
        tracemalloc.start()
        try:
            code = run(["analyze", "--out", str(tmp_path), "--set", "experiment.G=1000000000"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        assert (
            f"error: a sampled group (G x T tokens) needs 7000000000 items, cap is {DEFAULT_ENUMERATION_CAP} "
            "(config key 'enumeration_cap')"
        ) in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        assert peak < 1 << 20


@pytest.mark.parametrize(
    "command,overrides",
    [
        ("sweep", []),
        ("train", ["experiment.steps=5", COPY_OF_MU]),
        ("analyze", []),
        ("verify", ["experiment.trials=50"]),
    ],
    ids=["sweep", "train", "analyze", "verify"],
)
def test_every_command_reruns_byte_identically(tmp_path, command, overrides):
    """Every file a run writes, the manifest included, repeats byte for byte."""
    sets = [arg for s in overrides for arg in ("--set", s)]
    for name in ("a", "b"):
        assert run([command, "--out", str(tmp_path / name), *sets]) == 0
    written = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert len(written) == 2 and "run_manifest.json" in written
    for name in written:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize(
    "command,overrides",
    [
        ("sweep", []),
        ("train", ["experiment.steps=20", COPY_OF_MU]),
        ("analyze", []),
        ("verify", ["experiment.trials=50"]),
    ],
    ids=["sweep", "train", "analyze", "verify"],
)
def test_every_command_runs_at_one_sample_per_group(tmp_path, command, overrides):
    """G=1 is a valid group size.  A group of one is centred to an advantage
    of 0, so train never moves pi and its exact return stays constant."""
    sets = [arg for s in ["experiment.G=1", *overrides] for arg in ("--set", s)]
    assert run([command, "--out", str(tmp_path), *sets]) == 0
    if command == "train":
        _, header, rows = _read_csv(tmp_path / "train.csv")
        returns = {row[header.index("exact_return")] for row in rows}
        assert len(rows) == 20 and len(returns) == 1


@pytest.mark.parametrize(
    "command,overrides",
    [
        ("sweep", []),
        ("train", ["experiment.steps=5", "experiment.rollout_refresh=4", COPY_OF_MU]),
        ("analyze", []),
        ("verify", ["experiment.trials=20"]),
    ],
    ids=["sweep", "train", "analyze", "verify"],
)
def test_commands_leave_numpy_ma_unloaded(tmp_path, command, overrides):
    """In a fresh interpreter no command loads ``numpy.ma``, which
    ``np.unique``, ``np.union1d``, ``np.percentile`` and ``np.quantile``
    import on their first call (10-16 ms and 1.6 MB of peak RSS in a fresh
    process on a 2-vCPU VM).
    ``sweep``, which draws nothing, does not load ``numpy.random``; the
    commands that draw do, so the probe sees a load."""
    argv = [command, "--out", str(tmp_path), *(arg for s in overrides for arg in ("--set", s))]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    child = subprocess.run(
        [sys.executable, "-c", LOADED_MODULES, *argv], env=env, capture_output=True, text=True, check=True
    )
    assert child.stdout.split() == ["0", "False", str(command != "sweep")], child.stderr


def _no_per_prefix_read(*args, **kwargs):
    raise AssertionError("a command read a policy prefix by prefix")


@pytest.mark.parametrize(
    "command,pi",
    [(command, None) for command in ("sweep", "analyze", "verify")]
    + [
        (command, key)
        for command in ("sweep", "analyze", "verify", "train")
        for key in TabularSoftmaxPolicy.STATE_KEYS
    ],
)
def test_no_command_reads_a_policy_prefix_by_prefix(tmp_path, command, pi):
    """Every command reads each policy's rows, never ``probs(prefix)``, the one
    per-prefix read the package keeps: with the default pair, and with a pi
    that copies mu under either key (train needs that tabular pi)."""
    sets = ["experiment.trials=20", "experiment.steps=5"]
    if pi is not None:
        sets.append(f'policies.pi={{"family":"tabular_softmax","init":"copy_of_mu","state_key":"{pi}"}}')
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TabularSoftmaxPolicy, "probs", _no_per_prefix_read)
        assert run([command, "--out", str(tmp_path), *(arg for s in sets for arg in ("--set", s))]) == 0


@pytest.mark.parametrize("command", ["verify", "sweep", "analyze"])
def test_each_command_reads_pi_rows_once(tmp_path, command):
    """A command computes a tabular pi's rows once and passes them on."""
    calls = []
    inner = TabularSoftmaxPolicy.rows

    def counted(self):
        calls.append(self)
        return inner(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TabularSoftmaxPolicy, "rows", counted)
        sets = ["--set", "experiment.trials=20", "--set", PREFIX_ZEROS]
        assert run([command, "--out", str(tmp_path), *sets]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["verify", "sweep", "analyze", "train"])
def test_each_command_builds_mu_once(tmp_path, command):
    """A command builds mu once, and a pi that copies mu copies that one."""
    calls = []
    inner = TabularSoftmaxPolicy.zeros.__func__

    def counted(cls, *args, **kwargs):
        calls.append(args)
        return inner(cls, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TabularSoftmaxPolicy, "zeros", classmethod(counted))
        sets = ["experiment.trials=20", "experiment.steps=5", PREFIX_ZEROS.replace(".pi=", ".mu="), COPY_OF_MU]
        assert run([command, "--out", str(tmp_path), *(arg for s in sets for arg in ("--set", s))]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "command,overrides,key",
    [("train", [], "policies.pi.family"), ("analyze", ["mdp.horizon=1"], "mdp.horizon")],
)
def test_a_refused_command_leaves_no_output_directory(tmp_path, capsys, command, overrides, key):
    out = tmp_path / "out"
    sets = [arg for item in overrides for arg in ("--set", item)]
    assert run([command, "--out", str(out), *sets]) == 1
    assert f"config key '{key}'" in capsys.readouterr().err
    assert not out.exists()


class TestSweepCommand:
    def test_default_run_produces_seven_rows(self, tmp_path):
        assert run(["sweep", "--out", str(tmp_path)]) == 0
        stamp, header, rows = _read_csv(tmp_path / "sweep.csv")
        assert header[0] == "N"
        assert len(rows) == 7
        assert [r[0] for r in rows] == [str(n) for n in range(1, 8)]

    def test_short_horizon_defaults_to_every_window(self, tmp_path):
        """The window defaults follow the horizon: N = min(4, T), N_list = 1..T."""
        assert run(["sweep", "--out", str(tmp_path), "--set", "mdp.horizon=5"]) == 0
        _, _, rows = _read_csv(tmp_path / "sweep.csv")
        assert [r[0] for r in rows] == [str(n) for n in range(1, 6)]

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

    def test_failed_write_leaves_no_temp_file(self, tmp_path, capsys):
        """A write that cannot replace its target (here a directory) exits 1 and
        removes its temporary file."""
        (tmp_path / "sweep.csv").mkdir()
        assert run(["sweep", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.csv"]

    def test_invalid_config_exits_one(self, tmp_path, capsys):
        code = run(["sweep", "--out", str(tmp_path), "--set", "policies.mu.alpha=1.5"])
        assert code == 1
        assert "policies.mu.alpha" in capsys.readouterr().err

    def test_options_may_come_before_the_command(self, tmp_path):
        """One parser takes the command and its options in any order."""
        assert run(["--out", str(tmp_path / "first"), "sweep"]) == 0
        assert run(["sweep", "--out", str(tmp_path / "last")]) == 0
        assert (tmp_path / "first" / "sweep.csv").read_bytes() == (tmp_path / "last" / "sweep.csv").read_bytes()

    def test_help_names_every_command(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert all(command in out for command in ("sweep", "train", "analyze", "verify"))

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run(["nosuch"])
        assert exit_info.value.code == 2
        assert "usage: tracelab" in capsys.readouterr().err

    def test_output_path_naming_a_file_exits_one(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert run(["sweep", "--out", str(taken)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_partial_config_echo_fills_every_default(self, tmp_path):
        """The manifest echoes a partial config file with every default filled
        in and every number-valued key as a float; the echo re-parses to the
        same config."""
        partial = {
            "mdp": {"vocab": ["a", "b"], "horizon": 5, "target": "ab"},
            "policies": {
                "mu": {"family": "target_following", "alpha": 0.5},
                "pi": {"family": "tabular_softmax"},
            },
            "objective": {"kind": "ppo", "beta": 2},
            "experiment": {"learning_rate": 1},
        }
        expected = {
            "mdp": {"vocab": ["a", "b"], "horizon": 5, "target": "ab"},
            "policies": {
                "mu": {"family": "target_following", "alpha": 0.5},
                "pi": {"family": "tabular_softmax", "init": "zeros", "state_key": "prefix"},
            },
            "objective": {
                "kind": "ppo",
                "N": 4,
                "beta": 2.0,
                "eps_low": 0.2,
                "eps_high": 0.4,
                "mask": {"kind": "none"},
            },
            "experiment": {
                "G": 8,
                "steps": 500,
                "learning_rate": 1.0,
                "trials": 2000,
                "alpha_conf": 0.05,
                "N_list": [1, 2, 3, 4, 5],
                "rollout_refresh": 1,
            },
            "seed": 0,
            "enumeration_cap": DEFAULT_ENUMERATION_CAP,
        }
        config_path = tmp_path / "partial.json"
        config_path.write_text(json.dumps(partial))
        assert run(["sweep", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 0
        echo = json.loads((tmp_path / "out" / "run_manifest.json").read_text())["config"]
        # json.dumps tells 2 from 2.0, which == does not.
        assert json.dumps(echo, sort_keys=True) == json.dumps(expected, sort_keys=True)
        assert parse_config(expected) == parse_config(partial)

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


    def test_match_length_pi_runs_past_the_table_cap(self, tmp_path):
        """A match-length pi is trained on its own |target| + 1 rows, so train
        runs at T=20, where a state table ((3^20 - 1)/2 states) is far over
        the default cap."""
        overrides = [
            "--set", 'policies.pi={"family":"tabular_softmax","init":"copy_of_mu","state_key":"match_length"}',
            "--set", "mdp.horizon=20",
            "--set", "experiment.steps=5",
        ]
        assert run(["train", "--out", str(tmp_path), *overrides]) == 0
        _, _, rows = _read_csv(tmp_path / "train.csv")
        assert len(rows) == 5
        assert all(np.isfinite(float(value)) for row in rows for value in row)


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

    def test_window_past_the_default_profile_runs(self, tmp_path):
        """The smoothing profile is as long as the window, so every N the config accepts runs."""
        sets = ["--set", "mdp.horizon=60", "--set", "objective.N=55"]
        assert run(["analyze", "--out", str(tmp_path), *sets]) == 0
        smoothing = json.loads((tmp_path / "analyze.json").read_text())["smoothing"]
        assert smoothing["length"] == 55
        assert smoothing["n_step"] == 55

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

    def test_target_following_pair_runs_past_the_table_cap(self, tmp_path):
        """The bound and the coverage check read match-length rows, so verify
        runs at T=20, where a state table ((3^20 - 1)/2 states) is far over
        the default cap."""
        args = ["--set", "mdp.horizon=20", "--set", "experiment.trials=50"]
        assert run(["verify", "--out", str(tmp_path), *args]) == 0
        payload = json.loads((tmp_path / "verify.json").read_text())
        assert payload["bound_report"]["horizon"] == 20
        assert payload["passed"] is True

    @pytest.mark.parametrize("n_step", [300, 241])
    def test_overflowing_envelope_named(self, tmp_path, capsys, n_step):
        """At T = 300 with alphas 0.95 and 0.05, eps is about 18: (1 + eps) ** 299
        overflows a float, and at N = 241 the sum of the powers does."""
        sets = [
            "mdp.horizon=300",
            f"objective.N={n_step}",
            'policies.pi={"family":"target_following","alpha":0.95}',
            'policies.mu={"family":"target_following","alpha":0.05}',
            "experiment.trials=5",
        ]
        code = run(["verify", "--out", str(tmp_path), *(arg for s in sets for arg in ("--set", s))])
        assert code == 1
        err = capsys.readouterr().err
        assert "s_n overflows a float at eps = 17.99" in err and f"and N = {n_step}" in err

    def test_toy_pair_passes_quickly(self, tmp_path):
        code = run(["verify", "--out", str(tmp_path), "--set", "experiment.trials=200"])
        assert code == 0
        payload = json.loads((tmp_path / "verify.json").read_text())
        assert payload["bound_report"]["dtv_max"] == pytest.approx(0.3)
