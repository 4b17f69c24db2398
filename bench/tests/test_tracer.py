"""Tests for the outside-in tracer.  Run from the repository root:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from tracer import OBSERVERS, Tracer, layer_metrics, tracelab_modules  # noqa: E402


def _module(name: str, source: str) -> types.ModuleType:
    module = types.ModuleType(name)
    exec(source, module.__dict__)
    return module


@pytest.fixture
def modules():
    return tracelab_modules()


def test_self_times_sum_to_the_root_span(modules, tmp_path):
    import tracelab.cli as cli

    tracer = Tracer(OBSERVERS)
    tracer.install(modules)
    try:
        code = cli.run(
            ["sweep", "--out", str(tmp_path), "--set", "mdp.horizon=5", "--set", "experiment.N_list=[1,3,5]"]
        )
    finally:
        tracer.uninstall()
    assert code == 0
    summary = tracer.summary()
    total_self = sum(entry["self_s"] for entry in summary["names"].values())
    assert summary["names"]["cli.run"]["calls"] == 1
    assert summary["root_s"] == pytest.approx(summary["names"]["cli.run"]["incl_s"])
    assert total_self == pytest.approx(summary["root_s"], rel=0.01)
    metrics, _ = layer_metrics(summary)
    assert metrics["mdp.trajectories_enumerated"][0] > 0
    assert metrics["policies.table_builds"][0] > 0


def test_no_module_keeps_an_unwrapped_original(modules):
    import tracelab.bounds as bounds
    import tracelab.lab as lab
    import tracelab.objectives as objectives
    import tracelab.policies as policies

    original = policies.policy_log_matrix
    tracer = Tracer()
    tracer.install(modules)
    try:
        originals = {id(obj) for _, _, obj in tracer._restore}
        assert id(original) in originals
        for module in modules:
            for attr, obj in vars(module).items():
                assert id(obj) not in originals, f"{module.__name__}.{attr} is unwrapped"
        assert objectives.policy_log_matrix is policies.policy_log_matrix
        assert lab.d_tv_max is bounds.d_tv_max is policies.d_tv_max
        assert policies.policy_log_matrix.__wrapped__ is original
        assert "__wrapped__" in vars(policies.TabularSoftmaxPolicy.probs)
    finally:
        tracer.uninstall()
    assert policies.policy_log_matrix is original
    assert "__wrapped__" not in vars(policies.TabularSoftmaxPolicy.probs)


def test_consuming_a_wrapped_generator_is_timed():
    fake = _module(
        "fakepkg.gen",
        "import time\n"
        "def slow_items(n):\n"
        "    for i in range(n):\n"
        "        time.sleep(0.01)\n"
        "        yield i\n"
        "def consume(n):\n"
        "    return sum(slow_items(n))\n",
    )
    seen = []
    tracer = Tracer(observers={"gen.slow_items": lambda t, item: seen.append(item)})
    tracer.install([fake])
    try:
        created = fake.slow_items(3)
        idle = tracer.summary()["names"]["gen.slow_items"]["incl_s"]
        assert fake.consume(4) == 6
        assert list(created) == [0, 1, 2]
    finally:
        tracer.uninstall()
    names = tracer.summary()["names"]
    assert idle < 0.005
    assert names["gen.slow_items"]["calls"] == 2
    assert names["gen.slow_items"]["incl_s"] >= 0.07
    # The consumer's own time excludes the generator body it drove.
    assert names["gen.consume"]["self_s"] < 0.005
    assert seen == [0, 1, 2, 3, 0, 1, 2]


def test_a_missing_name_yields_an_absent_metric():
    tracer = Tracer(OBSERVERS)
    fake = _module("tracelab.policies", "def d_tv_max():\n    time.sleep(0.001)\nimport time\n")
    tracer.install([fake])
    try:
        fake.d_tv_max()
    finally:
        tracer.uninstall()
    metrics, absent = layer_metrics(tracer.summary())
    assert metrics["policies.d_tv_max_s"][0] > 0
    assert "policies.d_tv_max_s" not in absent
    assert metrics["policies.state_tv_calls"] == (0.0, "count")
    assert metrics["mdp.self_s"] == (0.0, "s")
    assert {"policies.state_tv_calls", "mdp.self_s", "lab.train_step_s"} <= set(absent)


def test_spans_record_their_parent(tmp_path):
    fake = _module("fakepkg.tree", "def leaf():\n    return 1\ndef root():\n    return leaf() + leaf()\n")
    tracer = Tracer()
    tracer.install([fake])
    try:
        assert fake.root() == 2
    finally:
        tracer.uninstall()
    by_name = {}
    for span, idx, start, end, parent in tracer.spans:
        by_name.setdefault(tracer.names[idx], []).append((span, start, end, parent))
    (root_span, root_start, root_end, root_parent), = by_name["tree.root"]
    assert root_parent == -1
    for _, start, end, parent in by_name["tree.leaf"]:
        assert parent == root_span and root_start <= start <= end <= root_end
    tracer.write_spans(tmp_path / "spans.json")
    assert (tmp_path / "spans.json").stat().st_size > 0
