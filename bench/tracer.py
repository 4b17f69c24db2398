"""Outside-in tracer for the tracelab package.

The tracer wraps, from outside the package, every public function that a
``tracelab`` module defines, plus the ``probs`` method of every class that
has one.  ``from .x import f`` copies bindings, so each module attribute that
holds the same function object is rebound to the same wrapper.  Each call
becomes a span (name, start, end, parent); a generator is timed once when it
is created and again for every item it produces, because that is when its
body runs.

Aggregates (calls, inclusive time, self time) are kept exactly for every
call.  Individual spans are kept in memory, the first ``SPAN_CAP`` of each
name, and written out at the end: the hottest names are called millions of
times per run.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import pkgutil
import time
from pathlib import Path

import numpy as np

OBSERVE = "bench.observe"
SPAN_CAP = 500


class Tracer:
    """Spans and counters for the functions it wraps.

    ``observers`` maps a traced name to ``fn(tracer, value)``; it is called
    with the return value (for a generator: with every item) to update
    ``counters``.  Observer time is a span of its own, ``bench.observe``, so
    it is kept out of the traced layers.
    """

    def __init__(self, observers=None):
        self.observers = dict(observers or {})
        self.names: list[str] = []
        self.calls: list[int] = []
        self.incl_s: list[float] = []
        self.self_s: list[float] = []
        self._active: list[int] = []
        self.calls_kept: list[int] = []
        self._stack: list[list] = []
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self._next_span = 0
        self.root_s = 0.0
        self.counters: dict[str, float] = {}
        self.digests: set[bytes] = set()
        self._restore: list[tuple] = []
        self._observe_idx = self._register(OBSERVE)

    # --- recording --------------------------------------------------------

    def _register(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.incl_s.append(0.0)
        self.self_s.append(0.0)
        self._active.append(0)
        self.calls_kept.append(0)
        return len(self.names) - 1

    def _enter(self, idx: int) -> list:
        stack = self._stack
        parent = stack[-1][3] if stack else -1
        frame = [idx, 0.0, 0.0, self._next_span, parent]
        self._next_span += 1
        self._active[idx] += 1
        stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        idx, start, child, span, parent = frame
        self._stack.pop()
        dur = end - start
        self.self_s[idx] += dur - child
        self._active[idx] -= 1
        if self._active[idx] == 0:
            self.incl_s[idx] += dur
        if self._stack:
            self._stack[-1][2] += dur
        else:
            self.root_s += dur
        if self.calls_kept[idx] < SPAN_CAP:
            self.calls_kept[idx] += 1
            self.spans.append((span, idx, start, end, parent))
        else:
            self.dropped_spans += 1

    def _observe(self, observer, value) -> None:
        frame = self._enter(self._observe_idx)
        try:
            observer(self, value)
        finally:
            self._exit(frame)

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # --- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn):
        """Return a traced stand-in for ``fn`` recorded under ``name``."""
        idx = self._register(name)
        observer = self.observers.get(name)
        enter, exit_, calls = self._enter, self._exit, self.calls

        if inspect.isgeneratorfunction(fn):

            def traced_gen(*args, **kwargs):
                calls[idx] += 1
                frame = enter(idx)
                try:
                    inner = fn(*args, **kwargs)
                finally:
                    exit_(frame)
                return self._resume(idx, inner, observer)

            wrapper = traced_gen
        else:

            def traced(*args, **kwargs):
                calls[idx] += 1
                frame = enter(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    exit_(frame)
                if observer is not None:
                    self._observe(observer, result)
                return result

            wrapper = traced
        return functools.update_wrapper(wrapper, fn)

    def _resume(self, idx: int, inner, observer):
        enter, exit_ = self._enter, self._exit
        try:
            while True:
                frame = enter(idx)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    exit_(frame)
                if observer is not None:
                    self._observe(observer, item)
                yield item
        finally:
            inner.close()

    def install(self, modules) -> None:
        """Wrap the public functions and ``probs`` methods of ``modules``.

        A public function is one whose name has no leading underscore and
        whose ``__module__`` is the module that defines it.  Its traced name
        is ``<layer>.<function>``, the layer being the last part of the
        module name; a method is ``<layer>.<Class>.probs``.
        """
        modules = list(modules)
        wrappers: dict[int, object] = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj) and inspect.isfunction(vars(obj).get("probs")):
                    original = vars(obj)["probs"]
                    self._restore.append((obj, "probs", original))
                    setattr(obj, "probs", self.wrap(f"{layer}.{attr}.probs", original))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # --- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-name totals, counters and the root span's duration."""
        return {
            "root_s": self.root_s,
            "names": {
                name: {"calls": self.calls[i], "incl_s": self.incl_s[i], "self_s": self.self_s[i]}
                for i, name in enumerate(self.names)
            },
            "counters": dict(self.counters),
            "distinct_tables": len(self.digests),
        }

    def write_spans(self, path: Path) -> None:
        """Write the kept spans as JSON: [id, name, start, end, parent id]."""
        payload = {
            "dropped_spans": self.dropped_spans,
            "spans": [[s, self.names[i], t0, t1, p] for s, i, t0, t1, p in self.spans],
        }
        path.write_text(json.dumps(payload))


def tracelab_modules() -> list:
    """The ``tracelab`` package and every module in it, imported."""
    root = importlib.import_module("tracelab")
    names = sorted(info.name for info in pkgutil.iter_modules(root.__path__, "tracelab."))
    return [root] + [importlib.import_module(name) for name in names]


# --- tracelab counters ---------------------------------------------------------


def _rows_enumerated(tracer: Tracer, item) -> None:
    tracer.count("mdp.trajectories_enumerated", len(item[0]))


def _tokens_sampled(tracer: Tracer, trajectory) -> None:
    tracer.count("mdp.tokens_sampled", len(trajectory))


def _table_built(tracer: Tracer, table) -> None:
    table = np.ascontiguousarray(table)
    tracer.count("policies.table_rows_built", table.shape[0])
    tracer.digests.add(hashlib.blake2b(table.tobytes(), digest_size=16).digest())


def _gradient_rows(tracer: Tracer, gradient) -> None:
    tracer.count("objectives.gradient_rows", len(gradient))


def _train_steps(tracer: Tracer, records) -> None:
    tracer.count("lab.train_steps", len(records))


OBSERVERS = {
    "mdp.trajectory_chunks": _rows_enumerated,
    "mdp.sample_trajectory": _tokens_sampled,
    "policies.policy_log_matrix": _table_built,
    "objectives.objective_gradient": _gradient_rows,
    "lab.train": _train_steps,
}

LAYERS = ("mdp", "policies", "weights", "objectives", "bounds", "lab", "cli", "config")

# metric -> (unit, how, traced names it is built from).  "calls", "incl" and
# "counter" sum over the names; a metric none of whose names exists in the
# code is absent.
_DERIVED = {
    "mdp.trajectories_enumerated": ("count", "counter", ["mdp.trajectory_chunks"]),
    "mdp.tokens_sampled": ("count", "counter", ["mdp.sample_trajectory"]),
    "mdp.sample_trajectory_s": ("s", "incl", ["mdp.sample_trajectory"]),
    "policies.probs_calls": (
        "count",
        "calls",
        ["policies.TargetFollowingPolicy.probs", "policies.TabularSoftmaxPolicy.probs"],
    ),
    "policies.table_builds": ("count", "calls", ["policies.policy_log_matrix"]),
    "policies.table_rows_built": ("count", "counter", ["policies.policy_log_matrix"]),
    "policies.distinct_table_ratio": ("ratio", "distinct", ["policies.policy_log_matrix"]),
    "policies.policy_log_matrix_s": ("s", "incl", ["policies.policy_log_matrix"]),
    "policies.d_tv_max_s": ("s", "incl", ["policies.d_tv_max"]),
    "policies.state_tv_calls": ("count", "calls", ["policies.state_tv"]),
    "policies.ratio_deviation_bound_s": ("s", "incl", ["policies.ratio_deviation_bound"]),
    "weights.ratios_calls": ("count", "calls", ["weights.ratios"]),
    "weights.ratios_s": ("s", "incl", ["weights.ratios"]),
    "weights.token_mask_s": ("s", "incl", ["weights.token_mask"]),
    "weights.sample_group_s": ("s", "incl", ["weights.sample_group"]),
    "objectives.population_passes": (
        "count",
        "calls",
        [
            "objectives.exact_return",
            "objectives.n_step_surrogate_population",
            "objectives.variance_of_statistic",
        ],
    ),
    "objectives.exact_return_s": ("s", "incl", ["objectives.exact_return"]),
    "objectives.objective_value_s": ("s", "incl", ["objectives.objective_value"]),
    "objectives.objective_gradient_s": ("s", "incl", ["objectives.objective_gradient"]),
    "objectives.gradient_rows": ("count", "counter", ["objectives.objective_gradient"]),
    "lab.train_step_s": ("s", "per_step", ["lab.train"]),
    "config.parse_config_s": ("s", "incl", ["config.parse_config"]),
}

# The counts that must repeat exactly between two traced runs of one seed.
EXACT_COUNTS = (
    "policies.probs_calls",
    "policies.table_rows_built",
    "mdp.trajectories_enumerated",
    "mdp.tokens_sampled",
    "objectives.population_passes",
    "objectives.gradient_rows",
)


def layer_metrics(summary: dict) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics from a tracer summary: ({name: (value, unit)}, absent).

    An absent metric (its layer or function no longer exists) reads 0 and is
    listed by name, so code that removes a traced name needs no bench edit.
    """
    names = summary["names"]
    metrics: dict[str, tuple[float, str]] = {}
    absent: list[str] = []
    for layer in LAYERS:
        own = [v["self_s"] for k, v in names.items() if k.split(".", 1)[0] == layer]
        metrics[f"{layer}.self_s"] = (float(sum(own)), "s")
        if not own:
            absent.append(f"{layer}.self_s")
    for metric, (unit, how, sources) in _DERIVED.items():
        present = [names[s] for s in sources if s in names]
        if not present:
            metrics[metric] = (0.0, unit)
            absent.append(metric)
            continue
        if how == "calls":
            value = float(sum(p["calls"] for p in present))
        elif how == "incl":
            value = float(sum(p["incl_s"] for p in present))
        elif how == "counter":
            value = float(summary["counters"].get(metric, 0))
        elif how == "distinct":
            builds = sum(p["calls"] for p in present)
            value = summary["distinct_tables"] / builds if builds else 0.0
        else:  # per_step
            steps = summary["counters"].get("lab.train_steps", 0)
            value = present[0]["incl_s"] / steps if steps else 0.0
        metrics[metric] = (value, unit)
    return metrics, absent


PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{metric: spec[0] for metric, spec in _DERIVED.items()},
    "tracing_overhead_s": "s",
}
