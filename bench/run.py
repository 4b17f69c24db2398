"""Benchmark of the ``tracelab`` CLI, end to end and layer by layer.

Run from the root of the repository:

    python3 bench/run.py --workload train_t7 --seed 1 --seconds 60 --trace 0

``--trace 0`` runs the CLI as users run it, one fresh child process per
repeat with ``PYTHONPATH=src``, and reports the end-to-end metrics as
trimmed means over the repeats.  ``--trace 1`` runs the same command in this
process, once untraced and twice under the outside-in tracer, and reports
the per-layer metrics.  Both modes check the outputs.  Every metric is
printed by name with its unit; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported, here and in every child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracer import EXACT_COUNTS, OBSERVERS, PER_LAYER_UNITS, Tracer, layer_metrics, tracelab_modules  # noqa: E402
from workloads import WORKLOADS, CheckError, Workload, load_reference  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

RUN_LIMIT_S = 170.0  # the whole run ends within 180 s
MIN_REPEATS = 2  # two outputs of one seed are compared byte for byte
MIN_SETUP_PROBES = 5

# Set-up as a user pays it: start the interpreter, import the CLI, parse the
# config and build both policies, then exit.
SETUP_PROBE = """
import json, sys
import tracelab.cli
from tracelab.config import apply_overrides, default_config, parse_config
cfg = parse_config(apply_overrides(default_config(), json.loads(sys.argv[1])))
cfg.build_mu()
cfg.build_pi()
"""


class RunFailed(Exception):
    """One repeat failed: bad exit status or wrong output."""


def run_child(argv: list[str], log: Path, timeout: float) -> tuple[int, float, float, float]:
    """Run ``python argv`` from the repo root: (exit code, wall s, cpu s, peak RSS MB).

    CPU time and peak RSS come from this child's own rusage (``wait4``), not
    from the running maximum over all children.
    """
    with log.open("wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv],
            cwd=ROOT,
            env=dict(os.environ, PYTHONPATH="src"),
            stdin=subprocess.DEVNULL,
            stdout=sink,
            stderr=subprocess.STDOUT,
        )
        killer = threading.Timer(max(timeout, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def _log_tail(log: Path) -> str:
    lines = log.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else "(no output)"


def check_outputs(workload: Workload, out_dir: Path, reference: dict, first: bytes | None) -> bytes:
    """Check one repeat's outputs; return them for the byte-identity check."""
    try:
        workload.check(out_dir, reference)
        data = (out_dir / workload.output).read_bytes()
    except (OSError, ValueError, KeyError, IndexError, CheckError) as exc:
        raise RunFailed(f"{type(exc).__name__}: {exc}") from exc
    if first is not None and data != first:
        raise RunFailed(f"{workload.output} differs between two runs of one seed")
    return data


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


# --- trace off: end-to-end metrics --------------------------------------------


def measure(workload: Workload, seed: int, seconds: float, work: Path, reference: dict, limit: float):
    setup_argv = ["-c", SETUP_PROBE, json.dumps(workload.overrides(seed))]

    def setup_probe(tag: str) -> float:
        log = work / f"setup-{tag}.log"
        code, wall, _, _ = run_child(setup_argv, log, limit - time.perf_counter())
        if code != 0:
            raise RunFailed(f"set-up probe exited {code}: {_log_tail(log)}")
        return wall

    # Compiles and caches bytecode and warms the page cache; users do not
    # pay that on every run, so it is not timed.
    setup_probe("warm")
    deadline = time.perf_counter() + seconds
    samples: dict[str, list[float]] = {"wall": [], "cpu": [], "rss": [], "setup": []}
    round_s: list[float] = []
    attempted = failed = 0
    first = None
    while True:
        began = time.perf_counter()
        attempted += 1
        out_dir = work / f"run{attempted}"
        log = work / f"run{attempted}.log"
        try:
            setup = setup_probe(str(attempted))
            code, wall, cpu, rss = run_child(
                ["-m", "tracelab.cli", *workload.argv(seed, out_dir)], log, limit - time.perf_counter()
            )
            if code != 0:
                raise RunFailed(f"exit {code}: {_log_tail(log)}")
            first = check_outputs(workload, out_dir, reference, first)
        except RunFailed as exc:
            failed += 1
            print(f"run {attempted} failed: {exc}", file=sys.stderr)
        else:
            for key, value in (("wall", wall), ("cpu", cpu), ("rss", rss), ("setup", setup)):
                samples[key].append(value)
        shutil.rmtree(out_dir, ignore_errors=True)
        round_s.append(time.perf_counter() - began)
        next_end = time.perf_counter() + statistics.median(round_s)
        if next_end > limit or (attempted >= MIN_REPEATS and next_end > deadline):
            break
    while samples["wall"] and len(samples["setup"]) < MIN_SETUP_PROBES:
        if time.perf_counter() + statistics.median(samples["setup"]) > limit:
            break
        samples["setup"].append(setup_probe(f"extra{len(samples['setup'])}"))
    return samples, attempted, failed


def trimmed_mean(values: list[float]) -> float:
    """Mean without the lowest and the highest value (of three or more).

    The host's speed drifts in phases of seconds to minutes.  A mean blends
    the phases one run sees, where a median picks one of them; dropping the
    two extremes keeps a single stalled repeat from moving it.
    """
    ordered = sorted(values)
    return statistics.fmean(ordered[1:-1] if len(ordered) > 2 else ordered)


def report_end_to_end(workload: Workload, samples: dict) -> dict:
    wall = trimmed_mean(samples["wall"])
    setup = trimmed_mean(samples["setup"])
    metrics = {
        "wall_s": (wall, "s", samples["wall"]),
        "cpu_s": (trimmed_mean(samples["cpu"]), "s", samples["cpu"]),
        "setup_s": (setup, "s", samples["setup"]),
        "peak_rss_mb": (trimmed_mean(samples["rss"]), "MB", samples["rss"]),
        "work_per_s": (workload.units / (wall - setup), "1/s", None),
    }
    for name, (value, unit, values) in metrics.items():
        if values:
            q1, q3 = quartiles(values)
            spread = f"n={len(values)} q1={q1:.6g} q3={q3:.6g}"
        else:
            spread = f"= {workload.units} {workload.unit_name} / (wall_s - setup_s)"
        alias = f" ({workload.unit_name}_per_s)" if name == "work_per_s" else ""
        print(f"  {name}{alias} = {value:.6g} {unit}  [{spread}]")
    print("  wall_s per repeat: " + " ".join(f"{w:.4f}" for w in samples["wall"]))
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}


# --- trace on: per-layer metrics ----------------------------------------------


def trace(workload: Workload, seed: int, work: Path, reference: dict, spans_path: Path):
    sys.path.insert(0, str(ROOT / "src"))
    import tracelab.cli as cli

    modules = tracelab_modules()
    attempted = failed = 0
    first = None

    def once(tag: str, tracer: Tracer | None) -> float:
        nonlocal attempted, first
        attempted += 1
        out_dir = work / tag
        if tracer is not None:
            tracer.install(modules)
        try:
            start = time.perf_counter()
            code = cli.run(workload.argv(seed, out_dir))
            wall = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        if code != 0:
            raise RunFailed(f"{tag}: exit {code}")
        first = check_outputs(workload, out_dir, reference, first)
        return wall

    untraced = None
    walls, tables = [], []
    for tag in ("untraced", "traced1", "traced2"):
        tracer = None if tag == "untraced" else Tracer(OBSERVERS)
        try:
            wall = once(tag, tracer)
        except RunFailed as exc:
            failed += 1
            print(f"{tag} failed: {exc}", file=sys.stderr)
            continue
        if tracer is None:
            untraced = wall
            continue
        walls.append(wall)
        summary = tracer.summary()
        tables.append(layer_metrics(summary))
        if len(tables) == 1:
            tracer.write_spans(spans_path)
            print(
                f"  traced: root span {summary['root_s']:.6g} s, {len(tracer.spans)} spans kept, "
                f"{tracer.dropped_spans} aggregated only; spans in {spans_path.relative_to(ROOT)}"
            )
    if not tables or untraced is None:
        return None, attempted, failed
    if len(tables) == 2:
        changed = [k for k in EXACT_COUNTS if tables[0][0][k][0] != tables[1][0][k][0]]
        if changed:
            failed += 1
            print(f"counts differ between two traced runs of one seed: {changed}", file=sys.stderr)
    absent = tables[0][1]
    metrics = {
        name: {"value": statistics.median(t[0][name][0] for t in tables), "unit": unit}
        for name, unit in PER_LAYER_UNITS.items()
        if name != "tracing_overhead_s"
    }
    metrics["tracing_overhead_s"] = {"value": statistics.median(walls) - untraced, "unit": "s"}
    print(f"  untraced in-process wall {untraced:.6g} s, traced {statistics.median(walls):.6g} s")
    for name, entry in metrics.items():
        mark = "  (absent)" if name in absent else ""
        value = f"{entry['value']:.0f}" if entry["unit"] == "count" else f"{entry['value']:.6g}"
        print(f"  {name} = {value} {entry['unit']}{mark}")
    layers = {k: v["value"] for k, v in metrics.items() if k.endswith(".self_s")}
    top = sorted(layers, key=layers.get, reverse=True)[:3]
    total = sum(layers.values()) or 1.0
    print("  dominant layers: " + ", ".join(f"{k[:-7]} {layers[k] / total:.0%}" for k in top))
    return metrics, attempted, failed


# --- entry point ---------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    limit = time.perf_counter() + RUN_LIMIT_S

    if not (ROOT / "src" / "tracelab" / "cli.py").is_file():
        print(f"error: no tracelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        reference = load_reference()
    except (OSError, ValueError) as exc:
        print(f"error: cannot read the reference outputs: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(
        f"  env: python {platform.python_version()}, numpy {np.__version__}, "
        f"nproc {os.cpu_count()}, loadavg {load}"
    )
    work = OUT / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            spans = OUT / f"spans-{workload.name}-seed{args.seed}.json"
            metrics, attempted, failed = trace(workload, args.seed, work, reference, spans)
        else:
            try:
                samples, attempted, failed = measure(
                    workload, args.seed, args.seconds, work, reference, limit
                )
            except RunFailed as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            metrics = report_end_to_end(workload, samples) if samples["wall"] else None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if metrics is None:
        print("error: no repeat succeeded", file=sys.stderr)
        return 1
    print(f"  error_rate = {failed / attempted:.6g} ({failed} of {attempted} runs failed)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
