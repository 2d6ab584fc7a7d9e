"""Tangram end-to-end benchmark: one seeded workload, tracing off or on.

    python3 perfbench/run.py --workload fig12_sweep [--seed N]
        [--seconds 40] [--trace 0|1] [--fixture-seed N]

With ``--trace 0`` it runs fresh worker processes (``worker.py``), one
operation each, until ``--seconds`` are used, and reports the median
``setup_s``, ``wall_s`` and ``peak_rss_mb``.  With ``--trace 1`` it runs
one untraced and one traced operation and reports the per-layer ledger.
Both print every metric with its unit and direction, the simulated
outcomes and the correctness checks, then one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1
when a check fails, 2 when the program's sources are missing.

Everything is written under ``.perfbench/`` in the checkout: a result
record per run (seeds, environment, every operation) and, when traced,
the spans.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from spec import END_TO_END, OUTCOMES, PER_LAYER, RUN_SECONDS, WORKLOADS  # noqa: E402

#: The layer each workload's traced ledger is predicted to be dominated by.
PREDICTED_DOMINANT = {
    "fig12_sweep": "edge",
    "accuracy_table3": "vision",
    "fleet_overload": "not edge",
}
#: ``setup_s`` is the median of at least this many set-ups per run.
SETUP_SAMPLES = 3
#: No operation starts that would end the run later than this.
RUN_LIMIT_S = 170.0


class WorkerError(RuntimeError):
    """A worker process exited abnormally."""


class Runner:
    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.started = time.perf_counter()

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def spawn(self, mode: str, spans: Path | None = None) -> dict:
        args = self.args
        spawned = time.perf_counter()
        command = [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload", args.workload,
            "--mode", mode,
            "--spawned", repr(spawned),
        ]
        if args.seed is not None:
            command += ["--seed", str(args.seed)]
        if args.fixture_seed is not None:
            command += ["--fixture-seed", str(args.fixture_seed)]
        if spans is not None:
            command += ["--spans", str(spans)]
        try:
            proc = subprocess.run(
                command,
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=max(1.0, self.remaining()),
            )
        except subprocess.TimeoutExpired as exc:
            raise WorkerError(f"{mode} operation timed out") from exc
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-5:]
            raise WorkerError(f"{mode} operation exited {proc.returncode}: " + " | ".join(tail))
        return json.loads(proc.stdout.strip().splitlines()[-1])


def _env() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _print_metrics(title: str, rows) -> None:
    print(title)
    for name, unit, better, value in rows:
        shown = "n/a" if value is None else _fmt(value)
        arrow = "lower is better" if better == "lower" else "higher is better"
        print(f"  {name:34s} {shown:>14s} {unit:6s} ({arrow})")


def main(argv=None) -> int:
    names = [name for name, _why in WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument(
        "--seed", type=int, default=None, help="input seed; see README for what each workload varies"
    )
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--fixture-seed",
        type=int,
        default=None,
        help="replace a workload's pinned fixture seed (held-out inputs)",
    )
    args = parser.parse_args(argv)
    if min(args.seed or 0, args.fixture_seed or 0) < 0:
        parser.error("seeds must be non-negative")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = _env()
    runner = Runner(args)
    ops: list = []
    errors: list = []
    traced = None
    spans = None

    def attempt(mode: str, spans_path: Path | None = None):
        try:
            return runner.spawn(mode, spans_path)
        except WorkerError as exc:
            errors.append(str(exc))
            return None

    if args.trace:
        seed = "default" if args.seed is None else args.seed
        spans = OUT / f"spans-{args.workload}-seed{seed}.json.gz"
        untraced = attempt("timed")
        if untraced is not None:
            ops.append(untraced)
        traced = attempt("traced", spans)
        if traced is not None:
            ops.append(traced)
    else:
        while True:
            op = attempt("timed")
            if op is not None:
                ops.append(op)
            elapsed = time.perf_counter() - runner.started
            per_op = elapsed / (len(ops) + len(errors))
            if elapsed + per_op > args.seconds or per_op > runner.remaining():
                break
    timed = [op for op in ops if "layers" not in op]
    if not timed:
        for message in errors:
            print(f"error: {message}", file=sys.stderr)
        return 1
    setups = [op["setup_s"] for op in timed]
    while not args.trace and len(setups) < SETUP_SAMPLES and runner.remaining() > 10:
        sample = attempt("setup")
        if sample is not None:
            setups.append(sample["setup_s"])

    if args.trace and traced is None:
        for message in errors:
            print(f"error: {message}", file=sys.stderr)
        return 1

    # ------------------------------------------------------------ correctness
    first = timed[0]
    checks = list(first["checks"])
    checks.append(
        (
            "same-seed operations agree on every simulated outcome",
            all(op["outcomes"] == first["outcomes"] for op in ops),
            f"{len(ops)} operations",
        )
    )
    failed = len(errors) + sum(
        1
        for op in ops
        if op["outcomes"] != first["outcomes"] or not all(passed for _n, passed, _d in op["checks"])
    )

    # --------------------------------------------------------------- metrics
    end_to_end = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(op["wall_s"] for op in timed),
        "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in timed),
    }
    outcomes = first["outcomes"]
    layers = None
    dominant = None
    if traced is not None:
        layers = dict(traced["layers"])
        layers["setup.import_s"] = first["import_s"]
        layers["setup.inputs_s"] = first["inputs_s"]
        layers["trace.overhead_s"] = traced["wall_s"] - first["wall_s"]
        layers["sim.events_per_s"] = layers["sim.events"] / first["wall_s"]
        if "critical_path_s" in first:
            layers["shard.critical_path_s"] = first["critical_path_s"]
        for name, _unit, _better in OUTCOMES:
            layers[name] = outcomes.get(name.split(".", 1)[1], 0.0)
        ledger = {
            name.split(".")[1]: value for name, value in layers.items() if name.startswith("ledger.")
        }
        ledger["sim.residual"] = layers["sim.residual_s"]
        total = sum(ledger.values())
        dominant = max(ledger, key=ledger.get)
        balanced = layers["sim.residual_s"] >= 0 and abs(total - traced["wall_s"]) <= 1e-9 * total
        checks.append(
            (
                "layer self times + non-negative sim.residual_s = traced wall",
                balanced,
                f"{total:.6f} s vs {traced['wall_s']:.6f} s",
            )
        )
        failed += not balanced

    correct = failed == 0
    attempted = len(ops) + len(errors)

    # ---------------------------------------------------------------- report
    print(f"perfbench {args.workload}  seeds {first['seeds']}  trace {args.trace}")
    print(
        f"env: python {env['python']}  numpy {first['numpy']}  nproc {env['nproc']}  "
        f"loadavg_1m {env['loadavg_1m']:.2f}"
    )
    print(f"operations: {attempted} attempted, {failed} failed, {len(setups)} set-up samples")
    for message in errors:
        print(f"  error: {message}")
    _print_metrics(
        f"end-to-end (tracing off; medians of {len(timed)} operations):",
        [(name, unit, better, end_to_end[name]) for name, unit, better, _bound in END_TO_END],
    )
    _print_metrics(
        "simulated outcomes (n/a: the workload has no such output):",
        [
            (name, unit, better, outcomes.get(name.split(".", 1)[1]))
            for name, unit, better in OUTCOMES
        ],
    )
    print("checks:")
    for name, passed, detail in checks:
        print(f"  {'PASS' if passed else 'FAIL'}  {name}  ({detail})")
    if layers is not None:
        wall = traced["wall_s"]
        print(f"ledger: traced wall {wall:.4f} s = layer self times + sim.residual_s")
        for layer, seconds in sorted(ledger.items(), key=lambda item: -item[1]):
            print(f"  {layer:14s} {seconds:10.4f} s  {100 * seconds / wall:5.1f}%")
        predicted = PREDICTED_DOMINANT[args.workload]
        held = dominant != "edge" if predicted == "not edge" else dominant == predicted
        print(
            f"dominant layer: {dominant} (predicted: {predicted}; "
            f"{'as predicted' if held else 'prediction was wrong'})"
        )
        _print_metrics(
            "per-layer metrics (traced run):",
            [(name, unit, better, layers[name]) for name, unit, better in PER_LAYER],
        )
        print(f"spans: {spans.relative_to(ROOT)}")

    if layers is not None:
        metrics = {
            name: {"value": layers[name], "unit": unit} for name, unit, _better in PER_LAYER
        }
    else:
        metrics = {
            name: {"value": end_to_end[name], "unit": unit} for name, unit, _b, _bound in END_TO_END
        }
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seeds": first["seeds"],
        "env": {**env, "numpy": first["numpy"]},
        "operations": ops,
        "errors": errors,
        "checks": checks,
        "dominant_layer": dominant,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    seed = "default" if args.seed is None else args.seed
    (OUT / f"result-{args.workload}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
