"""One operation of one workload, in a fresh process.

``run.py`` starts this file once per operation, so every timed or traced
call begins with no state left by an earlier one: a new ``patch_id``
counter, empty module caches, and a heap with no garbage from a previous
call (``gc.collect()`` runs after set-up).  Modes:

* ``setup``  -- imports and input generation only (a ``setup_s`` sample);
* ``timed``  -- set-up, then the workload's call with tracing off;
* ``traced`` -- the same call with spans around every layer entry point;
  writes the spans to ``--spans`` and reports the per-layer metrics.

Prints one JSON object on its last stdout line.  ``--spawned`` is the
``time.perf_counter()`` reading of the parent just before it started
this process (the clock is system-wide), so ``setup_s`` runs from process
start to the first timed call.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--fixture-seed", type=int, default=None)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy

    from tracing import Recorder, Registry, instrument, layer_metrics, watch_all
    from workloads import WORKLOADS

    imported = time.perf_counter()
    workload = WORKLOADS[args.workload]
    seeds = workload.seeds(args.seed, args.fixture_seed)
    inputs = workload.build(seeds)
    built = time.perf_counter()
    report = {
        "seeds": seeds,
        "numpy": numpy.__version__,
        "import_s": imported - args.spawned,
        "inputs_s": built - imported,
    }
    if args.mode == "setup":
        report["setup_s"] = time.perf_counter() - args.spawned
        print(json.dumps(report))
        return 0

    registry = Registry()
    watch_all(registry)
    recorder = None
    if args.mode == "traced":
        recorder = Recorder()
        instrument(recorder)
    gc.collect()
    start = time.perf_counter()
    report["setup_s"] = start - args.spawned
    raw = workload.run(inputs)
    wall_s = time.perf_counter() - start
    report["wall_s"] = wall_s
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcomes = workload.outcomes(raw, registry)
    report["outcomes"] = outcomes
    report["checks"] = workload.checks(raw, outcomes)
    if registry.objects["router"]:
        # The sharded critical path is *modelled*: scheduler compute on
        # the slowest shard, as if shards ran as separate processes.
        report["critical_path_s"] = max(s.compute_seconds for s in registry.objects["tangram"])
    if recorder is not None:
        report["layers"] = layer_metrics(recorder, registry, wall_s)
        if args.spans is not None:
            recorder.write(args.spans, wall_s, origin=start)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
