"""The benchmark's metric registry and the ``BENCHMARK.json`` it defines.

Every metric name the benchmark reports is declared here once, with its
unit and direction; ``run.py`` builds its JSON result from these tables,
and ``python3 perfbench/spec.py`` writes ``BENCHMARK.json`` from them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Seconds one run measures (see README, "Run length and noise").
RUN_SECONDS = 40

#: (name, why) of each workload; the README gives the long form.
WORKLOADS = (
    (
        "fig12_sweep",
        "Fig-12 sweep: 4 strategies x 3 (bandwidth, SLO) points on one "
        "3x12-frame trace; edge/geometry dominates and its output is "
        "recomputed 12x per sweep",
    ),
    (
        "accuracy_table3",
        "Table-III study: full-frame AP vs 2x2/4x4/6x6 partitions on 2 "
        "scenes; detector and AP matching dominate, new zone grid each "
        "call so an edge cache cannot help",
    ),
    (
        "fleet_overload",
        "256-camera sharded fleet under dropout, loss, jitter and bursts; "
        "no edge work, time goes to scheduler, event heap, retry, ingest, "
        "liveness and routing",
    ),
)

#: Metrics every workload reports with tracing off:
#: (name, unit, better, bound).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

#: Simulated outcomes of the system (deterministic for a seed); reported
#: by the traced run, and printed by every run.  A workload without such
#: an output reports 0 (see README).
OUTCOMES = (
    ("outcome.cost_per_frame_usd", "USD", "lower"),
    ("outcome.uplink_bytes_per_frame", "B", "lower"),
    ("outcome.slo_miss_rate", "ratio", "lower"),
    ("outcome.patch_latency_p50_s", "s", "lower"),
    ("outcome.patch_latency_p99_s", "s", "lower"),
    ("outcome.latency_samples", "count", "higher"),
    ("outcome.canvas_efficiency", "ratio", "higher"),
    ("outcome.delivered_fraction", "ratio", "higher"),
    ("outcome.ap50", "ratio", "higher"),
    ("outcome.ap50_loss", "ratio", "lower"),
    ("outcome.errors", "count", "lower"),
)

#: Per-layer metrics of the traced run: (name, unit, better).
LAYER_METRICS = (
    # edge: core.partitioning, vision.roi_extractors, video.geometry
    ("edge.partition.calls", "count", "lower"),
    ("edge.partition.self_s", "s", "lower"),
    ("edge.extract.self_s", "s", "lower"),
    ("edge.merge.calls", "count", "lower"),
    ("edge.merge.self_s", "s", "lower"),
    ("edge.merge.boxes_in", "count", "lower"),
    ("edge.patches_out", "count", "lower"),
    ("edge.recompute_ratio", "ratio", "lower"),
    # vision: vision.detector, vision.metrics
    ("vision.detect.calls", "count", "lower"),
    ("vision.detect.self_s", "s", "lower"),
    ("vision.ap.calls", "count", "lower"),
    ("vision.ap.self_s", "s", "lower"),
    ("vision.ap.detections_in", "count", "lower"),
    # net + retry: network.link, fleet.retry
    ("net.send.calls", "count", "lower"),
    ("net.send.self_s", "s", "lower"),
    ("net.bytes", "B", "lower"),
    ("net.drops", "count", "lower"),
    ("retry.attempts", "count", "lower"),
    ("retry.retries", "count", "lower"),
    ("retry.failed", "count", "lower"),
    ("retry.success_ratio", "ratio", "higher"),
    ("retry.send.self_s", "s", "lower"),
    # ingest: fleet.ingest, fleet.liveness
    ("ingest.offer.calls", "count", "lower"),
    ("ingest.offer.self_s", "s", "lower"),
    ("ingest.dropped", "count", "lower"),
    ("ingest.expired", "count", "lower"),
    ("ingest.shed", "count", "lower"),
    ("ingest.max_pending", "count", "lower"),
    ("ingest.degraded_entries", "count", "lower"),
    ("liveness.heartbeat.self_s", "s", "lower"),
    ("liveness.dead", "count", "lower"),
    # shard: fleet.shard, serverless.loadbalancer
    ("shard.rebalance.calls", "count", "lower"),
    ("shard.rebalance.self_s", "s", "lower"),
    ("shard.route.self_s", "s", "lower"),
    ("shard.steals", "count", "lower"),
    ("shard.skew", "ratio", "lower"),
    ("shard.critical_path_s", "s", "lower"),
    # sched: core.scheduler, core.stitching, core.consolidation, indexes
    ("sched.receive.calls", "count", "lower"),
    ("sched.receive.self_s", "s", "lower"),
    ("sched.receive.p50_us", "us", "lower"),
    ("sched.receive.p99_us", "us", "lower"),
    ("sched.probe.self_s", "s", "lower"),
    ("sched.consolidation.self_s", "s", "lower"),
    ("sched.commit.self_s", "s", "lower"),
    ("sched.flush.self_s", "s", "lower"),
    ("sched.consolidation.attempts", "count", "lower"),
    ("sched.consolidation.adopt_ratio", "ratio", "higher"),
    ("sched.batches", "count", "lower"),
    ("sched.canvases", "count", "lower"),
    ("sched.patches_per_batch", "count", "higher"),
    ("sched.wait_p50_s", "s", "lower"),
    ("sched.wait_p99_s", "s", "lower"),
    # baselines: baselines.*
    ("baselines.receive.self_s", "s", "lower"),
    # faas: serverless.platform, serverless.function
    ("faas.invoke.calls", "count", "lower"),
    ("faas.invoke.self_s", "s", "lower"),
    ("faas.cold_starts", "count", "lower"),
    ("faas.instances_peak", "count", "lower"),
    ("faas.queueing_p99_s", "s", "lower"),
    ("faas.busy_s", "s", "lower"),
    # sim: simulation.engine, simulation.events
    ("sim.events", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.residual_s", "s", "lower"),
    # setup: video.generator, video.dataset, workloads
    ("setup.import_s", "s", "lower"),
    ("setup.inputs_s", "s", "lower"),
    # trace
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

#: Layers of the ledger, in print order; each span name's prefix maps to
#: one of them (``retry`` books to ``net``, ``liveness`` to ``ingest``).
LEDGER_LAYERS = ("edge", "vision", "net", "ingest", "shard", "sched", "baselines", "faas")
LEDGER = tuple((f"ledger.{layer}.self_s", "s", "lower") for layer in LEDGER_LAYERS)

PER_LAYER = LAYER_METRICS + LEDGER + OUTCOMES


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


def main() -> int:
    path = ROOT / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
