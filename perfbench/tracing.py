"""Spans around each layer's public entry points, recorded from outside.

Nothing under ``src/`` knows about this module: :func:`instrument`
replaces class methods and the module-level names callers import
(``merge_overlapping`` in the RoI extractors, ``average_precision`` in
the accuracy pipeline) with wrappers that record one span per call.  It
runs inside a fresh worker process (see ``worker.py``), so nothing has to
be restored afterwards.

A span is ``[name, parent, start, end]`` with ``parent`` the index of the
span open when it started (-1 for none).  A span's *self time* is its
duration minus the durations of its direct children; summed over every
span, self time covers each traced instant exactly once, so the traced
wall time minus that sum is the time spent outside every layer: the
simulator's event loop and the pipeline glue (``sim.residual_s``).
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

from spec import LEDGER_LAYERS

#: Span-name prefix -> ledger layer, where they differ.
_LEDGER_OF = {"retry": "net", "liveness": "ingest"}


class Recorder:
    """In-memory span store plus counters taken at the same boundaries."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.counters: Dict[str, float] = defaultdict(float)
        #: Distinct edge inputs (camera, frame, zones, roi method, seed).
        self.edge_inputs: set = set()
        #: patch_id -> simulated time the Tangram scheduler received it.
        self.received_at: Dict[int, float] = {}

    def wrap(self, func: Callable, name: str, after: Optional[Callable] = None) -> Callable:
        """``func`` with a span named ``name`` around each call;
        ``after(recorder, args, kwargs, result)`` updates counters on
        return."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            spans.append(span)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    # -------------------------------------------------------------- analysis
    def self_times(self) -> Dict[str, List[float]]:
        """Span name -> self time of every call, in call order."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, List[float]] = defaultdict(list)
        for index, (name, _parent, start, end) in enumerate(self.spans):
            out[name].append(end - start - child[index])
        return out

    def durations(self, name: str) -> List[float]:
        return [end - start for span_name, _p, start, end in self.spans if span_name == name]

    def ledger(self, wall_s: float) -> Dict[str, float]:
        """Self seconds per ledger layer plus the residual."""
        totals = {layer: 0.0 for layer in LEDGER_LAYERS}
        for name, values in self.self_times().items():
            prefix = name.split(".", 1)[0]
            totals[_LEDGER_OF.get(prefix, prefix)] += sum(values)
        totals["sim.residual"] = wall_s - sum(totals.values())
        return totals

    def write(self, path: Path, wall_s: float, origin: float) -> None:
        """Write every span (times in microseconds from ``origin``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "wall_s": wall_s,
            "fields": ["name", "parent", "start_us", "end_us"],
            "spans": [
                [name, parent, round((start - origin) * 1e6, 1), round((end - origin) * 1e6, 1)]
                for name, parent, start, end in self.spans
            ],
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))


class Registry:
    """Objects of interest, collected as their constructors run, so
    counters can be read after the program returns."""

    def __init__(self) -> None:
        self.objects: Dict[str, list] = defaultdict(list)

    def watch(self, cls: type, key: str) -> None:
        original = cls.__init__
        objects = self.objects[key]

        @functools.wraps(original)
        def init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            objects.append(obj)

        cls.__init__ = init


def watch_all(registry: Registry) -> None:
    """Register the constructors every workload reads counters from.
    Cheap (one call per constructed object), so it also runs untraced."""
    from repro.core.consolidation import ConsolidationEngine
    from repro.core.scheduler import TangramScheduler
    from repro.fleet.ingest import FleetIngestor
    from repro.fleet.liveness import LivenessTracker
    from repro.fleet.retry import ReliableSender
    from repro.fleet.shard import ShardRouter
    from repro.network.link import Uplink
    from repro.serverless.platform import ServerlessPlatform
    from repro.simulation.engine import Simulator

    for cls, key in (
        (TangramScheduler, "tangram"),
        (ConsolidationEngine, "consolidation"),
        (FleetIngestor, "ingestor"),
        (LivenessTracker, "liveness"),
        (ReliableSender, "sender"),
        (ShardRouter, "router"),
        (Uplink, "uplink"),
        (ServerlessPlatform, "platform"),
        (Simulator, "simulator"),
    ):
        registry.watch(cls, key)


# ------------------------------------------------------------------ counters
def _partition_done(rec: Recorder, args, kwargs, patches) -> None:
    partitioner, frame = args[0], args[1]
    extractor = partitioner.roi_extractor
    camera = kwargs.get("camera_id", args[4] if len(args) > 4 else None)
    rec.edge_inputs.add(
        (
            camera,
            frame.scene_key,
            frame.frame_index,
            partitioner.zones_x,
            partitioner.zones_y,
            extractor.profile.name,
            extractor.streams.root_seed,
        )
    )
    rec.counters["edge.patches_out"] += len(patches)


def _merge_done(rec: Recorder, args, _kwargs, _result) -> None:
    rec.counters["edge.merge.boxes_in"] += len(args[0])


def _ap_done(rec: Recorder, args, _kwargs, _result) -> None:
    rec.counters["vision.ap.detections_in"] += len(args[0])


def _receive_done(rec: Recorder, args, _kwargs, _result) -> None:
    scheduler, patch = args[0], args[1]
    rec.received_at[patch.patch_id] = scheduler.simulator.now


def _plan_done(rec: Recorder, _args, _kwargs, plan) -> None:
    if plan is not None:
        rec.counters["sched.consolidation.adopted"] += 1


def instrument(rec: Recorder) -> None:
    """Wrap every layer entry point the three workloads reach."""
    import repro.pipeline.accuracy as accuracy
    import repro.vision.roi_extractors as roi_extractors
    from repro.baselines.clipper import ClipperScheduler
    from repro.baselines.elf import ELFScheduler
    from repro.baselines.mark import MArkScheduler
    from repro.core.consolidation import ConsolidationEngine
    from repro.core.partitioning import FramePartitioner
    from repro.core.scheduler import TangramScheduler
    from repro.core.stitching import IncrementalStitcher
    from repro.fleet.ingest import FleetIngestor
    from repro.fleet.liveness import LivenessTracker
    from repro.fleet.retry import ReliableSender
    from repro.fleet.shard import ShardRouter
    from repro.network.link import Uplink
    from repro.serverless.platform import ServerlessPlatform
    from repro.vision.detector import SimulatedDetector

    def method(cls, attr, name, after=None):
        # Set on ``cls`` itself, so an inherited method is wrapped for
        # this class only and keeps its own span name per subclass.
        setattr(cls, attr, rec.wrap(getattr(cls, attr), name, after))

    def function(module, attr, name, after=None):
        setattr(module, attr, rec.wrap(getattr(module, attr), name, after))

    # edge
    method(FramePartitioner, "partition", "edge.partition", _partition_done)
    method(roi_extractors.AnalyticRoIExtractor, "extract", "edge.extract")
    function(roi_extractors, "merge_overlapping", "edge.merge", _merge_done)
    # vision
    method(SimulatedDetector, "detect_full_frame", "vision.detect")
    method(SimulatedDetector, "detect_in_regions", "vision.detect")
    function(accuracy, "average_precision", "vision.ap", _ap_done)
    # net + retry
    method(Uplink, "send", "net.send")
    method(ReliableSender, "send", "retry.send")
    # ingest + liveness
    method(FleetIngestor, "offer", "ingest.offer")
    method(FleetIngestor, "flush", "ingest.flush")
    method(LivenessTracker, "heartbeat", "liveness.heartbeat")
    method(LivenessTracker, "sweep", "liveness.sweep")
    # shard
    method(ShardRouter, "rebalance", "shard.rebalance")
    method(ShardRouter, "owner", "shard.route")
    # sched
    method(TangramScheduler, "receive_patch", "sched.receive", _receive_done)
    method(TangramScheduler, "flush", "sched.flush")
    method(TangramScheduler, "invoke_canvases", "sched.invoke")
    method(IncrementalStitcher, "probe", "sched.probe")
    method(IncrementalStitcher, "commit", "sched.commit")
    method(IncrementalStitcher, "reset", "sched.reset")
    method(ConsolidationEngine, "plan", "sched.consolidation", _plan_done)
    # baselines
    for cls in (ClipperScheduler, ELFScheduler, MArkScheduler):
        method(cls, "receive_patch", "baselines.receive")
        method(cls, "flush", "baselines.flush")
        method(cls, "invoke_canvases", "baselines.invoke")
    # faas
    method(ServerlessPlatform, "invoke", "faas.invoke")


# ------------------------------------------------------------------- metrics
def percentile(values, q: float) -> float:
    """The ``q``-th percentile of ``values`` (0 when there are none)."""
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(rec: Recorder, registry: Registry, wall_s: float) -> Dict[str, float]:
    """Every span- and counter-based per-layer metric of one traced call.
    Layers a workload does not reach report 0."""
    self_times = rec.self_times()
    objects = registry.objects
    out: Dict[str, float] = {}

    def calls(name: str) -> int:
        return len(self_times.get(name, ()))

    def self_s(name: str) -> float:
        return sum(self_times.get(name, ()))

    # edge
    out["edge.partition.calls"] = calls("edge.partition")
    out["edge.partition.self_s"] = self_s("edge.partition")
    out["edge.extract.self_s"] = self_s("edge.extract")
    out["edge.merge.calls"] = calls("edge.merge")
    out["edge.merge.self_s"] = self_s("edge.merge")
    out["edge.merge.boxes_in"] = rec.counters["edge.merge.boxes_in"]
    out["edge.patches_out"] = rec.counters["edge.patches_out"]
    distinct = len(rec.edge_inputs)
    out["edge.recompute_ratio"] = out["edge.partition.calls"] / distinct if distinct else 0.0
    # vision
    out["vision.detect.calls"] = calls("vision.detect")
    out["vision.detect.self_s"] = self_s("vision.detect")
    out["vision.ap.calls"] = calls("vision.ap")
    out["vision.ap.self_s"] = self_s("vision.ap")
    out["vision.ap.detections_in"] = rec.counters["vision.ap.detections_in"]
    # net + retry
    uplinks, senders = objects["uplink"], objects["sender"]
    out["net.send.calls"] = calls("net.send")
    out["net.send.self_s"] = self_s("net.send")
    out["net.bytes"] = sum(uplink.total_bytes for uplink in uplinks)
    out["net.drops"] = sum(len(uplink.drops) for uplink in uplinks)
    attempts = sum(sender.stats.attempts for sender in senders)
    out["retry.attempts"] = attempts
    out["retry.retries"] = sum(sender.stats.retries for sender in senders)
    out["retry.failed"] = sum(sender.stats.failed for sender in senders)
    delivered = sum(sender.stats.delivered for sender in senders)
    out["retry.success_ratio"] = delivered / attempts if attempts else 0.0
    out["retry.send.self_s"] = self_s("retry.send")
    # ingest + liveness
    ingestors = objects["ingestor"]
    out["ingest.offer.calls"] = calls("ingest.offer")
    out["ingest.offer.self_s"] = self_s("ingest.offer")
    out["ingest.dropped"] = sum(i.dropped_backpressure for i in ingestors)
    out["ingest.expired"] = sum(i.expired_stale + i.expired_dead for i in ingestors)
    out["ingest.shed"] = sum(i.shed_degraded for i in ingestors)
    out["ingest.max_pending"] = max((i.stats["max_pending"] for i in ingestors), default=0)
    out["ingest.degraded_entries"] = sum(i.degraded_entries for i in ingestors)
    out["liveness.heartbeat.self_s"] = self_s("liveness.heartbeat")
    out["liveness.dead"] = sum(t.transitions["dead"] for t in objects["liveness"])
    # shard
    routers = objects["router"]
    tangram = objects["tangram"]
    out["shard.rebalance.calls"] = calls("shard.rebalance")
    out["shard.rebalance.self_s"] = self_s("shard.rebalance")
    out["shard.route.self_s"] = self_s("shard.route")
    out["shard.steals"] = sum(r.counters["steals_committed"] for r in routers)
    admitted = [i.admitted for i in ingestors]
    sharded = bool(routers) and sum(admitted) > 0
    out["shard.skew"] = max(admitted) / (sum(admitted) / len(admitted)) if sharded else 0.0
    out["shard.critical_path_s"] = max(s.compute_seconds for s in tangram) if routers else 0.0
    # sched
    receive = rec.durations("sched.receive")
    out["sched.receive.calls"] = len(receive)
    out["sched.receive.self_s"] = self_s("sched.receive")
    out["sched.receive.p50_us"] = percentile(receive, 50) * 1e6
    out["sched.receive.p99_us"] = percentile(receive, 99) * 1e6
    out["sched.probe.self_s"] = self_s("sched.probe")
    out["sched.consolidation.self_s"] = self_s("sched.consolidation")
    out["sched.commit.self_s"] = self_s("sched.commit")
    out["sched.flush.self_s"] = self_s("sched.flush")
    tries = sum(engine.stats["attempts"] for engine in objects["consolidation"])
    out["sched.consolidation.attempts"] = tries
    adopted = rec.counters["sched.consolidation.adopted"]
    out["sched.consolidation.adopt_ratio"] = adopted / tries if tries else 0.0
    batches = [b for s in tangram for b in s.batches if b.outcomes]
    out["sched.batches"] = len(batches)
    out["sched.canvases"] = sum(b.num_canvases for b in batches)
    patches = sum(b.num_patches for b in batches)
    out["sched.patches_per_batch"] = patches / len(batches) if batches else 0.0
    waits = [
        b.invoke_time - rec.received_at[o.patch.patch_id]
        for b in batches
        for o in b.outcomes
        if o.patch.patch_id in rec.received_at
    ]
    out["sched.wait_p50_s"] = percentile(waits, 50)
    out["sched.wait_p99_s"] = percentile(waits, 99)
    # baselines
    out["baselines.receive.self_s"] = self_s("baselines.receive")
    # faas
    platforms = objects["platform"]
    instances = [inst for p in platforms for inst in p.instances]
    records = [r for inst in instances for r in inst.invocations]
    out["faas.invoke.calls"] = calls("faas.invoke")
    out["faas.invoke.self_s"] = self_s("faas.invoke")
    out["faas.cold_starts"] = sum(1 for r in records if r.cold_start > 0)
    out["faas.instances_peak"] = max((len(p.instances) for p in platforms), default=0)
    out["faas.queueing_p99_s"] = percentile([r.queueing_delay for r in records], 99)
    out["faas.busy_s"] = sum(inst.total_busy_time for inst in instances)
    # sim + ledger
    out["sim.events"] = sum(sim.fired_events for sim in objects["simulator"])
    ledger = rec.ledger(wall_s)
    out["sim.residual_s"] = ledger.pop("sim.residual")
    for layer, seconds in ledger.items():
        out[f"ledger.{layer}.self_s"] = seconds
    out["trace.wall_s"] = wall_s
    return out
