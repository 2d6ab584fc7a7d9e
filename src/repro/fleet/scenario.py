"""Config and result types of one fleet run, shared by the fleet runner.

:func:`repro.fleet.shard.run_sharded_scenario` wires the whole
fault-tolerant path together over the deterministic patch workload of
:mod:`repro.workloads.fleet`; with ``shards=1`` it is the
single-scheduler fleet.  This module holds what that wiring is
configured and measured with:

* :class:`FleetScenarioConfig` -- workload, uplinks, retry, ingest,
  liveness and scheduler knobs;
* :class:`FleetRunResult` -- every counter the chaos contracts compare:
  two runs with the same config and plan produce identical
  :meth:`FleetRunResult.counters`, and the base-stream
  :attr:`~FleetRunResult.delivered_fraction` degrades monotonically in the
  plan intensity (see ``tests/chaos/test_fault_matrix.py``);
* :func:`batch_key` -- the run-independent identity of one batch that the
  byte-identity pins compare.

Burst fault events inject surplus patches tagged ``"fault:burst"``,
excluded from the delivered-fraction metric so they only *pressure* the
pipeline; the scheduler facade that splits admissions by that tag lives
here too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.latency import LatencyEstimator
from repro.core.options import SchedulerOptions
from repro.core.scheduler import BatchRecord, TangramScheduler
from repro.fleet.retry import RetryPolicy
from repro.workloads.fleet import BURST_SCENE, FleetWorkloadConfig


@dataclass
class FleetScenarioConfig:
    """Everything one fleet run needs besides the fault plan."""

    workload: FleetWorkloadConfig = field(default_factory=FleetWorkloadConfig)
    #: Per-camera uplink bandwidth (the fleet path never shares uplinks).
    bandwidth_mbps: float = 40.0
    propagation_delay: float = 0.005
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Ingest knobs (see :class:`repro.fleet.ingest.FleetIngestor`).
    queue_capacity: int = 64
    high_watermark: Optional[int] = None
    low_watermark: Optional[int] = None
    drain_interval: float = 0.05
    #: Liveness knobs; ``track_liveness=False`` disables the tracker.
    track_liveness: bool = True
    suspect_after_s: float = 0.75
    dead_after_s: float = 2.0
    reconnect_settle_s: float = 0.5
    #: Scheduler knobs (subset of :class:`repro.core.tangram.TangramConfig`).
    canvas_size: float = 1024.0
    seed: int = 0
    max_instances: int = 32
    cold_start_time: float = 0.05
    estimator_iterations: int = 150
    #: Function GPU memory; raising it (e.g. to 24) lifts the
    #: ``max_canvases`` ship-and-reset cap, which is what lets the
    #: per-scheduler live canvas set -- and hence per-patch probe cost --
    #: grow with fleet size (the regime the sharded bench measures).
    gpu_memory_gb: float = 6.0
    #: Every scheduler knob; the sharded frontend hands this one record
    #: to each worker.  The fleet default consolidates per canvas
    #: (``repack_scope="canvas"``), unlike ``SchedulerOptions()``.
    scheduler_options: SchedulerOptions = field(
        default_factory=lambda: SchedulerOptions(repack_scope="canvas")
    )
    #: Capture per-batch placement tuples for the byte-identity pins
    #: (fills :attr:`FleetRunResult.batch_keys`; off by default).
    record_placements: bool = False


@dataclass
class FleetRunResult:
    """Counters and derived metrics of one fleet run."""

    expected_base: int
    captured_base: int = 0
    suppressed_base: int = 0
    burst_sent: int = 0
    failed_base: int = 0
    failed_burst: int = 0
    admitted_base: int = 0
    admitted_burst: int = 0
    shed_scheduler_base: int = 0
    shed_scheduler_burst: int = 0
    slo_violations: int = 0
    completed_patches: int = 0
    num_batches: int = 0
    #: Canvases invoked across all completed batches, and their mean
    #: efficiency -- the quantities the cross-policy matrix states its
    #: sharded-vs-unsharded contract bounds over.
    num_canvases: int = 0
    mean_canvas_efficiency: float = 0.0
    ingest: Dict[str, int] = field(default_factory=dict)
    transfers: Dict[str, int] = field(default_factory=dict)
    liveness_transitions: Dict[str, int] = field(default_factory=dict)
    fault_summary: Dict[str, object] = field(default_factory=dict)
    simulated_duration: float = 0.0
    #: Wall-clock seconds the scheduler(s) spent inside their own entry
    #: points (see :attr:`repro.core.scheduler.BaseScheduler.
    #: compute_seconds`); summed across workers in the sharded path.
    scheduler_compute_seconds: float = 0.0
    errors: int = 0
    #: Run-independent per-batch keys (times, cost, efficiencies,
    #: placements, outcome identities); only populated when the config
    #: asked for ``record_placements`` -- the byte-identity pins compare
    #: these lists.
    batch_keys: List[tuple] = field(default_factory=list)

    # ---------------------------------------------------------------- derived
    @property
    def delivered_base(self) -> int:
        """Base patches the scheduler actually accepted (post-shedding)."""
        return self.admitted_base - self.shed_scheduler_base

    @property
    def delivered_fraction(self) -> float:
        """Fraction of the fault-free base stream delivered in time --
        the "delivered stream efficiency" the monotonicity contract and
        the bench ratio gate are stated over."""
        if self.expected_base == 0:
            return 0.0
        return self.delivered_base / self.expected_base

    @property
    def injected_fault_fraction(self) -> float:
        """Fraction of offered load that faults touched: suppressed
        captures, transfers that exhausted retries, and the burst
        surplus itself."""
        offered = self.expected_base + self.burst_sent
        if offered == 0:
            return 0.0
        injected = (
            self.suppressed_base + self.failed_base + self.failed_burst + self.burst_sent
        )
        return injected / offered

    @property
    def shed_expired_fraction(self) -> float:
        """Fraction of offered load lost *inside* the pipeline (ingest
        drops/expiry plus watermark shedding at either layer)."""
        offered = self.expected_base + self.burst_sent
        if offered == 0:
            return 0.0
        lost = (
            self.ingest.get("dropped_backpressure", 0)
            + self.ingest.get("expired_stale", 0)
            + self.ingest.get("expired_dead", 0)
            + self.ingest.get("shed_degraded", 0)
            + self.shed_scheduler_base
            + self.shed_scheduler_burst
        )
        return lost / offered

    def counters(self) -> Dict[str, int]:
        """The integer counters two same-seed runs must agree on."""
        flat = {
            "expected_base": self.expected_base,
            "captured_base": self.captured_base,
            "suppressed_base": self.suppressed_base,
            "burst_sent": self.burst_sent,
            "failed_base": self.failed_base,
            "failed_burst": self.failed_burst,
            "admitted_base": self.admitted_base,
            "admitted_burst": self.admitted_burst,
            "shed_scheduler_base": self.shed_scheduler_base,
            "shed_scheduler_burst": self.shed_scheduler_burst,
            "slo_violations": self.slo_violations,
            "completed_patches": self.completed_patches,
            "num_batches": self.num_batches,
            "num_canvases": self.num_canvases,
            "errors": self.errors,
        }
        for key, value in sorted(self.ingest.items()):
            flat[f"ingest_{key}"] = value
        for key, value in sorted(self.transfers.items()):
            flat[f"transfer_{key}"] = value
        for key, value in sorted(self.liveness_transitions.items()):
            flat[f"liveness_{key}"] = value
        return flat


class _CountingFrontend:
    """Scheduler facade that splits admissions by scene key.

    The ingestor drains into this instead of the scheduler directly, so
    the result can separate the base stream from burst-injected surplus
    without threading tags through the scheduler itself.
    """

    def __init__(self, scheduler: TangramScheduler) -> None:
        self.scheduler = scheduler
        self.base = 0
        self.burst = 0

    @property
    def estimator(self) -> LatencyEstimator:
        return self.scheduler.estimator

    @property
    def pending_patches(self) -> int:
        return self.scheduler.pending_patches

    def receive_patch(self, patch) -> None:
        if patch.scene_key == BURST_SCENE:
            self.burst += 1
        else:
            self.base += 1
        self.scheduler.receive_patch(patch)

    def flush(self) -> None:
        self.scheduler.flush()


def batch_key(batch: BatchRecord) -> tuple:
    """A run-independent identity for one completed batch.

    ``patch_id`` is a process-global counter, so two separate runs of the
    same scenario number their patches differently; outcome identities
    are keyed by ``(camera, frame, scene, width, height)`` instead, which
    is unique per patch slot of the deterministic fleet workload.  The
    byte-identity pins compare lists of these keys.
    """
    return (
        batch.invoke_time,
        batch.completion_time,
        batch.execution_time,
        batch.cost,
        tuple(batch.canvas_efficiencies),
        batch.placements,
        tuple(
            (
                o.patch.camera_id,
                o.patch.frame_index,
                o.patch.scene_key,
                o.patch.region.width,
                o.patch.region.height,
                o.completion_time,
            )
            for o in batch.outcomes
        ),
    )


__all__: List[str] = [
    "FleetScenarioConfig",
    "FleetRunResult",
    "batch_key",
]
