"""Fault-tolerant fleet ingestion in front of the Tangram scheduler.

The paper's end-to-end story assumes cameras that never disconnect and
uplinks that never drop a byte.  This package is the robustness layer a
real fleet needs between frame capture and ``TangramScheduler``:

* :mod:`repro.fleet.ingest` -- bounded per-camera queues with drop-newest
  backpressure, deadline-ordered draining, stale expiry before the packer
  sees a patch, and watermark degradation with hysteresis;
* :mod:`repro.fleet.liveness` -- heartbeat liveness with the
  alive/suspect/dead/reconnecting state machine;
* :mod:`repro.fleet.retry` -- exponential backoff + jitter retransmission
  over the lossy uplink mode of :mod:`repro.network.link`;
* :mod:`repro.fleet.faults` -- seeded, deterministic fault plans
  (dropout, loss, jitter, burst) whose windows nest as intensity rises;
* :mod:`repro.fleet.scenario` -- the config and fully-counted result
  types of one fleet run;
* :mod:`repro.fleet.shard` -- the fleet runner: the wiring of all of the
  above, with camera ownership partitioned across N independent scheduler
  workers by consistent-hash (or load-based) dispatch and clone-planned
  work stealing; ``shards=1`` is the single-scheduler fleet.
"""

from repro.fleet.faults import FaultEvent, FaultFreePlan, FaultPlan
from repro.fleet.ingest import FleetIngestor
from repro.fleet.liveness import (
    ALIVE,
    DEAD,
    LIVENESS_STATES,
    RECONNECTING,
    SUSPECT,
    LivenessTracker,
)
from repro.fleet.retry import ReliableSender, RetryPolicy, TransferStats
from repro.fleet.scenario import FleetRunResult, FleetScenarioConfig
from repro.fleet.shard import (
    ShardRouter,
    ShardRunResult,
    ShardScenarioConfig,
    ShardWorker,
    consistent_shard_assignment,
    run_sharded_scenario,
    sharded_scenario_counters,
)
from repro.workloads.fleet import FleetWorkloadConfig, camera_ids

__all__ = [
    "ALIVE",
    "DEAD",
    "LIVENESS_STATES",
    "RECONNECTING",
    "SUSPECT",
    "FaultEvent",
    "FaultFreePlan",
    "FaultPlan",
    "FleetIngestor",
    "FleetRunResult",
    "FleetScenarioConfig",
    "FleetWorkloadConfig",
    "LivenessTracker",
    "ShardRouter",
    "ShardRunResult",
    "ShardScenarioConfig",
    "ShardWorker",
    "camera_ids",
    "consistent_shard_assignment",
    "ReliableSender",
    "RetryPolicy",
    "TransferStats",
    "run_sharded_scenario",
    "sharded_scenario_counters",
]
