"""The cross-policy equivalence matrix: one parametrised stream test.

The grid the arrival path exposes — 2 canvas structures
(``skyline``/``guillotine``) x 2 consolidation trials (the engine's
``memo`` cache and its uncached ``repack`` oracle, installed through
``stitcher.consolidation_engine.policy``) x probe index on/off (the
size-class free-rectangle index vs the linear sweep) — is pinned here as
the **single source of truth** for the documented metric contracts,
replacing the per-PR pairwise pins scattered across earlier suites (the
byte-level pins those suites carry remain; this matrix is the one place
the *metric* contracts live):

* ``memo`` is byte-identical to ``repack`` and the index is
  byte-identical to the linear sweep, so within one structure all four
  combos must produce *exactly* the same placements;
* across structures, the references track each other within the PR-3
  bounds (canvas counts within 5%, mean efficiency ratio >= 0.97).

Depth 2048 on the benchmark's uniform fleet distribution: deep enough
that every combo exercises genuine victim consolidation (asserted).
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from repro.core.consolidation import RepackPolicy
from repro.core.options import SchedulerOptions
from repro.core.patches import Patch
from repro.core.stitching import IncrementalStitcher, PatchStitchingSolver
from repro.video.geometry import Box

DEPTH = 2048
SEED = 43

STRUCTURES = ("skyline", "guillotine")
POLICIES = ("repack", "memo")
INDEX_ARMS = (True, False)  # free-rectangle index on / linear sweep


def _patches(count: int, seed: int) -> list[Patch]:
    rng = np.random.default_rng(seed)
    return [
        Patch(
            camera_id="cam",
            frame_index=0,
            region=Box(0.0, 0.0, float(w), float(h)),
            generation_time=0.0,
            slo=1.0,
        )
        for w, h in zip(
            rng.uniform(64.0, 640.0, size=count), rng.uniform(64.0, 640.0, size=count)
        )
    ]


def _run(structure: str, policy: str, use_index: bool):
    patches = _stream()
    stitcher = IncrementalStitcher(
        PatchStitchingSolver(canvas_structure=structure),
        options=SchedulerOptions(repack_scope="canvas", use_index=use_index),
    )
    if policy == "repack":
        stitcher.consolidation_engine.policy = RepackPolicy()
    for patch in patches:
        stitcher.add(patch)
    PatchStitchingSolver.validate_packing(stitcher.canvases, strict=True)
    placed = sorted(p.patch_id for c in stitcher.canvases for p in c.patches)
    assert placed == sorted(p.patch_id for p in patches), "patches lost"
    key = [(p.patch.patch_id, p.x, p.y) for c in stitcher.canvases for p in c.placements]
    consolidations = stitcher.stats["partial_repacks"] + stitcher.stats["full_repacks"]
    return {
        "canvases": stitcher.num_canvases,
        "efficiency": stitcher.mean_canvas_efficiency,
        "key": key,
        "consolidations": consolidations,
    }


#: Shared stream and per-combo results, computed lazily on first use so
#: collection stays free and ``-k`` selections only run what they read
#: (each combo runs once, not once per assert).
_CACHE: dict = {}


def _stream():
    if "patches" not in _CACHE:
        _CACHE["patches"] = _patches(DEPTH, SEED)
    return _CACHE["patches"]


def _result(structure: str, policy: str, use_index: bool):
    key = (structure, policy, use_index)
    if key not in _CACHE:
        _CACHE[key] = _run(structure, policy, use_index)
    return _CACHE[key]


@pytest.mark.parametrize("structure", STRUCTURES)
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("use_index", INDEX_ARMS)
def test_matrix_metric_contracts(structure, policy, use_index):
    reference = _result(structure, "repack", False)
    combo = _result(structure, policy, use_index)
    assert combo["consolidations"] > 0, "combo never exercised consolidation"
    # Byte-identical contracts compose: memo == repack and index ==
    # linear sweep, so the whole quadrant is one packing.
    assert combo["key"] == reference["key"]


def test_structures_track_each_other():
    skyline = _result("skyline", "repack", False)
    guillotine = _result("guillotine", "repack", False)
    assert abs(skyline["canvases"] - guillotine["canvases"]) <= max(
        1, math.ceil(0.05 * guillotine["canvases"])
    )
    assert skyline["efficiency"] >= 0.97 * guillotine["efficiency"]
    assert guillotine["efficiency"] >= 0.97 * skyline["efficiency"]


# --------------------------------------------------------------------------
# Fault-free fleet-ingest pin: routing arrivals through the PR-6
# FleetIngestor (no watermarks, no liveness, nothing stale) must be
# byte-identical to handing them straight to the scheduler -- the fleet
# layer is pure plumbing until a fault actually fires.


def _timed_patches():
    if "timed_patches" not in _CACHE:
        rng = np.random.default_rng(SEED + 1)
        _CACHE["timed_patches"] = [
            Patch(
                camera_id=f"cam-{i % 8}",
                frame_index=i,
                region=Box(0.0, 0.0, float(w), float(h)),
                generation_time=i * 0.004,
                slo=5.0,
            )
            for i, (w, h) in enumerate(
                zip(
                    rng.uniform(64.0, 512.0, size=384),
                    rng.uniform(64.0, 512.0, size=384),
                )
            )
        ]
    return _CACHE["timed_patches"]


def _timed_run(via_ingestor: bool):
    from repro.core.latency import LatencyEstimator
    from repro.core.scheduler import TangramScheduler
    from repro.fleet.ingest import FleetIngestor
    from repro.serverless.platform import ScalingPolicy, ServerlessPlatform
    from repro.simulation.engine import Simulator
    from repro.simulation.random_streams import RandomStreams
    from repro.vision.detector import DetectorLatencyModel

    simulator = Simulator()
    streams = RandomStreams(101)
    latency_model = DetectorLatencyModel.serverless()
    platform = ServerlessPlatform(
        simulator, scaling=ScalingPolicy(max_instances=32), cold_start_time=0.05
    )
    scheduler = TangramScheduler(
        simulator,
        platform,
        solver=PatchStitchingSolver(),
        estimator=LatencyEstimator(
            latency_model=latency_model,
            canvas_width=1024.0,
            canvas_height=1024.0,
            iterations=100,
            streams=streams.spawn("estimator"),
        ),
        latency_model=latency_model,
        streams=streams.spawn("scheduler"),
        options=SchedulerOptions(repack_scope="canvas"),
    )
    ingestor = FleetIngestor(simulator, scheduler) if via_ingestor else None
    deliver = ingestor.offer if via_ingestor else scheduler.receive_patch
    for patch in _timed_patches():
        simulator.schedule_at(
            patch.generation_time, lambda _sim, patch=patch: deliver(patch)
        )
    simulator.run()
    if ingestor is not None:
        ingestor.flush()
    scheduler.flush()
    simulator.run()
    if ingestor is not None:
        stats = ingestor.stats
        assert stats["admitted"] == len(_timed_patches())
        assert stats["expired_stale"] == stats["dropped_backpressure"] == 0
    return [
        (
            batch.invoke_time,
            batch.completion_time,
            batch.execution_time,
            batch.cost,
            tuple(batch.canvas_efficiencies),
            tuple((o.patch.patch_id, o.completion_time) for o in batch.outcomes),
        )
        for batch in scheduler.batches
        if batch.outcomes
    ]


def test_fault_free_fleet_ingest_is_byte_identical():
    assert _timed_run(via_ingestor=True) == _timed_run(via_ingestor=False)


# --------------------------------------------------------------------------
# Sharded-frontend axis: the ``shards in {1, 4}`` cells of the matrix.
# ``shards=1`` is the single-scheduler fleet and must stay
# *placement-equal* to the original unsharded runner, whose per-batch keys
# (times, cost, efficiencies, placements, outcome identities) and counters
# are pinned below as recorded literals.  ``shards=4`` partitions the
# stream across four independent packers, so its packing may drift, but
# only within the drift contract the matrix once held a drifting
# consolidation policy to (hence the test's name): mean canvas efficiency
# within 1% of the single-scheduler reference and canvas counts within 3%.
#
# The 4-shard cell runs a 128-camera / 16 fps fleet: parity is a
# saturation property (each shard's arrival rate must still fill
# canvases before deadlines force them out), and this is the smallest
# workload where the 1% bound holds with margin (at 64 cameras the
# quarter-rate shards ship visibly emptier canvases).

SHARDS = (1, 4)

#: The unsharded runner on the recorded 16-camera config: sha256 of
#: ``repr(batch_keys)`` and every non-zero counter.
UNSHARDED_DIGEST = "0674cc690752fb2c0ef2bd60e07ca474e89c4f96deaf7a5970ec9604b4998b33"
UNSHARDED_COUNTERS = {
    "expected_base": 384,
    "captured_base": 384,
    "admitted_base": 384,
    "slo_violations": 2,
    "completed_patches": 384,
    "num_batches": 5,
    "num_canvases": 17,
    "ingest_admitted": 384,
    "ingest_max_pending": 1,
    "transfer_attempts": 384,
    "transfer_delivered": 384,
    "transfer_transfers": 384,
    "liveness_suspect": 16,
}


def _shard_base(record_placements: bool):
    from repro.fleet import FleetScenarioConfig, FleetWorkloadConfig

    if record_placements:
        workload = FleetWorkloadConfig(num_cameras=16, fps=4.0, duration_s=3.0, seed=11)
    else:
        workload = FleetWorkloadConfig(num_cameras=128, fps=16.0, duration_s=2.0, seed=11)
    return FleetScenarioConfig(
        workload=workload,
        seed=3,
        record_placements=record_placements,
    )


def _shard_result(shards: int, record_placements: bool):
    from repro.fleet import ShardScenarioConfig, run_sharded_scenario

    key = ("shards", shards, record_placements)
    if key not in _CACHE:
        base = _shard_base(record_placements)
        _CACHE[key] = run_sharded_scenario(ShardScenarioConfig(base=base, shards=shards)).fleet
    return _CACHE[key]


def test_shards_1_is_placement_equal_to_unsharded():
    sharded = _shard_result(1, record_placements=True)
    digest = hashlib.sha256(repr(sharded.batch_keys).encode()).hexdigest()
    assert digest == UNSHARDED_DIGEST
    assert {k: v for k, v in sharded.counters().items() if v} == UNSHARDED_COUNTERS


def test_shards_4_within_merge_contract_bounds():
    reference = _shard_result(1, record_placements=False)
    sharded = _shard_result(4, record_placements=False)
    assert sharded.counters()["errors"] == 0
    assert sharded.mean_canvas_efficiency >= 0.99 * reference.mean_canvas_efficiency
    assert abs(sharded.num_canvases - reference.num_canvases) <= max(
        1, math.ceil(0.03 * reference.num_canvases)
    )
    # Partitioning must not lose patches on the fault-free stream.
    assert sharded.delivered_fraction == pytest.approx(1.0)
    assert reference.delivered_fraction == pytest.approx(1.0)
