"""Tier-1 tests for the single-scheduler fleet (``shards=1``).

The fault matrix itself lives in ``tests/chaos`` behind ``RUN_CHAOS=1``;
here we pin the healthy path: full delivery, determinism, the workload's
purity, and watermark degradation under plain overload (no faults) --
plus golden literals of three runs: fault-free and chaos with liveness,
recorded from the original single-scheduler runner before the sharded
runner replaced it, and a starved uplink with canvas-scope consolidation
and an admission watermark, which pins scheduler-side shedding.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.options import SchedulerOptions
from repro.fleet import (
    FaultPlan,
    FleetRunResult,
    FleetScenarioConfig,
    RetryPolicy,
    ShardScenarioConfig,
    run_sharded_scenario,
)
from repro.workloads.fleet import (
    FleetWorkloadConfig,
    camera_ids,
    capture_times,
    make_patch,
    patch_dimensions,
)


def run_fleet(config, plan=None) -> FleetRunResult:
    """The single-scheduler fleet: the sharded runner at ``shards=1``."""
    return run_sharded_scenario(ShardScenarioConfig(base=config, shards=1), plan).fleet


def _small_config(**overrides):
    workload = overrides.pop(
        "workload", FleetWorkloadConfig(num_cameras=4, fps=4.0, duration_s=3.0)
    )
    defaults = dict(workload=workload, estimator_iterations=100)
    defaults.update(overrides)
    return FleetScenarioConfig(**defaults)


class TestWorkloadPurity:
    def test_patch_identity_is_a_pure_function(self):
        config = FleetWorkloadConfig()
        first = patch_dimensions(config, "cam-000", 3, 1)
        assert patch_dimensions(config, "cam-000", 3, 1) == first
        assert patch_dimensions(config, "cam-001", 3, 1) != first
        patch = make_patch(config, "cam-000", 3, 1, generation_time=2.5)
        assert (patch.width, patch.height) == first
        assert patch.deadline == pytest.approx(2.5 + config.slo)

    def test_capture_grid_is_phase_shifted_per_camera(self):
        config = FleetWorkloadConfig(num_cameras=3, fps=4.0, duration_s=2.0)
        grids = [capture_times(config, camera) for camera in camera_ids(config)]
        assert all(len(grid) == config.frames_per_camera for grid in grids)
        phases = {round(grid[0], 9) for grid in grids}
        assert len(phases) == 3  # distinct phases
        for grid in grids:
            deltas = [b - a for a, b in zip(grid, grid[1:])]
            assert deltas == pytest.approx([0.25] * (len(grid) - 1))

    def test_workload_validation(self):
        with pytest.raises(ValueError):
            FleetWorkloadConfig(num_cameras=0)
        with pytest.raises(ValueError):
            FleetWorkloadConfig(fps=0.0)
        with pytest.raises(ValueError):
            FleetWorkloadConfig(min_patch=300.0, max_patch=200.0)


class TestResultAccounting:
    def test_empty_run_fractions_are_zero(self):
        empty = FleetRunResult(expected_base=0)
        assert empty.delivered_fraction == 0.0
        assert empty.injected_fault_fraction == 0.0
        assert empty.shed_expired_fraction == 0.0

    def test_derived_fractions_match_the_counter_arithmetic(self):
        # These fractions feed the bench robustness gates, so the exact
        # bucket arithmetic is pinned here against hand-computed values.
        result = FleetRunResult(
            expected_base=100,
            suppressed_base=10,
            failed_base=5,
            burst_sent=20,
            failed_burst=2,
            admitted_base=80,
            shed_scheduler_base=4,
            shed_scheduler_burst=1,
            ingest={
                "dropped_backpressure": 3,
                "expired_stale": 2,
                "expired_dead": 1,
                "shed_degraded": 4,
            },
        )
        assert result.delivered_base == 76
        assert result.delivered_fraction == pytest.approx(0.76)
        assert result.injected_fault_fraction == pytest.approx((10 + 5 + 2 + 20) / 120)
        assert result.shed_expired_fraction == pytest.approx(
            (3 + 2 + 1 + 4 + 4 + 1) / 120
        )


class TestFaultFreeScenario:
    def test_everything_delivered_and_counted(self):
        result = run_fleet(_small_config())
        assert result.delivered_fraction == pytest.approx(1.0)
        assert result.captured_base == result.expected_base
        assert result.suppressed_base == 0
        assert result.burst_sent == 0
        assert result.transfers["failed"] == 0
        assert result.ingest["admitted"] == result.expected_base
        assert result.completed_patches == result.expected_base
        assert result.errors == 0

    def test_two_runs_produce_identical_counters(self):
        config = _small_config()
        assert (
            run_fleet(config).counters()
            == run_fleet(config).counters()
        )

    def test_liveness_optional(self):
        result = run_fleet(_small_config(track_liveness=False))
        assert result.delivered_fraction == pytest.approx(1.0)
        assert result.liveness_transitions == {}

    def test_overload_degrades_through_watermarks_without_faults(self):
        # A starved uplink plus tight SLO overloads the pipeline with no
        # fault plan at all: the watermark machinery must shed/expire
        # instead of serving everything late.
        config = _small_config(
            workload=FleetWorkloadConfig(
                num_cameras=4, fps=6.0, duration_s=3.0, patches_per_frame=3, slo=0.3
            ),
            bandwidth_mbps=1.5,
            high_watermark=1,
            low_watermark=0,
            retry=RetryPolicy(max_attempts=1, attempt_timeout_s=None),
        )
        result = run_fleet(config)
        lost = (
            result.ingest["expired_stale"]
            + result.ingest["shed_degraded"]
            + result.ingest["dropped_backpressure"]
            + result.transfers["failed"]
        )
        assert lost > 0
        assert result.delivered_fraction < 1.0
        assert result.errors == 0
        # Degradation is accounted, not silent: every base patch is in
        # exactly one terminal bucket.
        assert result.delivered_base + result.suppressed_base <= result.expected_base


# --------------------------------------------------------------- golden pins
_SMALL = FleetWorkloadConfig(num_cameras=8, fps=4.0, duration_s=3.0, seed=11)


def _golden_configs():
    """The three pinned runs: (config, plan) by name."""
    pinned = dict(estimator_iterations=100, seed=3, record_placements=True)
    return {
        "fault_free": (FleetScenarioConfig(workload=_SMALL, **pinned), None),
        "chaos": (
            FleetScenarioConfig(
                workload=_SMALL,
                suspect_after_s=0.3,
                dead_after_s=0.6,
                reconnect_settle_s=0.2,
                **pinned,
            ),
            FaultPlan.generate(
                29,
                camera_ids(_SMALL),
                duration=3.0,
                dropout_fraction=0.25,
                dropout_duration=1.2,
                loss_probability=0.1,
                jitter_s=0.02,
                burst_count=2,
                burst_multiplier=3.0,
            ),
        ),
        # A starved uplink and deep canvases: the admission watermark
        # sheds doomed arrivals.
        "memo_watermark": (
            FleetScenarioConfig(
                workload=FleetWorkloadConfig(
                    num_cameras=24,
                    fps=8.0,
                    duration_s=2.0,
                    patches_per_frame=3,
                    slo=0.5,
                    seed=11,
                ),
                bandwidth_mbps=1.0,
                gpu_memory_gb=24.0,
                scheduler_options=SchedulerOptions(
                    repack_scope="canvas", admission_watermark=4
                ),
                **pinned,
            ),
            None,
        ),
    }


#: name -> (sha256 of ``repr(batch_keys)``, ``counters()``).
GOLDEN = {
    "fault_free": (
        "2e2cff453a59334ef2272dcbac390dfef1353e2113edebf0e342d21eb63b5440",
        {
            "expected_base": 192, "captured_base": 192, "suppressed_base": 0,
            "burst_sent": 0, "failed_base": 0, "failed_burst": 0, "admitted_base": 192,
            "admitted_burst": 0, "shed_scheduler_base": 0, "shed_scheduler_burst": 0,
            "slo_violations": 2, "completed_patches": 192, "num_batches": 4,
            "num_canvases": 9, "errors": 0, "ingest_admitted": 192,
            "ingest_degraded_entries": 0, "ingest_dropped_backpressure": 0,
            "ingest_expired_dead": 0, "ingest_expired_stale": 0,
            "ingest_max_pending": 1, "ingest_pending": 0, "ingest_shed_degraded": 0,
            "transfer_attempts": 192, "transfer_delivered": 192, "transfer_failed": 0,
            "transfer_gave_up_deadline": 0, "transfer_retries": 0,
            "transfer_timeouts": 0, "transfer_transfers": 192, "liveness_alive": 0,
            "liveness_dead": 0, "liveness_reconnecting": 0, "liveness_suspect": 8,
        },
    ),
    "chaos": (
        "e329fc3302a9b3ecb08d79abf91256a98fc2e0c8fe4906137c2a125c38ed08fe",
        {
            "expected_base": 192, "captured_base": 162, "suppressed_base": 30,
            "burst_sent": 68, "failed_base": 0, "failed_burst": 0, "admitted_base": 162,
            "admitted_burst": 68, "shed_scheduler_base": 0, "shed_scheduler_burst": 0,
            "slo_violations": 2, "completed_patches": 230, "num_batches": 4,
            "num_canvases": 10, "errors": 0, "ingest_admitted": 230,
            "ingest_degraded_entries": 0, "ingest_dropped_backpressure": 0,
            "ingest_expired_dead": 0, "ingest_expired_stale": 0,
            "ingest_max_pending": 1, "ingest_pending": 0, "ingest_shed_degraded": 0,
            "transfer_attempts": 251, "transfer_delivered": 230, "transfer_failed": 0,
            "transfer_gave_up_deadline": 0, "transfer_retries": 21,
            "transfer_timeouts": 0, "transfer_transfers": 230, "liveness_alive": 3,
            "liveness_dead": 11, "liveness_reconnecting": 3, "liveness_suspect": 3,
        },
    ),
    "memo_watermark": (
        "b53566aba39e38f18817a79edd17229ef7ca4d314857fd8514f3935144e8edb5",
        {
            "expected_base": 1152, "captured_base": 1152, "suppressed_base": 0,
            "burst_sent": 0, "failed_base": 0, "failed_burst": 0, "admitted_base": 1126,
            "admitted_burst": 0, "shed_scheduler_base": 39, "shed_scheduler_burst": 0,
            "slo_violations": 104, "completed_patches": 1087, "num_batches": 116,
            "num_canvases": 125, "errors": 0, "ingest_admitted": 1126,
            "ingest_degraded_entries": 0, "ingest_dropped_backpressure": 0,
            "ingest_expired_dead": 0, "ingest_expired_stale": 26,
            "ingest_max_pending": 1, "ingest_pending": 0, "ingest_shed_degraded": 0,
            "transfer_attempts": 1152, "transfer_delivered": 1152, "transfer_failed": 0,
            "transfer_gave_up_deadline": 0, "transfer_retries": 0,
            "transfer_timeouts": 0, "transfer_transfers": 1152, "liveness_alive": 0,
            "liveness_dead": 0, "liveness_reconnecting": 0, "liveness_suspect": 24,
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_single_scheduler_fleet_matches_golden_run(name):
    config, plan = _golden_configs()[name]
    digest, counters = GOLDEN[name]
    result = run_fleet(config, plan)
    assert result.counters() == counters
    assert hashlib.sha256(repr(result.batch_keys).encode()).hexdigest() == digest
