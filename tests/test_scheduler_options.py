"""The SchedulerOptions API: one frozen record for every scheduler knob.

The contract:

* every knob keeps its historical default, so ``SchedulerOptions()`` is
  the status quo;
* the record validates itself, including non-finite values;
* ``options=`` on ``IncrementalStitcher`` / ``TangramScheduler`` and
  ``scheduler_options`` on ``TangramConfig`` / ``EndToEndConfig`` /
  ``FleetScenarioConfig`` are the only ways to set a knob.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from repro.core.options import SchedulerOptions
from repro.core.patches import Patch
from repro.core.stitching import IncrementalStitcher, PatchStitchingSolver
from repro.core.tangram import TangramConfig
from repro.fleet.scenario import FleetScenarioConfig
from repro.pipeline.endtoend import EndToEndConfig
from repro.video.geometry import Box


def _patches(count: int = 160, seed: int = 5) -> list[Patch]:
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
            rng.uniform(64.0, 512.0, size=count),
            rng.uniform(64.0, 512.0, size=count),
        )
    ]


class TestSchedulerOptionsRecord:
    def test_defaults_match_historical_kwarg_defaults(self):
        options = SchedulerOptions()
        assert options.drift_margin == 0.05
        assert options.repack_scope == "queue"
        assert options.retry_backoff is True
        assert options.use_index is True
        assert options.adaptive_budget is False
        assert options.max_partial_victims == 8
        assert options.partial_patch_budget == 48
        assert options.full_repack_equivalent is False
        assert options.canvas_structure == "skyline"
        assert options.admission_watermark is None

    @pytest.mark.parametrize(
        "overrides",
        [
            {"drift_margin": -0.1},
            {"repack_scope": "galaxy"},
            {"partial_patch_budget": -4},
            {"canvas_structure": "voronoi"},
            {"max_partial_victims": 0},
            {"partial_patch_budget": 1},
            {"admission_watermark": 0},
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(ValueError):
            SchedulerOptions(**overrides)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SchedulerOptions().drift_margin = 0.2  # type: ignore[misc]

    def test_replace_revalidates(self):
        options = SchedulerOptions().replace(retry_backoff=False)
        assert options.retry_backoff is False
        with pytest.raises(ValueError):
            options.replace(repack_scope="galaxy")

    @pytest.mark.parametrize("drift_margin", [float("nan"), float("-inf")])
    def test_rejects_non_finite_drift_margin(self, drift_margin):
        with pytest.raises(ValueError, match="drift_margin"):
            SchedulerOptions(drift_margin=drift_margin)

    def test_infinite_drift_margin_is_accepted(self):
        # ``inf`` is a real setting, used by the probe-isolation benches.
        assert SchedulerOptions(drift_margin=float("inf")).drift_margin == float("inf")


class TestConfigCarriers:
    def test_configs_default_to_the_unconfigured_record(self):
        assert TangramConfig().scheduler_options == SchedulerOptions()
        assert EndToEndConfig().scheduler_options == SchedulerOptions()

    def test_fleet_default_consolidates_per_canvas(self):
        assert FleetScenarioConfig().scheduler_options == SchedulerOptions(
            repack_scope="canvas"
        )

    @pytest.mark.parametrize("config_type", [TangramConfig, EndToEndConfig, FleetScenarioConfig])
    def test_scheduler_options_is_the_only_knob_carrier(self, config_type):
        names = {knob.name for knob in fields(config_type)}
        assert {n for n in names if n.startswith("scheduler")} == {"scheduler_options"}
        assert not names & set(SchedulerOptions.__dataclass_fields__)

    def test_tangram_config_options_reach_solver_and_scheduler(self):
        from repro.core.tangram import Tangram
        from repro.serverless.platform import ServerlessPlatform
        from repro.simulation.engine import Simulator

        record = SchedulerOptions(retry_backoff=False, canvas_structure="guillotine")
        tangram = Tangram(TangramConfig(latency_profile_iterations=10, scheduler_options=record))
        simulator = Simulator()
        scheduler = tangram.build_online_scheduler(simulator, ServerlessPlatform(simulator))
        assert tangram.solver.canvas_structure == "guillotine"
        assert scheduler.options is record
        assert scheduler._packer.options is record

    def test_stitcher_reads_every_knob_from_options(self):
        record = SchedulerOptions(
            repack_scope="canvas",
            use_index=False,
            max_partial_victims=4,
            partial_patch_budget=32,
        )
        stitcher = IncrementalStitcher(PatchStitchingSolver(), options=record)
        for patch in _patches():
            stitcher.add(patch)
        assert stitcher.options is record
        assert (stitcher.max_partial_victims, stitcher.partial_patch_budget) == (4, 32)
        assert stitcher.index_stats == {}
