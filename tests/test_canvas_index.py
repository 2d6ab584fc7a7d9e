"""Equivalence and invariant tests for the canvas admission index.

Three contracts are pinned here:

* **Byte-identical placement decisions** — probes answered by
  :class:`~repro.core.canvas_index.CanvasAdmissionIndex` equal the
  linear canvas sweep's (same canvas, rectangle, and score; same plans;
  same final placements) at depths 64-4096, across both canvas
  structures and all three consolidation policies, with the adaptive
  budget both off and on.
* **Capability-summary invariants** (hypothesis-driven) — a canvas's
  fit profile and envelope are always *upper bounds on true fit* (any
  patch the canvas actually fits is admitted by the summary), profiles
  are monotone in the height class, and a stale stamp can never serve a
  decision: every slot's summary row equals a freshly derived profile
  of the canvas living there now (``check_invariants``), and a
  mutation that bypasses ``reindex_canvas`` is *detected*.
* **Maintenance mechanics** — appended canvases register, oversized
  canvases are never admitted, the canvas index supersedes the
  rectangle index, and the knob reaches the stitcher from every config
  layer.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.canvas import Canvas
from repro.core.canvas_index import (
    NUM_CLASSES,
    CanvasAdmissionIndex,
    canvas_envelope,
    fit_profile,
    height_class,
    height_class_lower_bound,
)
from repro.core.options import SchedulerOptions
from repro.core.patches import Patch
from repro.core.stitching import IncrementalStitcher, PatchStitchingSolver
from repro.video.geometry import Box

patch_sizes = st.tuples(
    st.floats(min_value=10.0, max_value=1500.0, allow_nan=False),
    st.floats(min_value=10.0, max_value=1500.0, allow_nan=False),
)

fitting_sizes = st.tuples(
    st.floats(min_value=10.0, max_value=1000.0, allow_nan=False),
    st.floats(min_value=10.0, max_value=1000.0, allow_nan=False),
)


def _patches(size_list) -> list[Patch]:
    return [
        Patch(
            camera_id="cam",
            frame_index=0,
            region=Box(0.0, 0.0, width, height),
            generation_time=0.0,
            slo=1.0,
        )
        for width, height in size_list
    ]


def _rng_patches(count: int, seed: int, lo: float = 64.0, hi: float = 640.0):
    rng = np.random.default_rng(seed)
    return _patches(
        zip(
            (float(w) for w in rng.uniform(lo, hi, size=count)),
            (float(h) for h in rng.uniform(lo, hi, size=count)),
        )
    )


def _crowded_patches(count: int, seed: int):
    from benchmarks.perf.harness import _make_crowded_patches

    return _make_crowded_patches(count, seed)


def _placement_key(canvases):
    return [(p.patch.patch_id, p.x, p.y) for c in canvases for p in c.placements]


def _stitcher(structure: str, policy: str, *, canvas_index: bool, **kw):
    kw.setdefault("repack_scope", "canvas")
    return IncrementalStitcher(
        PatchStitchingSolver(canvas_structure=structure),
        options=SchedulerOptions(
            consolidation=policy, canvas_index=canvas_index, use_index=False, **kw
        ),
    )


# -------------------------------------------------- capability summaries
class TestCapabilitySummaries:
    def test_fresh_canvas_profile_is_the_canvas_itself(self):
        canvas = Canvas(width=1024.0, height=768.0, structure="guillotine")
        profile = fit_profile(canvas)
        for hc in range(NUM_CLASSES):
            expected = 1024.0 if height_class_lower_bound(hc) <= 768.0 else 0.0
            assert profile[hc] == expected
        assert canvas_envelope(canvas) == (1024.0, 768.0)

    def test_height_classes_partition_heights(self):
        """Every height lies within its class's bounds (the contract the
        profile's conservativeness rests on)."""
        rng = np.random.default_rng(5)
        for value in rng.uniform(0.0, 50000.0, size=2000):
            klass = height_class(float(value))
            assert height_class_lower_bound(klass) <= value
            if klass + 1 < NUM_CLASSES:
                assert value < height_class_lower_bound(klass + 1)
        bounds = [height_class_lower_bound(k) for k in range(NUM_CLASSES)]
        assert bounds == sorted(bounds)

    @pytest.mark.parametrize("structure", ["skyline", "guillotine"])
    @settings(max_examples=40, deadline=None)
    @given(
        placed=st.lists(fitting_sizes, min_size=1, max_size=25),
        probes=st.lists(fitting_sizes, min_size=1, max_size=10),
    )
    def test_summaries_upper_bound_true_fit(self, structure, placed, probes):
        """Any patch the canvas truly fits must be admitted by both the
        profile and the envelope (the conservativeness the probe's bulk
        skip and the stall predictor lean on)."""
        canvas = Canvas(1024.0, 1024.0, structure=structure)
        for patch in _patches(placed):
            canvas.try_place(patch)
        profile = fit_profile(canvas)
        env_w, env_h = canvas_envelope(canvas)
        for probe in _patches(probes):
            if canvas.best_fit_size(probe.width, probe.height) is None:
                continue
            assert profile[height_class(probe.height)] >= probe.width
            assert env_w >= probe.width and env_h >= probe.height

    @pytest.mark.parametrize("structure", ["skyline", "guillotine"])
    @settings(max_examples=40, deadline=None)
    @given(placed=st.lists(fitting_sizes, min_size=1, max_size=25))
    def test_profile_matches_direct_definition(self, structure, placed):
        """The fit-structure walk (skyline) and the pool fold
        (guillotine) both compute exactly ``max width among free rects
        at least 2^hc tall``."""
        canvas = Canvas(1024.0, 1024.0, structure=structure)
        for patch in _patches(placed):
            canvas.try_place(patch)
        profile = fit_profile(canvas)
        for hc in range(NUM_CLASSES):
            expected = max(
                (
                    rect.width
                    for rect in canvas.free_rectangles
                    if rect.height >= height_class_lower_bound(hc)
                ),
                default=0.0,
            )
            assert profile[hc] == pytest.approx(expected)
            if hc > 0:
                assert profile[hc] <= profile[hc - 1]


# --------------------------------------------- byte-identical placement
def _pin_stream(patches, structure: str, policy: str, **kw):
    """Run the same stream through a canvas-indexed and a linear-sweep
    stitcher, asserting identical plans at every arrival and identical
    final placements."""
    indexed = _stitcher(structure, policy, canvas_index=True, **kw)
    linear = _stitcher(structure, policy, canvas_index=False, **kw)
    for patch in patches:
        plan_i = indexed.probe(patch)
        plan_l = linear.probe(patch)
        assert (plan_i.kind, plan_i.canvas_index, plan_i.rect_index) == (
            plan_l.kind,
            plan_l.canvas_index,
            plan_l.rect_index,
        )
        assert plan_i.victim_indices == plan_l.victim_indices
        indexed.commit(plan_i)
        linear.commit(plan_l)
    assert _placement_key(indexed.canvases) == _placement_key(linear.canvases)
    assert indexed.stats == linear.stats
    indexed._canvas_index.check_invariants(indexed.canvases)
    return indexed


class TestByteIdenticalToLinearSweep:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(patch_sizes, min_size=1, max_size=50))
    def test_every_probe_matches_linear_scan(self, size_list):
        """The strongest form: on one evolving packing, every probe's
        index answer equals the linear sweep's (same canvas, rect, and
        score)."""
        stitcher = IncrementalStitcher(
            PatchStitchingSolver(),
            options=SchedulerOptions(canvas_index=True),
        )
        for patch in _patches(size_list):
            indexed = stitcher._canvas_index.best_fit(patch.width, patch.height)
            linear = stitcher.linear_best_fit(patch)
            assert indexed == linear
            stitcher.add(patch)

    @pytest.mark.parametrize("structure", ["skyline", "guillotine"])
    @pytest.mark.parametrize("policy", ["repack", "memo", "merge"])
    @pytest.mark.parametrize("depth", [64, 256])
    def test_streams_pin_across_structures_and_policies(self, structure, policy, depth):
        _pin_stream(_rng_patches(depth, seed=depth + 3), structure, policy)

    @pytest.mark.parametrize("policy", ["repack", "memo", "merge"])
    def test_deep_skyline_streams(self, policy):
        _pin_stream(_rng_patches(1024, seed=13), "skyline", policy)

    def test_deep_guillotine_stream(self):
        _pin_stream(_rng_patches(1024, seed=13), "guillotine", "memo")

    def test_fleet_depth_4096(self):
        """The acceptance-criterion depth, on the benchmark's fleet mix
        and the default policy (the configuration the gated A/B pair
        times)."""
        stitcher = _pin_stream(_rng_patches(4096, seed=19), "skyline", "memo")
        stats = stitcher.canvas_index_stats
        # The index must actually be skipping canvases wholesale, not
        # just matching the sweep by probing everything.
        assert stats["canvases_skipped"] > 10 * stats["canvases_probed"]

    def test_crowded_mix_with_adaptive_budget(self):
        """The index pin is orthogonal to the adaptive budget: with the
        ramp active on both arms, decisions still match the sweep."""
        _pin_stream(
            _crowded_patches(512, seed=43),
            "skyline",
            "memo",
            adaptive_budget=True,
            retry_backoff=False,
            max_partial_victims=24,
            partial_patch_budget=64,
        )

    @settings(max_examples=25, deadline=None)
    @given(st.lists(patch_sizes, min_size=1, max_size=40))
    def test_invariants_hold_after_every_arrival(self, size_list):
        stitcher = IncrementalStitcher(
            PatchStitchingSolver(),
            options=SchedulerOptions(
                repack_scope="canvas",
                canvas_index=True,
                partial_patch_budget=8,
            ),
        )
        for patch in _patches(size_list):
            stitcher.add(patch)
            stitcher._canvas_index.check_invariants(stitcher.canvases)


# ----------------------------------------------------- stale-stamp safety
class TestStaleStampsNeverServe:
    def test_reindex_bumps_version_and_replaces_the_row(self):
        stitcher = IncrementalStitcher(
            PatchStitchingSolver(),
            options=SchedulerOptions(canvas_index=True),
        )
        patch = _patches([(400.0, 300.0)])[0]
        stitcher.add(patch)
        index = stitcher._canvas_index
        version = index.version(0)
        before = index.profile(0)
        stitcher.add(_patches([(500.0, 500.0)])[0])
        assert index.version(0) == version + 1
        assert index.profile(0) != before
        index.check_invariants(stitcher.canvases)

    def test_unreported_mutation_is_detected(self):
        """A canvas mutated behind the index's back makes the summary
        stale; ``check_invariants`` must catch it (and ``reindex_canvas``
        must clear it)."""
        stitcher = IncrementalStitcher(
            PatchStitchingSolver(),
            options=SchedulerOptions(canvas_index=True),
        )
        stitcher.add(_patches([(400.0, 300.0)])[0])
        canvas = stitcher.canvases[0]
        rogue = _patches([(300.0, 200.0)])[0]
        rect = canvas.find_free_rectangle(rogue)
        assert rect is not None
        canvas.place(rogue, rect)
        with pytest.raises(AssertionError, match="stale summary"):
            stitcher._canvas_index.check_invariants(stitcher.canvases)
        stitcher._canvas_index.reindex_canvas(0, canvas)
        stitcher._canvas_index.check_invariants(stitcher.canvases)

    def test_decisions_follow_the_mutation_immediately(self):
        """After a commit mutates a canvas, the very next probe answers
        from the fresh summary (no lazily lingering stale state)."""
        stitcher = IncrementalStitcher(
            PatchStitchingSolver(),
            options=SchedulerOptions(canvas_index=True),
        )
        for patch in _patches([(1000.0, 1000.0), (900.0, 900.0)]):
            stitcher.add(patch)
        probe = _patches([(800.0, 800.0)])[0]
        fit = stitcher._canvas_index.best_fit(probe.width, probe.height)
        assert fit == stitcher.linear_best_fit(probe)


# ------------------------------------------------------------ maintenance
class TestMaintenance:
    def test_oversized_canvases_are_never_admitted(self):
        stitcher = IncrementalStitcher(
            PatchStitchingSolver(canvas_width=1024, canvas_height=1024),
            options=SchedulerOptions(canvas_index=True),
        )
        stitcher.add(_patches([(2048.0, 1100.0)])[0])
        index = stitcher._canvas_index
        assert index.num_slots == 1
        assert index.profile(0) == [0.0] * NUM_CLASSES
        assert index.best_fit(10.0, 10.0) is None
        index.check_invariants(stitcher.canvases)

    def test_appended_canvases_register_past_the_end(self):
        index = CanvasAdmissionIndex()
        solver = PatchStitchingSolver()
        canvases = solver.pack(_patches([(400.0, 300.0)]))
        index.rebuild(canvases)
        assert index.num_slots == 1
        canvases.extend(solver.pack(_patches([(200.0, 600.0)])))
        index.reindex_canvas(1, canvases[1])
        assert index.num_slots == 2
        index.check_invariants(canvases)

    def test_canvas_index_supersedes_use_index(self):
        stitcher = IncrementalStitcher(
            PatchStitchingSolver(),
            options=SchedulerOptions(use_index=True, canvas_index=True),
        )
        assert stitcher._index is None
        assert stitcher._canvas_index is not None
        assert stitcher.index_stats == {}
        assert set(stitcher.canvas_index_stats) >= {"queries", "canvases_skipped"}

    def test_full_repack_equivalent_mode_skips_the_index(self):
        stitcher = IncrementalStitcher(
            PatchStitchingSolver(),
            options=SchedulerOptions(canvas_index=True, full_repack_equivalent=True),
        )
        assert stitcher._canvas_index is None

    def test_exclude_hides_canvases_from_the_query(self):
        stitcher = IncrementalStitcher(
            PatchStitchingSolver(),
            options=SchedulerOptions(canvas_index=True),
        )
        for patch in _patches([(900.0, 900.0), (900.0, 900.0)]):
            stitcher.add(patch)
        index = stitcher._canvas_index
        fit = index.best_fit(100.0, 100.0)
        assert fit is not None
        other = index.best_fit(100.0, 100.0, exclude=frozenset((fit[0],)))
        assert other is not None and other[0] != fit[0]


# --------------------------------------------------------------- plumbing
class TestKnobPlumbing:
    def test_tangram_config_reaches_the_stitcher(self):
        from repro.core.tangram import Tangram, TangramConfig
        from repro.serverless.platform import ServerlessPlatform
        from repro.simulation.engine import Simulator

        config = TangramConfig(
            scheduler_options=SchedulerOptions(
                repack_scope="canvas",
                canvas_index=True,
                adaptive_budget=True,
            ),
        )
        tangram = Tangram(config=config)
        simulator = Simulator()
        platform = ServerlessPlatform(simulator)
        scheduler = tangram.build_online_scheduler(simulator, platform)
        assert scheduler._packer._canvas_index is not None
        assert scheduler._packer._index is None
        assert scheduler._packer.adaptive_budget is True

    def test_endtoend_config_reaches_the_stitcher(self):
        from repro.pipeline.endtoend import EndToEndConfig, EndToEndRunner
        from repro.video.frames import Frame

        config = EndToEndConfig(
            scheduler_options=SchedulerOptions(
                repack_scope="canvas",
                canvas_index=True,
                adaptive_budget=True,
            ),
        )
        frame = Frame(
            scene_key="test",
            frame_index=0,
            timestamp=0.0,
            width=640,
            height=480,
        )
        runner = EndToEndRunner(config, {"camera-0": [frame]})
        packer = runner.scheduler._packer
        assert packer._canvas_index is not None
        assert packer.adaptive_budget is True

    def test_scheduler_exposes_canvas_index_stats(self):
        from repro.core.scheduler import TangramScheduler
        from repro.serverless.platform import ServerlessPlatform
        from repro.simulation.engine import Simulator

        simulator = Simulator()
        platform = ServerlessPlatform(simulator)
        scheduler = TangramScheduler(
            simulator,
            platform,
            options=SchedulerOptions(repack_scope="canvas", canvas_index=True),
        )
        assert set(scheduler.canvas_index_stats) >= {"queries", "reindexes"}


# ------------------------------------------------- scheduler-level metrics
def test_scheduler_metrics_identical_with_and_without_canvas_index():
    """End-to-end pin: a mixed arrival trace through the scheduler yields
    byte-identical batch records with the canvas index on and off."""
    from repro.core.latency import LatencyEstimator
    from repro.core.scheduler import TangramScheduler
    from repro.serverless.platform import ServerlessPlatform
    from repro.simulation.engine import Simulator
    from repro.simulation.random_streams import RandomStreams
    from repro.vision.detector import DetectorLatencyModel

    rng = np.random.default_rng(23)
    trace = _patches(list(zip(rng.uniform(80, 640, 90), rng.uniform(80, 640, 90))))
    gen_times = np.sort(rng.uniform(0.0, 2.5, size=len(trace)))

    def run(canvas_index: bool):
        simulator = Simulator()
        platform = ServerlessPlatform(simulator, cold_start_time=0.0)
        latency_model = DetectorLatencyModel.serverless()
        estimator = LatencyEstimator(
            latency_model=latency_model, iterations=100, streams=RandomStreams(5)
        )
        scheduler = TangramScheduler(
            simulator,
            platform,
            solver=PatchStitchingSolver(),
            estimator=estimator,
            latency_model=latency_model,
            streams=RandomStreams(6),
            options=SchedulerOptions(
                use_index=False,
                canvas_index=canvas_index,
                repack_scope="canvas",
            ),
        )
        for patch, arrival in zip(trace, gen_times):
            simulator.schedule_at(
                float(arrival), lambda sim, p=patch: scheduler.receive_patch(p)
            )
        simulator.run()
        scheduler.flush()
        simulator.run()
        return [
            (
                batch.batch_id,
                batch.invoke_time,
                batch.completion_time,
                batch.execution_time,
                batch.cost,
                batch.num_canvases,
                tuple(batch.canvas_efficiencies),
            )
            for batch in scheduler.batches
        ]

    assert run(True) == run(False)
