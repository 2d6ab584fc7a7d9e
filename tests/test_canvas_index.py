"""Canvas-level pins for the probe index.

The stitcher's probe index (:class:`~repro.core.freerect_index.FreeRectIndex`)
answers the global best-short-side-fit over every live canvas.  The
tests here pin it from the canvas side, complementing the bucket-level
tests in ``test_freerect_index.py``:

* **Byte-identical placement decisions** at depth 1024 — probes
  answered by the index equal the linear canvas sweep's (same canvas,
  rectangle, and score; same plans; same final placements) on both
  canvas structures and all three consolidation policies.
* **Per-canvas summaries** — the index's live entries for a canvas are
  exactly that canvas's free rectangles, so any patch the canvas truly
  fits is admitted, and a committed mutation is visible to the very
  next probe.
* **Maintenance and plumbing** — appended canvases register, oversized
  canvases are never admitted, and the knob reaches the stitcher from
  every config layer.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.canvas import Canvas
from repro.core.freerect_index import FreeRectIndex, class_lower_bound, size_class
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


def _placement_key(canvases):
    return [(p.patch.patch_id, p.x, p.y) for c in canvases for p in c.placements]


def _indexed_sizes(index: FreeRectIndex, slot: int) -> list[tuple[float, float]]:
    """The live ``(width, height)`` entries the index holds for ``slot``,
    in ``rect_index`` order."""
    version = index._versions[slot]
    entries = [
        entry
        for bucket in index._buckets.values()
        for entry in bucket
        if entry[0] == slot and entry[4] == version
    ]
    return [(entry[2], entry[3]) for entry in sorted(entries, key=lambda e: e[1])]


def _assert_index_matches_pools(stitcher: IncrementalStitcher) -> None:
    """Every live slot's index entries equal its canvas's current pool."""
    index = stitcher._index
    for slot, canvas in enumerate(stitcher.canvases):
        expected = (
            []
            if canvas.oversized
            else [(rect.width, rect.height) for rect in canvas.free_rectangles]
        )
        assert _indexed_sizes(index, slot) == expected
    assert index.live_entries == sum(
        len(c.free_rectangles) for c in stitcher.canvases if not c.oversized
    )


def _stitcher(structure: str, policy: str, *, use_index: bool, **kw):
    kw.setdefault("repack_scope", "canvas")
    return IncrementalStitcher(
        PatchStitchingSolver(canvas_structure=structure),
        options=SchedulerOptions(consolidation=policy, use_index=use_index, **kw),
    )


def _single_canvas_index(canvas: Canvas) -> FreeRectIndex:
    index = FreeRectIndex()
    index.rebuild([canvas])
    return index


# -------------------------------------------------- per-canvas summaries
class TestCapabilitySummaries:
    def test_fresh_canvas_profile_is_the_canvas_itself(self):
        canvas = Canvas(width=1024.0, height=768.0, structure="guillotine")
        index = _single_canvas_index(canvas)
        assert _indexed_sizes(index, 0) == [(1024.0, 768.0)]
        assert index.best_fit(1024.0, 768.0) == (0, 0, 0.0)
        assert index.best_fit(1024.5, 10.0) is None
        assert index.best_fit(10.0, 768.5) is None

    def test_height_classes_partition_heights(self):
        """Every dimension lies within its class's bounds (the contract
        the bucket pruning's lower-bound score rests on)."""
        rng = np.random.default_rng(5)
        for value in rng.uniform(0.0, 50000.0, size=2000):
            klass = size_class(float(value))
            assert class_lower_bound(klass) <= value
            assert value < class_lower_bound(klass + 1)
        bounds = [class_lower_bound(k) for k in range(20)]
        assert bounds == sorted(bounds)

    @pytest.mark.parametrize("structure", ["skyline", "guillotine"])
    @settings(max_examples=40, deadline=None)
    @given(
        placed=st.lists(fitting_sizes, min_size=1, max_size=25),
        probes=st.lists(fitting_sizes, min_size=1, max_size=10),
    )
    def test_summaries_upper_bound_true_fit(self, structure, placed, probes):
        """Any patch the canvas truly fits is admitted by the index, with
        the canvas's own best-fit rectangle and score."""
        canvas = Canvas(1024.0, 1024.0, structure=structure)
        for patch in _patches(placed):
            canvas.try_place(patch)
        index = _single_canvas_index(canvas)
        for probe in _patches(probes):
            fit = canvas.best_fit(probe)
            answer = index.best_fit(probe.width, probe.height)
            if fit is None:
                assert answer is None
            else:
                assert answer == (0, fit[0], fit[1])

    @pytest.mark.parametrize("structure", ["skyline", "guillotine"])
    @settings(max_examples=40, deadline=None)
    @given(placed=st.lists(fitting_sizes, min_size=1, max_size=25))
    def test_profile_matches_direct_definition(self, structure, placed):
        """The index's entries for a canvas are exactly its free
        rectangles, each filed under its own size class."""
        canvas = Canvas(1024.0, 1024.0, structure=structure)
        for patch in _patches(placed):
            canvas.try_place(patch)
        index = _single_canvas_index(canvas)
        assert _indexed_sizes(index, 0) == [
            (rect.width, rect.height) for rect in canvas.free_rectangles
        ]
        for (width_class, height_class), bucket in index._buckets.items():
            for entry in bucket:
                assert size_class(entry[2]) == width_class
                assert size_class(entry[3]) == height_class


# --------------------------------------------- byte-identical placement
def _pin_stream(patches, structure: str, policy: str, **kw):
    """Run the same stream through an indexed and a linear-sweep
    stitcher, asserting identical plans at every arrival and identical
    final placements."""
    indexed = _stitcher(structure, policy, use_index=True, **kw)
    linear = _stitcher(structure, policy, use_index=False, **kw)
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
    _assert_index_matches_pools(indexed)
    return indexed


class TestByteIdenticalToLinearSweep:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(patch_sizes, min_size=1, max_size=50))
    def test_every_probe_matches_linear_scan(self, size_list):
        """On one evolving canvas-scope packing (partial re-packs swap
        canvases out under the index), every probe's index answer equals
        the linear sweep's (same canvas, rect, and score)."""
        stitcher = IncrementalStitcher(
            PatchStitchingSolver(),
            options=SchedulerOptions(repack_scope="canvas", partial_patch_budget=8),
        )
        for patch in _patches(size_list):
            indexed = stitcher._index.best_fit(patch.width, patch.height)
            linear = stitcher.linear_best_fit(patch)
            assert indexed == linear
            stitcher.add(patch)

    @pytest.mark.parametrize("policy", ["repack", "memo", "merge"])
    def test_deep_skyline_streams(self, policy):
        _pin_stream(_rng_patches(1024, seed=13), "skyline", policy)

    def test_deep_guillotine_stream(self):
        _pin_stream(_rng_patches(1024, seed=13), "guillotine", "memo")

    @settings(max_examples=25, deadline=None)
    @given(st.lists(patch_sizes, min_size=1, max_size=40))
    def test_invariants_hold_after_every_arrival(self, size_list):
        stitcher = IncrementalStitcher(
            PatchStitchingSolver(),
            options=SchedulerOptions(repack_scope="canvas", partial_patch_budget=8),
        )
        for patch in _patches(size_list):
            stitcher.add(patch)
            _assert_index_matches_pools(stitcher)


# ----------------------------------------------------- stale-entry safety
class TestStaleStampsNeverServe:
    def test_reindex_bumps_version_and_replaces_the_row(self):
        stitcher = IncrementalStitcher(PatchStitchingSolver())
        stitcher.add(_patches([(400.0, 300.0)])[0])
        index = stitcher._index
        version = index._versions[0]
        before = _indexed_sizes(index, 0)
        stitcher.add(_patches([(500.0, 500.0)])[0])
        assert index._versions[0] == version + 1
        assert _indexed_sizes(index, 0) != before
        _assert_index_matches_pools(stitcher)

    def test_decisions_follow_the_mutation_immediately(self):
        """After a commit mutates a canvas, the very next probe answers
        from the fresh pool (no lazily lingering stale state)."""
        stitcher = IncrementalStitcher(PatchStitchingSolver())
        for patch in _patches([(1000.0, 1000.0), (900.0, 900.0)]):
            stitcher.add(patch)
        probe = _patches([(800.0, 800.0)])[0]
        fit = stitcher._index.best_fit(probe.width, probe.height)
        assert fit == stitcher.linear_best_fit(probe)
        stitcher.add(probe)
        follow = _patches([(800.0, 800.0)])[0]
        assert stitcher._index.best_fit(
            follow.width, follow.height
        ) == stitcher.linear_best_fit(follow)


# ------------------------------------------------------------ maintenance
class TestMaintenance:
    def test_oversized_canvases_are_never_admitted(self):
        """An oversized canvas keeps its slot but never enters the index,
        so later probes only ever land on the canvases opened after it."""
        stitcher = IncrementalStitcher(
            PatchStitchingSolver(canvas_width=1024, canvas_height=1024),
        )
        stitcher.add(_patches([(2048.0, 1100.0)])[0])
        index = stitcher._index
        assert stitcher.canvases[0].oversized
        assert _indexed_sizes(index, 0) == []
        assert index.best_fit(10.0, 10.0) is None
        for patch in _patches([(300.0, 200.0), (500.0, 400.0), (50.0, 60.0)]):
            fit = index.best_fit(patch.width, patch.height)
            assert fit == stitcher.linear_best_fit(patch)
            assert fit is None or fit[0] != 0
            stitcher.add(patch)
        _assert_index_matches_pools(stitcher)

    def test_appended_canvases_register_past_the_end(self):
        index = FreeRectIndex()
        solver = PatchStitchingSolver()
        canvases = solver.pack(_patches([(400.0, 300.0)]))
        index.rebuild(canvases)
        assert len(index._versions) == 1
        canvases.extend(solver.pack(_patches([(200.0, 600.0)])))
        index.reindex_canvas(1, canvases[1])
        assert len(index._versions) == 2
        assert _indexed_sizes(index, 1) == [
            (rect.width, rect.height) for rect in canvases[1].free_rectangles
        ]
        fresh = FreeRectIndex()
        fresh.rebuild(canvases)
        assert index.best_fit(150.0, 150.0) == fresh.best_fit(150.0, 150.0)

    def test_full_repack_equivalent_mode_skips_the_index(self):
        """The literal route never probes the pools, so even an explicit
        ``use_index=True`` builds no index there, on either structure."""
        for structure in ("skyline", "guillotine"):
            stitcher = IncrementalStitcher(
                PatchStitchingSolver(canvas_structure=structure),
                options=SchedulerOptions(use_index=True, full_repack_equivalent=True),
            )
            for patch in _rng_patches(16, seed=3):
                stitcher.add(patch)
            assert stitcher._index is None
            assert stitcher.index_stats == {}


# --------------------------------------------------------------- plumbing
class TestKnobPlumbing:
    def test_tangram_config_reaches_the_stitcher(self):
        from repro.core.tangram import Tangram, TangramConfig
        from repro.serverless.platform import ServerlessPlatform
        from repro.simulation.engine import Simulator

        config = TangramConfig(
            scheduler_options=SchedulerOptions(
                repack_scope="canvas",
                use_index=False,
                adaptive_budget=True,
            ),
        )
        tangram = Tangram(config=config)
        simulator = Simulator()
        platform = ServerlessPlatform(simulator)
        scheduler = tangram.build_online_scheduler(simulator, platform)
        assert scheduler._packer._index is None
        assert scheduler._packer.adaptive_budget is True

    def test_endtoend_config_reaches_the_stitcher(self):
        from repro.pipeline.endtoend import EndToEndConfig, EndToEndRunner
        from repro.video.frames import Frame

        config = EndToEndConfig(
            scheduler_options=SchedulerOptions(
                repack_scope="canvas",
                use_index=False,
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
        assert packer._index is None
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
            options=SchedulerOptions(repack_scope="canvas"),
        )
        assert set(scheduler.index_stats) >= {"queries", "compactions"}


# ------------------------------------------------- scheduler-level metrics
def test_scheduler_metrics_identical_with_and_without_canvas_index():
    """End-to-end pin on the ``merge`` policy (whose sibling probe uses
    the index's ``exclude=`` query): a mixed arrival trace through the
    scheduler yields byte-identical batch records with the index on and
    off."""
    from repro.core.latency import LatencyEstimator
    from repro.core.scheduler import TangramScheduler
    from repro.serverless.platform import ServerlessPlatform
    from repro.simulation.engine import Simulator
    from repro.simulation.random_streams import RandomStreams
    from repro.vision.detector import DetectorLatencyModel

    rng = np.random.default_rng(23)
    trace = _patches(list(zip(rng.uniform(80, 640, 90), rng.uniform(80, 640, 90))))
    gen_times = np.sort(rng.uniform(0.0, 2.5, size=len(trace)))

    def run(use_index: bool):
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
                use_index=use_index,
                repack_scope="canvas",
                consolidation="merge",
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
