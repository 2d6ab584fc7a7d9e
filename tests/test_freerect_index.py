"""Equivalence and maintenance tests for the size-class free-rect index.

The index is a pure accelerator: every probe answered from it must be
*byte-identical* to the linear global BSSF scan — same canvas, same free
rectangle, same score — across arbitrary workloads, both re-pack scopes,
and all the pool churn partial re-packs produce.  These tests pin that
contract (the acceptance criterion for the fast path staying exact).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.consolidation import RepackPolicy
from repro.core.freerect_index import FreeRectIndex, class_lower_bound, size_class
from repro.core.options import SchedulerOptions
from repro.core.patches import Patch
from repro.core.stitching import IncrementalStitcher, PatchStitchingSolver
from repro.video.geometry import Box

patch_sizes = st.tuples(
    st.floats(min_value=10.0, max_value=1500.0, allow_nan=False),
    st.floats(min_value=10.0, max_value=1500.0, allow_nan=False),
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


def _placement_key(canvases):
    return [(p.patch.patch_id, p.x, p.y) for c in canvases for p in c.placements]


# ------------------------------------------------------------- size classes
def test_size_class_partitions_dimensions():
    assert size_class(0.0) == 0
    assert size_class(0.7) == 0
    assert size_class(1.9) == 0
    assert size_class(2.0) == 1
    assert size_class(3.999) == 1
    assert size_class(4.0) == 2
    assert size_class(1023.9) == 9
    assert size_class(1024.0) == 10


@given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
def test_class_lower_bound_is_a_true_lower_bound(dimension):
    klass = size_class(dimension)
    # Every dimension lies within its class's bounds: lower bound below
    # (class 0 absorbs everything under 2), next class strictly above.
    assert class_lower_bound(klass) <= dimension
    assert dimension < class_lower_bound(klass + 1)


# ------------------------------------------------- probe-by-probe equivalence
@settings(max_examples=60, deadline=None)
@given(st.lists(patch_sizes, min_size=1, max_size=50))
def test_index_best_fit_matches_linear_scan_every_arrival(size_list):
    """The strongest form: on one evolving packing, every probe's index
    answer equals the linear scan's (same canvas, rect, and score)."""
    stitcher = IncrementalStitcher(
        PatchStitchingSolver(),
        options=SchedulerOptions(use_index=True),
    )
    for patch in _patches(size_list):
        indexed = stitcher._index.best_fit(patch.width, patch.height)
        linear = stitcher.linear_best_fit(patch)
        assert indexed == linear
        stitcher.add(patch)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(patch_sizes, min_size=1, max_size=50),
    st.sampled_from(["queue", "canvas"]),
)
def test_indexed_and_linear_stitchers_stay_byte_identical(size_list, scope):
    """Full-run equivalence: identical plans and placements with the index
    on and off, in both re-pack scopes (partial re-packs churn the pools
    hard, exercising lazy invalidation and rebuilds)."""
    patches = _patches(size_list)
    indexed = IncrementalStitcher(
        PatchStitchingSolver(),
        options=SchedulerOptions(use_index=True, repack_scope=scope),
    )
    linear = IncrementalStitcher(
        PatchStitchingSolver(),
        options=SchedulerOptions(use_index=False, repack_scope=scope),
    )
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
    PatchStitchingSolver.validate_packing(indexed.canvases, strict=True)


def test_randomized_deep_stream_equivalence():
    """A deeper (non-hypothesis) randomized stream, matching the benchmark
    distribution, so bucket pruning and compaction both happen."""
    rng = np.random.default_rng(7)
    sizes = list(zip(rng.uniform(64, 640, 600), rng.uniform(64, 640, 600)))
    patches = _patches(sizes)
    indexed = IncrementalStitcher(
        PatchStitchingSolver(),
        options=SchedulerOptions(use_index=True, repack_scope="canvas"),
    )
    linear = IncrementalStitcher(
        PatchStitchingSolver(),
        options=SchedulerOptions(use_index=False, repack_scope="canvas"),
    )
    for patch in patches:
        assert indexed._index.best_fit(
            patch.width, patch.height
        ) == linear.linear_best_fit(patch)
        indexed.add(patch)
        linear.add(patch)
    assert _placement_key(indexed.canvases) == _placement_key(linear.canvases)
    stats = indexed.index_stats
    # One query per probe plus one per explicit check above.
    assert stats["queries"] == 2 * len(patches)
    # The whole point: the bucket scan touches far fewer entries than the
    # linear scan would (which examines every live rectangle per probe).
    total_rects = sum(len(c.free_rectangles) for c in indexed.canvases)
    assert stats["entries_scanned"] < stats["queries"] * max(1, total_rects)


def _pin_stream(patches, structure: str, policy: str, **knobs):
    """Run one stream through an indexed and a linear-sweep stitcher,
    asserting identical plans at every arrival and identical final
    placements; returns the indexed stitcher."""
    knobs.setdefault("repack_scope", "canvas")
    stitchers = [
        IncrementalStitcher(
            PatchStitchingSolver(canvas_structure=structure),
            options=SchedulerOptions(use_index=use_index, **knobs),
        )
        for use_index in (True, False)
    ]
    if policy == "repack":
        # The oracle trial, installed through the engine's seam.
        for stitcher in stitchers:
            stitcher.consolidation_engine.policy = RepackPolicy()
    indexed, linear = stitchers
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
    return indexed


@pytest.mark.parametrize("structure", ["skyline", "guillotine"])
@pytest.mark.parametrize("policy", ["repack", "memo"])
def test_streams_pin_across_structures_and_policies(structure, policy):
    rng = np.random.default_rng(259)
    sizes = list(zip(rng.uniform(64, 640, 256), rng.uniform(64, 640, 256)))
    _pin_stream(_patches(sizes), structure, policy)


def test_fleet_depth_4096():
    """The fleet depth, on the benchmark's uniform fleet mix and the
    default policy (the configuration ``scheduler_arrival_fleet_4096``
    times)."""
    rng = np.random.default_rng(19)
    sizes = list(zip(rng.uniform(64, 640, 4096), rng.uniform(64, 640, 4096)))
    stitcher = _pin_stream(_patches(sizes), "skyline", "memo")
    stats = stitcher.index_stats
    # The index must actually prune buckets, not match the sweep by
    # scanning every live rectangle on every query.
    total_rects = sum(len(c.free_rectangles) for c in stitcher.canvases)
    assert stats["entries_scanned"] < stats["queries"] * total_rects // 10


def test_crowded_mix_with_adaptive_budget():
    """The index pin is orthogonal to the adaptive budget: with the ramp
    active on both arms, decisions still match the sweep."""
    from benchmarks.perf.harness import _make_crowded_patches

    _pin_stream(
        _make_crowded_patches(512, seed=43),
        "skyline",
        "memo",
        adaptive_budget=True,
        retry_backoff=False,
        max_partial_victims=24,
        partial_patch_budget=64,
    )


# ------------------------------------------------------------- maintenance
def test_index_tracks_live_pools_after_mutations():
    stitcher = IncrementalStitcher(
        PatchStitchingSolver(),
        options=SchedulerOptions(use_index=True),
    )
    for patch in _patches([(400.0, 300.0), (600.0, 500.0), (90.0, 80.0)]):
        stitcher.add(patch)
    index = stitcher._index
    live_rects = sum(
        len(c.free_rectangles) for c in stitcher.canvases if not c.oversized
    )
    assert index.live_entries == live_rects
    assert index.total_entries >= index.live_entries


def test_stale_entries_are_dropped_lazily():
    index = FreeRectIndex()
    solver = PatchStitchingSolver()
    canvases = solver.pack(_patches([(400.0, 300.0), (200.0, 600.0)]))
    index.rebuild(canvases)
    live = index.live_entries
    assert live > 0
    # Re-insert the same pool under a new version: the old entries linger
    # in their buckets as stale copies.
    index.reindex_canvas(0, canvases[0])
    assert index.live_entries == live
    assert index.total_entries == 2 * live
    # A query for a rect's own size always sweeps that rect's bucket
    # (its lower-bound score is 0), dropping the stale copy there.
    rect = canvases[0].free_rectangles[0]
    index.best_fit(rect.width, rect.height)
    assert index.stats["stale_dropped"] >= 1
    assert index.total_entries < 2 * live
    # Queries never see stale state: the answer matches a fresh rebuild.
    answer = index.best_fit(150.0, 150.0)
    fresh = FreeRectIndex()
    fresh.rebuild(canvases)
    assert answer == fresh.best_fit(150.0, 150.0)


def test_compaction_bounds_total_entries():
    index = FreeRectIndex()
    solver = PatchStitchingSolver()
    canvases = solver.pack(_patches([(300.0, 300.0)] * 40))
    index.rebuild(canvases)
    # Hammer one canvas with reindexes; compaction must keep totals bounded.
    for _ in range(200):
        index.reindex_canvas(0, canvases[0])
    assert index.total_entries <= max(64, 4 * index.live_entries)
    assert index.stats["compactions"] >= 1


def test_oversized_canvases_are_never_indexed():
    stitcher = IncrementalStitcher(
        PatchStitchingSolver(canvas_width=1024, canvas_height=1024),
        options=SchedulerOptions(use_index=True),
    )
    stitcher.add(_patches([(2048.0, 1100.0)])[0])
    assert stitcher._index.live_entries == 0
    # And a probe against the empty index finds nothing.
    assert stitcher._index.best_fit(10.0, 10.0) is None


def test_use_index_false_has_no_index():
    stitcher = IncrementalStitcher(
        PatchStitchingSolver(),
        options=SchedulerOptions(use_index=False),
    )
    assert stitcher._index is None
    assert stitcher.index_stats == {}


def test_full_repack_equivalent_mode_skips_the_index():
    stitcher = IncrementalStitcher(
        PatchStitchingSolver(),
        options=SchedulerOptions(full_repack_equivalent=True),
    )
    assert stitcher._index is None


# ------------------------------------------------------- scheduler-level pin
def test_scheduler_metrics_identical_with_and_without_index():
    """End-to-end pin: a mixed arrival trace through the scheduler yields
    byte-identical batch records with the index on and off."""
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
            options=SchedulerOptions(use_index=use_index, repack_scope="canvas"),
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


def test_invalid_knobs_rejected():
    with pytest.raises(ValueError):
        IncrementalStitcher(
            PatchStitchingSolver(),
            options=SchedulerOptions(repack_scope="frame"),
        )
    with pytest.raises(ValueError):
        IncrementalStitcher(
            PatchStitchingSolver(),
            options=SchedulerOptions(max_partial_victims=0),
        )
