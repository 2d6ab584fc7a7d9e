"""Property-based tests for the incremental stitcher (the fast path).

The incremental packer must preserve every invariant of the batch packer
(no overlap, in-bounds, every patch placed exactly once, sizes untouched)
while keeping the packing's efficiency within tolerance of a full
decreasing-area re-pack of the same patches.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.options import SchedulerOptions
from repro.core.patches import Patch
from repro.core.stitching import (
    Canvas,
    IncrementalStitcher,
    PatchStitchingSolver,
    equivalent_canvases,
)
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


def _placement_key(canvases):
    return [(p.patch.patch_id, p.x, p.y) for c in canvases for p in c.placements]


@settings(max_examples=60, deadline=None)
@given(st.lists(patch_sizes, min_size=1, max_size=40))
def test_incremental_packing_invariants_hold(size_list):
    stitcher = IncrementalStitcher(PatchStitchingSolver())
    patches = _patches(size_list)
    for patch in patches:
        stitcher.add(patch)
        # The invariants hold after *every* arrival, not just at the end.
        PatchStitchingSolver.validate_packing(stitcher.canvases, strict=True)
    placed = sorted(p.patch_id for c in stitcher.canvases for p in c.patches)
    assert placed == sorted(p.patch_id for p in patches)


@settings(max_examples=60, deadline=None)
@given(st.lists(fitting_sizes, min_size=2, max_size=40))
def test_incremental_efficiency_within_tolerance_of_batch(size_list):
    """The fast path may trail the batch packer, but only within tolerance:
    no more than ~25% extra canvases (and never more than one extra on
    small packings)."""
    patches = _patches(size_list)
    batch = PatchStitchingSolver().pack(patches)
    stitcher = IncrementalStitcher(PatchStitchingSolver())
    for patch in patches:
        stitcher.add(patch)
    allowed = len(batch) + max(1, math.ceil(0.25 * len(batch)))
    assert len(stitcher.canvases) <= allowed
    total_used = sum(c.used_area for c in stitcher.canvases)
    assert total_used == pytest.approx(sum(p.area for p in patches), rel=1e-6)


@settings(max_examples=40, deadline=None)
@given(st.lists(patch_sizes, min_size=1, max_size=30))
def test_always_repack_mode_is_identical_to_batch_packer(size_list):
    """Full-repack-equivalent mode reproduces the batch packer placement
    for placement — the scheduler equivalence tests build on this."""
    patches = _patches(size_list)
    stitcher = IncrementalStitcher(
        PatchStitchingSolver(),
        options=SchedulerOptions(full_repack_equivalent=True),
    )
    for patch in patches:
        stitcher.add(patch)
    batch = PatchStitchingSolver().pack(patches)
    assert _placement_key(stitcher.canvases) == _placement_key(batch)


@settings(max_examples=40, deadline=None)
@given(st.lists(patch_sizes, min_size=1, max_size=25))
def test_probe_predicts_committed_counts(size_list):
    """The plan's canvas / equivalent counts must match the committed
    state exactly — the scheduler times invocations off the prediction."""
    stitcher = IncrementalStitcher(PatchStitchingSolver())
    for patch in _patches(size_list):
        plan = stitcher.probe(patch)
        stitcher.commit(plan)
        assert stitcher.num_canvases == plan.canvases_after
        assert stitcher.equivalent == plan.equivalent_after
        assert stitcher.equivalent == equivalent_canvases(
            stitcher.canvases, stitcher.equivalent_canvas_pixels
        )


@settings(max_examples=40, deadline=None)
@given(st.lists(fitting_sizes, min_size=1, max_size=25))
def test_probe_does_not_mutate_state(size_list):
    stitcher = IncrementalStitcher(PatchStitchingSolver())
    patches = _patches(size_list)
    for patch in patches[:-1]:
        stitcher.add(patch)
    before = _placement_key(stitcher.canvases)
    free_before = [list(c.free_rectangles) for c in stitcher.canvases]
    stitcher.probe(patches[-1])
    assert _placement_key(stitcher.canvases) == before
    assert [list(c.free_rectangles) for c in stitcher.canvases] == free_before


def test_reset_starts_a_fresh_queue():
    stitcher = IncrementalStitcher(PatchStitchingSolver())
    first = _patches([(300.0, 300.0), (500.0, 400.0)])
    for patch in first:
        stitcher.add(patch)
    fresh = _patches([(250.0, 250.0)])
    canvases = stitcher.reset(fresh)
    assert stitcher.patches == fresh
    assert [p.patch_id for c in canvases for p in c.patches] == [fresh[0].patch_id]
    assert stitcher.num_canvases == 1


def test_oversized_patch_opens_dedicated_canvas():
    stitcher = IncrementalStitcher(
        PatchStitchingSolver(canvas_width=1024, canvas_height=1024)
    )
    stitcher.add(_patches([(300.0, 300.0)])[0])
    big = _patches([(2048.0, 1100.0)])[0]
    plan = stitcher.probe(big)
    assert plan.kind == "oversized"
    # 2048*1100 px is charged as ceil(2.15) = 3 standard canvases.
    assert plan.equivalent_after == stitcher.equivalent + 3
    stitcher.commit(plan)
    oversized = [c for c in stitcher.canvases if c.oversized]
    assert len(oversized) == 1
    assert oversized[0].num_patches == 1
    PatchStitchingSolver.validate_packing(stitcher.canvases, strict=True)


def test_drift_repack_restores_batch_quality():
    """An adversarial arrival order (many small patches, then large ones)
    must trigger re-packs instead of opening canvases forever."""
    small = [(120.0, 120.0)] * 30
    large = [(900.0, 900.0)] * 4
    patches = _patches(small + large)
    stitcher = IncrementalStitcher(PatchStitchingSolver())
    for patch in patches:
        stitcher.add(patch)
    assert stitcher.stats["full_repacks"] >= 1
    batch = PatchStitchingSolver().pack(patches)
    assert stitcher.num_canvases <= len(batch) + 1


def test_used_area_cache_tracks_placements():
    canvas = Canvas(width=1000, height=1000)
    patches = _patches([(200.0, 100.0), (300.0, 300.0)])
    for patch in patches:
        assert canvas.try_place(patch) is not None
    assert canvas.used_area == pytest.approx(200 * 100 + 300 * 300)
    assert canvas.used_area == pytest.approx(canvas.recompute_used_area())


def test_used_area_cache_self_heals_on_external_mutation():
    from repro.core.stitching import Placement

    canvas = Canvas(width=1000, height=1000)
    canvas.try_place(_patches([(200.0, 100.0)])[0])
    rogue = _patches([(50.0, 50.0)])[0]
    canvas.placements.append(Placement(patch=rogue, x=500.0, y=500.0))
    # The cache detects the out-of-band append and recomputes.
    assert canvas.used_area == pytest.approx(200 * 100 + 50 * 50)


def test_free_rectangle_pool_never_contains_nested_rectangles():
    stitcher = IncrementalStitcher(PatchStitchingSolver())
    for patch in _patches([(400.0, 300.0), (200.0, 600.0), (700.0, 150.0), (90.0, 80.0)]):
        stitcher.add(patch)
    for canvas in stitcher.canvases:
        rects = canvas.free_rectangles
        for i, first in enumerate(rects):
            for j, second in enumerate(rects):
                if i != j:
                    assert not first.contains_box(second)


def test_negative_drift_margin_rejected():
    with pytest.raises(ValueError):
        IncrementalStitcher(
            PatchStitchingSolver(),
            options=SchedulerOptions(drift_margin=-0.1),
        )


# ------------------------------------------------------------ partial re-pack
@settings(max_examples=60, deadline=None)
@given(st.lists(patch_sizes, min_size=1, max_size=40))
def test_partial_repack_invariants_hold(size_list):
    """Canvas-scope re-packs preserve every packing invariant after every
    arrival, and every patch stays placed exactly once."""
    # A tiny budget pushes the queue past the whole-queue re-pack regime
    # quickly, so genuine partial (victim) re-packs get exercised.
    stitcher = IncrementalStitcher(
        PatchStitchingSolver(),
        options=SchedulerOptions(repack_scope="canvas", partial_patch_budget=8),
    )
    patches = _patches(size_list)
    for patch in patches:
        stitcher.add(patch)
        PatchStitchingSolver.validate_packing(stitcher.canvases, strict=True)
    placed = sorted(p.patch_id for c in stitcher.canvases for p in c.patches)
    assert placed == sorted(p.patch_id for p in patches)


@settings(max_examples=60, deadline=None)
@given(st.lists(patch_sizes, min_size=1, max_size=40))
def test_partial_repack_probe_predicts_committed_counts(size_list):
    stitcher = IncrementalStitcher(
        PatchStitchingSolver(),
        options=SchedulerOptions(repack_scope="canvas", partial_patch_budget=8),
    )
    for patch in _patches(size_list):
        plan = stitcher.probe(patch)
        stitcher.commit(plan)
        assert stitcher.num_canvases == plan.canvases_after
        assert stitcher.equivalent == plan.equivalent_after
        assert stitcher.equivalent == equivalent_canvases(
            stitcher.canvases, stitcher.equivalent_canvas_pixels
        )


@settings(max_examples=60, deadline=None)
@given(st.lists(fitting_sizes, min_size=2, max_size=50))
def test_partial_repack_never_lowers_mean_efficiency_vs_no_repack(size_list):
    """The adoption rule's guarantee: whenever a re-pack plan is chosen,
    committing it yields at least the mean canvas efficiency that refusing
    to re-pack (opening a canvas for the patch) would have yielded on the
    same state.  (The guarantee is per decision: two greedy runs that
    diverge early are not comparable end-to-end, so the no-re-pack
    alternative is evaluated on the identical packing state.)"""
    stitcher = IncrementalStitcher(
        PatchStitchingSolver(),
        options=SchedulerOptions(repack_scope="canvas", partial_patch_budget=8),
    )
    solver = stitcher.solver
    for patch in _patches(size_list):
        plan = stitcher.probe(patch)
        if plan.kind == "partial":
            # Mean efficiency had the patch opened a fresh canvas instead.
            no_repack = [c.efficiency for c in stitcher.canvases] + [
                patch.area / solver.canvas_area
            ]
            alternative = sum(no_repack) / len(no_repack)
            stitcher.commit(plan)
            committed = PatchStitchingSolver.mean_efficiency(stitcher.canvases)
            assert committed >= alternative - 1e-9
        else:
            stitcher.commit(plan)


def test_partial_repack_consolidates_on_fragmented_canvases():
    """Interleaving small and large patches fragments the live canvases;
    canvas scope must consolidate via partial re-packs once the queue
    outgrows the whole-queue re-pack budget, without ever re-packing the
    whole queue."""
    rng_sizes = []
    for block in range(30):
        rng_sizes.extend([(140.0 + block, 130.0)] * 5)
        rng_sizes.append((880.0, 900.0 - block))
    stitcher = IncrementalStitcher(
        PatchStitchingSolver(),
        options=SchedulerOptions(repack_scope="canvas", partial_patch_budget=24),
    )
    for patch in _patches(rng_sizes):
        stitcher.add(patch)
    assert stitcher.stats["partial_repacks"] >= 1
    PatchStitchingSolver.validate_packing(stitcher.canvases, strict=True)
    batch = PatchStitchingSolver().pack(stitcher.patches)
    # Packing quality stays within the incremental tolerance of batch.
    assert stitcher.num_canvases <= len(batch) + max(1, math.ceil(0.25 * len(batch)))


def test_canvas_scope_small_queue_repacks_whole_queue():
    """While the queue fits the patch budget, a wasteful overflow re-packs
    the whole queue (budget-bounded), tracking the batch packer exactly."""
    small = [(120.0, 120.0)] * 30
    large = [(900.0, 900.0)] * 4
    stitcher = IncrementalStitcher(
        PatchStitchingSolver(),
        options=SchedulerOptions(repack_scope="canvas"),
    )
    for patch in _patches(small + large):
        stitcher.add(patch)
    assert stitcher.stats["full_repacks"] >= 1
    batch = PatchStitchingSolver().pack(stitcher.patches)
    assert stitcher.num_canvases <= len(batch) + 1


def test_queue_scope_unchanged_by_default():
    """The default scope stays "queue" everywhere (PR-1 behaviour)."""
    stitcher = IncrementalStitcher(PatchStitchingSolver())
    assert stitcher.repack_scope == "queue"
    assert stitcher.stats["partial_repacks"] == 0


# ------------------------------------------------------- adaptive budget
class TestAdaptiveBudget:
    """The adaptive consolidation budget: equal to the static knob by
    default and on shallow queues, ramping from a quarter of the knob to
    the full knob with the wasteful-overflow streak once the queue is
    fleet-deep, and never exceeding the static bound."""

    def _deep_stitcher(self, **kw):
        kw.setdefault("partial_patch_budget", 48)
        return IncrementalStitcher(
            PatchStitchingSolver(),
            options=SchedulerOptions(repack_scope="canvas", adaptive_budget=True, **kw),
        )

    def test_static_when_off_or_shallow(self):
        static = IncrementalStitcher(
            PatchStitchingSolver(),
            options=SchedulerOptions(repack_scope="canvas"),
        )
        assert static.effective_patch_budget == static.partial_patch_budget
        adaptive = self._deep_stitcher()
        # Empty queue is as shallow as it gets: static behaviour.
        assert adaptive.effective_patch_budget == 48
        adaptive._overflow_streak = 100
        assert adaptive.effective_patch_budget == 48

    def test_ramp_is_monotone_and_bounded(self):
        stitcher = self._deep_stitcher()
        # Force the deep-queue regime without running 384 arrivals.
        stitcher._patches = _patches([(10.0, 10.0)]) * 400
        budgets = []
        for streak in range(12):
            stitcher._overflow_streak = streak
            budgets.append(stitcher.effective_patch_budget)
        assert budgets[0] == 12  # floor = static // 4
        assert budgets == sorted(budgets)  # monotone ramp
        assert budgets[-1] == 48  # capped at the static knob
        assert all(12 <= budget <= 48 for budget in budgets)

    def test_streak_resets_on_committed_consolidation(self):
        import numpy as np

        rng = np.random.default_rng(19)
        patches = _patches(
            zip(
                (float(w) for w in rng.uniform(64, 640, 700)),
                (float(h) for h in rng.uniform(64, 640, 700)),
            )
        )
        stitcher = self._deep_stitcher()
        saw_deep_reset = False
        for patch in patches:
            plan = stitcher.probe(patch)
            stitcher.commit(plan)
            if plan.kind in ("partial", "repack"):
                assert stitcher._overflow_streak == 0
                if len(stitcher.patches) > 8 * 48:
                    saw_deep_reset = True
        assert stitcher.stats["partial_repacks"] > 0
        assert saw_deep_reset, "stream never consolidated in the deep regime"

    def test_shallow_stream_is_byte_identical_to_static(self):
        """Below the deep-queue threshold the knob must change nothing:
        the flushing-stream quality contract relies on it."""
        import numpy as np

        rng = np.random.default_rng(7)
        patches = _patches(
            zip(
                (float(w) for w in rng.uniform(64, 640, 350)),
                (float(h) for h in rng.uniform(64, 640, 350)),
            )
        )
        adaptive = self._deep_stitcher()
        static = IncrementalStitcher(
            PatchStitchingSolver(),
            options=SchedulerOptions(repack_scope="canvas"),
        )
        for patch in patches:
            adaptive.add(patch)
            static.add(patch)
        assert _placement_key(adaptive.canvases) == _placement_key(static.canvases)
        assert adaptive.stats == static.stats

    def test_deep_stream_drift_is_bounded(self):
        """Fleet-deep, the throttled budget may drift the live packing,
        within documented bounds: canvas count within 3% and mean
        canvas efficiency >= 0.97 of the static path."""
        import numpy as np

        rng = np.random.default_rng(29)
        patches = _patches(
            zip(
                (float(w) for w in rng.uniform(64, 640, 2048)),
                (float(h) for h in rng.uniform(64, 640, 2048)),
            )
        )
        adaptive = self._deep_stitcher()
        static = IncrementalStitcher(
            PatchStitchingSolver(),
            options=SchedulerOptions(repack_scope="canvas"),
        )
        for patch in patches:
            adaptive.add(patch)
            static.add(patch)
        PatchStitchingSolver.validate_packing(adaptive.canvases, strict=True)
        assert abs(adaptive.num_canvases - static.num_canvases) <= max(
            1, math.ceil(0.03 * static.num_canvases)
        )
        assert adaptive.mean_canvas_efficiency >= 0.97 * static.mean_canvas_efficiency
