"""Equivalence and behaviour tests for ``repro.core.consolidation``.

The engine always runs :class:`MemoPolicy`; :class:`RepackPolicy`, its
uncached base, is the reference trial, installed through the engine's
public seam (``stitcher.consolidation_engine.policy = RepackPolicy()``).
Two contracts are pinned here:

* the ``RepackPolicy`` oracle is the pre-refactor ``_plan_partial_repack``
  path, byte-identical: every attempted consolidation produces exactly
  the plan a verbatim reference implementation of the old inline logic
  (rescan-and-sort victim selection, combined-capacity check, trial
  ``pack_within``, and *no* other pre-checks) computes from the same
  state.  This simultaneously proves the new unpairable-patch pre-check
  is decision-neutral: it only rejects pools whose trial pack fails.
* ``MemoPolicy`` makes byte-identical decisions to the
  ``RepackPolicy`` oracle — same plan kinds, same victim sets, same final
  placements — across randomized streams at depths 64-4096, with the
  retry backoff both armed and disabled.  The cache may only skip trial
  packs whose outcome is already known.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.consolidation import MemoPolicy, RepackPolicy, unpairable
from repro.core.options import SchedulerOptions
from repro.core.patches import Patch
from repro.core.stitching import IncrementalStitcher, PatchStitchingSolver
from repro.video.geometry import Box

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


def _uniform_mix(count: int, seed: int, lo: float = 64.0, hi: float = 640.0):
    rng = np.random.default_rng(seed)
    return _patches(
        zip(rng.uniform(lo, hi, size=count), rng.uniform(lo, hi, size=count))
    )


def _crowded_mix(count: int, seed: int):
    """The consolidation benchmark's crowded-fleet mix — wide-flat RoIs
    that pair two per canvas, near-canvas giants, and a trickle of small
    crops: sustained wasteful-overflow pressure where trial re-packs
    keep failing on slowly-changing victim pools (the regime the memo
    cache exists for).  Imported from the harness so the equivalence
    pins exercise exactly the distribution the benchmark gates."""
    from benchmarks.perf.harness import _make_crowded_patches

    return _make_crowded_patches(count, seed)


def _stitcher(policy: str, retry_backoff: bool = True, **kw) -> IncrementalStitcher:
    """A canvas-scope stitcher running ``policy``: ``"memo"`` (the
    engine's own policy) or ``"repack"`` (the oracle, installed through
    the engine's seam)."""
    kw.setdefault("repack_scope", "canvas")
    stitcher = IncrementalStitcher(
        PatchStitchingSolver(),
        options=SchedulerOptions(retry_backoff=retry_backoff, **kw),
    )
    if policy == "repack":
        stitcher.consolidation_engine.policy = RepackPolicy()
    else:
        assert policy == "memo", policy
    return stitcher


# ------------------------------------------------- pre-refactor reference
def _reference_partial_plan(stitcher: IncrementalStitcher, patch: Patch):
    """The pre-refactor ``_plan_partial_repack`` logic, reimplemented
    verbatim from first principles: victims by ascending ``(efficiency,
    canvas_index)`` over a full rescan (the heap selection was pinned to
    this order by ``tests/test_skyline.py``), the combined-capacity
    check, and the bounded trial pack — no signature cache, no
    unpairable pre-check.  Returns ``None`` or ``(victim_indices,
    repacked_placement_key, canvases_after)``.
    """
    candidates = sorted(
        (canvas.efficiency, index)
        for index, canvas in enumerate(stitcher.canvases)
        if not canvas.oversized
    )
    pool = [patch]
    pool_used = 0.0
    victims: list[int] = []
    for _eff, index in candidates:
        if len(victims) >= stitcher.max_partial_victims:
            break
        if len(pool) >= stitcher.partial_patch_budget:
            break
        canvas = stitcher.canvases[index]
        if len(pool) + canvas.num_patches > stitcher.partial_patch_budget:
            continue
        pool.extend(canvas.patches)
        pool_used += canvas.used_area
        victims.append(index)
    if not victims:
        return None
    canvas_area = stitcher.solver.canvas_area
    if len(victims) * canvas_area - pool_used < patch.area:
        return None
    repacked = stitcher.solver.pack_within(pool, len(victims))
    if repacked is None:
        return None
    delta = len(repacked) - len(victims)
    return victims, _placement_key(repacked), len(stitcher.canvases) + delta


class TestRepackMatchesPreRefactorPath:
    def _pin_stream(self, patches, **kw):
        stitcher = _stitcher("repack", **kw)
        attempts_seen = 0
        for patch in patches:
            before = stitcher.consolidation_stats["attempts"]
            plan = stitcher.probe(patch)
            attempted = stitcher.consolidation_stats["attempts"] > before
            if attempted:
                attempts_seen += 1
                reference = _reference_partial_plan(stitcher, patch)
                if plan.kind == "partial":
                    assert reference is not None
                    ref_victims, ref_key, ref_after = reference
                    assert plan.victim_indices == ref_victims
                    assert plan.canvases_after == ref_after
                    assert plan.repacked is not None
                    assert _placement_key(plan.repacked) == ref_key
                else:
                    assert plan.kind == "new"
                    assert reference is None
            stitcher.commit(plan)
        return attempts_seen

    @settings(max_examples=30, deadline=None)
    @given(st.lists(fitting_sizes, min_size=10, max_size=60))
    def test_randomized_streams_match_reference(self, size_list):
        self._pin_stream(_patches(size_list), partial_patch_budget=8)

    @pytest.mark.parametrize("depth", [64, 256, 1024])
    def test_deep_streams_match_reference(self, depth):
        attempts = self._pin_stream(_crowded_mix(depth, seed=11))
        if depth >= 256:
            assert attempts > 0, "workload never exercised consolidation"


# ----------------------------------------------------- memo ≡ repack pin
def _decision_trace(patches, policy: str, retry_backoff: bool, **kw):
    stitcher = _stitcher(policy, retry_backoff=retry_backoff, **kw)
    trace = []
    for patch in patches:
        plan = stitcher.probe(patch)
        trace.append(
            (
                plan.kind,
                plan.canvases_after,
                plan.equivalent_after,
                plan.canvas_index,
                plan.rect_index,
                tuple(plan.victim_indices or ()),
            )
        )
        stitcher.commit(plan)
    return stitcher, trace


class TestMemoIsByteIdenticalToRepack:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(fitting_sizes, min_size=10, max_size=60),
        st.booleans(),
    )
    def test_randomized_streams(self, size_list, retry_backoff):
        patches = _patches(size_list)
        repack, trace_a = _decision_trace(
            patches, "repack", retry_backoff, partial_patch_budget=8
        )
        memo, trace_b = _decision_trace(
            patches, "memo", retry_backoff, partial_patch_budget=8
        )
        assert trace_a == trace_b
        assert _placement_key(repack.canvases) == _placement_key(memo.canvases)
        assert repack.stats == memo.stats

    @pytest.mark.parametrize(
        "depth,mix",
        [(64, "uniform"), (256, "crowded"), (1024, "crowded"), (4096, "crowded")],
    )
    def test_deep_streams(self, depth, mix):
        """The satellite pin: byte-identical decisions at depths 64-4096,
        in the no-backoff configuration where the cache actually fires."""
        make = _uniform_mix if mix == "uniform" else _crowded_mix
        patches = make(depth, seed=43)
        kw = dict(max_partial_victims=24, partial_patch_budget=64)
        repack, trace_a = _decision_trace(patches, "repack", False, **kw)
        memo, trace_b = _decision_trace(patches, "memo", False, **kw)
        assert trace_a == trace_b
        assert _placement_key(repack.canvases) == _placement_key(memo.canvases)
        assert repack.stats == memo.stats
        if depth >= 1024:
            # The pin is only meaningful if the cache actually skipped
            # trial packs on this workload.
            assert memo.consolidation_stats["memo_rejects"] > 0
            assert (
                memo.consolidation_stats["trial_packs"]
                < repack.consolidation_stats["trial_packs"]
            )

    def test_memo_rejections_match_fresh_trial_outcomes(self):
        """Every cache rejection must coincide with a trial pack that
        would fail: re-run each rejected attempt through a pristine
        repack policy and demand the same verdict (guards the dominance
        assumption the frontier check leans on)."""
        patches = _crowded_mix(512, seed=3)
        stitcher = _stitcher(
            "memo", retry_backoff=False, max_partial_victims=24, partial_patch_budget=64
        )
        engine = stitcher._consolidation
        checked = 0
        reference = RepackPolicy()
        for patch in patches:
            before = engine.stats["memo_rejects"]
            plan = stitcher.probe(patch)
            if engine.stats["memo_rejects"] > before:
                assert reference.plan(engine, patch) is None
                checked += 1
            stitcher.commit(plan)
        assert checked > 0, "workload never hit the cache"


# ------------------------------------------------------------ engine unit
class TestEngineMechanics:
    def test_unknown_policy_raises(self):
        """There is no policy knob: naming one is an unknown field."""
        with pytest.raises(TypeError, match="consolidation"):
            SchedulerOptions(consolidation="memo")
        with pytest.raises(TypeError, match="consolidation"):
            SchedulerOptions().replace(consolidation="repack")

    def test_policy_registry(self):
        """Every engine runs the memo cache; the oracle seam swaps in the
        uncached reference trial, which the next attempt then runs."""
        memo = _stitcher("memo")
        assert type(memo.consolidation_engine.policy) is MemoPolicy
        assert isinstance(memo.consolidation_engine.policy, RepackPolicy)
        oracle = _stitcher("repack", retry_backoff=False)
        assert type(oracle.consolidation_engine.policy) is RepackPolicy
        for patch in _crowded_mix(512, seed=5):
            oracle.add(patch)
        stats = oracle.consolidation_stats
        assert stats["trial_packs"] > 0
        assert stats["memo_rejects"] == 0

    def test_unpairable_is_strictly_more_than_half(self):
        canvas = (1024.0, 1024.0)
        assert unpairable(_patches([(513.0, 513.0)])[0], *canvas)
        assert not unpairable(_patches([(512.0, 513.0)])[0], *canvas)
        assert not unpairable(_patches([(900.0, 400.0)])[0], *canvas)

    def test_unpairable_precheck_fires_and_is_decision_neutral(self):
        """A pool of unpairable singletons plus an unpairable arrival is
        rejected without a trial pack — and the trial, if run, would have
        failed (checked via the pre-refactor reference)."""
        sizes = [(600.0, 600.0)] * 60  # queue deeper than the patch budget
        stitcher = _stitcher("repack", retry_backoff=False)
        for patch in _patches(sizes):
            stitcher.add(patch)
        probe_patch = _patches([(700.0, 700.0)])[0]
        before = stitcher.consolidation_stats["unpairable_rejects"]
        plan = stitcher.probe(probe_patch)
        assert plan.kind == "new"
        assert stitcher.consolidation_stats["unpairable_rejects"] == before + 1
        assert _reference_partial_plan(stitcher, probe_patch) is None

    def test_memo_cache_invalidated_by_canvas_mutation(self):
        """A cached failure must stop matching once a member canvas
        changes (its stamp bumps)."""
        stitcher = _stitcher(
            "memo", retry_backoff=False, max_partial_victims=24, partial_patch_budget=64
        )
        engine = stitcher._consolidation
        for patch in _crowded_mix(512, seed=7):
            stitcher.add(patch)
        probe_patch = _patches([(900.0, 900.0)])[0]
        stitcher.probe(probe_patch)  # prime or hit the cache
        trials_before = engine.stats["trial_packs"]
        rejects_before = engine.stats["memo_rejects"]
        stitcher.probe(probe_patch)
        assert engine.stats["memo_rejects"] == rejects_before + 1
        assert engine.stats["trial_packs"] == trials_before
        # Mutate one victim canvas through the public path: a small patch
        # lands on it, bumping its stamp.
        _pool, _used, victims = engine.select_victims(probe_patch)
        victim = stitcher.canvases[victims[0]]
        filler = _patches([(32.0, 32.0)])[0]
        rect = victim.find_free_rectangle(filler)
        assert rect is not None
        victim.place(filler, rect)
        engine.touch(victims[0])
        stitcher.probe(probe_patch)
        assert engine.stats["trial_packs"] > trials_before

    def test_retry_backoff_gates_attempts(self):
        """With the backoff armed, consecutive failing overflows skip
        attempts until the queue grows; without it, every wasteful
        overflow attempts consolidation."""
        patches = _crowded_mix(512, seed=5)
        gated = _stitcher("repack", retry_backoff=True)
        for patch in patches:
            gated.add(patch)
        eager = _stitcher("repack", retry_backoff=False)
        for patch in patches:
            eager.add(patch)
        assert (
            eager.consolidation_stats["attempts"]
            > gated.consolidation_stats["attempts"]
        )

    def test_worst_slot_peek_does_not_consume_valid_entries(self):
        """Peeking the victim order (worst slot first) and selecting
        victims leave the heap's valid entries in place."""
        stitcher = _stitcher("memo")
        for patch in _uniform_mix(64, seed=1):
            stitcher.add(patch)
        engine = stitcher.consolidation_engine
        first = engine.heap_entries()
        engine.select_victims(_patches([(900.0, 900.0)])[0])
        assert engine.heap_entries() == first
        worst = stitcher.canvases[first[0][1]]
        assert all(
            worst.efficiency <= canvas.efficiency + 1e-9
            for canvas in stitcher.canvases
            if not canvas.oversized
        )

    def test_reset_clears_engine_state(self):
        stitcher = _stitcher("memo", retry_backoff=False)
        for patch in _crowded_mix(256, seed=9):
            stitcher.add(patch)
        policy = stitcher._consolidation.policy
        stitcher.reset()
        assert not policy._failed
        assert stitcher._consolidation._failures == 0

    def test_max_free_extent_precheck_is_unsound(self):
        """PR 4's lesson, pinned as a constructed counterexample: an
        incoming patch *taller than every victim's max free extent*
        whose trial re-pack still consolidates — rearranging the
        victims' patches opens a row no current free rectangle shows.
        Any pre-check that rejects on the victims' current extents
        would wrongly reject this plan.  The max free extent is the
        envelope ``(max width, max height)`` over the canvas's free
        rectangles, possibly from different rectangles."""
        solver = PatchStitchingSolver(canvas_width=100.0, canvas_height=100.0)
        stitcher = IncrementalStitcher(
            solver,
            options=SchedulerOptions(
                repack_scope="canvas",
                retry_backoff=False,
                max_partial_victims=2,
                partial_patch_budget=5,
            ),
        )
        stitcher.consolidation_engine.policy = RepackPolicy()
        # Two victims, each 100x40 + 100x35 (a 100x25 strip left), plus
        # three near-full canvases keeping the victims at the heap root
        # and the queue past the patch budget.
        for width, height in [
            (100.0, 40.0),
            (100.0, 35.0),
            (100.0, 40.0),
            (100.0, 35.0),
            (100.0, 99.0),
            (100.0, 99.0),
            (100.0, 99.0),
        ]:
            stitcher.add(_patches([(width, height)])[0])
        incoming = _patches([(100.0, 30.0)])[0]
        plan = stitcher.probe(incoming)
        assert plan.kind == "partial", "the trial re-pack must consolidate"
        assert plan.victim_indices == [0, 1]
        for index in plan.victim_indices:
            free = stitcher.canvases[index].free_rectangles
            env_w = max((rect.width for rect in free), default=0.0)
            env_h = max((rect.height for rect in free), default=0.0)
            assert incoming.width > env_w or incoming.height > env_h, (
                "counterexample requires the patch to exceed the victim's "
                "max free extent"
            )
        committed = stitcher.commit(plan)
        PatchStitchingSolver.validate_packing(committed, strict=True)


# --------------------------------------------------------------- plumbing
class TestKnobPlumbing:
    def test_endtoend_config_validates_policy(self):
        from repro.pipeline.endtoend import EndToEndConfig

        with pytest.raises(TypeError, match="consolidation"):
            EndToEndConfig(scheduler_options=SchedulerOptions(consolidation="memo"))
        config = EndToEndConfig(
            scheduler_options=SchedulerOptions(repack_scope="canvas", retry_backoff=False),
        )
        assert config.scheduler_options.retry_backoff is False

    def test_tangram_config_reaches_the_stitcher(self):
        from repro.core.tangram import Tangram, TangramConfig
        from repro.serverless.platform import ServerlessPlatform
        from repro.simulation.engine import Simulator

        config = TangramConfig(
            scheduler_options=SchedulerOptions(repack_scope="canvas", retry_backoff=False),
        )
        tangram = Tangram(config=config)
        simulator = Simulator()
        platform = ServerlessPlatform(simulator)
        scheduler = tangram.build_online_scheduler(simulator, platform)
        engine = scheduler._packer.consolidation_engine
        assert engine.retry_backoff is False
        assert type(engine.policy) is MemoPolicy

    def test_scheduler_exposes_consolidation_stats(self):
        from repro.core.scheduler import TangramScheduler
        from repro.serverless.platform import ServerlessPlatform
        from repro.simulation.engine import Simulator

        simulator = Simulator()
        platform = ServerlessPlatform(simulator)
        scheduler = TangramScheduler(
            simulator,
            platform,
            options=SchedulerOptions(repack_scope="canvas", retry_backoff=False),
        )
        stats = scheduler.consolidation_stats
        assert set(stats) >= {"attempts", "trial_packs", "memo_rejects"}
