"""The overflow-consolidation subsystem of the incremental stitcher.

When an arriving patch fits no live free rectangle even though the
pending canvases hold ample free space (a *wasteful overflow*), the
incremental stitcher tries to *consolidate*: dissolve a few of the
least-efficient canvases and re-home their patches so the packing needs
at least one canvas fewer than just opening a new one.  PR 2 introduced
that machinery inline in :mod:`repro.core.stitching`; this module is its
extraction into a subsystem of its own, with the trial *strategy* made
pluggable.

:class:`ConsolidationEngine` owns the pieces every strategy shares:

* the running **efficiency min-heap** over the live non-oversized
  canvases (lazy invalidation via per-slot version stamps), so victims
  pop in ascending-efficiency order instead of rescanning every canvas
  per overflow;
* the **failed-attempt backoff** (retry only once the queue grew by the
  current failure streak — probe bookkeeping only, cleared on reset);
* dispatch to a :class:`ConsolidationPolicy`.

Three policies implement the trial (the ``consolidation`` field of
:class:`~repro.core.options.SchedulerOptions`):

``"repack"``
    PR 2/3 behaviour, extracted verbatim: batch re-pack the victims'
    pooled patches plus the incoming one from scratch
    (:meth:`~repro.core.stitching.PatchStitchingSolver.pack_within`) and
    adopt the result only when it saves a canvas.  Pinned byte-identical
    to the pre-refactor path by ``tests/test_consolidation.py``.
``"memo"`` (the default)
    ``"repack"`` plus a victim-pool signature cache: a pool that just
    failed to consolidate is rejected in O(victims) — no trial pack —
    until any member canvas changes.  The signature is the tuple of
    ``(slot, stamp)`` pairs from the engine's version stamps, so any
    mutation of a member canvas (a patch landing on it, a partial
    re-pack replacing it) invalidates the entry by construction; per
    signature a small *frontier* of failed patch footprints is kept and
    a new patch is only rejected when it dominates a failed one in both
    dimensions (an equal-or-harder re-trial of an unchanged pool).
    Decisions are byte-identical to ``"repack"`` on every workload the
    equivalence suite runs; the cache only skips provably-or-empirically
    repeat failures.
``"merge"``
    Incremental consolidation: instead of batch re-packing a victim
    pool, migrate the patches of the single worst canvas into its
    siblings' existing free rectangles (probed through the size-class
    :class:`~repro.core.freerect_index.FreeRectIndex` when enabled),
    then reuse the emptied canvas for the incoming patch.  Saves the
    same one canvas as an adopted re-pack at O(victim patches) probes
    instead of a from-scratch trial pack.  Falls back to the
    (memo-cached) trial re-pack whenever migration stalls (some patch
    fits no sibling).  Packing metrics drift slightly from ``"repack"``
    (bounded by the drift tests and the
    ``consolidation_stream_efficiency_ratio`` benchmark gate).

The necessary-condition pre-checks run before any trial pack, for every
policy that re-packs:

* the victims' combined free capacity must at least hold the incoming
  patch (PR 2);
* the pool must not contain more *unpairable* patches — wider than half
  the canvas **and** taller than half the canvas, so no two of them can
  ever share a canvas — than the trial is allowed canvases (new here).
  Both are exact: they only reject pools whose trial pack provably
  fails, so they never change a decision.  (A tempting stronger check —
  rejecting when the incoming patch exceeds every victim's largest free
  rectangle — is *unsound*: a from-scratch re-pack can create room no
  current free rectangle offers; measured on the benchmark mixes it
  would wrongly reject ~6% of consolidating trials.)
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.patches import Patch

if TYPE_CHECKING:  # pragma: no cover - stitching imports us lazily
    from repro.core.canvas import Canvas
    from repro.core.stitching import IncrementalStitcher, PlacementPlan

__all__ = [
    "CONSOLIDATION_POLICIES",
    "ConsolidationEngine",
    "ConsolidationPolicy",
    "RepackPolicy",
    "MemoPolicy",
    "MergePolicy",
    "make_policy",
]

#: Valid values of the ``consolidation`` knob (stitcher/scheduler/configs).
CONSOLIDATION_POLICIES = ("repack", "memo", "merge")


def make_policy(name: str) -> "ConsolidationPolicy":
    """Instantiate the policy registered under ``name``."""
    if name == "repack":
        return RepackPolicy()
    if name == "memo":
        return MemoPolicy()
    if name == "merge":
        return MergePolicy()
    raise ValueError(
        f"consolidation must be one of {CONSOLIDATION_POLICIES}, got {name!r}"
    )


class ConsolidationEngine:
    """Shared consolidation state and policy dispatch for one stitcher.

    The engine is the stitcher's consolidation half: it reads the live
    canvas list, the batch solver, and the victim budgets straight from
    its owner (they are one object split across two modules, not an
    abstraction boundary) and keeps everything only consolidation needs:
    the efficiency heap, the version stamps, the backoff, and the policy
    with its caches.

    Parameters
    ----------
    stitcher:
        The owning :class:`~repro.core.stitching.IncrementalStitcher`.
    policy:
        A policy name from :data:`CONSOLIDATION_POLICIES` or a
        ready-made :class:`ConsolidationPolicy` instance.
    retry_backoff:
        When true (the default, PR-2 behaviour) a failed attempt arms
        the linear backoff: the next attempt waits until the queue grew
        by the current failure streak.  ``False`` retries on every
        wasteful overflow — the configuration the consolidation A/B
        benchmark runs, where ``"memo"``'s stamp cache subsumes the
        crude growth gate (it retries exactly when a member canvas
        changed instead of guessing from queue growth).
    """

    def __init__(
        self,
        stitcher: "IncrementalStitcher",
        policy: str = "memo",
        retry_backoff: bool = True,
    ) -> None:
        self.stitcher = stitcher
        self.policy = policy if not isinstance(policy, str) else make_policy(policy)
        self.retry_backoff = retry_backoff
        #: Running min-heap of ``(efficiency, canvas_index, stamp)`` over
        #: the live non-oversized canvases.  Entries are invalidated
        #: lazily: a slot mutation bumps ``_stamps[slot]`` and pushes a
        #: fresh entry; stale entries are dropped when popped.  Slot
        #: deletions shift later indices and force a rebuild, exactly
        #: like the free-rectangle index.
        self._heap: List[Tuple[float, int, int]] = []
        self._stamps: List[int] = []
        #: Failed-attempt backoff state (probe bookkeeping only).
        self._failures = 0
        self._retry_size = 0
        self.stats: Dict[str, int] = {
            "attempts": 0,
            "trial_packs": 0,
            "capacity_rejects": 0,
            "unpairable_rejects": 0,
            "memo_rejects": 0,
            "merges_planned": 0,
            "merge_stalls": 0,
        }

    # ------------------------------------------------------------- lifecycle
    def rebuild(self) -> None:
        """Re-seed heap and stamps from the stitcher's live canvas list
        and clear the backoff and every policy cache.  Called whenever
        the list itself was replaced or slots were deleted (adopting a
        re-pack, resetting the queue, a consolidating commit)."""
        canvases = self.stitcher._canvases
        self._stamps = [0] * len(canvases)
        heap = [
            (canvas.efficiency, index, 0)
            for index, canvas in enumerate(canvases)
            if not canvas.oversized
        ]
        heapq.heapify(heap)
        self._heap = heap
        self._failures = 0
        self._retry_size = 0
        self.policy.forget()

    def touch(self, index: int) -> None:
        """Record a mutation of canvas slot ``index``: invalidate its old
        heap entries and push one with the current efficiency.  (Memo
        signatures embed the stamp, so the same bump invalidates every
        cached verdict about the canvas.)"""
        if self.stitcher.repack_scope != "canvas":
            # Only consolidation reads the heap; don't grow it by one
            # tuple per arrival on configurations that never consult it.
            return
        stamps = self._stamps
        while len(stamps) <= index:
            stamps.append(0)
        stamps[index] += 1
        canvas = self.stitcher._canvases[index]
        if not canvas.oversized:
            heapq.heappush(self._heap, (canvas.efficiency, index, stamps[index]))

    # ----------------------------------------------------------------- probe
    def plan(self, patch: Patch) -> Optional["PlacementPlan"]:
        """Ask the policy for a consolidation plan for one wasteful
        overflow, honouring the backoff; ``None`` falls back to opening
        a new canvas.  Probes must not consume state: heap entries
        popped during planning are pushed back (stale ones are dropped
        for good)."""
        if self.retry_backoff and len(self.stitcher._patches) < self._retry_size:
            return None  # backing off: the queue has not grown enough
        self.stats["attempts"] += 1
        plan = self.policy.plan(self, patch)
        if plan is None:
            if self.retry_backoff:
                # Linear backoff: a queue that just refused to consolidate
                # will refuse again until it has changed, so retry only
                # after the queue grew by the current failure streak.
                self._failures += 1
                self._retry_size = len(self.stitcher._patches) + self._failures
        else:
            self._failures = 0
            self._retry_size = 0
        return plan

    # -------------------------------------------------------------- victims
    def select_victims(self, patch: Patch) -> Tuple[List[Patch], float, List[int]]:
        """Pop the victim set for one attempt off the efficiency heap.

        Victims come off the heap in ascending ``(efficiency,
        canvas_index)`` order — the same order the former per-overflow
        rescan-and-sort produced (pinned by ``tests/test_skyline.py``) —
        bounded by the stitcher's ``max_partial_victims`` and by
        ``effective_patch_budget`` pooled patches (the static
        ``partial_patch_budget`` unless adaptive budgets are on).  Stale
        heap entries are
        dropped for good; valid ones popped here are pushed back before
        returning, because a probe must not consume state.

        Returns ``(pool, pool_used, victim_indices)`` where ``pool`` is
        ``[patch] + victims' patches`` and ``pool_used`` the victims'
        total used area.
        """
        stitcher = self.stitcher
        heap = self._heap
        stamps = self._stamps
        canvases = stitcher._canvases
        budget = stitcher.effective_patch_budget
        pool: List[Patch] = [patch]
        pool_used = 0.0
        victim_indices: List[int] = []
        popped: List[Tuple[float, int, int]] = []
        while heap and len(victim_indices) < stitcher.max_partial_victims:
            if len(pool) >= budget:
                # Every canvas holds at least one patch, so no remaining
                # candidate can fit the budget — same decisions as
                # scanning on, minus the scan.
                break
            entry = heapq.heappop(heap)
            if entry[2] != stamps[entry[1]]:
                continue  # stale: the slot mutated after this was pushed
            popped.append(entry)
            canvas = canvases[entry[1]]
            if len(pool) + canvas.num_patches > budget:
                # This victim alone would blow the budget, but a later,
                # sparser candidate may still fit it.
                continue
            pool.extend(canvas.patches)
            pool_used += canvas.used_area
            victim_indices.append(entry[1])
        for entry in popped:
            heapq.heappush(heap, entry)
        return pool, pool_used, victim_indices

    def heap_entries(self) -> List[Tuple[float, int]]:
        """Read-only snapshot of the *valid* efficiency-heap entries as
        sorted ``(efficiency, canvas_index)`` pairs — the victim
        candidates the next attempt would see, in selection order.  The
        introspection surface the test suite pins heap behaviour
        through (instead of reaching into the private heap and stamp
        lists)."""
        stamps = self._stamps
        return sorted(
            (efficiency, index)
            for efficiency, index, stamp in self._heap
            if stamp == stamps[index]
        )

    def worst_slot(self) -> Optional[int]:
        """Slot of the least-efficient live non-oversized canvas, or
        ``None`` when no standard canvas exists.  Peeks the heap root
        (dropping stale entries for good) without consuming it."""
        heap = self._heap
        stamps = self._stamps
        while heap:
            entry = heap[0]
            if entry[2] != stamps[entry[1]]:
                heapq.heappop(heap)
                continue
            return entry[1]
        return None


def unpairable(patch: Patch, canvas_width: float, canvas_height: float) -> bool:
    """True when no two such patches can ever share one canvas.

    Two non-overlapping axis-aligned rectangles inside a ``W x H`` box
    must be separated along x (their widths sum to at most ``W``) or
    along y (heights sum to at most ``H``); a patch strictly wider than
    ``W/2`` *and* strictly taller than ``H/2`` rules out both with any
    partner of the same kind.  Counting these gives an exact lower bound
    on the canvases a pool needs.
    """
    return patch.width > 0.5 * canvas_width and patch.height > 0.5 * canvas_height


class ConsolidationPolicy:
    """Strategy interface: produce a consolidation plan or ``None``."""

    name = "abstract"

    def plan(self, engine: ConsolidationEngine, patch: Patch) -> Optional["PlacementPlan"]:
        raise NotImplementedError

    def forget(self) -> None:
        """Drop any cached state (canvas slots were renumbered)."""


class RepackPolicy(ConsolidationPolicy):
    """PR 2/3's from-scratch trial re-pack, extracted verbatim.

    The victim set is grown greedily over the least-efficient standard
    canvases (see :meth:`ConsolidationEngine.select_victims`) — so on a
    *small* queue the victims cover nearly everything and a partial
    re-pack approaches batch quality, while on a fleet-scale queue the
    work stays O(a few canvases).  The re-pack is adopted only when it
    *consolidates*: the replacement needs at most ``len(victims)``
    canvases, i.e. at least one canvas is saved over the ``"new"``
    alternative.  Returns ``None`` when no standard canvas exists, a
    necessary condition rules the pool out, or the trial re-pack does
    not consolidate (caller falls back to opening a new canvas) — so a
    partial re-pack never leaves the packing with more canvases — hence
    never lower mean canvas efficiency — than not re-packing at all.
    """

    name = "repack"

    def plan(self, engine: ConsolidationEngine, patch: Patch) -> Optional["PlacementPlan"]:
        pool, pool_used, victim_indices = engine.select_victims(patch)
        if not victim_indices:
            return None
        stitcher = engine.stitcher
        solver = stitcher.solver
        # Necessary condition for consolidation: the victims' combined
        # free space must at least hold the incoming patch.
        if len(victim_indices) * solver.canvas_area - pool_used < patch.area:
            engine.stats["capacity_rejects"] += 1
            return None
        # Second necessary condition (exact, dimension-aware): patches
        # wider than half the canvas and taller than half the canvas can
        # never pair up, so more of them than allowed canvases means the
        # trial pack must overflow.  O(pool), before any trial pack.
        canvas_w = solver.canvas_width
        canvas_h = solver.canvas_height
        bulky = sum(1 for p in pool if unpairable(p, canvas_w, canvas_h))
        if bulky > len(victim_indices):
            engine.stats["unpairable_rejects"] += 1
            return None
        return self._trial(engine, patch, pool, victim_indices)

    def _trial(
        self,
        engine: ConsolidationEngine,
        patch: Patch,
        pool: List[Patch],
        victim_indices: List[int],
    ) -> Optional["PlacementPlan"]:
        """Run the trial pack and build the ``"partial"`` plan."""
        from repro.core.stitching import PlacementPlan

        stitcher = engine.stitcher
        engine.stats["trial_packs"] += 1
        repacked = stitcher.solver.pack_within(pool, len(victim_indices))
        if repacked is None:
            return None
        delta = len(repacked) - len(victim_indices)
        return PlacementPlan(
            patch=patch,
            kind="partial",
            canvases_after=len(stitcher._canvases) + delta,
            equivalent_after=stitcher._equivalent + delta,
            repacked=repacked,
            victim_indices=victim_indices,
        )


class MemoPolicy(RepackPolicy):
    """``"repack"`` plus the victim-pool signature cache.

    A failed trial records the pool's signature — the victims' ``(slot,
    stamp)`` pairs — with the failed patch's footprint.  A later attempt
    on the *same unchanged pool* is rejected without a trial pack when
    its patch dominates a recorded failure in both dimensions (an
    equal-or-harder instance of a pack that already overflowed).  Any
    mutation of a member canvas bumps its stamp and thereby misses the
    cache; slot renumbering clears it via :meth:`forget`.

    The footprint check leans on the trial pack being monotone in the
    incoming patch's dimensions.  First-fit-decreasing is not *provably*
    monotone, so the equivalence suite pins memo decisions byte-identical
    to ``"repack"`` across randomized streams at depths 64-4096 (and the
    drift would be one extra ``"new"`` canvas, never a broken packing).
    """

    name = "memo"

    #: Cache size cap; on overflow the whole cache is dropped (signatures
    #: die fast anyway — any member mutation orphans them).
    max_entries = 4096
    #: Failed footprints kept per signature (minimal elements only).
    max_frontier = 8

    def __init__(self) -> None:
        self._failed: Dict[Tuple[Tuple[int, int], ...], List[Tuple[float, float]]] = {}

    def forget(self) -> None:
        self._failed.clear()

    def _trial(
        self,
        engine: ConsolidationEngine,
        patch: Patch,
        pool: List[Patch],
        victim_indices: List[int],
    ) -> Optional["PlacementPlan"]:
        stamps = engine._stamps
        signature = tuple((slot, stamps[slot]) for slot in victim_indices)
        frontier = self._failed.get(signature)
        if frontier is not None:
            patch_w = patch.width
            patch_h = patch.height
            for failed_w, failed_h in frontier:
                if patch_w >= failed_w and patch_h >= failed_h:
                    engine.stats["memo_rejects"] += 1
                    return None
        plan = super()._trial(engine, patch, pool, victim_indices)
        if plan is None:
            if frontier is None:
                if len(self._failed) >= self.max_entries:
                    self._failed.clear()
                frontier = self._failed[signature] = []
            self._record_failure(frontier, patch.width, patch.height)
        elif frontier is not None:
            # The commit will bump every victim's stamp anyway; dropping
            # the orphaned signature eagerly is just hygiene.
            del self._failed[signature]
        return plan

    def _record_failure(
        self, frontier: List[Tuple[float, float]], width: float, height: float
    ) -> None:
        """Keep the frontier minimal: drop footprints the new failure
        dominates (anything they would reject, it rejects too)."""
        frontier[:] = [(w, h) for w, h in frontier if not (w >= width and h >= height)]
        frontier.append((width, height))
        if len(frontier) > self.max_frontier:
            del frontier[0]


class MergePolicy(MemoPolicy):
    """Incremental consolidation by patch migration.

    A consolidation moment is exactly when the incoming patch fits no
    live free rectangle; the worst (least-efficient) canvas holds the
    most free space, just fragmented around its residents.  Instead of
    batch re-packing a whole victim pool, this policy *drains* the worst
    canvas: migrate residents into siblings' existing free rectangles,
    largest migratable resident first, until the remainder plus the
    incoming patch re-pack onto a single fresh canvas that replaces the
    victim slot.  Residents that fit no sibling simply stay (typically
    the founder patch, which opened the canvas precisely because it fit
    nowhere) — only enough room for the incoming patch must be freed.
    The canvas count is unchanged, one fewer than the ``"new"``
    alternative — the same saving an adopted trial re-pack banks, at
    O(residents) index probes plus one single-canvas mini re-pack
    instead of a from-scratch trial over a multi-victim pool.

    Plans against *clones*: each migration target is copied on first use
    and trial placements land on the copy, so the probe mutates nothing;
    the commit replays the recorded ``(slot, rect_index, patch)``
    sequence on the real canvases, which is exact because placement is
    deterministic and the clones started identical.  The first probe of
    each migration goes through the size-class index (exact global BSSF,
    excluding the victim); once any target holds trial placements the
    index is stale for it, so later probes fall back to the clone-aware
    linear scan.  When draining stalls, the policy falls back to the
    trial re-pack — through the ``"memo"`` signature cache (this class
    extends :class:`MemoPolicy`), so a pool that keeps stalling does not
    keep paying for the same failing trial pack either.
    """

    name = "merge"

    def plan(self, engine: ConsolidationEngine, patch: Patch) -> Optional["PlacementPlan"]:
        merged = self._plan_merge(engine, patch)
        if merged is not None:
            engine.stats["merges_planned"] += 1
            return merged
        engine.stats["merge_stalls"] += 1
        return super().plan(engine, patch)

    def _probe_siblings(
        self,
        engine: ConsolidationEngine,
        canvases: List["Canvas"],
        clones: Dict[int, "Canvas"],
        worst: int,
        migrant: Patch,
    ) -> Optional[Tuple[int, int]]:
        """Best ``(canvas_index, rect_index)`` for ``migrant`` among the
        victim's siblings, seeing pending trial placements via clones.

        The first probe of each migration goes through the stitcher's
        probe index when it has one (exact global BSSF, excluding the
        victim); once any target holds trial placements the index is
        stale for it, so later probes fall back to the clone-aware
        linear scan.
        """
        index = engine.stitcher._index
        if not clones and index is not None:
            fit = index.best_fit(migrant.width, migrant.height, exclude=frozenset((worst,)))
        else:
            fit = self._scan_siblings(canvases, clones, worst, migrant)
        if fit is None:
            return None
        return fit[0], fit[1]

    @staticmethod
    def _scan_siblings(
        canvases: List["Canvas"],
        clones: Dict[int, "Canvas"],
        worst: int,
        migrant: Patch,
    ) -> Optional[Tuple[int, int, float]]:
        """The clone-aware linear sibling scan (reference semantics)."""
        best: Optional[Tuple[float, int, int]] = None
        for canvas_index, canvas in enumerate(canvases):
            if canvas_index == worst or canvas.oversized:
                continue
            target = clones.get(canvas_index, canvas)
            fit = target.best_fit(migrant)
            if fit is not None:
                candidate = (fit[1], canvas_index, fit[0])
                if best is None or candidate < best:
                    best = candidate
        if best is None:
            return None
        return best[1], best[2], best[0]

    def _plan_merge(
        self, engine: ConsolidationEngine, patch: Patch
    ) -> Optional["PlacementPlan"]:
        from repro.core.stitching import PlacementPlan

        stitcher = engine.stitcher
        worst = engine.worst_slot()
        if worst is None:
            return None
        canvases = stitcher._canvases
        victim = canvases[worst]
        if victim.num_patches > stitcher.effective_patch_budget:
            # Bound the per-overflow migration work the same way the
            # repack path bounds its pooled patch count.
            return None
        solver = stitcher.solver
        clones: Dict[int, "Canvas"] = {}
        migrations: List[Tuple[int, int, Patch]] = []
        remaining = [placement.patch for placement in victim.placements]
        remaining.sort(key=lambda p: p.area, reverse=True)
        remaining_area = victim.used_area
        replacement = None
        cursor = 0
        while True:
            if solver.canvas_area - remaining_area >= patch.area:
                # Enough area drained for the incoming patch to possibly
                # fit the remainder's re-pack; one bounded mini-trial
                # (aborts the moment a second canvas would open) decides.
                trial = solver.pack_within(remaining + [patch], 1)
                if trial is not None:
                    replacement = trial[0]
                    break
            # Drain the largest remaining resident that fits a sibling.
            # Sibling space only shrinks as migrations accumulate, so a
            # resident found unmigratable stays unmigratable: the cursor
            # never revisits it.
            target = None
            while cursor < len(remaining):
                migrant = remaining[cursor]
                target = self._probe_siblings(engine, canvases, clones, worst, migrant)
                if target is not None:
                    break
                cursor += 1  # unmigratable resident: it stays put
            if target is None:
                return None  # drained everything movable and still stuck
            canvas_index, rect_index = target
            clone = clones.get(canvas_index)
            if clone is None:
                clone = clones[canvas_index] = canvases[canvas_index].clone()
            clone.place(migrant, rect_index)
            migrations.append((canvas_index, rect_index, migrant))
            del remaining[cursor]
            remaining_area -= migrant.area
        return PlacementPlan(
            patch=patch,
            kind="merge",
            canvases_after=len(canvases),
            equivalent_after=stitcher._equivalent,
            repacked=[replacement],
            victim_indices=[worst],
            migrations=migrations,
        )
