"""Size-class-indexed free-rectangle pools (the probe fast path's fast path).

The incremental stitcher's probe is a *global* best-short-side-fit: for an
arriving patch it must find, among every free rectangle of every pending
canvas, the one minimising ``min(w_r - w_p, h_r - h_p)``.  The linear scan
is O(canvases x free-rects) per probe, which PR 1 measured as the scaling
wall for queue depths well past 256 (hundreds of canvases, thousands of
free rectangles, scanned in full for every arrival).

:class:`FreeRectIndex` buckets every live free rectangle by the geometric
size class of its width and height (powers of two: class ``i`` holds
dimensions in ``[2^i, 2^(i+1))``).  A probe then only has to look at
buckets whose class bounds admit the patch, in order of each bucket's
*lower-bound* BSSF score, and can stop as soon as the next bucket's lower
bound exceeds the best exact score found — the exact scan runs only inside
the few candidate buckets near the patch's own size class.

Correctness contract (pinned by ``tests/test_freerect_index.py``): the
index returns **exactly** the rectangle the linear scan would have picked —
the lexicographic minimum of ``(score, canvas_index, rect_index)`` over all
fitting rectangles — so every placement decision is byte-identical to the
un-indexed BSSF.  The index is structure-agnostic: it reads whatever
``canvas.free_rectangles`` currently exposes, which is the guillotine pool
or the skyline's derived candidate list (surface candidates plus waste
rectangles, see :mod:`repro.core.skyline`) — both share the ``rect_index``
addressing and the BSSF score, so the pin holds for either structure.

Invalidation is *lazy*: mutating a canvas (placing a patch splits/merges
its pool) bumps that canvas's version and re-inserts its current
rectangles; entries from older versions stay in their buckets until a probe
touches them, at which point they are skipped and dropped.  A compaction
rebuild runs when stale entries outnumber live ones 3:1, so memory stays
proportional to the live pool.

This is the stitcher's only probe index; the linear sweep
(:meth:`~repro.core.stitching.IncrementalStitcher.linear_best_fit`) stays
as the oracle it is pinned against.  Per-canvas capability summaries beat
the per-rectangle buckets on uniform and heavy-tailed mixes by up to a
quarter but lose the crowded worst case by about a third, and no
observable input separates the two regimes, so one shape is kept.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (stitching imports us)
    from repro.core.stitching import Canvas

__all__ = ["FreeRectIndex", "size_class", "class_lower_bound"]


def size_class(dimension: float) -> int:
    """Geometric size class of a dimension: class ``i`` covers
    ``[2^i, 2^(i+1))``; class 0 additionally absorbs everything below 2
    (slivers below 0.5 px are never pooled anyway)."""
    truncated = int(dimension)
    if truncated < 2:
        return 0
    return truncated.bit_length() - 1


def class_lower_bound(index: int) -> float:
    """Smallest dimension a rectangle in class ``index`` can have."""
    if index <= 0:
        return 0.0
    return float(1 << index)


class FreeRectIndex:
    """A bucketed per-size-class index over many canvases' free pools.

    The owner (:class:`repro.core.stitching.IncrementalStitcher`) calls

    * :meth:`rebuild` whenever the whole canvas list is replaced (adopting
      a batch re-pack, resetting the queue);
    * :meth:`reindex_canvas` after any single canvas mutates (a placement
      split its pool, a partial re-pack swapped it out) or is appended;
    * :meth:`best_fit` from the probe hot path.
    """

    def __init__(self) -> None:
        #: bucket key ``(width_class, height_class)`` -> entry list; an
        #: entry is ``(canvas_index, rect_index, width, height, version)``.
        self._buckets: Dict[
            Tuple[int, int], List[Tuple[int, int, float, float, int]]
        ] = {}
        self._canvases: Sequence[Canvas] = []
        self._versions: List[int] = []
        self._live_per_canvas: List[int] = []
        self._live = 0
        self._total = 0
        self.stats = {
            "queries": 0,
            "buckets_scanned": 0,
            "entries_scanned": 0,
            "stale_dropped": 0,
            "compactions": 0,
        }

    # ----------------------------------------------------------- maintenance
    def rebuild(self, canvases: Sequence[Canvas]) -> None:
        """Drop everything and index ``canvases`` from scratch.

        Keeps a reference to the list so compaction can re-walk it; the
        owner must call :meth:`rebuild` again if it replaces the list
        object itself.
        """
        self._canvases = canvases
        self._buckets = {}
        self._versions = [0] * len(canvases)
        self._live_per_canvas = [0] * len(canvases)
        self._live = 0
        self._total = 0
        for canvas_index, canvas in enumerate(canvases):
            self._insert_canvas(canvas_index, canvas)

    def reindex_canvas(self, canvas_index: int, canvas: Canvas) -> None:
        """Re-insert one canvas's current pool under a fresh version.

        Older entries for the canvas become stale and are dropped lazily by
        later probes.  Also used to register a newly appended canvas
        (indices past the end extend the version table).
        """
        while len(self._versions) <= canvas_index:
            self._versions.append(0)
            self._live_per_canvas.append(0)
        self._versions[canvas_index] += 1
        self._live -= self._live_per_canvas[canvas_index]
        self._live_per_canvas[canvas_index] = 0
        self._insert_canvas(canvas_index, canvas)
        # Compact before stale entries dominate the bucket scans.
        if self._total > 64 and self._total > 4 * self._live:
            self.stats["compactions"] += 1
            self.rebuild(self._canvases)

    def _insert_canvas(self, canvas_index: int, canvas: Canvas) -> None:
        if canvas.oversized:
            # Oversized canvases are sized to their single patch and never
            # receive further placements; the probe skips them too.
            return
        version = self._versions[canvas_index]
        buckets = self._buckets
        count = 0
        skyline = canvas.skyline
        if skyline is not None:
            # Skyline canvases expose their candidates as plain tuples in
            # the same ``rect_index`` order as ``free_rectangles`` —
            # indexing them directly skips materialising the object list.
            sizes = [(cand[2], cand[3]) for cand in skyline.candidates]
        else:
            sizes = [
                (rect.width, rect.height) for rect in canvas.free_rectangles
            ]
        for rect_index, (rect_w, rect_h) in enumerate(sizes):
            key = (size_class(rect_w), size_class(rect_h))
            entry = (canvas_index, rect_index, rect_w, rect_h, version)
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [entry]
            else:
                bucket.append(entry)
            count += 1
        self._live_per_canvas[canvas_index] = count
        self._live += count
        self._total += count

    # ------------------------------------------------------------------ query
    def best_fit(
        self,
        patch_width: float,
        patch_height: float,
        exclude: Optional[frozenset] = None,
    ) -> Optional[Tuple[int, int, float]]:
        """Exact global BSSF: ``(canvas_index, rect_index, score)`` of the
        lexicographically minimal ``(score, canvas_index, rect_index)``
        among all live rectangles fitting the patch, or ``None``.

        ``exclude`` (a set of canvas indices) removes whole canvases from
        consideration without touching their entries — the consolidation
        ``"merge"`` policy uses it to probe for a migration target other
        than the canvas being dissolved.  The default ``None`` keeps the
        hot probe path branch-cheap.
        """
        self.stats["queries"] += 1
        width_class = size_class(patch_width)
        height_class = size_class(patch_height)
        # Collect candidate buckets with their lower-bound score.  Classes
        # below the patch's own cannot contain a fitting rectangle (their
        # upper bound is at most the patch dimension's class floor).
        candidates = []
        for key, entries in self._buckets.items():
            if not entries:
                continue
            bucket_w, bucket_h = key
            if bucket_w < width_class or bucket_h < height_class:
                continue
            slack_w = class_lower_bound(bucket_w) - patch_width
            if slack_w < 0.0:
                slack_w = 0.0
            slack_h = class_lower_bound(bucket_h) - patch_height
            if slack_h < 0.0:
                slack_h = 0.0
            lower_bound = slack_w if slack_w < slack_h else slack_h
            candidates.append((lower_bound, key, entries))
        candidates.sort(key=lambda item: item[0])

        best_score = float("inf")
        best_canvas = -1
        best_rect = -1
        versions = self._versions
        buckets_scanned = 0
        entries_scanned = 0
        for lower_bound, key, entries in candidates:
            if lower_bound > best_score:
                # Sorted by lower bound: no remaining bucket can beat (or
                # even tie) the best exact score found so far.
                break
            buckets_scanned += 1
            stale = 0
            for entry in entries:
                canvas_index, rect_index, width, height, version = entry
                if versions[canvas_index] != version:
                    stale += 1
                    continue
                if exclude is not None and canvas_index in exclude:
                    continue  # live, just out of bounds for this query
                entries_scanned += 1
                if width >= patch_width and height >= patch_height:
                    slack_w = width - patch_width
                    slack_h = height - patch_height
                    score = slack_w if slack_w < slack_h else slack_h
                    if score < best_score or (
                        score == best_score
                        and (canvas_index, rect_index) < (best_canvas, best_rect)
                    ):
                        best_score = score
                        best_canvas = canvas_index
                        best_rect = rect_index
            if stale:
                live = [e for e in entries if versions[e[0]] == e[4]]
                self._buckets[key] = live
                self._total -= stale
                self.stats["stale_dropped"] += stale
        self.stats["buckets_scanned"] += buckets_scanned
        self.stats["entries_scanned"] += entries_scanned
        if best_canvas < 0:
            return None
        return best_canvas, best_rect, best_score

    # ------------------------------------------------------------------ state
    @property
    def live_entries(self) -> int:
        """Number of currently valid indexed rectangles."""
        return self._live

    @property
    def total_entries(self) -> int:
        """Live plus not-yet-dropped stale entries (memory footprint)."""
        return self._total

    @property
    def num_buckets(self) -> int:
        return sum(1 for entries in self._buckets.values() if entries)
