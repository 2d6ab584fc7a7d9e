"""Tangram's core contribution.

* :mod:`repro.core.patches` -- the patch record the edge uploads (pixels
  plus generation time, size, and SLO).
* :mod:`repro.core.partitioning` -- Algorithm 1, adaptive frame
  partitioning: align GMM RoIs into per-zone patches.
* :mod:`repro.core.stitching` -- Algorithm 2 (lines 24-39), the
  patch-stitching solver that packs variable-size patches onto fixed-size
  canvases without resizing, padding, rotation or overlap.
* :mod:`repro.core.canvas` -- the canvas itself: the fixed-size packing
  surface with its pluggable free-space bookkeeping.
* :mod:`repro.core.skyline` -- the skyline free-space structure (occupied
  silhouette as x-sorted segments plus recycled waste rectangles) the
  solver's canvases use by default; ``canvas_structure="guillotine"``
  selects the classic free-rectangle list instead.
* :mod:`repro.core.freerect_index` -- the size-class-bucketed index over
  all live free rectangles that keeps the incremental probe sub-linear in
  the number of pending canvases.
* :mod:`repro.core.consolidation` -- the overflow-consolidation
  subsystem: the victim efficiency heap, the retry backoff, and the
  memo-cached trial re-pack (``RepackPolicy`` is its uncached reference).
* :mod:`repro.core.latency` -- the latency estimator (offline profiling,
  slack = mean + 3 sigma).
* :mod:`repro.core.scheduler` -- the online SLO-aware batching invoker that
  decides when to trigger the serverless function.
* :mod:`repro.core.tangram` -- the plug-and-play facade mirroring the
  paper's public API (``partition`` / ``receive_patch`` / ``invoke``).
"""

from repro.core.patches import Patch
from repro.core.partitioning import FramePartitioner, partition_rois
from repro.core.consolidation import ConsolidationEngine
from repro.core.freerect_index import FreeRectIndex
from repro.core.options import REPACK_SCOPES, SchedulerOptions
from repro.core.skyline import FreeRect, Skyline
from repro.core.stitching import (
    CANVAS_STRUCTURES,
    Canvas,
    IncrementalStitcher,
    Placement,
    PlacementPlan,
    PatchStitchingSolver,
)
from repro.core.latency import LatencyEstimator, LatencyProfile
from repro.core.scheduler import BatchRecord, TangramScheduler
from repro.core.tangram import Tangram

__all__ = [
    "Patch",
    "FramePartitioner",
    "partition_rois",
    "CANVAS_STRUCTURES",
    "Canvas",
    "ConsolidationEngine",
    "FreeRect",
    "FreeRectIndex",
    "Skyline",
    "IncrementalStitcher",
    "Placement",
    "PlacementPlan",
    "PatchStitchingSolver",
    "LatencyEstimator",
    "LatencyProfile",
    "REPACK_SCOPES",
    "SchedulerOptions",
    "BatchRecord",
    "TangramScheduler",
    "Tangram",
]
