"""One frozen options object for every scheduler/stitcher knob.

:class:`SchedulerOptions` is the only way to configure the online path:
it is passed as ``options=`` to :class:`~repro.core.stitching.
IncrementalStitcher` and :class:`~repro.core.scheduler.TangramScheduler`,
and carried as ``scheduler_options`` by :class:`~repro.core.tangram.
TangramConfig`, :class:`repro.pipeline.endtoend.EndToEndConfig` and
:class:`repro.fleet.scenario.FleetScenarioConfig`.  The record is frozen,
so the sharded fleet frontend (:mod:`repro.fleet.shard`) hands the same
instance to every worker and all of them agree on every knob by
construction.  Derive a variant with :meth:`SchedulerOptions.replace`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

from repro.core.canvas import CANVAS_STRUCTURES
from repro.core.consolidation import CONSOLIDATION_POLICIES

#: Overflow re-pack scopes of the incremental stitcher.
REPACK_SCOPES = ("queue", "canvas")


@dataclass(frozen=True)
class SchedulerOptions:
    """Every scheduler/stitcher knob, in one immutable record.

    ``SchedulerOptions()`` is the unconfigured scheduler: the incremental
    fast path, whose packing stays alive across arrivals in an
    :class:`~repro.core.stitching.IncrementalStitcher`.  Knobs marked
    *canvas scope* only matter with ``repack_scope="canvas"``.
    """

    #: Free-space headroom, as a fraction of the arriving patch's area,
    #: the live canvases may hold before opening another canvas triggers
    #: a re-pack.  Smaller values re-pack more often and track the batch
    #: packer more tightly; ``inf`` disables drift re-packs (the
    #: probe-isolation benchmarks).
    drift_margin: float = 0.05
    #: What a wasteful overflow re-packs.  ``"queue"`` re-packs the whole
    #: queue (best quality, O(queue) per re-pack); ``"canvas"``
    #: consolidates only the few least-efficient canvases, which keeps the
    #: overflow path flat at fleet-scale queue depths.  A consolidation is
    #: adopted only when it saves at least one canvas.
    repack_scope: str = "queue"
    #: Canvas scope: the consolidation policy.  ``"memo"`` runs trial
    #: re-packs behind a victim-pool signature cache (decisions
    #: byte-identical to ``"repack"``); ``"repack"`` is the from-scratch
    #: trial; ``"merge"`` migrates patches incrementally with a
    #: ``"repack"`` fallback.  See :mod:`repro.core.consolidation`.
    consolidation: str = "memo"
    #: Canvas scope: arm the linear failed-attempt backoff between
    #: consolidation attempts.  ``False`` retries on every wasteful
    #: overflow (pair it with ``"memo"``, whose cache subsumes the gate).
    retry_backoff: bool = True
    #: Answer probes from the size-class
    #: :class:`~repro.core.freerect_index.FreeRectIndex` instead of a
    #: linear scan over every free rectangle (identical decisions; the
    #: scan stays as the oracle the index is pinned against).
    use_index: bool = True
    #: Canvas scope: spend an adaptive pooled-patch budget that starts at
    #: a quarter of ``partial_patch_budget`` and ramps to it with the
    #: wasteful overflows seen since the last committed consolidation.
    adaptive_budget: bool = False
    #: Canvas scope: how many least-efficient canvases one consolidation
    #: may dissolve at once.
    max_partial_victims: int = 8
    #: Canvas scope: cap on the pooled patch count one consolidation may
    #: re-pack (the trial re-pack's cost bound).
    partial_patch_budget: int = 48
    #: The literal Algorithm 2: re-pack the whole queue on every arrival
    #: through the same probe/commit plumbing (the reference the fast
    #: path is measured against; equivalence tests and benches only).
    full_repack_equivalent: bool = False
    #: Canvas free-space structure: ``"skyline"`` or ``"guillotine"`` (see
    #: :class:`~repro.core.skyline.Skyline`).  Applies when the owner
    #: builds its own solver; an explicit ``solver=`` brings its own.
    canvas_structure: str = "skyline"
    #: SLO-aware admission shedding: once the pending queue holds at least
    #: this many patches, arrivals whose remaining slack is below the
    #: single-canvas execution floor are shed instead of served late.
    #: ``None`` disables shedding.
    admission_watermark: Optional[int] = None

    def __post_init__(self) -> None:
        # ``inf`` is a real setting (no drift re-packs); NaN is not.
        if math.isnan(self.drift_margin) or self.drift_margin < 0:
            raise ValueError(f"drift_margin must be non-negative, got {self.drift_margin!r}")
        if self.repack_scope not in REPACK_SCOPES:
            raise ValueError(
                f"repack_scope must be one of {REPACK_SCOPES}, got {self.repack_scope!r}"
            )
        if self.consolidation not in CONSOLIDATION_POLICIES:
            raise ValueError(
                f"unknown consolidation policy {self.consolidation!r}; "
                f"valid: {CONSOLIDATION_POLICIES}"
            )
        if self.canvas_structure not in CANVAS_STRUCTURES:
            raise ValueError(
                f"canvas_structure must be one of {CANVAS_STRUCTURES}, "
                f"got {self.canvas_structure!r}"
            )
        if self.max_partial_victims < 1:
            raise ValueError("max_partial_victims must be at least 1")
        if self.partial_patch_budget < 2:
            raise ValueError("partial_patch_budget must be at least 2")
        if self.admission_watermark is not None and self.admission_watermark < 1:
            raise ValueError("admission_watermark must be at least 1")

    def replace(self, **overrides) -> "SchedulerOptions":
        """A changed copy (validation re-runs); unknown names raise."""
        return dataclasses.replace(self, **overrides)


__all__ = ["REPACK_SCOPES", "SchedulerOptions"]
