#!/usr/bin/env python
"""Consolidation-policy A/B on a camera-fleet stream.

A fleet of edge cameras shares one fat uplink into the cloud scheduler
running the fleet-scale configuration (size-class index + canvas-scope
consolidation).  The same trace is run once per consolidation policy --
``repack`` (PR-2's from-scratch trial re-pack), ``memo`` (the default:
trial re-packs behind a victim-pool signature cache, byte-identical
decisions), and ``merge`` (incremental patch migration) -- and the
efficiency / latency / cost table is printed.

``repack`` and ``memo`` must land on identical packing metrics (the
cache only skips trial packs whose outcome is already known); ``merge``
may drift within the benchmark gates.  The wall-clock column shows what
each policy pays for the same decisions.

Run with::

    python examples/consolidation_ab.py [--cameras 64] [--frames 2]
"""

from __future__ import annotations

import argparse
import time

from repro.analysis.tables import format_table
from repro.core.consolidation import CONSOLIDATION_POLICIES
from repro.core.options import SchedulerOptions
from repro.pipeline.endtoend import EndToEndConfig, run_end_to_end
from repro.simulation.random_streams import RandomStreams
from repro.workloads import build_camera_traces


def run_policies(
    num_cameras: int = 64,
    frames_per_camera: int = 2,
    bandwidth_mbps: float = 400.0,
    slo: float = 2.0,
    seed: int = 4096,
    verbose: bool = True,
):
    """Run the fleet trace under every consolidation policy and return
    the result rows (policy, efficiency, latency, violations, cost,
    wall seconds)."""
    traces = build_camera_traces(
        num_cameras=num_cameras,
        frames_per_camera=frames_per_camera,
        seed=seed,
        max_concurrent_objects=60,
    )
    rows = []
    for policy in CONSOLIDATION_POLICIES:
        config = EndToEndConfig(
            strategy="tangram",
            bandwidth_mbps=bandwidth_mbps,
            slo=slo,
            scheduler_options=SchedulerOptions(repack_scope="canvas", consolidation=policy),
        )
        start = time.perf_counter()
        result = run_end_to_end(config, traces, streams=RandomStreams(77))
        wall = time.perf_counter() - start
        rows.append(
            [
                policy,
                result.mean_canvas_efficiency,
                result.mean_patch_latency,
                100.0 * result.slo_violation_rate,
                result.total_cost,
                wall,
            ]
        )
        if verbose:
            print(
                f"  {policy:7s} done: {len(result.completed_batches)} invocations, "
                f"{result.num_patches} patches served in {wall:.2f}s"
            )
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--cameras", type=int, default=64, help="number of cameras in the fleet"
    )
    parser.add_argument("--frames", type=int, default=2, help="frames per camera")
    parser.add_argument(
        "--bandwidth", type=float, default=400.0, help="shared uplink bandwidth in Mbps"
    )
    parser.add_argument(
        "--slo", type=float, default=2.0, help="end-to-end latency objective in seconds"
    )
    args = parser.parse_args()

    print(f"Building {args.cameras} camera traces ({args.frames} frames each)...")
    rows = run_policies(
        num_cameras=args.cameras,
        frames_per_camera=args.frames,
        bandwidth_mbps=args.bandwidth,
        slo=args.slo,
    )
    print()
    headers = [
        "policy",
        "canvas eff.",
        "latency/patch (s)",
        "SLO violation (%)",
        "cost ($)",
        "wall (s)",
    ]
    print(
        format_table(
            headers,
            rows,
            title=(
                f"Consolidation A/B @ {args.cameras} cameras, "
                f"{args.bandwidth:.0f} Mbps, SLO = {args.slo:.1f} s"
            ),
            float_format="{:.4f}",
        )
    )
    print(
        "\nrepack and memo rows must match on every packing metric "
        "(byte-identical decisions); merge may drift within the "
        "benchmark gates while consolidating incrementally."
    )


if __name__ == "__main__":
    main()
