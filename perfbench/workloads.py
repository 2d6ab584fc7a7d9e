"""The three workloads: seeded inputs, the timed call, outcomes and checks.

Each workload is a class with

* ``seeds(seed, fixture_seed)`` -- every seed the run uses, by name;
* ``build(seeds)`` -- the generated inputs and the program's configs
  (set-up, untimed);
* ``run(inputs)`` -- the timed call into the program;
* ``outcomes(raw, registry)`` -- the simulated results the workload
  has, keyed by the ``outcome.*`` names of ``spec.py`` (no prefix);
* ``checks(raw, outcomes)`` -- ``(name, passed, detail)`` correctness
  checks; a failed check fails the operation.

Why each workload pins or varies which seed is in the README.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.fleet.faults import FaultPlan
from repro.fleet.scenario import FleetScenarioConfig
from repro.fleet.shard import ShardScenarioConfig, run_sharded_scenario
from repro.pipeline.accuracy import full_frame_ap, partition_accuracy
from repro.pipeline.endtoend import STRATEGIES, run_end_to_end
from repro.simulation.random_streams import RandomStreams
from repro.video.dataset import build_panda4k
from repro.workloads import FleetWorkloadConfig, build_camera_traces, camera_ids
from repro.workloads.sweeps import SweepPoint

from tracing import percentile

Check = Tuple[str, bool, str]


# ---------------------------------------------------------------- fig12_sweep
class Fig12Sweep:
    """All four strategies at the middle SLO of each Fig-12 bandwidth."""

    name = "fig12_sweep"
    points = ((20.0, 1.2), (40.0, 1.0), (80.0, 0.8))

    def seeds(self, seed: Optional[int], fixture_seed: Optional[int]) -> Dict[str, int]:
        return {"fixture": 2024 if fixture_seed is None else fixture_seed}

    def build(self, seeds: Dict[str, int]):
        traces = build_camera_traces(
            num_cameras=3,
            frames_per_camera=12,
            seed=seeds["fixture"],
            max_concurrent_objects=150,
        )
        cells = [
            (bandwidth, slo, strategy, SweepPoint(strategy, bandwidth, slo).to_config())
            for bandwidth, slo in self.points
            for strategy in STRATEGIES
        ]
        return traces, cells, seeds["fixture"]

    def run(self, inputs):
        traces, cells, seed = inputs
        return {
            (bandwidth, slo, strategy): run_end_to_end(config, traces, streams=RandomStreams(seed))
            for bandwidth, slo, strategy, config in cells
        }

    def outcomes(self, raw, registry) -> Dict[str, float]:
        tangram = [result for (_b, _s, strategy), result in raw.items() if strategy == "tangram"]
        outcomes = [o for result in tangram for o in result.outcomes]
        sent = sum(result.num_patches for result in tangram)
        in_time = sum(1 for o in outcomes if not o.violated)
        latencies = [o.latency for o in outcomes]
        efficiencies = [e for result in tangram for e in result.canvas_efficiencies]
        return {
            "cost_per_frame_usd": float(np.mean([r.cost_per_frame for r in tangram])),
            "uplink_bytes_per_frame": float(
                np.mean([r.total_uploaded_bytes / r.num_frames for r in tangram])
            ),
            "slo_miss_rate": 1.0 - in_time / sent,
            "patch_latency_p50_s": percentile(latencies, 50),
            "patch_latency_p99_s": percentile(latencies, 99),
            "latency_samples": len(latencies),
            "canvas_efficiency": float(np.mean(efficiencies)),
            "delivered_fraction": len(outcomes) / sent,
            "errors": 0,
        }

    def checks(self, raw, outcomes) -> List[Check]:
        checks: List[Check] = []
        for bandwidth, slo in self.points:
            rate = raw[(bandwidth, slo, "tangram")].slo_violation_rate
            checks.append(
                (f"tangram violations <= 5% at {bandwidth:.0f} Mbps / {slo} s", rate <= 0.05, f"{rate:.4f}")
            )
        mean_cost = {
            strategy: float(np.mean([raw[(b, s, strategy)].total_cost for b, s in self.points]))
            for strategy in STRATEGIES
        }
        cheapest = min(mean_cost, key=mean_cost.get)
        checks.append(
            (
                "tangram has the lowest mean cost",
                cheapest == "tangram",
                ", ".join(f"{k}={v:.5f}" for k, v in mean_cost.items()),
            )
        )
        return checks


# ------------------------------------------------------------ accuracy_table3
class AccuracyTable3:
    """Table III on scenes 01 and 08: full-frame AP vs partitioned AP."""

    name = "accuracy_table3"
    scenes = ("scene_01", "scene_08")
    zones = (2, 4, 6)
    #: Mean-loss bounds per grid, as in benchmarks/test_table3_table4_accuracy.py.
    loss_bounds = {2: 0.10, 4: 0.12, 6: 0.18}

    def seeds(self, seed: Optional[int], fixture_seed: Optional[int]) -> Dict[str, int]:
        return {"fixture": 2024 if fixture_seed is None else fixture_seed, "eval": 31}

    def build(self, seeds: Dict[str, int]):
        dataset = build_panda4k(
            seed=seeds["fixture"],
            scene_keys=list(self.scenes),
            limit_frames=35,
            max_concurrent_objects=200,
        )
        frames = {scene: dataset.eval_frames(scene)[:10] for scene in self.scenes}
        return frames, seeds["eval"]

    def run(self, inputs):
        frames, seed = inputs
        return {
            scene: {
                "full": full_frame_ap(scene_frames, seed=seed),
                **{
                    zones: partition_accuracy(scene_frames, zones=zones, seed=seed)
                    for zones in self.zones
                },
            }
            for scene, scene_frames in frames.items()
        }

    def _losses(self, raw) -> Dict[int, float]:
        return {
            zones: float(np.mean([row["full"] - row[zones] for row in raw.values()]))
            for zones in self.zones
        }

    def outcomes(self, raw, registry) -> Dict[str, float]:
        return {
            "ap50": float(np.mean([row[z] for row in raw.values() for z in self.zones])),
            "ap50_loss": float(np.mean(list(self._losses(raw).values()))),
            "errors": 0,
        }

    def checks(self, raw, outcomes) -> List[Check]:
        checks: List[Check] = [
            (f"full-frame AP > 0.25 on {scene}", row["full"] > 0.25, f"{row['full']:.4f}")
            for scene, row in raw.items()
        ]
        losses = self._losses(raw)
        for zones, bound in self.loss_bounds.items():
            checks.append(
                (f"mean {zones}x{zones} loss < {bound}", losses[zones] < bound, f"{losses[zones]:.4f}")
            )
        checks.append(
            (
                "2x2 loss <= 6x6 loss + 0.03",
                losses[2] <= losses[6] + 0.03,
                f"{losses[2]:.4f} vs {losses[6]:.4f}",
            )
        )
        return checks


# ------------------------------------------------------------- fleet_overload
class FleetOverload:
    """The sharded fault-tolerant fleet, overloaded, with faults."""

    name = "fleet_overload"
    duration_s = 2.0
    patches_per_frame = 2

    def seeds(self, seed: Optional[int], fixture_seed: Optional[int]) -> Dict[str, int]:
        return {
            "workload": 11 if seed is None else seed,
            "faults": 23 if fixture_seed is None else fixture_seed,
            "scenario": 3,
        }

    def build(self, seeds: Dict[str, int]):
        workload = FleetWorkloadConfig(
            num_cameras=256,
            fps=8.0,
            duration_s=self.duration_s,
            patches_per_frame=self.patches_per_frame,
            slo=1.0,
            seed=seeds["workload"],
        )
        plan = FaultPlan.generate(
            seeds["faults"],
            camera_ids(workload),
            duration=self.duration_s,
            dropout_fraction=0.10,
            loss_probability=0.05,
            jitter_s=0.02,
            burst_count=3,
            burst_multiplier=3.0,
        )
        base = FleetScenarioConfig(
            workload=workload,
            seed=seeds["scenario"],
            queue_capacity=16,
            high_watermark=48,
            track_liveness=True,
            suspect_after_s=0.5,
            dead_after_s=1.0,
            reconnect_settle_s=0.25,
        )
        return ShardScenarioConfig(base=base, shards=2, dispatch="consistent_hash"), plan

    def run(self, inputs):
        config, plan = inputs
        return run_sharded_scenario(config, plan)

    @staticmethod
    def buckets(raw) -> Dict[str, int]:
        """Terminal bucket of every sent patch."""
        fleet, ingest = raw.fleet, raw.fleet.ingest
        return {
            "completed": fleet.completed_patches,
            "shed": ingest["shed_degraded"] + fleet.shed_scheduler_base + fleet.shed_scheduler_burst,
            "expired": ingest["expired_stale"] + ingest["expired_dead"],
            "dropped": ingest["dropped_backpressure"],
            "failed": fleet.failed_base + fleet.failed_burst,
        }

    def outcomes(self, raw, registry) -> Dict[str, float]:
        fleet = raw.fleet
        sent = fleet.captured_base + fleet.burst_sent
        batches = [b for s in registry.objects["tangram"] for b in s.batches if b.outcomes]
        latencies = [o.latency for b in batches for o in b.outcomes]
        frames = fleet.expected_base / self.patches_per_frame
        return {
            "cost_per_frame_usd": sum(b.cost for b in batches) / frames,
            "uplink_bytes_per_frame": sum(u.total_bytes for u in registry.objects["uplink"]) / frames,
            "slo_miss_rate": 1.0 - (fleet.completed_patches - fleet.slo_violations) / sent,
            "patch_latency_p50_s": percentile(latencies, 50),
            "patch_latency_p99_s": percentile(latencies, 99),
            "latency_samples": len(latencies),
            "canvas_efficiency": fleet.mean_canvas_efficiency,
            "delivered_fraction": fleet.delivered_fraction,
            "errors": fleet.errors,
        }

    def checks(self, raw, outcomes) -> List[Check]:
        fleet = raw.fleet
        sent = fleet.captured_base + fleet.burst_sent
        buckets = self.buckets(raw)
        admitted = fleet.ingest["admitted"]
        return [
            (
                "every sent patch ends in exactly one bucket",
                sum(buckets.values()) == sent
                and fleet.transfers["transfers"] == sent
                and fleet.transfers["delivered"] + fleet.transfers["failed"] == sent,
                f"sent={sent} " + " ".join(f"{k}={v}" for k, v in buckets.items()),
            ),
            (
                "every admitted patch completed or was shed by a scheduler",
                admitted == fleet.completed_patches + fleet.shed_scheduler_base + fleet.shed_scheduler_burst
                and fleet.ingest["pending"] == 0,
                f"admitted={admitted} pending={fleet.ingest['pending']}",
            ),
            ("errors == 0", fleet.errors == 0, str(fleet.errors)),
        ]


WORKLOADS = {w.name: w for w in (Fig12Sweep(), AccuracyTable3(), FleetOverload())}
