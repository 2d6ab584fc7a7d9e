"""Tier-1 smoke test for the fleet churn example.

Runs ``examples/fleet_churn.py`` in-process on a small fleet so the
example stays executable (imports, knob plumbing, result fields) and its
headline claims hold on a real run.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


@pytest.fixture(scope="module")
def fleet_churn():
    sys.path.insert(0, str(EXAMPLES_DIR))
    try:
        import fleet_churn

        yield fleet_churn
    finally:
        sys.path.remove(str(EXAMPLES_DIR))


def test_fleet_churn_headline_claims_hold_on_a_small_fleet(fleet_churn):
    config = fleet_churn.build_config(num_cameras=8, duration_s=3.0)
    plan = fleet_churn.build_churn_plan(config, dropout_fraction=0.25, seed=23)
    baseline, churn = fleet_churn.run_pair(config, plan)
    # The fault-free baseline delivers everything; churn degrades it but
    # never crashes, and the loss shows up in explicit counters.
    assert baseline.delivered_fraction == pytest.approx(1.0)
    assert churn.errors == 0
    assert churn.delivered_fraction <= baseline.delivered_fraction
    if plan.dropout_cameras():
        assert churn.suppressed_base > 0 or churn.ingest["expired_dead"] > 0
    # The example's determinism claim: a replay agrees counter-for-counter.
    assert fleet_churn.run_fleet(config, plan).counters() == churn.counters()
