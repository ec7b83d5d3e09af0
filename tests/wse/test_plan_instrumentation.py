"""Per-node instrumentation a lowered plan leaves behind after a run."""

import numpy as np
import pytest

from repro.config import BLOCK_SIZE
from repro.core.lower import lower_plan
from repro.core.plan import plan_multi_pipeline, plan_row_parallel
from repro.wse.engine import Engine
from repro.wse.fabric import Fabric

EPS = 0.05


@pytest.fixture(scope="module")
def blocks():
    rng = np.random.default_rng(7)
    data = np.cumsum(rng.normal(size=6 * BLOCK_SIZE))
    return data.reshape(6, BLOCK_SIZE)


def _run_lowered(plan, rows, cols):
    fabric = Fabric(rows, cols)
    engine = Engine(fabric)
    lowered = lower_plan(plan, fabric, engine)
    report = engine.run()
    return lowered, report


class TestNodeCounters:
    def test_rows_plan_counts_emitted_blocks(self, blocks):
        plan = plan_row_parallel(blocks, EPS, rows=2, cols=1)
        lowered, report = _run_lowered(plan, 2, 1)
        assert sum(nc.blocks_emitted for nc in lowered.counters) == 6
        assert report.trace.total_blocks_relayed() == 0

    def test_multi_plan_counts_relays_and_wavelets(self, blocks):
        plan = plan_multi_pipeline(blocks, EPS, rows=1, cols=3)
        lowered, report = _run_lowered(plan, 1, 3)
        # Fig 9 counted relay: col 0 forwards for cols 1-2, col 1 for col 2.
        by_pe = {(nc.row, nc.col): nc for nc in lowered.counters}
        assert by_pe[(0, 0)].blocks_relayed > by_pe[(0, 1)].blocks_relayed
        assert by_pe[(0, 2)].blocks_relayed == 0
        assert report.trace.total_blocks_relayed() == (
            by_pe[(0, 0)].blocks_relayed + by_pe[(0, 1)].blocks_relayed
        )
        assert report.trace.total_wavelets_sent() > 0

    def test_labels_carry_kind_and_coordinates(self, blocks):
        plan = plan_row_parallel(blocks, EPS, rows=2, cols=1)
        lowered, _ = _run_lowered(plan, 2, 1)
        labels = {nc.label for nc in lowered.counters}
        assert "compute@(0,0)" in labels
        assert "compute@(1,0)" in labels

    def test_stage_cycles_roll_up_to_coarse_steps(self, blocks):
        plan = plan_row_parallel(blocks, EPS, rows=2, cols=1)
        _, report = _run_lowered(plan, 2, 1)
        steps = report.trace.step_cycle_totals()
        assert set(steps) == {"prequant", "lorenzo", "encode"}
        assert all(v > 0 for v in steps.values())

    def test_stage_totals_match_compute_cycles(self, blocks):
        """Counters partition the busy cycles the PEs charged (the PE
        rounds each spend to whole cycles, the counters keep them raw)."""
        plan = plan_row_parallel(blocks, EPS, rows=2, cols=1)
        _, report = _run_lowered(plan, 2, 1)
        counted = sum(report.trace.stage_cycle_totals().values())
        charged = sum(t.compute_cycles for t in report.trace.traces)
        assert counted == pytest.approx(charged, rel=1e-3)


class TestProgramLoadPlan:
    def test_outputs_hold_one_record_per_block(self, blocks):
        plan = plan_row_parallel(blocks, EPS, rows=2, cols=1)
        lowered, _ = _run_lowered(plan, 2, 1)
        records = lowered.outputs.records
        assert sorted(records) == list(range(6))
        assert all(isinstance(r, bytes) and r for r in records.values())
