"""Execution-mode equivalence of the simulator.

The performance layer must be invisible in results: row-parallel
simulation with ``jobs > 1``, observed runs, and the fused kernels
(whole-block and per stage group, in both directions) have to reproduce
the serial run and the stepped sub-stage machines (the fused kernels'
named oracle) cycle for cycle and bit for bit. These tests sweep the plan
matrix — every compression strategy plus the rows and pipeline decode
mappings — and compare makespans, compressed bytes or decoded values,
per-PE traces, and per-stage counter breakdowns, and pin the exact event
count the engine's event-queue slimming yields for each plan.
"""

import numpy as np
import pytest

from repro.config import BLOCK_SIZE
from repro.core.lower import host_block_records, lower_plan
from repro.core.plan import (
    plan_multi_pipeline,
    plan_pipeline,
    plan_pipeline_decompress,
    plan_row_parallel,
    plan_row_parallel_decompress,
    plan_staged_multi_pipeline,
    row_chunks,
    row_partitionable,
    split_rows,
)
from repro.core.schedule import distribute_substages
from repro.core.simulate import simulate_plan
from repro.core.stages import compression_substages, decompression_substages
from repro.core.wse_compressor import WSECereSZ
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.wse.engine import Engine
from repro.wse.fabric import Fabric

EPS = 0.01

#: Exact engine events of the 13-block matrix. The naive schedule (one task
#: event per activation, one match probe per deliver and per posted
#: receive) made 91/273/165/258 for the compression plans; these pins catch
#: a return to it. Relay trains (``repro.wse.engine``) took multi from 138
#: to 124: quiet PEs step their counted relays inline. Convoys took it to
#: 122: a ready train takes handed and fed blocks without their deliver
#: events. Staged stays at 214 because its PEs that relay more than one
#: block per train are never quiet.
#:
#: Receive trains took rows 78 -> 9 and pipeline 234 -> 14: every compute
#: or stage PE posts one train (an activate and a task event), then each
#: row's ready first PE takes its whole edge feed in one feed event and
#: hands the run down its pipeline (3 rows x 2 + 3; 6 PEs x 2 + 2 rows).
#: Pipeline decode 286 -> 138: its two stage PEs per row took each handed
#: state inline (13 blocks x 2 PEs x 6 events saved, their 4 x 2 posting
#: events added). Multi and staged post no receive train.
#:
#: Record trains took the decode heads' two-phase header/body receive off
#: ten events a block: each head posts one train (an activate and a task
#: event) and takes its row's whole feed of records in one feed event, so
#: rows decode 130 -> 9 (3 rows x 2 + 3) and pipeline decode 138 -> 14 (6
#: PEs x 2 + 2 rows), the same counts as their compress twins.
EXACT_EVENTS = {
    "rows": 9,
    "pipeline": 14,
    "multi": 122,
    "staged": 214,
    "rows-decompress": 9,
    "pipeline-decompress": 14,
}

#: A wafer-pipeline-shaped plan (2x16, L=8, 64 blocks), in both directions
#: 16 posting activations and tasks plus one feed event per row: the
#: compress head takes its row's raw blocks, the decode head (a record
#: train) its row's records, and each hands the run down its pipeline.
#: Per-block stage events would add 6 per block-stage, and the decode
#: head's per-record receive 10 per block (it cost 668 events).
WAFER_PIPELINE_EVENTS = {"compress": 34, "decompress": 34}


def _blocks(num_blocks: int, seed: int = 11) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(num_blocks, BLOCK_SIZE)).cumsum(axis=1)


def _distribution(length: int):
    return distribute_substages(
        compression_substages(8, BLOCK_SIZE), length
    )


def _plan(strategy: str, blocks: np.ndarray):
    if strategy.endswith("-decompress"):
        return _decompress_plan(strategy, blocks)
    if strategy == "rows":
        return plan_row_parallel(blocks, EPS, rows=3, cols=1)
    if strategy == "pipeline":
        return plan_pipeline(blocks, EPS, _distribution(3), rows=2, cols=3)
    if strategy == "multi":
        return plan_multi_pipeline(blocks, EPS, rows=2, cols=3)
    return plan_staged_multi_pipeline(
        blocks, EPS, _distribution(2), rows=2, cols=4
    )


def _decompress_plan(strategy: str, blocks: np.ndarray):
    """Decode the wafer records of ``blocks`` (rows 3x1, pipeline 2x3 L=3)."""
    n = blocks.shape[0]
    records = host_block_records(blocks, EPS, range(n))
    body = b"".join(records[i] for i in range(n))
    if strategy == "rows-decompress":
        return plan_row_parallel_decompress(body, n, EPS, rows=3, cols=1)
    max_fl = max(int.from_bytes(r[:4], "little") for r in records.values())
    dist = distribute_substages(decompression_substages(max_fl), 3)
    return plan_pipeline_decompress(body, n, EPS, dist, rows=2, cols=3)


def _result(outputs, plan) -> bytes:
    """Compressed bytes, or the decoded values' bits, of a finished run."""
    if plan.direction == "compress":
        return outputs.stream(plan.num_blocks)
    return outputs.assemble(plan.num_blocks, plan.block_size).tobytes()


STRATEGIES = ["rows", "pipeline", "multi", "staged"]
PLANS = STRATEGIES + ["rows-decompress", "pipeline-decompress"]


def _trace_rows(trace):
    return [
        (t.row, t.col, t.compute_cycles, t.relay_cycles, t.tasks_run,
         t.finished_at)
        for t in trace.traces
    ]


def _counter_rows(trace):
    return [
        (nc.label, nc.kind, nc.row, nc.col, nc.blocks_relayed,
         nc.wavelets_sent, nc.blocks_emitted, dict(nc.stage_cycles))
        for nc in trace.node_counters
    ]


@pytest.mark.parametrize("strategy", PLANS)
class TestExecutionModeEquivalence:
    def test_parallel_matches_serial(self, strategy):
        blocks = _blocks(13)  # non-divisible across every mesh above
        plan = _plan(strategy, blocks)
        serial = simulate_plan(plan)
        parallel = simulate_plan(_plan(strategy, blocks), jobs=2)
        assert parallel.partitions == 2
        assert _result(serial.outputs, plan) == _result(
            parallel.outputs, plan
        )
        assert (
            serial.report.makespan_cycles == parallel.report.makespan_cycles
        )
        assert (
            serial.report.events_processed
            == parallel.report.events_processed
        )
        assert serial.report.tasks_run == parallel.report.tasks_run
        assert _trace_rows(serial.report.trace) == _trace_rows(
            parallel.report.trace
        )
        assert _counter_rows(serial.report.trace) == _counter_rows(
            parallel.report.trace
        )

    def test_parallel_metrics_totals_match_serial(self, strategy):
        """Counter totals are merge-invariant: workers' fabric/engine
        counters sum exactly and trace metrics come from the merged
        recorder, so jobs=N equals jobs=1 for every counter."""
        blocks = _blocks(13)
        m1, m2 = MetricsRegistry(), MetricsRegistry()
        simulate_plan(_plan(strategy, blocks), metrics=m1)
        run2 = simulate_plan(_plan(strategy, blocks), jobs=2, metrics=m2)
        assert run2.partitions == 2
        assert m1.counter_totals() == m2.counter_totals()
        # Labeled cells agree too, not just per-name sums.
        for metric in m1:
            if metric.kind == "counter":
                assert metric.values == m2.get(metric.name).values, metric.name

    def test_parallel_timeline_matches_serial(self, strategy):
        """The merged timeline holds exactly the serial run's PE events
        (worker captures are filtered to their own rows)."""
        blocks = _blocks(13)
        t1 = Tracer(level="timeline")
        t2 = Tracer(level="timeline")
        simulate_plan(_plan(strategy, blocks), tracer=t1)
        simulate_plan(_plan(strategy, blocks), jobs=2, tracer=t2)

        def key(events):
            return sorted(
                (e.row, e.col, e.name, e.start_cycles, e.dur_cycles)
                for e in events
            )

        assert key(t1.pe_events) == key(t2.pe_events)
        # Worker spans come back re-tagged onto per-worker tracks.
        assert {s.tid for s in t2.spans if s.name == "engine.run"} == {1, 2}

    def test_observed_run_is_byte_identical(self, strategy):
        """Tracing and metrics must never perturb simulation results."""
        blocks = _blocks(13)
        plan = _plan(strategy, blocks)
        plain = simulate_plan(plan)
        observed = simulate_plan(
            _plan(strategy, blocks),
            tracer=Tracer(level="timeline"),
            metrics=MetricsRegistry(),
        )
        assert _result(plain.outputs, plan) == _result(
            observed.outputs, plan
        )
        assert (
            plain.report.makespan_cycles == observed.report.makespan_cycles
        )
        assert _trace_rows(plain.report.trace) == _trace_rows(
            observed.report.trace
        )

    def test_fused_matches_stepped(self, strategy):
        """The fused kernels against their stepped oracle."""
        runs = []
        for fast_kernels in (False, True):
            plan = _plan(strategy, _blocks(13))
            fabric = Fabric(plan.rows, plan.cols)
            engine = Engine(fabric)
            lowered = lower_plan(
                plan, fabric, engine, fast_kernels=fast_kernels
            )
            report = engine.run()
            runs.append((_result(lowered.outputs, plan), report))
        (stepped, s_rep), (fused, f_rep) = runs
        assert stepped == fused
        assert s_rep.makespan_cycles == f_rep.makespan_cycles
        assert s_rep.tasks_run == f_rep.tasks_run
        assert s_rep.events_processed == f_rep.events_processed
        assert _trace_rows(s_rep.trace) == _trace_rows(f_rep.trace)
        assert _counter_rows(s_rep.trace) == _counter_rows(f_rep.trace)

    def test_exact_event_count(self, strategy):
        run = simulate_plan(_plan(strategy, _blocks(13)))
        assert run.report.events_processed == EXACT_EVENTS[strategy]


@pytest.mark.parametrize("direction", ["compress", "decompress"])
def test_wafer_pipeline_event_count(direction):
    blocks = _blocks(64)
    if direction == "compress":
        dist = distribute_substages(compression_substages(8, BLOCK_SIZE), 8)
        plan = plan_pipeline(blocks, EPS, dist, rows=2, cols=16)
    else:
        records = host_block_records(blocks, EPS, range(64))
        body = b"".join(records[i] for i in range(64))
        max_fl = max(int.from_bytes(r[:4], "little") for r in records.values())
        dist = distribute_substages(decompression_substages(max_fl), 8)
        plan = plan_pipeline_decompress(body, 64, EPS, dist, rows=2, cols=16)
    run = simulate_plan(plan)
    assert run.report.events_processed == WAFER_PIPELINE_EVENTS[direction]


class TestRowPartitioning:
    def test_all_strategies_are_row_partitionable(self):
        blocks = _blocks(13)
        for strategy in STRATEGIES:
            assert row_partitionable(_plan(strategy, blocks)), strategy

    def test_split_covers_every_row_and_block(self):
        plan = _plan("rows", _blocks(13))
        subs = split_rows(plan, 2)
        assert [s.partial for s in subs] == [True, True]
        for sub in subs:
            sub.validate()  # partial plans skip only the coverage check
        rows = sorted(r for sub in subs for r in {n.row for n in sub.nodes})
        assert rows == list(range(plan.rows))
        emitted = sorted(
            idx
            for sub in subs
            for node in sub.nodes
            if node.kind == "compute"
            for idx in node.blocks
        )
        assert emitted == list(range(plan.num_blocks))

    def test_row_chunks_are_deterministic_and_balanced(self):
        assert row_chunks(5, 2) == [(0, 1, 2), (3, 4)]
        assert row_chunks(2, 8) == [(0,), (1,)]
        assert row_chunks(4, 1) == [(0, 1, 2, 3)]

    def test_single_row_plan_falls_back_to_serial(self):
        blocks = _blocks(5)
        plan = plan_row_parallel(blocks, EPS, rows=1, cols=1)
        run = simulate_plan(plan, jobs=4)
        assert run.partitions == 1
        assert run.outputs.stream(5)


class TestDecompressionParallel:
    def test_wafer_decompress_parity(self):
        rng = np.random.default_rng(3)
        data = np.cumsum(rng.normal(size=6 * BLOCK_SIZE)).astype(np.float32)
        stream = (
            WSECereSZ(rows=3, cols=1, strategy="rows")
            .compress(data, eps=EPS)
            .stream
        )
        serial = WSECereSZ(rows=3, cols=1, strategy="rows")
        parallel = WSECereSZ(rows=3, cols=1, strategy="rows", jobs=2)
        out_s, rep_s = serial.decompress_on_wafer(stream)
        out_p, rep_p = parallel.decompress_on_wafer(stream)
        assert np.array_equal(out_s, out_p)
        assert rep_s.makespan_cycles == rep_p.makespan_cycles
        assert rep_s.events_processed == rep_p.events_processed
