"""Hybrid (hierarchical) simulation equivalence.

``simulate_plan(mode="hybrid")`` event-simulates one representative row
per partition class and composes the member rows analytically. That is
only admissible because it is *exact*: every observable — compressed
bytes, makespan, per-PE traces, per-node counters, metrics, timelines —
must match the full event-driven run bit for bit. These tests sweep the
paper's figure configurations (Fig 7 row scaling, Fig 13 pipeline
lengths, Fig 14 mesh sizes) plus heterogeneous remainders, and pin the
class-detection machinery (fingerprints, partition classes, replication)
with unit tests.
"""

import numpy as np
import pytest

from repro.config import BLOCK_SIZE
from repro.core.plan import (
    partition_classes,
    plan_multi_pipeline,
    plan_pipeline,
    plan_row_parallel,
    plan_staged_multi_pipeline,
    replicate_rows,
    row_fingerprints,
    row_subplan,
    tile_rows,
)
from repro.core.schedule import distribute_substages
from repro.core.simulate import simulate_plan, simulate_replicated
from repro.core.stages import compression_substages
from repro.core.wse_compressor import WSECereSZ
from repro.errors import ScheduleError
from repro.faults import FaultPlan, PEHalt
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer

EPS = 0.01


def _blocks(num_blocks: int, seed: int = 11) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(num_blocks, BLOCK_SIZE)).cumsum(axis=1)


def _distribution(length: int):
    return distribute_substages(
        compression_substages(8, BLOCK_SIZE), length
    )


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


#: (id, plan builder, block count). The matrix mirrors the paper's
#: sweeps: Fig 7 scales rows (``rows`` strategy), Fig 13 scales pipeline
#: length, Fig 14 scales the mesh. Ragged block counts exercise
#: heterogeneous remainders (rows whose last round differs).
CONFIGS = [
    # Fig 7: row scaling.
    ("fig7-rows2", lambda b: plan_row_parallel(b, EPS, rows=2, cols=1), 13),
    ("fig7-rows3", lambda b: plan_row_parallel(b, EPS, rows=3, cols=1), 12),
    ("fig7-rows5", lambda b: plan_row_parallel(b, EPS, rows=5, cols=1), 17),
    # Fig 13: pipeline lengths.
    (
        "fig13-pl2",
        lambda b: plan_pipeline(b, EPS, _distribution(2), rows=3, cols=2),
        13,
    ),
    (
        "fig13-pl3",
        lambda b: plan_pipeline(b, EPS, _distribution(3), rows=2, cols=3),
        9,
    ),
    (
        "fig13-staged2",
        lambda b: plan_staged_multi_pipeline(
            b, EPS, _distribution(2), rows=2, cols=4
        ),
        13,
    ),
    # Fig 14: mesh sizes.
    ("fig14-2x3", lambda b: plan_multi_pipeline(b, EPS, rows=2, cols=3), 13),
    ("fig14-3x4", lambda b: plan_multi_pipeline(b, EPS, rows=3, cols=4), 26),
    ("fig14-4x4", lambda b: plan_multi_pipeline(b, EPS, rows=4, cols=4), 64),
]

CONFIG_IDS = [c[0] for c in CONFIGS]


@pytest.mark.parametrize(
    ("build", "num_blocks"),
    [(c[1], c[2]) for c in CONFIGS],
    ids=CONFIG_IDS,
)
class TestHybridMatchesEvent:
    def test_cycle_exact(self, build, num_blocks):
        blocks = _blocks(num_blocks)
        event = simulate_plan(build(blocks))
        hybrid = simulate_plan(build(blocks), mode="hybrid")
        assert event.mode == "event"
        assert hybrid.mode == "hybrid"
        assert hybrid.row_classes  # detection actually ran
        assert event.outputs.stream(num_blocks) == hybrid.outputs.stream(
            num_blocks
        )
        assert (
            event.report.makespan_cycles == hybrid.report.makespan_cycles
        )
        assert (
            event.report.events_processed
            == hybrid.report.events_processed
        )
        assert event.report.tasks_run == hybrid.report.tasks_run
        assert _trace_rows(event.report.trace) == _trace_rows(
            hybrid.report.trace
        )
        assert _counter_rows(event.report.trace) == _counter_rows(
            hybrid.report.trace
        )

    def test_metrics_match(self, build, num_blocks):
        blocks = _blocks(num_blocks)
        m_event, m_hybrid = MetricsRegistry(), MetricsRegistry()
        simulate_plan(build(blocks), metrics=m_event)
        simulate_plan(build(blocks), mode="hybrid", metrics=m_hybrid)
        assert m_event.counter_totals() == m_hybrid.counter_totals()
        for metric in m_event:
            if metric.kind in ("counter", "histogram"):
                assert (
                    metric.values == m_hybrid.get(metric.name).values
                ), metric.name

    def test_timeline_multiset_matches(self, build, num_blocks):
        """Composition walks classes, not rows, so event *order* may
        differ from the serial row-major capture; the event multiset is
        identical (same PEs, same tasks, same cycles)."""
        blocks = _blocks(num_blocks)
        t_event = Tracer(level="timeline")
        t_hybrid = Tracer(level="timeline")
        simulate_plan(build(blocks), tracer=t_event)
        simulate_plan(build(blocks), mode="hybrid", tracer=t_hybrid)
        assert sorted(
            (e.row, e.col, e.name, e.start_cycles, e.dur_cycles)
            for e in t_event.pe_events
        ) == sorted(
            (e.row, e.col, e.name, e.start_cycles, e.dur_cycles)
            for e in t_hybrid.pe_events
        )

    def test_jobs_auto_is_equivalent(self, build, num_blocks):
        blocks = _blocks(num_blocks)
        one = simulate_plan(build(blocks), mode="hybrid", jobs=1)
        auto = simulate_plan(build(blocks), mode="hybrid", jobs="auto")
        assert one.outputs.stream(num_blocks) == auto.outputs.stream(
            num_blocks
        )
        assert (
            one.report.makespan_cycles == auto.report.makespan_cycles
        )


@pytest.mark.parametrize("predictor", ["lorenzo1d", "regression"])
def test_hybrid_exact_per_predictor(predictor):
    blocks = _blocks(13)
    event = simulate_plan(
        plan_multi_pipeline(blocks, EPS, rows=3, cols=2, predictor=predictor)
    )
    hybrid = simulate_plan(
        plan_multi_pipeline(blocks, EPS, rows=3, cols=2, predictor=predictor),
        mode="hybrid",
    )
    assert event.outputs.stream(13) == hybrid.outputs.stream(13)
    assert event.report.makespan_cycles == hybrid.report.makespan_cycles


class TestPartitionClasses:
    def test_homogeneous_rows_collapse_to_one_class(self):
        row_blocks = _blocks(4)
        blocks = tile_rows(row_blocks, 3, "multi", cols=4)
        plan = plan_multi_pipeline(blocks, EPS, rows=3, cols=4)
        assert partition_classes(plan) == [(0, (0, 1, 2))]

    def test_heterogeneous_remainder_splits_classes(self):
        """13 blocks over 3 rows ('rows' strategy): rows 0 carries 5
        blocks, rows 1-2 carry 4 — but with *distinct random data* every
        row is its own class; with row-identical data only the
        block-count difference splits them."""
        ragged = plan_row_parallel(_blocks(13), EPS, rows=3, cols=1)
        assert partition_classes(ragged) == [
            (0, (0,)), (1, (1,)), (2, (2,)),
        ]
        # Same data in every row, but row 0 owns one extra block: the
        # remainder row is structurally different, the rest collapse.
        row = _blocks(4)[0]
        blocks = np.tile(row, (13, 1))
        plan = plan_row_parallel(blocks, EPS, rows=3, cols=1)
        classes = partition_classes(plan)
        assert classes == [(0, (0,)), (1, (1, 2))]

    def test_fingerprint_sensitive_to_feed_values(self):
        row_blocks = _blocks(4)
        blocks = tile_rows(row_blocks, 3, "multi", cols=4)
        perturbed = blocks.copy()
        perturbed[4, 0] += 1.0  # one value in row 1's first block
        base = row_fingerprints(
            plan_multi_pipeline(blocks, EPS, rows=3, cols=4)
        )
        moved = row_fingerprints(
            plan_multi_pipeline(perturbed, EPS, rows=3, cols=4)
        )
        assert base[0] == base[1] == base[2]
        assert moved[0] == moved[2] == base[0]
        assert moved[1] != base[1]

    def test_fingerprint_sensitive_to_eps(self):
        blocks = tile_rows(_blocks(4), 2, "multi", cols=4)
        a = row_fingerprints(plan_multi_pipeline(blocks, EPS, rows=2, cols=4))
        b = row_fingerprints(
            plan_multi_pipeline(blocks, EPS * 2, rows=2, cols=4)
        )
        assert a[0] != b[0]

    def test_row_subplan_requires_partitionable(self):
        plan = plan_multi_pipeline(_blocks(8), EPS, rows=2, cols=4)
        with pytest.raises(ScheduleError):
            row_subplan(plan, 5)


class TestReplication:
    @pytest.mark.parametrize("strategy", ["rows", "pipeline", "multi"])
    def test_simulate_replicated_matches_materialized(self, strategy):
        row_blocks = _blocks(4, seed=3)
        if strategy == "rows":
            template = plan_row_parallel(row_blocks, EPS, rows=1, cols=1)
        elif strategy == "pipeline":
            template = plan_pipeline(
                row_blocks, EPS, _distribution(2), rows=1, cols=2
            )
        else:
            template = plan_multi_pipeline(row_blocks, EPS, rows=1, cols=4)
        copies = 4
        fast = simulate_replicated(template, copies)
        materialized = simulate_plan(replicate_rows(template, copies))
        n = row_blocks.shape[0] * copies
        assert fast.outputs.stream(n) == materialized.outputs.stream(n)
        assert (
            fast.report.makespan_cycles
            == materialized.report.makespan_cycles
        )
        assert (
            fast.report.events_processed
            == materialized.report.events_processed
        )
        assert fast.report.tasks_run == materialized.report.tasks_run
        assert _trace_rows(fast.report.trace) == _trace_rows(
            materialized.report.trace
        )
        assert _counter_rows(fast.report.trace) == _counter_rows(
            materialized.report.trace
        )

    @pytest.mark.parametrize("mode", ["replicated", "hybrid"])
    def test_composer_checks_the_representative_emitted_blocks(
        self, mode, monkeypatch
    ):
        """Both composition paths refuse a representative that lost a
        block, instead of composing a stream with holes."""
        import repro.core.simulate as simulate

        real = simulate._simulate_one

        def lossy(*args):
            outputs, report, fabric, engine = real(*args)
            outputs.records.pop(min(outputs.records))
            return outputs, report, fabric, engine

        monkeypatch.setattr(simulate, "_simulate_one", lossy)
        template = plan_multi_pipeline(_blocks(4), EPS, rows=1, cols=4)
        with pytest.raises(ScheduleError, match="emitted blocks"):
            if mode == "replicated":
                simulate_replicated(template, 3)
            else:
                simulate_plan(replicate_rows(template, 3), mode="hybrid")

    def test_replicate_rows_rejects_bad_input(self):
        template = plan_multi_pipeline(_blocks(4), EPS, rows=1, cols=4)
        with pytest.raises(ScheduleError):
            replicate_rows(template, 0)

    def test_tile_rows_needs_whole_rounds(self):
        with pytest.raises(ScheduleError):
            tile_rows(_blocks(5), 3, "multi", cols=4)


class TestHybridFallbacks:
    def test_faults_fall_back_to_event(self):
        """Faults target specific rows; replication cannot honor them, so
        the hybrid request silently runs the event engine (and records
        that it did)."""
        blocks = tile_rows(_blocks(4), 3, "multi", cols=4)
        plan = plan_multi_pipeline(blocks, EPS, rows=3, cols=4)
        # A halt far past the makespan: injected but never fires.
        faults = FaultPlan(
            seed=1, faults=(PEHalt(row=1, col=0, at_cycle=10**9),)
        )
        run = simulate_plan(plan, mode="hybrid", faults=faults)
        assert run.mode == "event"
        assert run.row_classes == ()

    def test_single_row_falls_back_to_event(self):
        plan = plan_multi_pipeline(_blocks(4), EPS, rows=1, cols=4)
        run = simulate_plan(plan, mode="hybrid")
        assert run.mode == "event"

    def test_unknown_mode_rejected(self):
        plan = plan_multi_pipeline(_blocks(4), EPS, rows=2, cols=2)
        with pytest.raises(ValueError):
            simulate_plan(plan, mode="analytic")


class TestWSECompressorHybrid:
    def test_hybrid_stream_matches_event(self):
        data = np.cumsum(
            np.random.default_rng(5).normal(size=512)
        ).astype(np.float32)
        ev = WSECereSZ(rows=4, cols=4, mode="event").compress(
            data, rel=1e-3
        )
        hy = WSECereSZ(rows=4, cols=4, mode="hybrid").compress(
            data, rel=1e-3
        )
        assert hy.mode == "hybrid"
        assert ev.stream == hy.stream
        assert ev.makespan_cycles == hy.makespan_cycles

    @pytest.mark.parametrize("strategy", ["rows", "pipeline", "multi"])
    def test_tiled_stream_matches_reference(self, strategy):
        """``tile_rows=True`` treats the input as one row's data; the
        composed stream is byte-identical to the reference CereSZ
        compressing the row repeated across every row."""
        from repro.core.compressor import CereSZ

        rows, cols = 3, 4
        row = (
            np.random.default_rng(7)
            .normal(size=cols * BLOCK_SIZE)
            .astype(np.float32)
        )
        kwargs = dict(rows=rows, cols=cols, strategy=strategy, mode="hybrid")
        if strategy == "pipeline":
            kwargs["pipeline_length"] = 2
        result = WSECereSZ(**kwargs).compress(row, rel=1e-3, tile_rows=True)
        reference = CereSZ().compress(np.tile(row, rows), rel=1e-3)
        assert result.stream == reference.stream
        assert result.mode == "hybrid"
        assert result.row_classes == ((0, rows),)

    def test_hybrid_decompress_on_wafer(self):
        data = np.cumsum(
            np.random.default_rng(9).normal(size=512)
        ).astype(np.float32)
        codec = WSECereSZ(rows=4, cols=1, strategy="rows", mode="hybrid")
        stream = codec.compress(data, rel=1e-3).stream
        values, report = codec.decompress_on_wafer(stream)
        reference = WSECereSZ(
            rows=4, cols=1, strategy="rows", mode="event"
        ).decompress_on_wafer(stream)
        assert np.array_equal(values, reference[0])
        assert (
            report.makespan_cycles == reference[1].makespan_cycles
        )
