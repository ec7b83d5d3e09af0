"""Tests for trace recording and the paper's timing aggregates."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BLOCK_SIZE
from repro.core.plan import plan_multi_pipeline
from repro.core.simulate import simulate_replicated
from repro.core.wse_compressor import WSECereSZ
from repro.obs.metrics import MetricsRegistry, collect_trace_metrics
from repro.wse.pe import ProcessingElement
from repro.wse.trace import NodeCounters, PETrace, TraceRecorder


def make_pe(row=0, col=0, compute=0, relay=0, tasks=0, finished=0.0):
    pe = ProcessingElement(row=row, col=col)
    pe.compute_cycles = compute
    pe.relay_cycles = relay
    pe.tasks_run = tasks
    pe.busy_until = finished
    return pe


class TestTraceRecorder:
    def test_makespan_is_last_pe_to_finish(self):
        rec = TraceRecorder()
        rec.record(make_pe(0, 0, finished=100.0))
        rec.record(make_pe(0, 1, finished=250.0))
        assert rec.makespan_cycles == 250.0

    def test_makespan_seconds_uses_clock(self):
        rec = TraceRecorder()
        rec.record(make_pe(finished=850.0))
        assert rec.makespan_seconds(clock_hz=850.0) == 1.0

    def test_throughput_definition(self):
        """Paper 5.1.4: original bytes / execution time."""
        rec = TraceRecorder()
        rec.record(make_pe(finished=850e6))  # exactly one second at 850 MHz
        assert rec.throughput_bytes_per_s(1024) == pytest.approx(1024)

    def test_throughput_zero_makespan_raises(self):
        rec = TraceRecorder()
        rec.record(make_pe(finished=0.0))
        with pytest.raises(ZeroDivisionError):
            rec.throughput_bytes_per_s(1)

    def test_max_compute_cycles(self):
        rec = TraceRecorder()
        rec.record(make_pe(0, 0, compute=10))
        rec.record(make_pe(0, 1, compute=99))
        assert rec.max_compute_cycles() == 99

    def test_total_relay_cycles(self):
        rec = TraceRecorder()
        rec.record(make_pe(0, 0, relay=5))
        rec.record(make_pe(0, 1, relay=7))
        assert rec.total_relay_cycles() == 12

    def test_per_row_grouping(self):
        rec = TraceRecorder()
        rec.record(make_pe(0, 0))
        rec.record(make_pe(0, 1))
        rec.record(make_pe(1, 0))
        rows = rec.per_row()
        assert len(rows[0]) == 2
        assert len(rows[1]) == 1

    def test_busiest_pe(self):
        rec = TraceRecorder()
        rec.record(make_pe(0, 0, compute=10, relay=5))
        rec.record(make_pe(0, 1, compute=8, relay=20))
        assert rec.busiest_pe().col == 1

    def test_busiest_pe_empty_raises(self):
        with pytest.raises(ValueError):
            TraceRecorder().busiest_pe()

    def test_load_imbalance_perfect(self):
        rec = TraceRecorder()
        rec.record(make_pe(0, 0, compute=100))
        rec.record(make_pe(0, 1, compute=100))
        assert rec.load_imbalance() == 1.0

    def test_load_imbalance_skewed(self):
        rec = TraceRecorder()
        rec.record(make_pe(0, 0, compute=300))
        rec.record(make_pe(0, 1, compute=100))
        assert rec.load_imbalance() == 1.5

    def test_load_imbalance_ignores_idle_pes(self):
        rec = TraceRecorder()
        rec.record(make_pe(0, 0, compute=100))
        rec.record(make_pe(0, 1, compute=0))
        assert rec.load_imbalance() == 1.0

    def test_empty_recorder_defaults(self):
        rec = TraceRecorder()
        assert rec.makespan_cycles == 0.0
        # No work anywhere means no load to be imbalanced: 0.0, which is
        # distinguishable from a genuinely perfect 1.0.
        assert rec.load_imbalance() == 0.0
        assert rec.max_compute_cycles() == 0

    def test_load_imbalance_compute_free_trace(self):
        rec = TraceRecorder()
        rec.record(make_pe(0, 0, compute=0, relay=0))
        rec.record(make_pe(0, 1, compute=0, relay=0))
        assert rec.load_imbalance() == 0.0


# -- composition by reference ------------------------------------------------------


class EagerRecorder:
    """The oracle: the eager clone loop ``merge_replica`` used to run.

    Every merged copy is built on the spot, one ``PETrace`` and one
    ``NodeCounters`` per representative row, so its sequences are what
    the by-reference recorder must produce on read.
    """

    def __init__(self):
        self.traces = []
        self.node_counters = []

    def record(self, pe):
        self.traces.append(
            PETrace(
                row=pe.row,
                col=pe.col,
                compute_cycles=pe.compute_cycles,
                relay_cycles=pe.relay_cycles,
                tasks_run=pe.tasks_run,
                finished_at=pe.busy_until,
            )
        )
        self.node_counters.extend(pe.counters)

    def merge_partition(self, rows, part):
        keep = set(rows)
        self.traces.extend(t for t in part.traces if t.row in keep)
        self.node_counters.extend(
            nc for nc in part.node_counters if nc.row in keep
        )

    def merge_replica(self, part, row_offset):
        for t in part.traces:
            self.traces.append(
                PETrace(
                    row=t.row + row_offset,
                    col=t.col,
                    compute_cycles=t.compute_cycles,
                    relay_cycles=t.relay_cycles,
                    tasks_run=t.tasks_run,
                    finished_at=t.finished_at,
                )
            )
        for nc in part.node_counters:
            row = nc.row + row_offset
            self.node_counters.append(
                NodeCounters(
                    label=f"{nc.kind}@({row},{nc.col})",
                    kind=nc.kind,
                    row=row,
                    col=nc.col,
                    blocks_relayed=nc.blocks_relayed,
                    wavelets_sent=nc.wavelets_sent,
                    blocks_emitted=nc.blocks_emitted,
                    stage_cycles=nc.stage_cycles,
                )
            )


@st.composite
def instrumented_pes(draw):
    """A finished PE with a few plan-node counters attached."""
    row, col = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    small = st.integers(0, 50)
    pe = make_pe(
        row, col, compute=draw(small), relay=draw(small),
        tasks=draw(st.integers(0, 4)), finished=float(draw(small)),
    )
    kinds = draw(
        st.lists(st.sampled_from(["compute", "relay", "sink"]), max_size=2)
    )
    pe.counters = [
        NodeCounters(
            label=f"{kind}@({row},{col})", kind=kind, row=row, col=col,
            blocks_relayed=draw(small), wavelets_sent=draw(small),
            blocks_emitted=draw(small),
            stage_cycles={"lorenzo": float(draw(small))},
        )
        for kind in kinds
    ]
    return pe


@st.composite
def recorders(draw):
    rec = TraceRecorder()
    for pe in draw(st.lists(instrumented_pes(), max_size=4)):
        rec.record(pe)
    return rec


OPS = st.one_of(
    st.tuples(st.just("record"), instrumented_pes()),
    st.tuples(
        st.just("partition"),
        st.sets(st.integers(0, 2)).map(lambda rows: tuple(sorted(rows))),
        recorders(),
    ),
    st.tuples(st.just("replica"), st.integers(0, 2), st.integers(0, 40)),
    st.tuples(st.just("read"), st.sampled_from(["traces", "node_counters"])),
)


def _assert_same_rows(rec, oracle):
    assert rec.traces == oracle.traces
    assert rec.node_counters == oracle.node_counters
    # Every copy shares its representative's stage_cycles dict.
    assert all(
        a.stage_cycles is b.stage_cycles
        for a, b in zip(rec.node_counters, oracle.node_counters)
    )


def _aggregates(trace):
    """Every coordinate-free aggregate of ``trace``."""
    metrics = MetricsRegistry()
    collect_trace_metrics(metrics, trace)
    return {
        "makespan": trace.makespan_cycles,
        "imbalance": trace.load_imbalance(),
        "max_compute": trace.max_compute_cycles(),
        "relay": trace.total_relay_cycles(),
        "relayed": trace.total_blocks_relayed(),
        "wavelets": trace.total_wavelets_sent(),
        "stages": trace.stage_cycle_totals(),
        "steps": trace.step_cycle_totals(),
        "metrics": metrics.snapshot(),
    }


def _count_inits(monkeypatch, *classes):
    counts = dict.fromkeys(classes, 0)
    for cls in classes:
        def counting(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            counts[_cls] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


class TestCompositionByReference:
    @settings(max_examples=150, deadline=None)
    @given(
        reps=st.lists(recorders(), min_size=1, max_size=3),
        ops=st.lists(OPS, max_size=12),
    )
    def test_rows_match_eager_oracle(self, reps, ops):
        rec, oracle = TraceRecorder(), EagerRecorder()
        for op in ops:
            if op[0] == "record":
                rec.record(op[1])
                oracle.record(op[1])
            elif op[0] == "partition":
                rec.merge_partition(op[1], op[2])
                oracle.merge_partition(op[1], op[2])
            elif op[0] == "replica":
                part = reps[op[1] % len(reps)]
                rec.merge_replica(part, op[2])
                oracle.merge_replica(part, op[2])
            else:
                assert getattr(rec, op[1]) == getattr(oracle, op[1])
        in_place = _aggregates(rec)
        _assert_same_rows(rec, oracle)
        assert _aggregates(rec) == in_place

    def test_pending_replicas_pickle(self):
        rep = TraceRecorder()
        for col in range(3):
            pe = make_pe(0, col, compute=10 + col, finished=5.0 * col)
            pe.counters = [
                NodeCounters(
                    label=f"compute@(0,{col})", kind="compute", row=0,
                    col=col, stage_cycles={"lorenzo": 1.0 + col},
                )
            ]
            rep.record(pe)
        rec = TraceRecorder()
        for k in range(4):
            rec.merge_replica(rep, k)
        rec.events_processed = 12
        clone = pickle.loads(pickle.dumps(rec))
        assert clone.events_processed == 12
        assert clone.traces == rec.traces
        assert clone.node_counters == rec.node_counters
        assert [nc.label for nc in clone.node_counters][-3:] == [
            "compute@(3,0)", "compute@(3,1)", "compute@(3,2)"
        ]
        # The pickle memo keeps the copies sharing one dict per node.
        assert clone.node_counters[0].stage_cycles is (
            clone.node_counters[3].stage_cycles
        )

    def test_simulate_replicated_builds_rows_on_first_read(
        self, monkeypatch
    ):
        rng = np.random.default_rng(3)
        blocks = rng.normal(size=(4, BLOCK_SIZE)).cumsum(axis=1)
        template = plan_multi_pipeline(blocks, 0.01, rows=1, cols=4)
        counts = _count_inits(monkeypatch, PETrace, NodeCounters)
        one = simulate_replicated(template, 1)
        per_run = dict(counts)
        run = simulate_replicated(template, 64)
        # Composing 64 copies costs what composing one does: nothing is
        # built per replica until somebody reads the rows.
        assert counts == {cls: 2 * n for cls, n in per_run.items()}
        traces = run.report.trace.traces
        counters = run.report.trace.node_counters
        assert len(traces) == 64 * template.cols
        assert [t.row for t in traces] == [
            row for row in range(64) for _ in range(template.cols)
        ]
        assert counts[PETrace] == 2 * per_run[PETrace] + 64 * template.cols
        assert len(counters) == 64 * len(one.report.trace.node_counters)

    def test_aggregates_read_replicas_in_place(self, monkeypatch):
        """A tiled hybrid run answers every coordinate-free aggregate from
        the representative's rows, exactly, without building a replica."""
        rng = np.random.default_rng(5)
        row = np.cumsum(rng.normal(size=4 * BLOCK_SIZE)).astype(np.float32)
        sim = WSECereSZ(rows=6, cols=4, strategy="multi", mode="hybrid")
        trace = sim.compress(row, rel=1e-3, tile_rows=True).report.trace
        counts = _count_inits(monkeypatch, PETrace, NodeCounters)
        in_place = _aggregates(trace)
        assert counts == {PETrace: 0, NodeCounters: 0}
        assert len(trace.traces) == 6 * 4  # the oracle: materialized rows
        assert counts[PETrace] > 0
        assert _aggregates(trace) == in_place
