"""Composed outputs by reference: exact against the runs they replace.

A composed wafer run (:func:`repro.core.simulate.simulate_replicated`,
``simulate_plan(mode="hybrid")``) keeps each representative's records or
decoded blocks once, with every copy's block indices; a replicated
stream tiles them, and every other read builds the full mapping. These tests hold that composition to the event
engine run over the materialized plan, in both directions: stream bytes,
assembled bits, the ``records``/``blocks`` dicts, reports and traces.
"""

import numpy as np
import pytest

from repro import CereSZ
from repro.config import BLOCK_SIZE
from repro.core.format import StreamHeader
from repro.core.mapping_decompress import records_to_words
from repro.core.plan import (
    partition_classes,
    plan_multi_pipeline,
    plan_pipeline,
    plan_pipeline_decompress,
    plan_row_parallel,
    plan_row_parallel_decompress,
    replicate_rows,
)
from repro.core.schedule import distribute_substages
from repro.core.simulate import simulate_plan, simulate_replicated
from repro.core.stages import compression_substages, decompression_substages
from tests.core.test_simulate_hybrid import EPS, _counter_rows, _trace_rows


def _assert_same_report(fast, materialized):
    assert fast.report.makespan_cycles == materialized.report.makespan_cycles
    assert (
        fast.report.events_processed == materialized.report.events_processed
    )
    assert fast.report.tasks_run == materialized.report.tasks_run
    assert _trace_rows(fast.report.trace) == _trace_rows(
        materialized.report.trace
    )
    assert _counter_rows(fast.report.trace) == _counter_rows(
        materialized.report.trace
    )


def _assert_same_outputs(fast, materialized, plan):
    """Stream or assembly first (a read of pending copies), then the
    full dicts."""
    n = plan.num_blocks
    if plan.direction == "compress":
        assert fast.outputs.stream(n) == materialized.outputs.stream(n)
        assert fast.outputs.records == materialized.outputs.records
        return
    got = fast.outputs.assemble(n, plan.block_size)
    want = materialized.outputs.assemble(n, plan.block_size)
    assert got.tobytes() == want.tobytes()
    blocks, want_blocks = fast.outputs.blocks, materialized.outputs.blocks
    assert sorted(blocks) == sorted(want_blocks)
    assert all(
        blocks[i].tobytes() == want_blocks[i].tobytes() for i in want_blocks
    )


def _classed_blocks(strategy, rows, cols, per_row, classes, seed=3):
    """Blocks whose row ``r`` carries the data of class ``r % classes``.

    ``rows``/``pipeline`` plans deal block ``i`` to row ``i % rows``;
    ``multi`` plans go round-major, then row-major over ``cols`` slots.
    """
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(classes, per_row, BLOCK_SIZE)).cumsum(axis=-1)
    data[0, 0] = 0.0  # a zero block: a header-only record
    by_row = data[np.arange(rows) % classes]
    if strategy == "multi":
        by_row = by_row.reshape(rows, per_row // cols, cols, BLOCK_SIZE)
        return by_row.transpose(1, 0, 2, 3).reshape(-1, BLOCK_SIZE)
    return by_row.transpose(1, 0, 2).reshape(-1, BLOCK_SIZE)


def _compress_plan(strategy, blocks, rows, cols):
    if strategy == "rows":
        return plan_row_parallel(blocks, EPS, rows=rows, cols=1)
    if strategy == "pipeline":
        stages = compression_substages(8, BLOCK_SIZE)
        return plan_pipeline(
            blocks, EPS, distribute_substages(stages, 2), rows=rows, cols=2
        )
    return plan_multi_pipeline(blocks, EPS, rows=rows, cols=cols)


def _decode_plan(strategy, blocks, rows, cols):
    """A v1 stream of ``blocks`` split into a ``rows``-row decode plan."""
    values = blocks.astype(np.float32).reshape(-1)
    stream = CereSZ().compress(values, rel=1e-3, index=False).stream
    header, offset = StreamHeader.unpack(stream)
    body, n, bs = stream[offset:], header.num_blocks, header.block_size
    if strategy == "rows":
        return plan_row_parallel_decompress(
            body, n, header.eps, rows=rows, cols=cols, block_size=bs
        )
    packed = records_to_words(body, n, bs)
    stages = decompression_substages(max(int(h[0]) for h, _ in packed), bs)
    return plan_pipeline_decompress(
        body, n, header.eps, distribute_substages(stages, 2), rows=rows,
        cols=cols, block_size=bs, records=packed,
    )


class TestReplicatedDecode:
    @pytest.mark.parametrize("strategy", ["rows", "pipeline"])
    def test_simulate_replicated_matches_materialized(self, strategy):
        template = _decode_plan(
            strategy, _classed_blocks("rows", 1, 1, 4, 1), rows=1, cols=2
        )
        full = replicate_rows(template, 4)
        fast = simulate_replicated(template, 4)
        materialized = simulate_plan(full)
        _assert_same_outputs(fast, materialized, full)
        _assert_same_report(fast, materialized)


class TestReplicatedRecords:
    @pytest.mark.parametrize("strategy", ["rows", "pipeline", "multi"])
    def test_records_equal_the_materialized_run(self, strategy):
        blocks = _classed_blocks(strategy, 1, 4, 4, 1)
        template = _compress_plan(strategy, blocks, rows=1, cols=4)
        full = replicate_rows(template, 3)
        fast = simulate_replicated(template, 3)
        materialized = simulate_plan(full)
        _assert_same_outputs(fast, materialized, full)
        _assert_same_report(fast, materialized)

    def test_wafer_height_composes_no_per_block_mapping(self):
        """750 copies keep the template's records once: no mapping with an
        entry per block exists until ``records`` is read."""
        blocks = _classed_blocks("multi", 1, 4, 4, 1)
        template = plan_multi_pipeline(blocks, EPS, rows=1, cols=4)
        one = simulate_replicated(template, 1)
        run = simulate_replicated(template, 750)
        n = template.num_blocks
        held = [v for v in vars(run.outputs).values() if isinstance(v, dict)]
        assert all(len(v) <= n for v in held)
        assert run.outputs.stream(750 * n) == one.outputs.stream(n) * 750
        assert len(run.outputs.records) == 750 * n


#: Decompression maps the rows and pipeline strategies only.
HYBRID_CASES = [
    ("compress", "rows"), ("compress", "pipeline"), ("compress", "multi"),
    ("decompress", "rows"), ("decompress", "pipeline"),
]


@pytest.mark.parametrize(("direction", "strategy"), HYBRID_CASES)
@pytest.mark.parametrize("classes", [1, 2, 3, 4])
def test_hybrid_matches_event(direction, strategy, classes):
    """Hybrid runs with 1-4 row classes equal the event run in every
    output and trace. A ``rows`` or ``pipeline`` row interleaves its
    blocks (row r emits r, r + 4, ...); a ``multi`` row emits one run."""
    rows, cols = 4, 4
    blocks = _classed_blocks(strategy, rows, cols, 4, classes)
    if direction == "compress":
        plan = _compress_plan(strategy, blocks, rows, cols)
    else:
        plan = _decode_plan(strategy, blocks, rows, cols)
    assert len(partition_classes(plan)) == classes
    hybrid = simulate_plan(plan, mode="hybrid")
    event = simulate_plan(plan)
    assert hybrid.mode == "hybrid"
    _assert_same_outputs(hybrid, event, plan)
    _assert_same_report(hybrid, event)
