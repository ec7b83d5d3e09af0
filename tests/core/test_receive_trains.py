"""Receive trains: Algorithm 1's stage loop against its queued oracle.

A stage PE's receive, group kernel and re-arm is one engine primitive
(``mov32(mem1d, fabin, on_complete=go, count=k)``). A ready PE takes whole
runs of handed or fed blocks (committing a row-vectorized kernel's run in
one pass); every other block, and every run with a fault injector,
takes the queued path — the events a re-arming receive task would cost.
Under the never-firing fault plan every per-PE result must therefore equal
the clean run: only the engine's event count may differ. The queued path
itself is checked against the re-arming receive task it replaces, on a
hand-built stage.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.wse.engine as engine_module
from repro.core.lower import _make_fused_group, _make_stepped_group
from repro.core.lower import host_block_records
from repro.core.mapping import ProgramOutputs
from repro.core.plan import (
    plan_pipeline,
    plan_pipeline_decompress,
    plan_row_parallel,
    plan_row_parallel_decompress,
)
from repro.core.schedule import distribute_substages
from repro.core.stages import compression_substages, decompression_substages
from repro.errors import TaskError
from repro.obs.tracing import Tracer
from repro.wse.color import ColorAllocator
from repro.wse.cost import PAPER_CYCLE_MODEL
from repro.wse.dsd import FabinDsd, FaboutDsd, Mem1dDsd
from repro.wse.engine import Engine
from repro.wse.fabric import Fabric
from repro.wse.pe import Task, TaskContext
from repro.wse.trace import NodeCounters
from repro.wse.wavelet import Direction
from tests.core.test_fused_groups import (
    _block,
    _compress_hop,
    _compress_plan,
    _outcome,
)
from tests.core.test_relay_trains import EPS, NEVER, _plan as _relay_plan
from tests.core.test_relay_trains import _run


def _blocks(n: int, block_size: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, block_size)).cumsum(axis=1)


def _pipeline(blocks, rows, cols, length, *, decode=False):
    """Algorithm 1 pipelines over ``blocks``, compressing or decoding their
    wafer records."""
    n, block_size = blocks.shape
    if not decode:
        dist = distribute_substages(
            compression_substages(8, block_size), length
        )
        return plan_pipeline(blocks, EPS, dist, rows=rows, cols=cols)
    records = host_block_records(blocks, EPS, range(n))
    body = b"".join(records[i] for i in range(n))
    max_fl = max(int.from_bytes(r[:4], "little") for r in records.values())
    dist = distribute_substages(
        decompression_substages(max_fl, block_size), length
    )
    return plan_pipeline_decompress(
        body, n, EPS, dist, rows=rows, cols=cols, block_size=block_size
    )


def _rows(blocks, rows, *, decode=False):
    n, block_size = blocks.shape
    if not decode:
        return plan_row_parallel(blocks, EPS, rows=rows, cols=1)
    records = host_block_records(blocks, EPS, range(n))
    body = b"".join(records[i] for i in range(n))
    return plan_row_parallel_decompress(
        body, n, EPS, rows=rows, cols=1, block_size=block_size
    )


def _same(make_plan, *, sample_every: int = 1):
    """The clean run equals the never-firing-fault run; returns both event
    counts."""
    clean, clean_events = _run(make_plan(), sample_every=sample_every)
    queued, queued_events = _run(make_plan(), NEVER, sample_every=sample_every)
    assert clean == queued
    return clean_events, queued_events


#: (rows, cols, pipeline length) of the pipeline meshes.
PIPELINES = [(1, 4, 4), (2, 3, 3), (2, 8, 8), (3, 6, 3)]


@pytest.mark.parametrize("sample_every", [1, 3])
@pytest.mark.parametrize("block_size", [32, 64])
@pytest.mark.parametrize("per_row", [1, 2, 7])
@pytest.mark.parametrize("mesh", PIPELINES)
@pytest.mark.parametrize("decode", [False, True])
def test_pipelines_match_the_queued_oracle(
    decode, mesh, per_row, block_size, sample_every
):
    rows, cols, length = mesh
    # One block short of full rounds leaves the last row a block short.
    blocks = _blocks(rows * per_row - (rows > 1), block_size, per_row + cols)
    clean, queued = _same(
        lambda: _pipeline(blocks, rows, cols, length, decode=decode),
        sample_every=sample_every,
    )
    if per_row > 1:
        assert clean < queued
    else:  # a PE with one block posts a single receive, no train
        assert clean == queued


@pytest.mark.parametrize("sample_every", [1, 3])
@pytest.mark.parametrize("block_size", [32, 64])
@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("decode", [False, True])
def test_rows_match_the_queued_oracle(decode, rows, block_size, sample_every):
    blocks = _blocks(4 * rows + 1, block_size, rows)
    clean, queued = _same(
        lambda: _rows(blocks, rows, decode=decode), sample_every=sample_every
    )
    # Decode too: the head's two-phase header/body receive is a record
    # train, which takes each row's whole feed in one event.
    assert clean < queued


def _mixed_blocks(n: int, block_size: int, rows: int, zeros: str):
    """Random walks whose records mix dense blocks with header-only zero
    blocks: ``"row"`` zeroes every block of row 0 (with one row, every
    other block), ``"all"`` every block."""
    blocks = _blocks(n, block_size, n + rows)
    if zeros == "all":
        blocks[:] = 0.0
    else:
        blocks[:: rows if rows > 1 else 2] = 0.0
    return blocks


@pytest.mark.parametrize("sample_every", [1, 3])
@pytest.mark.parametrize("block_size", [32, 64])
@pytest.mark.parametrize("zeros", ["row", "all"])
@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("strategy", ["rows", "pipeline"])
def test_decode_of_zero_and_dense_records_matches_the_queued_oracle(
    strategy, rows, zeros, block_size, sample_every
):
    """Each head's record train takes its row's header-only and
    header-and-body records in one run; the last row is a record short."""
    blocks = _mixed_blocks(5 * rows - (rows > 1), block_size, rows, zeros)
    if strategy == "rows":
        clean, queued = _same(
            lambda: _rows(blocks, rows, decode=True),
            sample_every=sample_every,
        )
    else:
        clean, queued = _same(
            lambda: _pipeline(blocks, rows, 4, 3, decode=True),
            sample_every=sample_every,
        )
    assert clean < queued


@pytest.mark.parametrize("sample_every", [1, 3])
@pytest.mark.parametrize("rounds", [1, 3])
@pytest.mark.parametrize("mesh", ["multi", "staged", "staged-3"])
def test_relay_plans_match_the_queued_oracle(mesh, rounds, sample_every):
    """Multi and staged plans post no receive train (their stage PEs keep a
    relay duty) and still match their oracle."""
    _same(lambda: _relay_plan(mesh, rounds, 32), sample_every=sample_every)


@settings(max_examples=30, deadline=None)
@given(
    decode=st.booleans(),
    rows=st.integers(1, 3),
    length=st.integers(2, 6),
    extra_cols=st.integers(0, 2),
    n=st.integers(1, 40),
    block_size=st.sampled_from([32, 64]),
    seed=st.integers(0, 2**16),
)
def test_random_pipelines_match_the_queued_oracle(
    decode, rows, length, extra_cols, n, block_size, seed
):
    blocks = _blocks(n, block_size, seed)
    clean, queued = _same(
        lambda: _pipeline(
            blocks, rows, length + extra_cols, length, decode=decode
        )
    )
    assert clean <= queued


def test_wafer_pipeline_runs_whole_rows_in_one_event():
    """A 16x16 L=8 pipeline (the wafer-pipeline shape) at 32 blocks per
    row, in both directions: each row's 32 edge-fed blocks, or records,
    travel the 8 PEs as one run."""
    blocks = _blocks(16 * 32, 32, 5)
    # 128 PEs x (activate + task) to post their trains, then one feed event
    # per row. Queued, each block pays six events at each stage PE:
    # deliver, match, activate and task for the go task, activate and task
    # for the receive (the first block's is the posting task). The decode
    # head pays ten a record: deliver, match, activate and task for the
    # header and for the body (every record here has one), then the
    # re-post's activate and task.
    for decode, queued_events in ((False, 8 * 6), (True, 10 + 7 * 6)):
        clean, queued = _same(
            lambda: _pipeline(blocks, 16, 16, 8, decode=decode)
        )
        assert clean == 16 * 8 * 2 + 16
        assert queued == 16 * 32 * queued_events


def test_wafer_pipeline_commits_whole_runs_without_task_contexts(
    monkeypatch,
):
    """The same 16x16 L=8 shape: a ready run's rows are committed by the
    engine in one pass, so only tasks that run a body through a context
    build one. Those are the 128 PEs' posting tasks, and in decode the
    head's ``on_header`` task of each of the 512 records (every one has a
    body here). The per-block path built one per block-stage: 128 + 16 x
    32 x 8 = 4,224 in compress, and 128 + 16 x 32 x (7 + 2) = 4,736 in
    decode (seven stage PEs, and the head's header and body tasks)."""
    built = []

    class Counted(TaskContext):
        def __init__(self, engine, pe, now):
            built.append(pe.coord)
            super().__init__(engine, pe, now)

    monkeypatch.setattr(engine_module, "TaskContext", Counted)
    blocks = _blocks(16 * 32, 32, 5)
    records = host_block_records(blocks, EPS, range(len(blocks)))
    assert all(record[:4] != bytes(4) for record in records.values())
    for decode, contexts in ((False, 16 * 8), (True, 16 * 8 + 16 * 32)):
        built.clear()
        _run(_pipeline(blocks, 16, 16, 8, decode=decode))
        assert len(built) == contexts


# --- failures inside a ready run --------------------------------------------


def _states(fls, split: int, corrupt: int | None = None):
    """Pipeline states of blocks with fixed lengths ``fls`` after the first
    ``split`` compression sub-stages (8 planned bits, 32-value blocks);
    state ``corrupt`` gets the phase word of a raw block."""
    head = tuple(compression_substages(8, 32)[:split])
    plan = _compress_plan(32, 8)
    vecs = [
        _outcome(
            _compress_hop, _make_stepped_group, head, _block(32, fl, fl),
            True, False, plan,
        )[1]
        for fl in fls
    ]
    if corrupt is not None:
        vecs[corrupt][0] = 0.0  # "raw": no sign bytes, nothing to shuffle
    return vecs


def _fed_stage(vecs, group, *, forward: bool, tx_short: bool, faults=None):
    """A receive-train stage PE at (0,0) fed ``vecs`` from the west edge,
    running the fused ``group`` kernel: a tail that stores records, or
    (``forward``) a stage that forwards each state to a sink at (0,1).
    ``tx_short`` leaves one byte less free SRAM than a forwarded state
    needs. Returns the error the run raised and the stage's state then."""
    fabric = Fabric(1, 2)
    tracer = Tracer(level="timeline")
    engine = Engine(fabric, tracer=tracer, faults=faults)
    colors = ColorAllocator()
    c_x, c_y, c_go, c_sink, c_got = (
        colors.allocate(n) for n in ("x", "y", "go", "sink", "got")
    )
    fabric.set_route(0, 0, c_x, Direction.WEST, Direction.RAMP)
    fabric.route_row_segment(0, 0, 1, c_y)
    stage, sink = fabric.pe(0, 0), fabric.pe(0, 1)
    plan = _compress_plan(32, 8)
    stage.alloc_buffer("stage_in", np.zeros(plan.state_len))
    sink.alloc_buffer("in", np.zeros(plan.state_len))
    outputs, box = ProgramOutputs(), {"done": 0}
    nc = NodeCounters("stage", "stage", 0, 0)
    body, run = _make_fused_group(
        group, "stage_in", False, c_y if forward else None,
        list(range(len(vecs))), box, plan, PAPER_CYCLE_MODEL, outputs, nc,
        True,
    )
    stage_in = Mem1dDsd("stage_in")
    fabin = FabinDsd(c_x, extent=plan.state_len)
    stage.bind_task(
        c_x,
        Task(
            "recv",
            lambda ctx: ctx.mov32(
                stage_in, fabin, on_complete=c_go, count=len(vecs)
            ),
        ),
    )
    stage.bind_task(c_go, Task("compute", body, run))
    sink.bind_task(
        c_sink,
        Task(
            "recv",
            lambda ctx: ctx.mov32(
                Mem1dDsd("in"), FabinDsd(c_y, extent=plan.state_len),
                on_complete=c_got,
            ),
        ),
    )
    sink.bind_task(c_got, Task("got", lambda ctx: ctx.activate(c_sink)))
    if tx_short:
        stage.sram.capacity = stage.sram.used + 8 * plan.state_len - 1
    engine.schedule_activation(stage, c_x.id, 0.0)
    engine.schedule_activation(sink, c_sink.id, 0.0)
    for i, vec in enumerate(vecs):
        engine.inject(0, 0, c_x, vec.copy(), at=4.0 * i)
    with pytest.raises(Exception) as failure:
        engine.run()
    return (
        type(failure.value).__name__,
        str(failure.value),
        stage.busy_until,
        stage.compute_cycles,
        stage.tasks_run,
        stage.halted,
        dict(nc.stage_cycles),
        (nc.blocks_emitted, nc.wavelets_sent),
        dict(outputs.records),
        box["done"],
        [
            (e.name, e.start_cycles, e.dur_cycles)
            for e in tracer.pe_events
            if (e.row, e.col) == (0, 0)
        ],
    )


def _fails_as_queued(vecs, group, *, forward=False, tx_short=False):
    """The ready run (committed in one pass) and the queued oracle fail
    alike; returns the ready run's outcome."""
    ready = _fed_stage(vecs, group, forward=forward, tx_short=tx_short)
    queued = _fed_stage(
        vecs, group, forward=forward, tx_short=tx_short, faults=NEVER
    )
    assert ready == queued
    return ready


@pytest.mark.parametrize("corrupt", [0, 2, 4])
def test_a_row_that_cannot_finalize_fails_at_the_same_block(corrupt):
    """A tail stage (shuffle bits 1-7) takes five states whose row
    ``corrupt`` arrives as a raw block of fl 0: all of its shuffle bits
    are idle, so it reaches the record with no sign bytes. The rows
    before it commit as a batch, and it fails through the task body with
    the one-block path's error, after the same charges."""
    stages = compression_substages(8, 32)
    vecs = _states((3, 5, 0, 2, 0), 7)
    vecs[corrupt] = _states((0,), 7, corrupt=0)[0]
    ready = _fails_as_queued(vecs, tuple(stages[7:]))
    assert ready[:2] == (
        "CompressionError", "cannot finalize a block in phase 'raw'"
    )
    assert sorted(ready[8]) == list(range(corrupt))  # the records before it
    assert ready[9] == corrupt


def test_a_send_larger_than_free_sram_fails_at_the_same_block():
    """A forwarding stage whose free SRAM is a byte short of one state:
    its first send fails through the task body with the transmit check's
    error, after the row's charges."""
    stages = compression_substages(8, 32)
    vecs = _states((3, 5, 1, 2, 4), 7)
    ready = _fails_as_queued(
        vecs, tuple(stages[7:10]), forward=True, tx_short=True
    )
    assert ready[0] == "MemoryError_"
    assert "__tx_" in ready[1]
    assert ready[7] == (0, 0) and ready[9] == 1


# --- the primitive on hand-built chains -------------------------------------


def _stage(blocks: int, *, counted: bool, spacing: float, post_at: float,
           faults=None):
    """Feed ``blocks`` 8-wavelet blocks, one every ``spacing`` cycles from
    the west edge, into a stage PE whose go task spends 40 cycles and
    forwards each block to a sink, halting after the last one.

    ``counted`` posts one receive train at ``post_at``; otherwise the
    receive task posts one receive and the go task re-activates it per
    block, the pattern a receive train replaces (and the one lowered stage
    PEs ran before it).
    """
    fabric = Fabric(1, 2)
    tracer = Tracer(level="timeline")
    engine = Engine(fabric, tracer=tracer, faults=faults)
    colors = ColorAllocator()
    c_x, c_y, c_go, c_sink, c_got = (
        colors.allocate(n) for n in ("x", "y", "go", "sink", "got")
    )
    fabric.set_route(0, 0, c_x, Direction.WEST, Direction.RAMP)
    fabric.route_row_segment(0, 0, 1, c_y)
    stage, sink = fabric.pe(0, 0), fabric.pe(0, 1)
    stage.alloc_buffer("in", np.zeros(8, dtype=np.float32))
    sink.alloc_buffer("in", np.zeros(8, dtype=np.float32))
    box = {"done": 0, "got": []}

    def recv(ctx):
        ctx.mov32(
            Mem1dDsd("in"), FabinDsd(c_x, extent=8), on_complete=c_go,
            count=blocks if counted else 1,
        )

    def compute(ctx):
        ctx.spend(40)
        ctx.send(c_y, ctx.buffer("in").copy())
        box["done"] += 1
        if box["done"] == blocks:
            ctx.halt()
        elif not counted:
            ctx.activate(c_x)

    def sink_recv(ctx):
        ctx.mov32(Mem1dDsd("in"), FabinDsd(c_y, extent=8), on_complete=c_got)

    def got(ctx):
        box["got"].append(int(ctx.buffer("in")[0]))
        if len(box["got"]) < blocks:
            ctx.activate(c_sink)

    stage.bind_task(c_x, Task("recv", recv))
    stage.bind_task(c_go, Task("compute", compute))
    sink.bind_task(c_sink, Task("recv", sink_recv))
    sink.bind_task(c_got, Task("got", got))
    engine.schedule_activation(stage, c_x.id, post_at)
    engine.schedule_activation(sink, c_sink.id, 0.0)
    for i in range(blocks):
        engine.inject(
            0, 0, c_x, np.full(8, i, dtype=np.float32), at=spacing * i
        )
    report = engine.run()
    timeline: dict = {}
    for e in tracer.pe_events:  # recording order within each PE
        timeline.setdefault((e.row, e.col), []).append(
            (e.name, e.start_cycles, e.dur_cycles)
        )
    return (
        box["got"],
        report.makespan_cycles,
        report.tasks_run,
        [(t.row, t.col, t.compute_cycles, t.relay_cycles, t.tasks_run,
          t.finished_at)
         for t in report.trace.traces],
        timeline,
        [pe.max_inbox_depth for pe in fabric],
    ), report.events_processed


class TestReceiveTrainReplaysARearmingReceive:
    @pytest.mark.parametrize("post_at", [0.0, 20.0])
    @pytest.mark.parametrize("spacing", [8.0, 64.0])
    @pytest.mark.parametrize("blocks", [1, 2, 5])
    def test_train_replays_a_rearming_recv_task(
        self, blocks, spacing, post_at
    ):
        """Clean and under the never-firing fault plan, the counted receive
        charges exactly what the re-arming receive task did: order, tasks,
        per-PE traces, timelines and inbox depths. Blocks 8 cycles apart
        back up behind the 40-cycle go task; 64 apart, the stage idles
        between them; posted at cycle 20, the first blocks wait for the
        train in the inbox."""
        runs = {
            (counted, faults is None): _stage(
                blocks, counted=counted, spacing=spacing, post_at=post_at,
                faults=faults,
            )
            for counted in (True, False)
            for faults in (None, NEVER)
        }
        rearming, rearming_events = runs[(False, True)]
        assert rearming[0] == list(range(blocks))
        for result, _ in runs.values():
            assert result == rearming
        assert runs[(True, False)][1] == rearming_events  # queued = re-armed
        counted_events = runs[(True, True)][1]
        if blocks > 1 and (post_at == 0.0 or spacing == 64.0):
            # The train is ready for a block of the feed and takes the rest
            # of it in that dispatch.
            assert counted_events < rearming_events
        else:
            # One block posts a single receive, no train. Blocks 8 cycles
            # apart reaching a train posted at cycle 20 each wait in the
            # inbox or behind a busy go task: every one is queued.
            assert counted_events == rearming_events


def _head(fls, *, counted: bool, spacing: float, post_at: float,
          faults=None, side: bool = False):
    """Feed records of fixed lengths ``fls`` from the west edge into a
    decode head, one every ``spacing`` cycles: a one-word header, then for
    a non-zero fl a body of ``1 + fl`` words. ``on_header`` decodes a
    header-only record in 30 cycles or posts the record's body receive,
    ``on_body`` decodes the rest in ``40 + fl``, and each record's last
    task sends its index to a sink; the head halts after the last record.

    ``counted`` posts one record train at ``post_at``; otherwise the
    header task posts one receive and each record's last task re-activates
    it, the two-phase receive a record train replaces (and the one lowered
    decode heads ran before it). With ``side``, ``on_header`` also
    activates a 3-cycle side task when it posts a body receive.
    """
    fabric = Fabric(1, 2)
    tracer = Tracer(level="timeline")
    engine = Engine(fabric, tracer=tracer, faults=faults)
    colors = ColorAllocator()
    c_x, c_hdr, c_body, c_y, c_sink, c_got, c_side = (
        colors.allocate(n)
        for n in ("x", "hdr", "body", "y", "sink", "got", "side")
    )
    fabric.set_route(0, 0, c_x, Direction.WEST, Direction.RAMP)
    fabric.route_row_segment(0, 0, 1, c_y)
    head, sink = fabric.pe(0, 0), fabric.pe(0, 1)
    head.alloc_buffer("hdr", np.zeros(1, dtype=np.int64))
    head.alloc_buffer("body", np.zeros(1 + max(fls), dtype=np.int64))
    sink.alloc_buffer("in", np.zeros(8, dtype=np.float32))
    records = len(fls)
    box = {"done": 0, "got": []}

    def recv_header(ctx):
        ctx.mov32(
            Mem1dDsd("hdr"), FabinDsd(c_x, extent=1), on_complete=c_hdr,
            count=records if counted else 1,
            body=c_body if counted else None,
        )

    def finish(ctx, cycles):
        ctx.spend(cycles)
        ctx.send(c_y, np.full(8, box["done"], dtype=np.float32))
        box["done"] += 1
        if box["done"] == records:
            ctx.halt()
        elif not counted:
            ctx.activate(c_x)

    def on_header(ctx):
        fl = int(ctx.buffer("hdr")[0])
        if fl == 0:
            finish(ctx, 30)
        else:
            ctx.mov32(
                Mem1dDsd("body", length=1 + fl),
                FabinDsd(c_x, extent=1 + fl),
                on_complete=c_body,
            )
            if side:
                ctx.activate(c_side)

    def on_body(ctx):
        fl = int(ctx.buffer("hdr")[0])
        assert ctx.buffer("body")[fl] == 100 * box["done"] + fl
        finish(ctx, 40 + fl)

    def sink_recv(ctx):
        ctx.mov32(Mem1dDsd("in"), FabinDsd(c_y, extent=8), on_complete=c_got)

    def got(ctx):
        box["got"].append(int(ctx.buffer("in")[0]))
        if len(box["got"]) < records:
            ctx.activate(c_sink)

    head.bind_task(c_x, Task("recv_header", recv_header))
    head.bind_task(c_hdr, Task("on_header", on_header))
    head.bind_task(c_body, Task("on_body", on_body))
    head.bind_task(c_side, Task("side", lambda ctx: ctx.spend(3)))
    sink.bind_task(c_sink, Task("recv", sink_recv))
    sink.bind_task(c_got, Task("got", got))
    engine.schedule_activation(head, c_x.id, post_at)
    engine.schedule_activation(sink, c_sink.id, 0.0)
    for i, fl in enumerate(fls):
        at = spacing * i
        engine.inject(0, 0, c_x, np.array([fl], dtype=np.uint32), at=at)
        if fl:
            body = np.arange(1 + fl, dtype=np.uint32) + 100 * i
            engine.inject(0, 0, c_x, body, at=at + 1)
    report = engine.run()
    timeline: dict = {}
    for e in tracer.pe_events:  # recording order within each PE
        timeline.setdefault((e.row, e.col), []).append(
            (e.name, e.start_cycles, e.dur_cycles)
        )
    return (
        box["got"],
        report.makespan_cycles,
        report.tasks_run,
        [(t.row, t.col, t.compute_cycles, t.relay_cycles, t.tasks_run,
          t.finished_at)
         for t in report.trace.traces],
        timeline,
        [pe.max_inbox_depth for pe in fabric],
    ), report.events_processed


class TestRecordTrainReplaysATwoPhaseReceive:
    @pytest.mark.parametrize("post_at", [0.0, 20.0])
    @pytest.mark.parametrize("spacing", [8.0, 96.0])
    @pytest.mark.parametrize(
        "fls", [(0,), (3,), (0, 2), (4, 0), (3, 0, 0, 5, 1), (0, 0, 2, 0, 0)]
    )
    def test_record_train_replays_the_two_phase_receive(
        self, fls, spacing, post_at
    ):
        """Clean and under the never-firing fault plan, the record train
        charges exactly what the re-arming two-phase receive did: order,
        tasks, per-PE traces, timelines with each ``recv_header``,
        ``on_header`` and ``on_body`` event's cycle, and inbox depths.
        Records 8 cycles apart back up behind the 40-cycle body task; 96
        apart, the head idles between them; posted at cycle 20, the first
        record waits for the train in the inbox."""
        runs = {
            (counted, faults is None): _head(
                fls, counted=counted, spacing=spacing, post_at=post_at,
                faults=faults,
            )
            for counted in (True, False)
            for faults in (None, NEVER)
        }
        rearming, rearming_events = runs[(False, True)]
        assert rearming[0] == list(range(len(fls)))
        for result, _ in runs.values():
            assert result == rearming
        assert runs[(True, False)][1] == rearming_events  # queued = re-armed
        counted_events = runs[(True, True)][1]
        if len(fls) > 1 and (post_at == 0.0 or spacing == 96.0):
            # The train is ready for a record of the feed and takes the
            # rest of it in that dispatch.
            assert counted_events < rearming_events
        elif len(fls) == 1:  # one record posts a single receive, no train
            assert counted_events == rearming_events
        else:
            assert counted_events <= rearming_events

    @pytest.mark.parametrize("spacing", [8.0, 96.0])
    def test_a_header_task_that_leaves_work_queues_the_body(self, spacing):
        """A header task that also activates a side task leaves the head
        busy, so the ready run stops before the record's body: the body and
        the rest of the feed are delivered, and the re-post follows the
        body task."""
        fls = (3, 0, 2, 4)
        clean, clean_events = _head(
            fls, counted=True, spacing=spacing, post_at=0.0, side=True
        )
        queued, queued_events = _head(
            fls, counted=True, spacing=spacing, post_at=0.0, side=True,
            faults=NEVER,
        )
        rearming, _ = _head(
            fls, counted=False, spacing=spacing, post_at=0.0, side=True
        )
        assert clean == queued == rearming
        assert clean[0] == [0, 1, 2, 3]
        assert clean_events < queued_events


def test_a_record_train_needs_a_one_wavelet_header():
    """``body`` makes a counted receive of one-wavelet headers a record
    train; it is refused on a wider receive and on a relay."""
    colors = ColorAllocator()
    c_in, c_go, c_body = (colors.allocate(n) for n in ("in", "go", "body"))
    for post in (
        lambda ctx: ctx.mov32(
            Mem1dDsd("b"), FabinDsd(c_in, extent=4), on_complete=c_go,
            count=2, body=c_body,
        ),
        lambda ctx: ctx.mov32(
            FaboutDsd(c_go, extent=1), FabinDsd(c_in, extent=1),
            count=2, body=c_body,
        ),
    ):
        fabric = Fabric(1, 1)
        engine = Engine(fabric)
        pe = fabric.pe(0, 0)
        pe.alloc_buffer("b", np.zeros(4, dtype=np.float32))
        pe.bind_task(c_in, Task("recv", post))
        pe.bind_task(c_go, Task("go", lambda ctx: None))
        engine.schedule_activation(pe, c_in.id, 0.0)
        with pytest.raises(TaskError, match="one-wavelet header"):
            engine.run()


def _train(case: str, *, faults=None):
    """PE M takes 8-wavelet blocks on color x with a receive train; its go
    task spends 40 cycles and forwards each block to a sink on color y.

    ``"two-producers"``: PEs A and B both send x into M, which accepts it
    from the west and the east (a 2x3 mesh; the sink is below M). A sends
    later than B in cycles but earlier in event order.
    ``"in-flight"``: P sends block 1 before M posts its train and blocks 2
    and 3 after (a 1x3 mesh), so block 1 is still on its way when they are
    sent, and both arrive while M forwards block 1 (its inbox backs up to
    two). ``"busy"``: as ``"in-flight"``, but M also holds a receive on
    another color that never matches, so it is never quiet. ``"burst"``:
    one task on P sends all three blocks after M posts its train, so M
    takes them as one handed run, and M's go task also activates a side
    task: the PE is no longer quiet after the first block, so its re-post
    queues and the rest of the run is delivered. ``"cross"``: M takes block
    1 as a handed run and re-posts its receive inline at the go task's end;
    meanwhile PE Q (below M) sends M a block on a color M never receives,
    which is on its way when P sends blocks 2 and 3, so they get deliver
    events and block 2 is matched before that re-post's cycle. Returns the
    blocks in the order the sink got them and the run's per-PE results.
    """
    two, cross = case == "two-producers", case == "cross"
    fabric = Fabric(2, 3) if two or cross else Fabric(1, 3)
    tracer = Tracer(level="timeline")
    engine = Engine(fabric, tracer=tracer, faults=faults)
    colors = ColorAllocator()
    c_x, c_y, c_z, c_go, c_later, c_last, c_got, c_m, c_idle, c_side = (
        colors.allocate(n)
        for n in (
            "x", "y", "z", "go", "later", "last", "got", "m", "idle", "side"
        )
    )
    m = fabric.pe(0, 1)
    sink = fabric.pe(1, 1) if two else fabric.pe(0, 2)
    if two:
        fabric.set_route(0, 0, c_x, Direction.RAMP, Direction.EAST)
        fabric.set_route(0, 2, c_x, Direction.RAMP, Direction.WEST)
        fabric.set_route(
            0, 1, c_x, (Direction.WEST, Direction.EAST), Direction.RAMP
        )
        fabric.set_route(0, 1, c_y, Direction.RAMP, Direction.SOUTH)
        fabric.set_route(1, 1, c_y, Direction.NORTH, Direction.RAMP)
        m_at = 0.0
        senders = [(fabric.pe(0, 0), c_go, 0.0, 20, (1.0,)),
                   (fabric.pe(0, 2), c_go, 5.0, 0, (2.0,))]
    else:
        fabric.route_row_segment(0, 0, 1, c_x)
        fabric.route_row_segment(0, 1, 2, c_y)
        m_at = 2.0
        senders = [(fabric.pe(0, 0), c_go, 0.0, 0, (1.0,)),
                   (fabric.pe(0, 0), c_later, 4.0, 0, (2.0,)),
                   (fabric.pe(0, 0), c_last, 5.0, 0, (3.0,))]
        if cross:
            fabric.set_route(1, 1, c_z, Direction.RAMP, Direction.NORTH)
            fabric.set_route(0, 1, c_z, Direction.SOUTH, Direction.RAMP)
            q = fabric.pe(1, 1)
            q.bind_task(
                c_go, Task("other", lambda ctx: ctx.send(c_z, np.zeros(1)))
            )
            engine.schedule_activation(q, c_go.id, 10.0)
            m_at = 0.0
            senders = [(fabric.pe(0, 0), c_go, 0.0, 0, (1.0,)),
                       (fabric.pe(0, 0), c_later, 12.0, 0, (2.0,)),
                       (fabric.pe(0, 0), c_last, 13.0, 0, (3.0,))]
        if case == "burst":
            senders = [(fabric.pe(0, 0), c_go, 4.0, 8, (1.0, 2.0, 3.0))]
    blocks = sum(len(values) for *_, values in senders)
    m.alloc_buffer("in", np.zeros(8, dtype=np.float32))
    m.alloc_buffer("idle", np.zeros(1, dtype=np.float32))
    sink.alloc_buffer("in", np.zeros(8, dtype=np.float32))
    got = []

    def recv(ctx):
        if case == "busy":
            ctx.mov32(Mem1dDsd("idle"), FabinDsd(c_idle, extent=1))
        ctx.mov32(
            Mem1dDsd("in"), FabinDsd(c_x, extent=8), on_complete=c_m,
            count=blocks,
        )

    def forward(ctx):
        ctx.spend(40)
        ctx.send(c_y, ctx.buffer("in").copy())
        if case == "burst":
            ctx.activate(c_side)

    def sink_recv(ctx):
        ctx.mov32(Mem1dDsd("in"), FabinDsd(c_y, extent=8), on_complete=c_got)

    def record(ctx):
        got.append(int(ctx.buffer("in")[0]))
        if len(got) < blocks:
            ctx.activate(c_go)

    def sender(delay, values):
        def send(ctx):
            for value in values:
                ctx.spend(delay)
                ctx.send(c_x, np.full(8, value, dtype=np.float32))
        return send

    m.bind_task(c_x, Task("recv", recv))
    m.bind_task(c_m, Task("forward", forward))
    m.bind_task(c_side, Task("side", lambda ctx: ctx.spend(3)))
    sink.bind_task(c_go, Task("recv", sink_recv))
    sink.bind_task(c_got, Task("got", record))
    engine.schedule_activation(m, c_x.id, m_at)
    engine.schedule_activation(sink, c_go.id, 0.0)
    for pe, color, at, delay, values in senders:
        pe.bind_task(color, Task(f"send{values[0]:g}", sender(delay, values)))
        engine.schedule_activation(pe, color.id, at)
    report = engine.run(allow_pending=case == "busy")
    return (
        got,
        report.makespan_cycles,
        report.tasks_run,
        [(t.row, t.col, t.compute_cycles, t.tasks_run, t.finished_at)
         for t in report.trace.traces],
        sorted(
            (e.row, e.col, e.name, e.start_cycles, e.dur_cycles)
            for e in tracer.pe_events
        ),
        [pe.max_inbox_depth for pe in fabric],
    ), report.events_processed


class TestReceiveTrainGuards:
    def test_two_producers_hand_nothing_ahead(self):
        clean, _ = _train("two-producers")
        queued, _ = _train("two-producers", faults=NEVER)
        assert clean == queued
        assert clean[0] == [2, 1]  # arrival order, not send order

    def test_a_block_in_flight_is_not_overtaken(self):
        clean, _ = _train("in-flight")
        queued, _ = _train("in-flight", faults=NEVER)
        assert clean == queued
        assert clean[0] == [1, 2, 3]
        assert clean[5][1] == 2  # blocks 2 and 3 wait while M is busy

    def test_a_block_taken_before_the_re_post_stays_in_the_inbox(self):
        clean, clean_events = _train("cross")
        queued, queued_events = _train("cross", faults=NEVER)
        assert clean == queued
        assert clean[0] == [1, 2, 3]
        assert clean[5][1] == 2  # block 2 still counts when block 3 lands
        assert clean_events < queued_events  # block 1 was handed

    def test_busy_pe_takes_the_queued_step(self):
        clean, clean_events = _train("busy")
        queued, queued_events = _train("busy", faults=NEVER)
        assert clean == queued
        assert clean_events == queued_events

    def test_a_go_task_that_leaves_work_queues_its_re_post(self):
        clean, clean_events = _train("burst")
        queued, queued_events = _train("burst", faults=NEVER)
        assert clean == queued
        assert clean[0] == [1, 2, 3]
        assert clean_events < queued_events  # the run's first block only


def test_a_receive_train_needs_an_on_complete():
    """Its go task is the only thing that consumes each block (the
    relay-only arguments are tested in tests/core/test_relay_trains.py)."""
    fabric = Fabric(1, 1)
    engine = Engine(fabric)
    c_in = ColorAllocator().allocate("in")
    pe = fabric.pe(0, 0)
    pe.alloc_buffer("b", np.zeros(4, dtype=np.float32))
    pe.bind_task(
        c_in,
        Task(
            "recv",
            lambda ctx: ctx.mov32(
                Mem1dDsd("b"), FabinDsd(c_in, extent=4), count=2
            ),
        ),
    )
    engine.schedule_activation(pe, c_in.id, 0.0)
    with pytest.raises(TaskError, match="needs an on_complete"):
        engine.run()
