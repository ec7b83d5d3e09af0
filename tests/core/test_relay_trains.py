"""Relay trains: the engine's counted relay against its queued-step oracle.

Fig 9's counted relay is one engine primitive (``mov32(..., count=k)``).
A relayed block takes one of two paths. In a convoy, a ready train takes
a whole run of handed or fed blocks without their deliver events, and a
quiet PE's train takes the blocks waiting in its inbox at one deliver or
match event. Any other PE, and every run with a fault injector, takes
the queued step — the events a relay task re-armed per block would cost.
A fault plan that never fires therefore forces the queued step
everywhere, and every per-PE result must equal the clean run: only the
engine's event count may differ.
"""

import dataclasses
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lower import lower_plan
from repro.core.plan import plan_multi_pipeline, plan_staged_multi_pipeline
from repro.core.schedule import distribute_substages
from repro.core.stages import compression_substages
from repro.errors import TaskError
from repro.faults import FaultPlan, WaveletDrop
from repro.obs.export import build_chrome_trace
from repro.obs.tracing import Tracer
from repro.wse.color import ColorAllocator
from repro.wse.cost import PAPER_CYCLE_MODEL
from repro.wse.dsd import FabinDsd, FaboutDsd, Mem1dDsd
from repro.wse.engine import Engine
from repro.wse.fabric import Fabric
from repro.wse.pe import Task
from repro.wse.trace import NodeCounters
from repro.wse.wavelet import Direction

EPS = 0.01

#: Delivery #10**9 of color 23 never happens: the injector is present (so
#: every step is queued) but nothing is ever injected.
NEVER = FaultPlan(
    seed=0, faults=(WaveletDrop(row=0, col=0, color_id=23, nth=10**9),)
)

#: (strategy, rows, cols, pipeline length): the staged 2x6 mesh has three
#: pipelines per row, so its heads relay two-block trains.
MESHES = {
    "multi": ("multi", 2, 4, 1),
    "staged": ("staged", 2, 4, 2),
    "staged-3": ("staged", 2, 6, 2),
}


def _plan(mesh: str, rounds: int, block_size: int):
    strategy, rows, cols, length = MESHES[mesh]
    per_round = rows * (cols // length)
    # One block short of full rounds: the last round leaves a PE idle.
    n = per_round * rounds - 1
    rng = np.random.default_rng(rounds * block_size)
    blocks = rng.normal(size=(n, block_size)).cumsum(axis=1)
    if strategy == "multi":
        return plan_multi_pipeline(blocks, EPS, rows=rows, cols=cols)
    dist = distribute_substages(compression_substages(8, block_size), length)
    return plan_staged_multi_pipeline(blocks, EPS, dist, rows=rows, cols=cols)


def _output(outputs, plan) -> bytes:
    """Stream bytes of a compress plan, decoded value bits of a decode plan."""
    if plan.direction == "compress":
        return outputs.stream(plan.num_blocks)
    return outputs.assemble(plan.num_blocks, plan.block_size).tobytes()


def _run(plan, faults=None, sample_every: int = 1, model=PAPER_CYCLE_MODEL):
    fabric = Fabric(plan.rows, plan.cols)
    tracer = Tracer(level="timeline", sample_every=sample_every)
    engine = Engine(fabric, tracer=tracer, faults=faults)
    lowered = lower_plan(plan, fabric, engine, model=model)
    report = engine.run()
    trace = report.trace
    per_pe: dict = {}
    for e in tracer.pe_events:  # recording order within each PE
        per_pe.setdefault((e.row, e.col), []).append(
            (e.name, e.start_cycles, e.dur_cycles)
        )
    chrome = [
        ev for ev in build_chrome_trace(tracer)["traceEvents"]
        if ev["ph"] == "X"
    ]
    return {
        "stream": _output(lowered.outputs, plan),
        "makespan": report.makespan_cycles,
        "tasks": report.tasks_run,
        "traces": [
            (t.row, t.col, t.compute_cycles, t.relay_cycles, t.tasks_run,
             t.finished_at)
            for t in trace.traces
        ],
        "counters": [
            (nc.label, nc.blocks_relayed, nc.wavelets_sent,
             nc.blocks_emitted, dict(nc.stage_cycles))
            for nc in trace.node_counters
        ],
        "timeline": per_pe,
        "chrome": chrome,
        "inbox_depth": [pe.max_inbox_depth for pe in fabric],
    }, report.events_processed


@pytest.mark.parametrize("block_size", [32, 64])
@pytest.mark.parametrize("rounds", [1, 2, 3, 4])
@pytest.mark.parametrize("mesh", sorted(MESHES))
def test_queued_steps_match_inline(mesh, rounds, block_size):
    inline, inline_events = _run(_plan(mesh, rounds, block_size))
    queued, queued_events = _run(_plan(mesh, rounds, block_size), NEVER)
    assert inline == queued
    if mesh == "staged":
        # Every train here runs on a PE that also holds a stage duty.
        assert inline_events == queued_events
    else:
        assert inline_events < queued_events


def test_slow_relays_keep_the_inbox_backlog():
    """With C1 above twice the block size a relay drains slower than the
    edge feeds arrive, so PE(0,0)'s inbox backs up during its train. The
    blocks a convoy takes ahead still count in the inbox depth."""
    slow = dataclasses.replace(PAPER_CYCLE_MODEL, c1_relay=150.0)
    blocks = np.random.default_rng(1).normal(size=(64, 32)).cumsum(axis=1)

    def plan():
        return plan_multi_pipeline(blocks, EPS, rows=1, cols=64)

    inline, inline_events = _run(plan(), model=slow)
    queued, queued_events = _run(plan(), NEVER, model=slow)
    assert inline == queued
    assert inline["inbox_depth"][0] == 46
    assert inline_events < queued_events


@settings(max_examples=40, deadline=None)
@given(
    staged=st.booleans(),
    length=st.integers(2, 3),
    rows=st.integers(1, 3),
    cols=st.integers(2, 24),
    rounds=st.integers(1, 4),
    short=st.integers(0, 2),
    block_size=st.sampled_from([32, 64]),
    c1_relay=st.sampled_from([40.0, 54.0, 150.0]),
)
def test_convoys_match_the_queued_oracle(
    staged, length, rows, cols, rounds, short, block_size, c1_relay
):
    """Random multi and staged plans: the clean run (convoys) equals the
    never-firing-fault run in everything but events."""
    length = min(length, cols) if staged else 1
    per_round = rows * (cols // length)
    n = max(1, per_round * rounds - short)
    rng = np.random.default_rng(n * block_size + cols)
    blocks = rng.normal(size=(n, block_size)).cumsum(axis=1)
    model = dataclasses.replace(PAPER_CYCLE_MODEL, c1_relay=c1_relay)

    def plan():
        if not staged:
            return plan_multi_pipeline(blocks, EPS, rows=rows, cols=cols)
        dist = distribute_substages(
            compression_substages(8, block_size), length
        )
        return plan_staged_multi_pipeline(
            blocks, EPS, dist, rows=rows, cols=cols
        )

    clean, clean_events = _run(plan(), model=model)
    queued, queued_events = _run(plan(), NEVER, model=model)
    assert clean == queued
    assert clean_events <= queued_events


def test_sampled_timeline_matches():
    """The per-PE sampling stride counts convoy steps like queued ones."""
    inline, _ = _run(_plan("multi", 3, 32), sample_every=3)
    queued, _ = _run(_plan("multi", 3, 32), NEVER, sample_every=3)
    assert inline["chrome"] == queued["chrome"]
    assert inline["timeline"] == queued["timeline"]


# --- the primitive on a hand-built chain ----------------------------------


def _chain(
    blocks: int, *, counted: bool, overhead: int = 5,
    busy_neighbor: bool = False,
):
    """Feed ``blocks`` 8-wavelet blocks through a relay PE into a sink.

    ``counted`` posts one counted relay; otherwise the relay task re-arms
    itself per block, the pattern a train step replays. An ``overhead``
    above the 8-cycle injection makes ``busy_until`` pace the steps. With
    ``busy_neighbor`` the relay PE also holds a receive on another color
    that never matches, which keeps it from being quiet.
    """
    fabric = Fabric(1, 2)
    tracer = Tracer(level="timeline")
    engine = Engine(fabric, tracer=tracer)
    colors = ColorAllocator()
    c_in, c_out, c_go, c_done, c_idle = (
        colors.allocate(n) for n in ("in", "out", "go", "done", "idle")
    )
    fabric.set_route(0, 0, c_in, Direction.WEST, Direction.RAMP)
    fabric.route_row_segment(0, 0, 1, c_out)
    relay_pe, sink = fabric.pe(0, 0), fabric.pe(0, 1)
    sink.alloc_buffer("in", np.zeros(8, dtype=np.float32))
    relay_pe.alloc_buffer("idle", np.zeros(1, dtype=np.float32))
    fabout, fabin = FaboutDsd(c_out, extent=8), FabinDsd(c_in, extent=8)
    box = {"relayed": 0, "got": [], "done": 0}
    counters = NodeCounters(label="relay", kind="relay", row=0, col=0)

    def relay(ctx):
        if counted:
            ctx.mov32(
                fabout, fabin, on_complete=c_done, relay=True, count=blocks,
                overhead=overhead, counters=counters,
            )
            return
        box["relayed"] += 1
        last = box["relayed"] == blocks
        ctx.mov32(
            fabout, fabin, on_complete=c_done if last else c_in, relay=True
        )
        ctx.spend(overhead, relay=True)
        counters.blocks_relayed += 1
        counters.wavelets_sent += 8

    def start(ctx):
        if busy_neighbor:
            ctx.mov32(Mem1dDsd("idle"), FabinDsd(c_idle, extent=1))
        ctx.activate(c_in)

    def recv(ctx):
        ctx.mov32(Mem1dDsd("in"), FabinDsd(c_out, extent=8), on_complete=c_done)

    def got(ctx):
        box["got"].append(ctx.buffer("in").copy())
        if len(box["got"]) < blocks:
            ctx.activate(c_go)

    relay_pe.bind_task(c_go, Task("start", start))
    relay_pe.bind_task(c_in, Task("relay", relay))
    relay_pe.bind_task(
        c_done, Task("done", lambda ctx: box.update(done=box["done"] + 1))
    )
    sink.bind_task(c_go, Task("recv", recv))
    sink.bind_task(c_done, Task("got", got))
    engine.schedule_activation(relay_pe, c_go.id, 0.0)
    engine.schedule_activation(sink, c_go.id, 0.0)
    for i in range(blocks):
        engine.inject(0, 0, c_in, np.full(8, i, dtype=np.float32), at=8.0 * i)
    report = engine.run(allow_pending=busy_neighbor)
    timeline = [
        (e.row, e.col, e.name, e.start_cycles, e.dur_cycles)
        for e in tracer.pe_events
    ]
    result = (
        [int(b[0]) for b in box["got"]],
        box["done"],
        report.makespan_cycles,
        report.tasks_run,
        [(t.relay_cycles, t.tasks_run, t.finished_at)
         for t in report.trace.traces],
        (counters.blocks_relayed, counters.wavelets_sent),
        sorted(timeline),
    )
    return result, report.events_processed


class TestCountedRelay:
    @pytest.mark.parametrize("overhead", [5, 13])
    @pytest.mark.parametrize("blocks", [1, 2, 5])
    def test_train_replays_a_rearming_relay_task(self, blocks, overhead):
        counted, counted_events = _chain(
            blocks, counted=True, overhead=overhead
        )
        stepped, stepped_events = _chain(
            blocks, counted=False, overhead=overhead
        )
        assert counted == stepped
        assert counted[0] == list(range(blocks))
        assert counted[1] == 1  # on_complete fires once, after the last
        assert counted[5] == (blocks, 8 * blocks)
        # Each later block's convoy step saves an activate, a task and a
        # match event, and the first block needs no match. The train is
        # ready when the first block arrives, so it takes the whole feed in
        # that one dispatch: each later block's deliver event goes too.
        saved = 4 * (blocks - 1) + 1 if blocks > 1 else 0
        assert stepped_events - counted_events == saved

    def test_busy_pe_takes_the_queued_step(self):
        counted, counted_events = _chain(4, counted=True, busy_neighbor=True)
        stepped, stepped_events = _chain(4, counted=False, busy_neighbor=True)
        assert counted == stepped
        assert counted_events == stepped_events

    def test_count_is_for_relays_only(self):
        """``count=`` also makes a receive a train (tests/core/
        test_receive_trains.py), so what stays relay-only is narrower: a
        counted send, and ``overhead``/``counters`` on a receive."""
        counted_send = lambda ctx, c_in, c_done: ctx.mov32(  # noqa: E731
            FaboutDsd(c_in, extent=4), Mem1dDsd("b"), count=2
        )
        receive_overhead = lambda ctx, c_in, c_done: ctx.mov32(  # noqa: E731
            Mem1dDsd("b"), FabinDsd(c_in, extent=4), on_complete=c_done,
            count=2, overhead=3,
        )
        for post in (counted_send, receive_overhead):
            fabric = Fabric(1, 1)
            engine = Engine(fabric)
            colors = ColorAllocator()
            c_go, c_done = colors.allocate("go"), colors.allocate("done")
            pe = fabric.pe(0, 0)
            pe.alloc_buffer("b", np.zeros(4, dtype=np.float32))
            pe.bind_task(
                c_go, Task("recv", lambda ctx: post(ctx, c_go, c_done))
            )
            pe.bind_task(c_done, Task("done", lambda ctx: None))
            engine.schedule_activation(pe, c_go.id, 0.0)
            with pytest.raises(TaskError, match="only to relays"):
                engine.run()

    def test_train_needs_a_task_on_its_fabin_color(self):
        fabric = Fabric(1, 2)
        engine = Engine(fabric)
        colors = ColorAllocator()
        c_go, c_in, c_out = (colors.allocate(n) for n in ("go", "in", "out"))
        fabric.route_row_segment(0, 0, 1, c_out)
        pe = fabric.pe(0, 0)
        pe.bind_task(
            c_go,
            Task(
                "relay",
                lambda ctx: ctx.mov32(
                    FaboutDsd(c_out, extent=4), FabinDsd(c_in, extent=4),
                    count=3,
                ),
            ),
        )
        engine.schedule_activation(pe, c_go.id, 0.0)
        with pytest.raises(TaskError, match="fabin color"):
            engine.run()


# --- the array pass: exact timing, the extent check, no per-block step -----


#: The exactness property's block width: an odd injection, so that sums of
#: it cross a coarse float grid at ties (round half to even).
WIDE = 7


def _relay_chain(
    feed: list[float],
    trains: tuple[list[int], list[int]],
    overheads: tuple[int, int],
    posts: tuple[float, float],
    busy: int,
    faults=None,
):
    """Feed ``WIDE``-wavelet blocks at cycles ``feed`` through two relay PEs
    into a sink (a 1x3 chain).

    Relay PE ``p`` first posts at cycle ``posts[p]`` (blocks that come
    earlier wait in its inbox) and then posts its counted relays one after
    another, ``trains[p]`` blocks each, charging ``overheads[p]`` cycles a
    block; its relay task runs again after each train's last block and
    spends ``busy`` cycles after posting. The two PEs split the blocks into
    different trains, so runs handed on are longer than the next train's
    count, and a slow second PE keeps an ahead backlog across runs.
    """
    fabric = Fabric(1, 3)
    tracer = Tracer(level="timeline")
    engine = Engine(fabric, tracer=tracer, faults=faults)
    colors = ColorAllocator()
    c_in, c_mid, c_out, c_go, c_got = (
        colors.allocate(n) for n in ("in", "mid", "out", "go", "got")
    )
    fabric.set_route(0, 0, c_in, Direction.WEST, Direction.RAMP)
    fabric.route_row_segment(0, 0, 1, c_mid)
    fabric.route_row_segment(0, 1, 2, c_out)
    sink = fabric.pe(0, 2)
    sink.alloc_buffer("in", np.zeros(WIDE, dtype=np.float32))
    counters = []
    for col, (c_from, c_to) in enumerate(((c_in, c_mid), (c_mid, c_out))):
        nc = NodeCounters(label=f"relay{col}", kind="relay", row=0, col=col)
        counters.append(nc)
        fabout, fabin = FaboutDsd(c_to, extent=WIDE), FabinDsd(c_from, extent=WIDE)
        counts = iter(trains[col])

        def relay(ctx, fabout=fabout, fabin=fabin, counts=counts, nc=nc,
                  overhead=overheads[col]):
            count = next(counts, None)
            if count is None:  # after the last train
                return
            ctx.mov32(
                fabout, fabin, on_complete=fabin.color, relay=True,
                count=count, overhead=overhead, counters=nc,
            )
            ctx.spend(busy)

        pe = fabric.pe(0, col)
        pe.bind_task(c_from, Task("relay", relay))
        engine.schedule_activation(pe, c_from.id, posts[col])
    got = []

    def recv(ctx):
        ctx.mov32(Mem1dDsd("in"), FabinDsd(c_out, extent=WIDE), on_complete=c_got)

    def record(ctx):
        got.append(int(ctx.buffer("in")[0]))
        if len(got) < len(feed):
            ctx.activate(c_go)

    sink.bind_task(c_go, Task("recv", recv))
    sink.bind_task(c_got, Task("got", record))
    engine.schedule_activation(sink, c_go.id, 0.0)
    for i, at in enumerate(feed):
        engine.inject(0, 0, c_in, np.full(WIDE, i, dtype=np.float32), at=at)
    report = engine.run()
    return (
        got,
        report.makespan_cycles,
        [(t.relay_cycles, t.tasks_run, t.finished_at)
         for t in report.trace.traces],
        [pe.busy_until for pe in fabric],
        [pe.max_inbox_depth for pe in fabric],
        [(nc.blocks_relayed, nc.wavelets_sent) for nc in counters],
        sorted(
            (e.row, e.col, e.name, e.start_cycles, e.dur_cycles)
            for e in tracer.pe_events
        ),
    ), report.events_processed


def _split(n: int, cuts: list[int]) -> list[int]:
    """``n`` blocks as consecutive trains, cut at ``cuts`` (mod ``n``)."""
    edges = sorted({0, n, *(c % n for c in cuts)})
    return [hi - lo for lo, hi in zip(edges, edges[1:])]


@settings(max_examples=200, deadline=None)
@given(
    binade=st.integers(50, 54),
    below=st.floats(0, 48),
    floor=st.sampled_from([0.0, WIDE - 1.0, float(WIDE)]),
    gaps=st.lists(st.floats(0, 12), min_size=2, max_size=40),
    cuts=st.tuples(
        st.lists(st.integers(1, 60), max_size=3),
        st.lists(st.integers(1, 60), max_size=3),
    ),
    overheads=st.tuples(*[st.integers(0, WIDE) | st.integers(0, 20)] * 2),
    late=st.tuples(*[st.just(0.0) | st.floats(0, 160)] * 2),
    busy=st.sampled_from([0, 3, 40]),
)
def test_convoy_timing_is_exact(binade, below, floor, gaps, cuts, overheads,
                                late, busy):
    """Fractional cycles just below a binade edge (2**binade), where the
    float grid is about one cycle, so sums cross it with ties: every ready
    run, array-timed or stepped block by block, equals the chain stepped
    by the queued path (forced by the never-firing fault plan) in every
    per-PE result. Gaps of at least ``floor`` cycles (one below the
    injection, or the injection itself) give runs that keep pace or miss
    it by a fraction of a cycle; overheads fall above and below the
    injection, the first PE may post after blocks arrive, a busy PE paces
    its first step, and runs handed on outlast the next train's count."""
    start = 2.0**binade - below
    feed = list(
        itertools.accumulate((floor + gap for gap in gaps), initial=start)
    )[1:]
    trains = (_split(len(feed), cuts[0]), _split(len(feed), cuts[1]))
    posts = (start + late[0], start + late[1])
    clean, clean_events = _relay_chain(feed, trains, overheads, posts, busy)
    stepped, stepped_events = _relay_chain(
        feed, trains, overheads, posts, busy, NEVER
    )
    assert clean == stepped
    assert clean[0] == list(range(len(feed)))
    assert clean_events <= stepped_events


@pytest.mark.parametrize("overhead", [5, 13])
@pytest.mark.parametrize("bad", [0, 3])
def test_a_block_of_the_wrong_size_raises_at_that_block(bad, overhead):
    """A ready train takes a fed run whose block ``bad`` has 4 wavelets,
    not 8: the blocks before it are charged as a run of ``bad`` good blocks
    would charge them, then the train raises at that block. Blocks fed
    every 8 cycles keep pace with an overhead of 5 (an array-timed run),
    not with one of 13 (stepped block by block)."""

    def chain(sizes):
        fabric = Fabric(1, 2)
        engine = Engine(fabric)
        colors = ColorAllocator()
        c_in, c_out, c_go = (colors.allocate(n) for n in ("in", "out", "go"))
        fabric.set_route(0, 0, c_in, Direction.WEST, Direction.RAMP)
        fabric.route_row_segment(0, 0, 1, c_out)
        relay_pe, sink = fabric.pe(0, 0), fabric.pe(0, 1)
        sink.alloc_buffer("in", np.zeros(8, dtype=np.float32))
        nc = NodeCounters(label="relay", kind="relay", row=0, col=0)
        relay_pe.bind_task(c_in, Task("relay", lambda ctx: ctx.mov32(
            FaboutDsd(c_out, extent=8), FabinDsd(c_in, extent=8),
            relay=True, count=6, overhead=overhead, counters=nc,
        )))
        sink.bind_task(c_go, Task("recv", lambda ctx: ctx.mov32(
            Mem1dDsd("in"), FabinDsd(c_out, extent=8), on_complete=c_go,
        )))
        engine.schedule_activation(relay_pe, c_in.id, 0.0)
        engine.schedule_activation(sink, c_go.id, 0.0)
        for i, size in enumerate(sizes):
            engine.inject(
                0, 0, c_in, np.full(size, i, dtype=np.float32), at=8.0 * i
            )
        error = None
        try:
            engine.run(allow_pending=True)
        except TaskError as exc:
            error = str(exc)
        state = (
            relay_pe.tasks_run, relay_pe.relay_cycles, relay_pe.busy_until,
            relay_pe.max_inbox_depth, nc.blocks_relayed, nc.wavelets_sent,
        )
        return error, state

    error, state = chain([8] * bad + [4] + [8] * 2)
    assert error is not None
    assert re.search(r"relay on color \d+ expected 8 wavelets, got 4", error)
    error, want = chain([8] * bad)
    assert error is None
    if not bad:  # the bad block itself arrived to an empty inbox
        want = want[:3] + (1,) + want[4:]
    assert state == want


def test_wafer_row_steps_no_relay_block(monkeypatch):
    """A clean 1x256 multi run, the wafer-750x256 row's shape: its relay
    runs keep pace with their arrivals, so convoys time every relayed block
    in array passes and no relay train's block goes through
    :meth:`Engine._step` (the queued step's arithmetic)."""
    stepped = []
    step = Engine._step

    def counted(self, pe, train, ready):
        if train.dst is None:
            stepped.append(pe.coord)
        return step(self, pe, train, ready)

    monkeypatch.setattr(Engine, "_step", counted)
    blocks = np.random.default_rng(0).normal(size=(256, 32)).cumsum(axis=1)
    plan = plan_multi_pipeline(blocks, EPS, rows=1, cols=256)
    fabric = Fabric(plan.rows, plan.cols)
    engine = Engine(fabric)
    lower_plan(plan, fabric, engine)
    report = engine.run()
    assert report.trace.total_blocks_relayed() == 255 * 256 // 2
    assert stepped == []


# --- convoy guards: where a block must not be handed ahead -----------------


def _merge(case: str):
    """A counted relay on PE M forwards two 8-wavelet blocks to a sink.

    ``"two-producers"``: PEs A and B both send color x into M, which
    accepts it from the west and the east (a 2x3 mesh; the sink is below
    M). A sends later than B in cycles but earlier in event order.
    ``"in-flight"``: P sends block 1 before M posts its train and block 2
    after (a 1x3 mesh), so block 1 is still on its way when block 2 is
    sent. Either way M is quiet with only its train posted when a block is
    sent to it, and the device order is the arrival order. Returns, for
    the clean run and then the queued run, the blocks in the order the
    sink got them and the run's per-PE results.
    """
    results = []
    for faults in (None, NEVER):
        two = case == "two-producers"
        fabric = Fabric(2, 3) if two else Fabric(1, 3)
        tracer = Tracer(level="timeline")
        engine = Engine(fabric, tracer=tracer, faults=faults)
        colors = ColorAllocator()
        c_x, c_y, c_go, c_later, c_got = (
            colors.allocate(n) for n in ("x", "y", "go", "later", "got")
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
            # M posts its train first. A (west) then sends at cycle 20 and
            # B (east) at cycle 5: B's block arrives first although A's
            # task runs first.
            m_at = 0.0
            senders = [(fabric.pe(0, 0), c_go, 0.0, 20, 1.0),
                       (fabric.pe(0, 2), c_go, 5.0, 0, 2.0)]
        else:
            fabric.route_row_segment(0, 0, 1, c_x)
            fabric.route_row_segment(0, 1, 2, c_y)
            # Block 1 leaves P at cycle 0, M posts its train at cycle 2,
            # block 2 leaves P at cycle 4.
            m_at = 2.0
            senders = [(fabric.pe(0, 0), c_go, 0.0, 0, 1.0),
                       (fabric.pe(0, 0), c_later, 4.0, 0, 2.0)]
        sink.alloc_buffer("in", np.zeros(8, dtype=np.float32))
        got = []

        def relay(ctx):
            ctx.mov32(
                FaboutDsd(c_y, extent=8), FabinDsd(c_x, extent=8),
                relay=True, count=2, overhead=5,
            )

        def recv(ctx):
            ctx.mov32(
                Mem1dDsd("in"), FabinDsd(c_y, extent=8), on_complete=c_got
            )

        def record(ctx):
            got.append(int(ctx.buffer("in")[0]))
            if len(got) < 2:
                ctx.activate(c_go)

        def sender(delay, value):
            def send(ctx):
                ctx.spend(delay)
                ctx.send(c_x, np.full(8, value, dtype=np.float32))
            return send

        m.bind_task(c_x, Task("relay", relay))
        sink.bind_task(c_go, Task("recv", recv))
        sink.bind_task(c_got, Task("got", record))
        engine.schedule_activation(m, c_x.id, m_at)
        engine.schedule_activation(sink, c_go.id, 0.0)
        for pe, color, at, delay, value in senders:
            pe.bind_task(color, Task(f"send{value:g}", sender(delay, value)))
            engine.schedule_activation(pe, color.id, at)
        report = engine.run()
        results.append((
            got,
            report.makespan_cycles,
            report.tasks_run,
            [(t.row, t.col, t.relay_cycles, t.tasks_run, t.finished_at)
             for t in report.trace.traces],
            sorted(
                (e.row, e.col, e.name, e.start_cycles, e.dur_cycles)
                for e in tracer.pe_events
            ),
            [pe.max_inbox_depth for pe in fabric],
        ))
    return results


class TestConvoyGuards:
    def test_two_producers_hand_nothing_ahead(self):
        clean, queued = _merge("two-producers")
        assert clean == queued
        assert clean[0] == [2, 1]  # arrival order, not send order

    def test_a_block_in_flight_is_not_overtaken(self):
        clean, queued = _merge("in-flight")
        assert clean == queued
        assert clean[0] == [1, 2]
