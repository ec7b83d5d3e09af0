"""The single lowering pass: MappingPlan -> Engine tasks/colors/routes.

Where :mod:`repro.core.plan` says *what* runs *where*, this module says how
that becomes a runnable program — exactly once, for every strategy. The
pass walks the plan deterministically:

1. allocate the plan's colors in declaration order;
2. install every :class:`~repro.core.plan.RouteSpec`;
3. per node (in plan order): allocate its SRAM buffers eagerly (so a
   too-small fabric fails at build time, like the hand-written builders
   did), attach a :class:`~repro.wse.trace.NodeCounters`, bind its tasks,
   and schedule its t=0 activations;
4. inject the plan's feeds with a per-edge-port running clock (one wavelet
   per cycle per row port).

The task closures reproduce the retired per-strategy builders cycle for
cycle: the counted relay of Fig 9, the two-phase header/body receive of the
decompression mapping, the staged head's combined relay-then-stage-group-0
duty, and the serialized :class:`~repro.core.mapping.PipelineState`
forwarding of Fig 6's pipelines. The one intentional unification: idle
shuffle sub-stages (bit index >= the block's fixed length) are charged one
task dispatch and skipped without entering the state machine, for every
pipeline variant — the charge is identical to what ``run_substage`` on an
idle bit cost, and the serialized phase difference ("lengthed" vs
"encoded") is invisible to both downstream stage groups and record
finalization.

Instrumentation: every lowered node counts blocks relayed, wavelets sent,
blocks emitted, and busy cycles per sub-stage into its
:class:`~repro.wse.trace.NodeCounters`, which the engine's trace recorder
aggregates for the per-stage validation breakdowns.

Whole-block fast path: nodes that run the *entire* compression on one PE
(the rows strategy's ComputeNode, the multi-pipeline RelayNode with no
stage group) use a fused kernel instead of stepping the per-sub-stage
state machine. The kernel performs the identical arithmetic in one pass
(all ``fl`` bit planes shuffled with a single vectorized pack) and then
replays the exact per-stage accounting — the same ``ctx.spend`` calls with
the same per-stage rounding and the same ``NodeCounters.add_stage``
entries the stepped path would have made — so makespans, stage breakdowns
and output bytes are bit-identical while the per-block Python overhead
(64-entry superset scans, name parsing, phase checks) disappears.
``lower_plan(..., fast_kernels=False)`` keeps the stepped path as the
fused kernel's named oracle: ``tests/core/test_simulate_parallel.py``
lowers every strategy both ways and asserts identical bytes, makespan,
tasks, events, per-PE traces and per-stage counters. The degraded-mode
host fallback (:func:`host_block_records`) encodes through the same
record encoder as the fused kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from repro.core.mapping import (
    PipelineState,
    ProgramOutputs,
    finalize_record,
    run_substage,
    substage_cycles,
)
from repro.core.mapping_decompress import (
    DecompressOutputs,
    DecompressState,
    decode_block_from_words,
    finalize_decompressed,
    run_decompress_substage,
)
from repro.core.plan import (
    ComputeNode,
    EgressNode,
    HeaderNode,
    IngestNode,
    MappingPlan,
    RelayNode,
    StageNode,
    node_buffers,
)
from repro.config import CERESZ_HEADER_BYTES
from repro.core.predictors import get_predictor
from repro.core.stages import compression_substages, decompression_substages
from repro.errors import ScheduleError
from repro.wse.color import Color, ColorAllocator
from repro.wse.cost import CycleModel, PAPER_CYCLE_MODEL
from repro.wse.dsd import FabinDsd, FaboutDsd, Mem1dDsd
from repro.wse.engine import Engine
from repro.wse.fabric import Fabric
from repro.wse.pe import Task, TaskContext
from repro.wse.trace import NodeCounters
from repro.wse.wavelet import Direction, wavelet_count

_DIRECTIONS = {
    "west": Direction.WEST,
    "east": Direction.EAST,
    "north": Direction.NORTH,
    "south": Direction.SOUTH,
    "ramp": Direction.RAMP,
}

_NP_DTYPES = {"float64": np.float64, "int64": np.int64}


@dataclass
class LoweredProgram:
    """A plan compiled onto a fabric/engine pair, plus its instrumentation."""

    plan: MappingPlan
    colors: dict[str, Color]
    outputs: ProgramOutputs | DecompressOutputs
    counters: list[NodeCounters] = dataclass_field(default_factory=list)


def lower_plan(
    plan: MappingPlan,
    fabric: Fabric,
    engine: Engine,
    *,
    model: CycleModel = PAPER_CYCLE_MODEL,
    colors: ColorAllocator | None = None,
    fast_kernels: bool = True,
    tracer=None,
) -> LoweredProgram:
    """Compile ``plan`` onto ``fabric``/``engine``; returns the live outputs.

    Deterministic by construction: colors, routes, buffers, task bindings,
    activations, and feed injections all follow plan declaration order, so
    two lowerings of the same plan produce identical event schedules.

    ``fast_kernels`` selects the fused whole-block compression kernel for
    nodes that run the full algorithm on one PE; ``False`` runs the
    stepped sub-stage machine, the fused kernel's oracle (see the module
    docstring). Results are identical either way.

    ``tracer`` (a :class:`repro.obs.tracing.Tracer`) wraps the pass in a
    ``"lower"`` host span; lowering itself is untraced beyond that.
    """
    if tracer is not None and tracer.enabled:
        with tracer.span(
            "lower",
            direction=plan.direction,
            rows=plan.rows,
            cols=plan.cols,
            nodes=len(plan.nodes),
        ):
            return _lower_plan(
                plan, fabric, engine, model=model, colors=colors,
                fast_kernels=fast_kernels,
            )
    return _lower_plan(
        plan, fabric, engine, model=model, colors=colors,
        fast_kernels=fast_kernels,
    )


def _lower_plan(
    plan: MappingPlan,
    fabric: Fabric,
    engine: Engine,
    *,
    model: CycleModel,
    colors: ColorAllocator | None,
    fast_kernels: bool,
) -> LoweredProgram:
    plan.validate()
    if plan.rows > fabric.rows or plan.cols > fabric.cols:
        raise ScheduleError(
            f"plan needs a {plan.rows}x{plan.cols} mesh, fabric is "
            f"{fabric.rows}x{fabric.cols}"
        )
    allocator = colors if colors is not None else ColorAllocator()
    cmap = {name: allocator.allocate(name) for name in plan.colors}

    for route in plan.routes:
        ins = tuple(_DIRECTIONS[d] for d in route.inputs)
        fabric.set_route(
            route.row,
            route.col,
            cmap[route.color],
            ins[0] if len(ins) == 1 else ins,
            _DIRECTIONS[route.output],
        )

    outputs: ProgramOutputs | DecompressOutputs
    if plan.direction == "compress":
        outputs = ProgramOutputs()
    else:
        outputs = DecompressOutputs()
    lowered = LoweredProgram(plan=plan, colors=cmap, outputs=outputs)

    for node in plan.nodes:
        if isinstance(node, (IngestNode, EgressNode)):
            continue
        pe = fabric.pe(node.row, node.col)
        for buf in node_buffers(node, plan):
            pe.alloc_buffer(
                buf.name, np.zeros(buf.extent, dtype=_NP_DTYPES[buf.dtype])
            )
        nc = NodeCounters(
            label=f"{node.kind}@({node.row},{node.col})",
            kind=node.kind,
            row=node.row,
            col=node.col,
        )
        pe.counters.append(nc)
        lowered.counters.append(nc)
        if isinstance(node, ComputeNode):
            _lower_compute(
                node, plan, pe, engine, cmap, model, outputs, nc, fast_kernels
            )
        elif isinstance(node, RelayNode):
            _lower_relay(
                node, plan, pe, engine, cmap, model, outputs, nc, fast_kernels
            )
        elif isinstance(node, StageNode):
            if plan.direction == "compress":
                _lower_stage(node, plan, pe, engine, cmap, model, outputs, nc)
            else:
                _lower_decompress_stage(
                    node, plan, pe, engine, cmap, model, outputs, nc
                )
        elif isinstance(node, HeaderNode):
            _lower_header(node, plan, pe, engine, cmap, model, outputs, nc)
        else:  # pragma: no cover - plan.validate() rejects unknown kinds
            raise ScheduleError(f"cannot lower node kind {node.kind!r}")

    clocks: dict[tuple[int, int], float] = {}
    for feed in plan.feeds:
        key = (feed.row, feed.col)
        at = clocks.get(key, 0.0)
        engine.inject(feed.row, feed.col, cmap[feed.color], feed.data, at=at)
        clocks[key] = at + feed.data.size
    return lowered


# --- shared closure pieces -------------------------------------------------------------


def _is_idle_shuffle(stage, fl: int | None) -> bool:
    return (
        stage.name.startswith("shuffle_bit_")
        and fl is not None
        and int(stage.name.rsplit("_", 1)[1]) >= fl
    )


def _run_full_compress(
    ctx: TaskContext,
    stages,
    eps: float,
    block_size: int,
    model: CycleModel,
    nc: NodeCounters,
) -> PipelineState:
    """Whole-algorithm compression of the block sitting in ``inbox``.

    Planned-but-idle shuffle bits are skipped entirely (uncharged) — the
    whole-block kernels iterate only the bits the block actually needs.
    """
    state = PipelineState(
        phase="raw", block_size=block_size, values=ctx.buffer("inbox").copy()
    )
    for stage in stages:
        if _is_idle_shuffle(stage, state.fl):
            continue
        state = run_substage(stage, state, eps)
        cost = substage_cycles(stage, state.fl, model, block_size)
        ctx.spend(cost)
        nc.add_stage(stage.name, cost)
    return state


def _make_fast_compress(
    plan: MappingPlan, model: CycleModel, nc: NodeCounters
):
    """Fused whole-block compression: ``inbox`` values -> record bytes.

    Arithmetic and accounting are exact replays of the stepped path
    (``_run_full_compress`` + ``finalize_record``): the same operations in
    the same order, one ``ctx.spend``/``nc.add_stage`` pair per live stage
    with the same per-stage rounding, and the same byte layout
    (:func:`_encode_record`). The only differences are mechanical: costs
    are precomputed at lowering time instead of re-derived per block, and
    all ``fl`` bit planes are packed in one vectorized call instead of
    ``fl`` separate ones.

    Prediction dispatches through the plan's registered block-local
    predictor (``plan.predictor``); the default ``lorenzo1d`` performs the
    exact first-difference arithmetic the stepped path's ``lorenzo``
    sub-stage does. Other predictors keep the ``lorenzo`` cost entry: the
    cycle model prices "the prediction sub-stage", and every block-local
    predictor is the same O(block) pass.
    """
    block_size = plan.block_size
    eps = plan.eps
    pred = get_predictor(plan.predictor)
    fixed_costs = (
        ("multiplication", model.multiplication.cycles(block_size)),
        ("addition", model.addition.cycles(block_size)),
        ("lorenzo", model.lorenzo.cycles(block_size)),
        ("sign", model.sign.cycles(block_size)),
        ("max", model.max.cycles(block_size)),
        ("get_length", model.get_length.cycles(block_size)),
    )
    per_bit = model.bit_shuffle.cycles(block_size, 1)
    # Accounting plans memoized per fixed length: the stepped path spends
    # int(round(cost)) per stage, so the batched spend is the sum of the
    # per-stage roundings (NOT round-of-sum) and the stage breakdown keeps
    # the raw per-stage floats.
    acct: dict[int, tuple[int, tuple[tuple[str, float], ...]]] = {}

    def _acct_for(fl: int) -> tuple[int, tuple[tuple[str, float], ...]]:
        plan_ = acct.get(fl)
        if plan_ is None:
            items = fixed_costs + tuple(
                (f"shuffle_bit_{k}", per_bit) for k in range(fl)
            )
            spend = sum(int(round(cost)) for _, cost in items)
            plan_ = acct[fl] = (spend, items)
        return plan_

    def compress(ctx: TaskContext) -> bytes:
        record, fl = _encode_record(ctx.buffer("inbox"), eps, pred)
        spend, items = _acct_for(fl)
        ctx.spend(spend)
        nc.add_stages(items)
        return record

    return compress


def _encode_record(vals: np.ndarray, eps: float, pred) -> tuple[bytes, int]:
    """One block's wafer record and its fixed length.

    quantize -> predict -> sign-pack -> fl -> plane-pack: the 4-byte fl
    header (the wafer's 32-bit message), sign bytes, then bit planes
    0..fl-1, little-endian packing within bytes. The fused kernel and the
    host fallback both encode through here, so the two cannot drift apart.
    """
    codes = np.floor(vals / (2.0 * eps) + 0.5)
    residuals = pred.predict_blocks(codes[None, :])[0]
    signs = np.packbits(
        (residuals < 0).reshape(-1, 8), axis=-1, bitorder="little"
    )
    mags = np.abs(residuals)
    fl = int(mags.max()).bit_length()
    header = fl.to_bytes(CERESZ_HEADER_BYTES, "little")
    if fl == 0:
        return header, 0
    imags = mags.astype(np.int64)
    ks = np.arange(fl, dtype=np.int64)
    bits = ((imags[None, :] >> ks[:, None]) & 1).astype(np.uint8)
    planes = np.packbits(bits.reshape(fl, -1, 8), axis=-1, bitorder="little")
    return header + signs.tobytes() + planes.tobytes(), fl


def host_block_records(
    raw_blocks,
    eps: float,
    indices,
    *,
    predictor: str = "lorenzo1d",
) -> dict[int, bytes]:
    """Wafer-identical compressed records computed on the host.

    The degraded-mode fallback's encoder: given the raw (zero-padded)
    blocks a plan's feeds were built from, produce the exact record bytes
    the fused wafer kernel (:func:`_make_fast_compress`) would have
    emitted for ``indices`` — including the feed's float32 wire cast
    (ingest sends ``float32`` wavelets into ``float64`` buffers, which is
    lossy for raw float64 data and therefore part of the byte contract).
    Keyed by block index, so the result merges straight into
    :attr:`repro.core.mapping.ProgramOutputs.records`.
    """
    pred = get_predictor(predictor)
    out: dict[int, bytes] = {}
    for idx in indices:
        vals = np.asarray(raw_blocks[int(idx)], dtype=np.float64)
        vals = vals.astype(np.float32).astype(np.float64)
        out[int(idx)] = _encode_record(vals, eps, pred)[0]
    return out


def _make_run_group(
    group,
    out_color: Color | None,
    my: list[int],
    box: dict,
    plan: MappingPlan,
    model: CycleModel,
    outputs: ProgramOutputs,
    nc: NodeCounters,
):
    """One Algorithm-1 stage group: run, then emit or forward the state.

    Idle shuffle bits cost one task dispatch (the schedule planned them;
    the PE still wakes for them) but never enter the state machine.
    """
    eps = plan.eps
    block_size = plan.block_size
    state_len = plan.state_len

    def run_group(ctx: TaskContext, state: PipelineState) -> PipelineState:
        for stage in group:
            if _is_idle_shuffle(stage, state.fl):
                ctx.spend(model.task_dispatch)
                nc.add_stage(stage.name, model.task_dispatch)
                continue
            state = run_substage(stage, state, eps)
            cost = substage_cycles(stage, state.fl, model, block_size)
            ctx.spend(cost)
            nc.add_stage(stage.name, cost)
        idx = my[box["done"]]
        box["done"] += 1
        if out_color is None:
            outputs.records[idx] = finalize_record(state)
            nc.blocks_emitted += 1
        else:
            vec = state.to_array()
            padded = np.zeros(state_len, dtype=np.float64)
            padded[: vec.size] = vec
            ctx.spend(model.forward_block_cycles(block_size))
            ctx.send(out_color, padded)
            nc.wavelets_sent += wavelet_count(padded)
        return state

    return run_group


# --- compression nodes -----------------------------------------------------------------


def _lower_compute(
    node: ComputeNode,
    plan: MappingPlan,
    pe,
    engine: Engine,
    cmap: dict[str, Color],
    model: CycleModel,
    outputs: ProgramOutputs,
    nc: NodeCounters,
    fast_kernels: bool,
) -> None:
    """Whole-algorithm-per-PE node (the rows strategy's only worker kind)."""
    block_size = plan.block_size
    c_recv = cmap[node.recv]
    c_go = cmap[node.go]
    my = list(node.blocks)
    stages = compression_substages(64, block_size, model)  # superset plan
    # The stepped sub-stage machine models the paper's 1-D Lorenzo
    # pipeline; any other block-local predictor always runs through the
    # fused kernel, which dispatches on plan.predictor.
    use_fast = fast_kernels or plan.predictor != "lorenzo1d"
    fast = _make_fast_compress(plan, model, nc) if use_fast else None
    progress = {"next": 0}

    def recv(ctx: TaskContext) -> None:
        ctx.mov32(
            Mem1dDsd("inbox"),
            FabinDsd(c_recv, extent=block_size),
            on_complete=c_go,
        )

    def compute(ctx: TaskContext) -> None:
        idx = my[progress["next"]]
        progress["next"] += 1
        if fast is not None:
            outputs.records[idx] = fast(ctx)
        else:
            state = _run_full_compress(
                ctx, stages, plan.eps, block_size, model, nc
            )
            outputs.records[idx] = finalize_record(state)
        nc.blocks_emitted += 1
        if progress["next"] < len(my):
            ctx.activate(c_recv)
        else:
            ctx.halt()

    pe.bind_task(c_recv, Task("recv", recv))
    pe.bind_task(c_go, Task("compute", compute))
    if my:
        engine.schedule_activation(pe, c_recv.id, 0.0)


def _lower_relay(
    node: RelayNode,
    plan: MappingPlan,
    pe,
    engine: Engine,
    cmap: dict[str, Color],
    model: CycleModel,
    outputs: ProgramOutputs,
    nc: NodeCounters,
    fast_kernels: bool,
) -> None:
    """Fig 9 counted relay + compute (multi-pipeline PE or staged head)."""
    block_size = plan.block_size
    c_recv = cmap[node.recv]
    c_send = cmap[node.send]
    c_go = cmap[node.go]
    sched = list(node.schedule)
    my = list(node.blocks)
    box = {"round": 0, "relayed": 0, "done": 0}
    relay_overhead = max(
        0.0, model.relay_block_cycles(block_size) - block_size
    )

    def relay(ctx: TaskContext) -> None:
        rnd = box["round"]
        while rnd < len(sched) and sched[rnd] == (0, None):
            rnd += 1
        box["round"] = rnd
        if rnd >= len(sched):
            ctx.halt()
            return
        to_relay, own = sched[rnd]
        if box["relayed"] < to_relay:
            # Pass one block east untouched (Fig 9 lines 26-28), then
            # re-arm the relay task. The engine charges the wavelet
            # injection when the forward fires; spend only C1's
            # router/queueing overhead here so the per-block relay cost
            # totals exactly C1.
            ctx.mov32(
                FaboutDsd(c_send, extent=block_size),
                FabinDsd(c_recv, extent=block_size),
                on_complete=c_recv,
                relay=True,
            )
            ctx.spend(relay_overhead, relay=True)
            nc.blocks_relayed += 1
            nc.wavelets_sent += block_size
            box["relayed"] += 1
            if box["relayed"] == to_relay and own is None:
                box["round"] += 1
                box["relayed"] = 0
        elif own is not None:
            # This PE's own block of the round (Fig 9 lines 21-23).
            ctx.mov32(
                Mem1dDsd("inbox"),
                FabinDsd(c_recv, extent=block_size),
                on_complete=c_go,
            )
        else:  # pragma: no cover - unreachable by construction
            box["round"] += 1
            box["relayed"] = 0
            ctx.activate(c_recv)

    if node.group is None:
        stages = compression_substages(64, block_size, model)
        # Same rule as _lower_compute: the stepped machine is the 1-D
        # Lorenzo model; other predictors take the fused kernel.
        use_fast = fast_kernels or plan.predictor != "lorenzo1d"
        fast = _make_fast_compress(plan, model, nc) if use_fast else None

        def consume(ctx: TaskContext) -> None:
            idx = my[box["done"]]
            box["done"] += 1
            if fast is not None:
                outputs.records[idx] = fast(ctx)
            else:
                state = _run_full_compress(
                    ctx, stages, plan.eps, block_size, model, nc
                )
                outputs.records[idx] = finalize_record(state)
            nc.blocks_emitted += 1

    else:
        c_out = cmap[node.out] if node.out is not None else None
        run_group = _make_run_group(
            node.group, c_out, my, box, plan, model, outputs, nc
        )

        def consume(ctx: TaskContext) -> None:
            state = PipelineState(
                phase="raw",
                block_size=block_size,
                values=ctx.buffer("inbox").copy(),
            )
            run_group(ctx, state)

    def compute(ctx: TaskContext) -> None:
        consume(ctx)
        box["round"] += 1
        box["relayed"] = 0
        # Keep running while *any* duty remains — own blocks or tail-round
        # relays for PEs east (halting early would starve them, the Fig 9
        # countdown's whole point).
        remaining = any(p != (0, None) for p in sched[box["round"] :])
        if remaining:
            ctx.activate(c_recv)
        else:
            ctx.halt()

    pe.bind_task(c_recv, Task("relay", relay))
    pe.bind_task(c_go, Task("compute", compute))
    if any(p != (0, None) for p in sched):
        engine.schedule_activation(pe, c_recv.id, 0.0)


def _lower_stage(
    node: StageNode,
    plan: MappingPlan,
    pe,
    engine: Engine,
    cmap: dict[str, Color],
    model: CycleModel,
    outputs: ProgramOutputs,
    nc: NodeCounters,
) -> None:
    """One compression stage group, with an optional raw-relay side duty."""
    block_size = plan.block_size
    c_recv = cmap[node.recv]
    c_go = cmap[node.go]
    c_send = cmap[node.send] if node.send is not None else None
    extent = block_size if node.first else plan.state_len
    my = list(node.blocks)
    box = {"done": 0}
    run_group = _make_run_group(
        node.group, c_send, my, box, plan, model, outputs, nc
    )

    def recv(ctx: TaskContext) -> None:
        ctx.mov32(
            Mem1dDsd("stage_in"),
            FabinDsd(c_recv, extent=extent),
            on_complete=c_go,
        )

    def load_state(ctx: TaskContext) -> PipelineState:
        raw = ctx.buffer("stage_in")
        if node.first:
            return PipelineState(
                phase="raw", block_size=block_size, values=raw.copy()
            )
        return PipelineState.from_array(raw)

    if node.relay is None:

        def compute(ctx: TaskContext) -> None:
            run_group(ctx, load_state(ctx))
            if box["done"] < len(my):
                ctx.activate(c_recv)
            else:
                ctx.halt()

        pe.bind_task(c_recv, Task("recv", recv))
        pe.bind_task(c_go, Task("compute", compute))
        if my:
            engine.schedule_activation(pe, c_recv.id, 0.0)
        return

    # Stage PE with a raw pass-through duty for pipelines east of it.
    recv_raw_name, send_raw_name, total = node.relay
    c_recv_raw = cmap[recv_raw_name]
    c_send_raw = cmap[send_raw_name]
    rbox = {"relayed": 0}
    relay_overhead = max(
        0.0, model.relay_block_cycles(block_size) - block_size
    )

    def raw_relay(ctx: TaskContext) -> None:
        if rbox["relayed"] >= total:
            return
        ctx.mov32(
            FaboutDsd(c_send_raw, extent=block_size),
            FabinDsd(c_recv_raw, extent=block_size),
            on_complete=(c_recv_raw if rbox["relayed"] + 1 < total else None),
            relay=True,
        )
        ctx.spend(relay_overhead, relay=True)
        nc.blocks_relayed += 1
        nc.wavelets_sent += block_size
        rbox["relayed"] += 1

    def compute(ctx: TaskContext) -> None:
        run_group(ctx, load_state(ctx))
        if box["done"] < len(my):
            ctx.activate(c_recv)
        # Never halts: a raw relay for an eastern pipeline may still be in
        # flight through this PE.

    pe.bind_task(c_recv_raw, Task("raw_relay", raw_relay))
    pe.bind_task(c_recv, Task("recv_state", recv))
    pe.bind_task(c_go, Task("compute", compute))
    if total:
        engine.schedule_activation(pe, c_recv_raw.id, 0.0)
    if my:
        engine.schedule_activation(pe, c_recv.id, 0.0)


# --- decompression nodes ---------------------------------------------------------------


def _make_decompress_process(
    group,
    out_color: Color | None,
    rearm_color: Color,
    my: list[int],
    box: dict,
    plan: MappingPlan,
    model: CycleModel,
    outputs: DecompressOutputs,
    nc: NodeCounters,
):
    """One reverse stage group: run, then emit the block or forward state."""
    eps = plan.eps
    block_size = plan.block_size
    state_len = plan.state_len

    def process(ctx: TaskContext, state: DecompressState) -> None:
        for stage in group:
            if stage.name.startswith("unshuffle_bit_"):
                k = int(stage.name.rsplit("_", 1)[1])
                if k >= state.fl:
                    ctx.spend(model.task_dispatch)
                    nc.add_stage(stage.name, model.task_dispatch)
                    continue
            if state.fl == 0 and stage.name in ("sign_restore",):
                ctx.spend(model.task_dispatch)
                nc.add_stage(stage.name, model.task_dispatch)
                continue
            if state.phase == "signed" and stage.name.startswith("unshuffle"):
                ctx.spend(model.task_dispatch)
                nc.add_stage(stage.name, model.task_dispatch)
                continue
            state = run_decompress_substage(stage, state, eps)
            ctx.spend(stage.cycles)
            nc.add_stage(stage.name, stage.cycles)
        idx = my[box["done"]]
        box["done"] += 1
        if out_color is None:
            outputs.blocks[idx] = finalize_decompressed(state)
            nc.blocks_emitted += 1
        else:
            vec = state.to_array()
            padded = np.zeros(state_len, dtype=np.float64)
            padded[: vec.size] = vec
            ctx.spend(model.forward_block_cycles(block_size))
            ctx.send(out_color, padded)
            nc.wavelets_sent += wavelet_count(padded)
        if box["done"] < len(my):
            ctx.activate(rearm_color)
        else:
            ctx.halt()

    return process


def _lower_header(
    node: HeaderNode,
    plan: MappingPlan,
    pe,
    engine: Engine,
    cmap: dict[str, Color],
    model: CycleModel,
    outputs: DecompressOutputs,
    nc: NodeCounters,
) -> None:
    """Two-phase header/body receive, then whole-block decode or group 0."""
    block_size = plan.block_size
    eps = plan.eps
    sign_words = block_size // 32
    c_in = cmap[node.recv]
    c_hdr = cmap[node.hdr]
    c_body = cmap[node.body]
    my = list(node.blocks)
    box = {"done": 0}

    if node.group is None:

        def decode_and_emit(
            ctx: TaskContext, fl: int, words: np.ndarray | None
        ) -> None:
            idx = my[box["done"]]
            box["done"] += 1
            zero = fl == 0
            for stage in decompression_substages(fl, block_size, model):
                if zero and not stage.name.startswith("dequant"):
                    continue  # zero path: flag + dequant only
                ctx.spend(stage.cycles)
                nc.add_stage(stage.name, stage.cycles)
            if zero:
                cost = model.zero_flag.cycles(block_size)
                ctx.spend(cost)
                nc.add_stage("zero_flag", cost)
            outputs.blocks[idx] = decode_block_from_words(
                fl, words, eps, block_size
            )
            nc.blocks_emitted += 1
            if box["done"] < len(my):
                ctx.activate(c_in)
            else:
                ctx.halt()

    else:
        c_send = cmap[node.send] if node.send is not None else None
        process = _make_decompress_process(
            node.group, c_send, c_in, my, box, plan, model, outputs, nc
        )

        def decode_and_emit(
            ctx: TaskContext, fl: int, words: np.ndarray | None
        ) -> None:
            state = DecompressState.from_record(fl, words, block_size)
            process(ctx, state)

    def recv_header(ctx: TaskContext) -> None:
        ctx.mov32(
            Mem1dDsd("hdr"), FabinDsd(c_in, extent=1), on_complete=c_hdr
        )

    def on_header(ctx: TaskContext) -> None:
        fl = int(ctx.buffer("hdr")[0])
        if fl == 0:
            # Zero block: no body follows; decode is trivial.
            decode_and_emit(ctx, 0, None)
        else:
            ctx.mov32(
                Mem1dDsd("body", length=sign_words * (1 + fl)),
                FabinDsd(c_in, extent=sign_words * (1 + fl)),
                on_complete=c_body,
            )

    def on_body(ctx: TaskContext) -> None:
        fl = int(ctx.buffer("hdr")[0])
        words = (
            ctx.buffer("body")[: sign_words * (1 + fl)]
            .astype(np.uint32)
            .copy()
        )
        decode_and_emit(ctx, fl, words)

    pe.bind_task(c_in, Task("recv_header", recv_header))
    pe.bind_task(c_hdr, Task("on_header", on_header))
    pe.bind_task(c_body, Task("on_body", on_body))
    if my:
        engine.schedule_activation(pe, c_in.id, 0.0)


def _lower_decompress_stage(
    node: StageNode,
    plan: MappingPlan,
    pe,
    engine: Engine,
    cmap: dict[str, Color],
    model: CycleModel,
    outputs: DecompressOutputs,
    nc: NodeCounters,
) -> None:
    """A non-head decompression pipeline PE: receive state, run group."""
    c_recv = cmap[node.recv]
    c_go = cmap[node.go]
    c_send = cmap[node.send] if node.send is not None else None
    state_len = plan.state_len
    my = list(node.blocks)
    box = {"done": 0}
    process = _make_decompress_process(
        node.group, c_send, c_recv, my, box, plan, model, outputs, nc
    )

    def recv_state(ctx: TaskContext) -> None:
        ctx.mov32(
            Mem1dDsd("stage_in"),
            FabinDsd(c_recv, extent=state_len),
            on_complete=c_go,
        )

    def on_state(ctx: TaskContext) -> None:
        process(ctx, DecompressState.from_array(ctx.buffer("stage_in")))

    pe.bind_task(c_recv, Task("recv_state", recv_state))
    pe.bind_task(c_go, Task("on_state", on_state))
    if my:
        engine.schedule_activation(pe, c_recv.id, 0.0)
