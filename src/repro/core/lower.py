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
duty, and the serialized state forwarding of Fig 6's pipelines (the
:class:`~repro.core.mapping.PipelineState` and
:class:`~repro.core.mapping_decompress.DecompressState` wire layouts). The
one intentional unification: idle shuffle sub-stages (bit index >= the
block's fixed length) are charged one task dispatch and skipped without
entering the state machine, for every pipeline variant — the charge is
identical to what ``run_substage`` on an idle bit cost, and the serialized
phase difference ("lengthed" vs "encoded") is invisible to both downstream
stage groups and record finalization.

The counted relay itself lives in the engine: a relay task posts one
``mov32(..., count=k)`` per round (a staged interior PE one for its whole
raw pass-through duty), and the engine forwards the ``k`` blocks, charging
each exactly what a per-block relay task did — see "Relay trains" in
:mod:`repro.wse.engine`. The lowering keeps no per-block relay state.
Likewise every PE whose only duty is a loop of receive and compute (the
rows strategy's ComputeNode, pipeline StageNodes in both directions)
posts one receive train, ``mov32(buffer, fabin, on_complete=go,
count=k)``, and its go task no longer re-arms: the engine re-posts the
receive after each block ("Receive trains"). The decode HeaderNode's
two-phase header/body receive is a record train (``body=`` the body
completion color): the engine re-posts its header receive after each
record. Staged StageNodes (which also relay raw blocks) and RelayNodes
keep their re-arming tasks.

Instrumentation: every lowered node counts blocks relayed, wavelets sent,
blocks emitted, and busy cycles per sub-stage into its
:class:`~repro.wse.trace.NodeCounters` (relayed blocks through the relay
train, which counts each block as it starts), which the engine's trace
recorder aggregates for the per-stage validation breakdowns.

Fused kernels: no node steps the per-sub-stage state machine by default.

* Whole-block compression (the rows strategy's ComputeNode, the
  multi-pipeline RelayNode with no stage group) packs all ``fl`` bit
  planes in one vectorized call (:func:`_make_fast_compress`).
* Every pipelined stage group, in both directions (compress StageNodes,
  the staged RelayNode head, the decompress HeaderNode head and
  StageNodes), runs one kernel per Algorithm-1 group
  (:func:`_make_fused_group`, :func:`_make_fused_decode`). It reads the
  received state vector in place through the same header checks as
  ``from_array``, runs the group's contiguous sub-stage run in a few
  vectorized operations, and writes the outgoing state vector directly in
  the wire layout.
* Both group kernels are row-vectorized: each computes over an
  ``m x state_len`` stack of received blocks (all of the above, row by
  row, in one set of numpy calls; the decode head's over a stack of
  records) and returns every row's charge and stage items and the rows'
  payload (forwarded states, records or decoded values). A kernel reads
  no per-PE state, so one is built per distinct (group, entry, tail) and
  shared by every PE that runs it; each PE adds its epilogue
  (:func:`_make_emit`). The one-block task body is the one-row call,
  charged and emitted through its task context; a ready receive train
  hands the kernel its whole run (the task's run form,
  :attr:`repro.wse.pe.Task.run`), and the engine commits the returned
  :class:`~repro.wse.pe.RunCommit` in one pass, each row at its own
  cycles ("Run commits" in :mod:`repro.wse.engine`). A row that cannot
  finalize or forward runs through the task body, which raises; a stack
  with a row that fails a header or phase check is declined, and the
  engine takes that run block by block. Either way the error is raised at
  the same block.
* Whole-block decode (the rows decompression HeaderNode) looks its
  accounting up per fixed length.

Every kernel replays the stepped path's accounting exactly: one
``ctx.spend`` of the sum of the per-stage roundings and one
``NodeCounters.add_stages`` call with the same entries, memoized per fixed
length (stage groups also key on the entry phase, so a corrupted state
still fails with the stepped path's phase-order ``CompressionError``).
Makespans, stage breakdowns, stream bytes and decoded values are
bit-identical while the per-block Python overhead (state objects rebuilt
at every hop, per-sub-stage name dispatch, phase checks) disappears.
``lower_plan(..., fast_kernels=False)`` keeps the stepped machines
(``run_substage``, ``run_decompress_substage`` and both state classes) as
the fused kernels' named oracle: ``tests/core/test_simulate_parallel.py``
lowers every strategy in both directions both ways and asserts identical
output, makespan, tasks, events, per-PE traces and per-stage counters, and
``tests/core/test_fused_groups.py`` chains the group kernels over random
splits against the stepped machines, hop by hop, one block at a time and
as stacks of mixed fixed lengths through the run form. The stepped groups
have no run form, so a receive train takes their runs block by block
through the task body: the same events, charged the same way. The
degraded-mode host
fallback (:func:`host_block_records`) encodes through the same record
encoder as the fused whole-block kernel.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, NamedTuple

import numpy as np

from repro.core.mapping import (
    PHASES,
    PipelineState,
    ProgramOutputs,
    finalize_record,
    run_substage,
    state_headers,
    substage_cycles,
)
from repro.core.mapping_decompress import (
    DECODE_PHASES,
    DecompressOutputs,
    DecompressState,
    decode_block_from_words,
    decode_state_header,
    decode_state_headers,
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
from repro.errors import CompressionError, ScheduleError
from repro.wse.color import Color, ColorAllocator
from repro.wse.cost import CycleModel, PAPER_CYCLE_MODEL
from repro.wse.dsd import FabinDsd, FaboutDsd, Mem1dDsd
from repro.wse.engine import Engine
from repro.wse.fabric import Fabric
from repro.wse.pe import RunCommit, Task, TaskContext
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
    fast_kernels: bool = True,
    tracer=None,
) -> LoweredProgram:
    """Compile ``plan`` onto ``fabric``/``engine``; returns the live outputs.

    Deterministic by construction: colors, routes, buffers, task bindings,
    activations, and feed injections all follow plan declaration order, so
    two lowerings of the same plan produce identical event schedules.

    ``fast_kernels`` selects the fused kernels (whole-block compression,
    every pipelined stage group in both directions, and the whole-block
    decode accounting); ``False`` runs the stepped sub-stage machines,
    their oracle (see the module docstring). Results are identical either
    way.

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
                plan, fabric, engine, model=model, fast_kernels=fast_kernels
            )
    return _lower_plan(
        plan, fabric, engine, model=model, fast_kernels=fast_kernels
    )


def _lower_plan(
    plan: MappingPlan,
    fabric: Fabric,
    engine: Engine,
    *,
    model: CycleModel,
    fast_kernels: bool,
) -> LoweredProgram:
    plan.validate()
    if plan.rows > fabric.rows or plan.cols > fabric.cols:
        raise ScheduleError(
            f"plan needs a {plan.rows}x{plan.cols} mesh, fabric is "
            f"{fabric.rows}x{fabric.cols}"
        )
    allocator = ColorAllocator()
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

    kernels: dict = {}  # fused group kernels, shared across PEs
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
                node, plan, pe, engine, cmap, model, outputs, nc, fast_kernels,
                kernels,
            )
        elif isinstance(node, StageNode):
            if plan.direction == "compress":
                lower_stage = _lower_stage
            else:
                lower_stage = _lower_decompress_stage
            lower_stage(
                node, plan, pe, engine, cmap, model, outputs, nc, fast_kernels,
                kernels,
            )
        elif isinstance(node, HeaderNode):
            _lower_header(
                node, plan, pe, engine, cmap, model, outputs, nc, fast_kernels,
                kernels,
            )
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


def _batched(items) -> tuple[int, tuple[tuple[str, float], ...]]:
    """One block's batched accounting: ``(ctx.spend cycles, add_stages items)``.

    The stepped path spends ``int(round(cost))`` per stage, so the batched
    spend is the sum of the per-stage roundings (NOT round-of-sum), and the
    stage breakdown keeps the raw per-stage floats in stage order.
    """
    items = tuple(items)
    return sum(int(round(cost)) for _, cost in items), items


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

    @functools.cache
    def accounting(fl: int) -> tuple[int, tuple[tuple[str, float], ...]]:
        return _batched(
            fixed_costs
            + tuple((f"shuffle_bit_{k}", per_bit) for k in range(fl))
        )

    def compress(ctx: TaskContext) -> bytes:
        record, fl = _encode_record(ctx.buffer("inbox"), eps, pred)
        spend, items = accounting(fl)
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


_FIXED_STAGES = (
    "multiplication", "addition", "lorenzo", "sign", "max", "get_length"
)
_DECODE_TAIL = ("sign_restore", "prefix_sum", "dequant_mult")
_LENGTHED = PHASES.index("lengthed")
_ENCODED = PHASES.index("encoded")
_HAS_SIGNS = PHASES.index("mags")  # "mags" and every later phase


def _split_group(
    group, words: tuple[str, ...], prefix: str, *, bits_first: bool
) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """A stage group's named sub-stages and its bit indices, in order.

    Algorithm 1 fills groups with contiguous runs of the canonical
    sub-stage sequence (``words`` then bits ``0..``, or bits then ``words``
    for decompression); the fused kernels rely on that shape, so any other
    group is rejected at lowering time.
    """
    names = tuple(s.name for s in group)
    ks = tuple(int(n[len(prefix):]) for n in names if n.startswith(prefix))
    bits = [f"{prefix}{k}" for k in range(max(ks, default=-1) + 1)]
    seq = bits + list(words) if bits_first else list(words) + bits
    start = seq.index(names[0]) if names and names[0] in seq else -1
    if start < 0 or tuple(seq[start : start + len(names)]) != names:
        raise ScheduleError(
            f"stage group {list(names)} is not a contiguous run of the "
            f"sub-stage sequence"
        )
    return tuple(n for n in names if not n.startswith(prefix)), ks


def _make_emit(
    out_color: Color | None,
    halts: bool,
    my: list[int],
    box: dict,
    plan: MappingPlan,
    model: CycleModel,
    store: dict,
    nc: NodeCounters,
):
    """A stage group's epilogue on one PE: store the block's result or
    forward it.

    ``store`` is the outputs' record or decoded-block dict. Forwarded
    states are always ``state_len`` float64 vectors. With ``halts`` the
    task halts after its last block. Returns ``(emit, commit)``:
    ``emit(ctx, result)`` ends one block's task, and ``commit(rows)`` turns
    a group kernel's :class:`_Rows` into the run form's
    :class:`~repro.wse.pe.RunCommit`, whose rows charge, book and send
    exactly what ``emit`` after the kernel's charges does.
    """
    forward = model.forward_block_cycles(plan.block_size)
    wavelets = wavelet_count(np.zeros(plan.state_len, dtype=np.float64))

    def emit(ctx: TaskContext, result) -> None:
        idx = my[box["done"]]
        box["done"] += 1
        if out_color is None:
            store[idx] = result
            nc.blocks_emitted += 1
        else:
            ctx.spend(forward)
            ctx.send(out_color, result)
            nc.wavelets_sent += wavelets
        if halts and box["done"] == len(my):
            ctx.halt()

    def commit(rows: _Rows) -> RunCommit:
        items, payload = rows.items, rows.payload

        def book(lo: int, hi: int) -> bool:
            add = nc.add_stages
            for r in range(lo, hi):
                add(items[r])
            done = box["done"]
            box["done"] = done + hi - lo
            if out_color is None:
                for r in range(lo, hi):
                    store[my[done + r - lo]] = payload[r]
                nc.blocks_emitted += hi - lo
            else:
                nc.wavelets_sent += wavelets * (hi - lo)
            return halts and box["done"] == len(my)

        if out_color is None:
            return RunCommit(rows.spends, rows.ok, book)
        spend = int(round(forward))
        return RunCommit(
            [s + spend for s in rows.spends], rows.ok, book, out_color,
            payload,
        )

    return emit, commit


class _Rows(NamedTuple):
    """A fused group kernel's result for an ``m``-row stack."""

    spends: list[int]  # each row's charge before its epilogue
    items: list  # each row's stage items (``NodeCounters.add_stages``)
    #: Forwarded states (``m x state_len``), or the rows' records or
    #: decoded values (the first ``ok`` at least).
    payload: object
    ok: int  # rows before the first that cannot finalize or forward
    fail: Callable[[int], None]  # raises that row's error


def _shared(kernels: dict | None, key: tuple, build: Callable):
    """The group kernel ``build()`` makes, built once per ``key`` (group,
    entry, tail) in ``kernels``: it reads no per-PE state, so every PE
    running the group shares it."""
    if kernels is None:
        return build()
    kernel = kernels.get(key)
    if kernel is None:
        kernel = kernels[key] = build()
    return kernel


def _wire_vector(state_len: int, header: tuple, parts) -> np.ndarray:
    """A forwarded state: ``header`` then ``parts`` back to back, zero-padded
    to ``state_len`` — the ``to_array`` layout of both state classes.

    The sliced writes raise exactly when ``to_array``'s concatenation would
    overflow the padding, as the stepped path's padding does.
    """
    vec = np.zeros(state_len, dtype=np.float64)
    at = len(header)
    vec[:at] = header
    for part in parts:
        vec[at : at + part.size] = part
        at += part.size
    return vec


def _padded(vec: np.ndarray, state_len: int) -> np.ndarray:
    """The stepped path's forwarded state: ``vec`` zero-padded."""
    padded = np.zeros(state_len, dtype=np.float64)
    padded[: vec.size] = vec
    return padded


def _make_stepped_group(
    group,
    source: str,
    first: bool,
    out_color: Color | None,
    my: list[int],
    box: dict,
    plan: MappingPlan,
    model: CycleModel,
    outputs: ProgramOutputs,
    nc: NodeCounters,
    halts: bool,
):
    """One Algorithm-1 stage group stepped through the state machine.

    The fused group kernel's oracle. The block enters as raw values
    (``first``) or as the serialized state in buffer ``source``. Idle
    shuffle bits cost one task dispatch (the schedule planned them; the PE
    still wakes for them) but never enter the state machine. Returns the
    task body and no run form (a receive train takes its runs block by
    block through the body).
    """
    eps = plan.eps
    block_size = plan.block_size
    state_len = plan.state_len
    emit, _ = _make_emit(
        out_color, halts, my, box, plan, model, outputs.records, nc
    )

    def run_group(ctx: TaskContext) -> None:
        raw = ctx.buffer(source)
        if first:
            state = PipelineState(
                phase="raw", block_size=block_size, values=raw.copy()
            )
        else:
            state = PipelineState.from_array(raw)
        for stage in group:
            if _is_idle_shuffle(stage, state.fl):
                ctx.spend(model.task_dispatch)
                nc.add_stage(stage.name, model.task_dispatch)
                continue
            state = run_substage(stage, state, eps)
            cost = substage_cycles(stage, state.fl, model, block_size)
            ctx.spend(cost)
            nc.add_stage(stage.name, cost)
        if out_color is None:
            emit(ctx, finalize_record(state))
        else:
            emit(ctx, _padded(state.to_array(), state_len))

    return run_group, None


def _make_fused_group(
    group,
    source: str,
    first: bool,
    out_color: Color | None,
    my: list[int],
    box: dict,
    plan: MappingPlan,
    model: CycleModel,
    outputs: ProgramOutputs,
    nc: NodeCounters,
    halts: bool,
    kernels: dict | None = None,
):
    """One Algorithm-1 stage group as a single fused, row-vectorized kernel.

    Same inputs, outputs and accounting as :func:`_make_stepped_group`.
    The kernel (:func:`_group_kernel`, shared through ``kernels`` by every
    PE that runs the same group) computes a whole stack of blocks; this PE
    adds the epilogue (:func:`_make_emit`).

    Returns ``(run_group, run)``: the one-block task body, which is the
    one-row call on buffer ``source`` and charges, stores or forwards the
    block through its task context, and the run form of a receive train's
    go task (:attr:`repro.wse.pe.Task.run`), which returns the stack's
    :class:`~repro.wse.pe.RunCommit` or declines a stack that fails a
    header or phase check, so that the run goes block by block and raises
    the same ``CompressionError`` at the same block.
    """
    compute = _shared(
        kernels,
        (group, first, out_color is None),
        lambda: _group_kernel(group, first, out_color is None, plan, model),
    )
    emit, commit = _make_emit(
        out_color, halts, my, box, plan, model, outputs.records, nc
    )

    def run_group(ctx: TaskContext) -> None:
        rows = compute(ctx.buffer(source)[None, :])
        ctx.spend(rows.spends[0])
        nc.add_stages(rows.items[0])
        if not rows.ok:
            rows.fail(0)
        emit(ctx, rows.payload[0])

    def run(stack: np.ndarray) -> RunCommit | None:
        try:
            return commit(compute(stack))
        except CompressionError:
            return None

    return run_group, run


def _group_kernel(
    group, first: bool, last: bool, plan: MappingPlan, model: CycleModel
):
    """The fused compression kernel of one stage group: ``compute(stack)``
    returns the :class:`_Rows` of an ``m x extent`` stack of blocks.

    The states are read in place through
    :func:`~repro.core.mapping.state_headers` (the checks of
    ``PipelineState.from_array``, per row); the group's fixed sub-stages
    run in order over the whole stack and its live shuffle bits are packed
    in one vectorized call; and the outgoing states are written straight
    into an ``m x state_len`` matrix in the ``PipelineState.to_array``
    layout (header, values, sign bytes, planes), or, at the tail
    (``last``), into each row's record. Each row's charge is one
    ``spend``/``add_stages`` pair, memoized per (phase, fl) at the group's
    shuffle run. A row that fails a header or phase check raises
    ``CompressionError``.
    """
    fixed, ks = _split_group(
        group, _FIXED_STAGES, "shuffle_bit_", bits_first=False
    )
    two_eps = 2.0 * plan.eps
    block_size = plan.block_size
    state_len = plan.state_len
    entry = _FIXED_STAGES.index(fixed[0]) if fixed else -1
    (mult, add, lorenzo, sign, maxed, length) = (
        name in fixed for name in _FIXED_STAGES
    )
    fixed_items = tuple(
        (s.name, s.cycles) for s in group if s.name in _FIXED_STAGES
    )
    fixed_acct = _batched(fixed_items)
    per_bit = model.bit_shuffle.cycles(block_size, 1)
    dispatch = model.task_dispatch
    shifts = np.array(ks, dtype=np.int64)[:, None]

    @functools.cache
    def shuffle_run(phase: int, fl: int | None):
        """(spend, items, live bits) for the shuffle run, or an error.

        Live bits (k < fl) precede idle ones, so only the run's first
        sub-stage can fail its phase check, before anything is charged.
        """
        head = f"shuffle_bit_{ks[0]}"
        if fl is None or ks[0] < fl:
            if phase not in (_LENGTHED, _ENCODED):
                return f"{head} applied to {PHASES[phase]}"
            if fl is None:
                return f"{head} applied to a block with no length"
        spend, items = _batched(
            fixed_items
            + tuple(
                (f"shuffle_bit_{k}", per_bit if k < fl else dispatch)
                for k in ks
            )
        )
        return spend, items, sum(k < fl for k in ks)

    def compute(stack: np.ndarray) -> _Rows:
        m = len(stack)
        if first:
            bs, values = block_size, stack
            phases, mags, fls, bits = [0] * m, [None] * m, [None] * m, [0] * m
        else:
            phases, bs, mags, fls, bits = state_headers(stack)
            values = stack[:, 5 : 5 + bs]
        sb = bs // 8
        width = state_len - 5 - bs  # a forwarded state's bytes after values
        # Sign bytes (a row's own only from the "mags" phase on), then the
        # planes shuffled so far: per row ``dones`` bytes, read in one cast.
        dones = [sb * (1 + b) for b in bits]
        has_signs = [p >= _HAS_SIGNS for p in phases]
        tail = None
        if not first:
            tail = stack[:, 5 + bs : 5 + bs + max(dones)].astype(np.uint8)
        signs = maxes = None
        if fixed:
            bad = next((p for p in phases if p != entry), None)
            if bad is not None:
                raise CompressionError(f"{fixed[0]} applied to {PHASES[bad]}")
            if mult:
                values = values / two_eps
            if add:
                values = np.floor(values + 0.5)
            if lorenzo:
                out = values.copy()
                out[:, 1:] -= values[:, :-1]
                values = out
            if sign:
                signs = np.packbits(
                    (values < 0).reshape(m, sb, 8), axis=-1, bitorder="little"
                ).reshape(m, sb)
                values = np.abs(values)
                has_signs = [True] * m
            if maxed:
                maxes = values.max(axis=1)
                mags = [int(v) for v in maxes.tolist()]
            if length:
                fls = [int(g).bit_length() for g in mags]
            phases = [entry + len(fixed)] * m
        if ks:
            runs = [shuffle_run(p, f) for p, f in zip(phases, fls)]
            bad = next((r for r in runs if isinstance(r, str)), None)
            if bad is not None:
                raise CompressionError(bad)
            spends, items, lives = zip(*runs)
        else:
            spends, items, lives = zip(*[(*fixed_acct, 0)] * m)
        # Every row's outgoing bytes after its values: sign bytes, the
        # planes shuffled before, this group's live planes, zero padding.
        ends = [d + sb * n for d, n in zip(dones, lives)]
        tails = np.zeros((m, max(max(ends), width)), dtype=np.uint8)
        if tail is not None:
            tails[:, : tail.shape[1]] = tail
            if min(dones) < tail.shape[1]:  # drop what follows a row's planes
                tails[:, sb : tail.shape[1]] *= (
                    np.arange(sb, tail.shape[1]) < np.array(dones)[:, None]
                )
        if signs is not None:
            tails[:, :sb] = signs
        elif not all(has_signs):
            tails[:, :sb] *= np.array(has_signs)[:, None]
        top = max(lives)
        if top:
            # Live bits follow the planes of every earlier group, so each
            # row with live bits appends them at the same byte.
            at = {d for d, n in zip(dones, lives) if n}
            if len(at) > 1:
                raise CompressionError(
                    "pipeline state rows disagree on the planes shuffled"
                )
            (at,) = at
            planes = np.packbits(
                (values.astype(np.int64)[:, None, :] >> shifts[:top]) & 1 == 1,
                axis=-1,
                bitorder="little",
            ).reshape(m, top * sb)
            if min(lives) < top:
                planes *= np.arange(top * sb) < sb * np.array(lives)[:, None]
            tails[:, at : at + top * sb] |= planes
            for r, n in enumerate(lives):
                if n:
                    bits[r] += n
                    if bits[r] >= fls[r]:
                        phases[r] = _ENCODED
        if last:
            # A record needs its length and sign bytes.
            ok = m
            if None in fls or not all(has_signs):
                ok = next(
                    r for r in range(m) if fls[r] is None or not has_signs[r]
                )
            records = []
            for r in range(ok):
                record = int(fls[r]).to_bytes(CERESZ_HEADER_BYTES, "little")
                if fls[r]:
                    record += tails[r, : ends[r]].tobytes()
                records.append(record)

            def fail(r: int) -> None:
                raise CompressionError(
                    f"cannot finalize a block in phase "
                    f"{PHASES[phases[r]]!r}"
                )

            return _Rows(spends, items, records, ok, fail)
        wire = None
        ok = 0
        if width >= 0:
            ok = m
            if max(ends) > width:
                ok = next(r for r, end in enumerate(ends) if end > width)
            wire = np.empty((m, state_len))
            wire[:, 0] = phases
            wire[:, 1] = bs
            if maxes is not None:
                wire[:, 2] = np.trunc(maxes)  # int() of each, as float
            else:
                wire[:, 2] = -1.0 if first else stack[:, 2]
            if length:
                wire[:, 3] = fls
            else:
                wire[:, 3] = -1.0 if first else stack[:, 3]
            wire[:, 4] = bits
            wire[:, 5 : 5 + bs] = values
            wire[:, 5 + bs :] = tails[:, :width]

        def fail(r: int) -> None:  # raises where the one-block write would
            header = (
                phases[r],
                bs,
                -1 if mags[r] is None else mags[r],
                -1 if fls[r] is None else fls[r],
                bits[r],
            )
            _wire_vector(state_len, header, (values[r], tails[r, : ends[r]]))

        return _Rows(spends, items, wire, ok, fail)

    return compute


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
    # The stepped sub-stage machine models the paper's 1-D Lorenzo
    # pipeline; any other block-local predictor always runs through the
    # fused kernel, which dispatches on plan.predictor.
    use_fast = fast_kernels or plan.predictor != "lorenzo1d"
    fast = _make_fast_compress(plan, model, nc) if use_fast else None
    stages = (  # the stepped path's superset plan
        None if use_fast else compression_substages(64, block_size, model)
    )
    progress = {"next": 0}
    # DSDs are immutable descriptors: build them once, not per block.
    inbox, fabin = Mem1dDsd("inbox"), FabinDsd(c_recv, extent=block_size)

    def recv(ctx: TaskContext) -> None:
        # One receive train for all of the PE's blocks (see "Receive
        # trains" in repro.wse.engine): the engine re-posts after compute.
        ctx.mov32(inbox, fabin, on_complete=c_go, count=len(my))

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
        if progress["next"] == len(my):
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
    kernels: dict,
) -> None:
    """Fig 9 counted relay + compute (multi-pipeline PE or staged head)."""
    block_size = plan.block_size
    c_recv = cmap[node.recv]
    c_send = cmap[node.send]
    c_go = cmap[node.go]
    my = list(node.blocks)
    # One duty per run of the relay task, in Fig 9 order: each round's
    # relay train (its block count), then the round's own block (0).
    duties: list[int] = []
    for passing, own in node.schedule:
        if passing:
            duties.append(passing)
        if own is not None:
            duties.append(0)
    box = {"duty": 0, "done": 0}
    relay_overhead = max(
        0.0, model.relay_block_cycles(block_size) - block_size
    )
    inbox = Mem1dDsd("inbox")
    fabin = FabinDsd(c_recv, extent=block_size)
    fabout = FaboutDsd(c_send, extent=block_size)

    def relay(ctx: TaskContext) -> None:
        if box["duty"] == len(duties):
            ctx.halt()
            return
        passing = duties[box["duty"]]
        box["duty"] += 1
        if passing:
            # Pass the round's blocks east untouched (Fig 9 lines 26-28) as
            # one counted relay, then re-arm this task. The engine charges
            # each block's wavelet injection when it forwards; the train
            # charges C1's router/queueing overhead per block, so each
            # relayed block costs exactly C1.
            ctx.mov32(
                fabout, fabin, on_complete=c_recv, relay=True,
                count=passing, overhead=relay_overhead, counters=nc,
            )
        else:
            # This PE's own block of the round (Fig 9 lines 21-23).
            ctx.mov32(inbox, fabin, on_complete=c_go)

    if node.group is None:
        # Same rule as _lower_compute: the stepped machine is the 1-D
        # Lorenzo model; other predictors take the fused kernel.
        use_fast = fast_kernels or plan.predictor != "lorenzo1d"
        fast = _make_fast_compress(plan, model, nc) if use_fast else None
        stages = (
            None if use_fast
            else compression_substages(64, block_size, model)
        )

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
        make = (
            functools.partial(_make_fused_group, kernels=kernels)
            if fast_kernels
            else _make_stepped_group
        )
        consume, _ = make(
            node.group, "inbox", True, c_out, my, box, plan, model, outputs,
            nc, False,
        )

    def compute(ctx: TaskContext) -> None:
        consume(ctx)
        # Keep running while *any* duty remains — own blocks or tail-round
        # relays for PEs east (halting early would starve them, the Fig 9
        # countdown's whole point).
        if box["duty"] < len(duties):
            ctx.activate(c_recv)
        else:
            ctx.halt()

    pe.bind_task(c_recv, Task("relay", relay))
    pe.bind_task(c_go, Task("compute", compute))
    if duties:
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
    fast_kernels: bool,
    kernels: dict,
) -> None:
    """One compression stage group, with an optional raw-relay side duty.

    Without one, the PE's receive loop is one receive train (see "Receive
    trains" in :mod:`repro.wse.engine`) and the group kernel, which halts
    after the last block, is its go task in both forms: the one-block body
    and the run form a ready train commits a whole run through.
    """
    block_size = plan.block_size
    c_recv = cmap[node.recv]
    c_go = cmap[node.go]
    c_send = cmap[node.send] if node.send is not None else None
    extent = block_size if node.first else plan.state_len
    my = list(node.blocks)
    box = {"done": 0}
    make = (
        functools.partial(_make_fused_group, kernels=kernels)
        if fast_kernels
        else _make_stepped_group
    )
    run_group, run = make(
        node.group, "stage_in", node.first, c_send, my, box, plan, model,
        outputs, nc, node.relay is None,
    )

    stage_in, fabin = Mem1dDsd("stage_in"), FabinDsd(c_recv, extent=extent)
    # With a raw-relay duty the compute task re-arms the receive per block.
    count = len(my) if node.relay is None else 1

    def recv(ctx: TaskContext) -> None:
        ctx.mov32(stage_in, fabin, on_complete=c_go, count=count)

    if node.relay is None:
        pe.bind_task(c_recv, Task("recv", recv))
        pe.bind_task(c_go, Task("compute", run_group, run))
        if my:
            engine.schedule_activation(pe, c_recv.id, 0.0)
        return

    # Stage PE with a raw pass-through duty for pipelines east of it.
    recv_raw_name, send_raw_name, total = node.relay
    c_recv_raw = cmap[recv_raw_name]
    c_send_raw = cmap[send_raw_name]
    relay_overhead = max(
        0.0, model.relay_block_cycles(block_size) - block_size
    )
    raw_out = FaboutDsd(c_send_raw, extent=block_size)
    raw_in = FabinDsd(c_recv_raw, extent=block_size)

    def raw_relay(ctx: TaskContext) -> None:
        # The whole pass-through duty is one counted relay (Fig 9).
        ctx.mov32(
            raw_out, raw_in, relay=True, count=total,
            overhead=relay_overhead, counters=nc,
        )

    def compute(ctx: TaskContext) -> None:
        run_group(ctx)
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
    first: bool,
    out_color: Color | None,
    my: list[int],
    box: dict,
    plan: MappingPlan,
    model: CycleModel,
    outputs: DecompressOutputs,
    nc: NodeCounters,
):
    """One reverse stage group stepped through the state machine.

    The fused decode kernel's oracle: ``process(ctx, state)`` runs a
    :class:`DecompressState`, then emits the block or forwards the state
    and halts after the last block. Returns ``process`` and no run form
    (a receive train takes its runs block by block through it); ``first``
    is unused, as the caller builds the state.
    """
    eps = plan.eps
    state_len = plan.state_len
    emit, _ = _make_emit(
        out_color, True, my, box, plan, model, outputs.blocks, nc
    )

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
        if out_color is None:
            emit(ctx, finalize_decompressed(state))
        else:
            emit(ctx, _padded(state.to_array(), state_len))

    return process, None


_NO_WORDS = np.zeros(0, dtype=np.uint32)


def _record_entry(fl: int, words: np.ndarray | None, block_size: int):
    """A received record as the fused decode's entry state.

    ``(phase, block size, fl, bits_done, values, sign bytes, plane words)``,
    exactly what :meth:`DecompressState.from_record` holds.
    """
    if fl == 0 or words is None:
        return (
            "signed",  # nothing to unshuffle or sign-restore
            block_size,
            0,
            0,
            np.zeros(block_size, dtype=np.float64),
            np.zeros(block_size // 8, dtype=np.uint8),
            _NO_WORDS,
        )
    words = words.astype(np.uint32)
    sign_words = block_size // 32
    return (
        "encoded",
        block_size,
        fl,
        0,
        np.zeros(block_size, dtype=np.float64),
        words[:sign_words].view(np.uint8),
        words[sign_words:],
    )


def _wire_entry(arr: np.ndarray):
    """A received state vector as the fused decode's entry state, read in
    place with :meth:`DecompressState.from_array`'s layout."""
    phase, block_size, fl, bits_done = decode_state_header(arr)
    at = 4 + block_size + block_size // 8
    return (
        phase,
        block_size,
        fl,
        bits_done,
        arr[4 : 4 + block_size],
        arr[4 + block_size : at].astype(np.uint8),
        arr[at : at + fl * (block_size // 32)].astype(np.uint32),
    )


def _make_fused_decode(
    group,
    first: bool,
    out_color: Color | None,
    my: list[int],
    box: dict,
    plan: MappingPlan,
    model: CycleModel,
    outputs: DecompressOutputs,
    nc: NodeCounters,
    kernels: dict | None = None,
):
    """One reverse stage group as a single fused, row-vectorized kernel.

    Same inputs, outputs and accounting as :func:`_make_decompress_process`.
    The kernel (:func:`_decode_kernel`, shared through ``kernels`` by every
    PE that runs the same group) computes a whole stack of blocks; this PE
    adds the epilogue (:func:`_make_emit`).

    Returns ``(process, run)``. ``process(ctx, entry)`` is the one-row call
    on the tuple :func:`_record_entry` or :func:`_wire_entry` builds, and
    charges, stores or forwards the block through its task context.
    ``run(stack)`` is the run form of a receive train's go task
    (:attr:`repro.wse.pe.Task.run`): it returns the stack's
    :class:`~repro.wse.pe.RunCommit`, or declines a stack with a row that
    fails a header or phase check, so the run goes block by block and
    raises the same ``CompressionError`` at the same block.
    """
    program, compute, read = _shared(
        kernels,
        (group, first, out_color is None),
        lambda: _decode_kernel(group, first, out_color is None, plan, model),
    )
    emit, commit = _make_emit(
        out_color, True, my, box, plan, model, outputs.blocks, nc
    )

    def process(ctx: TaskContext, entry) -> None:
        phase, bs, fl, bits, values, signs, planes = entry
        rows = compute(
            [phase], bs, [fl], [bits], values[None], signs[None], planes[None]
        )
        if rows is None:  # the phase-order error, after its charges
            spend, items, error = program(phase, fl)[:3]
            ctx.spend(spend)
            nc.add_stages(items)
            raise CompressionError(error)
        ctx.spend(rows.spends[0])
        nc.add_stages(rows.items[0])
        if not rows.ok:
            rows.fail(0)
        emit(ctx, rows.payload[0])

    def run(stack: np.ndarray) -> RunCommit | None:
        rows = read(stack)
        return None if rows is None else commit(rows)

    return process, run


def _decode_kernel(
    group, first: bool, last: bool, plan: MappingPlan, model: CycleModel
):
    """The fused decode kernel of one reverse stage group: returns
    ``(program, compute, read)``.

    The group's control flow depends only on a block's entry phase and
    fixed length, so ``program`` runs it once symbolically per (phase, fl)
    — charges, dispatch skips and the phase-order error included.
    ``compute`` applies that to every row of a stack: each live bit plane
    is added over all rows in bit order (the stepped path's exact float64
    sums; a plane at or past a row's fl adds nothing to it), the sign
    restore, prefix sum and de-quantization run over the whole stack, and
    the outgoing states are written straight into an ``m x state_len``
    matrix in the ``DecompressState.to_array`` layout, or, at the tail
    (``last``), the rows are the decoded float32 values. It returns the
    stack's :class:`_Rows`, or None when a row fails its phase order.
    ``read(stack)`` is ``compute`` on a receive train's stack: at the head
    (``first``) a record train's (each row a record's fl, sign words and
    plane words), at a stage an ``m x state_len`` stack of states read
    through :func:`~repro.core.mapping_decompress.decode_state_headers`;
    it is None when a row fails a header or phase check.
    """
    _split_group(group, _DECODE_TAIL, "unshuffle_bit_", bits_first=True)
    two_eps = 2.0 * plan.eps
    block_size = plan.block_size
    state_len = plan.state_len
    dispatch = model.task_dispatch

    @functools.cache
    def program(phase: str, fl: int):
        """``(spend, items, error, lo, hi, sign, prefix, dequant, phase,
        phase index)``: the charges up to the end (or the failing
        sub-stage), the stepped path's CompressionError message or None,
        the live bits ``lo..hi-1``, which whole-vector steps run, and the
        exit phase."""
        items = []
        lo = hi = -1
        sign = prefix = dequant = False
        error = None
        for stage in group:
            name = stage.name
            if name.startswith("unshuffle_bit_"):
                k = int(name.rsplit("_", 1)[1])
                if k >= fl or phase == "signed":
                    items.append((name, dispatch))
                    continue
                if phase not in ("encoded", "mags"):
                    error = f"{name} applied to {phase}"
                    break
                lo = k if lo < 0 else lo
                hi = k + 1
                phase = "mags"
            elif name == "sign_restore":
                if fl == 0:
                    items.append((name, dispatch))
                    continue
                if phase not in ("encoded", "mags", "signed"):
                    error = f"sign_restore applied to {phase}"
                    break
                sign = True
                phase = "signed"
            elif name == "prefix_sum":
                if phase != "signed":
                    error = f"prefix_sum applied to {phase}"
                    break
                prefix = True
                phase = "codes"
            else:  # dequant_mult (_split_group admits nothing else)
                if phase != "codes":
                    error = f"dequant_mult applied to {phase}"
                    break
                dequant = True
                phase = "values"
            items.append((name, stage.cycles))
        return (
            *_batched(items), error, lo, hi, sign, prefix, dequant, phase,
            DECODE_PHASES.index(phase),
        )

    def compute(phases, bs, fls, bits, values, signs, planes) -> _Rows | None:
        """The stack's rows, or None when a row fails its phase order.

        ``values`` is ``m x bs`` float64, ``signs`` ``m x bs/8`` uint8 and
        ``planes`` ``m x P`` uint32 with at least every row's ``fl``
        planes (a row's words past them are not read).
        """
        programs = [program(p, f) for p, f in zip(phases, fls)]
        (
            spends, items, errors, los, his, signed, prefix, dequant, exits,
            indices,
        ) = zip(*programs)
        if any(errors):
            return None
        m = len(programs)
        words = bs // 32
        top = max(his)
        if top > 0:  # live bits lo..hi-1 per row
            los, his = np.array(los), np.array(his)
            base = int(los[his > los].min())
            ks = np.arange(base, top)
            live = (los[:, None] <= ks) & (ks < his[:, None])
            everyone = live.all(axis=0)
            unpacked = np.unpackbits(
                planes[:, base * words : top * words]
                .view(np.uint8)
                .reshape(m, top - base, 4 * words),
                axis=-1,
                bitorder="little",
            )
            # One add per plane, in bit order: the stepped path's exact
            # float64 accumulation. Rows the plane is not live for keep
            # their values untouched.
            for j, k in enumerate(range(base, top)):
                added = values + unpacked[:, j] * float(1 << k)
                values = (
                    added if everyone[j]
                    else np.where(live[:, j, None], added, values)
                )
            bits = np.add(bits, live.sum(axis=1))
        if any(signed):
            negs = np.unpackbits(signs, axis=-1, bitorder="little") == 1
            if not all(signed):
                negs &= np.array(signed)[:, None]
            values = np.where(negs, -values, values)
        # Rows that pass their phase order agree on the whole-stack steps.
        if prefix[0]:
            values = np.cumsum(values.astype(np.int64), axis=1).astype(
                np.float64
            )
        if dequant[0]:
            values = values * two_eps
        if last:
            ok = m
            if exits.count("values") < m:
                ok = next(r for r in range(m) if exits[r] != "values")

            def fail(r: int) -> None:
                raise CompressionError(
                    f"block not fully decompressed (phase {exits[r]!r})"
                )

            return _Rows(spends, items, values.astype(np.float32), ok, fail)
        at = 4 + bs + bs // 8
        wire = None
        ok = 0
        if at <= state_len:
            ok = m
            if at + max(fls) * words > state_len:
                ok = next(
                    r for r in range(m) if at + fls[r] * words > state_len
                )
            width = min(max(fls) * words, state_len - at)
            wire = np.zeros((m, state_len))
            wire[:, 0] = indices
            wire[:, 1] = bs
            wire[:, 2] = fls
            wire[:, 3] = bits
            wire[:, 4 : 4 + bs] = values
            wire[:, 4 + bs : at] = signs
            if width > 0:
                kept = planes[:, :width]
                if min(fls) * words < width:  # a row's planes end sooner
                    kept = kept * (
                        np.arange(width) < words * np.array(fls)[:, None]
                    )
                wire[:, at : at + width] = kept

        def fail(r: int) -> None:  # raises where the one-block write would
            header = (indices[r], bs, fls[r], int(bits[r]))
            _wire_vector(
                state_len,
                header,
                (values[r], signs[r], planes[r, : fls[r] * words]),
            )

        return _Rows(spends, items, wire, ok, fail)

    def read(stack: np.ndarray) -> _Rows | None:
        if first:
            fls = stack[:, 0].tolist()
            if min(fls) < 0:
                return None
            m = len(fls)
            sign_words = block_size // 32
            # Each row's sign and plane words; a header-only row has none.
            words = np.zeros((m, sign_words * (1 + max(fls))), np.uint32)
            used = min(words.shape[1], stack.shape[1] - 1)
            words[:, :used] = stack[:, 1 : 1 + used]
            return compute(
                ["encoded" if fl else "signed" for fl in fls],
                block_size,
                fls,
                [0] * m,
                np.zeros((m, block_size)),
                words[:, :sign_words].view(np.uint8),
                words[:, sign_words:],
            )
        try:
            phases, bs, fls, bits = decode_state_headers(stack)
        except CompressionError:
            return None
        at = 4 + bs + bs // 8
        return compute(
            phases,
            bs,
            fls,
            bits,
            stack[:, 4 : 4 + bs],
            stack[:, 4 + bs : at].astype(np.uint8),
            stack[:, at : at + max(fls) * (bs // 32)].astype(np.uint32),
        )

    return program, compute, read


def _lower_header(
    node: HeaderNode,
    plan: MappingPlan,
    pe,
    engine: Engine,
    cmap: dict[str, Color],
    model: CycleModel,
    outputs: DecompressOutputs,
    nc: NodeCounters,
    fast_kernels: bool,
    kernels: dict,
) -> None:
    """Two-phase header/body receive, then whole-block decode or group 0.

    The receive loop is one record train (see "Receive trains" in
    :mod:`repro.wse.engine`): ``recv_header`` posts it once, ``on_header``
    decodes a zero block or posts the record's body receive, ``on_body``
    decodes the rest, and the engine re-posts the header receive after
    each record. Stage group 0's run form decodes a ready train's whole
    run of records at once.
    """
    block_size = plan.block_size
    eps = plan.eps
    sign_words = block_size // 32
    c_in = cmap[node.recv]
    c_hdr = cmap[node.hdr]
    c_body = cmap[node.body]
    my = list(node.blocks)
    box = {"done": 0}
    run = None

    if node.group is None:
        zero_flag = model.zero_flag.cycles(block_size)

        def stage_costs(fl: int) -> tuple[tuple[str, float], ...]:
            stages = decompression_substages(fl, block_size, model)
            if fl:
                return tuple((s.name, s.cycles) for s in stages)
            # Zero path: flag + dequant only.
            return tuple(
                (s.name, s.cycles)
                for s in stages
                if s.name.startswith("dequant")
            ) + (("zero_flag", zero_flag),)

        accounting = functools.cache(lambda fl: _batched(stage_costs(fl)))

        def decode_and_emit(
            ctx: TaskContext, fl: int, words: np.ndarray | None
        ) -> None:
            idx = my[box["done"]]
            box["done"] += 1
            if fast_kernels:
                spend, items = accounting(fl)
                ctx.spend(spend)
                nc.add_stages(items)
            else:
                for name, cost in stage_costs(fl):
                    ctx.spend(cost)
                    nc.add_stage(name, cost)
            outputs.blocks[idx] = decode_block_from_words(
                fl, words, eps, block_size
            )
            nc.blocks_emitted += 1
            if box["done"] == len(my):
                ctx.halt()

    else:
        c_send = cmap[node.send] if node.send is not None else None
        make, enter = (
            (functools.partial(_make_fused_decode, kernels=kernels),
             _record_entry)
            if fast_kernels
            else (_make_decompress_process, DecompressState.from_record)
        )
        process, run = make(
            node.group, True, c_send, my, box, plan, model, outputs, nc
        )

        def decode_and_emit(
            ctx: TaskContext, fl: int, words: np.ndarray | None
        ) -> None:
            process(ctx, enter(fl, words, block_size))

    hdr, fabin = Mem1dDsd("hdr"), FabinDsd(c_in, extent=1)

    @functools.cache
    def body_receive(fl: int) -> tuple[Mem1dDsd, FabinDsd]:
        extent = sign_words * (1 + fl)
        return Mem1dDsd("body", length=extent), FabinDsd(c_in, extent=extent)

    def recv_header(ctx: TaskContext) -> None:
        ctx.mov32(hdr, fabin, on_complete=c_hdr, count=len(my), body=c_body)

    def on_header(ctx: TaskContext) -> None:
        fl = int(ctx.buffer("hdr")[0])
        if fl == 0:
            # Zero block: no body follows; decode is trivial.
            decode_and_emit(ctx, 0, None)
        else:
            body, src = body_receive(fl)
            ctx.mov32(body, src, on_complete=c_body)

    def on_body(ctx: TaskContext) -> None:
        fl = int(ctx.buffer("hdr")[0])
        words = (
            ctx.buffer("body")[: sign_words * (1 + fl)]
            .astype(np.uint32)
            .copy()
        )
        decode_and_emit(ctx, fl, words)

    pe.bind_task(c_in, Task("recv_header", recv_header))
    pe.bind_task(c_hdr, Task("on_header", on_header, run))
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
    fast_kernels: bool,
    kernels: dict,
) -> None:
    """A non-head decompression pipeline PE: a receive train of states
    (see "Receive trains" in :mod:`repro.wse.engine`), each run through the
    group (a ready train's whole run through its run form)."""
    c_recv = cmap[node.recv]
    c_go = cmap[node.go]
    c_send = cmap[node.send] if node.send is not None else None
    state_len = plan.state_len
    my = list(node.blocks)
    box = {"done": 0}
    make, enter = (
        (functools.partial(_make_fused_decode, kernels=kernels), _wire_entry)
        if fast_kernels
        else (_make_decompress_process, DecompressState.from_array)
    )
    process, run = make(
        node.group, False, c_send, my, box, plan, model, outputs, nc
    )

    stage_in, fabin = Mem1dDsd("stage_in"), FabinDsd(c_recv, extent=state_len)

    def recv_state(ctx: TaskContext) -> None:
        ctx.mov32(stage_in, fabin, on_complete=c_go, count=len(my))

    def on_state(ctx: TaskContext) -> None:
        process(ctx, enter(ctx.buffer("stage_in")))

    pe.bind_task(c_recv, Task("recv_state", recv_state))
    pe.bind_task(c_go, Task("on_state", on_state, run))
    if my:
        engine.schedule_activation(pe, c_recv.id, 0.0)
