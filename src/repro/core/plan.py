"""Declarative mapping IR: PE-placed stage graphs for the WSE programs.

The paper's contribution is the *mapping* of the compression pipeline onto
the wafer (Section 4, Figs 6/9, Algorithm 1). Historically each mapping was
a hand-wired program builder: colors, routes, relay closures, and recv /
compute tasks created from scratch per strategy. This module factors the
*what* out of the *how*: a :class:`MappingPlan` is a declarative graph of
PE-placed nodes —

* :class:`IngestNode` / :class:`EgressNode` — where data enters the mesh
  from the west edge and where records leave it (descriptive; the host
  boundary of paper Section 5.1.1);
* :class:`ComputeNode` — a whole-algorithm-per-PE kernel (Fig 6 left);
* :class:`RelayNode` — the Fig 9 counted relay: per round, pass ``passing``
  blocks east before consuming one, then either run the whole algorithm
  (``group is None``, Fig 6 right with 1-PE pipelines) or run stage group 0
  and forward intermediate state (a staged pipeline's head);
* :class:`StageNode` — one Algorithm-1 stage group on one PE, receiving
  serialized state from the west and forwarding east (Fig 6 middle), with
  an optional raw-relay side duty when pipelines share a row;
* :class:`HeaderNode` — the decompression head: the two-phase header/body
  receive that data-dependent record lengths force on a dataflow machine —

with typed edges (a color name, a direction, an extent) recorded as
:class:`RouteSpec` rows and host injections as :class:`Feed` rows, all in a
deterministic order. :mod:`repro.core.lower` compiles a plan into Engine
tasks/colors/routes exactly once; every strategy is now a plan constructor,
and a new mapping is a new constructor, not a new closure forest.

Plans are inspectable before any simulation: :meth:`MappingPlan.describe`
prints the placement, color budget, and SRAM footprint (the ``ceresz plan``
subcommand), and :meth:`MappingPlan.snapshot` returns a JSON-able placement
snapshot that the golden tests pin down.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np

from repro.config import BLOCK_SIZE, PE_NUM_COLORS
from repro.core.mapping_decompress import records_to_words
from repro.core.predictors import Predictor, get_predictor
from repro.core.schedule import StageDistribution, counted_relay_schedule
from repro.core.stages import SubStage
from repro.errors import CompressionError, ScheduleError

#: Extra bit-plane words a decompression head must be able to buffer: the
#: fixed length of an int64 magnitude is at most 63 bits.
MAX_RECORD_FL = 63

_DTYPE_BYTES = {"float64": 8, "int64": 8}


def wafer_predictor(predictor: str | Predictor) -> Predictor:
    """Resolve a predictor for wafer lowering; block-local only.

    The wafer mapping assigns whole blocks to PEs with no inter-PE data
    dependencies — exactly the ``block_local`` locality contract of
    :mod:`repro.core.predictors`. Whole-array predictors need the full
    field for their global inverse (the trade paper Section 3 declines),
    so they cannot be placed on the mesh and are rejected here with the
    contract spelled out.
    """
    try:
        pred = get_predictor(predictor)
    except CompressionError as exc:
        raise ScheduleError(str(exc)) from exc
    if not pred.block_local:
        raise ScheduleError(
            f"predictor {pred.name!r} declares locality {pred.locality!r}; "
            f"the wafer mapping requires 'block_local' prediction — "
            f"whole-array reconstruction needs inter-PE communication, "
            f"which is the trade the paper's block design declines "
            f"(Section 3). Decompress/compress such streams on the host."
        )
    return pred


def _staged_predictor(predictor: str | Predictor) -> Predictor:
    """Like :func:`wafer_predictor`, plus the staged-pipeline restriction.

    The Algorithm-1 sub-stage decomposition (``compression_substages``)
    models the paper's 1-D Lorenzo pipeline stage for stage; other
    block-local predictors run whole-block on one PE (``rows`` / ``multi``
    strategies) but have no sub-stage split to distribute.
    """
    pred = wafer_predictor(predictor)
    if pred.name != "lorenzo1d":
        raise ScheduleError(
            f"staged pipelines distribute the paper's 1-D Lorenzo "
            f"sub-stages (Algorithm 1) and support only the 'lorenzo1d' "
            f"predictor; {pred.name!r} is block-local and maps onto the "
            f"whole-block strategies ('rows', 'multi' with "
            f"pipeline_length=1) instead"
        )
    return pred


# --- typed edges -----------------------------------------------------------------------


@dataclass(frozen=True)
class RouteSpec:
    """One PE's static router rule for a color (CSL route setup)."""

    row: int
    col: int
    color: str  # name in MappingPlan.colors
    inputs: tuple[str, ...]  # directions: "west"/"east"/"north"/"south"/"ramp"
    output: str

    def arrow(self) -> str:
        return f"{'+'.join(self.inputs)}->{self.output}"


@dataclass(frozen=True)
class BufferSpec:
    """A named SRAM buffer a node needs (extent in elements)."""

    name: str
    extent: int
    dtype: str  # key of _DTYPE_BYTES

    @property
    def nbytes(self) -> int:
        return self.extent * _DTYPE_BYTES[self.dtype]


@dataclass(frozen=True)
class Feed:
    """One host injection at the west edge, serialized in plan order."""

    row: int
    col: int
    color: str
    data: np.ndarray


# --- nodes -----------------------------------------------------------------------------


@dataclass(frozen=True)
class IngestNode:
    """Where off-wafer data enters the mesh (descriptive; feeds do the work)."""

    row: int
    col: int
    color: str

    kind = "ingest"


@dataclass(frozen=True)
class EgressNode:
    """Where finished records/blocks leave the mesh to the host."""

    row: int
    col: int

    kind = "egress"


@dataclass(frozen=True)
class ComputeNode:
    """Whole-algorithm-per-PE compression (Fig 6 left / Fig 7)."""

    row: int
    col: int
    recv: str  # raw-block input color
    go: str  # compute activation color
    blocks: tuple[int, ...]  # block indices in processing order

    kind = "compute"


@dataclass(frozen=True)
class RelayNode:
    """Fig 9 counted relay plus compute: multi-pipeline PE or staged head.

    ``schedule`` holds one ``(passing, own)`` entry per row round: relay
    ``passing`` blocks east, then consume ``own`` (``None`` in tail rounds
    that give this PE nothing). ``group is None`` means the whole algorithm
    runs here (1-PE pipelines); otherwise ``group`` is Algorithm 1's stage
    group 0 and the intermediate state forwards on ``out`` (``None`` when
    the pipeline is a single PE and the record is emitted in place).
    """

    row: int
    col: int
    recv: str  # relay input color (alternating parity)
    send: str  # relay output color
    go: str
    schedule: tuple[tuple[int, int | None], ...]
    blocks: tuple[int, ...]
    group: tuple[SubStage, ...] | None = None
    out: str | None = None

    kind = "relay"


@dataclass(frozen=True)
class StageNode:
    """One Algorithm-1 stage group on one PE (Fig 6 middle).

    ``first`` marks the pipeline head that receives raw blocks instead of
    serialized state. ``send is None`` marks the tail that emits records.
    ``relay`` is the raw pass-through duty ``(recv_raw, send_raw, total)``
    a staged pipeline's interior PEs carry for pipelines east of them —
    such PEs never halt (a raw relay may still be in flight).
    """

    row: int
    col: int
    recv: str
    go: str
    send: str | None
    group: tuple[SubStage, ...]
    blocks: tuple[int, ...]
    first: bool = False
    relay: tuple[str, str, int] | None = None

    kind = "stage"


@dataclass(frozen=True)
class HeaderNode:
    """Decompression head: two-phase header/body receive (Section 4.2).

    Compressed records have data-dependent length, so the PE first receives
    the one-word header on ``recv`` (completion color ``hdr``), learns the
    block's fixed length, then posts the ``1 + fl`` word body receive
    (completion color ``body``). ``group is None`` decodes whole blocks in
    place; otherwise the head runs stage group 0 and forwards on ``send``.
    """

    row: int
    col: int
    recv: str
    hdr: str
    body: str
    blocks: tuple[int, ...]
    group: tuple[SubStage, ...] | None = None
    send: str | None = None

    kind = "header"


Node = IngestNode | EgressNode | ComputeNode | RelayNode | StageNode | HeaderNode


def node_buffers(node: Node, plan: "MappingPlan") -> tuple[BufferSpec, ...]:
    """The SRAM buffers lowering will allocate for ``node``, in order."""
    if isinstance(node, (IngestNode, EgressNode)):
        return ()
    if isinstance(node, (ComputeNode, RelayNode)):
        return (BufferSpec("inbox", plan.block_size, "float64"),)
    if isinstance(node, StageNode):
        extent = plan.block_size if node.first else plan.state_len
        return (BufferSpec("stage_in", extent, "float64"),)
    if isinstance(node, HeaderNode):
        sign_words = plan.block_size // 32
        return (
            BufferSpec("hdr", 1, "int64"),
            BufferSpec("body", sign_words * (1 + MAX_RECORD_FL), "int64"),
        )
    raise ScheduleError(f"unknown node kind {type(node).__name__}")


def _emits(node: Node) -> bool:
    if isinstance(node, ComputeNode):
        return True
    if isinstance(node, RelayNode):
        return node.out is None
    if isinstance(node, (StageNode, HeaderNode)):
        return node.send is None
    return False


# --- the plan --------------------------------------------------------------------------


@dataclass(frozen=True)
class MappingPlan:
    """A PE-placed stage graph, ready for the single lowering pass."""

    strategy: str  # "rows" | "pipeline" | "multi" | "staged"
    direction: str  # "compress" | "decompress"
    rows: int
    cols: int
    block_size: int
    num_blocks: int
    eps: float
    colors: tuple[str, ...]  # allocation order
    routes: tuple[RouteSpec, ...]  # install order
    nodes: tuple[Node, ...]  # buffer-alloc / bind / activation order
    feeds: tuple[Feed, ...]  # injection order
    state_len: int = 0  # serialized inter-stage state extent (0 if unused)
    #: True for a row-partition sub-plan produced by :func:`split_rows`:
    #: it deliberately covers only its own rows' blocks, so validation
    #: skips the whole-field block-coverage check.
    partial: bool = False
    #: Registered block-local predictor the lowered kernels apply between
    #: quantization and encoding (compression direction). Whole-array
    #: predictors never reach a plan — constructors reject them via
    #: :func:`wafer_predictor`.
    predictor: str = "lorenzo1d"

    # -- validation ---------------------------------------------------------------

    def validate(self) -> None:
        """Plan-level checks that catch mapping bugs before any simulation."""
        wafer_predictor(self.predictor)
        if len(self.colors) > PE_NUM_COLORS:
            raise ScheduleError(
                f"plan needs {len(self.colors)} colors, hardware has "
                f"{PE_NUM_COLORS}"
            )
        if len(set(self.colors)) != len(self.colors):
            raise ScheduleError(f"duplicate color names in {self.colors}")
        known = set(self.colors)
        for route in self.routes:
            self._check_coord(route.row, route.col, "route")
            if route.color not in known:
                raise ScheduleError(
                    f"route on unallocated color {route.color!r}"
                )
        for feed in self.feeds:
            self._check_coord(feed.row, feed.col, "feed")
            if feed.color not in known:
                raise ScheduleError(f"feed on unallocated color {feed.color!r}")
        seen: dict[int, tuple[int, int]] = {}
        for node in self.nodes:
            self._check_coord(node.row, node.col, node.kind)
            for name in _node_colors(node):
                if name is not None and name not in known:
                    raise ScheduleError(
                        f"{node.kind} node at PE({node.row},{node.col}) uses "
                        f"unallocated color {name!r}"
                    )
            if _emits(node):
                for idx in node.blocks:
                    if idx in seen:
                        raise ScheduleError(
                            f"block {idx} emitted by both PE{seen[idx]} and "
                            f"PE({node.row},{node.col})"
                        )
                    seen[idx] = (node.row, node.col)
        missing = (
            []
            if self.partial
            else [i for i in range(self.num_blocks) if i not in seen]
        )
        if missing:
            raise ScheduleError(
                f"plan covers no emitting node for blocks {missing[:8]}"
                + ("..." if len(missing) > 8 else "")
            )

    def _check_coord(self, row: int, col: int, what: str) -> None:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ScheduleError(
                f"{what} at PE({row},{col}) outside the "
                f"{self.rows}x{self.cols} mesh"
            )

    # -- inspection ---------------------------------------------------------------

    @property
    def color_budget(self) -> tuple[int, int]:
        return (len(self.colors), PE_NUM_COLORS)

    def sram_bytes(self) -> dict[tuple[int, int], int]:
        """Per-PE SRAM footprint of the plan's declared buffers."""
        usage: dict[tuple[int, int], int] = {}
        for node in self.nodes:
            for buf in node_buffers(node, self):
                key = (node.row, node.col)
                usage[key] = usage.get(key, 0) + buf.nbytes
        return usage

    def snapshot(self) -> dict:
        """JSON-able placement/color snapshot (pinned by the golden tests)."""
        return {
            "strategy": self.strategy,
            "direction": self.direction,
            "mesh": [self.rows, self.cols],
            "block_size": self.block_size,
            "num_blocks": self.num_blocks,
            "predictor": self.predictor,
            "state_len": self.state_len,
            "colors": list(self.colors),
            "routes": [
                [r.row, r.col, r.color, r.arrow()] for r in self.routes
            ],
            "nodes": [_node_snapshot(n) for n in self.nodes],
            "feeds": len(self.feeds),
            "sram_bytes": {
                f"{r},{c}": b for (r, c), b in sorted(self.sram_bytes().items())
            },
        }

    def describe(self) -> str:
        """Human-readable placement report (the ``ceresz plan`` output)."""
        used, budget = self.color_budget
        lines = [
            f"mapping plan: strategy={self.strategy} "
            f"direction={self.direction} mesh={self.rows}x{self.cols}",
            f"blocks: {self.num_blocks} x {self.block_size} values "
            f"(eps {self.eps:g}, predictor {self.predictor})",
            f"colors: {used}/{budget} [{', '.join(self.colors)}]",
            f"routes: {len(self.routes)}   feeds: {len(self.feeds)}"
            + (f"   state_len: {self.state_len}" if self.state_len else ""),
            "placement:",
        ]
        for node in self.nodes:
            lines.append("  " + _node_line(node))
        usage = self.sram_bytes()
        if usage:
            (peak_r, peak_c), peak = max(usage.items(), key=lambda kv: kv[1])
            lines.append(
                f"SRAM: {len(usage)} PEs with buffers, peak {peak} B at "
                f"PE({peak_r},{peak_c})"
            )
        return "\n".join(lines)


def _node_colors(node: Node) -> tuple[str | None, ...]:
    if isinstance(node, IngestNode):
        return (node.color,)
    if isinstance(node, EgressNode):
        return ()
    if isinstance(node, ComputeNode):
        return (node.recv, node.go)
    if isinstance(node, RelayNode):
        return (node.recv, node.send, node.go, node.out)
    if isinstance(node, StageNode):
        extra = node.relay[:2] if node.relay else ()
        return (node.recv, node.go, node.send, *extra)
    if isinstance(node, HeaderNode):
        return (node.recv, node.hdr, node.body, node.send)
    return ()


def _group_names(group: tuple[SubStage, ...] | None) -> list[str] | None:
    return None if group is None else [s.name for s in group]


def _node_snapshot(node: Node) -> dict:
    snap: dict = {"kind": node.kind, "pe": [node.row, node.col]}
    if isinstance(node, IngestNode):
        snap["color"] = node.color
    elif isinstance(node, ComputeNode):
        snap.update(recv=node.recv, go=node.go, blocks=[int(b) for b in node.blocks])
    elif isinstance(node, RelayNode):
        snap.update(
            recv=node.recv,
            send=node.send,
            go=node.go,
            out=node.out,
            schedule=[
                [int(p), None if own is None else int(own)]
                for p, own in node.schedule
            ],
            blocks=[int(b) for b in node.blocks],
            stages=_group_names(node.group),
        )
    elif isinstance(node, StageNode):
        snap.update(
            recv=node.recv,
            go=node.go,
            send=node.send,
            first=node.first,
            relay=list(node.relay) if node.relay else None,
            blocks=[int(b) for b in node.blocks],
            stages=_group_names(node.group),
        )
    elif isinstance(node, HeaderNode):
        snap.update(
            recv=node.recv,
            hdr=node.hdr,
            body=node.body,
            send=node.send,
            blocks=[int(b) for b in node.blocks],
            stages=_group_names(node.group),
        )
    return snap


def _node_line(node: Node) -> str:
    if isinstance(node, IngestNode):
        return f"PE({node.row},{node.col}) ingest   west edge on {node.color}"
    if isinstance(node, EgressNode):
        return f"PE({node.row},{node.col}) egress   records to host"
    if isinstance(node, ComputeNode):
        return (
            f"PE({node.row},{node.col}) compute  whole block x"
            f"{len(node.blocks)} (recv {node.recv})"
        )
    if isinstance(node, RelayNode):
        passing = sum(p for p, _ in node.schedule)
        what = (
            "whole block"
            if node.group is None
            else f"group[{len(node.group)} stages]"
        )
        tail = f" -> {node.out}" if node.out else ""
        return (
            f"PE({node.row},{node.col}) relay    pass {passing} east, "
            f"{what} x{len(node.blocks)}{tail}"
        )
    if isinstance(node, StageNode):
        tail = f" -> {node.send}" if node.send else " -> emit"
        duty = f" + relay x{node.relay[2]}" if node.relay else ""
        return (
            f"PE({node.row},{node.col}) stage    "
            f"[{', '.join(s.name for s in node.group)}] "
            f"x{len(node.blocks)}{tail}{duty}"
        )
    if isinstance(node, HeaderNode):
        what = (
            "whole-block decode"
            if node.group is None
            else f"group[{len(node.group)} stages]"
        )
        tail = f" -> {node.send}" if node.send else " -> emit"
        return (
            f"PE({node.row},{node.col}) header   two-phase recv, {what} "
            f"x{len(node.blocks)}{tail}"
        )
    return f"PE({node.row},{node.col}) {node.kind}"


# --- row partitioning ------------------------------------------------------------------

#: Directions a route may use while keeping rows independent: east/west
#: hops stay within a row, ramp enters/leaves the PE. Any north/south hop
#: couples rows and disqualifies the partition.
_ROW_LOCAL_DIRECTIONS = frozenset({"east", "west", "ramp"})


def row_partitionable(plan: MappingPlan) -> bool:
    """True when the plan's rows are provably independent subgraphs.

    Every node, route, and feed is placed on a single row; rows can only
    interact through routes that hop north/south. When every route moves
    data east/west/ramp only, no wavelet ever crosses a row boundary, so
    simulating each row group separately is cycle-exact: the union of the
    per-partition event sets is exactly the serial event set, and events
    from different rows never contend (each PE has its own clock).
    """
    return all(
        set(route.inputs) <= _ROW_LOCAL_DIRECTIONS
        and route.output in _ROW_LOCAL_DIRECTIONS
        for route in plan.routes
    )


def row_chunks(rows: int, parts: int) -> list[tuple[int, ...]]:
    """Deterministic contiguous split of ``range(rows)`` into <= parts groups."""
    if parts < 1:
        raise ScheduleError(f"parts must be >= 1, got {parts}")
    parts = min(parts, rows)
    base, extra = divmod(rows, parts)
    chunks: list[tuple[int, ...]] = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        chunks.append(tuple(range(start, start + size)))
        start += size
    return chunks


def split_rows(plan: MappingPlan, parts: int) -> list[MappingPlan]:
    """Cut a row-partitionable plan into per-row-group sub-plans.

    Each sub-plan keeps the full mesh dimensions and the original PE
    coordinates (so traces, counters and labels match the serial run
    verbatim) but carries only its rows' routes, nodes, and feeds. Color
    declarations are kept whole so each worker's allocator assigns the
    same ids the serial lowering would. The sub-plans are ``partial``:
    together they cover every block, individually they do not.
    """
    if not row_partitionable(plan):
        raise ScheduleError(
            f"plan with strategy {plan.strategy!r} routes across rows and "
            f"cannot be row-partitioned"
        )
    subs: list[MappingPlan] = []
    for chunk in row_chunks(plan.rows, parts):
        rowset = set(chunk)
        subs.append(
            MappingPlan(
                strategy=plan.strategy,
                direction=plan.direction,
                rows=plan.rows,
                cols=plan.cols,
                block_size=plan.block_size,
                num_blocks=plan.num_blocks,
                eps=plan.eps,
                colors=plan.colors,
                routes=tuple(r for r in plan.routes if r.row in rowset),
                nodes=tuple(n for n in plan.nodes if n.row in rowset),
                feeds=tuple(f for f in plan.feeds if f.row in rowset),
                state_len=plan.state_len,
                partial=True,
                predictor=plan.predictor,
            )
        )
    return subs


# --- partition classes (hierarchical simulation) ---------------------------------------


def _group_key(group: tuple[SubStage, ...] | None):
    return None if group is None else tuple((s.name, s.cycles) for s in group)


def _ordinal(omap: dict[int, int], idx: int | None) -> int | None:
    """Map a block index to its first-appearance ordinal within one row."""
    if idx is None:
        return None
    out = omap.get(idx)
    if out is None:
        out = omap[idx] = len(omap)
    return out


def _node_identity(node: Node, omap: dict[int, int]) -> str:
    """Canonical per-row serialization of a node, block ids as ordinals.

    Two rows whose node sequences serialize identically run the same task
    graph up to a renaming of block indices and a vertical translation —
    the two transformations the engine's timing is invariant under.
    """
    if isinstance(node, IngestNode):
        return repr(("ingest", node.col, node.color))
    if isinstance(node, EgressNode):
        return repr(("egress", node.col))
    if isinstance(node, ComputeNode):
        return repr(
            (
                "compute",
                node.col,
                node.recv,
                node.go,
                tuple(_ordinal(omap, b) for b in node.blocks),
            )
        )
    if isinstance(node, RelayNode):
        return repr(
            (
                "relay",
                node.col,
                node.recv,
                node.send,
                node.go,
                node.out,
                tuple((p, _ordinal(omap, own)) for p, own in node.schedule),
                tuple(_ordinal(omap, b) for b in node.blocks),
                _group_key(node.group),
            )
        )
    if isinstance(node, StageNode):
        return repr(
            (
                "stage",
                node.col,
                node.recv,
                node.go,
                node.send,
                node.first,
                node.relay,
                tuple(_ordinal(omap, b) for b in node.blocks),
                _group_key(node.group),
            )
        )
    if isinstance(node, HeaderNode):
        return repr(
            (
                "header",
                node.col,
                node.recv,
                node.hdr,
                node.body,
                node.send,
                tuple(_ordinal(omap, b) for b in node.blocks),
                _group_key(node.group),
            )
        )
    raise ScheduleError(f"unknown node kind {type(node).__name__}")


def row_fingerprints(plan: MappingPlan) -> tuple[str, ...]:
    """Per-row structural+data fingerprint for partition-class detection.

    The hash covers, per row: the plan scalars shared by every row
    (strategy, direction, cols, block size, eps, predictor, state extent,
    color order), the row's routes in install order, its nodes in plan
    order with block indices replaced by first-appearance ordinals, and
    its feeds in injection order including the payload bytes. Rows with
    equal fingerprints are isomorphic under block-index renaming plus
    vertical translation, so one event-driven simulation of a
    representative reproduces every member row cycle for cycle.
    """
    header = repr(
        (
            plan.strategy,
            plan.direction,
            plan.cols,
            plan.block_size,
            float(plan.eps),
            plan.predictor,
            plan.state_len,
            plan.colors,
        )
    ).encode()
    hashers = [
        hashlib.blake2b(header, digest_size=16) for _ in range(plan.rows)
    ]
    for route in plan.routes:
        hashers[route.row].update(
            repr(
                ("R", route.col, route.color, route.inputs, route.output)
            ).encode()
        )
    ordinals: list[dict[int, int]] = [{} for _ in range(plan.rows)]
    for node in plan.nodes:
        hashers[node.row].update(
            _node_identity(node, ordinals[node.row]).encode()
        )
    for feed in plan.feeds:
        h = hashers[feed.row]
        h.update(
            repr(
                ("F", feed.col, feed.color, feed.data.dtype.str,
                 feed.data.shape)
            ).encode()
        )
        h.update(feed.data.tobytes())
    return tuple(h.hexdigest() for h in hashers)


def partition_classes(plan: MappingPlan) -> list[tuple[int, tuple[int, ...]]]:
    """Group rows into equivalence classes by fingerprint.

    Returns ``[(representative_row, member_rows), ...]`` ordered by first
    appearance; the representative is the lowest member row. Heterogeneous
    rows (ragged tails, uneven block counts, distinct data) land in
    singleton classes and are event-simulated individually.
    """
    fps = row_fingerprints(plan)
    groups: dict[str, list[int]] = {}
    for row, fp in enumerate(fps):
        groups.setdefault(fp, []).append(row)
    return [(members[0], tuple(members)) for members in groups.values()]


def row_emit_sequences(plan: MappingPlan) -> list[tuple[int, ...]]:
    """Per-row block indices in emit order (plan node order).

    Isomorphic rows emit the same *number* of blocks in the same
    structural positions, so position ``i`` of a member row's sequence
    corresponds to position ``i`` of its representative's — the mapping
    hybrid composition uses to relabel the representative's records.
    """
    seqs: list[list[int]] = [[] for _ in range(plan.rows)]
    for node in plan.nodes:
        if _emits(node):
            seqs[node.row].extend(node.blocks)
    return [tuple(s) for s in seqs]


def row_subplan(plan: MappingPlan, row: int) -> MappingPlan:
    """Rebase one row of a row-partitionable plan onto a 1 x cols mesh.

    Engine timing depends on column distance and per-(row, col) feed
    clocks only, so translating a row to row 0 of a single-row mesh
    simulates identically while the fabric shrinks from rows x cols PEs
    to cols PEs — the step that makes a wafer-scale representative cheap.
    Block indices are kept verbatim (they are inert labels for timing),
    so the sub-plan is ``partial`` like a :func:`split_rows` shard.
    """
    if not row_partitionable(plan):
        raise ScheduleError(
            f"plan with strategy {plan.strategy!r} routes across rows and "
            f"cannot be row-rebased"
        )
    if not (0 <= row < plan.rows):
        raise ScheduleError(f"row {row} outside 0..{plan.rows - 1}")
    return MappingPlan(
        strategy=plan.strategy,
        direction=plan.direction,
        rows=1,
        cols=plan.cols,
        block_size=plan.block_size,
        num_blocks=plan.num_blocks,
        eps=plan.eps,
        colors=plan.colors,
        routes=tuple(
            replace(r, row=0) for r in plan.routes if r.row == row
        ),
        nodes=tuple(replace(n, row=0) for n in plan.nodes if n.row == row),
        feeds=tuple(
            Feed(0, f.col, f.color, f.data)
            for f in plan.feeds
            if f.row == row
        ),
        state_len=plan.state_len,
        partial=True,
        predictor=plan.predictor,
    )


def expand_mesh(plan: MappingPlan, spare_rows: int) -> MappingPlan:
    """Grow the plan's mesh by ``spare_rows`` idle rows below the placement.

    Placement, routes, and feeds are untouched — the extra rows carry no
    nodes and cost the event engine nothing. They exist as repair
    capacity: the self-healing loop (:mod:`repro.faults.repair`) evacuates
    a faulted row onto one of them by row remapping, the way real
    wafer-scale parts keep spare rows to route around defective PEs.
    """
    if spare_rows < 0:
        raise ScheduleError(f"spare_rows must be >= 0, got {spare_rows}")
    if spare_rows == 0:
        return plan
    return replace(plan, rows=plan.rows + spare_rows)


def _shift_node(node: Node, drow: int, dblock: int) -> Node:
    if isinstance(node, IngestNode):
        return IngestNode(node.row + drow, node.col, node.color)
    if isinstance(node, EgressNode):
        return EgressNode(node.row + drow, node.col)
    if isinstance(node, ComputeNode):
        return replace(
            node,
            row=node.row + drow,
            blocks=tuple(b + dblock for b in node.blocks),
        )
    if isinstance(node, RelayNode):
        return replace(
            node,
            row=node.row + drow,
            blocks=tuple(b + dblock for b in node.blocks),
            schedule=tuple(
                (p, None if own is None else own + dblock)
                for p, own in node.schedule
            ),
        )
    if isinstance(node, (StageNode, HeaderNode)):
        return replace(
            node,
            row=node.row + drow,
            blocks=tuple(b + dblock for b in node.blocks),
        )
    raise ScheduleError(f"unknown node kind {type(node).__name__}")


def replicate_rows(template: MappingPlan, copies: int) -> MappingPlan:
    """Tile a row-partitionable template ``copies`` times down the mesh.

    Copy ``k`` occupies rows ``[k * template.rows, (k+1) * template.rows)``
    and emits block indices shifted by ``k * template.num_blocks`` — every
    row's blocks are contiguous per copy, so the composed stream equals the
    template's stream tiled ``copies`` times and matches the host
    compressor run on the row data tiled ``copies`` times. Feed arrays are
    shared between copies (the engine never mutates an in-flight payload),
    which keeps a 750-row wafer plan's feed memory at one row's worth.
    """
    if copies < 1:
        raise ScheduleError(f"copies must be >= 1, got {copies}")
    if template.partial:
        raise ScheduleError("cannot replicate a partial sub-plan")
    if not row_partitionable(template):
        raise ScheduleError(
            f"template with strategy {template.strategy!r} routes across "
            f"rows and cannot be replicated"
        )
    routes: list[RouteSpec] = []
    nodes: list[Node] = []
    feeds: list[Feed] = []
    for k in range(copies):
        if k == 0:
            routes.extend(template.routes)
            nodes.extend(template.nodes)
            feeds.extend(template.feeds)
            continue
        drow = k * template.rows
        dblock = k * template.num_blocks
        routes.extend(replace(r, row=r.row + drow) for r in template.routes)
        nodes.extend(_shift_node(n, drow, dblock) for n in template.nodes)
        feeds.extend(
            Feed(f.row + drow, f.col, f.color, f.data)
            for f in template.feeds
        )
    return MappingPlan(
        strategy=template.strategy,
        direction=template.direction,
        rows=template.rows * copies,
        cols=template.cols,
        block_size=template.block_size,
        num_blocks=template.num_blocks * copies,
        eps=template.eps,
        colors=template.colors,
        routes=tuple(routes),
        nodes=tuple(nodes),
        feeds=tuple(feeds),
        state_len=template.state_len,
        predictor=template.predictor,
    )


def tile_rows(
    row_blocks: np.ndarray,
    rows: int,
    strategy: str,
    *,
    cols: int | None = None,
    pipelines: int | None = None,
) -> np.ndarray:
    """Arrange one row's blocks into a ``rows``-homogeneous full field.

    The plan constructors interleave block indices across rows (``rows`` /
    ``pipeline``: block ``i`` goes to row ``i % rows``; ``multi`` /
    ``staged``: round-major then row-major). This helper places copies of
    ``row_blocks`` so that every row of the resulting plan carries
    identical data — the workload shape under which the whole mesh
    collapses to a single partition class.
    """
    row_blocks = np.asarray(row_blocks)
    if row_blocks.ndim != 2:
        raise ScheduleError("row_blocks must be a (num_blocks, size) array")
    if strategy in ("rows", "pipeline"):
        return np.repeat(row_blocks, rows, axis=0)
    if strategy == "multi":
        slots = cols
    elif strategy == "staged":
        slots = pipelines
    else:
        raise ScheduleError(f"unknown strategy {strategy!r}")
    if slots is None:
        raise ScheduleError(
            f"strategy {strategy!r} needs its per-round slot count "
            f"(cols= for 'multi', pipelines= for 'staged')"
        )
    n = row_blocks.shape[0]
    if n % slots:
        raise ScheduleError(
            f"{n} row blocks do not fill whole rounds of {slots} slots; "
            f"pad or truncate to a multiple of {slots} for homogeneous rows"
        )
    chunks = [
        np.tile(row_blocks[i:i + slots], (rows, 1))
        for i in range(0, n, slots)
    ]
    return np.concatenate(chunks, axis=0)


# --- compression plan constructors -----------------------------------------------------


def _pipeline_state_len(block_size: int, distribution: StageDistribution) -> int:
    """Serialized PipelineState extent: header + values + signs + planes."""
    sign_bytes = block_size // 8
    max_fl = max(
        (
            int(s.name.rsplit("_", 1)[1]) + 1
            for g in distribution.groups
            for s in g
            if s.name.startswith("shuffle_bit_")
        ),
        default=0,
    )
    return 5 + block_size + sign_bytes + max_fl * sign_bytes


def plan_row_parallel(
    blocks: np.ndarray,
    eps: float,
    *,
    rows: int,
    cols: int,
    predictor: str = "lorenzo1d",
) -> MappingPlan:
    """Fig 6 left: the whole algorithm on the first PE of each row."""
    pred = wafer_predictor(predictor)
    num_blocks, block_size = blocks.shape
    routes: list[RouteSpec] = []
    nodes: list[Node] = []
    for row in range(rows):
        routes.append(RouteSpec(row, 0, "input", ("west",), "ramp"))
        my = tuple(range(row, num_blocks, rows))
        nodes.append(IngestNode(row, 0, "input"))
        nodes.append(ComputeNode(row, 0, "input", "compute", my))
        nodes.append(EgressNode(row, 0))
    feeds = tuple(
        Feed(i % rows, 0, "input", blocks[i].astype(np.float32))
        for i in range(num_blocks)
    )
    return MappingPlan(
        strategy="rows",
        direction="compress",
        rows=rows,
        cols=cols,
        block_size=block_size,
        num_blocks=num_blocks,
        eps=eps,
        colors=("input", "compute"),
        routes=tuple(routes),
        nodes=tuple(nodes),
        feeds=feeds,
        predictor=pred.name,
    )


def plan_pipeline(
    blocks: np.ndarray,
    eps: float,
    distribution: StageDistribution,
    *,
    rows: int,
    cols: int,
    predictor: str = "lorenzo1d",
) -> MappingPlan:
    """Fig 6 middle: one Algorithm-1 pipeline per row, state flowing east."""
    pred = _staged_predictor(predictor)
    num_blocks, block_size = blocks.shape
    pl = distribution.length
    if pl > cols:
        raise ScheduleError(
            f"pipeline of {pl} stages needs {pl} columns, mesh has {cols}"
        )
    state_len = _pipeline_state_len(block_size, distribution)
    routes: list[RouteSpec] = []
    nodes: list[Node] = []
    for row in range(rows):
        my = tuple(range(row, num_blocks, rows))
        routes.append(RouteSpec(row, 0, "input", ("west",), "ramp"))
        nodes.append(IngestNode(row, 0, "input"))
        for col in range(pl):
            is_first = col == 0
            is_last = col == pl - 1
            recv = "input" if is_first else f"fwd{(col - 1) % 2}"
            send = None if is_last else f"fwd{col % 2}"
            if not is_first:
                routes.append(RouteSpec(row, col, recv, ("west",), "ramp"))
            if send is not None:
                routes.append(RouteSpec(row, col, send, ("ramp",), "east"))
                routes.append(RouteSpec(row, col + 1, send, ("west",), "ramp"))
            nodes.append(
                StageNode(
                    row,
                    col,
                    recv,
                    "compute",
                    send,
                    distribution.groups[col],
                    my,
                    first=is_first,
                )
            )
        nodes.append(EgressNode(row, pl - 1))
    feeds = tuple(
        Feed(i % rows, 0, "input", blocks[i].astype(np.float32))
        for i in range(num_blocks)
    )
    return MappingPlan(
        strategy="pipeline",
        direction="compress",
        rows=rows,
        cols=cols,
        block_size=block_size,
        num_blocks=num_blocks,
        eps=eps,
        colors=("input", "compute", "fwd0", "fwd1"),
        routes=tuple(routes),
        nodes=tuple(nodes),
        feeds=feeds,
        state_len=state_len,
        predictor=pred.name,
    )


def plan_multi_pipeline(
    blocks: np.ndarray,
    eps: float,
    *,
    rows: int,
    cols: int,
    pipeline_length: int = 1,
    predictor: str = "lorenzo1d",
) -> MappingPlan:
    """Fig 9: every PE of a row relays then compresses whole blocks."""
    pred = wafer_predictor(predictor)
    if pipeline_length != 1:
        raise ScheduleError(
            "plan_multi_pipeline models pipeline_length=1 (the paper's "
            "optimal configuration); for longer pipelines use "
            "plan_staged_multi_pipeline, or WSECereSZ(strategy=\"multi\", "
            "pipeline_length=k)"
        )
    num_blocks, block_size = blocks.shape

    rounds = -(-num_blocks // (rows * cols))
    routes: list[RouteSpec] = []
    nodes: list[Node] = []
    for row in range(rows):
        for col in range(cols):
            recv = f"relay{col % 2}"
            send = f"relay{(col + 1) % 2}"
            routes.append(RouteSpec(row, col, recv, ("west",), "ramp"))
            if col + 1 < cols:
                routes.append(RouteSpec(row, col, send, ("ramp",), "east"))
        nodes.append(IngestNode(row, 0, "relay0"))
        bases = tuple(
            rnd * rows * cols + row * cols for rnd in range(rounds)
        )
        for col in range(cols):
            recv = f"relay{col % 2}"
            send = f"relay{(col + 1) % 2}"
            schedule = counted_relay_schedule(col, cols, bases, num_blocks)
            my = tuple(own for _, own in schedule if own is not None)
            nodes.append(
                RelayNode(row, col, recv, send, "compute", schedule, my)
            )
            nodes.append(EgressNode(row, col))
    feeds: list[Feed] = []
    for rnd in range(rounds):
        for row in range(rows):
            # Columns are served east-first, so block indices in one row
            # round are injected in ascending order: base, base+1, ...
            base = rnd * rows * cols + row * cols
            avail = min(max(num_blocks - base, 0), cols)
            for idx in range(base, base + avail):
                feeds.append(
                    Feed(row, 0, "relay0", blocks[idx].astype(np.float32))
                )
    return MappingPlan(
        strategy="multi",
        direction="compress",
        rows=rows,
        cols=cols,
        block_size=block_size,
        num_blocks=num_blocks,
        eps=eps,
        colors=("relay0", "relay1", "compute"),
        routes=tuple(routes),
        nodes=tuple(nodes),
        feeds=tuple(feeds),
        predictor=pred.name,
    )


def plan_staged_multi_pipeline(
    blocks: np.ndarray,
    eps: float,
    distribution: StageDistribution,
    *,
    rows: int,
    cols: int,
    predictor: str = "lorenzo1d",
) -> MappingPlan:
    """Fig 6 right in full generality: P staged pipelines per row."""
    pred = _staged_predictor(predictor)
    num_blocks, block_size = blocks.shape
    pl = distribution.length
    if pl > cols:
        raise ScheduleError(
            f"pipeline of {pl} stages needs {pl} columns, mesh has {cols}"
        )
    num_pipelines = cols // pl
    if num_pipelines < 1:
        raise ScheduleError("mesh too narrow for one pipeline")

    rounds = -(-num_blocks // (rows * num_pipelines))
    state_len = _pipeline_state_len(block_size, distribution)
    used_cols = num_pipelines * pl
    routes: list[RouteSpec] = []
    nodes: list[Node] = []
    for row in range(rows):
        for col in range(used_cols):
            recv_raw = f"raw{col % 2}"
            send_raw = f"raw{(col + 1) % 2}"
            routes.append(RouteSpec(row, col, recv_raw, ("west",), "ramp"))
            if col + 1 < used_cols:
                routes.append(RouteSpec(row, col, send_raw, ("ramp",), "east"))
        nodes.append(IngestNode(row, 0, "raw0"))
        bases = tuple(
            rnd * rows * num_pipelines + row * num_pipelines
            for rnd in range(rounds)
        )
        for q in range(num_pipelines):
            head = q * pl
            schedule = counted_relay_schedule(
                q, num_pipelines, bases, num_blocks
            )
            my = tuple(own for _, own in schedule if own is not None)
            total_passing = sum(p for p, _ in schedule)
            for j in range(pl):
                col = head + j
                recv_raw = f"raw{col % 2}"
                send_raw = f"raw{(col + 1) % 2}"
                is_head = j == 0
                is_last = j == pl - 1
                state_recv = None if is_head else f"fwd{(col - 1) % 2}"
                state_send = None if is_last else f"fwd{col % 2}"
                if state_recv is not None:
                    routes.append(
                        RouteSpec(row, col, state_recv, ("west",), "ramp")
                    )
                if state_send is not None:
                    routes.append(
                        RouteSpec(row, col, state_send, ("ramp",), "east")
                    )
                if is_head:
                    nodes.append(
                        RelayNode(
                            row,
                            col,
                            recv_raw,
                            send_raw,
                            "compute",
                            schedule,
                            my,
                            group=distribution.groups[0],
                            out=state_send,
                        )
                    )
                else:
                    nodes.append(
                        StageNode(
                            row,
                            col,
                            state_recv,
                            "compute",
                            state_send,
                            distribution.groups[j],
                            my,
                            relay=(recv_raw, send_raw, total_passing),
                        )
                    )
            nodes.append(EgressNode(row, head + pl - 1))
    feeds: list[Feed] = []
    for rnd in range(rounds):
        for row in range(rows):
            base = rnd * rows * num_pipelines + row * num_pipelines
            avail = min(max(num_blocks - base, 0), num_pipelines)
            for idx in range(base, base + avail):
                feeds.append(
                    Feed(row, 0, "raw0", blocks[idx].astype(np.float32))
                )
    return MappingPlan(
        strategy="staged",
        direction="compress",
        rows=rows,
        cols=cols,
        block_size=block_size,
        num_blocks=num_blocks,
        eps=eps,
        colors=("raw0", "raw1", "fwd0", "fwd1", "compute"),
        routes=tuple(routes),
        nodes=tuple(nodes),
        feeds=tuple(feeds),
        state_len=state_len,
        predictor=pred.name,
    )


# --- decompression plan constructors ---------------------------------------------------


def _record_feeds(
    packed: list[tuple[np.ndarray, np.ndarray | None]], rows: int, color: str
) -> tuple[Feed, ...]:
    """Header and body feeds per record, round-robin over the rows.

    The feeds carry the split's own fresh uint32 arrays: the engine never
    mutates a payload.
    """
    feeds: list[Feed] = []
    for i, (header, words) in enumerate(packed):
        row = i % rows
        for payload in (header, words):
            if payload is not None:
                feeds.append(
                    Feed(row, 0, color, payload.astype(np.uint32, copy=False))
                )
    return tuple(feeds)


def plan_row_parallel_decompress(
    body: bytes,
    num_blocks: int,
    eps: float,
    *,
    rows: int,
    cols: int,
    block_size: int = BLOCK_SIZE,
) -> MappingPlan:
    """Whole-block decompression on the first PE of each row."""
    packed = records_to_words(body, num_blocks, block_size)
    routes: list[RouteSpec] = []
    nodes: list[Node] = []
    for row in range(rows):
        routes.append(RouteSpec(row, 0, "input", ("west",), "ramp"))
        my = tuple(range(row, num_blocks, rows))
        nodes.append(IngestNode(row, 0, "input"))
        nodes.append(
            HeaderNode(row, 0, "input", "header_ready", "body_ready", my)
        )
        nodes.append(EgressNode(row, 0))
    return MappingPlan(
        strategy="rows",
        direction="decompress",
        rows=rows,
        cols=cols,
        block_size=block_size,
        num_blocks=num_blocks,
        eps=eps,
        colors=("input", "header_ready", "body_ready"),
        routes=tuple(routes),
        nodes=tuple(nodes),
        feeds=_record_feeds(packed, rows, "input"),
    )


def plan_pipeline_decompress(
    body: bytes,
    num_blocks: int,
    eps: float,
    distribution: StageDistribution,
    *,
    rows: int,
    cols: int,
    block_size: int = BLOCK_SIZE,
    records: list[tuple[np.ndarray, np.ndarray | None]] | None = None,
) -> MappingPlan:
    """One decompression pipeline per row (Algorithm 1 over reverse stages).

    ``records`` is ``body`` already split by
    :func:`~repro.core.mapping_decompress.records_to_words`, for a caller
    that split it to size ``distribution``.
    """
    pl = distribution.length
    if pl > cols:
        raise CompressionError(
            f"decompression pipeline of {pl} stages needs {pl} columns"
        )
    packed = (
        records_to_words(body, num_blocks, block_size)
        if records is None
        else records
    )
    max_fl = max((int(h[0]) for h, _ in packed), default=0)
    # Header, values, sign bytes, and max_fl bit planes of block_size bits.
    state_len = 4 + block_size + block_size // 8 + max_fl * (block_size // 32)
    routes: list[RouteSpec] = []
    nodes: list[Node] = []
    for row in range(rows):
        my = tuple(range(row, num_blocks, rows))
        routes.append(RouteSpec(row, 0, "input", ("west",), "ramp"))
        nodes.append(IngestNode(row, 0, "input"))
        for col in range(pl):
            is_first = col == 0
            is_last = col == pl - 1
            recv = "input" if is_first else f"fwd{(col - 1) % 2}"
            send = None if is_last else f"fwd{col % 2}"
            if not is_first:
                routes.append(RouteSpec(row, col, recv, ("west",), "ramp"))
            if send is not None:
                routes.append(RouteSpec(row, col, send, ("ramp",), "east"))
                routes.append(RouteSpec(row, col + 1, send, ("west",), "ramp"))
            if is_first:
                nodes.append(
                    HeaderNode(
                        row,
                        col,
                        "input",
                        "header_ready",
                        "body_ready",
                        my,
                        group=distribution.groups[col],
                        send=send,
                    )
                )
            else:
                nodes.append(
                    StageNode(
                        row,
                        col,
                        recv,
                        "compute",
                        send,
                        distribution.groups[col],
                        my,
                    )
                )
        nodes.append(EgressNode(row, pl - 1))
    return MappingPlan(
        strategy="pipeline",
        direction="decompress",
        rows=rows,
        cols=cols,
        block_size=block_size,
        num_blocks=num_blocks,
        eps=eps,
        colors=(
            "input",
            "header_ready",
            "body_ready",
            "compute",
            "fwd0",
            "fwd1",
        ),
        routes=tuple(routes),
        nodes=tuple(nodes),
        feeds=_record_feeds(packed, rows, "input"),
        state_len=state_len,
    )
