"""Processing elements and the data-triggered task model.

A PE owns a router, 48 KB of SRAM, named local buffers (numpy arrays), and a
set of *tasks*, each bound to a color (``@bind_task`` in CSL). A task runs
when its color is *activated* — explicitly via ``@activate`` or implicitly
when an asynchronous transfer targeting that activation color completes.
Each PE has its own program counter, so tasks on different PEs execute
independently; within one PE tasks are serialized, which the engine models
with a single ``busy_until`` horizon per PE.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.errors import TaskError
from repro.wse.color import Color
from repro.wse.dsd import Dsd
from repro.wse.memory import SramAllocator
from repro.wse.router import Router

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.wse.engine import Engine


@dataclass(slots=True)
class RunCommit:
    """What a run form (:attr:`Task.run`) returns for an ``m``-row stack:
    each row's charge and what the rows emit, for the engine to commit in
    one pass (see "Run commits" in :mod:`repro.wse.engine`)."""

    #: Row ``r``'s cycles: everything its task spends.
    cycles: list[int]
    #: Rows before the first one that must fail (``m`` when none must): a
    #: row that cannot finalize, or whose forwarded state overflows.
    ok: int
    #: ``book(lo, hi)`` records rows ``lo..hi-1`` in row order (stage
    #: items, stored outputs, counters) and returns True when the PE halts
    #: after row ``hi - 1``.
    book: Callable[[int, int], bool]
    #: The color the rows are sent on (None: they send nothing) ...
    color: Color | None = None
    #: ... and one row per sent payload, row ``r`` at row ``r``'s end.
    sends: np.ndarray | None = None


@dataclass(frozen=True)
class Task:
    """A named unit of PE code bound to a color.

    ``run`` is an optional run form of ``fn`` for a receive train's go task
    (see "Receive trains" in :mod:`repro.wse.engine`): ``run(stack)`` takes
    an ``m x extent`` stack of received blocks and computes them all in one
    call, touching no engine or PE state. It returns one
    :class:`RunCommit`, whose row ``r`` is exactly what ``fn`` does with
    block ``r`` in the receive buffer: spend ``cycles[r]``, record the row
    (``book``, which also says when the PE halts), and send its payload,
    if any, at its end; but for a record's body receive, ``fn`` activates
    and posts nothing. It returns ``None`` to have the engine take the run
    block by block through ``fn`` (a row failed a header or phase check).
    A row that must fail (past ``ok``) runs through ``fn``, which raises.
    A record train's stack holds one record a row (its header, then its
    body zero-padded to the longest), and each row replaces the record's
    last task: ``fn`` for a header alone, else the body's task.
    """

    name: str
    fn: Callable[["TaskContext"], None]
    run: Callable[[np.ndarray], RunCommit | None] | None = None


@dataclass
class ProcessingElement:
    """State of one mesh node."""

    row: int
    col: int
    router: Router = field(default_factory=Router)
    sram: SramAllocator = field(default_factory=SramAllocator)
    buffers: dict[str, np.ndarray] = field(default_factory=dict)
    tasks: dict[int, Task] = field(default_factory=dict)
    pending: deque[int] = field(default_factory=deque)  # activated colors
    inbox: dict[int, deque[np.ndarray]] = field(default_factory=dict)
    busy_until: float = 0.0
    compute_cycles: int = 0
    relay_cycles: int = 0
    tasks_run: int = 0
    #: Deepest backlog any single color's inbox reached (delivery bursts
    #: that outpace the consuming task show up here; ``ceresz sim
    #: --metrics`` reports the fabric-wide maximum).
    max_inbox_depth: int = 0
    halted: bool = False
    #: True while a ``task`` event for this PE sits in the engine's heap.
    #: The engine keeps at most one such event per PE (the dispatcher
    #: re-arms it while work remains), so N pending activations cost one
    #: heap entry instead of N.
    task_scheduled: bool = False
    #: ``activate`` events in the heap, and receive/relay descriptors
    #: posted, for this PE; with ``train`` (the counted relay or receive
    #: the engine is stepping here, until its last block is taken) they
    #: decide the engine's quiet rule.
    activations_in_flight: int = 0
    posted: int = 0
    train: object = None
    #: Deliveries scheduled for this PE and not yet arrived (deliver events
    #: in the heap and queued feed blocks): the engine's convoy rule.
    inbound: int = 0
    # NodeCounters attached by plan lowering (collected by TraceRecorder);
    # untyped to keep the substrate free of a trace-module dependency.
    counters: list = field(default_factory=list)

    @property
    def coord(self) -> tuple[int, int]:
        return (self.row, self.col)

    # -- program construction -------------------------------------------------

    def bind_task(self, color: Color, task: Task) -> None:
        """Bind ``task`` to ``color`` (one task per color per PE)."""
        if color.id in self.tasks:
            raise TaskError(
                f"PE{self.coord}: color {color} already bound to task "
                f"{self.tasks[color.id].name!r}"
            )
        self.tasks[color.id] = task

    def alloc_buffer(self, name: str, array: np.ndarray) -> np.ndarray:
        """Register a local buffer, charging its bytes against SRAM."""
        arr = np.ascontiguousarray(array)
        self.sram.alloc(name, arr.nbytes)
        self.buffers[name] = arr
        return arr

    # -- runtime ---------------------------------------------------------------

    def activate(self, color_id: int) -> None:
        """Queue ``color_id`` for execution (idempotent per occurrence).

        Unknown colors error: activating a color with no bound task is a
        lost wakeup on the device.
        """
        if color_id not in self.tasks:
            raise TaskError(
                f"PE{self.coord}: activation of color {color_id} with no "
                f"bound task"
            )
        self.pending.append(color_id)

    def deliver(self, color_id: int, data: np.ndarray) -> None:
        """Fabric data for ``color_id`` arrived at this PE's RAMP."""
        queue = self.inbox.setdefault(color_id, deque())
        queue.append(data)
        if len(queue) > self.max_inbox_depth:
            self.max_inbox_depth = len(queue)

    def flip_bit(self, name: str, bit: int) -> bool:
        """Flip one bit of buffer ``name``'s SRAM backing (fault injection).

        Returns False (a no-op) when the buffer does not exist at this
        cycle or ``bit`` is past its end — SEUs don't care whether the
        program has allocated the word they hit.
        """
        arr = self.buffers.get(name)
        if arr is None or bit < 0:
            return False
        raw = arr.view(np.uint8).reshape(-1)
        byte = bit // 8
        if byte >= raw.size:
            return False
        raw[byte] ^= np.uint8(1 << (bit % 8))
        return True


class TaskContext:
    """The API surface a running task sees (the CSL builtins analogue).

    A fresh context is created by the engine for every task execution; the
    current simulated time advances through :meth:`spend`.
    """

    def __init__(self, engine: "Engine", pe: ProcessingElement, now: float):
        self._engine = engine
        self._pe = pe
        self._start = now
        self._spent = 0

    # -- introspection ----------------------------------------------------------

    @property
    def pe(self) -> ProcessingElement:
        return self._pe

    @property
    def coord(self) -> tuple[int, int]:
        return self._pe.coord

    @property
    def now(self) -> float:
        """Current simulated cycle (start of task + cycles spent so far)."""
        return self._start + self._spent

    @property
    def cycles_spent(self) -> int:
        return self._spent

    # -- compute -----------------------------------------------------------------

    def spend(self, cycles: int | float, *, relay: bool = False) -> None:
        """Charge compute (or relay) cycles to this PE.

        The cost model (:mod:`repro.wse.cost`) decides *how many* cycles an
        operation takes; tasks report them here so the engine can keep the
        PE busy for that long.
        """
        cycles = int(round(cycles))
        if cycles < 0:
            raise TaskError("cannot spend negative cycles")
        self._spent += cycles
        if relay:
            self._pe.relay_cycles += cycles
        else:
            self._pe.compute_cycles += cycles

    # -- buffers -----------------------------------------------------------------

    def buffer(self, name: str) -> np.ndarray:
        try:
            return self._pe.buffers[name]
        except KeyError:
            raise TaskError(f"PE{self.coord}: unknown buffer {name!r}")

    def alloc_buffer(self, name: str, array: np.ndarray) -> np.ndarray:
        return self._pe.alloc_buffer(name, array)

    # -- dataflow ------------------------------------------------------------------

    def activate(self, color: Color) -> None:
        """``@activate``: queue another task on this PE after this one ends."""
        self._engine.schedule_activation(self._pe, color.id, self.now)

    def mov32(
        self,
        dst: Dsd,
        src: Dsd,
        *,
        on_complete: Color | None = None,
        relay: bool = False,
        count: int = 1,
        overhead: float = 0.0,
        counters=None,
        body: Color | None = None,
    ) -> None:
        """``@mov32``: asynchronous DSD-to-DSD move.

        Supported combinations (the ones the paper's kernels use):

        * ``Mem1dDsd <- FabinDsd``: receive from fabric into local memory;
        * ``FaboutDsd <- Mem1dDsd``: send local memory to the fabric;
        * ``FaboutDsd <- FabinDsd``: pure relay, fabric to fabric
          (Fig 9's forwarding pattern);
        * ``Mem1dDsd <- Mem1dDsd``: local copy.

        ``on_complete`` names the color activated when the move finishes —
        this is the data-triggering mechanism of the paper's Figure 4.

        A relay may be *counted* (Fig 9's countdown): ``count=k`` forwards
        the next ``k`` blocks to arrive, charges ``overhead`` relay cycles
        per block on top of its wavelet injection, counts each block into
        ``counters`` (``blocks_relayed``, ``wavelets_sent``), and fires
        ``on_complete`` after the last one. This task is the first block's
        step; the engine runs the rest (the relay trains of
        :mod:`repro.wse.engine`).

        A receive may be counted too: ``count=k`` receives the next ``k``
        blocks into ``dst`` and activates ``on_complete`` (required) after
        each one; the engine re-posts the receive when that task ends (the
        receive trains of :mod:`repro.wse.engine`). With ``body`` it is a
        *record train*: ``src`` is a one-wavelet header, and for a non-zero
        header the ``on_complete`` task posts the record's body receive on
        the same color with completion color ``body``; the engine re-posts
        after that task instead.
        """
        self._engine.submit_transfer(
            self._pe, dst, src, self.now, on_complete, relay=relay,
            count=count, overhead=overhead, counters=counters, body=body,
        )
        if overhead:
            self.spend(overhead, relay=True)

    def send(
        self,
        color: Color,
        array: np.ndarray,
        *,
        on_complete: Color | None = None,
        relay: bool = False,
    ) -> None:
        """Convenience: send a whole array on ``color``.

        The array must fit in this PE's free SRAM (it is the transmit
        buffer), but it is never registered: it belongs to the fabric from
        this call on (the payload ownership rule in :mod:`repro.wse.engine`),
        so the caller must not mutate it afterwards.
        """
        data = np.ascontiguousarray(array)
        if data.size == 0:
            raise TaskError(f"PE{self.coord}: send of an empty array on {color}")
        sram = self._pe.sram
        if data.nbytes > sram.free:
            sram.require(f"__tx_{color.id}", data.nbytes)  # raises
        self._engine._send(self._pe, color, data, self.now, on_complete, relay)

    def halt(self) -> None:
        """Stop scheduling tasks on this PE (end of program)."""
        self._pe.halted = True
