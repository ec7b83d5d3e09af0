"""Discrete-event execution engine for the WSE simulator.

The engine gives DSDs and tasks their dataflow semantics:

* a task bound to a color runs when the color is activated, one task at a
  time per PE (each PE is an independent sequential processor);
* ``mov32`` transfers are asynchronous: receives post a pending descriptor
  that is matched against arriving fabric data, sends resolve the color's
  static route and schedule an arrival at the destination PE, and either
  side may activate a completion color (the data-triggering mechanism of the
  paper's Figure 4);
* fabric timing charges one cycle per wavelet injected plus one cycle per
  hop traversed; compute timing is charged explicitly by tasks through
  :meth:`TaskContext.spend` using the calibrated cost model.

Time is measured in clock cycles as a float (stage costs are calibrated
means, not integers). The engine is deterministic: ties are broken by event
sequence number.

Payload ownership rule
----------------------
Arrays handed to the fabric belong to the fabric from the moment the
transfer is issued: senders must not mutate a sent array afterwards, and
receivers copy into their own buffers at delivery time (``_match`` writes
through the destination DSD). The engine therefore copies a payload **at
most once**: a ``mov32`` from a registered buffer (fabout <- mem1d) copies
the window, because the buffer stays live and a task could legally reuse
it. :meth:`TaskContext.send` hands its array straight to the fabric after
the SRAM capacity check, with zero copies, and pure relays (fabout <-
fabin) forward the in-flight array itself.

Event-queue invariants
----------------------
The heap holds at most one ``task`` event per PE (``pe.task_scheduled``
guards re-arming; the dispatcher re-pushes while pending activations
remain), and ``match`` probes are only queued when they can pair —
deliveries with no posted receive and receives with an empty inbox do not
enqueue anything. Both are pure event-count reductions: timing and
matching order are unchanged, only redundant no-op events disappear.
``tests/core/test_simulate_parallel.py`` pins the exact event count of
each mapping strategy, so a return to the naive schedule (one task event
per activation, one match per deliver/post) fails the test suite.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.config import HOP_CYCLES
from repro.errors import DeadlockError, TaskError
from repro.faults.inject import FaultInjector, build_fault_report
from repro.faults.plan import FaultPlan
from repro.wse.color import Color
from repro.wse.dsd import Dsd, FabinDsd, FaboutDsd, Mem1dDsd
from repro.wse.fabric import Fabric
from repro.wse.pe import ProcessingElement, TaskContext
from repro.wse.trace import TraceRecorder
from repro.wse.wavelet import Direction, wavelet_count


@dataclass(frozen=True)
class SimulationReport:
    """Result of :meth:`Engine.run`.

    ``fault`` is ``None`` for a clean run. Under
    ``run(on_stall="report")`` a detected stall hands back the structured
    :class:`~repro.faults.report.FaultReport` here instead of raising —
    the handoff the self-healing retry loop consumes.
    """

    makespan_cycles: float
    events_processed: int
    tasks_run: int
    trace: TraceRecorder
    fault: "object | None" = None

    @property
    def stalled(self) -> bool:
        return self.fault is not None


class _Misframe(TaskError):
    """An extent mismatch under fault injection: a stall symptom, no bug."""


@dataclass
class _PendingRecv:
    dst: Mem1dDsd
    extent: int
    on_complete: Color | None
    posted_at: float


@dataclass
class _PendingRelay:
    out_color: Color
    extent: int
    on_complete: Color | None
    posted_at: float
    charge_relay: bool


@dataclass(slots=True)
class _Event:
    kind: str
    pe: ProcessingElement | None = None
    color_id: int = -1
    data: np.ndarray | None = None
    fault: object = None  # the armed fault of a "fault" event


class Engine:
    """Runs a configured :class:`Fabric` until quiescence."""

    def __init__(
        self,
        fabric: Fabric,
        *,
        max_events: int = 50_000_000,
        tracer=None,
        faults: FaultInjector | FaultPlan | None = None,
    ):
        self.fabric = fabric
        self.max_events = max_events
        #: Optional :class:`repro.obs.tracing.Tracer`. Per-PE timeline
        #: events are recorded only at ``trace_level="timeline"``; the
        #: level is cached as one bool so the off path costs a single
        #: attribute test per task execution.
        self.tracer = tracer
        self._timeline = tracer is not None and tracer.records_timeline
        #: High-water mark of the event heap (published to the metrics
        #: registry as ``sim.engine.queue_depth.max``).
        self.max_queue_depth = 0
        self._queue: list[tuple[float, int, _Event]] = []
        self._seq = itertools.count()
        self._recv: dict[tuple[int, int, int], deque[_PendingRecv]] = {}
        self._relay: dict[tuple[int, int, int], deque[_PendingRelay]] = {}
        self._events_processed = 0
        self._now = 0.0
        #: Optional fault injector (see :mod:`repro.faults`). ``_faulted``
        #: caches presence so clean runs pay one attribute test per deliver.
        if isinstance(faults, FaultPlan):
            faults = FaultInjector(faults)
        self.faults = faults
        self._faulted = faults is not None
        if faults is not None:
            faults.install(self)

    # -- public API -----------------------------------------------------------------

    @property
    def now(self) -> float:
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def inject(
        self,
        row: int,
        col: int,
        color: Color,
        data: np.ndarray,
        at: float = 0.0,
        *,
        from_direction: Direction = Direction.WEST,
    ) -> None:
        """Feed data onto the mesh as if arriving from off-wafer.

        The wafer edge PEs route data on and off the WSE (paper 5.1.1);
        ``inject`` models the on-wafer side of that boundary: the array
        appears at PE (row, col) on ``color`` at cycle ``at`` plus the
        injection time of ``len(data)`` wavelets.
        """
        arr = np.asarray(data)
        arrive = at + wavelet_count(arr) * HOP_CYCLES
        self._push(arrive, _Event("deliver", self.fabric.pe(row, col), color.id, arr))

    def send_from(
        self,
        row: int,
        col: int,
        color: Color,
        data: np.ndarray,
        at: float = 0.0,
    ) -> None:
        """Send ``data`` along ``color``'s route starting at PE (row, col).

        Unlike :meth:`inject` (which drops data straight into a PE's inbox,
        modeling the off-wafer edge), this resolves the static route from
        the source PE's RAMP — the data traverses the fabric and arrives at
        whichever PE the route terminates on, after injection and hop
        latency. It models a producer PE whose send is driven by the host
        (e.g. a generator kernel outside the simulated program).
        """
        pe = self.fabric.pe(row, col)
        self._send(pe, color, np.asarray(data), at, None, False)

    def schedule_activation(
        self, pe: ProcessingElement, color_id: int, at: float
    ) -> None:
        self._push(at, _Event("activate", pe, color_id))

    def schedule_fault(self, fault, at: float) -> None:
        """Arm a timed fault (PE halt, SRAM bit flip) at cycle ``at``."""
        self._push(at, _Event("fault", fault=fault))

    def submit_transfer(
        self,
        pe: ProcessingElement,
        dst: Dsd,
        src: Dsd,
        now: float,
        on_complete: Color | None,
        *,
        relay: bool = False,
    ) -> None:
        """Interpret a ``mov32`` issued by a task on ``pe`` at cycle ``now``."""
        if isinstance(dst, Mem1dDsd) and isinstance(src, FabinDsd):
            key = (pe.row, pe.col, src.color.id)
            self._recv.setdefault(key, deque()).append(
                _PendingRecv(dst, src.extent, on_complete, now)
            )
            # A freshly posted receive can only pair if data already sits in
            # the inbox; otherwise the next deliver event probes for us.
            if pe.inbox.get(src.color.id):
                self._push(now, _Event("match", pe, src.color.id))
        elif isinstance(dst, FaboutDsd) and isinstance(src, Mem1dDsd):
            data = np.array(src.resolve(pe.buffers), copy=True)
            if data.size != dst.extent:
                raise TaskError(
                    f"PE{pe.coord}: fabout extent {dst.extent} != source "
                    f"window size {data.size}"
                )
            self._send(pe, dst.color, data, now, on_complete, relay)
        elif isinstance(dst, FaboutDsd) and isinstance(src, FabinDsd):
            key = (pe.row, pe.col, src.color.id)
            self._relay.setdefault(key, deque()).append(
                _PendingRelay(dst.color, src.extent, on_complete, now, relay)
            )
            if pe.inbox.get(src.color.id):
                self._push(now, _Event("match", pe, src.color.id))
        elif isinstance(dst, Mem1dDsd) and isinstance(src, Mem1dDsd):
            target = dst.resolve(pe.buffers)
            source = src.resolve(pe.buffers)
            if target.size != source.size:
                raise TaskError(
                    f"PE{pe.coord}: local copy size mismatch "
                    f"{source.size} -> {target.size}"
                )
            target[:] = source
            if on_complete is not None:
                self._push(now, _Event("activate", pe, on_complete.id))
        else:
            raise TaskError(
                f"unsupported mov32 combination: {type(src).__name__} -> "
                f"{type(dst).__name__}"
            )

    def run(
        self,
        *,
        allow_pending: bool = False,
        stop_when: Callable[[], bool] | None = None,
        on_stall: str = "raise",
    ) -> SimulationReport:
        """Process events until quiescence (or ``stop_when`` returns True).

        With ``allow_pending=False`` (the default), finishing with unmatched
        pending receives is a detected stall — on the device that state is
        a silent hang. ``on_stall`` selects the handoff: ``"raise"`` (the
        default) raises :class:`DeadlockError` carrying the structured
        FaultReport; ``"report"`` returns normally with the same
        FaultReport attached as :attr:`SimulationReport.fault`, so repair
        orchestration can consume stalls as data instead of control flow.
        """
        if on_stall not in ("raise", "report"):
            raise ValueError(
                f"on_stall must be 'raise' or 'report', got {on_stall!r}"
            )

        def _stall(message: str, reason: str) -> SimulationReport:
            report = self._diagnose(reason)
            if on_stall == "raise":
                raise DeadlockError(message, report=report)
            return self._finish(fault=report)

        while self._queue:
            if self._events_processed >= self.max_events:
                message = (
                    f"event budget exhausted after {self.max_events} events "
                    f"(livelock?)"
                )
                pending = self._pending_summary()
                if pending:
                    message += f"; pending: {pending}"
                return _stall(message, "livelock")
            time, _, event = heapq.heappop(self._queue)
            self._now = max(self._now, time)
            self._events_processed += 1
            try:
                self._dispatch(time, event)
            except _Misframe as exc:
                return _stall(str(exc), "deadlock")
            if stop_when is not None and stop_when():
                break
        if not allow_pending:
            desc = self._pending_summary()
            if desc:
                return _stall(
                    f"simulation quiesced with unmatched pending receives: "
                    f"{desc}",
                    "deadlock",
                )
            if self.faults is not None:
                leftovers = self.faults.quiesce_stuck(self)
                if leftovers:
                    locs = "; ".join(
                        f"PE({s.row},{s.col}) color {s.color_id}: "
                        f"{s.extent} undelivered"
                        for s in leftovers
                    )
                    return _stall(
                        f"simulation quiesced with undelivered data at "
                        f"injection-halted PEs: {locs}",
                        "deadlock",
                    )
        return self._finish()

    def _finish(self, fault=None) -> SimulationReport:
        """Fold per-PE state into the report (clean or stalled-with-report)."""
        trace = TraceRecorder()
        tasks_run = 0
        for pe in self.fabric:
            trace.record(pe)
            tasks_run += pe.tasks_run
        trace.events_processed = self._events_processed
        makespan = max((pe.busy_until for pe in self.fabric), default=0.0)
        return SimulationReport(
            makespan_cycles=makespan,
            events_processed=self._events_processed,
            tasks_run=tasks_run,
            trace=trace,
            fault=fault,
        )

    # -- internals --------------------------------------------------------------------

    def _diagnose(self, reason: str):
        """Build the structured :class:`FaultReport` for a detected stall."""
        if self.faults is not None:
            return self.faults.build_report(self, reason)
        return build_fault_report(self, reason)

    def _pending_summary(self) -> str:
        """Describe every stuck pending receive/relay for deadlock reports.

        One clause per posted descriptor: the PE's coordinates, the color it
        is blocked on, what it was waiting for, and the cycle the descriptor
        was posted — enough to see which producer never delivered.
        """
        lines: list[str] = []
        for (r, c, cid), queue in sorted(self._recv.items()):
            for p in queue:
                lines.append(
                    f"PE({r},{c}) color {cid}: recv of {p.extent} wavelets "
                    f"into {p.dst.buffer!r} posted at cycle {p.posted_at:.0f}"
                )
        for (r, c, cid), queue in sorted(self._relay.items()):
            for p in queue:
                lines.append(
                    f"PE({r},{c}) color {cid}: relay of {p.extent} wavelets "
                    f"to color {p.out_color.id} posted at cycle "
                    f"{p.posted_at:.0f}"
                )
        return "; ".join(lines)

    def _push(self, time: float, event: _Event) -> None:
        queue = self._queue
        heapq.heappush(queue, (time, next(self._seq), event))
        if len(queue) > self.max_queue_depth:
            self.max_queue_depth = len(queue)

    def _dispatch(self, time: float, event: _Event) -> None:
        if event.kind == "deliver":
            copies = 1
            if self._faulted:
                copies = self.faults.on_deliver(event.pe, event.color_id)
                if copies == 0:
                    return  # injected wavelet drop: the data never arrives
            for _ in range(copies):
                event.pe.deliver(event.color_id, event.data)
            # Data with no posted receive/relay just waits in the inbox; the
            # matching submit_transfer will probe when it arrives.
            key = (event.pe.row, event.pe.col, event.color_id)
            if self._recv.get(key) or self._relay.get(key):
                self._push(time, _Event("match", event.pe, event.color_id))
        elif event.kind == "match":
            self._match(event.pe, event.color_id, time)
        elif event.kind == "activate":
            event.pe.activate(event.color_id)
            self._schedule_task(event.pe, max(time, event.pe.busy_until))
        elif event.kind == "task":
            self._run_task(event.pe, time)
        elif event.kind == "fault":
            self.faults.apply_timed(self, event.fault, time)
        else:  # pragma: no cover - defensive
            raise TaskError(f"unknown event kind {event.kind!r}")

    def _match(self, pe: ProcessingElement, color_id: int, time: float) -> None:
        """Pair arrived data with pending receives/relays, FIFO."""
        key = (pe.row, pe.col, color_id)
        while True:
            relays = self._relay.get(key)
            recvs = self._recv.get(key)
            if not relays and not recvs:
                return
            data = pe.take_delivery(color_id)
            if data is None:
                return
            # The earlier-posted descriptor matches first; a receive wins a
            # tie with a relay.
            if relays and (
                not recvs or relays[0].posted_at < recvs[0].posted_at
            ):
                pending = relays[0]
                if data.size != pending.extent:
                    raise (_Misframe if self._faulted else TaskError)(
                        f"PE{pe.coord}: relay on color {color_id} expected "
                        f"{pending.extent} wavelets, got {data.size}"
                    )
                relays.popleft()
                self._send(
                    pe,
                    pending.out_color,
                    data,
                    max(time, pending.posted_at),
                    pending.on_complete,
                    pending.charge_relay,
                )
            else:
                pending = recvs[0]
                if data.size != pending.extent:
                    raise (_Misframe if self._faulted else TaskError)(
                        f"PE{pe.coord}: receive on color {color_id} expected "
                        f"{pending.extent} wavelets, got {data.size}"
                    )
                recvs.popleft()
                target = pending.dst.resolve(pe.buffers)
                if target.size != data.size:
                    raise TaskError(
                        f"PE{pe.coord}: receive buffer window holds "
                        f"{target.size} elements, data has {data.size}"
                    )
                target[:] = data.astype(target.dtype, copy=False)
                if pending.on_complete is not None:
                    done = max(time, pending.posted_at)
                    self._push(
                        done, _Event("activate", pe, pending.on_complete.id)
                    )

    def _send(
        self,
        pe: ProcessingElement,
        color: Color,
        data: np.ndarray,
        now: float,
        on_complete: Color | None,
        charge_relay: bool,
    ) -> None:
        route = self.fabric.resolve(pe.row, pe.col, color)
        inject_cycles = wavelet_count(data) * HOP_CYCLES
        if charge_relay:
            pe.relay_cycles += inject_cycles
        if route.dropped:
            # Dead link (injected fault): the wavelets are injected and then
            # vanish mid-route. The sender can't tell — its completion color
            # still fires — which is exactly the silent-loss failure mode.
            if self.faults is not None:
                self.faults.on_link_drop(*route.destination, color.id)
            if on_complete is not None:
                self._push(
                    now + inject_cycles,
                    _Event("activate", pe, on_complete.id),
                )
            return
        arrive = now + inject_cycles + route.hops * HOP_CYCLES
        dest = self.fabric.pe(*route.destination)
        self._push(arrive, _Event("deliver", dest, color.id, data))
        if on_complete is not None:
            self._push(now + inject_cycles, _Event("activate", pe, on_complete.id))

    def _schedule_task(self, pe: ProcessingElement, at: float) -> None:
        """Push a ``task`` event for ``pe``, at most one in flight.

        Any event scheduled while ``task_scheduled`` is set would fire at or
        after the one already in the heap (activation times are monotone and
        ``busy_until`` only moves when the armed event runs), and the
        dispatcher re-arms while pending activations remain — so dropping
        the duplicate never delays a task.
        """
        if pe.task_scheduled:
            return
        pe.task_scheduled = True
        self._push(at, _Event("task", pe))

    def _run_task(self, pe: ProcessingElement, time: float) -> None:
        pe.task_scheduled = False
        if pe.halted or not pe.pending:
            return
        if time < pe.busy_until:
            self._schedule_task(pe, pe.busy_until)
            return
        color_id = pe.pending.popleft()
        task = pe.tasks.get(color_id)
        if task is None:  # pragma: no cover - activate() already guards
            raise TaskError(f"PE{pe.coord}: no task bound to color {color_id}")
        ctx = TaskContext(self, pe, time)
        task.fn(ctx)
        pe.busy_until = time + ctx.cycles_spent
        pe.tasks_run += 1
        if self._timeline:
            self.tracer.pe_event(
                pe.row, pe.col, task.name, time, ctx.cycles_spent
            )
        if pe.pending and not pe.halted:
            self._schedule_task(pe, pe.busy_until)
