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

Relay trains
------------
Fig 9's counted relay is one engine primitive: ``mov32(fabout, fabin,
count=k, overhead=c)`` forwards the next ``k`` blocks that arrive on the
fabin color and fires ``on_complete`` after the last one. The posting task
is the first block's *step*; every later step replays what a run of the
relay task (the task bound to the fabin color) charges: it starts at the
later of the previous block's injection end and ``busy_until``, keeps the
PE busy for ``c`` relay cycles, counts one task run, one timeline event
and the block in the train's ``counters``, and posts the block's relay
descriptor, whose send happens at ``max(arrival, step start)``.

A block takes one of two paths:

* *Queued* (the oracle): the block waits for its deliver and match
  events, the match sends it and activates the fabin color, and the next
  step is that activation's task: the events a re-arming relay task cost.
  A block at a PE that is not quiet, and every block of a run with a
  fault injector, takes this path.
* *Convoy* (:meth:`Engine._convoy`): the train takes a run of blocks at
  once, timing each at its own cycles. The run is handed or fed to a
  ready train ("Convoys" below) or, at a deliver or match event at a
  **quiet** PE, it is the blocks waiting in its inbox, up to the train's
  remaining count (blocks that waited while the PE computed). Quiet
  means: no fault injector; the PE is not halted; it has no queued
  activation, no armed task event and no activation event in flight; and
  only the train's descriptor is posted on it. Nothing but the train can
  then touch the PE's timing before the train ends (only a PE's own tasks
  post descriptors or activate its colors), so each step lands on exactly
  the cycles the queued one would; the run only sets PE state ahead of
  the event clock. A block the train takes still counts in the inbox
  depth of later deliveries until it leaves the inbox (the later of its
  arrival and its step's start), that cycle included, as it would sit in
  the inbox on the device: on the queued path its match event at that
  cycle comes after every delivery already on its way.

Every per-PE result — makespan, ``tasks_run``, traces, counters, timeline
events, inbox depths — is identical either way; only ``events_processed``
(and the heap high-water mark) drops. A fault plan that never fires
forces the queued path everywhere, which makes it the convoys' named
oracle (``tests/core/test_relay_trains.py``).

Convoys
-------
A block relayed to a PE whose train is **ready** skips its ``deliver``
event: ``_send`` hands it straight to that train, and the train takes its
whole run of handed blocks at once, whose sends go on to the next ready
PE the same way (breadth-first, between two events). So one event
carries a run of blocks down a chain of quiet PEs. Ready means all of:

* the PE is quiet (until the train's last block, nothing but the train
  can move the PE's timing);
* its inbox on the color is empty and no delivery for the PE is
  scheduled (``pe.inbound``): a block taken ahead must not overtake one
  already on its way;
* the color has a single producer: walking back from the PE's RAMP,
  every router rule has one input and the walk ends at one PE's RAMP or
  at the mesh edge (injected feeds). A single producer delivers in FIFO
  order, so the run is exactly the sequence of blocks the deliver events
  would bring (cached per PE and color; routes are static).

Each block is charged exactly what its deliver and queued step would
charge — inbox depth (with the ahead backlog), the step, the send at
``max(arrival, step start)`` and ``on_complete`` after the last block —
at the cycle it would have arrived. Blocks past the train's count become
ordinary deliveries at their own arrival cycles, and a block of the
wrong extent raises at that block, after the blocks before it are
charged. A quiet PE's inbox run needs neither of the last two
conditions: its blocks have arrived, in the order their deliver events
brought them, and each counts as arriving at the event that takes it.

A relay run that keeps pace with its arrivals is timed in one NumPy
pass (:func:`_keep_pace`): when the train's descriptor is posted by the
first block's arrival, the first step starts by the second block's, each
later block arrives by the time the one before it is injected, and the
overhead does not outlast an injection, every block is sent on arrival
and every later step starts as its block's injection ends. Each block
then leaves the inbox before the next arrives, so every inbox depth is
one and only the last block stays in the ahead backlog; ``tasks_run``,
``relay_cycles``, ``busy_until``, the train's count and its counters move
once per run. Any other run (one that queues, starts behind the ahead
backlog, mixes dtypes or has one block) is stepped block by block with
:meth:`Engine._waited` and :meth:`Engine._step`. Either way the run
resolves its route and wavelet count once. Runs travel between trains as
:class:`_Run` (arrival cycles and payloads, with their common extent and
dtype), so a relay hop neither rechecks a block's extent nor builds a
tuple per block. The step arithmetic is :meth:`Engine._step` (the queued
step, a stepped run, a receive train's re-post); :func:`_keep_pace`
restates it for the runs that keep pace, where each start is an
injection end.

Edge feeds: :meth:`Engine.inject` still draws one sequence number per
block, but only the head of each (PE, color) feed sits in the heap; the
next head is pushed under its own number when the head is dispatched, so
the heap pops feeds in exactly the order it would hold them all. A ready
PE takes as many feed blocks as its train wants in that one dispatch; any
other PE gets them one event at a time.

Route-cache lookups drop with the events. A fault injector disables
convoys, so faulted runs keep their event counts.

Receive trains
--------------
Algorithm 1's stage PEs loop receive, stage group, re-arm. That loop is a
train too: ``mov32(mem1d, fabin, on_complete=go, count=k)`` receives the
next ``k`` blocks into the buffer and activates ``go`` after each one.
The posting task (bound to the fabin color) is the first receive; when
``go``'s task ends, the engine re-posts the receive itself, charging what
a run of the posting task did: a zero-cycle step at the go task's end,
one task run and one timeline event under its name (:meth:`Engine._step`
with no overhead). The go task no longer re-arms; it still halts after
the last block.

A block takes one of two paths:

* *Queued* (the oracle): the block waits for its deliver and match
  events, the match activates ``go``, and the re-post is an activation
  of the fabin color at the go task's end: the events the re-arming
  receive task cost. Every block that is not taken in a ready run, and
  every block of a run with a fault injector, takes this path.
* *Ready* (the convoys' rule, with the receive as the train's only
  descriptor): a block sent to a ready receive train skips its deliver
  event, and a ready stage 0 takes its run of feed blocks in one
  dispatch, as in "Convoys". The run is committed block by block at each
  block's own cycles (start = the later of its arrival and the previous
  go task's end), so every charge lands where the queued path puts it.
  After each go task the re-post is the zero-cycle step, inline while
  the PE stays quiet; a go task that leaves other work behind (an
  activation, a posted descriptor) queues its re-post, and the rest of
  the run is delivered. A block taken before its receive's posting cycle
  goes into the ahead backlog, so inbox depths stay exact. A go task
  with a *run form* (:attr:`~repro.wse.pe.Task.run`) computes the whole
  run in one call over the stacked blocks first, and the engine commits
  it in one pass ("Run commits" below); a run form that declines
  (``None``: a row failed a check) sends the run block by block through
  the task body, so an error is raised at the same block. The buffer
  ends the run holding the last block, as the block-by-block path leaves
  it.

*Record trains.* The decompression head's two-phase receive (Section 4.2:
records have data-dependent length) is a receive train too:
``mov32(hdr, fabin, on_complete=on_header, count=k, body=c)`` receives
``k`` records. Each starts with a one-wavelet header; a zero header is the
whole record, and for any other the ``on_header`` task posts the record's
body receive on the same color with completion color ``c`` (its length
comes from the header). The engine re-posts the header receive at the end
of the record's last task: ``on_header`` when it posted no body receive,
else the body's task. A ready head takes its run of edge-fed records in
one dispatch, counted in records, not feed items: only whole records
(header and body both fed) are taken, the rest stay in the feed. It
commits each record at its own cycles: the header as a block of the run;
then ``on_header``, which posts the body receive; then the body, which
waits for that posting as the queued match would; then the body's task.
A header task that leaves other work behind, or posts no body receive,
ends the run there, and the body and the rest are delivered. With a run
form the stack holds one record per row (its header, then its body,
zero-padded to the longest), ``on_header`` still runs and posts each
body receive, and each record's row replaces its last task. Task runs,
timeline events and inbox depths are those of the re-arming two-phase
receive it replaces.

*Run commits.* A run form returns one
:class:`~repro.wse.pe.RunCommit` for the run: each row's cycles, how many
leading rows may commit (``ok``), the rows' payload (the forwarded
states, sent on one color) and ``book``, which records rows in the
lowering's outputs and counters. The engine commits the rows in one pass
(:meth:`Engine._take_run`, :meth:`Engine._take_body`). Per row it charges
only timing and that row's task run: the start (the later of its arrival
or re-post and ``busy_until``), the ahead backlog, ``busy_until``,
``compute_cycles``, ``tasks_run`` and the timeline event, then the
zero-cycle re-post step. Once per run it resolves the send color's route,
counts the wavelets of one row and makes the transmit-SRAM check. The
rows are booked, in row order, and their sends handed on, each at
``(row end + injection) + hops``, as one :meth:`Engine._arrive`. That
*settling* happens before anything else can draw an event sequence number
or take a hand-off: before a requeue, before the rest of a run is
delivered, before any task body runs (a record's header task, or a
failing row), and at the run's end. So heap order, and every per-PE
result, is exactly the block-by-block path's. A row that must fail ends
the batch: a row past ``ok`` (a record that cannot finalize, a forwarded
state past ``state_len``), or every row when one row's transmit array
exceeds the free SRAM, runs through the task body with its block in the
buffer, which raises the same error at the same block after the same
charges.

Unlike a relay train, a receive train takes no inbox run at a deliver
or match event. Algorithm 1's plans hand or feed each stage block, and
feed each decode head's records, to a ready PE (on wafer-pipeline every
one of the 4,096 compress and 3,584 decode stage blocks and all 512
records), so such a run would serve no lowered plan.

:meth:`Engine._run` is the one copy of the task-run arithmetic for a
task body, shared by the queued task and every block of a ready run that
runs one; :meth:`Engine._commit_row` replays it for a run commit's row.
The never-firing fault plan is again the oracle:
``tests/core/test_receive_trains.py`` requires every per-PE result to
match it (a failure inside a ready run included), and the queued path to
match the re-arming receive task it replaces (and, for a record train,
the re-arming two-phase receive).
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.config import HOP_CYCLES
from repro.errors import DeadlockError, TaskError
from repro.faults.inject import FaultInjector, build_fault_report
from repro.faults.plan import FaultPlan
from repro.wse.color import Color
from repro.wse.dsd import Dsd, FabinDsd, FaboutDsd, Mem1dDsd
from repro.wse.fabric import Fabric
from repro.wse.pe import ProcessingElement, RunCommit, TaskContext
from repro.wse.trace import TraceRecorder
from repro.wse.wavelet import Direction, wavelet_count


@dataclass(frozen=True)
class SimulationReport:
    """Result of :meth:`Engine.run`."""

    makespan_cycles: float
    events_processed: int
    tasks_run: int
    trace: TraceRecorder


class _Misframe(TaskError):
    """An extent mismatch under fault injection: a stall symptom, no bug."""


@dataclass(slots=True)
class _Train:
    """A counted relay or receive (see "Relay trains" and "Receive trains"
    above) while blocks remain."""

    fabin: Color
    out_color: Color | None  # a relay's output color (None: a receive)
    extent: int
    left: int  # blocks whose step has not started yet (0: last one posted)
    overhead: int  # relay cycles each step charges (0: a receive)
    charge_relay: bool
    #: A relay's fires after its last block; a receive's (its go color)
    #: after every block.
    on_complete: Color | None
    counters: object  # NodeCounters-like (blocks_relayed, wavelets_sent)
    name: str  # timeline name of the task bound to ``fabin``
    dst: Mem1dDsd | None = None  # a receive train's buffer
    body: Color | None = None  # a record train's body completion color


@dataclass(slots=True)
class _Pending:
    """A posted receive (into ``dst``) or relay (onto ``out_color``)."""

    extent: int
    on_complete: Color | None
    posted_at: float
    train: _Train | None
    dst: Mem1dDsd | None
    out_color: Color | None
    charge_relay: bool


@dataclass(slots=True)
class _Batch:
    """A run commit while its ready run is committed (see "Run commits")."""

    commit: RunCommit
    ok: int  # rows committed in one pass (a failing row ends them)
    route: object  # the sends' ResolvedRoute (None: nothing is sent)
    inject: int  # each send's injection cycles
    done: int = 0  # rows committed
    settled: int = 0  # rows booked and sent
    ends: list = field(default_factory=list)  # unsent rows' end cycles


@dataclass(slots=True)
class _Event:
    kind: str
    pe: ProcessingElement | None = None
    color_id: int = -1
    data: np.ndarray | None = None
    fault: object = None  # the armed fault of a "fault" event


@dataclass(slots=True)
class _Run:
    """A run of blocks handed between trains, in arrival order: their
    arrival cycles and payloads, with their common ``extent`` and ``dtype``
    when known (-1 and None: not known to be common)."""

    times: list[float]
    datas: list
    extent: int = -1
    dtype: object = None

    def __len__(self) -> int:
        return len(self.datas)

    def __getitem__(self, part: slice) -> "_Run":
        return _Run(self.times[part], self.datas[part], self.extent, self.dtype)

    def extend(self, run: "_Run") -> None:
        """Append the blocks of ``run``, which arrive after this run's."""
        self.times += run.times
        self.datas += run.datas
        if run.extent != self.extent or run.dtype is not self.dtype:
            self.extent, self.dtype = -1, None  # found by the taker


def _keep_pace(
    times: list[float], posted: float, busy: float, inject: int, overhead: int
) -> tuple[float, np.ndarray] | None:
    """Time a relay train's run of blocks arriving at ``times`` (at least
    two) in one array pass, when the run keeps pace with its arrivals;
    None when it does not, and the caller steps it block by block.

    Block ``i`` is sent from ``max(times[i], posts[i])`` for ``inject``
    cycles, and the step after it starts at ``posts[i + 1] = max(done[i],
    busy)``, ``busy`` being ``busy_until`` for the first step and
    ``posts[i] + overhead`` after (the queued step's arithmetic,
    :meth:`Engine._step`). The run keeps pace when ``posted <= times[0]``,
    the first step starts by ``times[1]``, each later block arrives by the
    time the one before it is done and ``overhead <= inject``: then every
    block is sent on arrival and every step after the first starts as its
    block is done, in float64 as in exact arithmetic (rounding is
    monotone, so ``posts[i] + overhead <= times[i] + inject``). Returns
    the first step's start and the blocks' injection ends."""
    first = times[0] + inject
    if first < busy:
        first = busy
    if posted > times[0] or overhead > inject or first > times[1]:
        return None
    arrive = np.array(times)
    done = arrive + inject
    if not (done[1:-1] <= arrive[2:]).all():
        return None
    return first, done


def _record_span(records: int, datas: list[np.ndarray]) -> int:
    """How many leading ``datas`` (a header first) make up at most
    ``records`` whole records: a zero header alone, any other followed by
    its body (see "Receive trains")."""
    at = 0
    while records and at < len(datas):
        head = datas[at]
        step = 2 if head.size == 1 and head[0] else 1
        if at + step > len(datas):
            break
        at += step
        records -= 1
    return at


def _stack(heads: list, bodies: list | None, dtype) -> np.ndarray:
    """A ready receive train's run, one row per block, for its go task's
    run form: the blocks themselves, or each record's header followed by
    its body (``bodies``), zero-padded to the longest."""
    if bodies is None:
        return np.array([data for _, data in heads], dtype=dtype)
    width = max(0 if body is None else body[1].size for body in bodies)
    stack = np.zeros((len(heads), 1 + width), dtype=dtype)
    for row, (_, header), body in zip(stack, heads, bodies):
        row[0] = header[0]
        if body is not None:
            row[1 : 1 + body[1].size] = body[1]
    return stack


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
        self._recv: dict[tuple[int, int, int], deque[_Pending]] = {}
        self._relay: dict[tuple[int, int, int], deque[_Pending]] = {}
        #: Step starts of train blocks taken ahead of the event clock: on
        #: the device each still waits in the inbox until then.
        self._ahead: dict[tuple[int, int, int], deque[float]] = {}
        #: Injected feeds per (PE, color): (arrival, seq, data), the head
        #: of each in the heap (see "Convoys").
        self._feeds: dict[
            tuple[int, int, int], deque[tuple[float, int, np.ndarray]]
        ] = {}
        #: Runs handed to ready trains, drained breadth-first after each
        #: event.
        self._handed: deque[tuple[ProcessingElement, int, _Run]] = deque()
        #: Single-producer verdicts per (PE, color) (static routes).
        self._producers: dict[tuple[int, int, int], bool] = {}
        self._events_processed = 0
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
        pe = self.fabric.pe(row, col)
        pe.inbound += 1
        feed = self._feeds.setdefault((row, col, color.id), deque())
        if feed and arrive < feed[-1][0]:
            # Earlier than the feed's tail: an ordinary delivery.
            self._push(arrive, _Event("deliver", pe, color.id, arr))
            return
        feed.append((arrive, next(self._seq), arr))
        if len(feed) == 1:
            self._push_feed(pe, color.id, feed)

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
        self._drain()

    def schedule_activation(
        self, pe: ProcessingElement, color_id: int, at: float
    ) -> None:
        pe.activations_in_flight += 1
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
        count: int = 1,
        overhead: float = 0.0,
        counters=None,
        body: Color | None = None,
    ) -> None:
        """Interpret a ``mov32`` issued by a task on ``pe`` at cycle ``now``.

        ``count`` makes a relay or a receive a train (see "Relay trains"
        and "Receive trains" above); ``overhead`` and ``counters`` belong
        to a counted relay, whose issuing task is its first step and
        spends the first block's ``overhead`` itself; ``body`` makes a
        counted receive a record train.
        """
        if isinstance(src, FabinDsd) and isinstance(
            dst, (FaboutDsd, Mem1dDsd)
        ):
            self._post_train(
                pe, dst, src, now, on_complete, relay, count, overhead,
                counters, body,
            )
            return
        if count != 1 or overhead or counters is not None or body is not None:
            raise TaskError(
                f"PE{pe.coord}: count applies only to relays and receives "
                f"(<- fabin), overhead/counters only to relays (fabout <- "
                f"fabin), body only to receives (mem1d <- fabin)"
            )
        if isinstance(dst, FaboutDsd) and isinstance(src, Mem1dDsd):
            data = np.array(src.resolve(pe.buffers), copy=True)
            if data.size != dst.extent:
                raise TaskError(
                    f"PE{pe.coord}: fabout extent {dst.extent} != source "
                    f"window size {data.size}"
                )
            self._send(pe, dst.color, data, now, on_complete, relay)
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
                self.schedule_activation(pe, on_complete.id, now)
        else:
            raise TaskError(
                f"unsupported mov32 combination: {type(src).__name__} -> "
                f"{type(dst).__name__}"
            )

    def run(self, *, allow_pending: bool = False) -> SimulationReport:
        """Process events until quiescence.

        With ``allow_pending=False`` (the default), finishing with unmatched
        pending receives is a detected stall — on the device that state is
        a silent hang — and raises :class:`DeadlockError` carrying the
        structured FaultReport.
        """
        while self._queue:
            if self._events_processed >= self.max_events:
                message = (
                    f"event budget exhausted after {self.max_events} events "
                    f"(livelock?)"
                )
                pending = self._pending_summary()
                if pending:
                    message += f"; pending: {pending}"
                raise self._stall(message, "livelock")
            time, _, event = heapq.heappop(self._queue)
            self._events_processed += 1
            try:
                self._dispatch(time, event)
                if self._handed:
                    self._drain()
            except _Misframe as exc:
                raise self._stall(str(exc), "deadlock")
        if not allow_pending:
            desc = self._pending_summary()
            if desc:
                raise self._stall(
                    f"simulation quiesced with unmatched pending receives: "
                    f"{desc}",
                    "deadlock",
                )
            if self.faults is not None:
                leftovers = self.faults.quiesce_stuck(self)
                if leftovers:
                    locs = "; ".join(
                        f"PE({s.row},{s.col}) color {s.color_id}: "
                        f"{s.extent} "
                        + (
                            "undelivered" if s.kind == "inbox"
                            else "activation(s) never run"
                        )
                        for s in leftovers
                    )
                    raise self._stall(
                        f"simulation quiesced with undelivered data or "
                        f"queued tasks at injection-halted PEs: {locs}",
                        "deadlock",
                    )
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
        )

    # -- internals --------------------------------------------------------------------

    def _stall(self, message: str, reason: str) -> DeadlockError:
        """The error of a detected stall, carrying its structured
        :class:`FaultReport`."""
        if self.faults is not None:
            report = self.faults.build_report(self, reason)
        else:
            report = build_fault_report(self, reason)
        return DeadlockError(message, report=report)

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

    def _push(
        self, time: float, event: _Event, seq: int | None = None
    ) -> None:
        queue = self._queue
        if seq is None:
            seq = next(self._seq)
        heapq.heappush(queue, (time, seq, event))
        if len(queue) > self.max_queue_depth:
            self.max_queue_depth = len(queue)

    def _push_feed(self, pe: ProcessingElement, color_id: int, feed) -> None:
        """Put a feed's head in the heap under its own sequence number."""
        arrive, seq, data = feed[0]
        self._push(arrive, _Event("feed", pe, color_id, data), seq)

    def _feed(self, pe: ProcessingElement, color_id: int, time: float) -> bool:
        """Dispatch a feed's head; True when a ready train took a run of
        the feed (the head and as many blocks behind it as it wants)."""
        feed = self._feeds[(pe.row, pe.col, color_id)]
        _, _, data = feed.popleft()
        more = -1
        if self._ready(pe, color_id, len(feed)):
            train = pe.train
            if train.body is None:
                more = min(train.left, len(feed))
            else:  # whole records: -1 when the head's body is not fed yet
                datas = [data, *(d for _, _, d in feed)]
                more = _record_span(train.left + 1, datas) - 1
        if more < 0:
            if feed:
                self._push_feed(pe, color_id, feed)
            return False
        times, datas = [time], [data]
        for _ in range(more):
            arrive, _, data = feed.popleft()
            times.append(arrive)
            datas.append(data)
        pe.inbound -= more
        if feed:
            self._push_feed(pe, color_id, feed)
        self._convoy(pe, color_id, _Run(times, datas))
        return True

    def _dispatch(self, time: float, event: _Event) -> None:
        kind = event.kind
        if kind == "deliver" or kind == "feed":
            pe = event.pe
            pe.inbound -= 1
            if kind == "feed" and self._feed(pe, event.color_id, time):
                return
            copies = 1
            if self._faulted:
                copies = self.faults.on_deliver(pe, event.color_id)
                if copies == 0:
                    return  # injected wavelet drop: the data never arrives
            for _ in range(copies):
                pe.deliver(event.color_id, event.data)
            key = (pe.row, pe.col, event.color_id)
            ahead = self._ahead.get(key)
            if ahead:
                self._backlog(pe, ahead, time, len(pe.inbox[event.color_id]))
            # Data with no posted receive/relay just waits in the inbox; the
            # matching submit_transfer will probe when it arrives. A quiet
            # PE's relay train takes the waiting blocks at once, as a convoy
            # run: nothing else can run on the PE before the match event
            # would.
            relays = self._relay.get(key)
            if relays and relays[0].train is not None and self._quiet(pe, 1):
                self._match(pe, event.color_id, time)
            elif relays or self._recv.get(key):
                self._push(time, _Event("match", pe, event.color_id))
        elif event.kind == "match":
            self._match(event.pe, event.color_id, time)
        elif event.kind == "activate":
            pe = event.pe
            pe.activations_in_flight -= 1
            pe.activate(event.color_id)
            self._schedule_task(pe, max(time, pe.busy_until))
        elif event.kind == "task":
            self._run_task(event.pe, time)
        elif event.kind == "fault":
            self.faults.apply_timed(self, event.fault, time)
        else:  # pragma: no cover - defensive
            raise TaskError(f"unknown event kind {event.kind!r}")

    def _head(self, key: tuple[int, int, int]) -> _Pending | None:
        """The first relay, else the first receive, posted on ``key``."""
        relays = self._relay.get(key)
        if relays:
            return relays[0]
        recvs = self._recv.get(key)
        return recvs[0] if recvs else None

    def _quiet(self, pe: ProcessingElement, posted: int = 0) -> bool:
        """The quiet rule of "Relay trains": only the train (with
        ``posted`` descriptors of its own) can move ``pe``'s timing."""
        return (
            not self._faulted
            and not pe.halted
            and not pe.pending
            and not pe.task_scheduled
            and not pe.activations_in_flight
            and pe.posted == posted
        )

    def _ready(
        self, pe: ProcessingElement, color_id: int, inbound: int = 0
    ) -> bool:
        """The ready rule of "Convoys": ``pe``'s train may take blocks on
        ``color_id`` ahead of their deliver events. ``inbound`` is how many
        of ``pe``'s scheduled deliveries are the caller's own feed."""
        if (
            pe.train is None
            or not self._quiet(pe, 1)
            or pe.inbound != inbound
            or pe.inbox.get(color_id)
        ):
            return False
        key = (pe.row, pe.col, color_id)
        head = self._head(key)
        if head is None or head.train is None:
            return False
        single = self._producers.get(key)
        if single is None:
            single = self._producers[key] = self._single_producer(*key)
        return single

    def _single_producer(self, row: int, col: int, color_id: int) -> bool:
        """Walk ``color_id`` back from PE (row, col)'s RAMP: True when every
        rule on the way has one input and the walk ends at one PE's RAMP or
        at the mesh edge. The walk cannot cycle: a PE met twice would need
        its one rule to output toward two different PEs."""
        toward = Direction.RAMP
        while True:
            rule = self.fabric.pe(row, col).router.rules.get(color_id)
            if (
                rule is None
                or rule.output is not toward
                or len(rule.inputs) != 1
            ):
                return False
            (source,) = rule.inputs
            if source is Direction.RAMP:
                return True
            upstream = self.fabric.neighbor(row, col, source)
            if upstream is None:
                return True
            row, col, toward = upstream.row, upstream.col, source.opposite

    def _post_train(
        self,
        pe: ProcessingElement,
        dst: FaboutDsd,
        src: FabinDsd,
        now: float,
        on_complete: Color | None,
        charge_relay: bool,
        count: int,
        overhead: float,
        counters,
        body: Color | None,
    ) -> None:
        """Post a relay's or a receive's first block; ``count > 1`` makes
        it a train (a relay's issuing task is its first step)."""
        receive = isinstance(dst, Mem1dDsd)
        if receive and (overhead or counters is not None):
            raise TaskError(
                f"PE{pe.coord}: overhead/counters apply only to relays "
                f"(fabout <- fabin)"
            )
        if body is not None and (not receive or src.extent != 1):
            raise TaskError(
                f"PE{pe.coord}: body applies only to receives of a "
                f"one-wavelet header (mem1d <- fabin, extent 1)"
            )
        if count < 1:
            raise TaskError(f"PE{pe.coord}: train count must be >= 1")
        buffer, out_color = (dst, None) if receive else (None, dst.color)
        train = None
        if count > 1:
            if pe.train is not None and pe.train.left:
                raise TaskError(f"PE{pe.coord}: a train is already running")
            task = pe.tasks.get(src.color.id)
            if task is None:
                raise TaskError(
                    f"PE{pe.coord}: a train needs a task bound to its "
                    f"fabin color {src.color}"
                )
            if receive and on_complete is None:
                raise TaskError(
                    f"PE{pe.coord}: a receive train needs an on_complete "
                    f"color"
                )
            train = pe.train = _Train(
                fabin=src.color,
                out_color=out_color,
                extent=src.extent,
                left=count - 1,
                overhead=int(round(overhead)),
                charge_relay=charge_relay,
                on_complete=on_complete,
                counters=counters,
                name=task.name,
                dst=buffer,
                body=body,
            )
            if not receive:
                on_complete = src.color  # the next block's step
        if counters is not None:
            counters.blocks_relayed += 1
            counters.wavelets_sent += src.extent
        self._post(
            pe,
            src.color.id,
            _Pending(
                src.extent, on_complete, now, train, buffer, out_color,
                charge_relay,
            ),
            probe=True,
        )

    def _post(
        self,
        pe: ProcessingElement,
        color_id: int,
        pending: _Pending,
        *,
        probe: bool,
    ) -> None:
        """Post one receive or relay descriptor. It can only pair at once if
        data already sits in the inbox; otherwise the next deliver event
        probes for it."""
        queues = self._relay if pending.dst is None else self._recv
        queues.setdefault((pe.row, pe.col, color_id), deque()).append(pending)
        pe.posted += 1
        if probe and pe.inbox.get(color_id):
            self._push(pending.posted_at, _Event("match", pe, color_id))

    def _post_step(
        self, pe: ProcessingElement, train: _Train, at: float, *, probe: bool
    ) -> None:
        """Post the descriptor of the train step started at ``at``."""
        on_complete = train.on_complete
        if train.dst is None and train.left:
            on_complete = train.fabin  # a relay's next step
        self._post(
            pe,
            train.fabin.id,
            _Pending(
                train.extent, on_complete, at, train, train.dst,
                train.out_color, train.charge_relay,
            ),
            probe=probe,
        )

    def _step(
        self, pe: ProcessingElement, train: _Train, ready: float
    ) -> float:
        """Start a train's next step at the later of ``ready`` (the previous
        block's injection end or go task's end, or the queued step's task
        cycle) and ``busy_until``: exactly what one run of the relay or
        receive task charges (see "Relay trains" above). Returns the
        step's start."""
        at = ready if ready > pe.busy_until else pe.busy_until
        train.left -= 1
        pe.busy_until = at + train.overhead
        pe.relay_cycles += train.overhead
        pe.tasks_run += 1
        if self._timeline:
            self.tracer.pe_event(pe.row, pe.col, train.name, at, train.overhead)
        counters = train.counters
        if counters is not None:
            counters.blocks_relayed += 1
            counters.wavelets_sent += train.extent
        return at

    def _backlog(
        self, pe: ProcessingElement, ahead: deque, time: float, depth: int
    ) -> None:
        """Inbox depth at a delivery at ``time`` with ``depth`` blocks in the
        inbox: the blocks a train took ahead whose step starts at or after
        ``time`` still wait in the device's inbox."""
        while ahead and ahead[0] < time:
            ahead.popleft()
        depth += len(ahead)
        if depth > pe.max_inbox_depth:
            pe.max_inbox_depth = depth

    def _match(
        self, pe: ProcessingElement, color_id: int, time: float
    ) -> None:
        """Pair arrived data with pending receives/relays, FIFO. At a quiet
        PE a relay train takes the waiting blocks as one convoy run (see
        "Relay trains")."""
        key = (pe.row, pe.col, color_id)
        inbox = pe.inbox.get(color_id)
        while inbox:
            relays = self._relay.get(key)
            recvs = self._recv.get(key)
            if not relays and not recvs:
                return
            # The earlier-posted descriptor matches first; a receive wins a
            # tie with a relay.
            if relays and (
                not recvs or relays[0].posted_at < recvs[0].posted_at
            ):
                queue = relays
            else:
                queue = recvs
            pending = queue[0]
            relay = pending.dst is None
            train = pending.train
            if relay and train is not None and self._quiet(pe, 1):
                take = min(len(inbox), train.left + 1)
                datas = [inbox.popleft() for _ in range(take)]
                run = _Run([time] * take, datas)
                self._convoy(pe, color_id, run)
                return
            data = inbox.popleft()
            if data.size != pending.extent:
                raise (_Misframe if self._faulted else TaskError)(
                    f"PE{pe.coord}: {'relay' if relay else 'receive'} on "
                    f"color {color_id} expected {pending.extent} wavelets, "
                    f"got {data.size}"
                )
            queue.popleft()
            pe.posted -= 1
            at = pending.posted_at if pending.posted_at > time else time
            if train is not None and not train.left and pe.train is train:
                pe.train = None  # the train's last block
            if relay:
                if at > time:  # taken ahead of its step's start
                    self._ahead.setdefault(key, deque()).append(at)
                self._send(
                    pe, pending.out_color, data, at, pending.on_complete,
                    pending.charge_relay,
                )
                continue
            target = pending.dst.resolve(pe.buffers)
            if target.size != data.size:
                raise TaskError(
                    f"PE{pe.coord}: receive buffer window holds "
                    f"{target.size} elements, data has {data.size}"
                )
            target[:] = data.astype(target.dtype, copy=False)
            if train is not None and at > time:  # ahead of a run's re-post
                self._ahead.setdefault(key, deque()).append(at)
            if pending.on_complete is not None:
                self.schedule_activation(pe, pending.on_complete.id, at)

    def _send(
        self,
        pe: ProcessingElement,
        color: Color,
        data: np.ndarray,
        now: float,
        on_complete: Color | None,
        charge_relay: bool,
    ) -> float:
        """Inject ``data`` on ``color``'s route; returns the injection end."""
        route = self.fabric.resolve(pe.row, pe.col, color)
        inject_cycles = wavelet_count(data) * HOP_CYCLES
        if charge_relay:
            pe.relay_cycles += inject_cycles
        done = now + inject_cycles
        if route.dropped:
            # Dead link (injected fault): the wavelets are injected and then
            # vanish mid-route. The sender can't tell — its completion color
            # still fires — which is exactly the silent-loss failure mode.
            if self.faults is not None:
                self.faults.on_link_drop(*route.destination, color.id)
        else:
            dest = self.fabric.pe(*route.destination)
            arrive = done + route.hops * HOP_CYCLES
            if dest.train is None:
                dest.inbound += 1
                self._push(arrive, _Event("deliver", dest, color.id, data))
            else:
                self._arrive(
                    dest,
                    color.id,
                    _Run([arrive], [data], data.size, data.dtype),
                )
        if on_complete is not None:
            self.schedule_activation(pe, on_complete.id, done)
        return done

    def _arrive(self, pe: ProcessingElement, color_id: int, run: _Run) -> None:
        """Route a sent ``run`` to ``pe``: a ready train takes it (after this
        event), any other PE gets a deliver event per block."""
        if not self._ready(pe, color_id):
            self._deliver_at(pe, color_id, run)
            return
        handed = self._handed
        if handed and handed[-1][0] is pe and handed[-1][1] == color_id:
            handed[-1][2].extend(run)
        else:
            handed.append((pe, color_id, run))

    def _deliver_at(
        self, pe: ProcessingElement, color_id: int, run: _Run
    ) -> None:
        """One deliver event per block, at its arrival cycle."""
        pe.inbound += len(run)
        for arrive, data in zip(run.times, run.datas):
            self._push(arrive, _Event("deliver", pe, color_id, data))

    def _drain(self) -> None:
        """Run the handed runs breadth-first (see "Convoys")."""
        handed = self._handed
        while handed:
            pe, color_id, run = handed.popleft()
            if self._ready(pe, color_id):
                self._convoy(pe, color_id, run)
            else:  # no longer ready since the hand-off (the train ended)
                self._deliver_at(pe, color_id, run)

    def _convoy(self, pe: ProcessingElement, color_id: int, run: _Run) -> None:
        """A ready or quiet train takes a run of blocks, in arrival order:
        each is charged what its deliver and queued step would charge (see
        "Relay trains" and "Convoys"). A relay run that keeps pace with its
        arrivals is timed in one array pass (:func:`_keep_pace`), any other
        block by block."""
        if pe.train.dst is not None:
            self._take_run(pe, color_id, run)
            return
        key = (pe.row, pe.col, color_id)
        pending = self._relay[key].popleft()
        pe.posted -= 1
        train = pending.train
        posted_at = pending.posted_at
        route = self.fabric.resolve(pe.row, pe.col, train.out_color)
        lag = route.hops * HOP_CYCLES
        extent = train.extent
        times, datas = run.times, run.datas
        take = min(len(datas), train.left + 1)
        bad = -1  # the first block of the wrong size, which raises
        dtype = run.dtype
        if run.extent != extent:  # a fed, inbox or joined run
            dtype = datas[0].dtype
            for i in range(take):
                data = datas[i]
                if data.size != extent:
                    bad = take = i
                    break
                if data.dtype is not dtype:
                    dtype = None
        if pe.max_inbox_depth < 1:  # each block arrives to an empty inbox
            pe.max_inbox_depth = 1
        last = take > train.left  # the train's last block is in the run
        paced = None
        ahead = self._ahead.get(key)
        if take > 1 and dtype is not None and (
            not ahead or ahead[-1] < times[0]
        ):
            inject = wavelet_count(datas[0]) * HOP_CYCLES
            if inject:  # so each block leaves before the next arrives
                paced = _keep_pace(
                    times[:take], posted_at, pe.busy_until, inject,
                    train.overhead,
                )
        if paced is not None:
            first, done = paced
            steps = take - last
            overhead = train.overhead
            starts = done[1:steps]  # the later steps, as their blocks are done
            posted_at = float(starts[-1]) if steps > 1 else first
            train.left -= steps
            pe.busy_until = posted_at + overhead
            if train.charge_relay:
                pe.relay_cycles += inject * take
            pe.relay_cycles += steps * overhead
            pe.tasks_run += steps
            if self._timeline:
                for start in [first, *starts.tolist()]:
                    self.tracer.pe_event(
                        pe.row, pe.col, train.name, start, overhead
                    )
            counters = train.counters
            if counters is not None:
                counters.blocks_relayed += steps
                counters.wavelets_sent += steps * extent
            # Every inbox depth is one; the last block stays in the backlog.
            self._ahead[key] = deque((times[take - 1],))
            end = float(done[-1])
            sent = (done + lag).tolist()
        else:
            if ahead is None:
                ahead = self._ahead[key] = deque()
            sent = []
            kind = cycles = None
            for i in range(take):
                data = datas[i]
                at = self._waited(pe, ahead, times[i], posted_at)
                if data.dtype is not kind:
                    kind = data.dtype
                    cycles = wavelet_count(data) * HOP_CYCLES
                if train.charge_relay:
                    pe.relay_cycles += cycles
                end = at + cycles
                sent.append(end + lag)
                if train.left:
                    posted_at = self._step(pe, train, end)
        if bad >= 0:
            raise TaskError(
                f"PE{pe.coord}: relay on color {color_id} expected "
                f"{extent} wavelets, got {datas[bad].size}"
            )
        if last:
            pe.train = None
            if train.on_complete is not None:
                self.schedule_activation(pe, train.on_complete.id, end)
        else:  # the train goes on: its next descriptor waits for a block
            self._post_step(pe, train, posted_at, probe=False)
        if take < len(datas):  # past the train's count
            self._deliver_at(pe, color_id, run[take:])
        if not route.dropped:
            self._arrive(
                self.fabric.pe(*route.destination),
                train.out_color.id,
                _Run(sent, datas[:take], extent, dtype),
            )

    def _take_run(
        self,
        pe: ProcessingElement,
        color_id: int,
        run: _Run,
    ) -> None:
        """A ready receive train takes a run of blocks, or of whole records,
        in arrival order: each is charged what the queued path charges it —
        inbox depth, its go task (and a record's body task) from the later
        of its arrival and its receive's posting, the re-post at the end
        (see "Receive trains"). A go task with a run form commits the run in
        one pass ("Run commits")."""
        key = (pe.row, pe.col, color_id)
        train = pe.train
        blocks = list(zip(run.times, run.datas))
        bodies = None  # a record train's: each header's body, or None
        if train.body is None:
            heads = blocks[: train.left + 1]
        else:
            span = _record_span(train.left + 1, run.datas)
            if not span:  # a header whose body is still on its way
                self._deliver_at(pe, color_id, run)
                return
            heads, bodies = [], []
            blocks_in = iter(blocks[:span])
            for head in blocks_in:
                data = head[1]
                heads.append(head)
                bodies.append(
                    next(blocks_in) if data.size == 1 and data[0] else None
                )
        pending = self._recv[key].popleft()
        pe.posted -= 1
        posted_at = pending.posted_at
        target = train.dst.resolve(pe.buffers)
        for _, data in heads:
            if data.size != train.extent or target.size != data.size:
                raise TaskError(
                    f"PE{pe.coord}: receive on color {color_id} expected "
                    f"{train.extent} wavelets into a {target.size}-element "
                    f"window, got {data.size}"
                )
        go = pe.tasks[train.on_complete.id]
        batch = None
        if go.run is not None and len(heads) > 1:
            commit = go.run(_stack(heads, bodies, target.dtype))
            if commit is not None:
                batch = self._batch(pe, commit)
        ahead = self._ahead.setdefault(key, deque())
        if pe.max_inbox_depth < 1:  # each block arrives to an empty inbox
            pe.max_inbox_depth = 1
        taken = 0  # blocks, headers and bodies alike
        for r, (arrive, data) in enumerate(heads):
            body = None if bodies is None else bodies[r]
            at = self._waited(pe, ahead, arrive, posted_at)
            if not train.left:  # the train's last block
                pe.train = None
            taken += 1
            start = at if at > pe.busy_until else pe.busy_until
            if body is None and batch is not None and batch.done < batch.ok:
                self._commit_row(pe, batch, go.name, start)
            else:  # the task body: a header task, or a row that fails
                if batch is not None:
                    self._settle(pe, batch)
                target[:] = data.astype(target.dtype, copy=False)
                self._run(pe, go.fn, go.name, start)
                if body:  # the go task posted the body's receive
                    recvs = self._recv.get(key)
                    if (
                        not recvs
                        or recvs[0].on_complete != train.body
                        or not self._quiet(pe, 1)
                    ):  # unlike a record train's go task: queue the rest
                        if train.left and not recvs:
                            self.schedule_activation(
                                pe, train.fabin.id, pe.busy_until
                            )
                        break
                    taken += 1
                    self._take_body(pe, key, ahead, body, batch)
                if train.left and not self._quiet(pe):
                    # The task left work: queue the re-post.
                    if batch is not None:
                        self._settle(pe, batch)
                    self.schedule_activation(
                        pe, train.fabin.id, pe.busy_until
                    )
                    break
            if not train.left:
                break
            posted_at = self._step(pe, train, pe.busy_until)
        else:  # the train goes on: its next receive waits for a block
            self._post_step(pe, train, posted_at, probe=False)
        if batch is not None:
            self._settle(pe, batch)
            target[:] = heads[r][1]  # the last block, as block by block
        if taken < len(blocks):  # past the train's count, or queued
            self._deliver_at(pe, color_id, run[taken:])

    def _take_body(
        self,
        pe: ProcessingElement,
        key: tuple[int, int, int],
        ahead: deque,
        body: tuple[float, np.ndarray],
        batch: "_Batch | None",
    ) -> None:
        """A ready record train's body: pair it with the receive its go
        task just posted, and run the body task (or commit the record's
        row of ``batch``) when the queued match and activation would."""
        pending = self._recv[key].popleft()
        pe.posted -= 1
        arrive, data = body
        target = pending.dst.resolve(pe.buffers)
        if data.size != pending.extent or target.size != data.size:
            raise TaskError(
                f"PE{pe.coord}: receive on color {key[2]} expected "
                f"{pending.extent} wavelets into a {target.size}-element "
                f"window, got {data.size}"
            )
        target[:] = data.astype(target.dtype, copy=False)
        at = self._waited(pe, ahead, arrive, pending.posted_at)
        task = pe.tasks[pending.on_complete.id]
        start = at if at > pe.busy_until else pe.busy_until
        if batch is not None and batch.done < batch.ok:
            self._commit_row(pe, batch, task.name, start)
            return
        if batch is not None:  # the row fails: its task body raises
            self._settle(pe, batch)
        self._run(pe, task.fn, task.name, start)

    def _batch(self, pe: ProcessingElement, commit: RunCommit) -> "_Batch":
        """Start committing a run form's rows on ``pe``: the sends' route,
        wavelet count and transmit-SRAM check, once for the run."""
        ok = commit.ok
        route = None
        inject = 0
        if commit.color is not None and ok:
            row = commit.sends[0]
            if not row.size or row.nbytes > pe.sram.free:
                ok = 0  # the first row's send fails: its task body raises
            else:
                route = self.fabric.resolve(pe.row, pe.col, commit.color)
                inject = wavelet_count(row) * HOP_CYCLES
        return _Batch(commit, ok, route, inject)

    def _commit_row(
        self, pe: ProcessingElement, batch: "_Batch", name: str, start: float
    ) -> None:
        """Commit ``batch``'s next row as a task run from cycle ``start``
        (:meth:`_run`'s arithmetic with the row's cycles); its booking and
        send wait for :meth:`_settle`."""
        spent = batch.commit.cycles[batch.done]
        batch.done += 1
        end = pe.busy_until = start + spent
        pe.compute_cycles += spent
        pe.tasks_run += 1
        if self._timeline:
            self.tracer.pe_event(pe.row, pe.col, name, start, spent)
        batch.ends.append(end)

    def _settle(self, pe: ProcessingElement, batch: "_Batch") -> None:
        """Book ``batch``'s committed rows and hand their sends on as one
        run, before anything else on ``pe`` can draw a sequence number."""
        lo, hi = batch.settled, batch.done
        if lo == hi:
            return
        batch.settled = hi
        commit = batch.commit
        if commit.book(lo, hi):
            pe.halted = True
        route = batch.route
        if route is not None and not route.dropped:
            inject, lag = batch.inject, route.hops * HOP_CYCLES
            sends = commit.sends
            self._arrive(
                self.fabric.pe(*route.destination),
                commit.color.id,
                _Run(
                    [(end + inject) + lag for end in batch.ends],
                    [sends[r] for r in range(lo, hi)],
                    sends.shape[1],
                    sends.dtype,
                ),
            )
        batch.ends.clear()

    def _waited(
        self,
        pe: ProcessingElement,
        ahead: deque,
        arrive: float,
        posted_at: float,
    ) -> float:
        """The cycle a block a train takes in a run at ``arrive`` leaves
        the inbox: the later of its arrival and its descriptor's posting.
        Until then, that cycle included, it counts in later deliveries'
        inbox depth (the ``ahead`` backlog): on the queued path its match
        event at that cycle comes after every delivery already on its
        way."""
        if ahead:
            if ahead[-1] < arrive:  # every block taken ahead has left
                ahead.clear()
            else:
                self._backlog(pe, ahead, arrive, 1)
        at = arrive if posted_at <= arrive else posted_at
        ahead.append(at)
        return at

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
        train = pe.train
        if train is not None and train.left and color_id == train.fabin.id:
            # The queued step (a relay's, or a receive train's re-post).
            self._post_step(pe, train, self._step(pe, train, time), probe=True)
        else:
            task = pe.tasks.get(color_id)
            if task is None:  # pragma: no cover - activate() already guards
                raise TaskError(
                    f"PE{pe.coord}: no task bound to color {color_id}"
                )
            self._run(pe, task.fn, task.name, time)
            if (
                train is not None
                and train.left
                and train.dst is not None
                and (
                    color_id == train.on_complete.id
                    or (train.body is not None and color_id == train.body.id)
                )
                and not self._recv.get((pe.row, pe.col, train.fabin.id))
            ):
                # A receive train's queued re-post, at the end of its go
                # task (unless it posted a record's body receive) or of a
                # record's body task.
                self.schedule_activation(pe, train.fabin.id, pe.busy_until)
        if pe.pending and not pe.halted:
            self._schedule_task(pe, pe.busy_until)

    def _run(self, pe: ProcessingElement, fn, name: str, start: float) -> None:
        """Run one task body on ``pe`` from cycle ``start``: the arithmetic
        every task run shares (a queued task, or one block of a receive
        train's ready run)."""
        ctx = TaskContext(self, pe, start)
        fn(ctx)
        spent = ctx.cycles_spent
        pe.busy_until = start + spent
        pe.tasks_run += 1
        if self._timeline:
            self.tracer.pe_event(pe.row, pe.col, name, start, spent)
