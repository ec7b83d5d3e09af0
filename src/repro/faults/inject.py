"""Fault injection hooks for the discrete-event engine.

:class:`FaultInjector` is the runtime half of a :class:`FaultPlan`: the
engine consults it at the three points where hardware can misbehave —
timed events (PE halts, SRAM bit flips), wavelet delivery (drops and
duplicates, counted per receiving PE), and route resolution (dead links).
Every fault that actually fires is appended to :attr:`log` as an
:class:`~repro.faults.report.InjectedFault`, which is the provenance that
ends up in the :class:`~repro.faults.report.FaultReport` when the injected
fault wedges the program.

The injector is engine-local state; for row-partitioned simulation each
worker builds its own injector from ``plan.for_rows(rows)`` so the logs
merge disjointly and deterministically.
"""

from __future__ import annotations

from repro.faults.plan import FaultPlan
from repro.faults.report import (
    FaultReport,
    InjectedFault,
    StuckTransfer,
    injected_key,
    stuck_key,
)

_DIRECTION_NAMES = {
    "N": "north", "S": "south", "E": "east", "W": "west",
    "NORTH": "north", "SOUTH": "south", "EAST": "east", "WEST": "west",
    "RAMP": "ramp",
}


class FaultInjector:
    """Applies a :class:`FaultPlan` to one engine run and logs what fired."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.log: list[InjectedFault] = []
        #: Stalls the engine diagnosed into a FaultReport (the
        #: ``faults.detected`` metric).
        self.detected = 0
        self.halted: set[tuple[int, int]] = set()
        # Delivery-count faults, keyed by receiving PE + color; counts are
        # tracked only for faulted keys so clean traffic pays one dict miss.
        self._drops: dict[tuple[int, int, int], set[int]] = {}
        self._dups: dict[tuple[int, int, int], set[int]] = {}
        self._delivery_counts: dict[tuple[int, int, int], int] = {}
        for f in plan.faults:
            if f.kind == "drop":
                self._drops.setdefault(
                    (f.row, f.col, f.color_id), set()
                ).add(f.nth)
            elif f.kind == "dup":
                self._dups.setdefault(
                    (f.row, f.col, f.color_id), set()
                ).add(f.nth)

    # -- engine wiring ----------------------------------------------------------

    def install(self, engine) -> None:
        """Arm timed faults and dead links on ``engine``'s fabric.

        Coordinates and link directions are validated against the fabric's
        mesh shape first (:meth:`FaultPlan.validate_mesh`), so a fault
        plan aimed at the wrong mesh fails structurally — naming the
        offending fault — before anything is armed.
        """
        from repro.wse.wavelet import Direction

        fabric = engine.fabric
        self.plan.validate_mesh(fabric.rows, fabric.cols)
        for f in self.plan.faults:
            if f.kind in ("halt", "flip"):
                engine.schedule_fault(f, float(f.at_cycle))
            elif f.kind == "link":
                name = _DIRECTION_NAMES[f.direction.upper()]
                fabric.break_link(f.row, f.col, Direction(name))

    # -- hooks called by the engine ---------------------------------------------

    def apply_timed(self, engine, fault, time: float) -> None:
        """Fire a halt or bit-flip fault at its scheduled cycle."""
        pe = engine.fabric.pe(fault.row, fault.col)
        if fault.kind == "halt":
            pe.halted = True
            pe.pending.clear()
            self.halted.add((fault.row, fault.col))
            self.log.append(
                InjectedFault(
                    kind="halt", row=fault.row, col=fault.col,
                    cycle=int(fault.at_cycle),
                )
            )
        elif fault.kind == "flip":
            flipped = pe.flip_bit(fault.buffer, fault.bit)
            detail = (
                f"buffer {fault.buffer!r} bit {fault.bit}"
                if flipped
                else f"buffer {fault.buffer!r} absent or too small (no-op)"
            )
            self.log.append(
                InjectedFault(
                    kind="flip", row=fault.row, col=fault.col,
                    cycle=int(fault.at_cycle), detail=detail,
                )
            )

    def on_deliver(self, pe, color_id: int) -> int:
        """How many copies of this delivery reach the PE (1 = clean)."""
        key = (pe.row, pe.col, color_id)
        drops = self._drops.get(key)
        dups = self._dups.get(key)
        if drops is None and dups is None:
            return 1
        n = self._delivery_counts.get(key, 0) + 1
        self._delivery_counts[key] = n
        if drops and n in drops:
            self.log.append(
                InjectedFault(
                    kind="drop", row=pe.row, col=pe.col, cycle=-1,
                    detail=f"color {color_id} delivery #{n}",
                )
            )
            return 0
        if dups and n in dups:
            self.log.append(
                InjectedFault(
                    kind="dup", row=pe.row, col=pe.col, cycle=-1,
                    detail=f"color {color_id} delivery #{n}",
                )
            )
            return 2
        return 1

    def on_link_drop(self, row: int, col: int, color_id: int) -> None:
        """A wavelet hit a broken link and vanished."""
        self.log.append(
            InjectedFault(
                kind="link", row=row, col=col, cycle=-1,
                detail=f"color {color_id} dropped at dead link",
            )
        )

    # -- diagnosis ---------------------------------------------------------------

    def quiesce_stuck(self, engine) -> list[StuckTransfer]:
        """Undelivered inbox data and unrun tasks at injection-halted PEs.

        A halted PE never posts its receives, so arriving data piles up in
        its inbox without creating the pending descriptors the quiesce
        check looks at — silent data loss. Likewise a transfer that
        completes after the halt queues its completion color, whose task
        never runs. Reported as ``kind="inbox"`` (extent = queued
        deliveries) and ``kind="activation"`` (extent = queued
        activations) stuck transfers, posted_at = the halt cycle, so the
        stall is detected instead of surfacing later as missing output
        blocks.
        """
        if not self.halted:
            return []
        halt_cycles = {
            (f.row, f.col): f.at_cycle
            for f in self.plan.faults
            if f.kind == "halt"
        }
        stuck: list[StuckTransfer] = []
        for (r, c) in sorted(self.halted):
            pe = engine.fabric.pe(r, c)
            posted_at = int(halt_cycles.get((r, c), 0))
            waiting = [
                ("inbox", cid, len(queue))
                for cid, queue in sorted(pe.inbox.items())
                if queue
            ] + [
                ("activation", cid, pe.pending.count(cid))
                for cid in sorted(set(pe.pending))
            ]
            for kind, cid, extent in waiting:
                stuck.append(
                    StuckTransfer(
                        row=r, col=c, color_id=cid, kind=kind,
                        extent=extent, buffer="", posted_at=posted_at,
                    )
                )
        return stuck

    def build_report(self, engine, reason: str) -> FaultReport:
        """Structured stall diagnosis; also counts detections.

        Detections are counted per *stuck row* (minimum one), not per
        engine: a serial run diagnosing rows 1 and 3 in one DeadlockError
        and a partitioned run where two workers each diagnose one row must
        publish the same ``faults.detected`` total.
        """
        report = build_fault_report(engine, reason, injector=self)
        self.detected += max(1, len({s.row for s in report.stuck}))
        return report


def build_fault_report(engine, reason: str, injector=None) -> FaultReport:
    """Diagnose a stalled engine into a :class:`FaultReport`.

    Works with or without an injector (a stall needs no injected fault).
    ``last_progress_cycle`` uses only row-local facts — descriptor posting
    cycles and injected-fault cycles — so partitioned and serial runs of
    the same plan produce the identical report.
    """
    stuck: list[StuckTransfer] = []
    for (r, c, cid), queue in sorted(engine._recv.items()):
        for p in queue:
            stuck.append(
                StuckTransfer(
                    row=r, col=c, color_id=cid, kind="recv",
                    extent=p.extent, buffer=p.dst.buffer,
                    posted_at=int(p.posted_at),
                )
            )
    for (r, c, cid), queue in sorted(engine._relay.items()):
        for p in queue:
            stuck.append(
                StuckTransfer(
                    row=r, col=c, color_id=cid, kind="relay",
                    extent=p.extent, buffer="",
                    posted_at=int(p.posted_at),
                )
            )
    if injector is not None:
        stuck.extend(injector.quiesce_stuck(engine))
    # Canonical ordering (not chronological): the report must be identical
    # whether it was built by one engine or merged from row partitions.
    stuck.sort(key=stuck_key)
    injected: tuple[InjectedFault, ...] = ()
    halted: tuple[tuple[int, int], ...] = ()
    seed = None
    if injector is not None:
        injected = tuple(sorted(injector.log, key=injected_key))
        halted = tuple(sorted(injector.halted))
        seed = injector.plan.seed
    progress = 0
    for s in stuck:
        progress = max(progress, s.posted_at)
    for f in injected:
        progress = max(progress, f.cycle)
    return FaultReport(
        reason=reason,
        last_progress_cycle=progress,
        stuck=tuple(stuck),
        halted_pes=halted,
        injected=injected,
        seed=seed,
    )
