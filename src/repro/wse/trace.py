"""Execution traces and profiling helpers.

The paper measures runtime with the per-PE hardware cycle counters and
reports the *maximum* cycles across PEs (Section 5.1.1). The trace recorder
mirrors that: it collects per-PE busy/compute/relay cycles and task counts
from a finished simulation so tests and benchmarks can ask the same
questions the paper's profiling sections do (Tables 1-3, Fig 10).

Lowered mapping plans additionally attach one :class:`NodeCounters` per
plan node to its PE: blocks relayed, wavelets sent, blocks emitted, and
busy cycles per sub-stage. The recorder aggregates those so the validation
layer can compare observed vs predicted cycles per pipeline *step*, not
just end-to-end makespans.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.config import CLOCK_HZ
from repro.wse.pe import ProcessingElement


def coarse_step(stage_name: str) -> str:
    """Map a sub-stage name onto the paper's coarse pipeline steps."""
    if stage_name in ("multiplication", "addition"):
        return "prequant"
    if stage_name == "lorenzo":
        return "lorenzo"
    if stage_name in ("sign", "max", "get_length") or stage_name.startswith(
        "shuffle_bit_"
    ):
        return "encode"
    if stage_name == "sign_restore" or stage_name.startswith(
        "unshuffle_bit_"
    ):
        return "decode"
    if stage_name == "prefix_sum":
        return "unlorenzo"
    if stage_name in ("dequant_mult", "zero_flag"):
        return "dequant"
    return "other"


@dataclass
class NodeCounters:
    """Instrumentation one lowered plan node accumulates during a run."""

    label: str
    kind: str
    row: int
    col: int
    blocks_relayed: int = 0
    wavelets_sent: int = 0
    blocks_emitted: int = 0
    stage_cycles: dict[str, float] = field(default_factory=dict)

    def add_stage(self, stage_name: str, cycles: float) -> None:
        self.stage_cycles[stage_name] = (
            self.stage_cycles.get(stage_name, 0.0) + cycles
        )

    def add_stages(self, items: tuple[tuple[str, float], ...]) -> None:
        """Bulk :meth:`add_stage` for precomputed per-block stage plans.

        The fused kernels account a block's stage list (the whole
        algorithm, or one pipeline stage group) in one call instead of one
        per sub-stage; the accumulated totals are identical.
        """
        sc = self.stage_cycles
        for name, cycles in items:
            sc[name] = sc.get(name, 0.0) + cycles


@dataclass(frozen=True)
class PETrace:
    """Cycle accounting of one PE at the end of a run."""

    row: int
    col: int
    compute_cycles: int
    relay_cycles: int
    tasks_run: int
    finished_at: float  # simulated cycle when this PE last went idle

    @property
    def total_cycles(self) -> int:
        return self.compute_cycles + self.relay_cycles


class TraceRecorder:
    """Collects :class:`PETrace` rows and answers aggregate queries."""

    def __init__(self) -> None:
        self._traces: list[PETrace] = []
        self._node_counters: list[NodeCounters] = []
        self._replicas: list[tuple[TraceRecorder, int]] = []
        self.events_processed = 0

    @property
    def traces(self) -> list[PETrace]:
        self._materialize()
        return self._traces

    @property
    def node_counters(self) -> list[NodeCounters]:
        self._materialize()
        return self._node_counters

    def iter_traces(self) -> Iterator[PETrace]:
        """Every PE's row in recording order, without building replicas.

        A pending replica (:meth:`merge_replica`) yields its source's rows
        as they are, so their ``row`` is the representative's: fit for the
        coordinate-free aggregates, which read these. :attr:`traces` holds
        the placed rows.
        """
        yield from self._traces
        for part, _ in self._replicas:
            yield from part.iter_traces()

    def iter_node_counters(self) -> Iterator[NodeCounters]:
        """:meth:`iter_traces` for the node counters (labels unplaced)."""
        yield from self._node_counters
        for part, _ in self._replicas:
            yield from part.iter_node_counters()

    def record(self, pe: ProcessingElement) -> None:
        self.traces.append(
            PETrace(
                row=pe.row,
                col=pe.col,
                compute_cycles=pe.compute_cycles,
                relay_cycles=pe.relay_cycles,
                tasks_run=pe.tasks_run,
                finished_at=pe.busy_until,
            )
        )
        self.node_counters.extend(getattr(pe, "counters", ()))

    # -- plan-node instrumentation aggregates --------------------------------------

    def stage_cycle_totals(self) -> dict[str, float]:
        """Busy cycles per sub-stage summed over every lowered node."""
        totals: dict[str, float] = {}
        for nc in self.iter_node_counters():
            for name, cycles in nc.stage_cycles.items():
                totals[name] = totals.get(name, 0.0) + cycles
        return totals

    def step_cycle_totals(self) -> dict[str, float]:
        """Busy cycles per coarse pipeline step (prequant/lorenzo/encode...)."""
        totals: dict[str, float] = {}
        for name, cycles in self.stage_cycle_totals().items():
            step = coarse_step(name)
            totals[step] = totals.get(step, 0.0) + cycles
        return totals

    def total_blocks_relayed(self) -> int:
        return sum(nc.blocks_relayed for nc in self.iter_node_counters())

    def total_wavelets_sent(self) -> int:
        return sum(nc.wavelets_sent for nc in self.iter_node_counters())

    # -- the paper's aggregates ----------------------------------------------------

    @property
    def makespan_cycles(self) -> float:
        """Cycles until the last PE finished (the paper's timing rule)."""
        return max((t.finished_at for t in self.iter_traces()), default=0.0)

    def makespan_seconds(self, clock_hz: float = CLOCK_HZ) -> float:
        return self.makespan_cycles / clock_hz

    def throughput_bytes_per_s(
        self, payload_bytes: int, clock_hz: float = CLOCK_HZ
    ) -> float:
        """Throughput as the paper computes it: original size / makespan."""
        seconds = self.makespan_seconds(clock_hz)
        if seconds <= 0:
            raise ZeroDivisionError("simulation produced a zero makespan")
        return payload_bytes / seconds

    def max_compute_cycles(self) -> int:
        return max((t.compute_cycles for t in self.iter_traces()), default=0)

    def total_relay_cycles(self) -> int:
        return sum(t.relay_cycles for t in self.iter_traces())

    def per_row(self) -> dict[int, list[PETrace]]:
        rows: dict[int, list[PETrace]] = {}
        for t in self.traces:
            rows.setdefault(t.row, []).append(t)
        return rows

    def merge_partition(
        self, rows: tuple[int, ...], part: "TraceRecorder"
    ) -> None:
        """Fold one row-partition's recorder into this one.

        A partition worker simulates on a full-size mesh, so its recorder
        also holds all-idle traces for foreign rows; only ``rows``' own
        entries are taken. Callers must fold partitions in row order —
        then the merged trace/counter sequences are exactly what the
        serial run's row-major recording produces. Event counts add up
        exactly: every engine event belongs to a single row.
        """
        keep = set(rows)
        self.traces.extend(t for t in part.traces if t.row in keep)
        self.node_counters.extend(
            nc for nc in part.node_counters if nc.row in keep
        )
        self.events_processed += part.events_processed

    def merge_replica(
        self, part: "TraceRecorder", row_offset: int
    ) -> None:
        """Fold one replicated copy of a representative's recorder in.

        Hybrid simulation runs one representative partition (rebased to
        row 0) per equivalence class and synthesizes the member rows from
        it: each copy's traces and counters are the representative's with
        the row coordinate translated by ``row_offset`` (labels rewritten
        to match what serial lowering would have produced at that row).
        Callers fold copies in target-row order so the sequences match the
        serial run's row-major recording. ``events_processed`` is *not*
        touched here — replication multiplies it, so the composer sets the
        class-weighted total once.

        The copy is kept by reference, O(1). The coordinate-free
        aggregates read its source's rows in place; its own rows are built
        only when :attr:`traces` or :attr:`node_counters` is read, in merge
        order, sharing the representative's ``stage_cycles`` dicts. A
        representative must not be mutated once merged.
        """
        self._replicas.append((part, row_offset))

    def _materialize(self) -> None:
        """Build the rows of every pending replica, in merge order."""
        pending, self._replicas = self._replicas, []
        for part, row_offset in pending:
            for t in part.traces:
                self._traces.append(
                    PETrace(
                        row=t.row + row_offset,
                        col=t.col,
                        compute_cycles=t.compute_cycles,
                        relay_cycles=t.relay_cycles,
                        tasks_run=t.tasks_run,
                        finished_at=t.finished_at,
                    )
                )
            for nc in part.node_counters:
                row = nc.row + row_offset
                self._node_counters.append(
                    NodeCounters(
                        label=f"{nc.kind}@({row},{nc.col})",
                        kind=nc.kind,
                        row=row,
                        col=nc.col,
                        blocks_relayed=nc.blocks_relayed,
                        wavelets_sent=nc.wavelets_sent,
                        blocks_emitted=nc.blocks_emitted,
                        stage_cycles=nc.stage_cycles,
                    )
                )

    def busiest_pe(self) -> PETrace:
        if not self.traces:
            raise ValueError("no traces recorded")
        return max(self.traces, key=lambda t: t.total_cycles)

    def load_imbalance(self) -> float:
        """max/mean busy cycles across PEs that did any work.

        Returns 0.0 when no PE did any work (empty or compute-free
        trace): there is no load, so there is no imbalance — and the
        sentinel is distinguishable from a genuinely perfect 1.0.
        """
        busy = [
            t.total_cycles for t in self.iter_traces() if t.total_cycles > 0
        ]
        if not busy:
            return 0.0
        mean = sum(busy) / len(busy)
        return max(busy) / mean if mean else 0.0
