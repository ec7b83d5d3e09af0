"""Structured reports for the robustness layer.

Three report types, one per failure domain:

- :class:`FaultReport` — what the simulator saw when a run stalled: which
  PEs/colors are wedged, the last cycle any of them made progress, and the
  provenance of any *injected* faults (so a test can assert "this exact
  injected drop caused this exact stall").
- :class:`IntegrityReport` — what ``verify`` found walking a container's
  checksums without decoding.
- :class:`SalvageReport` — what a salvage decode recovered and what it
  lost, including where the error bound no longer holds.

All three are frozen dataclasses of plain picklable data: they cross the
multiprocessing boundary attached to exceptions, and serialize to JSON for
the CI chaos artifact.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field


@dataclass(frozen=True)
class InjectedFault:
    """Provenance record of one fault the injector actually fired."""

    kind: str  # halt | drop | dup | flip | link
    row: int
    col: int
    cycle: int
    detail: str = ""


@dataclass(frozen=True)
class StuckTransfer:
    """One unmatched pending receive or relay at stall time."""

    row: int
    col: int
    color_id: int
    kind: str  # "recv" | "relay" | "inbox" | "activation"
    extent: int  # wavelets still expected (queued items for inbox/activation)
    buffer: str  # destination buffer name ("" for relays)
    posted_at: int  # cycle the receive/relay was posted


@dataclass(frozen=True)
class FaultReport:
    """Structured diagnosis of a stalled simulation.

    ``last_progress_cycle`` is computed only from row-local facts (posting
    cycles of stuck transfers, injected-fault cycles) so it is identical
    whether the mesh ran in one process or partitioned across several.
    """

    reason: str  # "deadlock" | "livelock"
    last_progress_cycle: int
    stuck: tuple[StuckTransfer, ...] = ()
    halted_pes: tuple[tuple[int, int], ...] = ()
    injected: tuple[InjectedFault, ...] = ()
    seed: int | None = None

    @property
    def stuck_pes(self) -> tuple[tuple[int, int], ...]:
        """Coordinates with at least one wedged transfer, sorted, deduped."""
        return tuple(sorted({(s.row, s.col) for s in self.stuck}))

    def describe(self) -> str:
        lines = [
            f"FaultReport: {self.reason}, last progress at cycle "
            f"{self.last_progress_cycle}"
        ]
        for s in self.stuck:
            what = {
                "recv": f"recv of {s.extent} wavelets into {s.buffer!r}",
                "inbox": f"{s.extent} deliveries left in the inbox",
                "activation": f"{s.extent} queued activation(s) never run",
            }.get(s.kind, f"relay of {s.extent} wavelets")
            lines.append(
                f"  stuck: PE({s.row},{s.col}) color {s.color_id} — {what}, "
                f"posted at cycle {s.posted_at}"
            )
        for row, col in self.halted_pes:
            lines.append(f"  halted: PE({row},{col})")
        for f in self.injected:
            lines.append(
                f"  injected: {f.kind} at PE({f.row},{f.col}) "
                f"cycle {f.cycle}" + (f" ({f.detail})" if f.detail else "")
            )
        return "\n".join(lines)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(asdict(self), indent=indent)

    def merged_with(self, other: "FaultReport") -> "FaultReport":
        """Fold two partition-local reports into one mesh-wide view.

        Stuck transfers and injected faults merge as multisets: a fault
        that fired repeatedly (a dead link dropping eight blocks) keeps
        every entry, as in the report of a run that never split the mesh.
        """
        return FaultReport(
            reason=self.reason if self.reason == other.reason else "deadlock",
            last_progress_cycle=max(
                self.last_progress_cycle, other.last_progress_cycle
            ),
            stuck=tuple(sorted(self.stuck + other.stuck, key=stuck_key)),
            halted_pes=tuple(
                sorted(set(self.halted_pes) | set(other.halted_pes))
            ),
            injected=tuple(
                sorted(self.injected + other.injected, key=injected_key)
            ),
            seed=self.seed if self.seed is not None else other.seed,
        )


def stuck_key(s: StuckTransfer):
    """Canonical (not chronological) order of a report's stuck transfers."""
    return (s.row, s.col, s.color_id, s.kind, s.posted_at, s.extent, s.buffer)


def injected_key(f: InjectedFault):
    """Canonical order of a report's injected faults."""
    return (f.cycle, f.row, f.col, f.kind, f.detail)


@dataclass(frozen=True)
class IntegrityReport:
    """Result of a checksum walk over a container — no payload decode."""

    kind: str  # "ceresz" | "sharded"
    checksummed: bool
    total_blocks: int
    corrupt_blocks: tuple[int, ...] = ()
    corrupt_groups: tuple[int, ...] = ()
    #: For CSZX containers: per-shard nested reports (index-aligned).
    shards: tuple["IntegrityReport", ...] = ()
    corrupt_shards: tuple[int, ...] = ()
    meta_ok: bool = True
    note: str = ""

    @property
    def ok(self) -> bool:
        return (
            self.meta_ok
            and not self.corrupt_blocks
            and not self.corrupt_shards
            and all(s.ok for s in self.shards)
        )

    def describe(self) -> str:
        if not self.checksummed:
            return (
                f"{self.kind}: no checksums present (pre-CRC stream); "
                "structural walk only"
                + (f" — {self.note}" if self.note else "")
            )
        if self.ok:
            return (
                f"{self.kind}: OK — {self.total_blocks} blocks verified"
            )
        parts = [f"{self.kind}: CORRUPT"]
        if not self.meta_ok:
            parts.append("header/metadata checksum failed")
        if self.corrupt_blocks:
            parts.append(
                f"{len(self.corrupt_blocks)} corrupt blocks "
                f"(first: {self.corrupt_blocks[0]})"
            )
        if self.corrupt_shards:
            parts.append(
                f"shards {list(self.corrupt_shards)} failed verification"
            )
        if self.note:
            parts.append(self.note)
        return " — ".join(parts)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(asdict(self), indent=indent)


@dataclass(frozen=True)
class SalvageReport:
    """What a salvage decode recovered, lost, and can still guarantee."""

    total_elements: int
    total_blocks: int
    blocks_lost: int
    elements_lost: int
    lost_block_indices: tuple[int, ...] = ()
    shards_lost: tuple[int, ...] = ()
    fill: str = "zero"  # "zero" | "previous"
    #: The fill *actually applied* per contiguous lost region, as
    #: ``(first_block, stop_block, effective_fill)`` half-open spans.
    #: Under ``fill="previous"`` a corrupt leading region has no intact
    #: predecessor and falls back to zero fill — the effective fill is
    #: what tells the consumer which regions hold carried-forward values
    #: and which hold zeros.
    fill_regions: tuple[tuple[int, int, str], ...] = ()
    eps: float = 0.0
    #: Error-bound audit over the *intact* region (None when no original
    #: array was supplied to compare against).
    bound: "object | None" = None
    notes: tuple[str, ...] = ()

    @property
    def clean(self) -> bool:
        return self.blocks_lost == 0 and not self.shards_lost

    def describe(self) -> str:
        if self.clean:
            return (
                f"salvage: clean — all {self.total_blocks} blocks decoded"
            )
        lines = [
            f"salvage: lost {self.blocks_lost}/{self.total_blocks} blocks "
            f"({self.elements_lost} of {self.total_elements} elements), "
            f"fill={self.fill}"
        ]
        if self.shards_lost:
            lines.append(f"  shards lost: {list(self.shards_lost)}")
        if self.lost_block_indices:
            shown = list(self.lost_block_indices[:16])
            more = len(self.lost_block_indices) - len(shown)
            lines.append(
                "  blocks lost: "
                + ", ".join(str(i) for i in shown)
                + (f" … +{more} more" if more > 0 else "")
            )
        if self.fill_regions:
            shown = ", ".join(
                f"[{a}, {b})={eff}" for a, b, eff in self.fill_regions[:8]
            )
            more = len(self.fill_regions) - 8
            lines.append(
                "  fill regions: "
                + shown
                + (f" … +{more} more" if more > 0 else "")
            )
        if self.bound is not None:
            ok = getattr(self.bound, "count", 1) == 0
            lines.append(
                "  error bound holds on intact region"
                if ok
                else f"  error bound VIOLATED on intact region: {self.bound}"
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def to_json(self, indent: int | None = 2) -> str:
        payload = asdict(self)
        return json.dumps(payload, indent=indent)


@dataclass(frozen=True)
class ShardFailure:
    """One shard's terminal failure inside a resilient pool run."""

    index: int
    attempts: int
    kind: str  # "timeout" | "error"
    error: str = ""
