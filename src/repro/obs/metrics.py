"""Named counters, gauges, and histograms with labels.

One registry per run replaces the scattered integer attributes the
simulator grew organically (``Fabric.route_cache_hits``,
``Engine.events_processed``, per-``NodeCounters`` ints): every number a
run produces is published here under a stable name, with labels for the
dimensions that matter (``sim.cycles{step=encode}``), and every exporter
and CLI report reads from the same snapshot.

Overhead budget: the simulator's hot loops keep their raw integer cells
(an attribute increment is the cheapest thing Python can do); the
registry is populated once per run by the ``collect_*`` functions below.
That is what keeps ``trace_level="off"`` runs within the <5 % wall-time
budget while still giving every run a complete metrics snapshot.

Merge policy (row-parallel workers return snapshots, the parent folds
them in):

* **counters sum** — partition work is disjoint by row, so sums over
  partitions equal the serial run's totals exactly;
* **gauges take the max** — high-water marks (queue depth, inbox depth);
  per-PE marks are identical to serial, but the *event-queue* depth is a
  genuinely concurrent quantity and is documented as such;
* **histograms add bucket counts** and combine min/max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

_NO_LABELS = ""


def _label_key(labels: dict) -> str:
    if not labels:
        return _NO_LABELS
    return ",".join(f"{k}={labels[k]}" for k in sorted(labels))


@dataclass
class Counter:
    """Monotonically increasing value, one cell per label set."""

    name: str
    help: str = ""
    values: dict[str, float] = field(default_factory=dict)
    kind: str = "counter"

    def inc(self, amount: float = 1, **labels) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        key = _label_key(labels)
        self.values[key] = self.values.get(key, 0) + amount

    def value(self, **labels) -> float:
        return self.values.get(_label_key(labels), 0)

    def total(self) -> float:
        return sum(self.values.values())


@dataclass
class Gauge:
    """Point-in-time value, one cell per label set."""

    name: str
    help: str = ""
    values: dict[str, float] = field(default_factory=dict)
    kind: str = "gauge"

    def set(self, value: float, **labels) -> None:
        self.values[_label_key(labels)] = value

    def set_max(self, value: float, **labels) -> None:
        """Keep the running maximum (high-water-mark gauges)."""
        key = _label_key(labels)
        if value > self.values.get(key, -math.inf):
            self.values[key] = value

    def value(self, **labels) -> float:
        return self.values.get(_label_key(labels), 0)


#: Default histogram bucket upper bounds: powers of 4 cover cycle counts
#: from single-task to whole-run magnitudes in 12 buckets.
DEFAULT_BUCKETS = tuple(float(4**k) for k in range(1, 13))


@dataclass
class Histogram:
    """Cumulative-bucket histogram, one cell set per label set."""

    name: str
    help: str = ""
    buckets: tuple[float, ...] = DEFAULT_BUCKETS
    values: dict[str, dict] = field(default_factory=dict)
    kind: str = "histogram"

    def _cell(self, key: str) -> dict:
        cell = self.values.get(key)
        if cell is None:
            cell = self.values[key] = {
                "count": 0,
                "sum": 0.0,
                "min": math.inf,
                "max": -math.inf,
                "bucket_counts": [0] * (len(self.buckets) + 1),
            }
        return cell

    def observe(self, value: float, **labels) -> None:
        cell = self._cell(_label_key(labels))
        cell["count"] += 1
        cell["sum"] += value
        cell["min"] = min(cell["min"], value)
        cell["max"] = max(cell["max"], value)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                cell["bucket_counts"][i] += 1
                return
        cell["bucket_counts"][-1] += 1  # overflow bucket

    def cell(self, **labels) -> dict | None:
        return self.values.get(_label_key(labels))


class MetricsRegistry:
    """Get-or-create registry of named metrics; snapshot/merge/render."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, cls, name: str, help_: str, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name=name, help=help_, **kwargs)
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: tuple[float, ...] | None = None
    ) -> Histogram:
        if buckets is not None:
            return self._get(Histogram, name, help, buckets=buckets)
        return self._get(Histogram, name, help)

    def __iter__(self):
        for name in sorted(self._metrics):
            yield self._metrics[name]

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        return self._metrics.get(name)

    # -- snapshot / merge ------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-able state: ``{name: {kind, help, values, [buckets]}}``."""
        out: dict = {}
        for metric in self:
            entry = {
                "kind": metric.kind,
                "help": metric.help,
                "values": {
                    k: (dict(v) if isinstance(v, dict) else v)
                    for k, v in metric.values.items()
                },
            }
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
            out[metric.name] = entry
        return out

    def merge(self, snapshot: dict) -> None:
        """Fold a worker's :meth:`snapshot` in (see the merge policy above)."""
        for name, entry in snapshot.items():
            kind = entry["kind"]
            if kind == "counter":
                counter = self.counter(name, entry.get("help", ""))
                for key, value in entry["values"].items():
                    counter.values[key] = counter.values.get(key, 0) + value
            elif kind == "gauge":
                gauge = self.gauge(name, entry.get("help", ""))
                for key, value in entry["values"].items():
                    if value > gauge.values.get(key, -math.inf):
                        gauge.values[key] = value
            elif kind == "histogram":
                hist = self.histogram(
                    name,
                    entry.get("help", ""),
                    buckets=tuple(entry["buckets"]),
                )
                if list(hist.buckets) != list(entry["buckets"]):
                    raise ValueError(
                        f"histogram {name!r} bucket bounds disagree"
                    )
                for key, other in entry["values"].items():
                    cell = hist._cell(key)
                    cell["count"] += other["count"]
                    cell["sum"] += other["sum"]
                    cell["min"] = min(cell["min"], other["min"])
                    cell["max"] = max(cell["max"], other["max"])
                    cell["bucket_counts"] = [
                        a + b
                        for a, b in zip(
                            cell["bucket_counts"], other["bucket_counts"]
                        )
                    ]
            else:
                raise ValueError(f"unknown metric kind {kind!r}")

    def merge_scaled(self, snapshot: dict, factor: int) -> None:
        """Fold ``factor`` identical copies of a worker snapshot in.

        Used by hybrid (replicated-row) simulation: a representative
        partition's counters and histogram populations occur once per
        member row, so they scale linearly with the class size; gauges are
        per-run maxima and identical across copies, so they merge
        unscaled. Equivalent to calling :meth:`merge` ``factor`` times.
        """
        self.merge(scale_snapshot(snapshot, factor))

    def counter_totals(self) -> dict[str, float]:
        """``{name: summed value}`` over counters only — the exactly
        merge-invariant subset (used by the parallel-equivalence tests)."""
        return {
            m.name: m.total() for m in self if isinstance(m, Counter)
        }

    # -- reporting -------------------------------------------------------------

    def render(self) -> str:
        """Human-readable dump, one line per metric cell."""
        lines: list[str] = []
        for metric in self:
            for key in sorted(metric.values):
                cell = metric.values[key]
                label = f"{{{key}}}" if key else ""
                if isinstance(metric, Histogram):
                    lines.append(
                        f"{metric.name}{label}: count {cell['count']}, "
                        f"sum {cell['sum']:g}, min {cell['min']:g}, "
                        f"max {cell['max']:g}"
                    )
                else:
                    lines.append(f"{metric.name}{label}: {cell:g}")
        return "\n".join(lines)


def scale_snapshot(snapshot: dict, factor: int) -> dict:
    """A snapshot equal to merging ``factor`` copies of ``snapshot``.

    Counters and histogram populations (count, sum, per-bucket counts)
    scale by ``factor``; gauges and histogram min/max are maxima/extrema
    and are invariant under replication. The input is not mutated.
    """
    if factor < 1:
        raise ValueError(f"scale factor must be >= 1, got {factor}")
    out: dict = {}
    for name, entry in snapshot.items():
        kind = entry["kind"]
        scaled = dict(entry)
        if kind == "counter":
            scaled["values"] = {
                key: value * factor for key, value in entry["values"].items()
            }
        elif kind == "gauge":
            scaled["values"] = dict(entry["values"])
        elif kind == "histogram":
            cells: dict = {}
            for key, cell in entry["values"].items():
                copy = dict(cell)
                copy["count"] = cell["count"] * factor
                copy["sum"] = cell["sum"] * factor
                copy["bucket_counts"] = [
                    b * factor for b in cell["bucket_counts"]
                ]
                cells[key] = copy
            scaled["values"] = cells
        else:
            raise ValueError(f"unknown metric kind {kind!r}")
        out[name] = scaled
    return out


# -- run collectors ------------------------------------------------------------
#
# The simulator's hot paths keep raw integer cells; these publish them into
# a registry once per run. Split three ways because the row-parallel path
# collects fabric/engine metrics inside each worker (each worker owns its
# fabric and engine) but trace metrics once, from the exactly-merged
# recorder, in the parent.


def collect_fabric_metrics(registry: MetricsRegistry, fabric) -> None:
    """Route-cache counters and PE inbox high-water marks."""
    cache = registry.counter(
        "sim.route_cache", "Fabric.resolve route-memo outcomes"
    )
    cache.inc(fabric.route_cache_hits, outcome="hit")
    cache.inc(fabric.route_cache_misses, outcome="miss")
    registry.counter(
        "sim.route_cache.entries", "memoized (PE, color, entering) routes"
    ).inc(fabric.route_cache_size)
    inbox = registry.gauge(
        "sim.pe.inbox_depth.max", "deepest per-color inbox backlog on any PE"
    )
    inbox.set_max(max((pe.max_inbox_depth for pe in fabric), default=0))


def collect_engine_metrics(registry: MetricsRegistry, engine) -> None:
    """Event counts and event-queue depth."""
    registry.counter(
        "sim.engine.events", "discrete events processed"
    ).inc(engine.events_processed)
    registry.gauge(
        "sim.engine.queue_depth.max",
        "deepest event heap (concurrency-dependent: serial and partitioned "
        "runs interleave rows differently)",
    ).set_max(engine.max_queue_depth)


def collect_trace_metrics(registry: MetricsRegistry, trace) -> None:
    """Cycle totals, per-step breakdowns, and per-PE busy histogram."""
    registry.counter("sim.pe.compute_cycles", "busy compute cycles").inc(
        sum(t.compute_cycles for t in trace.iter_traces())
    )
    registry.counter("sim.pe.relay_cycles", "busy relay cycles").inc(
        sum(t.relay_cycles for t in trace.iter_traces())
    )
    registry.counter("sim.pe.tasks", "task executions").inc(
        sum(t.tasks_run for t in trace.iter_traces())
    )
    registry.counter("sim.blocks.relayed", "blocks passed through").inc(
        trace.total_blocks_relayed()
    )
    registry.counter("sim.wavelets.sent", "wavelets injected by nodes").inc(
        trace.total_wavelets_sent()
    )
    registry.counter("sim.blocks.emitted", "records/blocks finalized").inc(
        sum(nc.blocks_emitted for nc in trace.iter_node_counters())
    )
    steps = registry.counter(
        "sim.cycles", "busy cycles per coarse pipeline step"
    )
    for step, cycles in sorted(trace.step_cycle_totals().items()):
        steps.inc(cycles, step=step)
    busy = registry.histogram(
        "sim.pe.busy_cycles", "per-PE total busy cycles"
    )
    for t in trace.iter_traces():
        busy.observe(t.total_cycles)


def collect_fault_metrics(registry: MetricsRegistry, injector) -> None:
    """Publish fault-injection outcomes (``faults.injected{kind=...}``,
    ``faults.detected``). No-op without an injector so callers can pass
    ``engine.faults`` unconditionally."""
    if injector is None:
        return
    injected = registry.counter(
        "faults.injected", "faults fired by the injector, by kind"
    )
    for fault in injector.log:
        injected.inc(kind=fault.kind)
    registry.counter(
        "faults.detected", "stalled rows diagnosed into FaultReports"
    ).inc(injector.detected)


def collect_repair_metrics(registry: MetricsRegistry, report) -> None:
    """Publish self-healing outcomes (``faults.repaired``,
    ``faults.fallback_blocks``). No-op without a RepairReport so callers
    can pass ``run.repair`` unconditionally."""
    if report is None:
        return
    registry.counter(
        "faults.repaired", "rows recovered by wafer-side plan repair"
    ).inc(report.repaired_rows)
    registry.counter(
        "faults.fallback_blocks",
        "blocks carried by the host fast path in degraded mode",
    ).inc(len(report.fallback_blocks))


def collect_run_metrics(
    registry: MetricsRegistry, *, fabric=None, engine=None, trace=None
) -> None:
    """Publish what one finished run produced, in a fixed order: fabric,
    engine, the engine's fault injector, then the trace. Row-parallel
    workers pass no trace; the parent collects it once from the merged
    recorder."""
    if fabric is not None:
        collect_fabric_metrics(registry, fabric)
    if engine is not None:
        collect_engine_metrics(registry, engine)
        collect_fault_metrics(registry, engine.faults)
    if trace is not None:
        collect_trace_metrics(registry, trace)
