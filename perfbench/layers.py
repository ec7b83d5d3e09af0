"""Outside-in layer tracing for the benchmark.

The benchmark times each layer by wrapping the layer's public function
where its callers look it up: the module global a ``from x import y``
bound, the module attribute a lazy import reads at call time, or the
class attribute a method call resolves through. Nothing inside ``repro``
changes; the wrappers are installed only around traced operations and
removed afterwards, so untraced calls run the unmodified code.

Every wrapped call records a span (id, parent id, name, operation id,
start, end) in memory; the root of each tree is the traced public-API call.
A layer's self time is its duration minus the time of the wrapped spans
it directly contains. Spans are written out once, at the end of the run,
as Chrome trace-event JSON (open in Perfetto or ``chrome://tracing``).
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

#: (span name, module, attribute). Several attributes may share one span
#: name when together they make up one layer. The module is the one the
#: *caller* reads the name from, which is not always where it is defined:
#: ``repro.core.fastpath`` binds ``pack_records`` at import, while the
#: ``integrity`` functions are imported lazily and read from their module.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("quantize.resolve_bound", "repro.core.compressor",
     "CereSZ.resolve_error_bound"),
    ("fastpath.compress", "repro.core.fastpath", "fused_compress_blocks"),
    ("fastpath.decompress", "repro.core.fastpath", "fused_decompress_blocks"),
    ("predictors.predict", "repro.core.predictors",
     "Lorenzo1D.predict_blocks"),
    ("predictors.reconstruct", "repro.core.predictors",
     "Lorenzo1D.reconstruct_blocks"),
    ("encoding.bit_lengths", "repro.core.fastpath", "exact_bit_lengths"),
    ("encoding.pack_records", "repro.core.fastpath", "pack_records"),
    ("encoding.decode_blocks", "repro.core.fastpath", "decode_blocks"),
    ("encoding.decode_blocks", "repro.core.compressor", "decode_blocks"),
    ("encoding.scan_offsets", "repro.core.compressor", "scan_record_offsets"),
    ("encoding.index_offsets", "repro.core.compressor", "unpack_block_index"),
    ("encoding.index_offsets", "repro.core.compressor",
     "index_record_offsets"),
    ("integrity.crc_build", "repro.core.integrity", "build_checksummed_tail"),
    ("integrity.crc_verify", "repro.core.integrity", "read_checksum_layout"),
    ("integrity.crc_verify", "repro.core.integrity", "verify_groups"),
    ("plan.build", "repro.core.wse_compressor", "plan_multi_pipeline"),
    ("plan.build", "repro.core.wse_compressor", "plan_staged_multi_pipeline"),
    ("plan.build", "repro.core.wse_compressor", "plan_pipeline"),
    ("plan.build", "repro.core.wse_compressor", "plan_row_parallel"),
    ("plan.build", "repro.core.wse_compressor", "plan_pipeline_decompress"),
    ("plan.build", "repro.core.wse_compressor",
     "plan_row_parallel_decompress"),
    ("simulate.compose", "repro.core.wse_compressor", "simulate_replicated"),
    ("lower.lower", "repro.core.simulate", "lower_plan"),
    ("engine.run", "repro.wse.engine", "Engine.run"),
    ("trace.merge_replica", "repro.wse.trace", "TraceRecorder.merge_replica"),
    ("mapping.stream", "repro.core.mapping", "ProgramOutputs.stream"),
)


def _resolve(module: str, attr: str) -> tuple[object, str]:
    """The object that owns ``attr`` and the final attribute name."""
    owner: object = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Operation:
    """Per-layer accounting for one traced public-API call."""

    def __init__(self, kind: str, span_id: int) -> None:
        self.kind = kind
        self.span_id = span_id
        self.wall = 0.0
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        #: Time covered by outermost wrapped spans; the rest of ``wall`` is
        #: unattributed (the harness call itself, glue between layers).
        self.attributed = 0.0
        self.events = 0
        self.gc_s = 0.0
        self.gc_collections = 0
        #: Machine speed relative to the benchmark's reference during the
        #: call; span times are reported scaled by it.
        self.speed = 1.0


class LayerTracer:
    """Installs span-recording wrappers around :data:`TARGETS`."""

    def __init__(self) -> None:
        #: (span id, parent id, name, operation span id, start, end).
        self.spans: list[tuple[int, int, str, int, float, float]] = []
        self._ids = 0
        self._t0 = time.perf_counter()
        self._stack: list[list] = []  # [name, start, child_time, span id]
        self._op: Operation | None = None
        self._gc_start = 0.0
        self._patches: list[tuple[object, str, object, object]] = []
        for name, module, attr in TARGETS:
            owner, leaf = _resolve(module, attr)
            # ``vars`` keeps a descriptor (staticmethod, ...) intact so the
            # uninstall restores exactly what was there.
            original = vars(owner)[leaf]
            self._patches.append(
                (owner, leaf, original, self._wrap(name, original))
            )

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._ids += 1
            frame = [name, time.perf_counter(), 0.0, tracer._ids]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer._close(frame, end)
            if name == "engine.run":
                tracer._op.events += int(result.events_processed)
            return result

        return wrapper

    def _close(self, frame: list, end: float) -> None:
        name, start, child, span_id = frame
        dur = end - start
        op = self._op
        op.total[name] += dur
        op.self_time[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
            parent = self._stack[-1][3]
        else:
            op.attributed += dur
            parent = op.span_id
        self.spans.append((span_id, parent, name, op.span_id, start, end))

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._op is not None:
            self._op.gc_s += time.perf_counter() - self._gc_start
            self._op.gc_collections += 1

    def run(self, kind: str, fn):
        """Call ``fn()`` with every wrapper installed; ``(result, op)``."""
        self._ids += 1
        op = Operation(kind, self._ids)
        self._op = op
        for owner, leaf, _, wrapper in self._patches:
            setattr(owner, leaf, wrapper)
        gc.callbacks.append(self._on_gc)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            end = time.perf_counter()
            gc.callbacks.remove(self._on_gc)
            for owner, leaf, original, _ in self._patches:
                setattr(owner, leaf, original)
            self._op = None
            self._stack.clear()
        op.wall = end - start
        self.spans.append((op.span_id, 0, kind, op.span_id, start, end))
        return result, op

    def write(self, path: Path) -> None:
        """Dump the recorded spans as Chrome trace-event JSON."""
        events = [
            {
                "name": name,
                "cat": "layer" if parent else "op",
                "ph": "X",
                "ts": (start - self._t0) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": span_id, "parent": parent, "op": op},
            }
            for span_id, parent, name, op, start, end in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


#: Per-layer time metrics: metric -> (span name, "total" or "self").
SPAN_METRICS = {
    "quantize.resolve_bound_s": ("quantize.resolve_bound", "total"),
    "fastpath.compress_self_s": ("fastpath.compress", "self"),
    "predictors.predict_s": ("predictors.predict", "total"),
    "encoding.bit_lengths_s": ("encoding.bit_lengths", "total"),
    "encoding.pack_records_s": ("encoding.pack_records", "total"),
    "integrity.crc_build_s": ("integrity.crc_build", "total"),
    "integrity.crc_verify_s": ("integrity.crc_verify", "total"),
    "encoding.scan_offsets_s": ("encoding.scan_offsets", "total"),
    "encoding.index_offsets_s": ("encoding.index_offsets", "total"),
    "encoding.decode_blocks_s": ("encoding.decode_blocks", "total"),
    "predictors.reconstruct_s": ("predictors.reconstruct", "total"),
    "fastpath.decompress_self_s": ("fastpath.decompress", "self"),
    "plan.build_s": ("plan.build", "total"),
    "lower.lower_s": ("lower.lower", "total"),
    "engine.run_s": ("engine.run", "total"),
    "trace.merge_replica_s": ("trace.merge_replica", "total"),
    "simulate.compose_self_s": ("simulate.compose", "self"),
    "mapping.stream_s": ("mapping.stream", "total"),
}

#: Every per-layer metric the traced run reports, with its unit. The
#: encoding.* counts and sim.* come from the stream and the simulation
#: report; the trace.overhead_* shares compare traced with untraced calls.
LAYER_METRICS = {
    **{name: "s" for name in SPAN_METRICS},
    "engine.events": "count",
    "engine.us_per_event": "us",
    "python.gc_s": "s",
    "python.gc_collections": "count",
    "encoding.payload_blocks": "count",
    "encoding.mean_fl": "bits",
    "encoding.record_bytes": "bytes",
    "sim.makespan_cycles": "cycles",
    "sim.eq4_gap": "fraction",
    "trace.unattributed_compress_pct": "%",
    "trace.unattributed_decompress_pct": "%",
    "trace.overhead_compress_pct": "%",
    "trace.overhead_decompress_pct": "%",
}


def iteration_metrics(ops: list[Operation]) -> dict[str, float]:
    """Span-derived metrics of one compress plus one decompress.

    ``ops`` are the traced calls of one iteration; when it decodes several
    times per compress, decompress contributions are averaged per call.
    Times are scaled to the reference speed, as the end-to-end ones are.
    """
    calls = defaultdict(int)
    for op in ops:
        calls[op.kind] += 1
    out = defaultdict(float)
    wall, attributed = defaultdict(float), defaultdict(float)
    for op in ops:
        w = 1.0 / calls[op.kind]
        for metric, (span, how) in SPAN_METRICS.items():
            source = op.total if how == "total" else op.self_time
            out[metric] += w * op.speed * source.get(span, 0.0)
        out["engine.events"] += w * op.events
        out["python.gc_s"] += w * op.speed * op.gc_s
        out["python.gc_collections"] += w * op.gc_collections
        wall[op.kind] += op.wall
        attributed[op.kind] += op.attributed
    if out["engine.events"]:
        out["engine.us_per_event"] = (
            1e6 * out["engine.run_s"] / out["engine.events"]
        )
    for kind in ("compress", "decompress"):
        if wall[kind]:
            out[f"trace.unattributed_{kind}_pct"] = (
                100 * (1 - attributed[kind] / wall[kind])
            )
    return out
