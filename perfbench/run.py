#!/usr/bin/env python3
"""The repository benchmark: CereSZ round trips through the public API.

Run from the repository root::

    python3 perfbench/run.py --workload host-turbulent --seed 1 --seconds 20
    python3 perfbench/run.py --workload wafer-750x256 --trace 1
    python3 perfbench/run.py --workload all     # every workload, fresh process each

One run is one workload in this process, one thread, no process pools:

1. Set-up is measured ``SETUP_PROBES`` times in fresh interpreters (this
   script with ``--setup-probe``): interpreter start, imports, codec
   construction and a first untimed round trip on a small input; input
   generation is excluded. ``setup_s`` is their median (at the reference
   speed, see below).
2. The inputs are generated from ``--seed``, the codec is built and the
   kernel's RSS high-water mark is reset. This process makes no warm-up
   call: throughput is a median over many calls, and the one lazy cost of
   a first call is what ``setup_s`` measures.
3. Compress and decompress calls alternate for ``--seconds`` seconds, with
   ``gc.collect()`` before each; the collector otherwise keeps the
   interpreter defaults. Each decode is checked against the error bound
   between calls, outside the timed region; streams and decodes are kept
   only as digests.
4. ``peak_rss_mb`` is read, then every stream digest is checked against
   the workload's oracle stream and every decode against the oracle's
   decode.

With ``--trace 1`` traced and untraced calls alternate; the traced ones run
with every wrapper of ``layers.py`` installed and give the per-layer
metrics, the untraced ones the tracing overhead. The spans are written to
``perfbench/out/<workload>-seed<seed>.trace.json``.

Every timed call and every set-up probe is paired with a machine-speed
probe (``calibration_s``), and times, end-to-end and per layer, are
reported at the reference speed ``REFERENCE_CAL_S``; the end-to-end table
also prints the raw wall-clock medians, the slow tail and the measured
speed. ``trace.overhead_*`` compares raw traced and untraced medians.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import math
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 4
#: Elements per step of the chunked error audit; keeps its temporaries
#: small next to the program's own buffers.
AUDIT_CHUNK = 1 << 18
MB = 1e6
#: The machine-speed probe's time on an unloaded 2-vCPU Xeon VM. Timed
#: metrics are scaled to this speed: a call timed while ``calibration_s``
#: took ``c`` seconds counts as ``REFERENCE_CAL_S / c`` times its wall time.
REFERENCE_CAL_S = 0.006

END_TO_END_UNITS = {
    "compress_mbs": "MB/s",
    "decompress_mbs": "MB/s",
    "ratio": "x",
    "psnr_db": "dB",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def load_repro() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def calibration_s() -> float:
    """Wall time of a fixed pure-Python loop, the machine-speed probe.

    On a shared VM other tenants slow this process for tens of seconds at a
    time, by up to 2x, and CPU time slows with wall time (contention, not
    descheduling). The loop runs no ``repro`` code, so a program change
    cannot move it, while contention slows it with the program: timed just
    before each call it tracked the slowdown of wafer and host-decode calls
    to about 5%, where their raw times swung by 20%. Over ten fresh runs per
    workload it cut the spread of the median throughputs from 9-40% to
    3-10%. Each call is bracketed by two probes, as a call can outlast a
    change in load.
    """
    t0 = time.perf_counter()
    d = {}
    for i in range(40000):
        d[i & 1023] = d.get(i & 1023, 0) + i
    return time.perf_counter() - t0


def digest(buf) -> bytes:
    """blake2b of a bytes object or a contiguous array, without a copy."""
    if isinstance(buf, np.ndarray):
        buf = np.ascontiguousarray(buf).view(np.uint8)
    return hashlib.blake2b(memoryview(buf)).digest()


def error_stats(y: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """``(max |y - x|, sum (y - x)^2)`` in float64, ``y`` being ``x`` tiled."""
    rows = y.reshape(-1, x.size)
    worst, sse = 0.0, 0.0
    for row in rows:
        for lo in range(0, x.size, AUDIT_CHUNK):
            d = row[lo : lo + AUDIT_CHUNK].astype(np.float64)
            d -= x[lo : lo + AUDIT_CHUNK]
            worst = max(worst, float(np.abs(d).max()))
            sse += float(np.dot(d, d))
    return worst, sse


def reset_peak_rss() -> None:
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError as exc:
        print(f"perfbench: cannot reset VmHWM ({exc}); peak_rss_mb "
              "includes input generation", file=sys.stderr)


def peak_rss_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) * 1024 / MB
    raise RuntimeError("VmHWM missing from /proc/self/status")


def setup_probe(wl, seed: int) -> int:
    """Child side of a set-up measurement: first round trip, READY, probe."""
    t0 = time.perf_counter()
    warm = wl.warmup_input(seed)
    gen_s = time.perf_counter() - t0
    codec = wl.build()
    wl.decompress(codec, wl.compress(codec, warm).stream)
    print(f"READY {gen_s!r}", flush=True)
    print(f"CAL {calibration_s()!r}", flush=True)
    return 0


def measure_setup(args) -> tuple[float, float]:
    """Interpreter start to the end of the first round trip, input excluded,
    and the machine speed probed just before the start and after the end."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload",
        args.workload, "--seed", str(args.seed), "--setup-probe",
    ]
    before = calibration_s()
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        after = proc.stdout.read()
        code = proc.wait()
    if code != 0 or not line.startswith("READY ") or "CAL " not in after:
        raise RuntimeError(f"set-up probe failed (exit {code}): {line!r}")
    speed = 2 * REFERENCE_CAL_S / (before + float(after.split()[-1]))
    return ready - t0 - float(line.split()[1]), speed


class Run:
    """Timed calls of one run and the audit of every output they made."""

    def __init__(self, wl, x: np.ndarray):
        self.wl, self.x = wl, x
        self.times = {"compress": [], "decompress": []}
        #: Machine speed relative to the reference, probed around each call.
        self.speed = {"compress": [], "decompress": []}
        self.traced_times = {"compress": [], "decompress": []}
        #: Per traced iteration, the layer accounting of its traced calls.
        self.iterations: list[list] = []
        #: One entry per call: [kind, digest or None, ok so far].
        self.ops: list[list] = []
        #: The first compress result without its stream: holding outputs
        #: across calls would raise the peak RSS the run reports.
        self.info = None
        self.sse = 0.0
        self.oracle_stream = b""

    def call(self, kind: str, fn, tracer, traced: bool):
        """Run one call; returns its result, or None if it raised."""
        gc.collect()
        try:
            before = calibration_s()
            if traced:
                result, op = tracer.run(kind, fn)
                op.speed = 2 * REFERENCE_CAL_S / (before + calibration_s())
                self.traced_times[kind].append(op.wall)
                self.iterations[-1].append(op)
            else:
                t0 = time.perf_counter()
                result = fn()
                self.times[kind].append(time.perf_counter() - t0)
                after = calibration_s()
                self.speed[kind].append(2 * REFERENCE_CAL_S / (before + after))
        except Exception:
            traceback.print_exc()
            self.ops.append([kind, None, False])
            return None
        return result

    def audit_compress(self, c) -> None:
        if self.info is None:
            self.info = dataclasses.replace(c, stream=b"")
        self.ops.append(["compress", digest(c.stream), True])

    def audit_decompress(self, y: np.ndarray, eps: float) -> None:
        if y.size != self.x.size * self.wl.tiles:
            print(f"perfbench: decode has {y.size} values", file=sys.stderr)
            self.ops.append(["decompress", None, False])
            return
        worst, sse = error_stats(y, self.x)
        if not self.sse:
            self.sse = sse
        ok = worst <= eps
        if not ok:
            print(f"perfbench: decode error {worst!r} exceeds bound {eps!r}",
                  file=sys.stderr)
        self.ops.append(["decompress", digest(y), ok])

    def verify(self, oracle_stream: bytes, oracle_decode: np.ndarray) -> None:
        self.oracle_stream = oracle_stream
        want = {
            "compress": digest(oracle_stream),
            "decompress": digest(oracle_decode),
        }
        for op in self.ops:
            if op[1] is not None and op[1] != want[op[0]]:
                print(f"perfbench: {op[0]} output differs from its oracle",
                      file=sys.stderr)
                op[2] = False

    @property
    def failed(self) -> int:
        return sum(not ok for _, _, ok in self.ops)


def measure(wl, codec, x, seconds: float, tracer) -> Run:
    """Alternate compress and decompress calls until ``seconds`` pass."""
    run = Run(wl, x)
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        # Traced runs alternate the order of traced and untraced calls so
        # neither side always runs first.
        modes = (False,) if tracer is None else ((False, True), (True, False))[i % 2]
        if tracer is not None:
            run.iterations.append([])
        for traced in modes:
            c = run.call("compress", lambda: wl.compress(codec, x), tracer, traced)
            if c is None:
                continue
            run.audit_compress(c)
            for _ in range(wl.decodes_per_compress):
                y = run.call(
                    "decompress", lambda: wl.decompress(codec, c.stream),
                    tracer, traced,
                )
                if y is not None:
                    run.audit_decompress(y, c.eps)
                del y
            del c
        i += 1
        if time.perf_counter() >= deadline:
            return run


def tail(rates: list[float]) -> str:
    """The highest call-time percentile with at least ten calls beyond it,
    as a rate; the slowest call while there are too few for one."""
    n = len(rates)
    if n < 20:
        return f"slowest {min(rates):.4g}"
    q = 100 * 10 / n
    return f"p{100 - q:.0f} {np.percentile(rates, q):.4g}"


def end_to_end(run: Run, setups: list[tuple[float, float]], rss: float) -> dict:
    """The end-to-end metrics; times are scaled to the reference speed."""
    c = run.info
    raw = {
        k: [c.raw_bytes / MB / t for t in run.times[k]] if c else [0.0]
        for k in ("compress", "decompress")
    }
    rates = {
        k: [r / v for r, v in zip(raw[k], run.speed[k])] or [0.0] for k in raw
    }
    vrange = float(run.x.max()) - float(run.x.min())
    mse = run.sse / (run.x.size * run.wl.tiles)
    values = {
        "compress_mbs": statistics.median(rates["compress"]),
        "decompress_mbs": statistics.median(rates["decompress"]),
        "ratio": c.ratio if c else 0.0,
        "psnr_db": 20 * math.log10(vrange) - 10 * math.log10(mse) if mse else 0.0,
        "setup_s": statistics.median(t * v for t, v in setups),
        "peak_rss_mb": rss,
    }
    print(f"{'metric':<16} {'value':>12} {'unit':<5} detail")
    for name, value in values.items():
        detail = ""
        kind = name.split("_")[0]
        if kind in rates:
            r = raw[kind]
            detail = (
                f"median of n={len(r)} calls at reference speed; raw median "
                f"{statistics.median(r):.4g}, raw slow tail {tail(r)}, speed "
                f"{statistics.median(run.speed[kind] or [0.0]):.3f}"
            )
        elif name == "setup_s":
            detail = (
                f"median of {len(setups)} fresh interpreters at reference "
                f"speed; raw median {statistics.median(t for t, _ in setups):.4g}"
            )
        print(f"{name:<16} {value:>12.6g} {END_TO_END_UNITS[name]:<5} {detail}")
    return {
        k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()
    }


def result_stats(run: Run) -> dict[str, float]:
    """Per-layer counts from the (audited) stream and the sim report."""
    from repro.core.compressor import stream_block_layout
    from repro.core.encoding import record_sizes
    from repro.core.format import StreamHeader

    c = run.info
    header, offset = StreamHeader.unpack(run.oracle_stream)
    _, fls = stream_block_layout(run.oracle_stream, header, offset)
    payload = fls[fls > 0]
    stats = {
        "encoding.payload_blocks": float(payload.size),
        "encoding.mean_fl": float(fls.mean()),
        "encoding.record_bytes": float(
            record_sizes(fls, header.block_size, header.header_width).sum()
        ),
        "sim.makespan_cycles": c.makespan_cycles,
        "sim.eq4_gap": 0.0,
    }
    if c.makespan_cycles:
        stats["sim.eq4_gap"] = abs(eq4_gap(run.wl, run.x, c))
    return stats


def eq4_gap(wl, x: np.ndarray, c) -> float:
    """``hybrid_model_gap`` for the workload's mesh (one pipeline per row
    of ``pipeline_length`` columns for the pipeline strategy)."""
    from repro.perf.model import hybrid_model_gap
    from repro.perf.wafer import measure_workload

    k = wl.knobs
    cols = k["pipeline_length"] if k["strategy"] == "pipeline" else k["cols"]
    block_cycles = measure_workload(x, c.eps).mean_cycles("compress")
    blocks = wl.tiles * -(-x.size // k["block_size"])
    return hybrid_model_gap(
        c.makespan_cycles, num_blocks=blocks, rows=k["rows"], total_cols=cols,
        block_cycles=block_cycles, pipeline_length=k["pipeline_length"],
    )


def per_layer(run: Run) -> dict:
    from layers import LAYER_METRICS, iteration_metrics

    values = result_stats(run)
    rows = [iteration_metrics(ops) for ops in run.iterations if ops]
    for kind in ("compress", "decompress"):
        traced = statistics.median(run.traced_times[kind] or [0.0])
        plain = statistics.median(run.times[kind] or [math.inf])
        values[f"trace.overhead_{kind}_pct"] = 100 * (traced / plain - 1)
    for name in LAYER_METRICS:
        if name not in values:
            values[name] = statistics.median([r[name] for r in rows] or [0.0])
    print(f"{'per-layer metric':<32} {'value':>12} unit")
    for name in LAYER_METRICS:
        print(f"{name:<32} {values[name]:>12.6g} {LAYER_METRICS[name]}")
    return {k: {"value": values[k], "unit": u} for k, u in LAYER_METRICS.items()}


def run_workload(args) -> int:
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    if args.setup_probe:
        return setup_probe(wl, args.seed)
    setups = [measure_setup(args) for _ in range(SETUP_PROBES)]
    x = wl.make_input(args.seed)
    codec = wl.build()
    gc.collect()
    reset_peak_rss()
    tracer = None
    if args.trace:
        from layers import LayerTracer

        tracer = LayerTracer()
    run = measure(wl, codec, x, args.seconds, tracer)
    rss = peak_rss_mb()
    run.verify(*wl.oracle(x))

    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("knobs " + json.dumps(wl.knobs))
    print("heavy " + " ".join(wl.heavy))
    print("idle  " + " ".join(wl.idle))
    if tracer is not None:
        metrics = per_layer(run)
        out = BENCH_DIR / "out" / f"{wl.name}-seed{args.seed}.trace.json"
        tracer.write(out)
        print(f"spans written to {out.relative_to(ROOT)}")
    else:
        metrics = end_to_end(run, setups, rss)
    print_result(len(run.ops), run.failed, metrics)
    return 0


def print_result(attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


def run_all(args) -> int:
    """Every workload in a fresh process; a summary line keyed by workload."""
    from workloads import WORKLOADS

    attempted = failed = 0
    metrics = {}
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode or not lines:
            raise SystemExit(f"perfbench: workload {name} failed")
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for key, metric in result["metrics"].items():
            metrics[f"{name}.{key}"] = metric
        print()
    print_result(attempted, failed, metrics)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    load_repro()
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
