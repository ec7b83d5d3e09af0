"""Host throughput: fused fast path vs reference, and container layouts.

Two acceptance stories share this benchmark:

* **Container v2 index** (decode side). Container v1 forces the decoder
  to *walk* every block header sequentially (record sizes are
  data-dependent): one byte index, one size-table lookup and one byte
  store per block, then one vectorized validation pass. Container v2
  embeds a one-byte-per-block fl table so every record offset falls out
  of a single ``cumsum``; the v2-over-v1 decode speedup is what that
  index saves over the walk.
* **Fused host kernels** (both sides). The reference pipeline runs the
  paper's stages as separate whole-field passes; the fused path
  (:mod:`repro.core.fastpath`) runs the same arithmetic in one blocked
  pass with reused scratch and a bit-shuffle done as an 8x8 bit-matrix
  transpose over uint64 words (decoded by the same transpose, its own
  inverse), producing byte-identical streams (asserted here on every
  run). The shard engine stacks on top, dispatching fused super-shards
  across a worker pool.

The ``fused-v3`` case writes and reads the checksummed container (v3):
the fused path plus the per-group CRC32C table of
:mod:`repro.core.integrity`. Its stream is asserted byte-identical to the
reference codec's v3 stream, and its decode to the reference decode.

Two field profiles bracket the operating range:

* ``smooth`` — the RTM snapshot generator (the paper's streaming use
  case) under the paper's REL 1e-3 bound: ratio ~25x, mostly zero
  blocks; the v1 header walk and the reference's per-pass temporaries
  both hurt most here;
* ``turbulent`` — the HACC particle generator: ratio ~3x, payload-heavy
  records, the unfavourable case for both optimizations (they still
  win, just less).

Run as a script (not under pytest-benchmark — the point is relative
wall-clock of whole pipelines, best-of-N):

    PYTHONPATH=src python benchmarks/bench_host_throughput.py
    PYTHONPATH=src python benchmarks/bench_host_throughput.py --quick

Timing is best-of-N wall clock. The two gated ratios come from
interleaved, order-alternating pairs (``best_of_paired``, at least
``PAIR_REPEATS`` samples a side): the fused-over-reference figures pair
the two codecs, and the v2-over-v1 decode speedup pairs the serial-v1
decode with the indexed-v2 reference decode, so both sides of each ratio
sample the same machine load.

Results land in ``BENCH_host_throughput.json`` (the perf trajectory,
written on every run including ``--quick`` unless ``--json-out`` points
elsewhere) and ``benchmarks/results/host_throughput.txt`` (full runs
only). ``--min-speedup X`` exits non-zero unless the smooth-field
v2-over-v1 decode speedup reaches X; ``--min-fused-speedup X`` does the
same for the smooth-field fused-over-reference *compress* speedup. CI
floors both at 2 and writes its quick JSON to scratch; the committed
JSON is the ledger gate's baseline, comes from a full-size run,
and is refused by the gate if it says ``"quick": true``. A slower v1
walk would *raise* the v2-over-v1 speedup, so the gate watches every
case's ``decompress_mbs`` too.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

import numpy as np

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, "src")
)

try:  # script mode: the benchmarks dir itself is sys.path[0]
    from _benchlib import add_ledger_flag, emit_bench_record, get_logger
except ImportError:  # collected as part of the benchmarks package
    from benchmarks._benchlib import (
        add_ledger_flag,
        emit_bench_record,
        get_logger,
    )
from repro import CereSZ  # noqa: E402
from repro.datasets import generate_field  # noqa: E402

LOG = get_logger("bench.host_throughput")

REL = 1e-3
PROFILES = {"smooth": "RTM", "turbulent": "HACC"}

#: Floor on best-of-N for the reference/fused pair: their ratio is the
#: gated fused-speedup figure, and this box shows up to 1.6x run-to-run
#: spread on identical work, so the quiet-machine time needs several
#: samples to surface on both sides.
PAIR_REPEATS = 6


def make_field(profile: str, n: int) -> np.ndarray:
    """Tile one synthetic SDRBench-like field out to ``n`` elements."""
    base = generate_field(PROFILES[profile], seed=0).reshape(-1)
    base = base.astype(np.float32)
    reps = -(-n // base.size)
    return np.tile(base, reps)[:n]


def best_of(repeats: int, fn, *args, **kwargs):
    """(best seconds, last return value) over ``repeats`` calls."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best, value


def best_of_paired(repeats: int, fn_a, fn_b):
    """Best-of-N for two functions with interleaved, order-alternating runs.

    The fused-speedup figure is a ratio of two measurements on a machine
    whose throughput drifts between measurement windows; interleaving
    gives both functions the same epochs, alternating the within-pair
    order cancels cache/allocator after-effects, and pausing the GC keeps
    a collection from landing inside one side's window. Best-of-N then
    converges both sides to their quiet-machine time.
    """
    best_a = best_b = float("inf")
    val_a = val_b = None
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for i in range(repeats):
            pair = ((fn_a, "a"), (fn_b, "b"))
            if i % 2:
                pair = pair[::-1]
            for fn, side in pair:
                t0 = time.perf_counter()
                value = fn()
                dt = time.perf_counter() - t0
                if side == "a":
                    val_a = value
                    best_a = min(best_a, dt)
                else:
                    val_b = value
                    best_b = min(best_b, dt)
    finally:
        if was_enabled:
            gc.enable()
    return (best_a, val_a), (best_b, val_b)


def run_profile(
    profile: str, n: int, repeats: int, jobs: int
) -> tuple[list[dict], dict]:
    reference = CereSZ(fast=False)
    fused = CereSZ(fast=True)
    field = make_field(profile, n)
    raw_mb = field.nbytes / 1e6

    rows = []
    streams: dict[str, bytes] = {}

    def record(name, t_c, result, t_d, restored):
        err = float(np.max(np.abs(restored.reshape(-1) - field)))
        if err > result.eps:
            raise AssertionError(
                f"{profile}/{name}: error {err} exceeds bound {result.eps}"
            )
        streams[name] = result.stream
        rows.append(
            {
                "name": name,
                "ratio": result.ratio,
                "compress_s": t_c,
                "decompress_s": t_d,
                "compress_mbs": raw_mb / t_c,
                "decompress_mbs": raw_mb / t_d,
            }
        )

    # The reference/fused pair is timed interleaved: its ratio is the
    # gated fused-speedup figure. Both cases write indexed-v2 streams.
    pair_repeats = max(repeats, PAIR_REPEATS)
    (tc_ref, res_ref), (tc_fus, res_fus) = best_of_paired(
        pair_repeats,
        lambda: reference.compress(field, rel=REL, index=True),
        lambda: fused.compress(field, rel=REL, index=True),
    )
    # Tentpole invariant, checked on every benchmark run: the fused
    # kernels reproduce the reference stream byte for byte.
    if res_fus.stream != res_ref.stream:
        raise AssertionError(
            f"{profile}: fused stream differs from reference stream"
        )

    # The container-v1 baseline. Its decode and the indexed-v2 reference
    # decode are timed interleaved, and the gated v2-over-v1 speedup is
    # their ratio from that one sample set.
    t_c, res_v1 = best_of(repeats, reference.compress, field, rel=REL,
                          index=False)
    (td_v1, out_v1), (td_v2, _) = best_of_paired(
        pair_repeats,
        lambda: reference.decompress(res_v1.stream),
        lambda: reference.decompress(res_ref.stream),
    )
    record("serial-v1", t_c, res_v1, td_v1, out_v1)

    t_c, result = best_of(repeats, fused.compress, field, rel=REL, jobs=jobs)
    t_d, restored = best_of(repeats, fused.decompress, result.stream,
                            jobs=jobs)
    record("fused-sharded", t_c, result, t_d, restored)

    (td_ref, out_ref), (td_fus, out_fus) = best_of_paired(
        pair_repeats,
        lambda: reference.decompress(res_ref.stream),
        lambda: fused.decompress(res_fus.stream),
    )
    if out_fus.tobytes() != out_ref.tobytes():
        raise AssertionError(
            f"{profile}: fused decode differs from reference decode"
        )
    record("indexed-v2", tc_ref, res_ref, td_ref, out_ref)
    record("fused", tc_fus, res_fus, td_fus, out_fus)

    # The checksummed (v3) container: the fused path plus the CRC32C group
    # table on write and its verification on read, held to the same
    # byte-identity contract against the reference codec. As many samples
    # as the fused pair, so the two rows compare.
    v3 = {"index": True, "checksum": True}
    t_c, res_v3 = best_of(pair_repeats, fused.compress, field, rel=REL, **v3)
    ref_v3 = reference.compress(field, rel=REL, **v3).stream
    if res_v3.stream != ref_v3:
        raise AssertionError(
            f"{profile}: fused v3 stream differs from reference v3 stream"
        )
    t_d, out_v3 = best_of(pair_repeats, fused.decompress, res_v3.stream)
    if out_v3.tobytes() != reference.decompress(ref_v3).tobytes():
        raise AssertionError(
            f"{profile}: fused v3 decode differs from reference v3 decode"
        )
    record("fused-v3", t_c, res_v3, t_d, out_v3)

    by_name = {r["name"]: r for r in rows}
    summary = {
        "v2_over_v1_decode_speedup": td_v1 / td_v2,
        "fused_compress_speedup": (
            by_name["indexed-v2"]["compress_s"]
            / by_name["fused"]["compress_s"]
        ),
        "fused_decompress_speedup": (
            by_name["indexed-v2"]["decompress_s"]
            / by_name["fused"]["decompress_s"]
        ),
    }
    return rows, summary


def render(results: dict, n: int, jobs: int) -> str:
    lines = [
        "host throughput: fused fast path vs reference, v1 vs v2 vs shards",
        f"fields: {n} float32 elements ({n * 4 / 1e6:.1f} MB), "
        f"REL {REL}, jobs {jobs}, best-of-N wall clock",
    ]
    for profile, (rows, summary) in results.items():
        lines += [
            "",
            f"[{profile}] ({PROFILES[profile]} generator)",
            f"{'case':<14} {'ratio':>7} {'comp MB/s':>10} "
            f"{'decomp MB/s':>12} {'comp s':>9} {'decomp s':>9}",
        ]
        for r in rows:
            lines.append(
                f"{r['name']:<14} {r['ratio']:>7.2f} "
                f"{r['compress_mbs']:>10.1f} "
                f"{r['decompress_mbs']:>12.1f} "
                f"{r['compress_s']:>9.4f} "
                f"{r['decompress_s']:>9.4f}"
            )
        lines += [
            f"decode speedup, indexed-v2 over serial-v1 (interleaved "
            f"pair): {summary['v2_over_v1_decode_speedup']:.1f}x",
            f"fused over reference: compress "
            f"{summary['fused_compress_speedup']:.2f}x, decompress "
            f"{summary['fused_decompress_speedup']:.2f}x",
        ]
    lines += [
        "",
        "(serial-v1 walks the v1 record headers, one byte per block;",
        " indexed-v2 is the reference multi-stage pipeline on a v2",
        " container, its fl index saving that walk; fused is the",
        " single-pass kernel of repro/core/fastpath.py — its streams",
        " are asserted byte-identical to indexed-v2 on every run;",
        " fused-sharded adds the worker-pool shard engine; fused-v3 adds",
        " the CRC32C group table, asserted byte-identical to the",
        " reference codec's v3 stream.)",
    ]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--elements",
        type=int,
        default=1 << 22,
        help="field size in float32 elements (default 4Mi)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="best-of-N (default 3)"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=max(os.cpu_count() or 1, 2),
        help="worker count for the sharded case",
    )
    parser.add_argument(
        "--quick",
        "--smoke",
        dest="quick",
        action="store_true",
        help="small field, fewer repeats, no results table "
        "(CI smoke; still writes the JSON)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail unless smooth-field v2 decode beats v1 by this factor",
    )
    parser.add_argument(
        "--min-fused-speedup",
        type=float,
        default=None,
        help="fail unless smooth-field fused compress beats the reference "
        "by this factor (acceptance bar: 5; CI gates conservatively)",
    )
    parser.add_argument(
        "--json-out",
        default=os.path.normpath(
            os.path.join(
                os.path.dirname(__file__),
                os.pardir,
                "BENCH_host_throughput.json",
            )
        ),
        help="perf-trajectory JSON path",
    )
    parser.add_argument(
        "--out",
        default=os.path.join(
            os.path.dirname(__file__), "results", "host_throughput.txt"
        ),
        help="results file (ignored with --quick)",
    )
    add_ledger_flag(parser)
    args = parser.parse_args(argv)

    n = 1 << 20 if args.quick else args.elements
    repeats = 1 if args.quick else args.repeats
    t0 = time.perf_counter()
    results = {
        profile: run_profile(profile, n, repeats, args.jobs)
        for profile in PROFILES
    }
    wall_s = time.perf_counter() - t0
    report = render(results, n, args.jobs)
    print(report, end="")

    payload = {
        "benchmark": "host_throughput",
        "elements": n,
        "rel": REL,
        "jobs": args.jobs,
        "quick": args.quick,
        "profiles": {
            profile: {"cases": rows, **summary}
            for profile, (rows, summary) in results.items()
        },
    }
    with open(args.json_out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    LOG.info("wrote", path=args.json_out)

    if not args.quick:
        os.makedirs(os.path.dirname(args.out), exist_ok=True)
        with open(args.out, "w") as fh:
            fh.write(report)
        LOG.info("wrote", path=args.out)

    emit_bench_record(
        args.ledger,
        payload,
        config={
            "bench": "host_throughput",
            "elements": n,
            "rel": REL,
            "jobs": args.jobs,
            "repeats": repeats,
            "quick": args.quick,
        },
        wall_s=wall_s,
        artifacts={"json": args.json_out},
    )

    smooth = results["smooth"][1]
    if (
        args.min_speedup is not None
        and smooth["v2_over_v1_decode_speedup"] < args.min_speedup
    ):
        LOG.error(
            "gate_failed",
            metric="v2_over_v1_decode_speedup",
            value=smooth["v2_over_v1_decode_speedup"],
            required=args.min_speedup,
        )
        return 1
    if (
        args.min_fused_speedup is not None
        and smooth["fused_compress_speedup"] < args.min_fused_speedup
    ):
        LOG.error(
            "gate_failed",
            metric="fused_compress_speedup",
            value=smooth["fused_compress_speedup"],
            required=args.min_fused_speedup,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
