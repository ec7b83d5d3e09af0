"""WSE simulator speed: single-process engine vs row-parallel.

This is the acceptance benchmark for the simulator performance layer.
Three optimizations stack on the hot path:

* route caching — ``Fabric.resolve`` memoizes per (PE, color, entering
  direction) instead of re-walking the static route for every send;
* event-queue slimming + fused kernels — at most one ``task`` event per
  PE, ``match`` probes only when they can pair, zero-copy sends straight
  to the fabric, and fused kernels with identical cycle accounting for
  whole-block compression and for every pipelined stage group in both
  directions;
* row-parallel simulation — provably independent row subgraphs simulated
  in separate processes and merged exactly (``jobs > 1``).

``simulate_plan`` always runs the first two, so there is no slower mode
to race; their results are pinned in the test suite instead (literal
route destinations and hop counts, the exact event count of every
strategy, and the fused kernels against their stepped sub-stage oracle).
Each strategy/mesh cell runs the same plan three ways — optimized
(single process), observed (optimized plus an ``off`` tracer and a
metrics registry), and parallel (``jobs`` workers) — and asserts the
compressed bytes and makespans are identical before reporting wall
time, events and simulated-cycles/second. One decode cell rides along:
``pipeline-decompress`` on the small mesh decodes the wafer records of
the same blocks through the Section 4.2 pipeline, with the same three-way
equality asserts on the decoded values.

Timing. Each config's headline ``optimized.wall_s`` is the median of the
optimized run's samples from the optimized/observed pair, each scaled to
the reference machine speed by a probe taken just before and just after
it (:func:`_benchlib.calibration_s`, the repository benchmark's probe and
0.006 s reference). Load on a shared box is bimodal over tens of seconds,
so a raw best-of-N lands in the quiet or the loaded mode depending on
when it ran; the scaled median does not. The obs overhead is the median
of the optimized/observed pairs' per-pair ratios. The parallel speedup
keeps raw best-of-N on both sides (``best_wall_s`` is the optimized
side's), as do the hybrid walls; the full-wafer wall is one raw run,
from planning through the composed stream. The payload's ``timing``
field records this.

Run as a script:

    PYTHONPATH=src python benchmarks/bench_sim_speed.py
    PYTHONPATH=src python benchmarks/bench_sim_speed.py --quick

Results land in ``BENCH_sim_speed.json`` (the perf trajectory) and
``benchmarks/results/sim_speed.txt``.
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
    from _benchlib import (
        REFERENCE_CAL_S,
        add_ledger_flag,
        calibration_s,
        emit_bench_record,
        get_logger,
    )
except ImportError:  # collected as part of the benchmarks package
    from benchmarks._benchlib import (
        REFERENCE_CAL_S,
        add_ledger_flag,
        calibration_s,
        emit_bench_record,
        get_logger,
    )
from repro.core.lower import host_block_records  # noqa: E402
from repro.core.mapping_decompress import DecompressOutputs  # noqa: E402
from repro.core.plan import (  # noqa: E402
    plan_multi_pipeline,
    plan_pipeline,
    plan_pipeline_decompress,
    plan_row_parallel,
    tile_rows,
)
from repro.core.schedule import distribute_substages  # noqa: E402
from repro.core.simulate import (  # noqa: E402
    simulate_plan,
    simulate_replicated,
)
from repro.core.stages import (  # noqa: E402
    compression_substages,
    decompression_substages,
)
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.obs.tracing import Tracer  # noqa: E402

LOG = get_logger("bench.sim_speed")

BLOCK_SIZE = 32
EPS = 1e-3

#: Floor on the optimized/observed pairs: the median of their per-pair
#: ratios is the gated obs-overhead figure, and both wall times are short
#: enough (~10-100 ms) that a few samples still carry scheduler noise.
#: Profiling puts the true overhead near 1%; 25 interleaved
#: order-alternating pairs keep the measured figure steady on a loaded
#: machine (9 still showed ±8% outliers).
OBS_REPEATS = 25

#: How the payload's times were taken (recorded in the JSON).
TIMING_METHOD = (
    f"optimized.wall_s: median of the optimized side's {OBS_REPEATS}+ "
    f"paired samples, each scaled to reference speed by calibration "
    f"probes before and after it (reference {REFERENCE_CAL_S} s); "
    f"obs_overhead: median of the {OBS_REPEATS}+ per-pair observed/"
    f"optimized ratios; best_wall_s, observed, parallel and hybrid walls: "
    f"raw best-of-N; wafer.wall_s: one raw run, plan to composed stream"
)

#: (mesh label, rows, cols, blocks-per-row). The fig7 configuration is the
#: rows strategy on the largest mesh run (Fig 7 sweeps PE rows at block 32).
MESHES = [("small", 4, 4, 64), ("large", 8, 8, 128)]


def make_blocks(num_blocks: int, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(num_blocks, BLOCK_SIZE)).cumsum(axis=1)


def build_plan(strategy: str, rows: int, cols: int, blocks: np.ndarray):
    if strategy == "rows":
        return plan_row_parallel(blocks, EPS, rows=rows, cols=cols)
    if strategy == "pipeline":
        stages = compression_substages(8, BLOCK_SIZE)
        dist = distribute_substages(stages, min(cols, 4))
        return plan_pipeline(blocks, EPS, dist, rows=rows, cols=cols)
    if strategy == "pipeline-decompress":
        # Decode the blocks' wafer records; the reverse sub-stages are
        # sized for the largest fixed length, as decompress_on_wafer does.
        n = blocks.shape[0]
        records = host_block_records(blocks, EPS, range(n))
        max_fl = max(int.from_bytes(r[:4], "little") for r in records.values())
        stages = decompression_substages(max_fl, BLOCK_SIZE)
        dist = distribute_substages(stages, min(cols, 4))
        body = b"".join(records[i] for i in range(n))
        return plan_pipeline_decompress(
            body, n, EPS, dist, rows=rows, cols=cols, block_size=BLOCK_SIZE
        )
    return plan_multi_pipeline(blocks, EPS, rows=rows, cols=cols)


def run_output(run, num_blocks: int) -> bytes:
    """A run's compressed stream, or its decoded values' bytes."""
    if isinstance(run.outputs, DecompressOutputs):
        return run.outputs.assemble(num_blocks, BLOCK_SIZE).tobytes()
    return run.outputs.stream(num_blocks)


def best_of(repeats: int, fn):
    """(best seconds, last return value) over ``repeats`` calls."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def paired_samples(repeats: int, fn_a, fn_b):
    """Interleaved, order-alternating samples of two functions.

    The obs-overhead figure is a ratio of two short (~10-100 ms)
    measurements; timing all of A then all of B lets CPU frequency and
    thermal drift between the two windows masquerade as overhead
    (observed swings of ±25% on a loaded machine). Three counter-measures,
    found necessary in that order on a noisy box: the runs interleave so
    both functions sample the same machine epochs; the within-pair order
    alternates so neither side systematically inherits the other's cache
    and allocator after-effects; and the GC is paused so a collection
    doesn't land inside exactly one side's timing window. Best-of-N on
    each side then converges to the quiet-machine time for both.

    Every call is also bracketed by machine-speed probes
    (:func:`calibration_s`; consecutive calls share the probe between
    them), so each sample carries the machine's speed relative to the
    reference while it ran.

    Returns ``((times_a, speeds_a, val_a), (times_b, speeds_b, val_b))``.
    """
    times: dict[str, list[float]] = {"a": [], "b": []}
    speeds: dict[str, list[float]] = {"a": [], "b": []}
    values = {}
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        before = calibration_s()
        for i in range(repeats):
            pair = ((fn_a, "a"), (fn_b, "b"))
            if i % 2:
                pair = pair[::-1]
            for fn, side in pair:
                t0 = time.perf_counter()
                values[side] = fn()
                times[side].append(time.perf_counter() - t0)
                after = calibration_s()
                speeds[side].append(2 * REFERENCE_CAL_S / (before + after))
                before = after
    finally:
        if was_enabled:
            gc.enable()
    return tuple((times[k], speeds[k], values[k]) for k in "ab")


def run_config(
    strategy: str, rows: int, cols: int, per_row: int, repeats: int, jobs: int
) -> dict:
    blocks = make_blocks(rows * per_row)
    num_blocks = blocks.shape[0]

    # "observed" is the observability acceptance mode: a trace_level="off"
    # tracer plus a metrics registry attached to the optimized run. Its
    # makespan must be identical and its wall time within a few percent —
    # the hot paths only pay one cached bool test per task.
    modes = {
        "optimized": dict(jobs=1),
        "observed": dict(jobs=1),
        "parallel": dict(jobs=jobs),
    }
    out: dict = {
        "strategy": strategy,
        "rows": rows,
        "cols": cols,
        "num_blocks": num_blocks,
    }
    streams: dict[str, bytes] = {}
    results: dict[str, tuple[float, object]] = {}
    # Plan construction is outside every timed region: the benchmark
    # measures the simulator, and every mode lowers the same plan.
    plan_par = build_plan(strategy, rows, cols, blocks)
    results["parallel"] = best_of(
        repeats, lambda: simulate_plan(plan_par, **modes["parallel"])
    )
    # The optimized/observed pair is timed interleaved: their ratio is the
    # gated obs-overhead figure. Observer construction is hoisted out of
    # the timed region — the overhead being gated is what observation
    # costs *per simulated task*, and on the small mesh a sub-millisecond
    # run otherwise reads object construction as simulator overhead.
    plan_opt = build_plan(strategy, rows, cols, blocks)
    plan_obs = build_plan(strategy, rows, cols, blocks)
    tracer = Tracer(level="off")
    registry = MetricsRegistry()
    (opt_times, opt_speeds, opt_run), (obs_times, _, obs_run) = (
        paired_samples(
            max(repeats, OBS_REPEATS),
            lambda: simulate_plan(plan_opt, **modes["optimized"]),
            lambda: simulate_plan(
                plan_obs, tracer=tracer, metrics=registry,
                **modes["observed"],
            ),
        )
    )
    # The headline wall: the median sample at reference machine speed.
    results["optimized"] = (
        float(np.median(np.multiply(opt_times, opt_speeds))), opt_run
    )
    results["observed"] = (min(obs_times), obs_run)
    for mode in modes:
        wall, run = results[mode]
        streams[mode] = run_output(run, num_blocks)
        makespan = run.report.makespan_cycles
        out[mode] = {
            "wall_s": wall,
            "makespan_cycles": makespan,
            "cycles_per_s": makespan / wall if wall else float("inf"),
            "events": run.report.events_processed,
            "partitions": run.partitions,
        }
    if not (
        streams["optimized"] == streams["observed"] == streams["parallel"]
    ):
        raise AssertionError(
            f"{strategy} {rows}x{cols}: modes disagree on output bytes"
        )
    makespans = {out[m]["makespan_cycles"] for m in modes}
    if len(makespans) != 1:
        raise AssertionError(
            f"{strategy} {rows}x{cols}: modes disagree on makespan "
            f"{sorted(makespans)}"
        )
    # The parallel speedup compares raw best-of times: the optimized side's
    # best of the same paired samples its reference-speed median came
    # from. The obs overhead is the median of the per-pair ratios: both
    # runs of a pair share a machine epoch, and a median of 25 ratios
    # holds still where a ratio of two minima of 10-100 ms walls swings.
    best_opt = min(opt_times)
    out["optimized"]["best_wall_s"] = best_opt
    out["speedup_parallel"] = best_opt / out["parallel"]["wall_s"]
    out["obs_overhead"] = (
        float(np.median(np.divide(obs_times, opt_times))) - 1.0
    )
    return out


def run_hybrid_config(
    strategy: str, rows: int, cols: int, per_row: int, repeats: int
) -> dict:
    """Event vs hybrid on a row-homogeneous workload (one partition class).

    Hybrid simulation is exact for ANY workload; row-homogeneous data is
    where it shines (one representative row simulated, ``rows - 1``
    synthesized), so that is what the speed figure measures. Bytes and
    makespans are asserted identical before any number is reported.
    """
    row_blocks = make_blocks(per_row, seed=11)
    blocks = tile_rows(
        row_blocks, rows, strategy,
        cols=cols if strategy == "multi" else None,
    )
    plan_event = build_plan(strategy, rows, cols, blocks)
    plan_hybrid = build_plan(strategy, rows, cols, blocks)
    wall_event, run_event = best_of(
        repeats, lambda: simulate_plan(plan_event)
    )
    wall_hybrid, run_hybrid = best_of(
        repeats, lambda: simulate_plan(plan_hybrid, mode="hybrid")
    )
    num_blocks = blocks.shape[0]
    if run_event.outputs.stream(num_blocks) != run_hybrid.outputs.stream(
        num_blocks
    ):
        raise AssertionError(
            f"hybrid {strategy} {rows}x{cols}: bytes diverge from event"
        )
    if (
        run_event.report.makespan_cycles
        != run_hybrid.report.makespan_cycles
    ):
        raise AssertionError(
            f"hybrid {strategy} {rows}x{cols}: makespan diverges "
            f"({run_event.report.makespan_cycles} vs "
            f"{run_hybrid.report.makespan_cycles})"
        )
    if run_hybrid.mode != "hybrid" or len(run_hybrid.row_classes) != 1:
        raise AssertionError(
            f"hybrid {strategy} {rows}x{cols}: expected one partition "
            f"class, got mode={run_hybrid.mode} "
            f"classes={run_hybrid.row_classes}"
        )
    return {
        "strategy": strategy,
        "rows": rows,
        "cols": cols,
        "num_blocks": num_blocks,
        "event_wall_s": wall_event,
        "hybrid_wall_s": wall_hybrid,
        "speedup_hybrid": wall_event / wall_hybrid if wall_hybrid else 0.0,
        "makespan_cycles": run_event.report.makespan_cycles,
        "row_classes": len(run_hybrid.row_classes),
    }


#: The full-wafer Fig 14 point: one 994-column multi-pipeline row
#: template replicated across all 750 rows.
WAFER_ROWS, WAFER_COLS = 750, 994


def run_wafer_point() -> dict:
    """Time the full 750x994 wafer via the replication fast path.

    The full plan (~745k PEs) is never materialized: the 1-row template
    is event-simulated once and composed 750 times. The wall time runs
    from planning to the composed stream, as every tiled wafer compress
    pays for both; reports it with the makespan and the Eq. 4
    cross-check gap.
    """
    from repro.perf.model import hybrid_model_gap
    from repro.perf.wafer import measure_workload

    row_blocks = make_blocks(WAFER_COLS, seed=13)
    t0 = time.perf_counter()
    template = plan_multi_pipeline(
        row_blocks, EPS, rows=1, cols=WAFER_COLS
    )
    run = simulate_replicated(template, WAFER_ROWS)
    run.outputs.stream(WAFER_ROWS * WAFER_COLS)
    wall = time.perf_counter() - t0
    workload = measure_workload(row_blocks.reshape(-1), EPS)
    makespan = run.report.makespan_cycles
    return {
        "rows": WAFER_ROWS,
        "cols": WAFER_COLS,
        "num_blocks": WAFER_ROWS * WAFER_COLS,
        "wall_s": wall,
        "makespan_cycles": makespan,
        "events": run.report.events_processed,
        "model_gap": hybrid_model_gap(
            makespan,
            num_blocks=WAFER_ROWS * WAFER_COLS,
            rows=WAFER_ROWS,
            total_cols=WAFER_COLS,
            block_cycles=workload.mean_cycles("compress"),
        ),
    }


def render(configs: list[dict], jobs: int) -> str:
    lines = [
        "WSE simulator speed: single-process engine vs row-parallel",
        f"block {BLOCK_SIZE}, eps {EPS}, jobs {jobs} for the parallel "
        "column; opt s: median at reference machine speed, the rest "
        "best-of-N",
        "",
        f"{'config':<24} {'blocks':>6} {'events':>7} {'opt s':>8} "
        f"{'par s':>8} {'par x':>6} {'obs %':>6} {'Mcyc/s opt':>11}",
    ]
    for c in configs:
        label = f"{c['strategy']} {c['rows']}x{c['cols']}"
        lines.append(
            f"{label:<24} {c['num_blocks']:>6} "
            f"{c['optimized']['events']:>7} "
            f"{c['optimized']['wall_s']:>8.4f} "
            f"{c['parallel']['wall_s']:>8.4f} "
            f"{c['speedup_parallel']:>6.2f} "
            f"{100 * c['obs_overhead']:>6.1f} "
            f"{c['optimized']['cycles_per_s'] / 1e6:>11.1f}"
        )
    lines += [
        "",
        "(optimized: the engine, single process; observed: optimized +",
        " trace_level=off tracer and a metrics registry — 'obs %' is its",
        " wall-time overhead, the median of the interleaved pairs' ratios;",
        " parallel: optimized + row partitions across processes, 'par x'",
        " its speedup over optimized, from best-of-N times. All modes",
        " produce identical bytes (or decoded values), makespans, and",
        " counters.)",
    ]
    return "\n".join(lines) + "\n"


def render_hybrid(hybrid_configs: list[dict], wafer: dict | None) -> str:
    lines = [
        "Hybrid (hierarchical) vs full event simulation, row-homogeneous "
        "workloads",
        "",
        f"{'config':<20} {'blocks':>6} {'event s':>9} {'hybrid s':>9} "
        f"{'hyb x':>6} {'classes':>8}",
    ]
    for c in hybrid_configs:
        label = f"{c['strategy']} {c['rows']}x{c['cols']}"
        lines.append(
            f"{label:<20} {c['num_blocks']:>6} "
            f"{c['event_wall_s']:>9.4f} "
            f"{c['hybrid_wall_s']:>9.4f} "
            f"{c['speedup_hybrid']:>6.2f} "
            f"{c['row_classes']:>8}"
        )
    if wafer is not None:
        lines += [
            "",
            f"full wafer {wafer['rows']}x{wafer['cols']} "
            f"({wafer['num_blocks']} blocks, replication fast path): "
            f"{wafer['wall_s']:.1f} s wall, "
            f"{wafer['makespan_cycles']:.0f} cycles, "
            f"Eq.4 gap {wafer['model_gap']:+.3f}",
        ]
    lines += [
        "",
        "(hybrid: one representative row event-simulated per partition",
        " class, member rows composed analytically; bytes and makespans",
        " asserted identical to the event runs above.)",
    ]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repeats", type=int, default=3, help="best-of-N (default 3)"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=min(os.cpu_count() or 1, 4),
        help="worker processes for the row-parallel mode",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small mesh only, one repeat (CI smoke; still writes JSON)",
    )
    parser.add_argument(
        "--max-obs-overhead",
        type=float,
        default=None,
        help="fail if the trace_level=off observability overhead of ANY "
        "benchmark config exceeds this fraction (acceptance bar: 0.05)",
    )
    parser.add_argument(
        "--wafer-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="also time the full 750x994 wafer Fig 14 point through the "
        "hybrid replication fast path and fail if it takes longer than "
        "this many seconds wall clock",
    )
    parser.add_argument(
        "--json-out",
        default=os.path.normpath(
            os.path.join(
                os.path.dirname(__file__), os.pardir, "BENCH_sim_speed.json"
            )
        ),
        help="perf-trajectory JSON path",
    )
    parser.add_argument(
        "--out",
        default=os.path.join(
            os.path.dirname(__file__), "results", "sim_speed.txt"
        ),
        help="results table (skipped with --quick)",
    )
    add_ledger_flag(parser)
    args = parser.parse_args(argv)

    meshes = MESHES[:1] if args.quick else MESHES
    repeats = 1 if args.quick else args.repeats
    bench_t0 = time.perf_counter()
    configs = []
    for strategy in ("rows", "pipeline", "multi"):
        for _, rows, cols, per_row in meshes:
            use_cols = 1 if strategy == "rows" else cols
            configs.append(
                run_config(
                    strategy, rows, use_cols, per_row, repeats, args.jobs
                )
            )
    # Wafer decode: the Section 4.2 pipeline on the small mesh.
    _, rows, cols, per_row = meshes[0]
    configs.append(
        run_config(
            "pipeline-decompress", rows, cols, per_row, repeats, args.jobs
        )
    )

    # Hybrid smoke rides along in every run (including --quick / CI):
    # row-homogeneous workloads on the small mesh, every strategy,
    # asserting event/hybrid byte and makespan equality.
    hybrid_configs = []
    for strategy in ("rows", "pipeline", "multi"):
        _, rows, cols, per_row = meshes[0]
        use_cols = 1 if strategy == "rows" else cols
        hybrid_configs.append(
            run_hybrid_config(strategy, rows, use_cols, per_row, repeats)
        )
    wafer = run_wafer_point() if args.wafer_budget is not None else None
    wall_s = time.perf_counter() - bench_t0

    report = render(configs, args.jobs)
    report += "\n" + render_hybrid(hybrid_configs, wafer)
    print(report, end="")

    fig7 = max(
        (c for c in configs if c["strategy"] == "rows"),
        key=lambda c: c["rows"],
    )
    worst_obs = max(configs, key=lambda c: c["obs_overhead"])
    payload = {
        "benchmark": "sim_speed",
        "block_size": BLOCK_SIZE,
        "eps": EPS,
        "jobs": args.jobs,
        "quick": args.quick,
        "timing": TIMING_METHOD,
        "configs": configs,
        "fig7_rows_obs_overhead": fig7["obs_overhead"],
        "max_obs_overhead": worst_obs["obs_overhead"],
        "max_obs_overhead_config": (
            f"{worst_obs['strategy']} {worst_obs['rows']}x{worst_obs['cols']}"
        ),
        "hybrid_configs": hybrid_configs,
        "wafer": wafer,
        "wafer_budget_s": args.wafer_budget,
    }
    with open(args.json_out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    LOG.info("wrote", path=args.json_out)
    emit_bench_record(
        args.ledger,
        payload,
        config={
            "bench": "sim_speed",
            "block_size": BLOCK_SIZE,
            "eps": EPS,
            "jobs": args.jobs,
            "repeats": repeats,
            "quick": args.quick,
            "wafer": args.wafer_budget is not None,
        },
        wall_s=wall_s,
        artifacts={"json": args.json_out},
    )

    if not args.quick:
        os.makedirs(os.path.dirname(args.out), exist_ok=True)
        with open(args.out, "w") as fh:
            fh.write(report)
        LOG.info("wrote", path=args.out)

    if args.max_obs_overhead is not None:
        # Every config is gated: the fixed observation cost bites hardest
        # on the smallest/fastest runs, which the fig7 (largest) config
        # never represents.
        failed = False
        for c in configs:
            if c["obs_overhead"] > args.max_obs_overhead:
                LOG.error(
                    "gate_failed",
                    metric="obs_overhead",
                    config=f"{c['strategy']} {c['rows']}x{c['cols']}",
                    value=round(c["obs_overhead"], 4),
                    required=args.max_obs_overhead,
                )
                failed = True
        if failed:
            return 1
    if wafer is not None and wafer["wall_s"] > args.wafer_budget:
        LOG.error(
            "gate_failed",
            metric="wafer_wall_s",
            value=round(wafer["wall_s"], 1),
            required=args.wafer_budget,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
