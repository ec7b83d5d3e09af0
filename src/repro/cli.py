"""``ceresz`` command-line interface.

Subcommands::

    ceresz compress   IN.f32 OUT.csz  --rel 1e-3 | --eps 0.01 | --psnr 80
                      [--predictor P] [--jobs N] [--no-index] [--checksum]
                      [--no-fast] [--trace T.json] [--metrics]
                      [--ledger [PATH]]
    ceresz decompress IN.csz  OUT.f32 [--jobs N] [--salvage [--fill F]]
                      [--predictor P] [--no-fast] [--trace T.json] [--metrics]
                      [--ledger [PATH]]
    ceresz verify     IN.csz [--json OUT.json]     # checksum walk, no decode
    ceresz extract    IN.csz OUT.f32 --start A --stop B   # random access
    ceresz info       IN.csz                       # stream header dump
    ceresz stream     T0.f32 T1.f32 ... --out RUN.cszs --eps E
                      [--jobs N] [--no-index]
    ceresz unstream   RUN.cszs --prefix OUT_
    ceresz dataset    NAME [--field N] [--out F]   # synthesize a field
    ceresz table      {1,2,3,4,5}                  # regenerate a paper table
    ceresz figure     {7,10,11,12,13,14,15}        # regenerate a paper figure
    ceresz observations                            # the three boxed claims
    ceresz validate                                # calibration + model audit
    ceresz reproduce  [--out DIR] [--quick]        # everything + REPORT.md
    ceresz simulate   IN.f32 --rows R --cols C --strategy multi
                      [--mode {event,hybrid}] [--tile-rows]
                      [--jobs N|auto] [--profile] [--trace T.json]
                      [--metrics] [--trace-level L] [--sample-every N]
                      [--ledger [PATH]] [--progress]
                      # alias: sim
    ceresz trace      T.json [--top N]    # summarize a saved trace
    ceresz report     [--ledger PATH] [--baseline BENCH.json ...]
                      [--kind K] [--gate] [--verbose]
                      # regression report over the run ledger

Tables, figures and audits print ``repro.harness.ARTIFACTS``' one
rendering of each artifact, the text the benchmarks record; the compress
path is the production-style usage.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys

import numpy as np

from repro import CereSZ, __version__
from repro.core.predictors import predictor_names
from repro.core.simulate import SIM_MODES
from repro.core.wse_compressor import STRATEGIES, WSECereSZ
from repro.datasets import generate_field, get_dataset, load_f32, save_f32


def _jobs_arg(value: str):
    """``--jobs`` accepts a worker count or ``auto`` (size to the host)."""
    if value == "auto":
        return value
    return int(value)


def _add_obs_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace", metavar="OUT.json",
        help="write a Chrome trace-event JSON of the run "
        "(load in Perfetto / chrome://tracing)",
    )
    p.add_argument(
        "--metrics", action="store_true",
        help="print the run's metrics registry when done",
    )
    p.add_argument(
        "--ledger", nargs="?", const=True, default=None, metavar="PATH",
        help="append a provenance-stamped RunRecord to the run ledger "
        "(default path .ceresz/ledger.jsonl, or $CERESZ_LEDGER; "
        "`ceresz report` analyzes it)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ceresz",
        description="CereSZ reproduction: error-bounded lossy compression "
        "on a simulated Cerebras CS-2.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress a raw .f32 field")
    p.add_argument("input")
    p.add_argument("output")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--rel", type=float, help="value-range relative bound")
    group.add_argument("--eps", type=float, help="absolute error bound")
    group.add_argument(
        "--psnr", type=float, help="target reconstruction quality in dB"
    )
    p.add_argument(
        "--shape",
        type=lambda s: tuple(int(d) for d in s.split("x")),
        help="field shape, e.g. 512x512x512 (default: flat)",
    )
    p.add_argument(
        "--no-index", dest="index", action="store_false",
        help="write a v1 stream without the per-block fl table "
        "(decoding falls back to the sequential header walk)",
    )
    p.add_argument(
        "--jobs", type=int,
        help="shard the field and compress shards on N workers",
    )
    p.add_argument(
        "--checksum", action="store_true",
        help="write a v3 stream with CRC32C integrity metadata "
        "(ceresz verify / --salvage need this)",
    )
    p.add_argument(
        "--no-fast", dest="fast", action="store_false",
        help="use the reference multi-stage kernels instead of the fused "
        "fast path (identical bytes, mainly for debugging/benchmarks)",
    )
    p.add_argument(
        "--predictor", choices=predictor_names(), default="lorenzo1d",
        help="prediction stage (default: lorenzo1d, the paper's "
        "wafer-mappable choice; others are registry extensions — see "
        "DESIGN.md)",
    )
    _add_obs_flags(p)

    p = sub.add_parser("decompress", help="decompress a .csz stream")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument(
        "--jobs", type=int,
        help="decode shard containers on N workers",
    )
    p.add_argument(
        "--salvage", action="store_true",
        help="decode what still verifies, fill corrupt blocks, and print "
        "a salvage report instead of failing on bad bytes",
    )
    p.add_argument(
        "--fill", choices=("zero", "previous"), default="zero",
        help="fill for salvaged-away blocks (default: zero)",
    )
    p.add_argument(
        "--no-fast", dest="fast", action="store_false",
        help="use the reference multi-stage decode instead of the fused "
        "fast path (identical output, mainly for debugging/benchmarks)",
    )
    p.add_argument(
        "--predictor", choices=predictor_names(),
        help="assert the stream was written with this predictor (decode "
        "always dispatches on the header; this flag just fails fast on a "
        "mismatch)",
    )
    _add_obs_flags(p)

    p = sub.add_parser(
        "verify",
        help="walk a stream's checksums without decoding payloads",
    )
    p.add_argument("input")
    p.add_argument(
        "--json", metavar="OUT.json",
        help="also write the IntegrityReport as JSON",
    )
    p.add_argument(
        "--ledger", nargs="?", const=True, default=None, metavar="PATH",
        help="append the verification outcome to the run ledger "
        "(default .ceresz/ledger.jsonl, or $CERESZ_LEDGER)",
    )

    p = sub.add_parser("info", help="describe a compressed stream")
    p.add_argument("input")

    p = sub.add_parser(
        "extract",
        help="random-access: reconstruct one element range of a stream",
    )
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--start", type=int, required=True)
    p.add_argument("--stop", type=int, required=True)

    p = sub.add_parser("dataset", help="synthesize a dataset field")
    p.add_argument("name")
    p.add_argument("--field", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write raw .f32 here instead of summarizing")

    p = sub.add_parser("table", help="regenerate a paper table")
    p.add_argument("number", type=int, choices=(1, 2, 3, 4, 5))

    p = sub.add_parser("figure", help="regenerate a paper figure")
    p.add_argument("number", type=int, choices=(7, 10, 11, 12, 13, 14, 15))

    p = sub.add_parser(
        "stream", help="frame-compress several .f32 snapshots into one file"
    )
    p.add_argument("inputs", nargs="+", help="raw .f32 snapshot files")
    p.add_argument("--out", required=True)
    p.add_argument("--eps", type=float, required=True,
                   help="shared absolute error bound for every frame")
    p.add_argument(
        "--no-index", dest="index", action="store_false",
        help="write v1 frames without per-block fl tables",
    )
    p.add_argument(
        "--jobs", type=int,
        help="shard each frame and compress shards on N workers",
    )

    p = sub.add_parser(
        "unstream", help="expand a framed stream back into .f32 snapshots"
    )
    p.add_argument("input")
    p.add_argument("--prefix", required=True,
                   help="output files are <prefix><index>.f32")
    p.add_argument(
        "--jobs", type=int,
        help="decode sharded frames on N workers",
    )

    p = sub.add_parser(
        "observations",
        help="re-derive the paper's three boxed Observations",
    )

    p = sub.add_parser(
        "validate",
        help="audit the cycle-model calibration and the sim-vs-model fit",
    )

    p = sub.add_parser(
        "reproduce",
        help="regenerate every table, figure, and audit into one folder",
    )
    p.add_argument("--out", default="reproduction")
    p.add_argument(
        "--quick", action="store_true",
        help="narrow dataset/field coverage for a fast smoke run",
    )

    # The flags sim and plan share. Each flag of sim and plan that mirrors
    # a WSECereSZ keyword takes that keyword's default.
    lib = {
        k: v.default
        for k, v in inspect.signature(WSECereSZ).parameters.items()
    }
    mesh = argparse.ArgumentParser(add_help=False)
    mesh.add_argument("input")
    mesh.add_argument("--rows", type=int, default=lib["rows"])
    mesh.add_argument("--cols", type=int, default=lib["cols"])
    mesh.add_argument(
        "--strategy", choices=STRATEGIES, default=lib["strategy"]
    )
    mesh.add_argument(
        "--pipeline-length", type=int, default=lib["pipeline_length"]
    )
    mesh.add_argument(
        "--predictor", choices=predictor_names(), default=lib["predictor"],
        help="block-local predictor to lower onto the mesh (whole-array "
        "predictors are rejected with their locality contract)",
    )
    mesh.add_argument("--rel", type=float, default=1e-3)
    mesh.add_argument(
        "--limit-blocks", type=int, default=64,
        help="use only the first N blocks (event-level sim is slow)",
    )
    p = sub.add_parser(
        "simulate", aliases=["sim"], parents=[mesh],
        help="compress on the WSE simulator",
    )
    p.add_argument(
        "--mode", choices=SIM_MODES, default=lib["mode"],
        help="'event' simulates every PE; 'hybrid' event-simulates one "
        "representative per homogeneous row class and replicates the "
        "rest analytically (cycle-exact, orders of magnitude faster at "
        "wafer scale)",
    )
    p.add_argument(
        "--tile-rows", action="store_true",
        help="treat the input as ONE row's data and replicate it across "
        "all --rows rows (the wafer-scale fast path: the full plan is "
        "never materialized)",
    )
    p.add_argument(
        "--jobs", type=_jobs_arg, default=lib["jobs"], metavar="N|auto",
        help="row-parallel worker processes, or 'auto' to size to the "
        "host (results identical for any value)",
    )
    p.add_argument(
        "--profile", action="store_true",
        help="run under cProfile and print the top 25 functions by "
        "cumulative time",
    )
    p.add_argument(
        "--progress", action="store_true",
        help="emit periodic rows-done/ETA lines during long hybrid "
        "compositions (structured key=value records on stderr)",
    )
    _add_obs_flags(p)
    p.add_argument(
        "--trace-level", choices=("off", "spans", "timeline"),
        help="capture detail (default: timeline when --trace is given, "
        "off otherwise)",
    )
    p.add_argument(
        "--sample-every", type=int, default=lib["sample_every"],
        help="keep every Nth task per PE in the timeline "
        "(default %(default)s)",
    )
    p.add_argument(
        "--inject-faults", metavar="SPEC",
        help="deterministic fault plan: ';'-separated segments "
        "'seed:S', 'halt:R,C@CYCLE', 'drop:R,C,COLOR#NTH', "
        "'dup:R,C,COLOR#NTH', 'flip:R,C,BUFFER,BIT@CYCLE', "
        "'link:R,C,DIR', or 'random:<seed>,<n>' which draws N faults "
        "over the whole --rows x --cols mesh from FaultPlan.random "
        "(e.g. 'random:7,4'); coordinates are validated against the "
        "mesh at parse time (see repro.faults.parse_fault_spec)",
    )
    p.add_argument(
        "--fault-report", metavar="OUT.json",
        help="write the structured FaultReport JSON when the injected "
        "faults stall the run (also written on clean survival, as an "
        "empty report)",
    )
    p.add_argument(
        "--on-fault", choices=("raise", "repair", "fallback"),
        default=lib["on_fault"],
        help="stall handling: 'raise' fails the run (default); 'repair' "
        "remaps condemned rows onto spares or a shrunk replan and "
        "retries; 'fallback' routes their blocks through the host fast "
        "path immediately",
    )
    p.add_argument(
        "--max-repairs", type=int, default=lib["max_repairs"],
        help="bound on wafer-side repair attempts before degrading to "
        "the host fallback (default %(default)s)",
    )
    p.add_argument(
        "--spare-rows", type=int, default=lib["spare_rows"],
        help="grow the mesh by N idle spare rows for repairs to remap "
        "condemned rows onto (default %(default)s)",
    )
    p.add_argument(
        "--repair-report", metavar="OUT.json",
        help="write the structured RepairReport JSON after a "
        "self-healing run (only with --on-fault repair/fallback)",
    )

    p = sub.add_parser(
        "trace", help="summarize a saved Chrome trace JSON"
    )
    p.add_argument("input")
    p.add_argument(
        "--top", type=int, default=10,
        help="rows per ranking (spans, PEs, hotspots)",
    )

    p = sub.add_parser(
        "report",
        help="cross-run regression report over the run ledger",
    )
    p.add_argument(
        "--ledger", nargs="?", const=True, default=True, metavar="PATH",
        help="ledger to analyze (default .ceresz/ledger.jsonl, or "
        "$CERESZ_LEDGER)",
    )
    p.add_argument(
        "--baseline", action="append", default=[], metavar="BENCH.json",
        help="committed baseline file(s) to compare the newest matching "
        "bench record against (repeatable)",
    )
    p.add_argument(
        "--kind", choices=("compress", "decompress", "sim", "bench"),
        help="restrict to records of one kind",
    )
    p.add_argument(
        "--gate", action="store_true",
        help="exit nonzero when any comparison flags a regression (CI)",
    )
    p.add_argument(
        "--verbose", action="store_true",
        help="print every compared metric, not just regressions",
    )

    sub.add_parser(
        "plan", parents=[mesh],
        help="print the mapping plan a simulate run would lower (no sim)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    from repro.errors import ReproError

    args = build_parser().parse_args(argv)
    handler = globals()[f"_cmd_{args.command}"]
    try:
        status = handler(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return status
    except BrokenPipeError:
        # The reader left early (`ceresz figure 14 | head -2`). Python's
        # documented handling: point stdout at devnull so the exit-time
        # flush cannot fail again, and exit 1 without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ReproError as exc:
        # Structured library failures (corrupt streams, bound violations,
        # dead workers) are user-facing conditions, not crashes.
        print(f"ceresz {args.command}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        hint = getattr(exc, "blocks", None)
        if hint:
            print(
                "hint: `ceresz verify` localizes the damage; "
                "`ceresz decompress --salvage` recovers the intact blocks",
                file=sys.stderr,
            )
        return 1


def _host_observers(args):
    """Tracer/registry for the host codec commands (spans only: there is
    no wafer timeline in host compression)."""
    from repro.obs import MetricsRegistry, Tracer

    tracer = Tracer(level="spans") if args.trace else None
    metrics = (
        MetricsRegistry() if (args.metrics or args.trace) else None
    )
    return tracer, metrics


def _finish_observers(
    args, tracer, metrics, *, recorder=None, run_info=None
) -> None:
    from repro.obs import build_chrome_trace, write_chrome_trace

    if args.trace:
        trace = build_chrome_trace(
            tracer, recorder=recorder, metrics=metrics, run_info=run_info
        )
        write_chrome_trace(args.trace, trace)
        print(f"trace -> {args.trace} ({len(trace['traceEvents'])} events)")
    if args.metrics and metrics is not None:
        print(metrics.render())


def _cmd_compress(args) -> int:
    from repro.obs.tracing import NULL_TRACER

    tracer, metrics = _host_observers(args)
    tr = tracer or NULL_TRACER
    with tr.span("load", path=args.input):
        data = load_f32(args.input, args.shape)
    codec = CereSZ(fast=args.fast, predictor=args.predictor)
    with tr.span("compress", jobs=args.jobs or 1):
        result = codec.compress(
            data,
            eps=args.eps,
            rel=args.rel,
            psnr=args.psnr,
            index=args.index,
            jobs=args.jobs,
            metrics=metrics,
            checksum=args.checksum,
            ledger=args.ledger,
        )
    with tr.span("write", path=args.output):
        with open(args.output, "wb") as fh:
            fh.write(result.stream)
    print(
        f"{args.input}: {result.original_bytes} -> {result.compressed_bytes} "
        f"bytes (ratio {result.ratio:.2f}, eps {result.eps:g}, "
        f"zero blocks {result.zero_block_fraction:.1%})"
    )
    _finish_observers(args, tracer, metrics)
    return 0


def _cmd_decompress(args) -> int:
    from repro.obs.tracing import NULL_TRACER

    tracer, metrics = _host_observers(args)
    tr = tracer or NULL_TRACER
    with tr.span("load", path=args.input):
        with open(args.input, "rb") as fh:
            stream = fh.read()
    codec = CereSZ(fast=args.fast)
    if args.predictor:
        from repro.core.parallel import is_sharded
        from repro.errors import FormatError

        if not is_sharded(stream):
            written = codec.describe_stream(stream).predictor
            if written != args.predictor:
                raise FormatError(
                    f"stream was written with predictor {written!r}, "
                    f"not {args.predictor!r}"
                )
    if args.salvage:
        from repro.core.decompressor import salvage_decompress

        with tr.span("salvage", fill=args.fill):
            field, report = salvage_decompress(
                stream, codec=codec, fill=args.fill, metrics=metrics,
                ledger=args.ledger,
            )
        print(report.describe())
    else:
        with tr.span("decompress", jobs=args.jobs or 1):
            field = codec.decompress(
                stream, jobs=args.jobs, metrics=metrics, ledger=args.ledger
            )
    with tr.span("write", path=args.output):
        save_f32(args.output, field)
    print(f"{args.input}: reconstructed {field.size} values -> {args.output}")
    _finish_observers(args, tracer, metrics)
    return 0


def _cmd_verify(args) -> int:
    from repro.core.decompressor import verify_stream

    with open(args.input, "rb") as fh:
        stream = fh.read()
    report = verify_stream(stream, ledger=args.ledger)
    print(report.describe())
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json())
        print(f"report -> {args.json}")
    return 0 if report.ok else 1


def _cmd_extract(args) -> int:
    from repro.core.access import decompress_range

    with open(args.input, "rb") as fh:
        stream = fh.read()
    part = decompress_range(stream, args.start, args.stop)
    save_f32(args.output, part)
    print(
        f"{args.input}[{args.start}:{args.stop}] -> {args.output} "
        f"({part.size} values)"
    )
    return 0


def _cmd_info(args) -> int:
    from repro.core.parallel import is_sharded, read_shard_table

    with open(args.input, "rb") as fh:
        stream = fh.read()
    if is_sharded(stream):
        shape, is_f64, eps, spans = read_shard_table(stream)
        print(f"container:    sharded ({len(spans)} shards)")
        print(f"shape:        {'x'.join(str(d) for d in shape)}")
        print(f"dtype:        {'f8' if is_f64 else 'f4'}")
        print(f"eps:          {eps:g}")
        print(f"stream bytes: {len(stream)}")
        return 0
    header = CereSZ().describe_stream(stream)
    kind = ""
    if header.checksum:
        kind = f" (indexed, checksummed, crc_group={header.crc_group})"
    elif header.indexed:
        kind = " (indexed)"
    print(f"container:    v{header.version}{kind}")
    print(f"shape:        {'x'.join(str(d) for d in header.shape)}")
    print(f"predictor:    {header.predictor}")
    print(f"block size:   {header.block_size}")
    print(f"header width: {header.header_width} B/block")
    print(f"eps (eff.):   {header.eps:g}")
    print(f"constant:     {header.constant}")
    print(f"stream bytes: {len(stream)}")
    return 0


def _cmd_dataset(args) -> int:
    info = get_dataset(args.name)
    field = generate_field(args.name, args.field, seed=args.seed)
    if args.out:
        save_f32(args.out, field)
        print(f"{args.name}[{args.field}] -> {args.out} ({field.nbytes} B)")
    else:
        print(
            f"{args.name}[{args.field}]: shape {field.shape}, domain "
            f"{info.domain}, min {field.min():.4g}, max {field.max():.4g}, "
            f"mean {field.mean():.4g}"
        )
    return 0


def _cmd_table(args) -> int:
    from repro.harness import render_artifact

    print(render_artifact(f"table{args.number}"))
    return 0


def _cmd_figure(args) -> int:
    from repro.harness import render_artifact

    print(render_artifact(f"fig{args.number}"))
    return 0


def _cmd_stream(args) -> int:
    from repro.core.streaming import FrameWriter

    # Write-through sink: frames land on disk as they are compressed, so
    # arbitrarily long snapshot runs never accumulate in memory.
    with open(args.out, "w+b") as fh:
        with FrameWriter(
            eps=args.eps, out=fh, index=args.index, jobs=args.jobs
        ) as writer:
            for path in args.inputs:
                field = load_f32(path)
                size = writer.add(field)
                print(f"{path}: {field.nbytes} -> {size} bytes")
        print(
            f"{writer.num_frames} frames -> {args.out} "
            f"(aggregate ratio {writer.ratio:.2f}x, eps {args.eps:g})"
        )
    return 0


def _cmd_unstream(args) -> int:
    from repro.core.streaming import FrameReader

    with open(args.input, "rb") as fh:
        reader = FrameReader(fh.read(), jobs=args.jobs)
    for i, field in enumerate(reader):
        out = f"{args.prefix}{i}.f32"
        save_f32(out, field)
        print(f"frame {i}: {field.size} values -> {out}")
    print(f"{reader.num_frames} frames, shared eps {reader.eps:g}")
    return 0


def _cmd_observations(args) -> int:
    from repro.harness import ARTIFACTS

    compute, render = ARTIFACTS["observations"]
    verdicts = compute()
    print(render(verdicts))
    return sum(not v.holds for v in verdicts)


def _cmd_validate(args) -> int:
    from repro.harness import ARTIFACTS
    from repro.perf.calibration import worst_relative_error

    compute, render = ARTIFACTS["calibration"]
    model = compute()
    print(render(model))
    compute, render = ARTIFACTS["model_validation"]
    points = compute()
    print()
    print(render(points))
    bad = [p for p in points if p.relative_gap > 0.15]
    return 1 if (worst_relative_error(model) > 0.015 or bad) else 0


def _cmd_reproduce(args) -> int:
    from repro.harness.reproduce import reproduce_all

    summary = reproduce_all(args.out, quick=args.quick)
    print(
        f"wrote {len(summary.artifacts)} artifacts to {summary.out_dir} "
        f"in {summary.elapsed_seconds:.1f} s"
    )
    for key, value in summary.headline.items():
        print(f"  {key}: {value}")
    return 0 if summary.headline["observations_hold"] else 1


def _cmd_simulate(args) -> int:
    from repro.config import BLOCK_SIZE
    from repro.core.wse_compressor import WSECereSZ
    from repro.errors import DeadlockError, RepairError

    data = load_f32(args.input)
    n = min(data.size, args.limit_blocks * BLOCK_SIZE)
    data = data[:n]
    trace_level = args.trace_level or (
        "timeline" if args.trace else "off"
    )
    faults = None
    if args.inject_faults:
        from repro.faults import parse_fault_spec

        # The mesh the faults will actually land on includes the spare
        # rows, and supplying it both validates every coordinate at parse
        # time and enables the 'random:<seed>,<n>' grammar.
        faults = parse_fault_spec(
            args.inject_faults,
            mesh=(args.rows + args.spare_rows, args.cols),
        )
        print(f"injecting: {faults.describe()}")
    sim = WSECereSZ(
        rows=args.rows,
        cols=args.cols,
        strategy=args.strategy,
        pipeline_length=args.pipeline_length,
        jobs=args.jobs,
        mode=args.mode,
        trace_level=trace_level,
        sample_every=args.sample_every,
        collect_metrics=args.metrics or bool(args.trace),
        faults=faults,
        on_fault=args.on_fault,
        max_repairs=args.max_repairs,
        spare_rows=args.spare_rows,
        predictor=args.predictor,
        ledger=args.ledger,
        progress=args.progress,
    )
    compress_kwargs = {"rel": args.rel}
    if args.tile_rows:
        compress_kwargs["tile_rows"] = True
    try:
        if args.profile:
            import cProfile
            import pstats

            profiler = cProfile.Profile()
            result = profiler.runcall(
                sim.compress, data, **compress_kwargs
            )
            stats = pstats.Stats(profiler, stream=sys.stdout)
            stats.sort_stats("cumulative").print_stats(25)
        else:
            result = sim.compress(data, **compress_kwargs)
    except DeadlockError as exc:
        print(f"simulation stalled: {exc}")
        if exc.report is not None:
            print(exc.report.describe())
            if args.fault_report:
                with open(args.fault_report, "w") as fh:
                    fh.write(exc.report.to_json())
                print(f"fault report -> {args.fault_report}")
        # Export whatever the observers captured up to the stall — spans
        # close in `finally`, so the partial trace is valid and shows how
        # far the run got before it wedged.
        _finish_observers(args, sim.last_tracer, sim.last_metrics)
        return 2
    except RepairError as exc:
        print(f"self-healing exhausted: {exc}")
        if exc.fault_report is not None:
            print(exc.fault_report.describe())
            if args.fault_report:
                with open(args.fault_report, "w") as fh:
                    fh.write(exc.fault_report.to_json())
                print(f"fault report -> {args.fault_report}")
        if exc.repair_report is not None:
            print(exc.repair_report.describe())
            if args.repair_report:
                with open(args.repair_report, "w") as fh:
                    fh.write(exc.repair_report.to_json())
                print(f"repair report -> {args.repair_report}")
        _finish_observers(args, sim.last_tracer, sim.last_metrics)
        return 2
    if result.repair is not None:
        print(result.repair.describe())
        if args.repair_report:
            with open(args.repair_report, "w") as fh:
                fh.write(result.repair.to_json())
            print(f"repair report -> {args.repair_report}")
    if args.fault_report:
        from repro.faults import FaultReport

        survived = FaultReport(reason="none", last_progress_cycle=0)
        with open(args.fault_report, "w") as fh:
            fh.write(survived.to_json())
        print(f"fault report (clean survival) -> {args.fault_report}")
    report = result.report
    n_simulated = n * args.rows if args.tile_rows else n
    print(
        f"simulated {n_simulated} values on {args.rows}x{args.cols} mesh "
        f"({args.strategy}): makespan {report.makespan_cycles:.0f} cycles, "
        f"{report.events_processed} events, {report.tasks_run} tasks, "
        f"imbalance {report.trace.load_imbalance():.2f}"
    )
    if result.mode == "hybrid":
        total_rows = sum(size for _, size in result.row_classes)
        simulated = len(result.row_classes)
        print(
            f"hybrid: {simulated} row class(es), "
            f"{simulated} representative row(s) event-simulated, "
            f"{total_rows - simulated} synthesized"
        )
    if args.tile_rows:
        # The tiled stream equals the reference compressing the row data
        # repeated across every row (truncated to whole blocks, as the
        # wafer path does).
        n_row = (data.size // BLOCK_SIZE) * BLOCK_SIZE
        reference_field = np.tile(data[:n_row], args.rows)
    else:
        reference_field = data
    reference = CereSZ(predictor=args.predictor).compress(
        reference_field, rel=args.rel
    )
    print(
        "stream matches reference: "
        f"{result.stream == reference.stream}"
    )
    _finish_observers(
        args, result.tracer, result.metrics, recorder=report.trace,
        run_info={
            "mode": result.mode,
            "row_classes": [
                [rep, size] for rep, size in (result.row_classes or ())
            ],
        },
    )
    return 0


# The ``sim`` alias dispatches through args.command, which stores the
# spelling the user typed.
_cmd_sim = _cmd_simulate


def _cmd_trace(args) -> int:
    from repro.obs import load_chrome_trace, summarize_trace

    trace = load_chrome_trace(args.input)
    print(f"{args.input}: {len(trace['traceEvents'])} events")
    print(summarize_trace(trace, top=args.top))
    return 0


def _cmd_report(args) -> int:
    from repro.obs.regress import run_report

    text, ok = run_report(
        args.ledger,
        baselines=args.baseline,
        kind=args.kind,
        verbose=args.verbose,
    )
    print(text)
    if args.gate and not ok:
        return 1
    return 0


def _cmd_plan(args) -> int:
    from repro.config import BLOCK_SIZE
    from repro.core.wse_compressor import WSECereSZ

    data = load_f32(args.input)
    n = min(data.size, args.limit_blocks * BLOCK_SIZE)
    data = data[:n]
    sim = WSECereSZ(
        rows=args.rows,
        cols=args.cols,
        strategy=args.strategy,
        pipeline_length=args.pipeline_length,
        predictor=args.predictor,
    )
    plan = sim.plan_for(data, rel=args.rel)
    plan.validate()
    print(plan.describe())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
