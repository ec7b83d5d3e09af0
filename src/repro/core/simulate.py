"""Plan simulation: serial, row-parallel, replicated, and self-healing.

Each job here has one path. :func:`simulate_plan` runs a plan and owns
the fabric/engine/lowering boilerplate every simulation shares;
:func:`simulate_with_repair` wraps it from outside with the fault-recovery
loop; :func:`_compose` builds every replicated result (hybrid runs and
:func:`simulate_replicated` alike); and :func:`_run_partitions` runs every
set of workers on the one process pool,
:func:`repro.core.parallel.run_pool_resilient`.

When asked for ``jobs > 1``, :func:`simulate_plan` checks whether the
plan's rows are provably independent
(:func:`repro.core.plan.row_partitionable` — every route moves data
east/west/ramp only, so no wavelet ever crosses a row boundary), cuts the
plan into per-row-group sub-plans, simulates each partition in its own
process, and merges the results:

* block records/outputs: disjoint dict union (each block is emitted by
  exactly one row);
* makespan: max over partitions (the paper's timing rule is already a max
  over PEs);
* events/tasks: sums (every event belongs to exactly one row);
* traces and node counters: folded in row order, reproducing the serial
  run's row-major recording exactly.

Because partitions share no state, the merge is cycle- and byte-exact
against the serial run — asserted over the whole plan matrix by
``tests/core/test_simulate_parallel.py``. Plans that do route across rows
(none of the current strategies do) or single-row plans silently fall back
to the serial path, which is itself the single-process fallback when
``jobs=1``. The row-parallel merge stays separate from :func:`_compose`:
its partitions keep full-mesh coordinates, so faults and FaultReports
keep theirs.

Processes, not threads: the simulator is pure Python, so a thread pool
would serialize on the GIL. Workers receive the (picklable) sub-plan and
cost model, build their own fabric/engine, and return outputs + report.
Every path builds the one engine configuration there is — memoized
routes, slimmed event queue, fused kernels — so results never depend on
which entry point ran them.

Observability rides along the same split. Pass ``tracer=`` (a
:class:`repro.obs.tracing.Tracer`) and/or ``metrics=`` (a
:class:`repro.obs.metrics.MetricsRegistry`) and the run records host
spans, sampled per-PE timeline events, and a full metrics snapshot.
Row-parallel workers each build their own tracer/registry (from a
picklable config), collect the metrics only *they* can see (their fabric
and engine), and ship both back; the parent folds tracers in row order
(``Tracer.merge_partition`` keeps exactly the rows each worker owns, so
the merged capture equals the serial one) and sums the registry
snapshots. Trace-derived metrics are collected once, in the parent, from
the already-merged recorder — which is why counter totals are identical
for any ``jobs`` value. The one documented exception is the
``sim.engine.queue_depth.max`` gauge: event-heap depth depends on how
rows interleave in one heap, which is genuinely different between one
engine and N.
"""

from __future__ import annotations

import os
import pickle
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace

from repro.core.lower import lower_plan
from repro.errors import (
    DeadlockError,
    RepairError,
    ReproError,
    ScheduleError,
    WorkerError,
)
from repro.faults.plan import FaultPlan
from repro.core.mapping import ProgramOutputs
from repro.core.mapping_decompress import DecompressOutputs
from repro.core.parallel import run_pool_resilient
from repro.core.plan import (
    MappingPlan,
    partition_classes,
    row_chunks,
    row_emit_sequences,
    row_partitionable,
    row_subplan,
    split_rows,
)
from repro.obs.metrics import (
    MetricsRegistry,
    collect_repair_metrics,
    collect_run_metrics,
    collect_trace_metrics,
)
from repro.obs.tracing import Tracer
from repro.wse.cost import CycleModel, PAPER_CYCLE_MODEL
from repro.wse.engine import Engine, SimulationReport
from repro.wse.fabric import Fabric
from repro.wse.trace import TraceRecorder


#: Simulation modes :func:`simulate_plan` accepts. ``"event"`` runs the
#: discrete-event engine over every PE; ``"hybrid"`` event-simulates one
#: representative row per partition class and replicates the result.
SIM_MODES = ("event", "hybrid")

#: Minimum rows a row-parallel worker must own before ``jobs="auto"``
#: spends a process spawn on it (pool setup costs tens of milliseconds;
#: a one-row shard of a small mesh simulates faster than that).
_AUTO_MIN_ROWS_PER_WORKER = 2


@dataclass(frozen=True)
class SimulatedRun:
    """Outputs plus the simulation report for one executed plan."""

    outputs: ProgramOutputs | DecompressOutputs
    report: SimulationReport
    partitions: int = 1
    #: The tracer/registry the caller passed in (or None) — returned so
    #: result consumers don't have to carry them separately.
    tracer: Tracer | None = None
    metrics: MetricsRegistry | None = None
    #: Mode that actually executed: a ``mode="hybrid"`` request falls back
    #: to ``"event"`` when the plan is single-row, routes across rows, or
    #: carries fault injections (faults target specific rows, which breaks
    #: the rows-are-interchangeable premise of replication).
    mode: str = "event"
    #: For hybrid runs: ``(representative_row, class_size)`` per partition
    #: class, in first-appearance order. Empty for event-mode runs.
    row_classes: tuple[tuple[int, int], ...] = ()
    #: Structured record of the self-healing retry loop's decisions
    #: (:class:`repro.faults.repair.RepairReport`), or None when the run
    #: executed without fault recovery.
    repair: object | None = None


def _span(tracer: Tracer | None, name: str, **args):
    """A tracer span, or a no-op context when tracing is off/absent."""
    if tracer is not None and tracer.enabled:
        return tracer.span(name, **args)
    return nullcontext()


def _simulate_one(
    plan: MappingPlan,
    model: CycleModel,
    tracer: Tracer | None = None,
    faults: FaultPlan | None = None,
) -> tuple[ProgramOutputs | DecompressOutputs, SimulationReport, Fabric, Engine]:
    fabric = Fabric(plan.rows, plan.cols)
    engine = Engine(fabric, tracer=tracer, faults=faults)
    lowered = lower_plan(plan, fabric, engine, model=model, tracer=tracer)
    with _span(tracer, "engine.run", rows=plan.rows, cols=plan.cols):
        try:
            report = engine.run()
        except DeadlockError as exc:
            # Hand the caller the (unpicklable) fabric/engine so it can
            # still collect metrics from the failed run; callers strip
            # these before the exception crosses any process boundary.
            exc._fabric = fabric
            exc._engine = engine
            raise
    return lowered.outputs, report, fabric, engine


def _collect_worker_metrics(fabric, engine) -> dict:
    metrics = MetricsRegistry()
    collect_run_metrics(metrics, fabric=fabric, engine=engine)
    return metrics.snapshot()


def _partition_worker(
    args: tuple[
        MappingPlan, CycleModel, tuple[str, int] | None, bool,
        FaultPlan | None,
    ],
) -> tuple:
    """Module-level so the process pool can pickle it.

    ``trace_cfg`` is ``(level, sample_every)`` or None; the worker builds
    its own :class:`Tracer` from it (tracers cross the pickle boundary
    whole on the way *back*). With ``want_metrics`` the worker collects
    the fabric/engine metrics only it can observe and returns the
    registry snapshot; trace-derived metrics are left to the parent,
    which has the exactly-merged recorder.

    Returns ``("ok", outputs, report, tracer, snapshot)`` or
    ``("err", exception, snapshot)``. Failures are *returned*, never
    raised: the pool would retry a raised failure as if the pool had
    broken, and it would discard the metrics the failed partition
    already gathered.
    """
    plan, model, trace_cfg, want_metrics, faults = args
    tracer = (
        Tracer(level=trace_cfg[0], sample_every=trace_cfg[1])
        if trace_cfg is not None
        else None
    )
    try:
        outputs, report, fabric, engine = _simulate_one(
            plan, model, tracer, faults
        )
    except Exception as exc:
        snapshot = None
        fabric = getattr(exc, "_fabric", None)
        engine = getattr(exc, "_engine", None)
        if want_metrics and engine is not None:
            snapshot = _collect_worker_metrics(fabric, engine)
        for attr in ("_fabric", "_engine"):
            if hasattr(exc, attr):
                delattr(exc, attr)
        try:
            pickle.dumps(exc)
            payload: Exception = exc
        except Exception:
            payload = WorkerError(f"{type(exc).__name__}: {exc}")
        return ("err", payload, snapshot)
    snapshot = (
        _collect_worker_metrics(fabric, engine) if want_metrics else None
    )
    return ("ok", outputs, report, tracer, snapshot)


def _auto_jobs(plan: MappingPlan) -> int:
    """The ``jobs="auto"`` heuristic, keyed on the useful partition count.

    Row-parallel workers pay a process spawn each; a worker is only worth
    that when it owns at least :data:`_AUTO_MIN_ROWS_PER_WORKER` rows. So
    auto resolves to ``min(cpu_count, rows // 2)`` for partitionable
    multi-row plans and to 1 (in-process) everywhere else — in particular
    on single-CPU hosts and for the small meshes where
    BENCH_sim_speed.json showed the pool costing more than it saved.
    """
    cpus = os.cpu_count() or 1
    if cpus <= 1 or plan.rows <= 1 or not row_partitionable(plan):
        return 1
    return max(1, min(cpus, plan.rows // _AUTO_MIN_ROWS_PER_WORKER))


def _trace_cfg(tracer: Tracer | None) -> tuple[str, int] | None:
    if tracer is not None and tracer.enabled:
        return (tracer.level, tracer.sample_every)
    return None


def _run_partitions(items, jobs: int, owners, metrics) -> list:
    """Run :func:`_partition_worker` over ``items`` and unwrap the results.

    ``jobs > 1`` fans the items out over the resilient process pool
    (inline otherwise); pool-infrastructure failures are retried there,
    while simulation failures come back as values and are re-raised by
    :func:`_raise_partition_failures`, tagged with the rows in
    ``owners``. Returns ``(outputs, report, tracer, snapshot)`` per item.
    """
    results, _ = run_pool_resilient(
        _partition_worker, items, jobs, processes=True
    )
    _raise_partition_failures(results, owners, metrics)
    return [r[1:] for r in results]


def simulate_plan(
    plan: MappingPlan,
    *,
    model: CycleModel = PAPER_CYCLE_MODEL,
    jobs: int | str = 1,
    mode: str = "event",
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    faults: FaultPlan | None = None,
    progress=None,
) -> SimulatedRun:
    """Execute ``plan`` and return its outputs and simulation report.

    ``jobs`` is the maximum number of worker processes for row-parallel
    simulation; it never changes results, only wall time. Pass
    ``jobs="auto"`` to let :func:`_auto_jobs` pick a worker count from the
    CPU count and the plan's useful partition count (1 whenever the pool
    would cost more than it saves).

    ``mode`` selects how the mesh is covered. ``"event"`` (default) runs
    the discrete-event engine over every PE. ``"hybrid"`` fingerprints the
    plan's rows (:func:`repro.core.plan.partition_classes`), event-
    simulates one representative row per equivalence class on a rebased
    1 x cols mesh, and composes the full result by replication — exact,
    not approximate, because equal fingerprints mean isomorphic task
    graphs and the engine's timing is invariant under row translation.
    Heterogeneous rows (ragged tails, uneven block counts) form singleton
    classes and are event-simulated individually, fanned out over the
    resilient process pool when ``jobs > 1``. Hybrid falls back to event
    mode for single-row or non-partitionable plans and whenever ``faults``
    are present; the returned :attr:`SimulatedRun.mode` records what ran.

    ``tracer``/``metrics`` opt the run into observability capture (see the
    module docstring for how the row-parallel path merges them). Both are
    mutated in place and also attached to the returned
    :class:`SimulatedRun`.

    ``faults`` is an optional seeded :class:`repro.faults.FaultPlan`; the
    row-parallel path hands each worker exactly the faults whose rows it
    owns, so injections, FaultReports, and ``faults.*`` metrics are
    identical for any ``jobs`` value. A stall detected under injection
    raises :class:`DeadlockError` carrying a structured
    :class:`repro.faults.FaultReport`; with ``jobs > 1`` the originating
    shard id and rows are prefixed to the message and reports from all
    failed partitions are merged. Recovering from that stall is not a
    mode of this function: :func:`simulate_with_repair` wraps it.

    ``progress=`` (a :class:`repro.obs.log.ProgressReporter` or ``True``)
    emits periodic rows-done/ETA lines during hybrid composition — the
    only phase long enough to need them. It defaults off at the cost of
    one branch.
    """
    if progress is True:
        from repro.obs.log import ProgressReporter

        progress = ProgressReporter(plan.rows, label="rows")
    if mode not in SIM_MODES:
        raise ValueError(f"mode must be one of {SIM_MODES}, got {mode!r}")
    if jobs == "auto":
        jobs = _auto_jobs(plan)
    else:
        jobs = int(jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if (
        mode == "hybrid"
        and faults is None
        and plan.rows > 1
        and row_partitionable(plan)
    ):
        return _simulate_hybrid(
            plan,
            model=model,
            jobs=jobs,
            tracer=tracer,
            metrics=metrics,
            progress=progress,
        )
    if jobs > 1 and plan.rows > 1 and row_partitionable(plan):
        subs = split_rows(plan, jobs)
        if len(subs) > 1:
            chunks = row_chunks(plan.rows, jobs)
            trace_cfg = _trace_cfg(tracer)
            with _span(tracer, "simulate", jobs=len(subs), rows=plan.rows):
                results = _run_partitions(
                    [
                        (sub, model, trace_cfg, metrics is not None,
                         faults.for_rows(rows) if faults is not None
                         else None)
                        for sub, rows in zip(subs, chunks)
                    ],
                    len(subs),
                    chunks,
                    metrics,
                )
                return _merge(plan, chunks, results, tracer, metrics)
    with _span(tracer, "simulate", jobs=1, rows=plan.rows):
        try:
            outputs, report, fabric, engine = _simulate_one(
                plan, model, tracer, faults
            )
        except DeadlockError as exc:
            failed_engine = getattr(exc, "_engine", None)
            if metrics is not None and failed_engine is not None:
                collect_run_metrics(
                    metrics, fabric=exc._fabric, engine=failed_engine
                )
            for attr in ("_fabric", "_engine"):
                if hasattr(exc, attr):
                    delattr(exc, attr)
            raise
    if metrics is not None:
        collect_run_metrics(
            metrics, fabric=fabric, engine=engine, trace=report.trace
        )
    return SimulatedRun(
        outputs=outputs, report=report, tracer=tracer, metrics=metrics
    )


def simulate_with_repair(
    plan: MappingPlan,
    *,
    faults: FaultPlan,
    on_fault: str = "repair",
    max_repairs: int = 2,
    replan=None,
    verify=None,
    host_fallback=None,
    model: CycleModel = PAPER_CYCLE_MODEL,
    jobs: int | str = 1,
    mode: str = "event",
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    ledger=None,
    progress=None,
) -> SimulatedRun:
    """Run ``plan`` under ``faults``, repairing the mapping until it works.

    The self-healing orchestrator wraps :func:`simulate_plan` from
    outside: each round simulates the current plan with it and, when the
    run stalls (:class:`DeadlockError`), completes without
    a record or output for every planned block (a halt dropped a queued
    task), or fails ``verify`` (silent corruption — SRAM flips, duplicated
    wavelets), classifies the fault plan against the current mapping
    (:func:`repro.faults.repair.classify_faults`), condemns the harmful
    rows, and rewrites the plan:

    1. **remap** — condemned rows move onto idle spare rows of the same
       mesh (:func:`repro.faults.repair.remap_rows`) when enough exist;
    2. **shrink** — with no spares left, ``replan(n_good)`` builds a
       rebalanced plan over the surviving row count, which is then placed
       onto the surviving physical rows (the mesh keeps its original
       height so fault coordinates stay valid);
    3. **fallback** — when wafer-side repair is impossible (or after
       ``max_repairs`` failed attempts, or immediately with
       ``on_fault="fallback"``), the condemned rows are dropped from the
       plan (:func:`repro.faults.repair.drop_rows`) and their block
       indices are handed to ``host_fallback(blocks) -> dict[int, bytes]``
       — the degraded mode where the host fast path carries the work the
       wafer cannot.

    Row evacuation is byte-safe (records are keyed by block index, not by
    emitting PE), so a successful repair reproduces the fault-free stream
    byte for byte; pass ``verify=`` (``SimulatedRun -> bool``) to have
    that checked and recorded. When every avenue is exhausted the loop
    raises :class:`~repro.errors.RepairError` carrying both the last
    :class:`~repro.faults.FaultReport` and the partial
    :class:`~repro.faults.repair.RepairReport`.

    The returned :class:`SimulatedRun` carries the final
    :attr:`~SimulatedRun.repair` report. Every decision derives from the
    fault plan and mapping plans alone — never from engine state — so the
    RepairReport is identical for ``jobs=1`` and ``jobs=N``.

    ``ledger=`` (a path, ``True``, or a :class:`repro.obs.ledger.Ledger`)
    records the loop: one ``sim.repair`` RunRecord per plan rewrite and
    one ``simulate_plan`` RunRecord per attempt that completes, with the
    attempt's plan knobs, wall time, makespan, and metrics snapshot.
    """
    from repro.faults.repair import (
        RepairReport,
        RowRepair,
        classify_faults,
        drop_rows,
        remap_rows,
        row_blocks,
        spare_rows,
        used_rows,
    )

    if on_fault not in ("repair", "fallback"):
        raise ValueError(
            f"on_fault must be 'repair' or 'fallback', got {on_fault!r}"
        )
    if max_repairs < 0:
        raise ValueError(f"max_repairs must be >= 0, got {max_repairs}")

    tolerated = classify_faults(faults, plan).tolerated
    planned = set(row_blocks(plan, set(range(plan.rows))))
    current = plan
    all_bad: set[int] = set()
    repairs: list = []
    spare_used: list[int] = []
    fallback_blocks: set[int] = set()
    host_records: dict[int, bytes] = {}
    attempts = 0
    fallback_mode = on_fault == "fallback"
    last_fault_report = None

    def _report(outcome: str, verified=None) -> "RepairReport":
        return RepairReport(
            outcome=outcome,
            attempts=attempts,
            unusable_rows=tuple(sorted(all_bad)),
            spare_rows_used=tuple(sorted(spare_used)),
            repairs=tuple(repairs),
            tolerated=tolerated,
            fallback_blocks=tuple(sorted(fallback_blocks)),
            verified=verified,
            seed=faults.seed,
        )

    def _fail(message: str):
        raise RepairError(
            message,
            fault_report=last_fault_report,
            repair_report=_report("exhausted"),
        )

    def _emit(name: str, config: dict, **fields) -> None:
        if ledger is not None:
            from repro.obs import ledger as _ledger_mod

            _ledger_mod.emit(ledger, "sim", name, config, **fields)

    def _emit_attempt(action: str, bad_rows) -> None:
        _emit(
            "sim.repair",
            {
                "op": "repair",
                "attempt": attempts,
                "action": action,
                "bad_rows": sorted(int(r) for r in bad_rows),
                "on_fault": on_fault,
                "max_repairs": max_repairs,
                "fault_seed": faults.seed,
            },
            values={"repair.bad_rows": float(len(bad_rows))},
        )

    # Each round either succeeds or condemns at least one fresh row, so
    # the loop is bounded by the mesh height; the +2 covers the initial
    # run and one final post-repair run.
    for _ in range(plan.rows + 2):
        t0 = time.perf_counter()
        try:
            run = simulate_plan(
                current, model=model, jobs=jobs, mode=mode, tracer=tracer,
                metrics=metrics, faults=faults, progress=progress,
            )
        except DeadlockError as exc:
            last_fault_report = exc.report
            run = None
            ok = False
        else:
            _emit(
                "simulate_plan",
                {
                    "op": "sim",
                    "strategy": current.strategy,
                    "rows": current.rows,
                    "cols": current.cols,
                    "num_blocks": current.num_blocks,
                    "direction": current.direction,
                    "mode": run.mode,
                    "jobs": jobs,
                    "faults": True,
                },
                timings={
                    "wall_s": time.perf_counter() - t0,
                    "makespan_cycles": float(run.report.makespan_cycles),
                },
                values={
                    "sim_events": float(run.report.events_processed),
                    "sim_tasks": float(run.report.tasks_run),
                },
                metrics=metrics,
            )
            if host_records:
                run.outputs.records.update(host_records)
            # The engine reports a task queued at a halted PE as a stall,
            # but a halt drops the tasks already queued, which can leave a
            # block silently missing: an incomplete run is a failed attempt.
            done = (
                run.outputs.records if plan.direction == "compress"
                else run.outputs.blocks
            )
            ok = planned.issubset(done) and (
                bool(verify(run)) if verify is not None else True
            )
        if ok:
            outcome = "clean"
            if any(r.action == "fallback" for r in repairs):
                outcome = "fallback"
            elif repairs:
                outcome = "repaired"
            report = _report(
                outcome, verified=(True if verify is not None else None)
            )
            if metrics is not None:
                collect_repair_metrics(metrics, report)
            return replace(run, repair=report)

        # The run stalled (or verified corrupt): condemn the rows the
        # fault plan harms under the *current* mapping and rewrite.
        attempts += 1
        cls = classify_faults(faults, current)
        bad_now = set(cls.unusable_rows) - all_bad
        if not bad_now:
            _fail(
                "run failed but no harmful fault maps to a repairable "
                "row (classification found nothing new to evacuate)"
            )
        all_bad |= bad_now
        blocks_by_row = {r: row_blocks(current, {r}) for r in bad_now}

        repaired = False
        if not fallback_mode and attempts <= max_repairs:
            avail = [s for s in spare_rows(current) if s not in all_bad]
            if len(avail) >= len(bad_now):
                mapping = dict(zip(sorted(bad_now), avail))
                for src, dst in sorted(mapping.items()):
                    repairs.append(
                        RowRepair(
                            row=src, action="remap", target_row=dst,
                            blocks=blocks_by_row[src],
                            reason=cls.row_reason(src),
                        )
                    )
                    spare_used.append(dst)
                current = remap_rows(current, mapping)
                _emit_attempt("remap", bad_now)
                repaired = True
            elif replan is not None:
                usable = [r for r in range(plan.rows) if r not in all_bad]
                if usable:
                    fresh = replan(len(usable))
                    fresh_used = used_rows(fresh)
                    if len(fresh_used) > len(usable):
                        _fail(
                            f"replan({len(usable)}) produced a plan using "
                            f"{len(fresh_used)} rows — more than survive"
                        )
                    mapping = {
                        src: usable[i] for i, src in enumerate(fresh_used)
                    }
                    current = remap_rows(fresh, mapping, rows=plan.rows)
                    for r in sorted(bad_now):
                        repairs.append(
                            RowRepair(
                                row=r, action="shrink", target_row=None,
                                blocks=blocks_by_row[r],
                                reason=cls.row_reason(r),
                            )
                        )
                    _emit_attempt("shrink", bad_now)
                    repaired = True
        if repaired:
            continue

        # Degraded mode: drop the condemned rows from the wafer and let
        # the host fast path carry their blocks.
        if host_fallback is None or plan.direction != "compress":
            why = (
                f"wafer repair exhausted after {attempts - 1} attempt(s) "
                f"(max_repairs={max_repairs})"
                if attempts > max_repairs and not fallback_mode
                else "no spare rows and no replan available"
            )
            if fallback_mode:
                why = "fallback requested"
            _fail(
                f"cannot recover rows {sorted(bad_now)}: {why} and no "
                f"host fallback was provided"
            )
        blocks = row_blocks(current, bad_now)
        for r in sorted(bad_now):
            repairs.append(
                RowRepair(
                    row=r, action="fallback", target_row=None,
                    blocks=blocks_by_row[r], reason=cls.row_reason(r),
                )
            )
        host_records.update(host_fallback(blocks))
        fallback_blocks.update(int(b) for b in blocks)
        current = drop_rows(current, bad_now)
        _emit_attempt("fallback", bad_now)

    _fail("repair loop did not converge (internal invariant)")


def _raise_partition_failures(results, chunks, metrics) -> None:
    """Re-raise worker failures with the originating shard id attached.

    Merges every partition's metrics snapshot first (the failed run's
    counters are exactly what a post-mortem needs), then raises one
    exception: a :class:`DeadlockError` whose report is the merge of all
    failed partitions' FaultReports, the original :class:`ReproError`
    annotated with its shard, or a :class:`WorkerError` for anything else.
    """
    failures = [
        (i, res) for i, res in enumerate(results) if res[0] == "err"
    ]
    if not failures:
        return
    if metrics is not None:
        for res in results:
            snap = res[2] if res[0] == "err" else res[4]
            if snap:
                metrics.merge(snap)
    index, (_, exc, _) = failures[0]
    rows = chunks[index]
    prefix = f"[shard {index}, rows {rows[0]}-{rows[-1]}] "
    suffix = (
        f" (+{len(failures) - 1} more failed partitions)"
        if len(failures) > 1
        else ""
    )
    if isinstance(exc, DeadlockError):
        report = exc.report
        for j, res in failures[1:]:
            other = res[1]
            if isinstance(other, DeadlockError) and other.report is not None:
                report = (
                    other.report if report is None
                    else report.merged_with(other.report)
                )
        raise DeadlockError(
            prefix + (exc.args[0] if exc.args else "") + suffix,
            report=report,
        ) from None
    if isinstance(exc, WorkerError):
        exc.shard = index
        exc.rows = tuple(rows)
        raise exc from None
    if isinstance(exc, ReproError):
        # Preserve the concrete type (tests catch TaskError & co.); the
        # shard annotation rides along as attributes.
        exc.shard = index
        exc.shard_rows = tuple(rows)
        raise exc from None
    raise WorkerError(
        prefix + f"{type(exc).__name__}: {exc}" + suffix,
        shard=index,
        rows=tuple(rows),
    ) from exc


def _merge(
    plan: MappingPlan,
    chunks: list[tuple[int, ...]],
    results: list[
        tuple[
            ProgramOutputs | DecompressOutputs,
            SimulationReport,
            Tracer | None,
            dict | None,
        ]
    ],
    tracer: Tracer | None,
    metrics: MetricsRegistry | None,
) -> SimulatedRun:
    outputs: ProgramOutputs | DecompressOutputs
    if plan.direction == "compress":
        outputs = ProgramOutputs()
        for part_outputs, _, _, _ in results:
            outputs.records.update(part_outputs.records)
    else:
        outputs = DecompressOutputs()
        for part_outputs, _, _, _ in results:
            outputs.blocks.update(part_outputs.blocks)
    trace = TraceRecorder()
    for i, (rows, (_, part_report, part_tracer, part_snap)) in enumerate(
        zip(chunks, results)
    ):
        trace.merge_partition(rows, part_report.trace)
        if tracer is not None and part_tracer is not None:
            tracer.merge_partition(rows, part_tracer, tid=i + 1)
        if metrics is not None and part_snap is not None:
            metrics.merge(part_snap)
    if metrics is not None:
        # Trace-derived metrics come from the exactly-merged recorder, so
        # their totals equal the serial run's for any number of workers.
        collect_trace_metrics(metrics, trace)
    report = SimulationReport(
        makespan_cycles=max(r.makespan_cycles for _, r, _, _ in results),
        events_processed=sum(r.events_processed for _, r, _, _ in results),
        tasks_run=sum(r.tasks_run for _, r, _, _ in results),
        trace=trace,
    )
    return SimulatedRun(
        outputs=outputs,
        report=report,
        partitions=len(results),
        tracer=tracer,
        metrics=metrics,
    )


# --- hybrid (hierarchical) simulation --------------------------------------------------


def _simulate_hybrid(
    plan: MappingPlan,
    *,
    model: CycleModel,
    jobs: int,
    tracer: Tracer | None,
    metrics: MetricsRegistry | None,
    progress=None,
) -> SimulatedRun:
    """Event-simulate one representative per row class, replicate the rest.

    Each representative runs on a rebased ``1 x cols`` mesh
    (:func:`repro.core.plan.row_subplan`), so the event-driven cost is
    proportional to the number of *distinct* rows, not the mesh height —
    a homogeneous 750-row wafer costs one row plus composition. Classes
    fan out over the process pool when ``jobs > 1``, with the same
    structured error path as the row-parallel shards.
    """
    classes = partition_classes(plan)
    emit_seqs = row_emit_sequences(plan)
    cfg = _trace_cfg(tracer)
    with _span(
        tracer, "simulate.hybrid", classes=len(classes), rows=plan.rows
    ):
        results = _run_partitions(
            [
                (row_subplan(plan, rep), model, cfg, metrics is not None,
                 None)
                for rep, _ in classes
            ],
            jobs,
            [members for _, members in classes],
            metrics,
        )
        return _compose(
            plan.direction,
            [
                (result, emit_seqs[rep], [(m, emit_seqs[m]) for m in members])
                for result, (rep, members) in zip(results, classes)
            ],
            tracer,
            metrics,
            progress,
            partitions=len(classes),
            row_classes=tuple(
                (rep, len(members)) for rep, members in classes
            ),
        )


def _compose(
    direction: str,
    reps: list,
    tracer: Tracer | None,
    metrics: MetricsRegistry | None,
    progress,
    *,
    partitions: int,
    row_classes: tuple[tuple[int, int], ...],
) -> SimulatedRun:
    """Compose a full-mesh result from representative runs by replication.

    ``reps`` holds, per representative, ``(result, rep_seq, copies)``: its
    run (``(outputs, report, tracer, snapshot)``), its block indices in
    emit order, and one ``(row_offset, block indices)`` pair per copy,
    the indices position-aligned with ``rep_seq``. Hybrid runs pass one
    representative row per class and one copy per member row;
    :func:`simulate_replicated` passes the whole template and one copy
    per tile.

    Everything scales exactly, by reference: the outputs keep each
    representative's values once with every copy's block indices
    (:meth:`~repro.core.mapping.ReplicatedOutputs.merge_replicas`), and
    traces and counters are the representative's with the row coordinate
    shifted (merged in row-major order, the serial run's recording
    order); both are built on first read. Events/tasks multiply by copy
    count, the makespan is the max over representatives
    (replication cannot change a row's finish time), and metric
    counters/histograms scale linearly while gauges are
    replication-invariant. The known inexactness is the same as for
    row-parallel runs: ``sim.engine.queue_depth.max`` (heap depth depends
    on how rows share one event heap) and the *ordering* of sampled
    timeline events (multiset-equal to the serial capture).
    """
    outputs: ProgramOutputs | DecompressOutputs = (
        ProgramOutputs() if direction == "compress" else DecompressOutputs()
    )
    for (rep_outputs, *_), rep_seq, copies in reps:
        rep_records = (
            rep_outputs.records if direction == "compress"
            else rep_outputs.blocks
        )
        if set(rep_records) != set(rep_seq):
            raise ScheduleError(
                "replica composition: representative emitted blocks "
                "disagree with the plan's emit sequence (internal invariant)"
            )
        values = [rep_records[idx] for idx in rep_seq]
        seqs = [seq for _, seq in copies]
        if any(len(seq) != len(values) for seq in seqs):
            raise ScheduleError(
                "replica composition: copy emit count diverges from "
                "its representative (internal invariant)"
            )
        outputs.merge_replicas(values, seqs)
    trace = TraceRecorder()
    placements = sorted(
        (offset, ci)
        for ci, (_, _, copies) in enumerate(reps)
        for offset, _ in copies
    )
    for done, (offset, ci) in enumerate(placements, 1):
        trace.merge_replica(reps[ci][0][1].trace, offset)
        if progress is not None:
            progress.update(done, phase="compose")
    trace.events_processed = sum(
        len(copies) * result[1].trace.events_processed
        for result, _, copies in reps
    )
    if tracer is not None:
        for ci, (result, _, copies) in enumerate(reps):
            if result[2] is None:
                continue
            for j, (offset, _) in enumerate(copies):
                tracer.merge_replica(
                    result[2], offset, spans=(j == 0), tid=ci + 1
                )
    if metrics is not None:
        for result, _, copies in reps:
            if result[3]:
                metrics.merge_scaled(result[3], len(copies))
        # Trace-derived metrics come from the composed recorder, exactly
        # as the row-parallel merge does it.
        collect_trace_metrics(metrics, trace)
    report = SimulationReport(
        makespan_cycles=max(r[1].makespan_cycles for r, _, _ in reps),
        events_processed=trace.events_processed,
        tasks_run=sum(
            len(copies) * result[1].tasks_run for result, _, copies in reps
        ),
        trace=trace,
    )
    return SimulatedRun(
        outputs=outputs,
        report=report,
        partitions=partitions,
        tracer=tracer,
        metrics=metrics,
        mode="hybrid",
        row_classes=row_classes,
    )


def simulate_replicated(
    template: MappingPlan,
    copies: int,
    *,
    model: CycleModel = PAPER_CYCLE_MODEL,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    progress=None,
) -> SimulatedRun:
    """Simulate ``replicate_rows(template, copies)`` without building it.

    The wafer-scale fast path: a full 750 x 994 plan is ~4.5 M IR objects
    before the first event fires, which alone would eat the wall-time
    budget. This entry point event-simulates the template once and
    composes the ``copies``-fold result directly — copy ``k`` occupies
    rows ``[k*R, (k+1)*R)`` with block indices shifted by
    ``k * template.num_blocks``, exactly the layout
    :func:`repro.core.plan.replicate_rows` materializes (the equivalence
    is asserted at small scale by the hybrid test suite). Composition is
    :func:`simulate_plan(mode="hybrid") <simulate_plan>`'s, with each
    copy's block indices passed as a ``range``; the composed stream
    equals the template's stream tiled ``copies`` times, and the stream
    is built that way. Outputs and trace rows are kept by reference, O(1)
    per copy, until ``outputs.records`` (or ``blocks``) and the report's
    ``traces``/``node_counters`` are first read.
    """
    if copies < 1:
        raise ValueError(f"copies must be >= 1, got {copies}")
    if progress is True:
        from repro.obs.log import ProgressReporter

        progress = ProgressReporter(copies, label="copies")
    if template.partial:
        raise ScheduleError("cannot replicate a partial sub-plan")
    if not row_partitionable(template):
        raise ScheduleError(
            f"template with strategy {template.strategy!r} routes across "
            f"rows and cannot be replicated"
        )
    rows, num = template.rows, template.num_blocks
    with _span(tracer, "simulate.replicated", copies=copies, rows=rows):
        (result,) = _run_partitions(
            [(template, model, _trace_cfg(tracer), metrics is not None, None)],
            1,
            [tuple(range(rows))],
            metrics,
        )
        return _compose(
            template.direction,
            [
                (
                    result,
                    range(num),
                    [(k * rows, range(k * num, (k + 1) * num))
                     for k in range(copies)],
                )
            ],
            tracer,
            metrics,
            progress,
            partitions=1,
            row_classes=tuple((row, copies) for row in range(rows)),
        )
