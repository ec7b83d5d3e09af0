"""CereSZ executed end-to-end on the WSE simulator.

:class:`WSECereSZ` compresses through one of the three Section-4 mappings
on a real (small) simulated mesh and returns both the compressed stream —
byte-identical to the NumPy reference — and the simulation report with
per-PE cycle accounting. This is the validation path for the mapping logic:
if relay counting, stage distribution, or dataflow triggering were wrong,
records would interleave or go missing and the stream equality would break.

Meshes here are test-scale (a few rows/columns); wafer-scale *throughput*
comes from the analytic model (:mod:`repro.perf.wafer`), which this module's
simulations are used to validate at small scale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.config import BLOCK_SIZE
from repro.errors import CompressionError, ScheduleError
from repro.core.blocks import partition_blocks
from repro.core.compressor import CereSZ, CompressionResult
from repro.core.format import make_header
from repro.core.lower import host_block_records
from repro.core.plan import (
    MappingPlan,
    expand_mesh,
    plan_multi_pipeline,
    plan_pipeline,
    plan_pipeline_decompress,
    plan_row_parallel,
    plan_row_parallel_decompress,
    plan_staged_multi_pipeline,
    replicate_rows,
    wafer_predictor,
)
from repro.core.quantize import prequantize_verified
from repro.core.schedule import distribute_substages, estimate_fixed_length
from repro.core.simulate import (
    SIM_MODES,
    simulate_plan,
    simulate_replicated,
    simulate_with_repair,
)
from repro.core.stages import compression_substages, decompression_substages
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import TRACE_LEVELS, Tracer
from repro.wse.cost import CycleModel, PAPER_CYCLE_MODEL
from repro.wse.engine import SimulationReport

STRATEGIES = ("rows", "pipeline", "multi")


@dataclass(frozen=True)
class WSECompressionResult:
    """A reference-compatible result plus the simulation's cycle report."""

    result: CompressionResult
    report: SimulationReport
    #: Observability capture of the run (None unless the compressor was
    #: built with ``trace_level`` / ``collect_metrics``).
    tracer: Tracer | None = None
    metrics: MetricsRegistry | None = None
    #: Simulation mode that actually ran ("event" or "hybrid") and, for
    #: hybrid runs, the ``(representative_row, class_size)`` partition
    #: classes the mesh collapsed to.
    mode: str = "event"
    row_classes: tuple[tuple[int, int], ...] = ()
    #: Self-healing outcome (:class:`repro.faults.repair.RepairReport`),
    #: or None when the run needed no fault recovery.
    repair: object | None = None

    @property
    def stream(self) -> bytes:
        return self.result.stream

    @property
    def makespan_cycles(self) -> float:
        return self.report.makespan_cycles


class WSECereSZ:
    """CereSZ running on the discrete-event wafer simulator."""

    name = "CereSZ/WSE-sim"
    device = "CS-2"

    def __init__(
        self,
        rows: int = 4,
        cols: int = 4,
        *,
        strategy: str = "multi",
        pipeline_length: int = 1,
        block_size: int = BLOCK_SIZE,
        model: CycleModel = PAPER_CYCLE_MODEL,
        jobs: int | str = 1,
        mode: str = "event",
        trace_level: str = "off",
        sample_every: int = 1,
        collect_metrics: bool = False,
        faults=None,
        on_fault: str = "raise",
        max_repairs: int = 2,
        spare_rows: int = 0,
        predictor: str = "lorenzo1d",
        ledger=None,
        progress: bool = False,
    ):
        if strategy not in STRATEGIES:
            raise ScheduleError(
                f"strategy must be one of {STRATEGIES}, got {strategy!r}"
            )
        if trace_level not in TRACE_LEVELS:
            raise ValueError(
                f"trace_level must be one of {TRACE_LEVELS}, got "
                f"{trace_level!r}"
            )
        if strategy == "pipeline" and pipeline_length > cols:
            raise ScheduleError(
                f"pipeline length {pipeline_length} exceeds {cols} columns"
            )
        if strategy == "multi" and pipeline_length > cols:
            raise ScheduleError(
                f"pipeline length {pipeline_length} exceeds {cols} columns"
            )
        if mode not in SIM_MODES:
            raise ValueError(
                f"mode must be one of {SIM_MODES}, got {mode!r}"
            )
        self.rows = rows
        self.cols = cols
        self.strategy = strategy
        self.pipeline_length = pipeline_length
        self.block_size = block_size
        self.model = model
        #: Worker-process budget for row-parallel simulation ("auto" lets
        #: the simulator pick); results are identical for any value (see
        #: repro.core.simulate).
        self.jobs = jobs if jobs == "auto" else int(jobs)
        #: Simulation mode: "event" covers every PE with the discrete-event
        #: engine; "hybrid" event-simulates one representative row per
        #: partition class and replicates (cycle-exact; see
        #: repro.core.simulate).
        self.mode = mode
        #: Observability knobs: each run builds a fresh Tracer/registry so
        #: captures never bleed between runs; the latest pair is kept on
        #: ``last_tracer`` / ``last_metrics`` (decompress_on_wafer has no
        #: room in its return signature for them).
        self.trace_level = trace_level
        self.sample_every = int(sample_every)
        self.collect_metrics = bool(collect_metrics)
        self.last_tracer: Tracer | None = None
        self.last_metrics: MetricsRegistry | None = None
        #: Optional :class:`repro.faults.FaultPlan` injected into every
        #: simulated run (compress and decompress alike). Faulted runs that
        #: stall raise :class:`repro.errors.DeadlockError` with a
        #: structured ``report``; clean completion under injection means
        #: the mapping absorbed the fault.
        self.faults = faults
        if on_fault not in ("raise", "repair", "fallback"):
            raise ValueError(
                f"on_fault must be 'raise', 'repair' or 'fallback', got "
                f"{on_fault!r}"
            )
        if int(spare_rows) < 0:
            raise ScheduleError(
                f"spare_rows must be >= 0, got {spare_rows}"
            )
        #: Self-healing knobs: ``on_fault`` selects stall handling
        #: ("raise" propagates DeadlockError; "repair" runs the bounded
        #: plan-repair loop; "fallback" routes condemned rows' blocks
        #: through the host fast path immediately), ``max_repairs`` bounds
        #: wafer-side repair attempts, and ``spare_rows`` grows the mesh
        #: by that many idle rows for remapping to land on.
        self.on_fault = on_fault
        self.max_repairs = int(max_repairs)
        self.spare_rows = int(spare_rows)
        if faults is not None:
            # Fail at construction, naming the offending fault — not as a
            # stall (or silent no-op) deep inside a simulated run.
            faults.validate_mesh(rows + self.spare_rows, cols)
        #: Block-local predictor the lowered kernels apply (whole-array
        #: predictors are rejected here, before any plan is built).
        self.predictor = wafer_predictor(predictor).name
        #: Run-ledger destination (None off, True default path, or a path/
        #: Ledger): every compress/decompress_on_wafer appends one
        #: provenance-stamped RunRecord. ``progress=True`` emits periodic
        #: rows-done/ETA lines during hybrid composition.
        self.ledger = ledger
        self.progress = bool(progress)
        self._reference = CereSZ(block_size=block_size, predictor=self.predictor)

    def _observers(self) -> tuple[Tracer | None, MetricsRegistry | None]:
        tracer = (
            Tracer(level=self.trace_level, sample_every=self.sample_every)
            if self.trace_level != "off"
            else None
        )
        metrics = MetricsRegistry() if self.collect_metrics else None
        self.last_tracer = tracer
        self.last_metrics = metrics
        return tracer, metrics

    @property
    def _progress(self):
        # simulate_plan/simulate_replicated normalize True into a fresh
        # per-run ProgressReporter sized to the composition loop.
        return True if self.progress else None

    def _simulate(self, plan: MappingPlan, tracer, metrics, **repair):
        """Run ``plan``, grown by the spare rows, through the one entry
        point this config needs.

        Injected faults with ``on_fault`` other than ``"raise"`` go through
        :func:`~repro.core.simulate.simulate_with_repair` (with the
        ``replan``/``verify``/``host_fallback`` callbacks in ``repair``,
        and the run ledger, so each attempt leaves a record); every other
        run is one :func:`~repro.core.simulate.simulate_plan` call.
        """
        run_kw = dict(
            model=self.model, jobs=self.jobs, mode=self.mode, tracer=tracer,
            metrics=metrics, faults=self.faults, progress=self._progress,
        )
        plan = expand_mesh(plan, self.spare_rows)
        if self.faults is not None and self.on_fault != "raise":
            return simulate_with_repair(
                plan, on_fault=self.on_fault, max_repairs=self.max_repairs,
                ledger=self.ledger, **repair, **run_kw,
            )
        return simulate_plan(plan, **run_kw)

    def _bound(self, values: np.ndarray, eps, rel) -> float:
        """The absolute error bound, or the constant-field refusal."""
        bound = self._reference.resolve_error_bound(values, eps, rel)
        if bound is None:
            raise CompressionError(
                "constant fields bypass the wafer (stored exactly by the "
                "host); use the reference CereSZ for them"
            )
        return bound

    def _result(
        self, run, shape: tuple[int, ...], num_blocks: int, eps_eff: float,
        bound: float, t0: float, *, tiled: bool = False,
    ) -> WSECompressionResult:
        """Frame a compress run's records as a reference-format stream,
        append its RunRecord (ledger on only), and wrap both."""
        header = make_header(
            shape,
            eps_eff,
            header_width=self._reference.header_width,
            block_size=self.block_size,
            predictor=self.predictor,
        )
        n = int(np.prod(shape, dtype=np.int64))
        result = CompressionResult(
            stream=run.outputs.stream(num_blocks, head=header.pack()),
            eps=bound,
            original_bytes=n * 4,
            shape=shape,
            fixed_lengths=np.zeros(0, dtype=np.int64),
            zero_block_fraction=0.0,
        )
        if self.ledger is not None:
            config = {"eps": bound, "shape": list(shape)}
            if tiled:
                config["tile_rows"] = True
            self._emit_ledger(
                "compress",
                wall_s=time.perf_counter() - t0,
                run=run,
                metrics=run.metrics,
                config_extra=config,
                values={
                    "compression_ratio": result.original_bytes
                    / len(result.stream),
                    "compressed_bytes": float(len(result.stream)),
                },
            )
        return WSECompressionResult(
            result=result, report=run.report, tracer=run.tracer,
            metrics=run.metrics, mode=run.mode, row_classes=run.row_classes,
            repair=run.repair,
        )

    def _emit_ledger(
        self, op, *, wall_s, run, metrics, config_extra=None, values=None
    ) -> None:
        """Append one RunRecord for a finished wafer run (ledger on only)."""
        from repro.obs import ledger as _ledger_mod

        config = {
            "op": op,
            "strategy": self.strategy,
            "rows": self.rows,
            "cols": self.cols,
            "pipeline_length": self.pipeline_length,
            "block_size": self.block_size,
            "mode": run.mode,
            "jobs": self.jobs,
            "predictor": self.predictor,
            "faults": self.faults is not None,
            "on_fault": self.on_fault,
            "spare_rows": self.spare_rows,
        }
        repair = getattr(run, "repair", None)
        if repair is not None:
            config["repair_outcome"] = repair.outcome
            values = dict(values or {})
            values["repair.attempts"] = float(repair.attempts)
            values["repair.rows"] = float(repair.repaired_rows)
            values["repair.fallback_blocks"] = float(
                len(repair.fallback_blocks)
            )
        if config_extra:
            config.update(config_extra)
        _ledger_mod.emit(
            self.ledger,
            "sim",
            f"wse.{op}",
            config,
            timings={
                "wall_s": wall_s,
                "makespan_cycles": float(run.report.makespan_cycles),
            },
            values=dict(values or {}),
            metrics=metrics,
        )

    def compress(
        self,
        data: np.ndarray,
        *,
        eps: float | None = None,
        rel: float | None = None,
        tile_rows: bool = False,
    ) -> WSECompressionResult:
        """Compress on the simulated mesh; stream matches the reference.

        With ``tile_rows=True``, ``data`` is treated as *one row's* input
        (truncated to whole blocks) and replicated across all ``rows`` —
        the homogeneous wafer-scale workload. The simulator then runs one
        row's template and composes the full mesh without materializing
        it (:func:`repro.core.simulate.simulate_replicated`), so a full
        750 x 994 run costs one row plus composition; the stream equals
        the reference compressor run on the tiled field
        ``np.tile(row_values, rows)``.
        """
        arr = np.asarray(data)
        if tile_rows:
            return self._compress_tiled(arr, eps, rel)
        bound = self._bound(arr, eps, rel)
        tracer, metrics = self._observers()
        t0 = time.perf_counter() if self.ledger is not None else 0.0
        # Quantize on the host only to learn eps_eff; the wafer kernels
        # redo the arithmetic from the raw floats.
        _, eps_eff = prequantize_verified(arr, bound)
        raw_blocks, _ = partition_blocks(
            arr.astype(np.float64), self.block_size
        )

        if tracer is not None:
            with tracer.span("plan", strategy=self.strategy):
                plan = self._compress_plan(raw_blocks, eps_eff)
        else:
            plan = self._compress_plan(raw_blocks, eps_eff)
        run = self._simulate(
            plan, tracer, metrics,
            replan=lambda n: self._compress_plan(raw_blocks, eps_eff, rows=n),
            verify=self._make_verify(raw_blocks, eps_eff),
            host_fallback=self._make_host_fallback(raw_blocks, eps_eff),
        )
        return self._result(
            run, tuple(arr.shape), raw_blocks.shape[0], eps_eff, bound, t0
        )

    def _make_verify(self, raw_blocks: np.ndarray, eps_eff: float):
        """Byte-identity check against a fault-free host reference.

        The reference body is the host replay of the wafer kernel
        (:func:`repro.core.lower.host_block_records`) over every block —
        computed lazily, once, only if the repair loop actually needs to
        verify a completed run (SRAM flips corrupt output *without*
        stalling, so completion alone proves nothing).
        """
        nblocks = raw_blocks.shape[0]
        cache: list[bytes] = []

        def verify(run) -> bool:
            if not cache:
                cache.append(
                    b"".join(
                        host_block_records(
                            raw_blocks, eps_eff, range(nblocks),
                            predictor=self.predictor,
                        ).values()
                    )
                )
            return run.outputs.stream(nblocks) == cache[0]

        return verify

    def _make_host_fallback(self, raw_blocks: np.ndarray, eps_eff: float):
        """Degraded-mode encoder: condemned rows' blocks, host-encoded.

        Every record is audited against the error bound before it is
        accepted — the fallback must meet the same ``eps`` contract the
        wafer path proves by stream equality. Block ``b`` encodes raw
        block ``b % len(raw_blocks)``: in a tiled run, global block ``b``
        is row ``b // num`` running the template's block ``b % num``.
        """
        num = raw_blocks.shape[0]

        def host_fallback(blocks) -> dict[int, bytes]:
            local = sorted({int(b) % num for b in blocks})
            records = host_block_records(
                raw_blocks, eps_eff, local, predictor=self.predictor,
            )
            self._audit_bound(raw_blocks, eps_eff, local)
            return {int(b): records[int(b) % num] for b in blocks}

        return host_fallback

    @staticmethod
    def _audit_bound(raw_blocks: np.ndarray, eps_eff: float, blocks) -> None:
        """Assert the quantized reconstruction honors ``eps_eff``.

        Same arithmetic the decompressor will apply (codes * 2*eps on the
        float32-cast input), checked block by block so a violation names
        the offending block index.
        """
        for idx in blocks:
            vals = np.asarray(
                raw_blocks[int(idx)], dtype=np.float64
            ).astype(np.float32).astype(np.float64)
            codes = np.floor(vals / (2.0 * eps_eff) + 0.5)
            err = float(np.abs(vals - codes * (2.0 * eps_eff)).max())
            if err > eps_eff * (1.0 + 1e-12):
                raise CompressionError(
                    f"host-fallback block {int(idx)} violates the error "
                    f"bound: max error {err:.3e} > eps {eps_eff:.3e}"
                )

    def _compress_tiled(
        self, arr: np.ndarray, eps: float | None, rel: float | None
    ) -> WSECompressionResult:
        flat = arr.reshape(-1)
        n_row = (flat.size // self.block_size) * self.block_size
        if n_row == 0:
            raise CompressionError(
                f"tiled compression needs at least one whole "
                f"{self.block_size}-value block of row data, got "
                f"{flat.size} values"
            )
        row_values = flat[:n_row]
        bound = self._bound(row_values, eps, rel)
        tracer, metrics = self._observers()
        t0 = time.perf_counter() if self.ledger is not None else 0.0
        _, eps_eff = prequantize_verified(row_values, bound)
        raw_blocks, _ = partition_blocks(
            row_values.astype(np.float64), self.block_size
        )
        if tracer is not None:
            with tracer.span("plan", strategy=self.strategy, tiled=True):
                template = self._compress_plan(raw_blocks, eps_eff, rows=1)
        else:
            template = self._compress_plan(raw_blocks, eps_eff, rows=1)
        if self.faults is not None:
            # Faults target specific rows, which replication cannot
            # honor; materialize the full plan and event-simulate it.
            run = self._simulate(
                replicate_rows(template, self.rows), tracer, metrics,
                host_fallback=self._make_host_fallback(raw_blocks, eps_eff),
            )
        else:
            run = simulate_replicated(
                template, self.rows, model=self.model,
                tracer=tracer, metrics=metrics, progress=self._progress,
            )
        return self._result(
            run, (self.rows * n_row,), raw_blocks.shape[0] * self.rows,
            eps_eff, bound, t0, tiled=True,
        )

    def decompress(self, stream: bytes) -> np.ndarray:
        """Streams are format-identical to the reference; decode with it."""
        return self._reference.decompress(stream)

    def decompress_on_wafer(
        self, stream: bytes
    ) -> tuple[np.ndarray, SimulationReport]:
        """Decompress on the simulated mesh.

        Uses the compressor's configured ``strategy``: ``"rows"`` maps
        whole-block decompression onto the first PE of each row,
        ``"pipeline"`` distributes the reverse sub-stages with Algorithm 1
        over ``pipeline_length`` columns (the paper's Section 4.2
        decompression mapping). Returns the reconstructed field and the
        simulation report; values are identical to :meth:`decompress`.
        """
        from repro.core.format import StreamHeader
        from repro.core.mapping_decompress import records_to_words

        tracer, metrics = self._observers()
        t0 = time.perf_counter() if self.ledger is not None else 0.0
        header, offset = StreamHeader.unpack(stream)
        if header.constant is not None:
            raise CompressionError(
                "constant streams bypass the wafer; use decompress()"
            )
        if header.header_width != 4:
            raise CompressionError(
                "wafer decompression handles the CereSZ 4-byte-header format"
            )
        if header.predictor != "lorenzo1d":
            raise CompressionError(
                f"wafer decompression models the 1-D Lorenzo inverse; this "
                f"stream was written with predictor {header.predictor!r} — "
                f"decode it on the host with decompress()"
            )
        if header.checksum:
            # Verify on the host, then skip the integrity tables: the
            # records behind them are byte-identical to v1, which is what
            # the wafer walks.
            from repro.core.decompressor import verify_stream
            from repro.errors import ContainerError

            integrity = verify_stream(stream)
            if not integrity.ok:
                raise ContainerError(
                    f"stream failed verification before wafer decode: "
                    f"{integrity.describe()}",
                    groups=integrity.corrupt_groups,
                    blocks=integrity.corrupt_blocks,
                )
            offset += header.index_bytes
        elif header.indexed:
            # The wafer walks record headers itself; skip the host-side fl
            # table (records are byte-identical to v1 behind it).
            from repro.core.encoding import unpack_block_index

            _, offset = unpack_block_index(stream, header.num_blocks, offset)
        if self.strategy == "pipeline":
            packed = records_to_words(
                stream[offset:], header.num_blocks, header.block_size
            )
            max_fl = max((int(h[0]) for h, _ in packed), default=0)
            stages = decompression_substages(
                max_fl, header.block_size, self.model
            )
            dist = distribute_substages(
                stages, min(self.pipeline_length, len(stages))
            )
            plan = plan_pipeline_decompress(
                stream[offset:],
                header.num_blocks,
                header.eps,
                dist,
                rows=self.rows,
                cols=self.cols,
                block_size=header.block_size,
                records=packed,
            )
        else:
            plan = plan_row_parallel_decompress(
                stream[offset:],
                header.num_blocks,
                header.eps,
                rows=self.rows,
                cols=self.cols,
                block_size=header.block_size,
            )
        run = self._simulate(
            plan, tracer, metrics,
            verify=self._make_decode_verify(stream, header),
        )
        blocks = run.outputs.assemble(header.num_blocks, header.block_size)
        flat = blocks.reshape(-1)[: header.num_elements]
        if self.ledger is not None:
            self._emit_ledger(
                "decompress",
                wall_s=time.perf_counter() - t0,
                run=run,
                metrics=metrics,
                config_extra={
                    "eps": header.eps,
                    "num_blocks": header.num_blocks,
                },
                values={"output_bytes": float(flat.nbytes)},
            )
        return flat.reshape(header.shape), run.report

    def _make_decode_verify(self, stream: bytes, header):
        """Bit-identity check of a wafer decode against the host decode.

        The decode-side twin of :meth:`_make_verify`: the host decode of
        the same stream (which the differential test proves bit-identical
        to every clean wafer decode) is computed lazily, once, only if the
        repair loop verifies a completed run — a duplicated wavelet can
        mis-decode blocks without stalling.
        """
        cache: list[np.ndarray] = []

        def verify(run) -> bool:
            if not cache:
                host = self._reference.decompress(stream)
                cache.append(np.asarray(host, dtype=np.float32).reshape(-1))
            got = run.outputs.assemble(header.num_blocks, header.block_size)
            got = got.reshape(-1)[: header.num_elements]
            return np.array_equal(got.view(np.uint32), cache[0].view(np.uint32))

        return verify

    def plan_for(
        self,
        data: np.ndarray,
        *,
        eps: float | None = None,
        rel: float | None = None,
    ) -> MappingPlan:
        """The mapping plan :meth:`compress` would lower for ``data``.

        Pure planning — no fabric, no simulation. Useful for inspecting
        placement, color budget, and SRAM footprint before committing to a
        run (the ``ceresz plan`` subcommand).
        """
        arr = np.asarray(data)
        _, eps_eff = prequantize_verified(arr, self._bound(arr, eps, rel))
        raw_blocks, _ = partition_blocks(
            arr.astype(np.float64), self.block_size
        )
        return self._compress_plan(raw_blocks, eps_eff)

    # -- internals ------------------------------------------------------------------

    def _compress_plan(
        self, raw_blocks: np.ndarray, eps_eff: float,
        rows: int | None = None,
    ) -> MappingPlan:
        rows = self.rows if rows is None else rows
        if self.strategy == "rows":
            return plan_row_parallel(
                raw_blocks,
                eps_eff,
                rows=rows,
                cols=self.cols,
                predictor=self.predictor,
            )
        if self.strategy == "pipeline":
            return plan_pipeline(
                raw_blocks,
                eps_eff,
                self._distribution(raw_blocks, eps_eff),
                rows=rows,
                cols=self.cols,
                predictor=self.predictor,
            )
        if self.pipeline_length == 1:
            return plan_multi_pipeline(
                raw_blocks,
                eps_eff,
                rows=rows,
                cols=self.cols,
                pipeline_length=1,
                predictor=self.predictor,
            )
        # Fig 6 right in full generality: several staged pipelines per row.
        return plan_staged_multi_pipeline(
            raw_blocks,
            eps_eff,
            self._distribution(raw_blocks, eps_eff),
            rows=rows,
            cols=self.cols,
            predictor=self.predictor,
        )

    def _distribution(self, raw_blocks: np.ndarray, eps_eff: float):
        fl = _plan_fixed_length(raw_blocks, eps_eff, self.block_size)
        stages = compression_substages(fl, self.block_size, self.model)
        return distribute_substages(
            stages, min(self.pipeline_length, len(stages))
        )


def _plan_fixed_length(
    raw_blocks: np.ndarray, eps_eff: float, block_size: int
) -> int:
    """Plan the shuffle stage count from the data (conservative maximum).

    The paper estimates this by 5 % sampling before launch
    (:func:`repro.core.schedule.estimate_fixed_length`); planning here uses
    the full input so the simulated pipeline is provably sufficient — an
    undersized plan would silently truncate high bits.
    """
    fl = estimate_fixed_length(
        raw_blocks.reshape(-1), eps_eff, block_size=block_size, fraction=1.0
    )
    return max(fl, 1)
