"""Cross-validation of the analytic model against the discrete-event sim.

DESIGN.md's fidelity claim rests on two legs: the cycle model is calibrated
to the paper's tables (audited by :mod:`repro.perf.calibration`), and the
pipeline model's *structure* matches what the simulator actually does at
small scale. This module runs the real on-wafer programs on small meshes
and compares their makespans with the analytic prediction for the same
configuration, reporting the discrepancy per point.

Agreement is expected within ~15 %: the simulator carries real effects the
steady-state model abstracts away (pipeline fill, activation latency,
tail rounds), all of which shrink as the run grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import BLOCK_SIZE
from repro.core.wse_compressor import WSECereSZ
from repro.perf.model import round_cycles
from repro.wse.cost import CycleModel, PAPER_CYCLE_MODEL


@dataclass(frozen=True)
class StageGap:
    """Observed vs predicted busy cycles for one coarse pipeline step."""

    step: str  # "prequant" | "lorenzo" | "encode"
    observed_cycles: float
    predicted_cycles: float

    @property
    def relative_gap(self) -> float:
        if self.predicted_cycles == 0:
            return 0.0 if self.observed_cycles == 0 else float("inf")
        return abs(self.observed_cycles - self.predicted_cycles) / (
            self.predicted_cycles
        )


@dataclass(frozen=True)
class ValidationPoint:
    """One sim-vs-model comparison."""

    strategy: str
    rows: int
    cols: int
    blocks: int
    simulated_cycles: float
    predicted_cycles: float
    stage_gaps: tuple[StageGap, ...] = ()

    @property
    def relative_gap(self) -> float:
        return abs(self.simulated_cycles - self.predicted_cycles) / (
            self.predicted_cycles
        )


def _stage_gaps(
    trace, workload, model: CycleModel, *, idle_dispatch: bool = False
) -> tuple[StageGap, ...]:
    """Observed (node counters) vs predicted busy cycles per coarse step.

    Every strategy runs the same per-block arithmetic; what varies is how
    planned-but-idle shuffle bits are treated. Whole-block kernels skip
    them outright; stage-group pipelines (``idle_dispatch=True``) wake for
    each and pay one task dispatch, charged under the encode step.
    """
    from repro.core.stages import compression_substages

    bs = workload.block_size
    n = workload.num_blocks
    planned_fl = max(workload.representative_fl, 1)
    costs = {
        s.name: s.cycles
        for s in compression_substages(planned_fl, bs, model)
        if not s.name.startswith("shuffle_bit_")
    }
    real_fls = np.where(workload.zero_blocks, 0, workload.fixed_lengths)
    per_bit = model.bit_shuffle.cycles(bs, 1)
    predicted = {
        "prequant": n * (costs["multiplication"] + costs["addition"]),
        "lorenzo": n * costs["lorenzo"],
        "encode": n * (costs["sign"] + costs["max"] + costs["get_length"])
        + per_bit * float(real_fls.sum()),
    }
    if idle_dispatch:
        idle_bits = np.maximum(planned_fl - real_fls, 0)
        predicted["encode"] += model.task_dispatch * float(idle_bits.sum())
    observed = {
        step: cycles
        for step, cycles in trace.step_cycle_totals().items()
        if step in predicted
    }
    return tuple(
        StageGap(
            step=step,
            observed_cycles=observed.get(step, 0.0),
            predicted_cycles=predicted[step],
        )
        for step in ("prequant", "lorenzo", "encode")
    )


def _predict_rows(
    blocks_per_pe: int, block_cycles: float
) -> float:
    """Strategy 'rows': one PE per row processes its blocks back-to-back."""
    return blocks_per_pe * block_cycles


def _predict_multi(
    rounds: int, cols: int, block_cycles: float, model: CycleModel
) -> float:
    """Strategy 'multi': serialized relay + compute per round (Eq. 4)."""
    per_round = round_cycles(
        cols, block_cycles, 1, model, overlapped=False
    )
    fill = cols * model.c1_relay
    return rounds * per_round + fill


def _predict_staged(
    rounds: int,
    cols: int,
    pipeline_length: int,
    block_cycles: float,
    bottleneck_fraction: float,
    model: CycleModel,
) -> float:
    """Staged pipelines: Eq. 4 with the Algorithm 1 bottleneck and C2."""
    per_round = round_cycles(
        cols,
        block_cycles,
        pipeline_length,
        model,
        overlapped=False,
        bottleneck_fraction=bottleneck_fraction,
    )
    fill = cols * model.c1_relay + block_cycles
    return rounds * per_round + fill


def validate_against_simulator(
    *,
    data: np.ndarray,
    eps: float,
    model: CycleModel = PAPER_CYCLE_MODEL,
) -> list[ValidationPoint]:
    """Run both strategies on small meshes and score the model.

    ``data`` should hold a few dozen blocks — enough for steady state to
    mean something, small enough for event-level simulation.
    """
    from repro.perf.wafer import measure_workload

    workload = measure_workload(data, eps)
    block_cycles = workload.mean_cycles("compress", model)
    points: list[ValidationPoint] = []

    for rows in (1, 2, 4):
        sim = WSECereSZ(rows=rows, cols=1, strategy="rows", model=model)
        result = sim.compress(data, eps=eps)
        blocks_per_pe = -(-workload.num_blocks // rows)
        points.append(
            ValidationPoint(
                strategy="rows",
                rows=rows,
                cols=1,
                blocks=workload.num_blocks,
                simulated_cycles=result.makespan_cycles,
                predicted_cycles=_predict_rows(blocks_per_pe, block_cycles),
                stage_gaps=_stage_gaps(
                    result.report.trace, workload, model
                ),
            )
        )

    for cols in (2, 4):
        sim = WSECereSZ(rows=1, cols=cols, strategy="multi", model=model)
        result = sim.compress(data, eps=eps)
        rounds = -(-workload.num_blocks // cols)
        points.append(
            ValidationPoint(
                strategy="multi",
                rows=1,
                cols=cols,
                blocks=workload.num_blocks,
                simulated_cycles=result.makespan_cycles,
                predicted_cycles=_predict_multi(
                    rounds, cols, block_cycles, model
                ),
                stage_gaps=_stage_gaps(
                    result.report.trace, workload, model
                ),
            )
        )

    from repro.core.schedule import distribute_substages
    from repro.core.stages import compression_substages

    for cols, pl in ((4, 2), (6, 2)):
        sim = WSECereSZ(
            rows=1, cols=cols, strategy="multi", pipeline_length=pl,
            model=model,
        )
        result = sim.compress(data, eps=eps)
        pipelines = cols // pl
        rounds = -(-workload.num_blocks // pipelines)
        stages = compression_substages(
            max(workload.representative_fl, 1), workload.block_size, model
        )
        dist = distribute_substages(stages, pl)
        frac = dist.bottleneck_cycles / dist.total
        points.append(
            ValidationPoint(
                strategy=f"staged(pl={pl})",
                rows=1,
                cols=cols,
                blocks=workload.num_blocks,
                simulated_cycles=result.makespan_cycles,
                predicted_cycles=_predict_staged(
                    rounds, cols, pl, block_cycles, frac, model
                ),
                stage_gaps=_stage_gaps(
                    result.report.trace, workload, model, idle_dispatch=True
                ),
            )
        )
    return points


def validate_probe(
    *, blocks: int = 64, seed: int = 0
) -> list[ValidationPoint]:
    """:func:`validate_against_simulator` on the standard probe: a
    float32 random walk of ``blocks`` blocks drawn at ``seed``, eps 0.05."""
    rng = np.random.default_rng(seed)
    data = np.cumsum(rng.normal(size=BLOCK_SIZE * blocks)).astype(np.float32)
    return validate_against_simulator(data=data, eps=0.05)


def validation_report(points: list[ValidationPoint]) -> str:
    from repro.harness.report import format_table

    table = format_table(
        ["strategy", "mesh", "blocks", "simulated", "predicted", "gap"],
        [
            [
                p.strategy,
                f"{p.rows}x{p.cols}",
                p.blocks,
                round(p.simulated_cycles),
                round(p.predicted_cycles),
                f"{100 * p.relative_gap:.1f}%",
            ]
            for p in points
        ],
        title="Analytic model vs discrete-event simulator (compression)",
    )
    breakdown_rows = [
        [
            f"{p.strategy} {p.rows}x{p.cols}",
            g.step,
            round(g.observed_cycles),
            round(g.predicted_cycles),
            f"{100 * g.relative_gap:.1f}%",
        ]
        for p in points
        for g in p.stage_gaps
    ]
    if breakdown_rows:
        table += "\n" + format_table(
            ["point", "step", "observed", "predicted", "gap"],
            breakdown_rows,
            title="Per-PE busy cycles by pipeline step (observed vs predicted)",
        )
    return table
