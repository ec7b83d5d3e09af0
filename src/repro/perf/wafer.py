"""Wafer-scale throughput estimation for CereSZ.

The estimator connects three ingredients:

1. a :class:`BlockWorkload` measured from the *actual data*: per-block fixed
   lengths and zero-block flags (the two quantities all cycle costs depend
   on), obtained by running the reference quantize/predict kernels;
2. the calibrated cycle model (:mod:`repro.wse.cost`, Tables 1-3);
3. the paper's pipeline model (:mod:`repro.perf.model`, Eqs 2-4).

Throughput follows the paper's definition (Section 5.1.4): original bytes
divided by wall time, for compression and decompression alike, with time
measured as the cycles of the slowest PE at 850 MHz.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import (
    BLOCK_BYTES,
    BLOCK_SIZE,
    CERESZ_HEADER_BYTES,
    WaferConfig,
)
from repro.errors import ModelError
from repro.core.blocks import partition_blocks, zero_block_mask
from repro.core.encoding import block_fixed_lengths, record_sizes
from repro.core.lorenzo import lorenzo_predict
from repro.core.quantize import prequantize_verified
from repro.core.schedule import distribute_substages
from repro.core.stages import compression_substages, decompression_substages
from repro.wse.cost import CycleModel, PAPER_CYCLE_MODEL
from repro.perf.model import PipelinePerformance, eq4_total_cycles, round_cycles


@dataclass(frozen=True)
class BlockWorkload:
    """Per-block workload statistics of one field under one error bound."""

    num_blocks: int
    block_size: int
    fixed_lengths: np.ndarray  # int64 per block
    zero_blocks: np.ndarray  # bool per block
    original_bytes: int

    @property
    def zero_fraction(self) -> float:
        if self.num_blocks == 0:
            return 0.0
        return float(np.mean(self.zero_blocks))

    @property
    def representative_fl(self) -> int:
        """The fixed length used to plan pipeline schedules.

        The conservative choice — the maximum over blocks — matches the
        paper's use of the sampled fixed length to size the shuffle stages
        (Section 4.2); Table 3's per-dataset encoding lengths (17/13/12)
        are maxima in the same sense.
        """
        return int(self.fixed_lengths.max(initial=0))

    def mean_cycles(
        self, direction: str, model: CycleModel = PAPER_CYCLE_MODEL
    ) -> float:
        """Average per-block cycles over the real fl / zero-block mix."""
        if direction not in ("compress", "decompress"):
            raise ModelError(f"direction must be compress|decompress: {direction}")
        fls, counts = np.unique(
            np.where(self.zero_blocks, -1, self.fixed_lengths),
            return_counts=True,
        )
        total = 0.0
        for fl, count in zip(fls, counts):
            zero = fl < 0
            f = 0 if zero else int(fl)
            if direction == "compress":
                cycles = model.compress_block_cycles(
                    f, self.block_size, zero=zero
                )
            else:
                cycles = model.decompress_block_cycles(
                    f, self.block_size, zero=zero
                )
            total += cycles * int(count)
        return total / max(self.num_blocks, 1)

    def mean_compressed_words(self) -> float:
        """Average 32-bit words per compressed block (CereSZ headers).

        Decompression relays these instead of raw blocks, which is part of
        why it is faster (less fabric traffic per block).
        """
        sizes = record_sizes(
            np.where(self.zero_blocks, 0, self.fixed_lengths),
            self.block_size,
            CERESZ_HEADER_BYTES,
        )
        return float(np.mean((sizes + 3) // 4)) if sizes.size else 1.0


def measure_workload(
    data: np.ndarray,
    eps: float,
    *,
    block_size: int = BLOCK_SIZE,
) -> BlockWorkload:
    """Run the reference front half of the pipeline and collect statistics."""
    codes, _ = prequantize_verified(np.asarray(data), eps)
    blocks, n = partition_blocks(codes, block_size)
    residuals = lorenzo_predict(blocks)
    return BlockWorkload(
        num_blocks=blocks.shape[0],
        block_size=block_size,
        fixed_lengths=block_fixed_lengths(residuals),
        zero_blocks=zero_block_mask(residuals),
        original_bytes=n * 4,
    )


def _bottleneck_fraction(
    workload: BlockWorkload,
    pipeline_length: int,
    direction: str,
    model: CycleModel,
) -> float | None:
    """Actual worst-group share from Algorithm 1 (None for pl = 1)."""
    if pipeline_length == 1:
        return None
    fl = max(workload.representative_fl, 1)
    if direction == "compress":
        stages = compression_substages(fl, workload.block_size, model)
    else:
        stages = decompression_substages(fl, workload.block_size, model)
    if pipeline_length > len(stages):
        raise ModelError(
            f"pipeline length {pipeline_length} exceeds the {len(stages)} "
            f"sub-stages available at fixed length {fl}"
        )
    dist = distribute_substages(stages, pipeline_length)
    return dist.bottleneck_cycles / dist.total


def wafer_throughput(
    workload: BlockWorkload,
    wafer: WaferConfig,
    *,
    pipeline_length: int = 1,
    direction: str = "compress",
    model: CycleModel = PAPER_CYCLE_MODEL,
    overlapped: bool = False,
) -> PipelinePerformance:
    """Estimated throughput of one configuration (Figs 11-14 engine).

    Throughput is the *steady-state* rate: bytes emitted per round divided
    by round time. The paper's datasets are hundreds of times larger than
    one wafer round, so its measured numbers are steady-state by
    construction; our scaled-down fields are not, and quoting the eq4
    makespan would charge the pipeline-fill latency against a single round.
    ``overlapped=False`` (default) uses the serialized relay+compute round
    of the paper's Eq. 4; ``overlapped=True`` gives the optimistic bound
    where fabric transfers fully hide behind compute.
    """
    if direction not in ("compress", "decompress"):
        raise ModelError(f"direction must be compress|decompress: {direction}")
    block_cycles = workload.mean_cycles(direction, model)
    # Compression relays full raw input blocks; decompression relays small
    # compressed blocks inbound but full raw blocks outbound, so its relay
    # load is just under one raw block per round. The paper's Fig 11/12
    # ratios (decompression ~1.27x faster overall, up to 920.67 GB/s on
    # RTM) pin this at ~15/16 of a raw block.
    if direction == "compress":
        relay_words = workload.block_size
    else:
        relay_words = max(1, (15 * workload.block_size) // 16)
    frac = _bottleneck_fraction(workload, pipeline_length, direction, model)
    per_round = round_cycles(
        wafer.cols,
        block_cycles,
        pipeline_length,
        model,
        overlapped=overlapped,
        bottleneck_fraction=frac,
        relay_words=relay_words,
        forward_words=workload.block_size,
    )
    total = eq4_total_cycles(
        workload.num_blocks,
        wafer.rows,
        wafer.cols,
        block_cycles,
        pipeline_length,
        model,
        overlapped=overlapped,
        bottleneck_fraction=frac,
        relay_words=relay_words,
        forward_words=workload.block_size,
    )
    pipelines_per_row = max(1, wafer.cols // pipeline_length)
    bytes_per_round = wafer.rows * pipelines_per_row * workload.block_size * 4
    steady_rate = bytes_per_round * wafer.clock_hz / per_round
    return PipelinePerformance(
        rows=wafer.rows,
        total_cols=wafer.cols,
        pipeline_length=pipeline_length,
        block_cycles=block_cycles,
        round_cycles=per_round,
        total_cycles=total,
        throughput_bytes_per_s=steady_rate,
    )


def row_scaling_curve(
    workload: BlockWorkload,
    rows_list,
    *,
    model: CycleModel = PAPER_CYCLE_MODEL,
) -> list[PipelinePerformance]:
    """Fig 7: whole algorithm on the first PE of each row, rows swept."""
    out = []
    for rows in rows_list:
        wafer = WaferConfig(rows=rows, cols=1)
        out.append(
            wafer_throughput(workload, wafer, pipeline_length=1, model=model)
        )
    return out


def wse_size_curve(
    workload: BlockWorkload,
    sizes,
    *,
    direction: str = "compress",
    model: CycleModel = PAPER_CYCLE_MODEL,
) -> list[PipelinePerformance]:
    """Fig 14: square (or explicit (rows, cols)) mesh sweep."""
    out = []
    for size in sizes:
        rows, cols = (size, size) if isinstance(size, int) else size
        wafer = WaferConfig(rows=rows, cols=cols)
        out.append(
            wafer_throughput(
                workload, wafer, pipeline_length=1, direction=direction,
                model=model,
            )
        )
    return out


def pipeline_length_curve(
    workload: BlockWorkload,
    lengths,
    wafer: WaferConfig,
    *,
    direction: str = "compress",
    model: CycleModel = PAPER_CYCLE_MODEL,
) -> list[PipelinePerformance]:
    """Fig 13: pipeline length swept on a fixed mesh."""
    return [
        wafer_throughput(
            workload,
            wafer,
            pipeline_length=pl,
            direction=direction,
            model=model,
        )
        for pl in lengths
    ]
