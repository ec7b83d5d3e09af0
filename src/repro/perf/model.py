"""The paper's analytic pipeline model (Section 4.3 / 4.4).

For a row of ``TC`` PE columns running parallel pipelines of length ``pl``:

* **Eq. 2** — relay time per PE per round: ``TC * C1``. Every input block
  destined for pipelines to the east must pass through the PE, and the
  per-hop cost ``C1`` covers one block's fabric transit (Fig 10a measures
  this linear-in-TC behaviour).
* **Eq. 3** — compute time per PE per round: ``C / pl + pl * C2``. The
  block's total work ``C`` splits over ``pl`` PEs (imperfectly — we use the
  *actual* bottleneck group from Algorithm 1 when available) and each
  pipeline hop forwards intermediate state at cost ``C2 > C1``.
* **Eq. 4** — total time per block-row:
  ``O(C/TC + pl*C1 + pl^2*C2)``, the product of rounds and round time.

The paper's Section 2.1 notes fabric transfers run asynchronously with
compute, and the Fig 9 kernel re-activates the relay task before computing;
the steady-state round time is therefore ``max(relay, compute)`` — the
*overlapped* model — which is what keeps Fig 14's scaling linear out to the
full wafer. The serialized sum (their worst-case complexity bound) is also
exposed for the Eq. 4 reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import BLOCK_SIZE
from repro.errors import ModelError
from repro.wse.cost import CycleModel, PAPER_CYCLE_MODEL


def relay_cycles_per_round(
    total_cols: int,
    relay_words: int = BLOCK_SIZE,
    model: CycleModel = PAPER_CYCLE_MODEL,
) -> float:
    """Eq. 2: per-PE relay cycles per round, ``TC * C1``.

    ``relay_words`` scales C1 for payloads other than a raw 32-word block
    (decompression relays *compressed* blocks, which are smaller — one of
    the reasons decompression throughput is higher).
    """
    if total_cols <= 0:
        raise ModelError(f"total_cols must be positive, got {total_cols}")
    return total_cols * model.relay_block_cycles(relay_words)


def compute_cycles_per_round(
    block_cycles: float,
    pipeline_length: int,
    model: CycleModel = PAPER_CYCLE_MODEL,
    *,
    bottleneck_fraction: float | None = None,
    forward_words: int = BLOCK_SIZE,
) -> float:
    """Eq. 3: per-PE compute cycles per round, ``C/pl + pl*C2``.

    ``bottleneck_fraction``, when given, replaces the ideal ``1/pl`` split
    with the actual worst-group share from Algorithm 1 (>= 1/pl) — the
    imperfect-decomposition effect the paper blames for Fig 13's slowdown
    at longer pipelines.
    """
    if pipeline_length <= 0:
        raise ModelError(f"pipeline length must be positive: {pipeline_length}")
    if block_cycles < 0:
        raise ModelError(f"negative block cycles {block_cycles}")
    share = (
        bottleneck_fraction
        if bottleneck_fraction is not None
        else 1.0 / pipeline_length
    )
    if not (0.0 < share <= 1.0):
        raise ModelError(f"bottleneck fraction outside (0, 1]: {share}")
    forwards = (
        (pipeline_length - 1) * model.forward_block_cycles(forward_words)
        if pipeline_length > 1
        else 0.0
    )
    return block_cycles * share + forwards


def round_cycles(
    total_cols: int,
    block_cycles: float,
    pipeline_length: int,
    model: CycleModel = PAPER_CYCLE_MODEL,
    *,
    overlapped: bool = True,
    bottleneck_fraction: float | None = None,
    relay_words: int = BLOCK_SIZE,
    forward_words: int = BLOCK_SIZE,
) -> float:
    """Steady-state cycles for one round (each pipeline emits one block).

    ``overlapped=True`` (the hardware behaviour): relay and compute proceed
    concurrently, round time is their max. ``overlapped=False``: the
    serialized bound used in the paper's Eq. 4 complexity analysis.
    """
    relay = relay_cycles_per_round(total_cols, relay_words, model)
    compute = compute_cycles_per_round(
        block_cycles,
        pipeline_length,
        model,
        bottleneck_fraction=bottleneck_fraction,
        forward_words=forward_words,
    )
    return max(relay, compute) if overlapped else relay + compute


def eq4_total_cycles(
    num_blocks: int,
    rows: int,
    total_cols: int,
    block_cycles: float,
    pipeline_length: int,
    model: CycleModel = PAPER_CYCLE_MODEL,
    **kwargs,
) -> float:
    """Total execution cycles for ``num_blocks`` blocks on a rows x TC mesh.

    rounds = ceil(blocks / (rows * pipelines-per-row)) times the round
    time — the product the paper folds into Eq. 4.
    """
    if num_blocks <= 0:
        raise ModelError(f"num_blocks must be positive: {num_blocks}")
    if rows <= 0:
        raise ModelError(f"rows must be positive: {rows}")
    if pipeline_length > total_cols:
        raise ModelError(
            f"pipeline length {pipeline_length} exceeds {total_cols} columns"
        )
    pipelines_per_row = max(1, total_cols // pipeline_length)
    rounds = -(-num_blocks // (rows * pipelines_per_row))
    per_round = round_cycles(
        total_cols, block_cycles, pipeline_length, model, **kwargs
    )
    # One pipeline-fill latency at the start of the run.
    fill = total_cols * model.c1_relay + block_cycles
    return rounds * per_round + fill


def hybrid_model_gap(
    observed_cycles: float,
    num_blocks: int,
    rows: int,
    total_cols: int,
    block_cycles: float,
    pipeline_length: int = 1,
    model: CycleModel = PAPER_CYCLE_MODEL,
    **kwargs,
) -> float:
    """Relative gap between an observed makespan and the Eq. 4 prediction.

    The hybrid simulator's replicated makespans are cycle-exact against
    full event-driven runs by construction; this cross-checks them against
    the *calibrated analytic model* instead — the independent second
    opinion Fig 10 uses for the event simulator. Returns
    ``(observed - predicted) / predicted``. ``bench_fig14_wse_size.py``
    asserts |gap| <= 0.15 for 32²–256² meshes and |gap| <= 0.5 everywhere.
    Wafer-scale runs sit near the outer edge, faster than the model
    (-0.446 on the 750×994 Fig 14 point, about -0.5 on a one-block-per-PE
    HACC row): with one round, the eastern PEs relay far fewer than TC
    blocks, and the steady-state model folds that fill/drain transient
    into one relay term.
    """
    if observed_cycles <= 0:
        raise ModelError(
            f"observed makespan must be positive: {observed_cycles}"
        )
    predicted = eq4_total_cycles(
        num_blocks, rows, total_cols, block_cycles, pipeline_length, model,
        **kwargs,
    )
    return (observed_cycles - predicted) / predicted


@dataclass(frozen=True)
class PipelinePerformance:
    """Everything the figures need about one configuration."""

    rows: int
    total_cols: int
    pipeline_length: int
    block_cycles: float
    round_cycles: float
    total_cycles: float
    throughput_bytes_per_s: float

    @property
    def throughput_gbs(self) -> float:
        return self.throughput_bytes_per_s / 1e9
