"""The compression sub-stage state machine the wafer kernels execute.

Section 4's strategies (Fig 6) are plan constructors in
:mod:`repro.core.plan`, lowered onto the simulator by the single pass in
:mod:`repro.core.lower`. This module holds what those lowered tasks run
per block:

* :class:`PipelineState` — everything one block carries between
  Algorithm 1's sub-stages, serializable for fabric transport;
* :func:`run_substage` / :func:`substage_cycles` — one sub-stage's
  arithmetic and its calibrated cycle cost;
* :func:`finalize_record` — the on-stream record of a finished block;
* :class:`ProgramOutputs` — the host-side collection of emitted records.

The kernels run on the real data: the records they emit are asserted
byte-identical to the NumPy reference compressor, and compute cycles are
charged per sub-stage from the calibrated cost model, so the same
simulation also yields the timing behaviour of Figs 7/10. The stepped
machine is also the named oracle for the fused kernels of
:mod:`repro.core.lower` (whole-block and per stage group), which read and
write the same serialized state layout through :func:`state_header`.

Pipeline state between PEs is serialized into a single float64 array (the
fabric moves wavelets, not Python objects); float64 carries the int64
quantization codes exactly because the quantizer guards ``|code| < 2**50``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from repro.config import CERESZ_HEADER_BYTES
from repro.errors import CompressionError, ScheduleError
from repro.core.stages import SubStage
from repro.wse.cost import CycleModel

# --- pipeline state ------------------------------------------------------------------

PHASES = (
    "raw",        # float values, pre-quantization pending
    "scaled",     # after Multiplication (value / 2 eps)
    "codes",      # after Addition (+0.5, floor): integer codes
    "residuals",  # after Lorenzo
    "mags",       # after Sign: magnitudes + sign bytes
    "maxed",      # after Max: + max magnitude
    "lengthed",   # after GetLength: + fixed length
    "encoded",    # after the final 1-bit shuffle: + payload bytes
)


@dataclass
class PipelineState:
    """Everything one data block carries between pipeline sub-stages."""

    phase: str
    block_size: int
    values: np.ndarray  # meaning depends on phase (raw/scaled/codes/...)
    signs: np.ndarray | None = None  # uint8, block_size/8 bytes
    max_mag: int | None = None
    fl: int | None = None
    shuffled: list[np.ndarray] = dataclass_field(default_factory=list)
    bits_done: int = 0

    def to_array(self) -> np.ndarray:
        """Serialize into one float64 vector for fabric transport."""
        if self.phase not in PHASES:
            raise CompressionError(
                f"cannot serialize pipeline state in unknown phase "
                f"{self.phase!r} (expected one of {PHASES})"
            )
        sign_bytes = self.block_size // 8
        header = np.array(
            [
                PHASES.index(self.phase),
                self.block_size,
                -1 if self.max_mag is None else self.max_mag,
                -1 if self.fl is None else self.fl,
                self.bits_done,
            ],
            dtype=np.float64,
        )
        parts = [header, np.asarray(self.values, dtype=np.float64)]
        parts.append(
            np.zeros(sign_bytes)
            if self.signs is None
            else self.signs.astype(np.float64)
        )
        for chunk in self.shuffled:
            parts.append(chunk.astype(np.float64))
        return np.concatenate(parts)

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "PipelineState":
        """Deserialize a fabric-transported state vector.

        Corrupted or truncated vectors raise :class:`CompressionError`
        naming the offending header value (see :func:`state_header`).
        """
        arr = np.asarray(arr)
        phase_idx, block_size, max_mag, fl, bits_done = state_header(arr)
        phase = PHASES[phase_idx]
        sign_bytes = block_size // 8
        pos = 5
        values = arr[pos : pos + block_size].copy()
        pos += block_size
        signs = arr[pos : pos + sign_bytes].astype(np.uint8)
        pos += sign_bytes
        shuffled = []
        for _ in range(bits_done):
            shuffled.append(arr[pos : pos + sign_bytes].astype(np.uint8))
            pos += sign_bytes
        return cls(
            phase=phase,
            block_size=block_size,
            values=values,
            signs=signs if phase in ("mags", "maxed", "lengthed", "encoded") else None,
            max_mag=max_mag,
            fl=fl,
            shuffled=shuffled,
            bits_done=bits_done,
        )


def state_header(
    arr: np.ndarray,
) -> tuple[int, int, int | None, int | None, int]:
    """Validate a serialized state's 5-word header.

    Returns ``(phase index, block size, max_mag, fl, bits_done)``, with
    ``None`` for a ``max_mag`` or ``fl`` word of -1 (not yet computed).
    Corrupted or truncated vectors raise :class:`CompressionError` naming
    the offending header value — on the device a bad forward would
    silently decode garbage, here it fails loudly. Both
    :meth:`PipelineState.from_array` and the fused stage-group kernels of
    :mod:`repro.core.lower` read states through here.
    """
    if arr.ndim != 1 or arr.size < 5:
        raise CompressionError(
            f"pipeline state vector needs at least the 5-word header, "
            f"got shape {arr.shape}"
        )
    # float.is_integer() is False for inf and NaN, so each test below also
    # rejects non-finite words.
    raw_phase, raw_bs, raw_mag, raw_fl, raw_bits = map(
        float, arr[:5].tolist()
    )
    if not (raw_phase.is_integer() and 0 <= raw_phase < len(PHASES)):
        raise CompressionError(
            f"pipeline state header has invalid phase index {raw_phase!r} "
            f"(expected 0..{len(PHASES) - 1})"
        )
    if not (raw_bs.is_integer() and raw_bs > 0 and raw_bs % 8 == 0):
        raise CompressionError(
            f"pipeline state header has invalid block size {raw_bs!r} "
            f"(expected a positive multiple of 8)"
        )
    if not (raw_bits.is_integer() and raw_bits >= 0):
        raise CompressionError(
            f"pipeline state header has invalid bits_done {raw_bits!r}"
        )
    # -1 marks a word not yet computed; anything else must be a count.
    if not (raw_mag == -1.0 or (raw_mag.is_integer() and raw_mag >= 0)):
        raise CompressionError(
            f"pipeline state header has invalid max_mag {raw_mag!r} "
            f"(expected -1 or a non-negative integer)"
        )
    if not (raw_fl == -1.0 or (raw_fl.is_integer() and raw_fl >= 0)):
        raise CompressionError(
            f"pipeline state header has invalid fl {raw_fl!r} "
            f"(expected -1 or a non-negative integer)"
        )
    phase_idx = int(raw_phase)
    block_size = int(raw_bs)
    max_mag = int(raw_mag)
    fl = int(raw_fl)
    bits_done = int(raw_bits)
    sign_bytes = block_size // 8
    needed = 5 + block_size + sign_bytes + bits_done * sign_bytes
    if arr.size < needed:
        raise CompressionError(
            f"pipeline state vector truncated: phase {PHASES[phase_idx]!r} "
            f"with block size {block_size} and {bits_done} shuffled planes "
            f"needs {needed} words, got {arr.size}"
        )
    return (
        phase_idx,
        block_size,
        None if max_mag < 0 else max_mag,
        None if fl < 0 else fl,
        bits_done,
    )


def state_headers(
    stack: np.ndarray,
) -> tuple[list[int], int, list[int | None], list[int | None], list[int]]:
    """:func:`state_header` over every row of an ``m x n`` stack of states.

    Returns ``(phases, block size, max_mags, fls, bits_done)``, one list
    entry per row. The checks run on column extremes: every word an
    integer (``float.is_integer``: finite and equal to its floor), one
    block size, and each column's minimum and maximum in range. When a row
    fails, :func:`state_header` re-reads the rows in order and raises the
    first one's error; rows that all pass alone but disagree on the block
    size raise too (one block's state never can, so only a stack of
    several does).
    """
    head = stack[:, :5]
    if head.shape[1] == 5 and np.isfinite(head).all():
        lo = head.min(axis=0).tolist()
        hi = head.max(axis=0).tolist()
        bs = lo[1]
        if (
            (np.floor(head) == head).all()
            and lo[0] >= 0
            and hi[0] < len(PHASES)
            and bs == hi[1]
            and bs > 0
            and bs % 8 == 0
            and lo[2] >= -1  # -1 (not yet computed) or a count
            and lo[3] >= -1
            and lo[4] >= 0
            and 5 + bs + bs // 8 * (1 + hi[4]) <= stack.shape[1]
        ):
            phases, _, mags, fls, bits = head.T.tolist()
            return (
                [int(p) for p in phases],
                int(bs),
                [None if v < 0 else int(v) for v in mags],
                [None if v < 0 else int(v) for v in fls],
                [int(b) for b in bits],
            )
    for row in stack:
        state_header(row)  # raises the first bad row's error
    raise CompressionError("pipeline state rows disagree on the block size")


def run_substage(
    stage: SubStage, state: PipelineState, eps: float
) -> PipelineState:
    """Execute one sub-stage's semantics on one block's state.

    The arithmetic mirrors the PE kernels: the quantization division is
    the Multiplication sub-stage (multiply by the reciprocal of 2 eps,
    realized as float64 division for exactness), Addition adds 0.5 and
    floors, and each ``shuffle_bit_k`` packs bit k of every magnitude into
    ``block_size/8`` bytes, little-endian within bytes (paper Fig 8).
    """
    name = stage.name
    if name == "multiplication":
        if state.phase != "raw":
            raise CompressionError(f"multiplication applied to {state.phase}")
        state.values = state.values / (2.0 * eps)
        state.phase = "scaled"
    elif name == "addition":
        if state.phase != "scaled":
            raise CompressionError(f"addition applied to {state.phase}")
        state.values = np.floor(state.values + 0.5)
        state.phase = "codes"
    elif name == "lorenzo":
        if state.phase != "codes":
            raise CompressionError(f"lorenzo applied to {state.phase}")
        out = state.values.copy()
        out[1:] -= state.values[:-1]
        state.values = out
        state.phase = "residuals"
    elif name == "sign":
        if state.phase != "residuals":
            raise CompressionError(f"sign applied to {state.phase}")
        negs = (state.values < 0).astype(np.uint8)
        state.signs = np.packbits(
            negs.reshape(-1, 8), axis=-1, bitorder="little"
        ).reshape(-1)
        state.values = np.abs(state.values)
        state.phase = "mags"
    elif name == "max":
        if state.phase != "mags":
            raise CompressionError(f"max applied to {state.phase}")
        state.max_mag = int(state.values.max())
        state.phase = "maxed"
    elif name == "get_length":
        if state.phase != "maxed":
            raise CompressionError(f"get_length applied to {state.phase}")
        state.fl = int(state.max_mag).bit_length()
        state.phase = "lengthed"
    elif name.startswith("shuffle_bit_"):
        if state.phase not in ("lengthed", "encoded"):
            raise CompressionError(f"{name} applied to {state.phase}")
        if state.fl is None:
            raise CompressionError(f"{name} applied to a block with no length")
        k = int(name.rsplit("_", 1)[1])
        if k < state.fl:
            mags = state.values.astype(np.int64)
            bits = ((mags >> k) & 1).astype(np.uint8)
            state.shuffled.append(
                np.packbits(
                    bits.reshape(-1, 8), axis=-1, bitorder="little"
                ).reshape(-1)
            )
            state.bits_done += 1
        # Bits beyond the block's own fixed length are planned-but-idle
        # stages (the schedule is sized for the sampled maximum fl).
        state.phase = "encoded" if state.bits_done >= (state.fl or 0) else state.phase
        if state.fl == 0:
            state.phase = "encoded"
    else:
        raise ScheduleError(f"unknown sub-stage {name!r}")
    return state


def finalize_record(state: PipelineState) -> bytes:
    """Assemble the on-stream block record from a fully processed state."""
    if state.fl is None or state.signs is None:
        raise CompressionError(
            f"cannot finalize a block in phase {state.phase!r}"
        )
    header = int(state.fl).to_bytes(CERESZ_HEADER_BYTES, "little")
    if state.fl == 0:
        return header
    payload = b"".join(chunk.tobytes() for chunk in state.shuffled)
    return header + state.signs.tobytes() + payload


def substage_cycles(
    stage: SubStage, state_fl: int | None, model: CycleModel, block_size: int
) -> float:
    """Cycles a sub-stage costs for a given block (idle shuffles are ~free)."""
    if stage.name.startswith("shuffle_bit_"):
        k = int(stage.name.rsplit("_", 1)[1])
        if state_fl is not None and k >= state_fl:
            return model.task_dispatch  # planned stage with no work
        return model.bit_shuffle.cycles(block_size, 1)
    return stage.cycles


# --- run outputs ---------------------------------------------------------------------


class ReplicatedOutputs:
    """Per-block run outputs keyed by block index, replicas by reference.

    A composed run hands over each representative's values once with its
    copies' block indices (:meth:`merge_replicas`), O(1) per copy. The
    full mapping is built on its first read, in merge order;
    :meth:`ProgramOutputs.stream` joins an exact tiling of pending copies
    without building it. A representative's values must not be mutated
    once merged.
    """

    def __init__(self, store: dict | None = None) -> None:
        self._store = {} if store is None else store
        self._replicas: list[tuple[list, list]] = []

    def merge_replicas(self, values: list, seqs: list) -> None:
        """Fold in copies of one representative's values.

        Each of ``seqs`` lists one copy's ``len(values)`` distinct,
        non-negative block indices: copy ``k`` places ``values[i]`` at
        block ``seqs[k][i]``. The mapping reads as
        ``store.update(zip(seq, values))`` for each copy in order, after
        everything already held.
        """
        self._replicas.append((values, seqs))

    def _materialized(self) -> dict:
        """The full mapping, with every pending replica placed."""
        if self._replicas:
            pending, self._replicas = self._replicas, []
            store = self._store
            for values, seqs in pending:
                for seq in seqs:
                    store.update(zip(seq, values))
        return self._store


class ProgramOutputs(ReplicatedOutputs):
    """Host-side collection of per-block records from a simulated run.

    :attr:`records` maps block index to record bytes; a composed run's
    copies are placed in it on its first read.
    """

    def __init__(self, records: dict[int, bytes] | None = None) -> None:
        super().__init__(records)

    @property
    def records(self) -> dict[int, bytes]:
        return self._materialized()

    def stream(self, num_blocks: int, *, head: bytes = b"") -> bytes:
        """Concatenate records in block order (fails on gaps), after
        ``head`` (a container header) in the same join, so the stream is
        copied once.

        When the pending copies tile the stream exactly (every copy a
        step-1 ``range``, as a
        :func:`~repro.core.simulate.simulate_replicated` copy is, and
        together they cover blocks ``[0, num_blocks)`` once each), each
        representative's records are joined once and every copy takes
        that piece whole; a record stored directly cannot show, as the
        copies are placed after it. Any other layout (a hybrid row's
        interleaved blocks, a prefix, a gap, an overlap) joins the
        materialized :attr:`records`.
        """
        pieces = self._tiled(num_blocks) if self._replicas else None
        if pieces is not None:
            return b"".join([head, *pieces])
        records = self.records
        try:
            return b"".join(
                [head, *map(records.__getitem__, range(num_blocks))]
            )
        except KeyError:
            missing = [i for i in range(num_blocks) if i not in records]
            raise CompressionError(
                f"simulation produced no record for blocks {missing[:8]}"
                + ("..." if len(missing) > 8 else "")
            ) from None

    def _tiled(self, num_blocks: int) -> list[bytes] | None:
        """The stream's pieces when the copies tile it exactly, else None."""
        spans = []
        for rep, (_, seqs) in enumerate(self._replicas):
            for seq in seqs:
                if not isinstance(seq, range) or seq.step != 1:
                    return None
                spans.append((seq.start, seq.start + len(seq), rep))
        spans.sort()
        end = 0
        for start, stop, _ in spans:
            if start != end:
                return None  # a gap or an overlap
            end = stop
        if end != num_blocks:
            return None
        joined = [b"".join(values) for values, _ in self._replicas]
        return [joined[rep] for _, _, rep in spans]
