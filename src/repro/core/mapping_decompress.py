"""Mapping CereSZ *decompression* onto the simulated wafer.

The paper's Section 4.2 closes with the decompression mapping: the reverse
Bit-shuffle splits per byte group, while the prefix sum (reverse Lorenzo)
and the de-quantization multiply are indivisible; Algorithm 1 distributes
those sub-stages the same way. The plans live in :mod:`repro.core.plan`
and their lowering in :mod:`repro.core.lower`; this module holds the
per-block pieces the lowered tasks run. The wrinkle that makes the
mapping interesting on a dataflow machine: *compressed records have
data-dependent length*, so a PE cannot post one fixed-extent receive per
block. Instead it receives in two phases — the 4-byte header word first
(one wavelet), which tells it the block's fixed length, then the
``1 + fl`` words of signs and payload.
Zero blocks (fl = 0) have no second phase at all, which is exactly the
short-circuit that makes decompression faster at loose bounds.

Record-to-wavelet packing (CereSZ's 32-bit message rule, block size 32):

* word 0: the fixed length (the 4-byte little-endian header);
* word 1: the 4 sign bytes (absent when fl = 0);
* words 2..fl+1: one 4-byte bit-plane group each (paper Fig 8).

A larger block size ``bs`` (a multiple of 32) widens the sign group and
every bit plane to ``bs // 32`` words each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import CERESZ_HEADER_BYTES
from repro.errors import CompressionError
from repro.core.encoding import scan_record_offsets
from repro.core.mapping import ReplicatedOutputs


class DecompressOutputs(ReplicatedOutputs):
    """Host-side collection of reconstructed blocks.

    :attr:`blocks` maps block index to decoded values; a composed run's
    copies are placed in it on its first read.
    """

    def __init__(self, blocks: dict[int, np.ndarray] | None = None) -> None:
        super().__init__(blocks)

    @property
    def blocks(self) -> dict[int, np.ndarray]:
        return self._materialized()

    def assemble(self, num_blocks: int, block_size: int) -> np.ndarray:
        blocks = self.blocks
        missing = [i for i in range(num_blocks) if i not in blocks]
        if missing:
            raise CompressionError(
                f"simulation produced no output for blocks {missing[:8]}"
                + ("..." if len(missing) > 8 else "")
            )
        out = np.empty((num_blocks, block_size), dtype=np.float32)
        for i in range(num_blocks):
            out[i] = blocks[i]
        return out


def records_to_words(
    body: bytes, num_blocks: int, block_size: int
) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """Split a CereSZ body into per-block (header word, body words).

    Requires the 4-byte-header format with a word-aligned block size.
    """
    if block_size % 32:
        raise CompressionError(
            "wafer decompression requires a 32-multiple block size "
            "(word-aligned sign bytes)"
        )
    buf = np.frombuffer(body, dtype=np.uint8)
    offsets, fls = scan_record_offsets(
        body, num_blocks, block_size, CERESZ_HEADER_BYTES
    )
    out = []
    sign_words = block_size // 32
    for off, fl in zip(offsets, fls):
        header = buf[off : off + 4].view(np.uint32).copy()
        if fl == 0:
            out.append((header, None))
            continue
        body_bytes = (sign_words + int(fl) * sign_words) * 4
        start = int(off) + 4
        words = buf[start : start + body_bytes].view(np.uint32).copy()
        out.append((header, words))
    return out


def decode_block_from_words(
    fl: int, words: np.ndarray | None, eps: float, block_size: int
) -> np.ndarray:
    """The PE decode kernel: words -> float32 values (exact reference math)."""
    if fl == 0 or words is None:
        return np.zeros(block_size, dtype=np.float32)
    sign_words = block_size // 32
    raw = words.astype(np.uint32).tobytes()
    body = np.frombuffer(raw, dtype=np.uint8)
    signs = np.unpackbits(
        body[: sign_words * 4], bitorder="little"
    ).astype(bool)
    planes = body[sign_words * 4 :].reshape(fl, sign_words * 4)
    bits = np.unpackbits(planes, axis=-1, bitorder="little")
    weights = (np.int64(1) << np.arange(fl, dtype=np.int64))[:, None]
    mags = (bits.astype(np.int64) * weights).sum(axis=0)
    mags[signs] = -mags[signs]
    codes = np.cumsum(mags, dtype=np.int64)  # reverse Lorenzo (prefix sum)
    return (codes.astype(np.float64) * (2.0 * eps)).astype(np.float32)


# --- pipeline-parallel decompression (Algorithm 1 over reverse sub-stages) ---

DECODE_PHASES = ("encoded", "mags", "signed", "codes", "values")


@dataclass
class DecompressState:
    """One block's state between decompression pipeline sub-stages.

    Starts as the raw record (fixed length, sign bytes, bit-plane words);
    per-bit unshuffle stages accumulate magnitudes, then signs are applied,
    the prefix sum reverses Lorenzo, and the de-quantization multiply
    produces values.
    """

    phase: str
    block_size: int
    fl: int
    values: np.ndarray  # mags -> residuals -> codes -> float values
    signs: np.ndarray  # uint8 sign bytes (block_size / 8)
    planes: np.ndarray  # uint32 bit-plane words, block_size / 32 per plane
    bits_done: int = 0

    def to_array(self) -> np.ndarray:
        header = np.array(
            [
                DECODE_PHASES.index(self.phase),
                self.block_size,
                self.fl,
                self.bits_done,
            ],
            dtype=np.float64,
        )
        return np.concatenate(
            [
                header,
                np.asarray(self.values, dtype=np.float64),
                self.signs.astype(np.float64),
                self.planes.astype(np.float64),
            ]
        )

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "DecompressState":
        phase, block_size, fl, bits_done = decode_state_header(arr)
        pos = 4
        values = arr[pos : pos + block_size].copy()
        pos += block_size
        sign_bytes = block_size // 8
        signs = arr[pos : pos + sign_bytes].astype(np.uint8)
        pos += sign_bytes
        planes = arr[pos : pos + fl * (block_size // 32)].astype(np.uint32)
        return cls(
            phase=phase,
            block_size=block_size,
            fl=fl,
            values=values,
            signs=signs,
            planes=planes,
            bits_done=bits_done,
        )

    @classmethod
    def from_record(
        cls, fl: int, words: np.ndarray | None, block_size: int
    ) -> "DecompressState":
        sign_words = block_size // 32
        if fl == 0 or words is None:
            return cls(
                phase="signed",  # nothing to unshuffle or sign-restore
                block_size=block_size,
                fl=0,
                values=np.zeros(block_size, dtype=np.float64),
                signs=np.zeros(block_size // 8, dtype=np.uint8),
                planes=np.zeros(0, dtype=np.uint32),
            )
        raw = words.astype(np.uint32).tobytes()
        body = np.frombuffer(raw, dtype=np.uint8)
        return cls(
            phase="encoded",
            block_size=block_size,
            fl=fl,
            values=np.zeros(block_size, dtype=np.float64),
            signs=body[: sign_words * 4].copy(),
            planes=words[sign_words:].astype(np.uint32).copy(),
        )


def decode_state_header(arr: np.ndarray) -> tuple[str, int, int, int]:
    """A serialized decode state's 4-word header: (phase, bs, fl, bits_done).

    Shared by :meth:`DecompressState.from_array` and the fused decode
    stage-group kernels of :mod:`repro.core.lower`. Validated like the
    compress side's :func:`repro.core.mapping.state_header`: a corrupted
    or truncated vector raises :class:`CompressionError` naming the
    offending header word.
    """
    if arr.ndim != 1 or arr.size < 4:
        raise CompressionError(
            f"decode state vector needs at least the 4-word header, got "
            f"shape {arr.shape}"
        )
    # float.is_integer() is False for inf and NaN, so each test below also
    # rejects non-finite words.
    raw_phase, raw_bs, raw_fl, raw_bits = map(float, arr[:4].tolist())
    if not (raw_phase.is_integer() and 0 <= raw_phase < len(DECODE_PHASES)):
        raise CompressionError(
            f"decode state header has invalid phase index {raw_phase!r} "
            f"(expected 0..{len(DECODE_PHASES) - 1})"
        )
    if not (raw_bs.is_integer() and raw_bs > 0 and raw_bs % 32 == 0):
        raise CompressionError(
            f"decode state header has invalid block size {raw_bs!r} "
            f"(expected a positive multiple of 32)"
        )
    if not (raw_fl.is_integer() and raw_fl >= 0):
        raise CompressionError(f"decode state header has invalid fl {raw_fl!r}")
    if not (raw_bits.is_integer() and raw_bits >= 0):
        raise CompressionError(
            f"decode state header has invalid bits_done {raw_bits!r}"
        )
    block_size, fl = int(raw_bs), int(raw_fl)
    needed = 4 + block_size + block_size // 8 + fl * (block_size // 32)
    if arr.size < needed:
        raise CompressionError(
            f"decode state vector truncated: block size {block_size} with "
            f"fl {fl} needs {needed} words, got {arr.size}"
        )
    return DECODE_PHASES[int(raw_phase)], block_size, fl, int(raw_bits)


def decode_state_headers(
    stack: np.ndarray,
) -> tuple[list[str], int, list[int], list[int]]:
    """:func:`decode_state_header` over every row of an ``m x n`` stack.

    Returns ``(phases, block size, fls, bits_done)``, one list entry per
    row: the decode twin of :func:`repro.core.mapping.state_headers`. The
    checks run on column extremes: every word an integer
    (``float.is_integer``: finite and equal to its floor), one block size,
    each column's minimum and maximum in range, and the largest fl's
    planes inside the stack. When a row fails, :func:`decode_state_header`
    re-reads the rows in order and raises the first one's error; rows that
    all pass alone but disagree on the block size raise too.
    """
    head = stack[:, :4]
    if head.shape[1] == 4 and np.isfinite(head).all():
        lo = head.min(axis=0).tolist()
        hi = head.max(axis=0).tolist()
        bs = lo[1]
        if (
            (np.floor(head) == head).all()
            and lo[0] >= 0
            and hi[0] < len(DECODE_PHASES)
            and bs == hi[1]
            and bs > 0
            and bs % 32 == 0
            and lo[2] >= 0
            and lo[3] >= 0
            and 4 + bs + bs // 8 + hi[2] * (bs // 32) <= stack.shape[1]
        ):
            phases, _, fls, bits = head.T.tolist()
            return (
                [DECODE_PHASES[int(p)] for p in phases],
                int(bs),
                [int(f) for f in fls],
                [int(b) for b in bits],
            )
    for row in stack:
        decode_state_header(row)  # raises the first bad row's error
    raise CompressionError("decode state rows disagree on the block size")


def run_decompress_substage(
    stage, state: DecompressState, eps: float
) -> DecompressState:
    """Execute one reverse sub-stage's semantics (mirror of run_substage)."""
    name = stage.name
    if name.startswith("unshuffle_bit_"):
        if state.phase not in ("encoded", "mags"):
            raise CompressionError(f"{name} applied to {state.phase}")
        k = int(name.rsplit("_", 1)[1])
        if k < state.fl:
            words = state.block_size // 32  # one plane spans block_size bits
            plane_bytes = np.frombuffer(
                state.planes[k * words : (k + 1) * words]
                .astype(np.uint32)
                .tobytes(),
                dtype=np.uint8,
            )
            bits = np.unpackbits(plane_bytes, bitorder="little").astype(
                np.int64
            )
            state.values += bits.astype(np.float64) * float(1 << k)
            state.bits_done += 1
        state.phase = "mags"
    elif name == "sign_restore":
        if state.phase not in ("encoded", "mags", "signed"):
            raise CompressionError(f"sign_restore applied to {state.phase}")
        if state.fl:
            negs = np.unpackbits(state.signs, bitorder="little").astype(bool)
            state.values = np.where(negs, -state.values, state.values)
        state.phase = "signed"
    elif name == "prefix_sum":
        if state.phase != "signed":
            raise CompressionError(f"prefix_sum applied to {state.phase}")
        state.values = np.cumsum(state.values.astype(np.int64)).astype(
            np.float64
        )
        state.phase = "codes"
    elif name == "dequant_mult":
        if state.phase != "codes":
            raise CompressionError(f"dequant_mult applied to {state.phase}")
        state.values = state.values * (2.0 * eps)
        state.phase = "values"
    else:
        raise CompressionError(f"unknown decompression sub-stage {name!r}")
    return state


def finalize_decompressed(state: DecompressState) -> np.ndarray:
    if state.phase != "values":
        raise CompressionError(
            f"block not fully decompressed (phase {state.phase!r})"
        )
    return state.values.astype(np.float32)
