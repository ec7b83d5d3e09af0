"""Pure-NumPy CRC32C (Castagnoli) over many regions of one buffer at once.

The container integrity layer checksums one record body split into many
variable-length groups, plus a small header blob. Every entry point here
runs on one lane kernel, :func:`crc32c_many`:

- **Lanes.** Each region is left-padded with zeros to whole 64-byte
  lanes. Leading zeros leave a zero-seeded CRC register unchanged, so the
  lanes of a region can be hashed independently and merged afterwards.
- **16-bit word tables.** All lanes of all regions advance together, one
  little-endian 32-bit word per vectorized step:
  ``r = A[(r ^ w) & 0xFFFF] ^ B[(r ^ w) >> 16]``, where ``A`` and ``B``
  (64Ki ``uint32`` entries each) split the 4-byte advance by register
  half. The Python loop runs 16 steps per call, whatever the sizes.
- **Log-depth fold.** Each lane's register is moved to the end of its
  region by the zero-advance operators for 2**k bytes (four 256-entry
  tables each; one pass per set bit of the distance), then
  ``np.bitwise_xor.reduceat`` merges the lanes of each region. Each
  region's ``init`` is advanced across the region with the same operators.

:func:`crc32c` is one region of that kernel, and :func:`crc32c_combine`
(the zlib ``crc32_combine`` construction) one application of its
operators. The tables are built once, on first use.

CRC32C (not zlib's CRC32) is the checksum used by iSCSI/ext4/leveldb and
the cuSZ-adjacent GPU codecs; reflected polynomial ``0x82F63B78``, init and
final XOR ``0xFFFFFFFF``. Test vector: ``crc32c(b"123456789") == 0xE3069283``.
"""

from __future__ import annotations

import functools

import numpy as np

_POLY = 0x82F63B78
#: Bytes per lane: sixteen 32-bit words, one vectorized step each.
_LANE = 64


def _apply(op: np.ndarray, regs: np.ndarray) -> np.ndarray:
    """One zero-advance operator (4x256 table) applied to 1-D registers.

    The operator is linear over GF(2), so it splits into one table per
    register byte whose lookups XOR together.
    """
    b = regs.astype("<u4", copy=False).view(np.uint8).reshape(-1, 4)
    out = op[0][b[:, 0]]
    for i in (1, 2, 3):
        out ^= op[i][b[:, i]]
    return out


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray]:
    """``(words, ops)``, built on first use and returned read-only.

    ``ops[k]`` advances a register across 2**k zero bytes; 63 of them cover
    any int64 length. ``words[0]`` and ``words[1]`` are the 4-byte advance
    ``ops[2]`` split by register half: one word step is two lookups.
    """
    v = np.arange(256, dtype=np.uint32)
    byte = v.copy()
    for _ in range(8):
        byte = (byte >> 1) ^ (np.uint32(_POLY) * (byte & 1))
    # One zero byte: the low register byte goes through the classic byte
    # table, the upper three shift down by 8 bits.
    op = np.stack([byte, v, v << 8, v << 16])
    ops = [op]
    for _ in range(62):
        op = _apply(op, op.reshape(-1)).reshape(4, 256)  # 2**k -> 2**(k+1)
        ops.append(op)
    ops = np.stack(ops)
    half = np.arange(1 << 16, dtype=np.uint32)
    lo, hi = half & 0xFF, half >> 8
    z4 = ops[2]
    words = np.stack([z4[0][lo] ^ z4[1][hi], z4[2][lo] ^ z4[3][hi]])
    ops.flags.writeable = False
    words.flags.writeable = False
    return words, ops


def _advance(regs: np.ndarray, nbytes: np.ndarray) -> np.ndarray:
    """Advance each register across its own count of zero bytes."""
    ops = _tables()[1]
    out = regs.astype(np.uint32)
    present = int(np.bitwise_or.reduce(nbytes, initial=0))
    for k in range(present.bit_length()):
        if present >> k & 1:
            hit = np.flatnonzero(nbytes & (1 << k))
            out[hit] = _apply(ops[k], out[hit])
    return out


def _as_bytes(buf) -> np.ndarray:
    arr = buf if isinstance(buf, np.ndarray) else np.asarray(memoryview(buf))
    return np.ascontiguousarray(arr).view(np.uint8).reshape(-1)


def crc32c_many(buf, starts, lengths, init=None) -> np.ndarray:
    """CRC32C of many ``(start, length)`` regions of one buffer at once.

    Regions may be empty, overlap, and sit anywhere in ``buf`` (any
    bytes-like object or array). ``init`` optionally seeds each region
    with a running CRC (for split coverage like "fl slice ++ record
    slice"). Returns one ``uint32`` per region.
    """
    data = _as_bytes(buf)
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    m = starts.size
    init = np.zeros(m, np.uint32) if init is None else np.asarray(
        init, dtype=np.uint32
    )
    if (lengths < 0).any() or (starts < 0).any():
        raise ValueError("negative region start or length")
    ends = starts + lengths
    end = int(ends.max(initial=0))
    if end > data.size:
        raise ValueError(
            f"region extends to byte {end} but buffer has {data.size}"
        )

    # Region r owns lanes first[r]:first[r + 1]; its last lane ends where
    # the region does, so only its first lane can hold padding.
    nlanes = -(-lengths // _LANE)
    first = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(nlanes, out=first[1:])
    lane = np.arange(first[-1])
    pos = np.repeat(ends - _LANE * first[1:], nlanes) + _LANE * lane
    # `edge` is the buffer's first lane behind a lane of zeros: it supplies
    # first lanes that start before byte 0, and stands in for a buffer
    # shorter than one lane.
    edge = np.zeros(2 * _LANE, dtype=np.uint8)
    edge[_LANE : _LANE + min(data.size, _LANE)] = data[:_LANE]
    window = np.lib.stride_tricks.sliding_window_view
    src = data if data.size >= _LANE else edge[_LANE:]
    # The one buffer-sized copy: every lane gathered as a window, after
    # which each first lane gets its zero padding.
    lanes = window(src, _LANE)[np.maximum(pos, 0)]
    live = nlanes > 0
    heads = first[:-1][live]
    rows = lanes[heads]
    head_pos = pos[heads]
    early = np.flatnonzero(head_pos < 0)
    rows[early] = window(edge, _LANE)[head_pos[early] + _LANE]
    pad = _LANE * nlanes[live] - lengths[live]
    rows[np.arange(_LANE) < pad[:, None]] = 0
    lanes[heads] = rows

    # Zero-seeded registers, one little-endian word of every lane a step.
    word_lo, word_hi = _tables()[0]
    words = lanes.view("<u4")
    x = np.empty(lane.size, dtype="<u4")
    halves = x.view("<u2").reshape(-1, 2)
    regs = np.zeros(lane.size, dtype=np.uint32)
    tmp = np.empty_like(regs)
    for j in range(_LANE // 4):
        np.bitwise_xor(regs, words[:, j], out=x)
        word_lo.take(halves[:, 0], out=regs)
        word_hi.take(halves[:, 1], out=tmp)
        regs ^= tmp

    # Fold: shift every lane to its region's end and XOR per region, then
    # seed with init: crc = ~(advance(~init, length) ^ raw).
    regs = _advance(regs, _LANE * (np.repeat(first[1:] - 1, nlanes) - lane))
    raw = np.zeros(m, dtype=np.uint32)
    raw[live] = np.bitwise_xor.reduceat(regs, heads)
    return ~(_advance(~init, lengths) ^ raw)


def crc32c(data, crc: int = 0) -> int:
    """CRC32C of ``data``, optionally continuing from a previous value."""
    buf = _as_bytes(data)
    return int(crc32c_many(buf, [0], [buf.size], init=[crc & 0xFFFFFFFF])[0])


def crc32c_combine(crc1: int, crc2: int, len2: int) -> int:
    """CRC of ``A ++ B`` given ``crc32c(A)``, ``crc32c(B)``, and ``len(B)``."""
    if len2 < 0:
        raise ValueError("negative length")
    shifted = _advance(
        np.array([crc1 & 0xFFFFFFFF], dtype=np.uint32),
        np.array([len2], dtype=np.int64),
    )
    return int(shifted[0]) ^ (crc2 & 0xFFFFFFFF)
