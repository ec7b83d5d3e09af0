"""Fixed-length encoding (compression step 3) and its decoder.

Per block the encoder runs the four sub-stages of the paper's Table 3:

``Sign``
    split residuals into sign bits and magnitudes;
``Max``
    find the maximum magnitude;
``GetLength``
    its effective bit count *f* — the block's "fixed length";
``Bit-shuffle``
    transpose the low *f* bits of all magnitudes into *f* groups of
    ``L/8`` bytes: byte group *k* holds bit *k* of every element
    (paper Figure 8).

The on-stream record for a block is::

    [ header: fixed length f ][ L/8 sign bytes ][ f * L/8 payload bytes ]

where the header is 4 bytes for CereSZ (the wafer's 32-bit message
granularity, Section 5.1.1) or 1 byte for the SZp/cuSZp baselines. A zero
block (f = 0) stores the header only — no signs, no payload — capping the
best-case ratio at 32x for CereSZ and 128x for SZp (visible as the 31.99 /
127.94 ceilings in the paper's Table 5).

Everything is vectorized by grouping blocks, so the encoder performs
O(distinct fixed lengths) numpy passes rather than one per block. The
reference :func:`encode_blocks` shuffles with shift-and-mask per group of
equal fixed length. The fast :func:`pack_records` and the decoder
:func:`decode_blocks` treat each byte lane of eight consecutive elements as
an 8x8 bit matrix in one uint64 word and transpose it with three delta
swaps (:func:`_transpose_8x8`). They group blocks by how many byte lanes
their fixed length uses (at most eight groups). Decoding of a bare v1
stream must walk the headers sequentially (record sizes are data
dependent); :func:`scan_record_offsets` steps on one header byte per block
through a record-size table and validates every header afterwards in one
vectorized pass. Indexed (container v2) streams ship the fixed lengths up
front, so :func:`index_record_offsets` replaces the walk with one
``cumsum``.

The fast paths move whole records at once, one fixed length at a time,
through a strided view of every ``width``-byte window of the stream
(:func:`_windows`). Rows of that view start at any byte, so indexing it
with record offsets needs no ``(records, width)`` int64 index matrix,
which would cost 8x the payload it moves.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from repro.config import CERESZ_HEADER_BYTES, SZP_HEADER_BYTES
from repro.errors import CompressionError, FormatError

#: Residual magnitudes must fit below 2**63 for the sign/magnitude split;
#: the quantizer's MAX_QUANT_BITS guard keeps us far away from this anyway.
_MAX_FL = 63

#: Power-of-two table driving the exact bit-length computation: for a
#: uint64 magnitude m >= 1, the number of table entries <= m is exactly
#: ``m.bit_length()`` (and 0 for m == 0, since no power is <= 0).
_POW2 = np.uint64(1) << np.arange(64, dtype=np.uint64)

#: The three delta swaps of an 8x8 bit-matrix transpose held in one 64-bit
#: word (Hacker's Delight, section 7-3): ``(shift, mask)`` pairs that swap
#: the 1x1, then 2x2, then 4x4 sub-blocks on either side of the diagonal.
_TRANSPOSE_8X8_STEPS = tuple(
    (np.uint64(shift), np.uint64(mask))
    for shift, mask in (
        (7, 0x00AA00AA00AA00AA),
        (14, 0x0000CCCC0000CCCC),
        (28, 0x00000000F0F0F0F0),
    )
)

_LE_U64 = np.dtype("<u8")


def exact_bit_lengths(mags: np.ndarray) -> np.ndarray:
    """Exact integer bit length of each uint64 magnitude, vectorized.

    ``floor(log2(float64(m))) + 1`` is wrong at the float64 rounding edge:
    ``log2(2**k - 1)`` rounds up to exactly ``k`` once ``k >= 49`` (and all
    integers at or above ``2**53`` lose bits in the cast), misreporting the
    fixed length by one. A binary search against the power-of-two table is
    exact over the full uint64 range and still one vectorized call.
    """
    mags = np.asarray(mags, dtype=np.uint64)
    return np.searchsorted(_POW2, mags, side="right").astype(np.int64)


def block_fixed_lengths(residuals: np.ndarray) -> np.ndarray:
    """The per-block fixed length: effective bits of the max |residual|.

    Returns an int64 array of shape ``(num_blocks,)``; zero blocks get 0.
    Exact for every int64 residual: magnitudes are compared as uint64 (so
    even ``|int64 min| = 2**63`` reports 64 bits and is rejected downstream
    rather than silently encoding as a zero block).
    """
    arr = _as_blocks(residuals)
    # abs(int64 min) wraps to itself; the uint64 view reads that bit
    # pattern as the true magnitude 2**63, and every other magnitude
    # unchanged — no value range is silently misreported.
    mags = np.abs(arr).view(np.uint64)
    maxima = (
        mags.max(axis=1) if arr.size else np.zeros(arr.shape[0], dtype=np.uint64)
    )
    return exact_bit_lengths(maxima)


def record_sizes(
    fl: np.ndarray, block_size: int, header_bytes: int
) -> np.ndarray:
    """Stream bytes of each block record given its fixed length."""
    fl = np.asarray(fl, dtype=np.int64)
    sign_bytes = block_size // 8
    sizes = np.full(fl.shape, header_bytes, dtype=np.int64)
    nz = fl > 0
    sizes[nz] += sign_bytes + fl[nz] * (block_size // 8)
    return sizes


def pack_block_index(fl: np.ndarray) -> bytes:
    """Pack per-block fixed lengths into the container-v2 index table.

    One byte per block: fl <= 63 always fits (``_MAX_FL`` is enforced at
    encode time), and at block size 32 the table costs 1/128 of the raw
    data — cheaper than the 4-byte record headers it duplicates.
    """
    fl = np.asarray(fl, dtype=np.int64)
    if fl.size and (int(fl.min()) < 0 or int(fl.max()) > _MAX_FL):
        raise FormatError("fixed length outside [0, 63]; cannot build index")
    return fl.astype(np.uint8).tobytes()


def unpack_block_index(
    stream: bytes | np.ndarray, num_blocks: int, start: int = 0
) -> tuple[np.ndarray, int]:
    """Read the v2 fl table; returns (fixed lengths, offset past the table)."""
    buf = _as_u8(stream)
    if num_blocks < 0:
        raise FormatError(f"negative block count {num_blocks}")
    if start + num_blocks > buf.size:
        raise FormatError(
            f"stream truncated in block index (need {num_blocks} bytes at "
            f"offset {start}, stream {buf.size} bytes)"
        )
    fls = buf[start : start + num_blocks].astype(np.int64)
    if fls.size and int(fls.max()) > _MAX_FL:
        raise FormatError("invalid fixed length in block index")
    return fls, start + num_blocks


def index_record_offsets(
    fls: np.ndarray,
    block_size: int,
    header_bytes: int = CERESZ_HEADER_BYTES,
    start: int = 0,
    stream_size: int | None = None,
) -> np.ndarray:
    """Vectorized counterpart of :func:`scan_record_offsets`.

    Given the fixed lengths from a container-v2 index table, every record
    offset is one ``cumsum`` away — no per-block Python loop. When
    ``stream_size`` is supplied the computed extent is bounds-checked, so
    downstream decoding can trust the offsets without re-validating.
    """
    _check_header_bytes(header_bytes)
    fls = np.asarray(fls, dtype=np.int64)
    if fls.size and (int(fls.min()) < 0 or int(fls.max()) > _MAX_FL):
        raise FormatError("invalid fixed length in block index")
    sizes = record_sizes(fls, block_size, header_bytes)
    ends = start + np.cumsum(sizes)
    if stream_size is not None and fls.size and int(ends[-1]) > stream_size:
        raise FormatError(
            f"stream truncated: indexed records need {int(ends[-1])} bytes, "
            f"have {stream_size}"
        )
    return ends - sizes


def pack_records(
    mags: np.ndarray,
    negs: np.ndarray,
    fl: np.ndarray,
    header_bytes: int = CERESZ_HEADER_BYTES,
) -> np.ndarray:
    """Pack prepared sign/magnitude blocks into fixed-length record bytes.

    The optimized packing core of the fused fast path
    (``core.fastpath``). It emits records byte-identical to
    :func:`encode_blocks`, but the two deliberately do *not* share the
    bit-shuffle implementation: ``encode_blocks`` stays the readable
    shift-and-mask reference that serves as the independent oracle, while
    this core runs the shuffle as an 8x8 bit-matrix transpose over uint64
    words (:func:`_transpose_8x8`). Each word holds one byte lane of eight
    consecutive elements, and only the ``ceil(f/8)`` lanes a block's
    fixed length ``f`` uses are transposed. The equivalence is enforced by
    the property suites in ``tests/core/test_encoding.py`` and
    ``tests/core/test_fastpath.py``.

    ``mags`` is the ``(num_blocks, L)`` uint64 magnitude array, ``negs``
    the matching sign mask (bool or uint8), ``fl`` the per-block fixed
    lengths. Returns the packed uint8 record array (records laid out back
    to back). Zero blocks are written as their header only.
    """
    mags = np.ascontiguousarray(mags, dtype=np.uint64)
    negs = np.asarray(negs)
    fl = np.asarray(fl, dtype=np.int64)
    _check_header_bytes(header_bytes)
    if mags.ndim != 2:
        raise CompressionError(
            f"expected (num_blocks, block_size) magnitudes, got shape "
            f"{mags.shape}"
        )
    num_blocks, block_size = mags.shape
    if block_size % 8:
        raise CompressionError("block size must be a multiple of 8")
    if negs.shape != mags.shape:
        raise CompressionError(
            f"sign mask shape {negs.shape} does not match magnitude shape "
            f"{mags.shape}"
        )
    if fl.shape != (num_blocks,):
        raise CompressionError(
            f"fixed-length vector shape {fl.shape} does not match "
            f"{num_blocks} blocks"
        )
    if header_bytes == SZP_HEADER_BYTES and int(fl.max(initial=0)) > 0xFF:
        raise FormatError("fixed length does not fit the 1-byte SZp header")
    if int(fl.max(initial=0)) > _MAX_FL:
        raise FormatError(f"fixed length exceeds {_MAX_FL} bits")
    if int(fl.min(initial=0)) < 0:
        raise FormatError("negative fixed length")

    sizes = record_sizes(fl, block_size, header_bytes)
    offsets = np.zeros(num_blocks + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    out = np.zeros(int(offsets[-1]), dtype=np.uint8)
    nz = np.flatnonzero(fl)
    if not nz.size:
        return out
    fnz = fl[nz]
    sign_bytes = block_size // 8

    # Little-endian headers: fl <= 63, so only the first byte is nonzero,
    # and a zero block's header is all zero bytes already.
    out[offsets[nz]] = fnz.astype(np.uint8)
    # Sign bytes (element j -> bit j%8 of sign byte j//8) for every
    # nonzero record in one flat pack.
    starts = offsets[nz] + header_bytes
    _windows(out, sign_bytes)[starts] = np.packbits(
        negs[nz], bitorder="little"
    ).reshape(nz.size, sign_bytes)
    starts += sign_bytes

    # Byte lane b of element e holds its bits 8b..8b+7.
    lanes = mags.astype(_LE_U64, copy=False).view(np.uint8).reshape(
        num_blocks, block_size, 8
    )
    nlanes = (fnz + 7) >> 3
    for c in np.flatnonzero(np.bincount(nlanes)):
        c = int(c)
        rows = np.flatnonzero(nlanes == c)
        # (records, c, L), lane-major: each run of eight bytes is one
        # byte lane of one 8-element group, i.e. one uint64 word.
        words = np.ascontiguousarray(
            lanes[nz[rows]][:, :, :c].transpose(0, 2, 1)
        )
        _transpose_8x8(words.view(_LE_U64))
        # Byte k of word (b, j) is byte j of bit plane 8b + k (Fig 8);
        # gather the planes each record stores, one fixed length at a
        # time, and write the records whole.
        words = words.reshape(rows.size, c * block_size)
        order = _plane_order(c, block_size)
        group_fl = fnz[rows]
        for f in np.flatnonzero(np.bincount(group_fl)):
            f = int(f)
            q = np.flatnonzero(group_fl == f)
            payload = words[q][:, order[: f * sign_bytes]]
            _windows(out, f * sign_bytes)[starts[rows[q]]] = payload

    return out


def encode_blocks(
    residuals: np.ndarray, header_bytes: int = CERESZ_HEADER_BYTES
) -> bytes:
    """Fixed-length-encode a ``(num_blocks, L)`` residual array.

    ``header_bytes`` selects the CereSZ (4) or SZp (1) header width.
    This is the reference encoder — a direct shift-and-mask transcription
    of the paper's bit-shuffle, kept independent of the fast path's
    :func:`pack_records` so each can serve as the other's oracle.
    """
    arr = _as_blocks(residuals)
    _check_header_bytes(header_bytes)
    num_blocks, block_size = arr.shape
    if block_size % 8:
        raise CompressionError("block size must be a multiple of 8")
    fl = block_fixed_lengths(arr)
    if header_bytes == SZP_HEADER_BYTES and int(fl.max(initial=0)) > 0xFF:
        raise FormatError("fixed length does not fit the 1-byte SZp header")
    if int(fl.max(initial=0)) > _MAX_FL:
        raise FormatError(f"fixed length exceeds {_MAX_FL} bits")

    sizes = record_sizes(fl, block_size, header_bytes)
    offsets = np.zeros(num_blocks + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    out = np.zeros(int(offsets[-1]), dtype=np.uint8)

    # Headers (vectorized little-endian write).
    for byte in range(header_bytes):
        out[offsets[:-1] + byte] = (fl >> (8 * byte)).astype(np.uint8)

    mags = np.abs(arr).view(np.uint64)
    negs = (arr < 0).astype(np.uint8)
    sign_bytes = block_size // 8

    for f in np.unique(fl):
        f = int(f)
        if f == 0:
            continue
        idx = np.nonzero(fl == f)[0]
        # Sign bytes: element j -> bit j%8 of sign byte j//8.
        packed_signs = np.packbits(
            negs[idx].reshape(len(idx), sign_bytes, 8), axis=-1, bitorder="little"
        ).reshape(len(idx), sign_bytes)
        # Bit-shuffle: byte group k carries bit k of all elements (Fig 8).
        shifts = np.arange(f, dtype=np.uint64)[None, :, None]
        bits = ((mags[idx][:, None, :] >> shifts) & 1).astype(np.uint8)
        payload = np.packbits(
            bits.reshape(len(idx), f, sign_bytes, 8), axis=-1, bitorder="little"
        ).reshape(len(idx), f * sign_bytes)

        body = np.concatenate([packed_signs, payload], axis=1)
        # Column-wise scatter: the loop is bounded by the record length
        # (<= 256 iterations at block size 32), not the block count.
        starts = offsets[idx] + header_bytes
        for col in range(body.shape[1]):
            out[starts + col] = body[:, col]

    return out.tobytes()


def scan_record_offsets(
    stream: bytes | np.ndarray,
    num_blocks: int,
    block_size: int,
    header_bytes: int = CERESZ_HEADER_BYTES,
    start: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Walk the headers and return (offsets, fixed lengths) per block.

    This is the sequential part of decoding: record sizes depend on the
    headers, so offsets are discovered one block at a time — but it is the
    *only* sequential part, and it reads headers, not payloads.

    Per block the walk does one ``bytes`` index, one lookup in a 256-entry
    record-size table and one byte store. It steps on each header's low
    byte: a valid fixed length (<= 63) always fits there, and the table's
    other 192 entries jump past the end of the stream, so the next read
    ends the walk. Offsets then come from one ``cumsum`` of the table, and
    every visited header is validated in one vectorized pass; the first
    failure in block order is raised. A ``bytes`` stream is walked in
    place; anything else is copied into one first.
    """
    _check_header_bytes(header_bytes)
    buf = stream if isinstance(stream, bytes) else _as_u8(stream).tobytes()
    n = len(buf)
    if num_blocks < 0:
        raise FormatError(f"negative block count {num_blocks}")
    # Every block record is at least one header wide; a block count that
    # cannot fit the stream indicates corruption and must be rejected
    # before any O(num_blocks) allocation happens.
    if num_blocks * header_bytes > max(0, n - start):
        raise FormatError(
            f"stream of {n} bytes cannot hold {num_blocks} block records"
        )
    size_of = np.full(256, n + 1, dtype=np.int64)
    size_of[: _MAX_FL + 1] = record_sizes(
        np.arange(_MAX_FL + 1), block_size, header_bytes
    )
    step = size_of.tolist()
    lows = bytearray()
    put = lows.append
    pos = start
    try:
        for _ in repeat(None, num_blocks):
            b = buf[pos]
            put(b)
            pos += step[b]
    except IndexError:
        pass  # read past the end; the checks below say why

    fls = np.frombuffer(lows, dtype=np.uint8)
    offsets = np.cumsum(size_of[fls])
    offsets -= size_of[fls]
    offsets += start
    # Offsets rise by at least a header per block, so only the last
    # visited header can overhang the end of the stream.
    fit = fls.size
    if fit and offsets[-1] + header_bytes > n:
        fit -= 1
    bad = fls[:fit] > _MAX_FL
    u8 = np.frombuffer(buf, dtype=np.uint8)
    for byte in range(1, header_bytes):
        bad |= u8[offsets[:fit] + byte] != 0
    if bad.any():
        i = int(bad.argmax())
        at = int(offsets[i])
        f = int.from_bytes(buf[at : at + header_bytes], "little")
        raise FormatError(f"block {i}: invalid fixed length {f}")
    if fit < num_blocks:
        at = int(offsets[fit]) if fit < fls.size else pos
        raise FormatError(
            f"stream truncated in header of block {fit} "
            f"(offset {at}, stream {n} bytes)"
        )
    if pos > n:
        raise FormatError(
            f"stream truncated in payload of final block (need {pos}, have {n})"
        )
    return offsets, fls.astype(np.int64)


def decode_blocks(
    stream: bytes | np.ndarray,
    num_blocks: int,
    block_size: int,
    header_bytes: int = CERESZ_HEADER_BYTES,
    start: int = 0,
    *,
    offsets: np.ndarray | None = None,
    fls: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Decode a fixed-length-encoded stream back to int64 residuals.

    Without ``offsets``/``fls`` the record layout is discovered by the
    sequential header walk of :func:`scan_record_offsets`. Callers holding
    a container-v2 index pass both (from :func:`unpack_block_index` and
    :func:`index_record_offsets`) and skip the walk entirely.

    Payloads are unshuffled by the inverse of :func:`pack_records`: the
    stored bit planes are put back into uint64 words, one byte lane of
    eight consecutive elements each, and :func:`_transpose_8x8` (its own
    inverse) turns them back into magnitude bytes. Only the ``ceil(f/8)``
    lanes a record stores are transposed; signs are applied branch-free.

    ``out`` accepts a preallocated ``(num_blocks, block_size)`` int64
    buffer (the fused decoder reuses one scratch chunk across the whole
    stream); rows of zero blocks are cleared, so stale contents are safe.
    """
    buf = np.ascontiguousarray(_as_u8(stream))
    if offsets is None or fls is None:
        offsets, fls = scan_record_offsets(
            stream, num_blocks, block_size, header_bytes, start
        )
    else:
        offsets = np.asarray(offsets, dtype=np.int64)
        fls = np.asarray(fls, dtype=np.int64)
        if offsets.shape != (num_blocks,) or fls.shape != (num_blocks,):
            raise FormatError(
                f"block index shape mismatch: {num_blocks} blocks, "
                f"{offsets.shape[0]} offsets, {fls.shape[0]} fixed lengths"
            )
        if fls.size and (int(fls.min()) < 0 or int(fls.max()) > _MAX_FL):
            raise FormatError("invalid fixed length in block index")
        ends = offsets + record_sizes(fls, block_size, header_bytes)
        if num_blocks and (
            int(offsets.min()) < 0 or int(ends.max()) > buf.size
        ):
            raise FormatError("block index points outside the stream")
    if out is None:
        out = np.zeros((num_blocks, block_size), dtype=np.int64)
    else:
        if out.shape != (num_blocks, block_size) or out.dtype != np.int64:
            raise FormatError(
                f"decode buffer must be int64 {(num_blocks, block_size)}, "
                f"got {out.dtype} {out.shape}"
            )
        zero_rows = fls == 0
        if zero_rows.any():
            out[zero_rows] = 0
    nz = np.flatnonzero(fls)
    if not nz.size:
        return out
    fnz = fls[nz]
    sign_bytes = block_size // 8

    # Sign bits of every nonzero record in one flat unpack.
    starts = offsets[nz] + header_bytes
    negs = np.unpackbits(
        _windows(buf, sign_bytes)[starts], bitorder="little"
    ).reshape(nz.size, block_size)
    starts += sign_bytes

    nlanes = (fnz + 7) >> 3
    for c in np.flatnonzero(np.bincount(nlanes)):
        c = int(c)
        rows = np.flatnonzero(nlanes == c)
        g = rows.size
        # Bit planes the records do not store stay zero, so the
        # magnitudes' unused high bits come out zero.
        planes = np.zeros((g, 8 * c * sign_bytes), dtype=np.uint8)
        group_fl = fnz[rows]
        for f in np.flatnonzero(np.bincount(group_fl)):
            f = int(f)
            q = np.flatnonzero(group_fl == f)
            planes[q, : f * sign_bytes] = _windows(buf, f * sign_bytes)[
                starts[rows[q]]
            ]
        # The inverse of the encoder's shuffle: planes back into words,
        # then the same (self-inverse) transpose.
        words = np.take(planes, np.argsort(_plane_order(c, block_size)), axis=1)
        _transpose_8x8(words.view(_LE_U64))
        words = words.reshape(g, c, block_size)
        # One strided copy per lane keeps numpy's inner loop on the long
        # element axis (a single transposed copy iterates over c).
        lanes = np.zeros((g, block_size, 8), dtype=np.uint8)
        for b in range(c):
            lanes[:, :, b] = words[:, b]
        # fl <= 63 keeps every magnitude below 2**63, so the lanes read as
        # a nonnegative int64; (m ^ s) - s negates where s is all ones.
        # s stays int8: numpy widens it chunk by chunk inside the ufunc.
        mags = lanes.view("<i8").reshape(g, block_size)
        s = -negs[rows].view(np.int8)
        mags ^= s
        mags -= s
        out[nz[rows]] = mags

    return out


def _transpose_8x8(words: np.ndarray) -> np.ndarray:
    """Transpose the 8x8 bit matrix held in each uint64 word, in place.

    Bit ``8*i + k`` of a word (bit k of its little-endian byte i) trades
    places with bit ``8*k + i``. When byte i is one byte lane of element i
    of an 8-element group, byte k of the result holds bit k of all eight
    elements: one byte of one bit plane of the Fig 8 shuffle. The
    transpose is its own inverse, so the decoder runs it unchanged.
    """
    t = np.empty_like(words)
    for shift, mask in _TRANSPOSE_8X8_STEPS:
        np.right_shift(words, shift, out=t)
        t ^= words
        t &= mask
        words ^= t
        t <<= shift
        words ^= t
    return words


def _plane_order(lanes: int, block_size: int) -> np.ndarray:
    """Where each payload byte sits among a record's transposed words.

    Transposed words run ``[lane b][group j][byte k]``; the payload stores
    bit plane ``8*b + k`` whole, group after group. Entry ``p`` is the word
    byte that becomes payload byte ``p``.
    """
    groups = block_size // 8
    return (
        np.arange(lanes * block_size)
        .reshape(lanes, groups, 8)
        .transpose(0, 2, 1)
        .ravel()
    )


def _windows(buf: np.ndarray, width: int) -> np.ndarray:
    """Every ``width``-byte window of ``buf`` as the rows of one view.

    Indexing the rows with record start offsets gathers, or on a writable
    ``buf`` scatters, whole records in one call: no per-column loop and no
    ``(records, width)`` int64 index matrix. This is the view
    ``sliding_window_view`` builds, without its ~20 us of per-call checks,
    which add up over one call per fixed length per chunk.
    """
    return np.ndarray(
        (buf.size - width + 1, width), np.uint8, buf, 0, (1, 1)
    )


def _as_u8(stream: bytes | np.ndarray) -> np.ndarray:
    if isinstance(stream, (bytes, bytearray, memoryview)):
        return np.frombuffer(stream, dtype=np.uint8)
    return np.asarray(stream, dtype=np.uint8)


def _as_blocks(residuals: np.ndarray) -> np.ndarray:
    arr = np.asarray(residuals)
    if arr.ndim != 2:
        raise CompressionError(
            f"expected a (num_blocks, block_size) array, got shape {arr.shape}"
        )
    if not np.issubdtype(arr.dtype, np.integer):
        raise CompressionError(f"residuals must be integers, got {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def _check_header_bytes(header_bytes: int) -> None:
    if header_bytes not in (CERESZ_HEADER_BYTES, SZP_HEADER_BYTES):
        raise FormatError(
            f"header width must be {CERESZ_HEADER_BYTES} (CereSZ) or "
            f"{SZP_HEADER_BYTES} (SZp), got {header_bytes}"
        )
