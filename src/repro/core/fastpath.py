"""Fused single-pass host kernels for the CereSZ block pipeline.

The reference path (:mod:`repro.core.compressor`) runs the paper's three
stages as separate whole-field passes: cast to float64, finiteness check,
peak scan, scale, round, overflow check, verify round-trip, partition,
Lorenzo predict, sign split, bit-length scan, bit-shuffle — each one a
full-size temporary streamed through DRAM. On a 64 MB field that is well
over 1.5 GB of memory traffic for ~60 MB of useful input.

This module fuses the same chain into one pass over the input. The field
is processed in block-aligned chunks sized to stay cache-resident
(:data:`CHUNK_ELEMS`); every intermediate lives in a handful of
preallocated scratch buffers that are reused for all chunks, so after the
single global min/max scan the input is read exactly once and nothing
full-size is ever materialized. There are no per-block Python loops — the
only Python-level loop is over chunks, and each iteration is a fixed
number of vectorized NumPy calls. The bit-shuffle itself
(:func:`repro.core.encoding.pack_records`) is an 8x8 bit-matrix transpose
over uint64 words, three delta swaps per word, instead of shift-and-mask
over uint64 magnitudes: each word holds one byte lane of eight consecutive
elements, and only the byte lanes a block's fixed length uses are
transposed.

**Oracle contract.** The fused kernels are *not* a relaxation of the
format. Per element they execute the identical float64 operation chain
the reference runs (true division by ``2*eps_eff``, ``floor(x+0.5)``,
the same overflow guard) and derive the identical ``eps_eff`` through
:func:`repro.core.quantize.effective_bound_from_peak`, so the codes —
and therefore the records — match the reference bit for bit. Block
records are independent, so per-chunk outputs concatenate into exactly
the bytes a whole-field encode would produce. The reference path stays
in the tree as the independent bit-exactness oracle: the property suite
in ``tests/core/test_fastpath.py`` asserts fused and reference streams
are byte-identical (plain, indexed, checksummed, and sharded containers)
and fused decodes bit-equal to reference decodes.

One reference safeguard is intentionally *not* repeated here: the
dequantize-and-compare assertion of ``prequantize_verified``. The bound
holds by construction (quantization error ≤ ``eps_eff`` plus cast error
≤ the ulp margin ``eps - eps_eff``), the assertion cannot fail unless the
model itself is wrong, and the reference path — which the property suite
holds this path byte-equal to — still runs it on every call.

The fused decoder mirrors the strategy: chunk over blocks, decode only
records with a nonzero fixed length, prefix-sum and dequantize in
scratch, and scatter into the output field. Zero blocks cost nothing and
the reference's full ``(num_blocks, L)`` int64 residual array is never
allocated. Record payloads are read by the same
:func:`repro.core.encoding.decode_blocks` the reference uses, chunk by
chunk into one reused scratch buffer (``out=``); it inverts the shuffle
with the same self-inverse transpose.
"""

from __future__ import annotations

import numpy as np

from repro.config import CERESZ_HEADER_BYTES
from repro.errors import CompressionError, FormatError
from repro.core.encoding import (
    decode_blocks,
    exact_bit_lengths,
    pack_records,
    record_sizes,
)
from repro.core.quantize import (
    MAX_QUANT_BITS,
    effective_bound_from_peak,
    validate_error_bound,
)

#: Elements per fused chunk. The working set per element is ~26 bytes of
#: scratch (two float64, two int64, one sign byte), so 256 Ki elements
#: keep the whole chunk state under 8 MB — resident in a modern L3 —
#: while amortizing the fixed cost of the ~25 NumPy calls per chunk down
#: to noise.
CHUNK_ELEMS = 1 << 18

_MAX_FL = 63


def _resolve_block_local(predictor):
    """Default and validate the fused kernels' predictor argument."""
    from repro.core.predictors import LORENZO_1D, get_predictor

    pred = LORENZO_1D if predictor is None else get_predictor(predictor)
    if not pred.block_local:
        raise CompressionError(
            f"predictor {pred.name!r} declares locality {pred.locality!r}; "
            "the fused kernels require a block-local predictor — predict "
            "first, then use fused_encode_blocks on the residuals"
        )
    return pred


def fused_encode_blocks(
    residuals: np.ndarray,
    *,
    header_bytes: int = CERESZ_HEADER_BYTES,
    chunk_elems: int = CHUNK_ELEMS,
) -> tuple[np.ndarray, bytes]:
    """Chunked sign split + bit-length scan + bit-shuffle over residuals.

    The encode half of :func:`fused_compress_blocks`, for pipelines whose
    prediction already happened elsewhere — whole-array predictors run
    their global transform on the full code array, then feed the
    partitioned residual blocks here so they stop paying the reference
    encoder's whole-field temporaries. Returns ``(fixed_lengths, body)``,
    byte-identical to :func:`repro.core.encoding.encode_blocks`.
    """
    arr = np.asarray(residuals)
    if arr.ndim != 2:
        raise CompressionError(
            f"fused_encode_blocks expects a (blocks, block_size) array, "
            f"got shape {arr.shape}"
        )
    num_blocks, L = arr.shape
    bpc = max(int(chunk_elems) // max(L, 1), 1)
    mags_buf = np.empty((bpc, L), dtype=np.int64)
    negs = np.empty((bpc, L), dtype=bool)
    fl_all = np.empty(num_blocks, dtype=np.int64)
    parts: list[bytes] = []
    for b0 in range(0, num_blocks, bpc):
        b1 = min(b0 + bpc, num_blocks)
        cb = b1 - b0
        r2 = mags_buf[:cb]
        np.copyto(r2, arr[b0:b1])
        ng = negs[:cb]
        np.less(r2, 0, out=ng)
        np.abs(r2, out=r2)
        mags = r2.view(np.uint64)
        fl = exact_bit_lengths(mags.max(axis=1))
        fl_all[b0:b1] = fl
        parts.append(pack_records(mags, ng, fl, header_bytes).tobytes())
    return fl_all, b"".join(parts)


def fused_compress_blocks(
    data: np.ndarray,
    eps: float,
    *,
    block_size: int,
    header_bytes: int = CERESZ_HEADER_BYTES,
    out_dtype=np.float32,
    chunk_elems: int = CHUNK_ELEMS,
    predictor=None,
) -> tuple[np.ndarray, bytes, float, int]:
    """Quantize + predict + encode ``data`` in one fused pass.

    ``predictor`` is any *block-local* predictor from
    :mod:`repro.core.predictors` (default: the paper's ``lorenzo1d``);
    its per-block transform runs on the cache-resident chunk exactly
    where the inlined Lorenzo difference used to. Whole-array predictors
    cannot fuse with quantization (their transform needs the full code
    array) and are rejected — the codec routes them through
    :func:`fused_encode_blocks` instead.

    Returns ``(fixed_lengths, body, eps_eff, num_elements)`` — exactly the
    quantities the reference pipeline produces, byte- and value-identical,
    ready for :func:`repro.core.compressor.assemble_stream`.
    """
    predictor = _resolve_block_local(predictor)
    eps = validate_error_bound(eps)
    flat = np.asarray(data).reshape(-1)
    n = int(flat.size)
    if n == 0:
        raise CompressionError("cannot compress an empty array")

    # Peak magnitude via min/max reductions: no |data| temporary, and any
    # non-finite element propagates into ``peak``, which then surfaces as
    # the same ErrorBoundError the reference raises (a non-finite peak
    # makes the derived effective bound non-finite).
    fmin = float(flat.min())
    fmax = float(flat.max())
    peak = max(abs(fmin), abs(fmax))
    if np.isnan(fmin) or np.isnan(fmax):
        peak = float("nan")
    eps_eff = validate_error_bound(
        effective_bound_from_peak(peak, eps, out_dtype)
    )

    two_eps = 2.0 * eps_eff
    limit = float(2**MAX_QUANT_BITS)
    # The quantizer is monotone in the data, so the extreme codes come
    # from the extreme values: the reference's whole-field max|code|
    # overflow guard reduces to the same float64 arithmetic on two
    # scalars (Python floats are IEEE doubles, so the bits agree).
    code_hi = float(np.floor(fmax / two_eps + 0.5))
    code_lo = float(np.floor(fmin / two_eps + 0.5))
    if max(code_hi, -code_lo) >= limit:
        raise CompressionError(
            f"quantization overflow: |code| >= 2**{MAX_QUANT_BITS}; "
            f"the error bound {eps_eff:g} is too small for data of "
            f"this magnitude"
        )
    L = int(block_size)
    num_blocks = -(-n // L)
    bpc = max(int(chunk_elems) // L, 1)  # blocks per chunk
    ce_max = bpc * L

    # Scratch, allocated once and reused by every chunk.
    work = np.empty(ce_max, dtype=np.float64)
    codes = np.empty(ce_max, dtype=np.int64)
    res = np.empty(ce_max, dtype=np.int64)
    negs = np.empty((bpc, L), dtype=bool)

    fl_all = np.empty(num_blocks, dtype=np.int64)
    parts: list[bytes] = []

    for b0 in range(0, num_blocks, bpc):
        b1 = min(b0 + bpc, num_blocks)
        cb = b1 - b0
        ce = cb * L
        lo = b0 * L
        hi = min(b1 * L, n)
        m = hi - lo

        # Pre-quantization: floor(x / 2eps + 0.5) in float64, exactly as
        # the reference does (true division, not reciprocal multiply).
        # ``dtype=`` pins the float64 loop, widening float32 input on the
        # fly — the one read of DRAM-resident data this kernel performs.
        w = work[:ce]
        if m < ce:
            np.copyto(w[:m], flat[lo:hi])
            w[m:] = 0.0  # the reference's zero tail padding
            np.divide(w, two_eps, out=w)
        else:
            np.divide(flat[lo:hi], two_eps, out=w, dtype=np.float64)
        np.add(w, 0.5, out=w)
        np.floor(w, out=w)
        c = codes[:ce]
        np.copyto(c, w, casting="unsafe")

        # Block-local prediction (1D Lorenzo by default): each row of the
        # chunk transforms independently into the residual scratch.
        c2 = c.reshape(cb, L)
        r2 = res[:ce].reshape(cb, L)
        predictor.predict_blocks(c2, out=r2)

        # Sign split + exact per-block bit lengths, then the packing core.
        ng = negs[:cb]
        np.less(r2, 0, out=ng)
        np.abs(r2, out=r2)
        mags = r2.view(np.uint64)
        fl = exact_bit_lengths(mags.max(axis=1))
        fl_all[b0:b1] = fl
        parts.append(pack_records(mags, ng, fl, header_bytes).tobytes())

    return fl_all, b"".join(parts), eps_eff, n


def fused_decompress_blocks(
    stream: bytes | np.ndarray,
    header,
    offsets: np.ndarray,
    fls: np.ndarray,
    *,
    out_dtype=np.float32,
    chunk_elems: int = CHUNK_ELEMS,
    predictor=None,
) -> np.ndarray:
    """Decode + reconstruct + dequantize a block-local stream, fused.

    ``offsets``/``fls`` come from the container's layout discovery
    (:func:`repro.core.compressor.stream_block_layout`); checksummed
    streams are verified there before this runs. ``predictor`` must be
    block-local (default ``lorenzo1d``) and should match the stream
    header's predictor field — the caller dispatches. Returns the flat
    ``(num_elements,)`` value array, bit-identical to the reference
    decode.
    """
    predictor = _resolve_block_local(predictor)
    nb = int(header.num_blocks)
    L = int(header.block_size)
    n = int(header.num_elements)
    fls = np.asarray(fls, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    nz_total = int(np.count_nonzero(fls))
    # Error-bound validation mirrors the reference exactly: its sparse
    # branch only touches the header bound when some block has payload,
    # and its dense branch (taken when nonzero blocks are not a minority)
    # always does.
    if nz_total or nz_total >= nb // 2:
        validate_error_bound(header.eps)

    values = np.zeros(nb * L, dtype=out_dtype)
    if nz_total:
        buf = (
            stream
            if isinstance(stream, np.ndarray)
            else np.frombuffer(stream, dtype=np.uint8)
        )
        _validate_layout(buf, offsets, fls, L, header.header_width, nb)
        two_eps = 2.0 * header.eps
        bpc = max(int(chunk_elems) // L, 1)
        res = np.empty((bpc, L), dtype=np.int64)
        q = np.empty((bpc, L), dtype=np.float64)
        v2 = values.reshape(nb, L)
        for b0 in range(0, nb, bpc):
            b1 = min(b0 + bpc, nb)
            f_c = fls[b0:b1]
            nz = np.nonzero(f_c)[0]
            k = int(nz.size)
            if not k:
                continue
            decode_blocks(
                buf,
                k,
                L,
                header.header_width,
                offsets=offsets[b0:b1][nz],
                fls=f_c[nz],
                out=res[:k],
            )
            predictor.reconstruct_blocks(res[:k], out=res[:k])
            np.multiply(res[:k], two_eps, out=q[:k])
            v2[b0 + nz] = q[:k]
    return values[:n]


def _validate_layout(
    buf: np.ndarray,
    offsets: np.ndarray,
    fls: np.ndarray,
    block_size: int,
    header_bytes: int,
    num_blocks: int,
) -> None:
    """The same layout sanity checks ``decode_blocks`` performs."""
    if offsets.shape != (num_blocks,) or fls.shape != (num_blocks,):
        raise FormatError(
            f"block index shape mismatch: {num_blocks} blocks, "
            f"{offsets.shape[0]} offsets, {fls.shape[0]} fixed lengths"
        )
    if fls.size and (int(fls.min()) < 0 or int(fls.max()) > _MAX_FL):
        raise FormatError("invalid fixed length in block index")
    ends = offsets + record_sizes(fls, block_size, header_bytes)
    if num_blocks and (int(offsets.min()) < 0 or int(ends.max()) > buf.size):
        raise FormatError("block index points outside the stream")
