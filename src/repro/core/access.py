"""Random access into CereSZ streams.

Because every block record is self-contained (the paper's block-wise design
exists precisely so PEs never need neighbours), a reader can decode any
subrange of a stream without touching the rest of the payload. The record
layout comes from :func:`repro.core.compressor.stream_block_layout`, the
one layout function every decoder uses. For v1 streams only the header walk
is sequential — record sizes are data-dependent — and it steps on one byte
per block, validating every header in one vectorized pass afterwards, so
skipping is cheap even for ranges deep into a large field. Indexed
(container v2) streams skip even that: the fl table yields every offset
from one cumsum. Checksummed (v3) streams are read through their index too,
after their CRCs verify.

This is a host-side library feature the wafer design enables for free:
post-hoc analysis tools routinely want one slab of a snapshot, not the
whole reconstruction.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CompressionError, FormatError
from repro.core.compressor import stream_block_layout
from repro.core.encoding import decode_blocks
from repro.core.format import StreamHeader
from repro.core.predictors import get_predictor
from repro.core.quantize import dequantize


def decompress_range(
    stream: bytes, start: int, stop: int
) -> np.ndarray:
    """Reconstruct elements ``[start, stop)`` of the flattened field.

    Works for any stream written with a *block-local* predictor (the
    CereSZ default and any registry entry with that locality contract):
    whole-array predictors need the full array for their global inverse,
    which is exactly the random-access property the paper's block-local
    design buys.
    """
    header, offset = StreamHeader.unpack(stream)
    pred = get_predictor(header.predictor)
    if not pred.block_local:
        raise CompressionError(
            f"random access requires a block-local predictor; this stream "
            f"was written with {pred.name!r} (locality {pred.locality!r}) "
            f"and must be decompressed whole"
        )
    n = header.num_elements
    if not (0 <= start <= stop <= n):
        raise CompressionError(
            f"range [{start}, {stop}) outside field of {n} elements"
        )
    out_dtype = np.float64 if header.dtype == "f8" else np.float32
    if stop == start:
        return np.zeros(0, dtype=out_dtype)
    if header.constant is not None:
        return np.full(stop - start, header.constant, dtype=out_dtype)

    L = header.block_size
    first_block = start // L
    last_block = (stop - 1) // L  # inclusive

    offsets, fls = stream_block_layout(stream, header, offset)
    if last_block >= header.num_blocks:
        raise FormatError("stream holds fewer blocks than its header claims")

    # Decode just the needed records, handing decode_blocks the slice of
    # the already-known layout so it never re-walks headers.
    count = last_block - first_block + 1
    residuals = decode_blocks(
        stream,
        count,
        L,
        header.header_width,
        offsets=offsets[first_block : last_block + 1],
        fls=fls[first_block : last_block + 1],
    )
    codes = pred.reconstruct_blocks(residuals)
    values = dequantize(codes.reshape(-1), header.eps, dtype=out_dtype)
    lo = start - first_block * L
    hi = stop - first_block * L
    return values[lo:hi]


def block_index(stream: bytes) -> np.ndarray:
    """Per-block byte offsets into the stream (an explicit random-access
    index a caller can cache to skip the header scan on repeated reads).

    For indexed (v2, v3) streams this is a vectorized cumsum over the
    embedded fl table; v1 streams pay one header walk, one byte per block.
    """
    header, offset = StreamHeader.unpack(stream)
    if header.constant is not None:
        return np.zeros(0, dtype=np.int64)
    offsets, _ = stream_block_layout(stream, header, offset)
    return offsets
