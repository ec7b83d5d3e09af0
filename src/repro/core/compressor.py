"""The CereSZ compressor: the library's primary public API.

This is the vectorized host reference of the paper's algorithm — the same
three stages the wafer mapping runs, executed with NumPy over all blocks at
once. The on-fabric path (:mod:`repro.core.wse_compressor`) is validated to
produce byte-identical streams.

Example
-------
>>> import numpy as np
>>> from repro import CereSZ
>>> data = np.cumsum(np.random.default_rng(0).normal(size=4096)).astype(np.float32)
>>> codec = CereSZ()
>>> result = codec.compress(data, rel=1e-3)
>>> restored = codec.decompress(result.stream)
>>> bool(np.max(np.abs(restored - data)) <= result.eps)
True
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import BLOCK_SIZE, CERESZ_HEADER_BYTES, SZP_HEADER_BYTES
from repro.errors import (
    CompressionError,
    ContainerError,
    ErrorBoundError,
    FormatError,
)
from repro.core.blocks import merge_blocks, partition_blocks, validate_block_size
from repro.core.encoding import (
    block_fixed_lengths,
    decode_blocks,
    encode_blocks,
    index_record_offsets,
    pack_block_index,
    scan_record_offsets,
    unpack_block_index,
)
from repro.core.format import StreamHeader, make_header
from repro.core.predictors import DEFAULT_PREDICTOR, Predictor, get_predictor
from repro.core.quantize import (
    dequantize,
    prequantize_verified,
    psnr_to_relative,
    relative_to_absolute,
    validate_error_bound,
)


def assemble_stream(
    header: StreamHeader, fl: np.ndarray, body: bytes
) -> bytes:
    """Serialize header (+ index/integrity tables for v2/v3) + records."""
    if header.checksum:
        from repro.core.integrity import build_checksummed_tail

        head = header.pack()
        fl_table = pack_block_index(fl)
        tail = build_checksummed_tail(header, fl_table, body, head)
        return head + fl_table + tail + body
    if header.indexed:
        return header.pack() + pack_block_index(fl) + body
    return header.pack() + body


def stream_block_layout(
    stream: bytes, header: StreamHeader, offset: int
) -> tuple[np.ndarray, np.ndarray]:
    """Discover the record layout of a parsed stream: (offsets, fls).

    Indexed (v2) streams read the fl table and compute every record offset
    with one vectorized cumsum; v1 streams fall back to the sequential
    header walk. Both paths bound-check against the *post-header* stream
    length, so a corrupt header cannot trigger a huge allocation.

    Checksummed (v3) streams are verified before any record is trusted:
    every corrupt CRC group raises :class:`repro.errors.ContainerError`
    naming the groups and blocks hit. Use
    :func:`repro.core.decompressor.salvage_decompress` to recover the
    intact remainder instead.
    """
    if header.checksum:
        from repro.core.integrity import (
            corrupt_blocks_of,
            read_checksum_layout,
            verify_groups,
        )

        layout = read_checksum_layout(stream, header, offset)
        if not layout.meta_ok:
            raise ContainerError(
                "integrity metadata corrupt: meta CRC mismatch over the "
                "stream header and group table",
                offset=offset,
            )
        bad = verify_groups(stream, header, layout)
        if bad.size:
            blocks = corrupt_blocks_of(header, bad)
            raise ContainerError(
                f"checksum mismatch in {bad.size} of {layout.num_groups} "
                f"CRC group(s) ({blocks.size} blocks); salvage_decompress "
                f"can recover the intact remainder",
                groups=bad.tolist(),
                blocks=blocks.tolist(),
            )
        fls = layout.fls
        if (fls > 63).any():
            raise FormatError(
                f"fixed length {int(fls.max())} exceeds 63 in a "
                f"CRC-verified stream (writer bug)"
            )
        offsets = index_record_offsets(
            fls,
            header.block_size,
            header.header_width,
            start=layout.records_start,
            stream_size=len(stream),
        )
    elif header.indexed:
        fls, records_start = unpack_block_index(
            stream, header.num_blocks, offset
        )
        offsets = index_record_offsets(
            fls,
            header.block_size,
            header.header_width,
            start=records_start,
            stream_size=len(stream),
        )
    else:
        offsets, fls = scan_record_offsets(
            stream,
            header.num_blocks,
            header.block_size,
            header.header_width,
            start=offset,
        )
    return offsets, fls


def decode_stream_blocks(
    stream: bytes, header: StreamHeader, offset: int
) -> tuple[np.ndarray, np.ndarray]:
    """Decode the block records of a parsed stream into residual blocks.

    Layout discovery (and v3 checksum verification) happens in
    :func:`stream_block_layout`. Returns ``(residuals, fls)`` — the
    per-block fixed lengths come out of the layout for free and let the
    caller skip reconstruction work for zero blocks.
    """
    offsets, fls = stream_block_layout(stream, header, offset)
    residuals = decode_blocks(
        stream,
        header.num_blocks,
        header.block_size,
        header.header_width,
        offsets=offsets,
        fls=fls,
    )
    return residuals, fls


@dataclass(frozen=True)
class CompressionResult:
    """Everything a caller wants to know about one compression."""

    stream: bytes
    eps: float
    original_bytes: int
    shape: tuple[int, ...]
    fixed_lengths: np.ndarray  # per-block, int64
    zero_block_fraction: float

    @property
    def compressed_bytes(self) -> int:
        return len(self.stream)

    @property
    def ratio(self) -> float:
        """Compression ratio: original size / compressed size (paper 2.2)."""
        if self.compressed_bytes == 0:
            raise CompressionError("empty compressed stream")
        return self.original_bytes / self.compressed_bytes

    @property
    def num_elements(self) -> int:
        n = 1
        for d in self.shape:
            n *= d
        return n

    @property
    def bit_rate(self) -> float:
        """Bits stored per original element (the rate-distortion x-axis)."""
        n = self.num_elements
        if n == 0:
            return 0.0
        return 8.0 * self.compressed_bytes / n


class CereSZ:
    """Error-bounded lossy compressor (pre-quant + 1D Lorenzo + FL encoding).

    Parameters
    ----------
    block_size:
        Elements per independent block; the paper uses 32.
    header_width:
        Per-block header bytes: 4 (CereSZ, wafer 32-bit message constraint)
        or 1 (the SZp container layout, used by the baseline subclasses).
    fast:
        Use the fused single-pass kernels (:mod:`repro.core.fastpath`) for
        compression and block-local decompression. On by default; the
        reference multi-stage path remains available (``fast=False``, or
        per call) as the bit-exactness oracle. Whole-array predictors run
        a split pipeline: reference prediction over the full array, then
        the fused block encoder over the residuals. Both paths produce
        byte-identical streams and bit-identical decodes.
    predictor:
        Registry name of the prediction stage (see
        :mod:`repro.core.predictors`); the paper's block-local
        ``lorenzo1d`` by default. Block-local predictors keep every
        capability (fast path, sharding, random access, WSE lowering);
        whole-array predictors trade those for ratio and stay host-only.
    """

    name = "CereSZ"
    #: Platform the paper ran this compressor on (keys the throughput model).
    device = "CS-2"

    def __init__(
        self,
        block_size: int = BLOCK_SIZE,
        header_width: int = CERESZ_HEADER_BYTES,
        *,
        fast: bool = True,
        predictor: str | Predictor = DEFAULT_PREDICTOR,
    ):
        self.block_size = validate_block_size(block_size)
        if header_width not in (CERESZ_HEADER_BYTES, SZP_HEADER_BYTES):
            raise FormatError(f"unsupported header width {header_width}")
        self.header_width = header_width
        self.fast = bool(fast)
        self.predictor = get_predictor(predictor)

    def _with_options(
        self,
        *,
        fast: bool | None = None,
        predictor: str | Predictor | None = None,
    ) -> "CereSZ":
        """This codec, with per-call overrides resolved into codec state.

        Shard workers call back into ``codec.compress``/``decompress``
        with no per-call override, so per-call ``fast=``/``predictor=``
        must travel as codec state; a shallow copy keeps the caller's
        codec untouched.
        """
        pred = self.predictor if predictor is None else get_predictor(predictor)
        fast = self.fast if fast is None else bool(fast)
        if fast == self.fast and pred is self.predictor:
            return self
        import copy

        clone = copy.copy(self)
        clone.fast = fast
        clone.predictor = pred
        return clone

    # -- compression ---------------------------------------------------------------

    def resolve_error_bound(
        self,
        data: np.ndarray,
        eps: float | None,
        rel: float | None,
        psnr: float | None = None,
    ) -> float | None:
        """Turn (eps | rel | psnr) into an absolute bound.

        Exactly one of ``eps`` (absolute), ``rel`` (value-range relative,
        the paper's REL mode), or ``psnr`` (target quality in dB, converted
        analytically to a REL bound) must be given. Returns ``None`` for a
        constant field under a relative mode (stored exactly).
        """
        given = sum(x is not None for x in (eps, rel, psnr))
        if given != 1:
            raise ErrorBoundError(
                "specify exactly one of eps=, rel=, or psnr="
            )
        if psnr is not None:
            rel = psnr_to_relative(psnr)
        if eps is not None:
            return validate_error_bound(eps)
        arr = np.asarray(data)
        if arr.size == 0:
            raise CompressionError("cannot compress an empty array")
        vmin = float(arr.min())
        vmax = float(arr.max())
        if vmax == vmin:
            return None  # constant field: stored exactly
        return relative_to_absolute(arr, rel)

    def compress(
        self,
        data: np.ndarray,
        *,
        eps: float | None = None,
        rel: float | None = None,
        psnr: float | None = None,
        index: bool | None = None,
        jobs: int | None = None,
        metrics=None,
        checksum: bool = False,
        crc_group: int | None = None,
        fast: bool | None = None,
        predictor: str | Predictor | None = None,
        ledger=None,
    ) -> CompressionResult:
        """Compress under an absolute bound, a REL bound, or a PSNR target.

        ``index=True`` writes a container-v2 stream whose fl table makes
        decoding embarrassingly parallel (one cumsum instead of a
        sequential header walk) at a cost of one byte per block.
        ``jobs=`` opts into the shard engine: the field is cut into
        super-shards compressed across a worker pool and wrapped in a
        self-describing shard container (see :mod:`repro.core.parallel`).
        Sharded streams default to indexed shards (pass ``index=False`` to
        force v1 shards); plain streams default to v1. ``metrics=`` (a
        :class:`repro.obs.metrics.MetricsRegistry`) records host-side
        shard-engine counters; it only applies to the sharded path.

        ``checksum=True`` writes a container-v3 stream carrying CRC32C
        integrity metadata (implies an index): decoding then detects any
        corrupt byte, ``ceresz verify`` localizes it to a group of
        ``crc_group`` blocks, and salvage decode recovers everything else.
        Constant fields ignore the flag (a 30-byte exact header has
        nothing worth checksumming).

        ``fast=`` overrides the codec's fused-kernel default for this call
        (``fast=False`` forces the reference multi-stage path); the output
        bytes are identical either way. ``predictor=`` overrides the
        codec's prediction stage for this call (a registry name from
        :mod:`repro.core.predictors`); the choice is recorded in the
        stream header, so decompression needs no matching argument.

        ``ledger=`` opts into the run ledger: a path, ``True`` (default
        path), or a :class:`repro.obs.ledger.Ledger` appends one
        provenance-stamped RunRecord (resolved knobs, environment, wall
        time, ratio) per call. ``None`` (the default) costs one branch.
        """
        if ledger is not None:
            return self._compress_ledgered(
                data,
                eps=eps, rel=rel, psnr=psnr, index=index, jobs=jobs,
                metrics=metrics, checksum=checksum, crc_group=crc_group,
                fast=fast, predictor=predictor, ledger=ledger,
            )
        return self._compress_impl(
            data,
            eps=eps, rel=rel, psnr=psnr, index=index, jobs=jobs,
            metrics=metrics, checksum=checksum, crc_group=crc_group,
            fast=fast, predictor=predictor,
        )

    def _compress_ledgered(self, data, *, ledger, metrics, **kw):
        """Timed compress + RunRecord append (the ``ledger=`` slow path)."""
        import time as _time

        from repro.obs import ledger as _ledger_mod

        t0 = _time.perf_counter()
        result = self._compress_impl(data, metrics=metrics, **kw)
        wall = _time.perf_counter() - t0
        pred = (
            self.predictor
            if kw.get("predictor") is None
            else get_predictor(kw["predictor"])
        )
        config = {
            "op": "compress",
            "eps": kw.get("eps"),
            "rel": kw.get("rel"),
            "psnr": kw.get("psnr"),
            "index": kw.get("index"),
            "jobs": kw.get("jobs"),
            "checksum": bool(kw.get("checksum")),
            "crc_group": kw.get("crc_group"),
            "fast": self.fast if kw.get("fast") is None else bool(kw["fast"]),
            "predictor": pred.name,
            "block_size": self.block_size,
            "header_width": self.header_width,
            "shape": list(np.asarray(data).shape),
        }
        ratio = (
            result.original_bytes / len(result.stream)
            if len(result.stream)
            else 0.0
        )
        _ledger_mod.emit(
            ledger,
            "compress",
            "ceresz.compress",
            config,
            timings={"wall_s": wall},
            values={
                "compression_ratio": float(ratio),
                "compressed_bytes": float(len(result.stream)),
            },
            metrics=metrics,
        )
        return result

    def _compress_impl(
        self,
        data: np.ndarray,
        *,
        eps: float | None = None,
        rel: float | None = None,
        psnr: float | None = None,
        index: bool | None = None,
        jobs: int | None = None,
        metrics=None,
        checksum: bool = False,
        crc_group: int | None = None,
        fast: bool | None = None,
        predictor: str | Predictor | None = None,
    ) -> CompressionResult:
        if jobs is not None:
            from repro.core.parallel import compress_sharded

            return compress_sharded(
                data,
                eps=eps,
                rel=rel,
                psnr=psnr,
                codec=self._with_options(fast=fast, predictor=predictor),
                jobs=jobs,
                index=True if index is None else index,
                metrics=metrics,
                checksum=checksum,
                crc_group=crc_group,
            )
        pred = (
            self.predictor if predictor is None else get_predictor(predictor)
        )
        index = True if checksum else bool(index)
        arr = np.asarray(data)
        if arr.size == 0:
            raise CompressionError("cannot compress an empty array")
        if not np.issubdtype(arr.dtype, np.floating):
            raise CompressionError(
                f"CereSZ compresses floating-point fields, got {arr.dtype}"
            )
        bound = self.resolve_error_bound(arr, eps, rel, psnr)
        out_dtype = np.float64 if arr.dtype == np.float64 else np.float32
        if bound is None:
            return self._compress_constant(arr)

        use_fast = self.fast if fast is None else bool(fast)
        if pred.block_local and use_fast:
            from repro.core.fastpath import fused_compress_blocks

            fl, body, eps_eff, n = fused_compress_blocks(
                arr,
                bound,
                block_size=self.block_size,
                header_bytes=self.header_width,
                out_dtype=out_dtype,
                predictor=pred,
            )
        elif pred.block_local:
            codes, eps_eff, n = self._quantize_blocks(arr, bound, out_dtype)
            residuals = pred.predict_blocks(codes)
            fl = block_fixed_lengths(residuals)
            body = encode_blocks(residuals, self.header_width)
        else:
            # Whole-array predictor: predict once over the full N-D code
            # array, then feed the residuals to the block-local encoder —
            # fused when ``fast`` is on (the predict-then-fused-encode
            # split), reference otherwise. Either way the bytes match.
            codes, eps_eff = prequantize_verified(arr, bound, dtype=out_dtype)
            residuals_nd = pred.predict(codes)
            residuals, n = partition_blocks(residuals_nd, self.block_size)
            if use_fast:
                from repro.core.fastpath import fused_encode_blocks

                fl, body = fused_encode_blocks(
                    residuals, header_bytes=self.header_width
                )
            else:
                fl = block_fixed_lengths(residuals)
                body = encode_blocks(residuals, self.header_width)
        # The header carries the *effective* bound the codes were quantized
        # against (slightly inside the requested one, see
        # :func:`repro.core.quantize.effective_error_bound`) — it is what
        # reconstruction must multiply by.
        from repro.core.format import DEFAULT_CRC_GROUP

        header = make_header(
            arr.shape,
            eps_eff,
            header_width=self.header_width,
            block_size=self.block_size,
            predictor=pred.name,
            dtype="f8" if out_dtype == np.float64 else "f4",
            indexed=index,
            checksum=checksum,
            crc_group=(
                DEFAULT_CRC_GROUP if crc_group is None else int(crc_group)
            ),
        )
        stream = assemble_stream(header, fl, body)
        zero_frac = float(np.mean(fl == 0)) if fl.size else 0.0
        return CompressionResult(
            stream=stream,
            eps=bound,
            original_bytes=n * arr.dtype.itemsize,
            shape=tuple(arr.shape),
            fixed_lengths=fl,
            zero_block_fraction=zero_frac,
        )

    def _quantize_blocks(
        self, arr: np.ndarray, bound: float, out_dtype=np.float32
    ) -> tuple[np.ndarray, float, int]:
        codes, eps_eff = prequantize_verified(arr, bound, dtype=out_dtype)
        blocks, n = partition_blocks(codes, self.block_size)
        return blocks, eps_eff, n

    def _compress_constant(self, arr: np.ndarray) -> CompressionResult:
        value = float(arr.flat[0])
        header = make_header(
            arr.shape,
            0.0,
            header_width=self.header_width,
            block_size=self.block_size,
            constant=value,
            dtype="f8" if arr.dtype == np.float64 else "f4",
        )
        stream = header.pack()
        return CompressionResult(
            stream=stream,
            eps=0.0,
            original_bytes=arr.size * arr.dtype.itemsize,
            shape=tuple(arr.shape),
            fixed_lengths=np.zeros(0, dtype=np.int64),
            zero_block_fraction=1.0,
        )

    # -- decompression --------------------------------------------------------------

    def decompress(
        self,
        stream: bytes,
        *,
        jobs: int | None = None,
        metrics=None,
        fast: bool | None = None,
        ledger=None,
    ) -> np.ndarray:
        """Reconstruct the float32 field (original shape restored).

        Dispatches on the stream header's predictor field, so a plain
        ``CereSZ`` instance decodes streams written with *any* registered
        predictor — the codec's own ``predictor=`` setting never affects
        decoding. Shard containers (written with ``compress(jobs=...)``)
        are recognized by magic and decoded shard-parallel; ``jobs=``
        sizes that pool. ``fast=`` overrides the codec's fused-kernel
        default for this call; block-local-predictor streams decode
        through the fused kernel when on, whole-array streams always take
        the reference path. ``ledger=`` appends one RunRecord per call
        (see :meth:`compress`); ``None`` costs one branch.
        """
        if ledger is not None:
            return self._decompress_ledgered(
                stream, jobs=jobs, metrics=metrics, fast=fast, ledger=ledger
            )
        return self._decompress_impl(
            stream, jobs=jobs, metrics=metrics, fast=fast
        )

    def _decompress_ledgered(self, stream, *, jobs, metrics, fast, ledger):
        """Timed decompress + RunRecord append (the ``ledger=`` slow path)."""
        import time as _time

        from repro.obs import ledger as _ledger_mod

        t0 = _time.perf_counter()
        values = self._decompress_impl(
            stream, jobs=jobs, metrics=metrics, fast=fast
        )
        wall = _time.perf_counter() - t0
        config = {
            "op": "decompress",
            "jobs": jobs,
            "fast": self.fast if fast is None else bool(fast),
            "stream_bytes": len(stream),
        }
        _ledger_mod.emit(
            ledger,
            "decompress",
            "ceresz.decompress",
            config,
            timings={"wall_s": wall},
            values={"output_bytes": float(values.nbytes)},
            metrics=metrics,
        )
        return values

    def _decompress_impl(
        self,
        stream: bytes,
        *,
        jobs: int | None = None,
        metrics=None,
        fast: bool | None = None,
    ) -> np.ndarray:
        from repro.core.parallel import decompress_sharded, is_sharded

        if is_sharded(stream):
            return decompress_sharded(
                stream, codec=self._with_options(fast=fast), jobs=jobs,
                metrics=metrics,
            )
        header, offset = StreamHeader.unpack(stream)
        out_dtype = np.float64 if header.dtype == "f8" else np.float32
        if header.constant is not None:
            try:
                return np.full(header.shape, header.constant, dtype=out_dtype)
            except MemoryError as exc:
                raise CompressionError(
                    f"constant stream describes a {header.shape} field that "
                    f"does not fit in memory"
                ) from exc
        n = header.num_elements
        pred = get_predictor(header.predictor)
        use_fast = self.fast if fast is None else bool(fast)
        if use_fast and pred.block_local:
            from repro.core.fastpath import fused_decompress_blocks

            offsets, fls = stream_block_layout(stream, header, offset)
            values = fused_decompress_blocks(
                stream, header, offsets, fls, out_dtype=out_dtype,
                predictor=pred,
            )
            return values.reshape(header.shape)
        residuals, fls = decode_stream_blocks(stream, header, offset)
        if not pred.block_local:
            flat = merge_blocks(residuals, n)
            codes = pred.reconstruct(flat.reshape(header.shape))
            return dequantize(codes, header.eps, dtype=out_dtype).reshape(
                header.shape
            )
        L = header.block_size
        nz = np.nonzero(fls)[0]
        if nz.size < header.num_blocks // 2:
            # Mostly-zero streams (smooth fields under a realistic bound):
            # a zero block reconstructs to exact 0.0 under every (linear)
            # block-local predictor, so invert and dequantize only the
            # blocks that carry payload.
            values = np.zeros(header.num_blocks * L, dtype=out_dtype)
            if nz.size:
                codes = pred.reconstruct_blocks(residuals[nz])
                values.reshape(-1, L)[nz] = dequantize(
                    codes, header.eps, dtype=out_dtype
                )
            values = values[:n]
        else:
            codes = pred.reconstruct_blocks(residuals)
            flat = merge_blocks(codes, n)
            values = dequantize(flat, header.eps, dtype=out_dtype)
        return values.reshape(header.shape)

    # -- introspection ----------------------------------------------------------------

    def describe_stream(self, stream: bytes) -> StreamHeader:
        """Parse and return the global header without decoding payloads."""
        header, _ = StreamHeader.unpack(stream)
        return header
