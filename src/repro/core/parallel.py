"""The shard engine: host-parallel compression and decompression.

The paper scales CereSZ by giving every PE an independent slice of the
field; the host reference gets the same property by cutting the flattened
field into *super-shards* (many blocks each), compressing every shard as
its own self-describing CereSZ stream across a ``concurrent.futures``
pool, and concatenating the results behind a small shard table::

    [ magic "CSZX" ][ version u8 ][ flags u8 ][ num_shards u32 ]
    [ eps f64 ][ ndim u8 ][ dims u64 * ndim ]
    [ shard length u64 ] * num_shards
    [ shard payloads back-to-back ... ]

Because the length table sits up front, a reader slices every shard in
O(num_shards) and decodes them in any order — decompression is
embarrassingly parallel, like cuSZp's partition metadata. Shard streams
default to the indexed container v2, so even within a shard no sequential
header walk remains.

Determinism: shard boundaries depend only on ``shard_elements`` (never on
the pool size), so ``jobs=1`` and ``jobs=16`` produce byte-identical
containers. Sharded and *unsharded* streams are not byte-identical,
though: each shard quantizes against its own effective bound (the ulp
margin of :func:`repro.core.quantize.effective_error_bound` depends on the
shard's peak magnitude), exactly as every shard honors the requested
bound independently.

The error bound is resolved *once* against the whole field — a REL bound
recomputed per shard would drift with each shard's local value range and
break the global guarantee — then every shard is compressed under the
resulting absolute bound.

Whole-array predictors (``whole_array`` locality in
:mod:`repro.core.predictors`) take a different route entirely: their
prediction cannot be cut at shard boundaries without changing the math,
so the engine predicts once over the full array and parallelizes only
the block-local residual *encode*, emitting one plain CSZ1 stream that
is byte-identical for every ``jobs=`` value (see
:func:`_compress_predicted_sharded`).

Workers run in threads by default: the hot kernels are NumPy calls that
release the GIL, and threads avoid pickling multi-megabyte streams across
process boundaries. Every set of workers here and in the simulator
(:mod:`repro.core.simulate`) runs on one pool, :func:`run_pool_resilient`:
inline for one worker, threads or processes otherwise, with an optional
watchdog and retry budget.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import struct
import time
from concurrent.futures import (
    ThreadPoolExecutor,
    TimeoutError as _FutureTimeout,
)
from dataclasses import dataclass

import numpy as np

from repro.errors import (
    CompressionError,
    ContainerError,
    FormatError,
    WorkerError,
)

SHARD_MAGIC = b"CSZX"
SHARD_VERSION = 1
#: Shard container v2: v1 plus a ``shard_elements u64`` field (elements per
#: shard, so a salvage reader knows each lost shard's span without parsing
#: its stream) and a ``meta_crc u32`` (CRC32C over everything before the
#: payloads). Written only by ``checksum=True`` compressions — the default
#: container stays byte-identical to v1.
SHARD_VERSION_CHECKSUM = 2

_SHARD_FLAG_F64 = 0x01

#: Default super-shard size: 1 Mi elements (4 MiB of float32) keeps the
#: per-shard container overhead negligible while giving a pool enough
#: shards to balance on fields worth parallelizing.
DEFAULT_SHARD_ELEMENTS = 1 << 20

_HEAD = struct.Struct("<4sBBId B".replace(" ", ""))
_DIM = struct.Struct("<Q")
_LEN = struct.Struct("<Q")
_META_CRC = struct.Struct("<I")


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``jobs=`` argument to a positive worker count."""
    if jobs is None:
        return os.cpu_count() or 1
    jobs = int(jobs)
    if jobs < 1:
        raise CompressionError(f"jobs must be >= 1, got {jobs}")
    return jobs


def is_sharded(stream: bytes) -> bool:
    """True when ``stream`` is a shard container (vs a plain CereSZ stream)."""
    return bytes(stream[:4]) == SHARD_MAGIC


def _shard_bounds(n: int, shard_elements: int) -> list[tuple[int, int]]:
    return [
        (lo, min(lo + shard_elements, n))
        for lo in range(0, n, shard_elements)
    ]


def run_pool_resilient(
    fn,
    items,
    jobs: int,
    *,
    processes: bool = False,
    timeout: float | None = None,
    retries: int = 2,
    backoff: float = 0.05,
    jitter_seed: int = 0,
    salvage: bool = False,
    metrics=None,
):
    """Map ``fn`` over ``items`` preserving order, with optional watchdog
    and bounded retries; inline when ``jobs == 1`` or there is one item.

    ``processes=False`` (the shard engine's mode) uses threads — right for
    GIL-releasing NumPy kernels on shared memory. ``processes=True`` uses a
    process pool — required for pure-Python work like the WSE simulator,
    where threads serialize on the GIL; ``fn`` and the items must then be
    picklable module-level objects.

    Every item gets up to ``1 + retries`` attempts; between retry waves
    the pool sleeps an exponentially growing, deterministically jittered
    backoff (``backoff * 2**wave``, jitter seeded by ``jitter_seed`` so
    runs are reproducible). ``timeout`` arms the per-item watchdog:

    - ``processes=True`` — a hung worker is *killed* (the whole
      ``multiprocessing.Pool`` is terminated and rebuilt; completed
      results are kept, unharvested items re-run). ``fn`` and the items
      must be picklable. This is the only true watchdog.
    - ``processes=False`` — the wait is abandoned but the thread cannot
      be killed; fine for bounding tail latency of finite work, wrong
      for workers that genuinely never return.

    Returns ``(results, failures)`` where ``results[i]`` is ``fn(items[i])``
    or ``None`` for terminally failed items, and ``failures`` is a tuple of
    :class:`repro.faults.report.ShardFailure` for exactly those items. With
    ``salvage=False`` (default) any terminal failure raises a
    :class:`repro.errors.WorkerError` naming the first failed shard, its
    attempt count, and every other failure. With ``retries=0`` and
    ``salvage=False`` there is nothing to retry or salvage, so the first
    worker exception (in item order) propagates unchanged instead — a
    :class:`~repro.errors.ContainerError` from a corrupt shard keeps its
    type and fields whichever pool ran it. A watchdog timeout is not a
    worker exception and still raises :class:`WorkerError`.
    """
    from repro.faults.report import ShardFailure

    items = list(items)
    n = len(items)
    results: list = [None] * n
    done = [False] * n
    attempts = [0] * n
    failures: dict[int, ShardFailure] = {}
    if retries < 0:
        raise CompressionError(f"retries must be >= 0, got {retries}")
    propagate = retries == 0 and not salvage
    rng = random.Random(jitter_seed)
    pending = list(range(n))
    wave = 0
    while pending:
        if wave > 0:
            delay = backoff * (2 ** (wave - 1)) * (0.5 + rng.random())
            if metrics is not None:
                metrics.counter(
                    "host.pool_retries", "shard attempts re-run after failure"
                ).inc(len(pending))
            time.sleep(delay)
        batch, pending = pending, []

        def _record_failure(i: int, kind: str, detail: str) -> None:
            attempts[i] += 1
            failures[i] = ShardFailure(
                index=i, attempts=attempts[i], kind=kind, error=detail
            )
            if kind == "timeout" and metrics is not None:
                metrics.counter(
                    "host.pool_timeouts", "shard attempts killed by watchdog"
                ).inc()
            if attempts[i] <= retries:
                pending.append(i)

        use_proc_pool = processes and (
            timeout is not None or (jobs > 1 and len(batch) > 1)
        )
        if use_proc_pool:
            pool = multiprocessing.get_context().Pool(
                processes=min(jobs, len(batch))
            )
            killed = False
            try:
                handles = [
                    (i, pool.apply_async(fn, (items[i],))) for i in batch
                ]
                pool.close()
                for i, handle in handles:
                    if killed:
                        # The pool died under this item; its outcome is
                        # unknown, so re-run it without charging an attempt.
                        pending.append(i)
                        continue
                    try:
                        results[i] = handle.get(timeout)
                        done[i] = True
                        failures.pop(i, None)
                    except multiprocessing.TimeoutError:
                        _record_failure(
                            i, "timeout",
                            f"worker exceeded {timeout}s; killed",
                        )
                        pool.terminate()
                        killed = True
                    except Exception as exc:
                        if propagate:
                            raise
                        _record_failure(
                            i, "error", f"{type(exc).__name__}: {exc}"
                        )
            finally:
                pool.terminate()
                pool.join()
        elif jobs > 1 and len(batch) > 1 and not processes:
            pool = ThreadPoolExecutor(max_workers=min(jobs, len(batch)))
            try:
                futures = [(i, pool.submit(fn, items[i])) for i in batch]
                for i, fut in futures:
                    try:
                        results[i] = fut.result(timeout)
                        done[i] = True
                        failures.pop(i, None)
                    except _FutureTimeout:
                        fut.cancel()
                        _record_failure(
                            i, "timeout",
                            f"worker exceeded {timeout}s (thread abandoned)",
                        )
                    except Exception as exc:
                        if propagate:
                            raise
                        _record_failure(
                            i, "error", f"{type(exc).__name__}: {exc}"
                        )
            finally:
                pool.shutdown(wait=False, cancel_futures=True)
        else:
            # Inline: no watchdog possible, but retries still apply.
            for i in batch:
                try:
                    results[i] = fn(items[i])
                    done[i] = True
                    failures.pop(i, None)
                except Exception as exc:
                    if propagate:
                        raise
                    _record_failure(
                        i, "error", f"{type(exc).__name__}: {exc}"
                    )
        wave += 1
    terminal = tuple(
        failures[i] for i in sorted(failures) if not done[i]
    )
    if terminal and not salvage:
        first = terminal[0]
        raise WorkerError(
            f"shard {first.index} failed after {first.attempts} attempt(s) "
            f"({first.kind}: {first.error}); "
            f"{len(terminal)} shard(s) failed in total",
            shard=first.index,
            attempts=first.attempts,
            failures=terminal,
        )
    return results, terminal


def _compress_shard_worker(args):
    """Module-level (hence process-picklable) shard compression."""
    codec, chunk, bound, index, checksum, crc_group = args
    return codec.compress(
        chunk, eps=bound, index=index, checksum=checksum, crc_group=crc_group
    )


def _encode_range_worker(args):
    """Module-level (hence process-picklable) residual-range encode."""
    blocks, header_bytes, fast = args
    if fast:
        from repro.core.fastpath import fused_encode_blocks

        return fused_encode_blocks(blocks, header_bytes=header_bytes)
    from repro.core.encoding import block_fixed_lengths, encode_blocks

    return block_fixed_lengths(blocks), encode_blocks(blocks, header_bytes)


def _compress_predicted_sharded(
    arr: np.ndarray,
    bound: float,
    codec,
    jobs: int,
    shard_elements: int,
    index: bool,
    metrics,
    checksum: bool,
    crc_group: int | None,
    timeout: float | None,
    retries: int,
    processes: bool,
):
    """Whole-array predictors: predict once, shard only the block encode.

    A whole-array predictor's transform spans the full field, so cutting
    the *data* into shards would silently change what gets predicted
    (each shard would degenerate to prediction over its own slice and the
    stream would differ from serial).
    Instead, quantization and prediction run once over the whole array —
    both are vectorized single passes — and the pool parallelizes the
    expensive part that *is* block-local: sign split, bit-length scan,
    and bit-shuffle over ranges of residual blocks. The output is one
    plain CSZ1 stream, byte-identical for every ``jobs=`` value and to
    the serial ``compress()`` under the same container options.
    """
    from repro.core.blocks import partition_blocks
    from repro.core.compressor import CompressionResult, assemble_stream
    from repro.core.format import DEFAULT_CRC_GROUP, make_header
    from repro.core.quantize import prequantize_verified

    out_dtype = np.float64 if arr.dtype == np.float64 else np.float32
    codes, eps_eff = prequantize_verified(arr, bound, dtype=out_dtype)
    residuals_nd = codec.predictor.predict(codes)
    blocks, n = partition_blocks(residuals_nd, codec.block_size)
    num_blocks = int(blocks.shape[0])
    shard_blocks = max(shard_elements // codec.block_size, 1)
    ranges = [
        (b0, min(b0 + shard_blocks, num_blocks))
        for b0 in range(0, num_blocks, shard_blocks)
    ]
    work = [
        (blocks[b0:b1], codec.header_width, codec.fast) for b0, b1 in ranges
    ]
    results, _ = run_pool_resilient(
        _encode_range_worker, work, jobs,
        processes=processes, timeout=timeout, retries=retries,
        metrics=metrics,
    )
    fl = (
        np.concatenate([r[0] for r in results])
        if results
        else np.zeros(0, dtype=np.int64)
    )
    body = b"".join(r[1] for r in results)
    header = make_header(
        arr.shape,
        eps_eff,
        header_width=codec.header_width,
        block_size=codec.block_size,
        predictor=codec.predictor.name,
        dtype="f8" if out_dtype == np.float64 else "f4",
        indexed=index,
        checksum=checksum,
        crc_group=DEFAULT_CRC_GROUP if crc_group is None else int(crc_group),
    )
    stream = assemble_stream(header, fl, body)
    if metrics is not None:
        metrics.counter(
            "host.shards", "super-shards compressed by the shard engine"
        ).inc(len(ranges), direction="compress")
        metrics.counter("host.bytes_in", "bytes entering the host codec").inc(
            arr.size * arr.dtype.itemsize, direction="compress"
        )
        metrics.counter("host.bytes_out", "bytes leaving the host codec").inc(
            len(stream), direction="compress"
        )
    return CompressionResult(
        stream=stream,
        eps=bound,
        original_bytes=n * arr.dtype.itemsize,
        shape=tuple(arr.shape),
        fixed_lengths=fl,
        zero_block_fraction=float(np.mean(fl == 0)) if fl.size else 0.0,
    )


def _decompress_shard_worker(args):
    """Module-level (hence process-picklable) shard decompression."""
    codec, payload = args
    return codec.decompress(payload).reshape(-1)


def compress_sharded(
    data: np.ndarray,
    *,
    eps: float | None = None,
    rel: float | None = None,
    psnr: float | None = None,
    codec=None,
    jobs: int | None = None,
    shard_elements: int | None = None,
    index: bool = True,
    metrics=None,
    checksum: bool = False,
    crc_group: int | None = None,
    timeout: float | None = None,
    retries: int = 0,
    processes: bool = False,
):
    """Compress ``data`` into a shard container; returns a CompressionResult.

    A field too small for more than one shard (or a constant field, which
    stores as a bare constant stream) degrades gracefully to the
    single-stream format — ``decompress`` dispatches on magic either way.

    ``metrics`` (a :class:`repro.obs.metrics.MetricsRegistry`) records the
    host-side ``host.shards`` / ``host.bytes_in`` / ``host.bytes_out``
    counters once the container is assembled.

    ``checksum=True`` writes container v2 (shard table protected by a meta
    CRC, per-shard element count recorded for salvage) around v3 shard
    streams; the default stays bit-identical to the legacy v1 container.

    Shards run on :func:`run_pool_resilient`: ``timeout=`` gives each a
    watchdog and ``retries=`` a bounded retry budget, whose exhaustion
    raises a structured :class:`repro.errors.WorkerError` (compression
    never salvages — a container missing a shard would be data loss);
    with the default ``retries=0`` a worker's own error propagates
    unchanged. ``processes=True`` runs workers in processes so the
    watchdog can actually kill a hung one.
    """
    from repro.core.compressor import CereSZ

    codec = codec if codec is not None else CereSZ()
    arr = np.asarray(data)
    if arr.size == 0:
        raise CompressionError("cannot compress an empty array")
    if not np.issubdtype(arr.dtype, np.floating):
        raise CompressionError(
            f"CereSZ compresses floating-point fields, got {arr.dtype}"
        )
    if not (1 <= arr.ndim <= 255):
        raise FormatError(f"unsupported ndim {arr.ndim}")
    bound = codec.resolve_error_bound(arr, eps, rel, psnr)
    if bound is None:
        return codec._compress_constant(arr)

    if shard_elements is None:
        shard_elements = DEFAULT_SHARD_ELEMENTS
    shard_elements = int(shard_elements)
    if shard_elements < codec.block_size:
        raise CompressionError(
            f"shard_elements must be at least one block "
            f"({codec.block_size}), got {shard_elements}"
        )
    # Align shards to block boundaries so the shard cut never splits a block.
    shard_elements -= shard_elements % codec.block_size

    pred = getattr(codec, "predictor", None)
    if pred is not None and not pred.block_local:
        return _compress_predicted_sharded(
            arr, bound, codec, resolve_jobs(jobs), shard_elements, index,
            metrics, checksum, crc_group, timeout, retries, processes,
        )

    flat = arr.reshape(-1)
    bounds = _shard_bounds(flat.size, shard_elements)
    jobs = resolve_jobs(jobs)

    work = [
        (codec, flat[lo:hi], bound, index, checksum, crc_group)
        for lo, hi in bounds
    ]
    results, _ = run_pool_resilient(
        _compress_shard_worker, work, jobs,
        processes=processes, timeout=timeout, retries=retries,
        metrics=metrics,
    )

    from repro.core.compressor import CompressionResult

    flags = _SHARD_FLAG_F64 if arr.dtype == np.float64 else 0
    version = SHARD_VERSION_CHECKSUM if checksum else SHARD_VERSION
    parts = [
        _HEAD.pack(
            SHARD_MAGIC, version, flags, len(results), bound, arr.ndim
        )
    ]
    parts.extend(_DIM.pack(d) for d in arr.shape)
    if checksum:
        parts.append(_DIM.pack(shard_elements))
    parts.extend(_LEN.pack(len(r.stream)) for r in results)
    if checksum:
        from repro.faults.crc32c import crc32c

        parts.append(_META_CRC.pack(crc32c(b"".join(parts))))
    parts.extend(r.stream for r in results)
    stream = b"".join(parts)

    if metrics is not None:
        metrics.counter(
            "host.shards", "super-shards compressed by the shard engine"
        ).inc(len(results), direction="compress")
        metrics.counter("host.bytes_in", "bytes entering the host codec").inc(
            arr.size * arr.dtype.itemsize, direction="compress"
        )
        metrics.counter("host.bytes_out", "bytes leaving the host codec").inc(
            len(stream), direction="compress"
        )

    fl = (
        np.concatenate([r.fixed_lengths for r in results])
        if results
        else np.zeros(0, dtype=np.int64)
    )
    return CompressionResult(
        stream=stream,
        eps=bound,
        original_bytes=arr.size * arr.dtype.itemsize,
        shape=tuple(arr.shape),
        fixed_lengths=fl,
        zero_block_fraction=float(np.mean(fl == 0)) if fl.size else 0.0,
    )


@dataclass(frozen=True)
class ShardContainer:
    """Parsed shard-container metadata (both versions)."""

    shape: tuple[int, ...]
    is_f64: bool
    eps: float
    #: Byte span ``(start, stop)`` of each shard's self-describing stream.
    spans: tuple[tuple[int, int], ...]
    version: int = SHARD_VERSION
    #: Elements per shard (the last shard may hold fewer); ``None`` on v1
    #: containers, which do not record it.
    shard_elements: int | None = None
    #: v2: whether the stored meta CRC matches the shard table. Always
    #: True on v1 (nothing to check).
    meta_ok: bool = True

    @property
    def checksummed(self) -> bool:
        return self.version >= SHARD_VERSION_CHECKSUM

    @property
    def num_elements(self) -> int:
        n = 1
        for d in self.shape:
            n *= d
        return n if self.shape else 0


def read_shard_container(stream: bytes) -> ShardContainer:
    """Parse a shard container's header and shard table (v1 or v2).

    All structural corruption — truncation, impossible counts, spans past
    the end — raises :class:`repro.errors.ContainerError` with the byte
    offset where parsing failed; no raw ``struct.error`` / ``IndexError``
    escapes. A v2 container whose meta CRC does not match is *parsed
    anyway* with ``meta_ok=False``, so salvage readers can still try the
    spans; strict readers must check the flag.
    """
    if len(stream) < _HEAD.size:
        raise ContainerError(
            "shard container shorter than its header", offset=len(stream)
        )
    try:
        magic, version, flags, num_shards, eps, ndim = _HEAD.unpack(
            bytes(stream[: _HEAD.size])
        )
    except struct.error as exc:  # pragma: no cover - length checked above
        raise ContainerError(f"unreadable shard header: {exc}", offset=0)
    if magic != SHARD_MAGIC:
        raise ContainerError(
            f"bad shard-container magic {magic!r}", offset=0
        )
    if version not in (SHARD_VERSION, SHARD_VERSION_CHECKSUM):
        raise ContainerError(
            f"unsupported shard-container version {version}", offset=4
        )
    if num_shards == 0:
        raise ContainerError("shard container holds no shards", offset=6)
    checksummed = version == SHARD_VERSION_CHECKSUM
    pos = _HEAD.size
    remaining = len(stream) - pos
    table_bytes = ndim * _DIM.size + num_shards * _LEN.size
    if checksummed:
        table_bytes += _DIM.size + _META_CRC.size
    if table_bytes > remaining:
        raise ContainerError(
            f"shard container of {len(stream)} bytes cannot hold {ndim} "
            f"dims and {num_shards} shard lengths",
            offset=pos,
        )
    dims = []
    for _ in range(ndim):
        dims.append(_DIM.unpack_from(stream, pos)[0])
        pos += _DIM.size
    shard_elements = None
    if checksummed:
        shard_elements = int(_DIM.unpack_from(stream, pos)[0])
        pos += _DIM.size
        if shard_elements < 1:
            raise ContainerError(
                f"corrupt shard_elements {shard_elements}", offset=pos
            )
    spans = []
    lengths = []
    for _ in range(num_shards):
        (length,) = _LEN.unpack_from(stream, pos)
        pos += _LEN.size
        if length > len(stream):
            raise ContainerError(
                "shard length exceeds the container", offset=pos
            )
        lengths.append(int(length))
    meta_ok = True
    if checksummed:
        from repro.faults.crc32c import crc32c

        stored = _META_CRC.unpack_from(stream, pos)[0]
        meta_ok = crc32c(bytes(stream[:pos])) == stored
        pos += _META_CRC.size
    start = pos
    for length in lengths:
        if start + length > len(stream):
            raise ContainerError(
                "shard container truncated in shard payloads", offset=start
            )
        spans.append((start, start + length))
        start += length
    return ShardContainer(
        shape=tuple(int(d) for d in dims),
        is_f64=bool(flags & _SHARD_FLAG_F64),
        eps=float(eps),
        spans=tuple(spans),
        version=version,
        shard_elements=shard_elements,
        meta_ok=meta_ok,
    )


def read_shard_table(
    stream: bytes,
) -> tuple[tuple[int, ...], bool, float, list[tuple[int, int]]]:
    """Parse a shard container's header (strict, legacy 4-tuple shape).

    Returns ``(shape, is_f64, eps, [(start, stop) per shard])`` where the
    spans are byte ranges of the self-describing shard streams. A v2
    container whose meta CRC fails raises :class:`ContainerError` here —
    use :func:`read_shard_container` for the salvage-tolerant view.
    """
    table = read_shard_container(stream)
    if not table.meta_ok:
        raise ContainerError(
            "shard table corrupt: meta CRC mismatch (spans untrustworthy; "
            "salvage decode may still recover shards)",
            offset=0,
        )
    return table.shape, table.is_f64, table.eps, list(table.spans)


def decompress_sharded(
    stream: bytes,
    *,
    codec=None,
    jobs: int | None = None,
    metrics=None,
    timeout: float | None = None,
    retries: int = 0,
    processes: bool = False,
    salvage: bool = False,
) -> np.ndarray:
    """Decode a shard container back to the original field.

    ``metrics`` records the same host-side counters as
    :func:`compress_sharded`, labeled ``direction=decompress``.

    Shards decode on :func:`run_pool_resilient`, which ``timeout=``,
    ``retries=`` and ``processes=`` configure; with none of them a
    corrupt shard's :class:`repro.errors.ContainerError` propagates
    unchanged. ``salvage=True`` instead converts
    terminal worker failures into zero-filled shard spans instead of a
    :class:`repro.errors.WorkerError` — one dead worker costs its shard,
    not the whole decompression (``salvage.shards_lost`` is counted on
    ``metrics``). For *corrupt-byte* salvage with a full report, use
    :func:`repro.core.decompressor.salvage_decompress`.
    """
    from repro.core.compressor import CereSZ

    codec = codec if codec is not None else CereSZ()
    shape, is_f64, _eps, spans = read_shard_table(stream)
    jobs = resolve_jobs(jobs)

    parts, failures = run_pool_resilient(
        _decompress_shard_worker,
        [(codec, bytes(stream[lo:hi])) for lo, hi in spans],
        jobs,
        processes=processes, timeout=timeout, retries=retries,
        salvage=salvage, metrics=metrics,
    )
    if failures:
        from repro.core.decompressor import _shard_element_counts

        table = read_shard_container(stream)
        counts = _shard_element_counts(stream, table, notes=[])
        fill_dtype = np.float64 if is_f64 else np.float32
        for f in failures:
            parts[f.index] = np.zeros(counts[f.index], dtype=fill_dtype)
        if metrics is not None:
            metrics.counter(
                "salvage.shards_lost",
                "whole shards dropped by salvage decode",
            ).inc(len(failures))
    flat = np.concatenate(parts) if len(parts) > 1 else parts[0]
    n = 1
    for d in shape:
        n *= d
    if flat.size != n:
        raise FormatError(
            f"shards decode to {flat.size} elements, container claims {n}"
        )
    out_dtype = np.float64 if is_f64 else np.float32
    out = flat.astype(out_dtype, copy=False).reshape(shape)
    if metrics is not None:
        metrics.counter(
            "host.shards", "super-shards compressed by the shard engine"
        ).inc(len(spans), direction="decompress")
        metrics.counter("host.bytes_in", "bytes entering the host codec").inc(
            len(stream), direction="decompress"
        )
        metrics.counter("host.bytes_out", "bytes leaving the host codec").inc(
            out.size * out.dtype.itemsize, direction="decompress"
        )
    return out
