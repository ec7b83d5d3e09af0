"""Integrity verification and salvage decoding.

Two entry points over both container families (plain CereSZ streams and
CSZX shard containers):

- :func:`verify_stream` walks every checksum **without decoding payloads**
  and returns an :class:`~repro.faults.report.IntegrityReport` naming the
  corrupt CRC groups/blocks/shards. Pre-CRC (v1/v2) streams get a
  structural walk only.
- :func:`salvage_decompress` decodes everything that still verifies and
  fills what doesn't, returning the reconstruction plus a
  :class:`~repro.faults.report.SalvageReport`. On a checksummed stream the
  blast radius of one flipped byte is one CRC group (``crc_group`` blocks,
  64 by default); every other block comes back bit-exact.

Salvage leans on two v3 design decisions: the group table stores each
group's *record byte count* (so groups stay locatable when their fl
entries are the corrupted bytes), and the meta CRC deliberately excludes
the fl table (so fl corruption fails one group, not the whole stream).
"""

from __future__ import annotations

import numpy as np

from repro.core.compressor import stream_block_layout
from repro.core.encoding import (
    decode_blocks,
    record_sizes,
    scan_record_offsets,
)
from repro.core.format import StreamHeader
from repro.core.integrity import (
    corrupt_blocks_of,
    group_block_spans,
    read_checksum_layout,
    verify_groups,
)
from repro.core.predictors import get_predictor
from repro.core.quantize import dequantize
from repro.errors import ContainerError, FormatError
from repro.faults.report import IntegrityReport, SalvageReport

_MAX_FL = 63


# -- verification (no payload decode) ---------------------------------------


def verify_stream(stream: bytes, *, ledger=None) -> IntegrityReport:
    """Walk a container's checksums; report without decoding payloads.

    Raises :class:`FormatError` only when the outermost header is
    unparseable (nothing to report *about*); every verifiable-but-corrupt
    condition comes back in the report instead.

    ``ledger=`` appends one provenance-stamped RunRecord with the
    verification outcome (a path, ``True`` for the default ledger, or a
    :class:`repro.obs.ledger.Ledger`).
    """
    from repro.core.parallel import is_sharded, read_shard_container

    if ledger is not None:
        import time as _time

        from repro.obs import ledger as _ledger_mod

        t0 = _time.perf_counter()
        report = verify_stream(stream)
        _ledger_mod.emit(
            ledger,
            "verify",
            "verify_stream",
            {
                "op": "verify",
                "kind": report.kind,
                "checksummed": report.checksummed,
                "stream_bytes": len(stream),
            },
            timings={"wall_s": _time.perf_counter() - t0},
            values={
                "verify.ok": float(report.ok),
                "verify.total_blocks": float(report.total_blocks),
                "verify.corrupt_blocks": float(len(report.corrupt_blocks)),
                "verify.corrupt_groups": float(len(report.corrupt_groups)),
            },
        )
        return report
    if is_sharded(stream):
        table = read_shard_container(stream)
        shards = []
        corrupt = []
        total = 0
        for i, (lo, hi) in enumerate(table.spans):
            try:
                sub = verify_stream(stream[lo:hi])
            except FormatError as exc:
                sub = IntegrityReport(
                    kind="ceresz",
                    checksummed=table.checksummed,
                    total_blocks=0,
                    meta_ok=False,
                    note=f"unparseable shard: {exc}",
                )
            shards.append(sub)
            total += sub.total_blocks
            if not sub.ok:
                corrupt.append(i)
        return IntegrityReport(
            kind="sharded",
            checksummed=table.checksummed,
            total_blocks=total,
            shards=tuple(shards),
            corrupt_shards=tuple(corrupt),
            meta_ok=table.meta_ok,
            note="" if table.meta_ok else "shard table meta CRC mismatch",
        )
    return _verify_plain(stream)


def _verify_plain(stream: bytes) -> IntegrityReport:
    header, offset = StreamHeader.unpack(stream)
    if header.constant is not None:
        return IntegrityReport(
            kind="ceresz",
            checksummed=False,
            total_blocks=0,
            note="constant stream (stored exactly; nothing to checksum)",
        )
    if header.checksum:
        try:
            layout = read_checksum_layout(stream, header, offset)
        except ContainerError as exc:
            return IntegrityReport(
                kind="ceresz",
                checksummed=True,
                total_blocks=header.num_blocks,
                meta_ok=False,
                note=str(exc),
            )
        bad = verify_groups(stream, header, layout)
        return IntegrityReport(
            kind="ceresz",
            checksummed=True,
            total_blocks=header.num_blocks,
            corrupt_blocks=tuple(corrupt_blocks_of(header, bad).tolist()),
            corrupt_groups=tuple(bad.tolist()),
            meta_ok=layout.meta_ok,
            note="" if layout.meta_ok else "meta CRC mismatch",
        )
    # Pre-CRC stream: the best we can do is check the layout is walkable.
    try:
        stream_block_layout(stream, header, offset)
        note = "layout walk OK (no checksums to verify)"
        meta_ok = True
    except FormatError as exc:
        note = f"layout walk failed: {exc}"
        meta_ok = False
    return IntegrityReport(
        kind="ceresz",
        checksummed=False,
        total_blocks=header.num_blocks,
        meta_ok=meta_ok,
        note=note,
    )


# -- salvage decode ---------------------------------------------------------


def salvage_decompress(
    stream: bytes,
    *,
    codec=None,
    fill: str = "zero",
    original: np.ndarray | None = None,
    metrics=None,
    ledger=None,
) -> tuple[np.ndarray, SalvageReport]:
    """Decode what verifies, fill what doesn't; never raise on bad bytes.

    Returns ``(reconstruction, SalvageReport)``. Intact blocks come back
    bit-exact; blocks in corrupt CRC groups are filled (``fill="zero"`` or
    ``"previous"``, which extends the last intact value forward). A corrupt
    *leading* region has no intact predecessor to extend, so under
    ``fill="previous"`` it falls back to zero fill — per shard, since CSZX
    shards are independent streams with no cross-shard carry. The fill each
    contiguous lost region actually received is recorded in
    :attr:`SalvageReport.fill_regions`. Only a
    stream whose outermost header or shard table is destroyed still raises
    (:class:`FormatError` / :class:`ContainerError`): with no trustworthy
    geometry there is nothing to salvage *into*.

    ``original=`` (the uncompressed field) additionally audits the error
    bound over the intact region — :attr:`SalvageReport.bound` then says
    whether the lossy guarantee still holds everywhere that was recovered.
    ``metrics=`` records ``salvage.blocks_lost`` / ``salvage.shards_lost``
    counters. ``ledger=`` appends one RunRecord with the salvage outcome.
    """
    from repro.core.parallel import is_sharded

    if ledger is not None:
        import time as _time

        from repro.obs import ledger as _ledger_mod

        t0 = _time.perf_counter()
        values, report = salvage_decompress(
            stream, codec=codec, fill=fill, original=original,
            metrics=metrics,
        )
        _ledger_mod.emit(
            ledger,
            "salvage",
            "salvage_decompress",
            {
                "op": "salvage",
                "fill": fill,
                "stream_bytes": len(stream),
                "audited": original is not None,
            },
            timings={"wall_s": _time.perf_counter() - t0},
            values={
                "salvage.total_blocks": float(report.total_blocks),
                "salvage.blocks_lost": float(report.blocks_lost),
                "salvage.elements_lost": float(report.elements_lost),
                "salvage.shards_lost": float(len(report.shards_lost)),
            },
            metrics=metrics,
        )
        return values, report
    if fill not in ("zero", "previous"):
        raise FormatError(f"fill must be 'zero' or 'previous', got {fill!r}")
    if is_sharded(stream):
        values, intact_mask, report = _salvage_sharded(stream, codec, fill)
    else:
        values, intact_mask, report = _salvage_plain(stream, fill)
    if original is not None:
        from dataclasses import replace

        from repro.metrics.errorbound import locate_bound_violations

        # The header stores eps_eff, tightened by effective_error_bound so
        # the *float32-rounded* reconstruction honors the caller's requested
        # bound; the audit must test that promise, not bare eps_eff, or a
        # healthy value sitting half a ulp past eps_eff reads as corrupt.
        orig = np.asarray(original, dtype=np.float64).reshape(-1)
        audit_eps = report.eps
        if orig.size:
            peak = (float(np.max(np.abs(orig))) + report.eps) * (1.0 + 1e-6)
            audit_eps += 0.5 * float(
                np.spacing(np.asarray(peak, dtype=values.dtype))
            )
        report = replace(
            report,
            bound=locate_bound_violations(
                orig,
                values.reshape(-1),
                audit_eps,
                mask=intact_mask,
            ),
        )
    if metrics is not None:
        metrics.counter(
            "salvage.blocks_lost", "blocks dropped by salvage decode"
        ).inc(report.blocks_lost)
        metrics.counter(
            "salvage.shards_lost", "whole shards dropped by salvage decode"
        ).inc(len(report.shards_lost))
    return values, report


def _salvage_plain(
    stream: bytes, fill: str
) -> tuple[np.ndarray, np.ndarray, SalvageReport]:
    """Salvage one CereSZ stream; returns (values, intact mask, report)."""
    header, offset = StreamHeader.unpack(stream)
    out_dtype = np.float64 if header.dtype == "f8" else np.float32
    n = header.num_elements
    if header.constant is not None:
        values = np.full(n, header.constant, dtype=out_dtype)
        report = SalvageReport(
            total_elements=n, total_blocks=0, blocks_lost=0,
            elements_lost=0, fill=fill, eps=header.eps,
        )
        return values.reshape(header.shape), np.ones(n, dtype=bool), report

    nb = header.num_blocks
    L = header.block_size
    notes: list[str] = []
    if header.checksum:
        fls, offsets, valid = _checksummed_salvage_layout(
            stream, header, offset, notes
        )
    else:
        fls, offsets, valid = _structural_salvage_layout(
            stream, header, offset, notes
        )

    residuals = np.zeros((nb, L), dtype=np.int64)
    intact = np.nonzero(valid)[0]
    if intact.size:
        decoded = decode_blocks(
            stream,
            int(intact.size),
            L,
            header.header_width,
            offsets=offsets[intact],
            fls=fls[intact],
        )
        residuals[intact] = decoded

    values = np.zeros(nb * L, dtype=out_dtype)
    fill_regions: list[tuple[int, int, str]] = []
    pred = get_predictor(header.predictor)
    if not pred.block_local:
        flat = residuals.reshape(-1)[:n]
        codes = pred.reconstruct(flat.reshape(header.shape))
        values[:n] = dequantize(
            codes, header.eps, dtype=out_dtype
        ).reshape(-1)
        if intact.size < nb:
            notes.append(
                f"{pred.name} predictor is whole-array: reconstruction "
                f"may drift after the first lost block (global "
                f"dependency)"
            )
            # Lost whole-array blocks reconstruct from zero residuals;
            # there is no meaningful "previous" carry under a global
            # dependency.
            fill_regions = [
                (a, b, "zero") for a, b in _lost_runs(np.nonzero(~valid)[0])
            ]
            if fill == "previous":
                notes.append(
                    f"{pred.name} predictor: 'previous' fill not "
                    f"applicable, lost regions reconstructed from zero "
                    f"residuals"
                )
    else:
        if intact.size:
            codes = pred.reconstruct_blocks(residuals[intact])
            values.reshape(-1, L)[intact] = dequantize(
                codes, header.eps, dtype=out_dtype
            )
        lost = np.nonzero(~valid)[0]
        blocks = values.reshape(-1, L)
        for start, stop in _lost_runs(lost):
            effective = "zero"
            if fill == "previous":
                # The nearest intact predecessor is shared by the whole
                # contiguous run (no intact block sits inside it).
                p = int(np.searchsorted(intact, start)) - 1
                if p >= 0:
                    blocks[start:stop] = blocks[intact[p], -1]
                    effective = "previous"
                else:
                    # Defined fallback: a corrupt *leading* run has no
                    # intact predecessor to carry forward, so it is
                    # explicitly zero-filled (the buffer is already
                    # zeroed) rather than left to incidental behavior.
                    notes.append(
                        f"leading corrupt region [0, {stop}): no intact "
                        f"predecessor, zero-filled"
                    )
            fill_regions.append((start, stop, effective))

    values = values[:n]
    elem_mask = np.zeros(nb * L, dtype=bool)
    elem_mask.reshape(-1, L)[intact] = True
    elem_mask = elem_mask[:n]
    lost_blocks = np.nonzero(~valid)[0]
    report = SalvageReport(
        total_elements=n,
        total_blocks=nb,
        blocks_lost=int(lost_blocks.size),
        elements_lost=int(n - np.count_nonzero(elem_mask)),
        lost_block_indices=tuple(lost_blocks.tolist()),
        fill=fill,
        fill_regions=tuple(fill_regions),
        eps=header.eps,
        notes=tuple(notes),
    )
    return values.reshape(header.shape), elem_mask, report


def _lost_runs(lost: np.ndarray) -> list[tuple[int, int]]:
    """Contiguous runs of lost block indices as half-open ``(start, stop)``."""
    if lost.size == 0:
        return []
    breaks = np.nonzero(np.diff(lost) > 1)[0]
    starts = lost[np.concatenate(([0], breaks + 1))]
    stops = lost[np.concatenate((breaks, [lost.size - 1]))] + 1
    return [(int(a), int(b)) for a, b in zip(starts, stops)]


def _checksummed_salvage_layout(
    stream: bytes, header: StreamHeader, offset: int, notes: list[str]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(fls, offsets, valid-block mask) of a v3 stream under salvage.

    With a good meta CRC every group is independently locatable from the
    stored record byte counts, so offsets inside intact groups are exact
    even when *other* groups' fl entries are the corrupt bytes. A failed
    meta CRC demotes the stream to the structural (fl-cumsum) walk.
    """
    layout = read_checksum_layout(stream, header, offset)
    nb = header.num_blocks
    if not layout.meta_ok:
        notes.append(
            "meta CRC mismatch: group table untrustworthy, falling back "
            "to structural fl walk"
        )
        return _indexed_salvage_walk(
            stream, header, layout.fls, layout.records_start, notes
        )
    bad_groups = verify_groups(stream, header, layout)
    valid = np.ones(nb, dtype=bool)
    if bad_groups.size:
        valid[corrupt_blocks_of(header, bad_groups)] = False
        notes.append(
            f"{bad_groups.size} of {layout.num_groups} CRC groups corrupt"
        )
    sizes = record_sizes(layout.fls, header.block_size, header.header_width)
    within = np.cumsum(sizes, dtype=np.int64) - sizes
    edges = group_block_spans(nb, header.crc_group)
    group_of = np.repeat(
        np.arange(layout.num_groups, dtype=np.int64), np.diff(edges)
    )
    base = within[edges[:-1]]
    offsets = (
        layout.group_offsets[:-1][group_of] + within - base[group_of]
    )
    return layout.fls, offsets, valid


def _structural_salvage_layout(
    stream: bytes, header: StreamHeader, offset: int, notes: list[str]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best-effort layout of a pre-CRC stream (truncation salvage only)."""
    nb = header.num_blocks
    if header.indexed:
        fl_end = offset + nb
        if len(stream) < fl_end:
            notes.append("fl table truncated: nothing salvageable")
            return (
                np.zeros(nb, dtype=np.int64),
                np.zeros(nb, dtype=np.int64),
                np.zeros(nb, dtype=bool),
            )
        fls = np.frombuffer(
            stream, dtype=np.uint8, count=nb, offset=offset
        ).astype(np.int64)
        return _indexed_salvage_walk(stream, header, fls, fl_end, notes)
    # v1: records only discoverable by the sequential header walk, which
    # either succeeds completely or leaves no trustworthy geometry.
    try:
        offsets, fls = scan_record_offsets(
            stream, nb, header.block_size, header.header_width, start=offset
        )
        return fls, offsets, np.ones(nb, dtype=bool)
    except FormatError as exc:
        notes.append(
            f"v1 stream walk failed ({exc}): no index to salvage from"
        )
        return (
            np.zeros(nb, dtype=np.int64),
            np.zeros(nb, dtype=np.int64),
            np.zeros(nb, dtype=bool),
        )


def _indexed_salvage_walk(
    stream: bytes,
    header: StreamHeader,
    fls: np.ndarray,
    records_start: int,
    notes: list[str],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Offsets from an (untrusted) fl table: valid up to the first bad fl,
    and only where the record span still fits inside the stream."""
    nb = header.num_blocks
    valid = np.ones(nb, dtype=bool)
    bad_fl = np.nonzero(fls > _MAX_FL)[0]
    if bad_fl.size:
        # Offsets are a cumsum over record sizes: one corrupt fl entry
        # shifts every later offset, so trust ends there.
        first = int(bad_fl[0])
        valid[first:] = False
        notes.append(
            f"fl table corrupt at block {first}: blocks {first}..{nb - 1} "
            f"unlocatable without checksums"
        )
    sizes = record_sizes(
        np.clip(fls, 0, _MAX_FL), header.block_size, header.header_width
    )
    offsets = records_start + np.cumsum(sizes, dtype=np.int64) - sizes
    overrun = offsets + sizes > len(stream)
    if overrun.any() and valid[overrun].any():
        notes.append(
            f"{int(np.count_nonzero(overrun & valid))} block records "
            f"truncated off the end of the stream"
        )
    valid &= ~overrun
    return fls, offsets, valid


def _salvage_sharded(
    stream: bytes, codec, fill: str
) -> tuple[np.ndarray, np.ndarray, SalvageReport]:
    from repro.core.compressor import CereSZ
    from repro.core.parallel import read_shard_container

    codec = codec if codec is not None else CereSZ()
    table = read_shard_container(stream)
    n = table.num_elements
    out_dtype = np.float64 if table.is_f64 else np.float32
    notes: list[str] = []
    if not table.meta_ok:
        notes.append(
            "shard table meta CRC mismatch: spans taken on faith"
        )
    k = len(table.spans)
    elems = _shard_element_counts(stream, table, notes)
    values = np.zeros(n, dtype=out_dtype)
    intact = np.zeros(n, dtype=bool)
    shards_lost: list[int] = []
    lost_blocks: list[int] = []
    fill_regions: list[tuple[int, int, str]] = []
    blocks_lost = 0
    total_blocks = 0
    elements_lost = 0
    block_base = 0
    lo_elem = 0
    for i in range(k):
        lo, hi = table.spans[i]
        count = elems[i]
        hi_elem = lo_elem + count
        shard_blocks = -(-count // codec.block_size)
        total_blocks += shard_blocks
        try:
            flat = codec.decompress(bytes(stream[lo:hi])).reshape(-1)
            if flat.size != count:
                raise FormatError(
                    f"shard {i} decodes to {flat.size} elements, "
                    f"expected {count}"
                )
            values[lo_elem:hi_elem] = flat
            intact[lo_elem:hi_elem] = True
        except FormatError:
            try:
                part, mask, sub = _salvage_plain(bytes(stream[lo:hi]), fill)
                flat = part.reshape(-1)
                if flat.size != count:
                    raise FormatError(
                        f"shard {i} salvages to {flat.size} elements, "
                        f"expected {count}"
                    )
                values[lo_elem:hi_elem] = flat
                intact[lo_elem:hi_elem] = mask
                blocks_lost += sub.blocks_lost
                elements_lost += sub.elements_lost
                lost_blocks.extend(
                    block_base + b for b in sub.lost_block_indices
                )
                # Shards are independent streams: a corrupt leading group
                # of *any* shard has no intact predecessor within its own
                # stream and zero-fills, which the sub-report's effective
                # fill already records — only the block numbering shifts.
                fill_regions.extend(
                    (block_base + a, block_base + b, eff)
                    for a, b, eff in sub.fill_regions
                )
                if sub.blocks_lost:
                    notes.append(
                        f"shard {i}: lost {sub.blocks_lost}/"
                        f"{sub.total_blocks} blocks"
                    )
            except FormatError as exc:
                shards_lost.append(i)
                blocks_lost += shard_blocks
                elements_lost += count
                lost_blocks.extend(
                    range(block_base, block_base + shard_blocks)
                )
                fill_regions.append(
                    (block_base, block_base + shard_blocks, "zero")
                )
                notes.append(f"shard {i} unrecoverable: {exc}")
        block_base += shard_blocks
        lo_elem = hi_elem
    report = SalvageReport(
        total_elements=n,
        total_blocks=total_blocks,
        blocks_lost=blocks_lost,
        elements_lost=elements_lost,
        lost_block_indices=tuple(lost_blocks),
        shards_lost=tuple(shards_lost),
        fill=fill,
        fill_regions=tuple(fill_regions),
        eps=table.eps,
        notes=tuple(notes),
    )
    return values.reshape(table.shape), intact, report


def _shard_element_counts(
    stream: bytes, table, notes: list[str]
) -> list[int]:
    """Elements per shard, robust to unparseable shard headers.

    v2 containers record ``shard_elements`` directly. For v1, every shard
    but the last holds the same count by construction, so one parseable
    non-final shard header pins them all; the last shard takes the
    remainder.
    """
    n = table.num_elements
    k = len(table.spans)
    se = table.shard_elements
    if se is None:
        for i, (lo, hi) in enumerate(table.spans[: max(k - 1, 1)]):
            try:
                sub, _ = StreamHeader.unpack(stream[lo:hi])
                se = sub.num_elements
                break
            except FormatError:
                continue
        if se is None:
            notes.append(
                "no shard header parseable: assuming equal shard sizes"
            )
            se = -(-n // k)
    if k == 1:
        return [n]
    counts = [min(se, n - i * se) for i in range(k)]
    if any(c <= 0 for c in counts) or sum(counts) != n:
        notes.append(
            f"shard geometry inconsistent (shard_elements={se}, "
            f"n={n}, shards={k}); proportional split assumed"
        )
        base = n // k
        counts = [base] * k
        counts[-1] = n - base * (k - 1)
    return counts
