"""Container v3 integrity metadata: layout, writing, and verification.

A checksummed (v3) stream extends the indexed layout with two tables::

    [ packed global header ... crc_group u16 ]
    [ fl table: u8 * num_blocks ]
    [ group table: (record_bytes u32, crc u32) * num_groups ]
    [ meta_crc u32 ]
    [ block records ... ]

Blocks are partitioned into consecutive *groups* of ``crc_group`` blocks.
Each group's CRC32C covers its slice of the fl table concatenated with its
record bytes, so a flipped byte anywhere — fl entry or payload — fails
exactly one group. ``record_bytes`` is the group's total record size,
letting readers locate every group boundary without trusting the fl table.
``meta_crc`` covers the packed header plus the group table (NOT the fl
table: fl corruption must localize to its group, not poison the whole
stream).

Writing and verifying both hash every group in one call to
:func:`repro.faults.crc32c.crc32c_many`, whose 64-byte lanes advance all
groups together.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.core.encoding import record_sizes
from repro.core.format import StreamHeader
from repro.errors import ContainerError
from repro.faults.crc32c import crc32c, crc32c_many

_GROUP_ENTRY_BYTES = 8  # record_bytes u32, crc32c u32
_META_CRC = struct.Struct("<I")


@dataclass(frozen=True)
class ChecksumLayout:
    """Parsed v3 integrity tables (raw, not yet verified)."""

    #: Per-block fixed lengths as read from the stream — unvalidated;
    #: trust an entry only after its group's CRC checks out.
    fls: np.ndarray
    #: Absolute byte offset of the fl table.
    fl_start: int
    #: Per-group record byte counts from the group table.
    group_bytes: np.ndarray
    #: Stored per-group CRC32C values (uint32).
    group_crcs: np.ndarray
    #: Absolute byte offset of each group's first record (int64,
    #: ``num_groups + 1`` entries — the last is one-past-the-end).
    group_offsets: np.ndarray
    #: Absolute byte offset of the first block record.
    records_start: int
    #: Stored meta CRC and whether it matches the header + group table.
    meta_crc: int
    meta_ok: bool

    @property
    def num_groups(self) -> int:
        return len(self.group_bytes)


def group_block_spans(num_blocks: int, crc_group: int) -> np.ndarray:
    """Block-index boundaries of each CRC group: shape (num_groups + 1,)."""
    edges = np.arange(0, num_blocks + crc_group, crc_group, dtype=np.int64)
    edges[-1] = num_blocks
    return edges[: -(-num_blocks // crc_group) + 1] if num_blocks else edges[:1]


def compute_group_crcs(
    header: StreamHeader,
    fl_table: bytes | np.ndarray,
    body: bytes | np.ndarray,
    group_bytes: np.ndarray,
) -> np.ndarray:
    """Actual CRC32C of the first ``len(group_bytes)`` groups: crc(fl slice
    ++ record slice).

    ``group_bytes`` supplies the record span of each group (from the
    meta-verified group table on read, or from the fl table on write), so
    groups stay locatable even when their fl entries are corrupt.
    """
    edges = group_block_spans(header.num_blocks, header.crc_group)
    edges = edges[: len(group_bytes) + 1]
    rec_starts = np.cumsum(group_bytes, dtype=np.int64) - group_bytes
    fl_crcs = crc32c_many(fl_table, edges[:-1], np.diff(edges))
    return crc32c_many(body, rec_starts, group_bytes, init=fl_crcs)


def build_checksummed_tail(
    header: StreamHeader, fl_table: bytes, body: bytes, head: bytes
) -> bytes:
    """Group table + meta CRC for a v3 stream (goes between fl and body)."""
    fls = np.frombuffer(fl_table, dtype=np.uint8).astype(np.int64)
    sizes = record_sizes(fls, header.block_size, header.header_width)
    edges = group_block_spans(header.num_blocks, header.crc_group)
    group_bytes = np.add.reduceat(sizes, edges[:-1])
    entries = np.empty((group_bytes.size, 2), dtype="<u4")
    entries[:, 0] = group_bytes
    entries[:, 1] = compute_group_crcs(header, fl_table, body, group_bytes)
    table = entries.tobytes()
    return table + _META_CRC.pack(crc32c(head + table))


def read_checksum_layout(
    stream: bytes | memoryview, header: StreamHeader, offset: int
) -> ChecksumLayout:
    """Parse the fl + group tables of a v3 stream.

    Raises :class:`ContainerError` when the tables themselves are
    truncated (nothing to salvage without them); a bad meta CRC is
    reported via :attr:`ChecksumLayout.meta_ok`, not raised, so salvage
    callers can decide.
    """
    nb = header.num_blocks
    ng = header.num_groups
    fl_start = offset
    table_start = fl_start + nb
    meta_start = table_start + ng * _GROUP_ENTRY_BYTES
    records_start = meta_start + _META_CRC.size
    if len(stream) < records_start:
        raise ContainerError(
            f"stream truncated in integrity tables: need {records_start} "
            f"bytes for header + fl + group tables, have {len(stream)}",
            offset=len(stream),
        )
    fls = np.frombuffer(
        stream, dtype=np.uint8, count=nb, offset=fl_start
    ).astype(np.int64)
    raw = np.frombuffer(
        stream, dtype="<u4", count=2 * ng, offset=table_start
    ).reshape(ng, 2)
    group_bytes = raw[:, 0].astype(np.int64)
    group_crcs = raw[:, 1].astype(np.uint32)
    meta_crc = _META_CRC.unpack_from(stream, meta_start)[0]
    meta_ok = crc32c(bytes(stream[:offset]) + raw.tobytes()) == meta_crc
    group_offsets = np.zeros(ng + 1, dtype=np.int64)
    np.cumsum(group_bytes, out=group_offsets[1:])
    group_offsets += records_start
    return ChecksumLayout(
        fls=fls,
        fl_start=fl_start,
        group_bytes=group_bytes,
        group_crcs=group_crcs,
        group_offsets=group_offsets,
        records_start=records_start,
        meta_crc=meta_crc,
        meta_ok=meta_ok,
    )


def verify_groups(
    stream: bytes | memoryview, header: StreamHeader, layout: ChecksumLayout
) -> np.ndarray:
    """Indices of groups whose stored CRC does not match the stream.

    A group whose record span runs past the end of the stream is corrupt
    by definition (truncation) and is reported without hashing.
    """
    # Group ends only grow, so truncation cuts off a suffix of the groups.
    intact = int(
        np.searchsorted(layout.group_offsets[1:], len(stream), side="right")
    )
    actual = compute_group_crcs(
        header,
        np.frombuffer(
            stream, np.uint8, count=header.num_blocks, offset=layout.fl_start
        ),
        np.frombuffer(stream, np.uint8, offset=layout.records_start),
        layout.group_bytes[:intact],
    )
    bad = np.ones(layout.num_groups, dtype=bool)
    bad[:intact] = actual != layout.group_crcs[:intact]
    return np.flatnonzero(bad)


def corrupt_blocks_of(
    header: StreamHeader, corrupt_groups: np.ndarray
) -> np.ndarray:
    """Block indices belonging to the given corrupt groups."""
    if len(corrupt_groups) == 0:
        return np.zeros(0, dtype=np.int64)
    edges = group_block_spans(header.num_blocks, header.crc_group)
    parts = [
        np.arange(edges[g], edges[g + 1], dtype=np.int64)
        for g in corrupt_groups.tolist()
    ]
    return np.concatenate(parts)
