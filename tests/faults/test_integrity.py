"""Container integrity (CSZ1 v3 / CSZX v2) and salvage decoding.

The blast-radius contract: one flipped byte in a checksummed stream costs
at most one CRC group of blocks; everything else decodes bit-exact, and
``verify`` locates the damage without decoding a single payload.
"""

import numpy as np
import pytest

from repro.core.compressor import CereSZ
from repro.core.decompressor import salvage_decompress, verify_stream
from repro.core.encoding import record_sizes
from repro.core.format import (
    DEFAULT_CRC_GROUP,
    FORMAT_VERSION_CHECKSUM,
    StreamHeader,
)
from repro.core.integrity import read_checksum_layout
from repro.core.parallel import (
    compress_sharded,
    read_shard_container,
    read_shard_table,
)
from repro.errors import ContainerError, FormatError
from repro.obs.metrics import MetricsRegistry

EPS = 1e-3


def _field(n: int = 20_000, seed: int = 2) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=n).cumsum().astype(np.float32)


def _flip(stream: bytes, at: int, bit: int = 0x01) -> bytes:
    buf = bytearray(stream)
    buf[at] ^= bit
    return bytes(buf)


def _layout(stream: bytes):
    header, offset = StreamHeader.unpack(stream)
    return header, read_checksum_layout(stream, header, offset)


class TestRoundTrip:
    def test_checksummed_stream_decodes_bit_exact(self):
        codec = CereSZ()
        data = _field()
        res = codec.compress(data, eps=EPS, checksum=True)
        plain = codec.compress(data, eps=EPS, index=True)
        out = codec.decompress(res.stream)
        assert np.array_equal(out, codec.decompress(plain.stream))
        header, _ = StreamHeader.unpack(res.stream)
        assert header.version == FORMAT_VERSION_CHECKSUM
        assert header.checksum and header.indexed
        assert header.crc_group == DEFAULT_CRC_GROUP

    def test_overhead_under_two_percent(self):
        codec = CereSZ()
        data = _field()
        with_crc = codec.compress(data, eps=EPS, checksum=True)
        without = codec.compress(data, eps=EPS, index=True)
        overhead = (len(with_crc.stream) - len(without.stream)) / len(
            without.stream
        )
        assert overhead < 0.02

    def test_legacy_streams_unchanged(self):
        """Default compression must stay byte-identical to pre-CRC output:
        no version bump, no flag, no hidden tail."""
        codec = CereSZ()
        data = _field(4000)
        stream = codec.compress(data, eps=EPS, index=True).stream
        header, _ = StreamHeader.unpack(stream)
        assert not header.checksum
        assert header.crc_group == 0
        assert header.index_bytes == header.num_blocks

    def test_custom_crc_group(self):
        codec = CereSZ()
        res = codec.compress(_field(8000), eps=EPS, checksum=True, crc_group=8)
        header, layout = _layout(res.stream)
        assert header.crc_group == 8
        assert layout.num_groups == -(-header.num_blocks // 8)
        assert np.array_equal(codec.decompress(res.stream), codec.decompress(res.stream))


class TestVerify:
    def test_clean_stream_verifies_ok(self):
        res = CereSZ().compress(_field(), eps=EPS, checksum=True)
        report = verify_stream(res.stream)
        assert report.ok
        assert report.checksummed
        assert report.total_blocks > 0
        assert report.corrupt_blocks == ()

    def test_payload_flip_located_to_one_group(self):
        res = CereSZ().compress(_field(), eps=EPS, checksum=True, crc_group=8)
        header, layout = _layout(res.stream)
        bad = _flip(res.stream, layout.records_start + 5)
        report = verify_stream(bad)
        assert not report.ok
        assert report.meta_ok
        assert len(report.corrupt_groups) == 1
        assert len(report.corrupt_blocks) <= 8
        assert 0 in report.corrupt_groups

    def test_meta_flip_reported_not_raised(self):
        res = CereSZ().compress(_field(4000), eps=EPS, checksum=True)
        header, layout = _layout(res.stream)
        bad = _flip(res.stream, layout.records_start - 1)  # meta CRC bytes
        report = verify_stream(bad)
        assert not report.ok
        assert not report.meta_ok

    def test_truncated_tables_reported_not_raised(self):
        res = CereSZ().compress(_field(4000), eps=EPS, checksum=True)
        _, layout = _layout(res.stream)
        report = verify_stream(res.stream[: layout.records_start - 2])
        assert not report.ok
        assert not report.meta_ok

    def test_pre_crc_stream_gets_structural_walk(self):
        res = CereSZ().compress(_field(4000), eps=EPS, index=True)
        report = verify_stream(res.stream)
        assert not report.checksummed
        assert report.meta_ok
        assert "no checksums" in report.describe()


class TestMultiLaneLocalization:
    """The CRC kernel hashes 64-byte lanes and folds them per group; a
    flip anywhere in a group several lanes long, with a byte length that
    leaves a partial word in its padded first lane, must still fail that
    group alone."""

    def test_every_byte_of_a_multi_lane_group(self):
        codec = CereSZ(block_size=24)  # odd record sizes: 7 + 3 * fl bytes
        data = _field(24 * 8 * 5, seed=4)
        res = codec.compress(data, eps=EPS, checksum=True, crc_group=8)
        header, layout = _layout(res.stream)
        sizes = layout.group_bytes.tolist()
        group = next(
            g for g in range(1, layout.num_groups - 1)
            if sizes[g] > 2 * 64 and sizes[g] % 4
        )
        lo, hi = group * 8, (group + 1) * 8  # the group's blocks
        targets = list(
            range(layout.group_offsets[group], layout.group_offsets[group + 1])
        ) + list(range(layout.fl_start + lo, layout.fl_start + hi))
        base = codec.decompress(res.stream).reshape(-1)
        L = codec.block_size
        for at in targets:
            bad = _flip(res.stream, at, 1 << (at % 8))
            assert verify_stream(bad).corrupt_groups == (group,), at
            values, report = salvage_decompress(bad)
            assert set(report.lost_block_indices) <= set(range(lo, hi)), at
            flat = values.reshape(-1)
            assert np.array_equal(flat[: lo * L], base[: lo * L]), at
            assert np.array_equal(flat[hi * L :], base[hi * L :]), at


class TestStrictDecode:
    def test_corrupt_payload_raises_container_error(self):
        codec = CereSZ()
        res = codec.compress(_field(), eps=EPS, checksum=True, crc_group=8)
        _, layout = _layout(res.stream)
        bad = _flip(res.stream, layout.records_start + 100)
        with pytest.raises(ContainerError) as exc_info:
            codec.decompress(bad)
        assert exc_info.value.groups  # names the corrupt groups
        assert exc_info.value.blocks

    def test_corrupt_meta_raises_container_error(self):
        codec = CereSZ()
        res = codec.compress(_field(4000), eps=EPS, checksum=True)
        _, layout = _layout(res.stream)
        bad = _flip(res.stream, layout.records_start - 3)
        with pytest.raises(ContainerError, match="meta CRC"):
            codec.decompress(bad)


class TestSalvage:
    def test_payload_flip_costs_exactly_one_group(self):
        codec = CereSZ()
        data = _field()
        res = codec.compress(data, eps=EPS, checksum=True, crc_group=8)
        baseline = codec.decompress(res.stream)
        _, layout = _layout(res.stream)
        bad = _flip(res.stream, layout.records_start + 17)
        values, report = salvage_decompress(bad, original=data)
        assert not report.clean
        assert report.blocks_lost <= 8
        assert report.fill == "zero"
        # Every block outside the lost set is bit-exact.
        L = CereSZ().block_size
        lost = set(report.lost_block_indices)
        blocks = values.reshape(-1)
        base = baseline.reshape(-1)
        for b in range(report.total_blocks):
            lo, hi = b * L, min((b + 1) * L, base.size)
            if b in lost:
                assert np.all(blocks[lo:hi] == 0)
            else:
                assert np.array_equal(blocks[lo:hi], base[lo:hi]), b
        # The error bound still holds everywhere that was recovered.
        assert report.bound is not None and report.bound.ok
        assert report.bound.checked == data.size - report.elements_lost

    def test_fl_flip_localized_by_group_table(self):
        """The group table stores record byte counts, so corrupting a block's
        fl entry must not shift any *other* group's offsets."""
        codec = CereSZ()
        data = _field()
        res = codec.compress(data, eps=EPS, checksum=True, crc_group=8)
        baseline = codec.decompress(res.stream)
        header, layout = _layout(res.stream)
        bad = _flip(res.stream, layout.fl_start + 3, bit=0x80)  # block 3's fl
        values, report = salvage_decompress(bad, original=data)
        assert report.blocks_lost <= header.crc_group
        assert all(b < 8 for b in report.lost_block_indices)  # group 0 only
        L = codec.block_size
        assert np.array_equal(
            values.reshape(-1)[8 * L :], baseline.reshape(-1)[8 * L :]
        )
        assert report.bound.ok

    def test_meta_flip_falls_back_to_full_recovery(self):
        """Destroying the group table leaves the records untouched, so the
        structural fl walk recovers everything bit-exact."""
        codec = CereSZ()
        data = _field(4000)
        res = codec.compress(data, eps=EPS, checksum=True)
        baseline = codec.decompress(res.stream)
        _, layout = _layout(res.stream)
        bad = _flip(res.stream, layout.records_start - 2)
        values, report = salvage_decompress(bad, original=data)
        assert report.blocks_lost == 0
        assert np.array_equal(values, baseline)
        assert any("meta CRC" in n for n in report.notes)

    def test_previous_fill_extends_last_intact_value(self):
        codec = CereSZ()
        data = _field()
        res = codec.compress(data, eps=EPS, checksum=True, crc_group=4)
        baseline = codec.decompress(res.stream).reshape(-1)
        _, layout = _layout(res.stream)
        # Corrupt the *second* group so a preceding intact block exists.
        group1_start = int(layout.group_offsets[1])
        bad = _flip(res.stream, group1_start + 1)
        values, report = salvage_decompress(bad, fill="previous")
        assert report.fill == "previous"
        assert report.blocks_lost > 0
        first_lost = report.lost_block_indices[0]
        L = codec.block_size
        fill_value = values.reshape(-1)[first_lost * L]
        assert fill_value == baseline[first_lost * L - 1]
        assert np.all(
            values.reshape(-1)[first_lost * L : (first_lost + 1) * L]
            == fill_value
        )

    def test_bad_fill_rejected(self):
        res = CereSZ().compress(_field(2000), eps=EPS, checksum=True)
        with pytest.raises(FormatError, match="fill"):
            salvage_decompress(res.stream, fill="interpolate")

    def test_clean_stream_salvages_clean(self):
        codec = CereSZ()
        data = _field(4000)
        res = codec.compress(data, eps=EPS, checksum=True)
        values, report = salvage_decompress(res.stream, original=data)
        assert report.clean
        assert np.array_equal(values, codec.decompress(res.stream))

    def test_metrics_count_losses(self):
        codec = CereSZ()
        res = codec.compress(_field(), eps=EPS, checksum=True, crc_group=8)
        _, layout = _layout(res.stream)
        bad = _flip(res.stream, layout.records_start + 9)
        registry = MetricsRegistry()
        _, report = salvage_decompress(bad, metrics=registry)
        counter = registry.get("salvage.blocks_lost")
        assert counter is not None
        assert counter.total() == report.blocks_lost > 0


class TestStructuralSalvage:
    """Streams without checksums: salvage trusts only their structure."""

    @pytest.mark.parametrize(
        "case", ["v2-truncated", "v1-truncated", "v2-corrupt-fl", "v1-clean"]
    )
    def test_salvage_loses_only_the_blocks_it_cannot_locate(self, case):
        """A v2 stream cut mid-record loses the blocks from that record
        on; a cut v1 stream, whose records only its header walk can find,
        loses every block; a corrupt fl entry k in a v2 index loses blocks
        k onward (every later offset depends on it); an intact v1 stream
        loses nothing. Every block before the first lost one decodes
        bit-exact."""
        codec = CereSZ()
        data = _field(4000)
        stream = codec.compress(data, eps=EPS, index=case[:2] == "v2").stream
        header, offset = StreamHeader.unpack(stream)
        nb, L = header.num_blocks, header.block_size
        base = codec.decompress(stream).reshape(-1)
        first, note = nb, None
        if case == "v2-truncated":
            first = nb // 2
            fls = np.frombuffer(stream, np.uint8, nb, offset)
            sizes = record_sizes(fls, L, header.header_width)
            cut = offset + nb + int(sizes[:first].sum()) + sizes[first] // 2
            stream = stream[:cut]
            note = (
                f"{nb - first} block records truncated off the end of the "
                f"stream"
            )
        elif case == "v1-truncated":
            first, note = 0, "v1 stream walk failed"
            stream = stream[:-3]
        elif case == "v2-corrupt-fl":
            first = nb // 3
            stream = _flip(stream, offset + first, 0xC0)  # fl > 63
            note = f"fl table corrupt at block {first}"
        values, report = salvage_decompress(stream)
        assert report.lost_block_indices == tuple(range(first, nb))
        assert report.blocks_lost == nb - first
        if note is None:
            assert report.clean and not report.notes
        else:
            assert any(n.startswith(note) for n in report.notes), report.notes
        flat = values.reshape(-1)
        assert np.array_equal(flat[: first * L], base[: first * L])


class TestShardedIntegrity:
    def _container(self, n: int = 40_000):
        data = _field(n, seed=9)
        res = compress_sharded(
            data, eps=EPS, shard_elements=10_000, checksum=True
        )
        return data, res.stream

    def test_v2_round_trip(self):
        data, stream = self._container()
        table = read_shard_container(stream)
        assert table.checksummed
        assert table.meta_ok
        # The writer rounds the shard size to a block multiple and records
        # the actual value for salvage geometry.
        assert table.shard_elements is not None
        assert table.shard_elements * (len(table.spans) - 1) < data.size
        out = CereSZ().decompress(stream)
        assert out.shape == data.shape

    def test_default_container_stays_v1(self):
        data = _field(40_000, seed=9)
        stream = compress_sharded(data, eps=EPS, shard_elements=10_000).stream
        table = read_shard_container(stream)
        assert table.version == 1
        assert not table.checksummed
        assert table.shard_elements is None

    def test_shard_payload_flip_located_and_salvaged(self):
        data, stream = self._container()
        table = read_shard_container(stream)
        se = table.shard_elements
        lo, hi = table.spans[1]
        bad = _flip(stream, lo + (hi - lo) // 2)
        report = verify_stream(bad)
        assert not report.ok
        assert report.corrupt_shards == (1,)
        values, salvage = salvage_decompress(bad, original=data)
        assert salvage.blocks_lost > 0
        # Every shard but the corrupted one comes back bit-exact.
        baseline = CereSZ().decompress(stream)
        assert np.array_equal(values[:se], baseline[:se])
        assert np.array_equal(values[2 * se :], baseline[2 * se :])
        assert salvage.bound is not None and salvage.bound.ok

    def test_destroyed_shard_header_loses_only_that_shard(self):
        data, stream = self._container()
        table = read_shard_container(stream)
        se = table.shard_elements
        lo, _ = table.spans[2]
        buf = bytearray(stream)
        buf[lo : lo + 16] = b"\x00" * 16  # obliterate the shard header
        values, report = salvage_decompress(bytes(buf), original=data)
        assert 2 in report.shards_lost
        baseline = CereSZ().decompress(stream)
        assert np.array_equal(values[: 2 * se], baseline[: 2 * se])
        assert np.array_equal(values[3 * se :], baseline[3 * se :])

    def test_corrupt_shard_table_raises_strict_parses_tolerant(self):
        _, stream = self._container()
        # The meta CRC sits directly before the first shard payload.
        lo = read_shard_container(stream).spans[0][0]
        bad = _flip(stream, lo - 2)
        with pytest.raises(ContainerError, match="meta CRC"):
            read_shard_table(bad)
        table = read_shard_container(bad)  # tolerant view still parses
        assert not table.meta_ok


class TestFillRegions:
    """SalvageReport.fill_regions: which fill each lost region received.

    The contract under ``fill="previous"``: a corrupt *leading* group has
    no intact predecessor, so it falls back to zero fill (per shard —
    CSZX shards are independent streams), and the report records the
    effective fill of every contiguous lost region.
    """

    def _corrupt_group(self, stream: bytes, group: int) -> bytes:
        _, layout = _layout(stream)
        return _flip(stream, int(layout.group_offsets[group]) + 3)

    def test_leading_group_zero_filled_under_previous(self):
        codec = CereSZ()
        data = _field()
        res = codec.compress(data, eps=EPS, checksum=True, crc_group=4)
        bad = self._corrupt_group(res.stream, 0)
        values, report = salvage_decompress(bad, fill="previous")
        assert report.fill == "previous"
        regions = [r for r in report.fill_regions]
        assert regions and regions[0][0] == 0
        start, stop, effective = regions[0]
        assert effective == "zero"
        L = codec.block_size
        assert not values.reshape(-1)[: stop * L].any()
        assert any("no intact predecessor" in n for n in report.notes)

    def test_middle_group_records_previous(self):
        codec = CereSZ()
        data = _field()
        res = codec.compress(data, eps=EPS, checksum=True, crc_group=4)
        baseline = codec.decompress(res.stream).reshape(-1)
        bad = self._corrupt_group(res.stream, 2)
        values, report = salvage_decompress(bad, fill="previous")
        (start, stop, effective) = report.fill_regions[0]
        assert effective == "previous"
        L = codec.block_size
        assert np.all(
            values.reshape(-1)[start * L : stop * L] == baseline[start * L - 1]
        )

    def test_zero_fill_mode_records_zero(self):
        res = CereSZ().compress(_field(), eps=EPS, checksum=True, crc_group=4)
        bad = self._corrupt_group(res.stream, 2)
        _, report = salvage_decompress(bad, fill="zero")
        assert report.fill_regions
        assert all(eff == "zero" for _, _, eff in report.fill_regions)

    def test_regions_cover_exactly_the_lost_blocks(self):
        res = CereSZ().compress(_field(), eps=EPS, checksum=True, crc_group=4)
        bad = self._corrupt_group(res.stream, 1)
        _, report = salvage_decompress(bad, fill="previous")
        covered = [
            b for start, stop, _ in report.fill_regions
            for b in range(start, stop)
        ]
        assert covered == list(report.lost_block_indices)

    def test_sharded_leading_group_is_shard_local(self):
        """Shard 2's leading group has no predecessor *within its own
        stream*: zero-filled even though shard 1 decoded fine."""
        data = _field(8192, seed=9)
        res = compress_sharded(
            data, eps=EPS, jobs=2, shard_elements=2048, checksum=True,
            crc_group=4,
        )
        table = read_shard_container(res.stream)
        lo, hi = table.spans[2]
        shard = res.stream[lo:hi]
        _, layout = _layout(shard)
        bad = (
            res.stream[:lo]
            + _flip(shard, int(layout.group_offsets[0]) + 3)
            + res.stream[hi:]
        )
        values, report = salvage_decompress(bad, fill="previous")
        assert report.fill_regions
        L = CereSZ().block_size
        shard_base_block = 2 * 2048 // L
        start, stop, effective = report.fill_regions[0]
        assert start == shard_base_block
        assert effective == "zero"
        assert not values[start * L : stop * L].any()

    def test_unrecoverable_shard_is_one_zero_region(self):
        data = _field(8192, seed=9)
        res = compress_sharded(
            data, eps=EPS, jobs=2, shard_elements=2048, checksum=True,
        )
        table = read_shard_container(res.stream)
        lo, _ = table.spans[1]
        buf = bytearray(res.stream)
        buf[lo : lo + 16] = b"\x00" * 16
        _, report = salvage_decompress(bytes(buf), fill="previous")
        L = CereSZ().block_size
        bpshard = 2048 // L
        assert (bpshard, 2 * bpshard, "zero") in report.fill_regions

    def test_report_round_trips_regions(self):
        res = CereSZ().compress(_field(), eps=EPS, checksum=True, crc_group=4)
        bad = self._corrupt_group(res.stream, 0)
        _, report = salvage_decompress(bad, fill="previous")
        import json

        payload = json.loads(report.to_json())
        assert payload["fill_regions"]
        assert "fill regions" in report.describe()
