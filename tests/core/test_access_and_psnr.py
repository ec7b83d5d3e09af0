"""Tests for random-access decompression and the PSNR-target mode."""

import numpy as np
import pytest

from repro import CereSZ
from repro.errors import CompressionError, ErrorBoundError
from repro.core.access import block_index, decompress_range
from repro.core.quantize import psnr_to_relative
from repro.metrics.quality import psnr as measure_psnr


#: Every container random access must read: v1 (header walk), v2 (fl
#: index) and v3 (fl index, then the CRC group table, then the records).
CONTAINERS = {
    "v1": {"index": False},
    "v2": {"index": True},
    "v3": {"index": True, "checksum": True},
}


@pytest.fixture(scope="module")
def stream_and_field():
    rng = np.random.default_rng(4)
    data = np.cumsum(rng.normal(size=3000)).astype(np.float32)
    data[1000:1500] = 0.0  # zero blocks in the middle
    results = {
        name: CereSZ().compress(data, rel=1e-3, **kw)
        for name, kw in CONTAINERS.items()
    }
    return results, data


class TestDecompressRange:
    def test_matches_full_reconstruction(self, stream_and_field):
        results, data = stream_and_field
        for name, result in results.items():
            full = CereSZ().decompress(result.stream)
            for start, stop in [(0, 32), (0, 3000), (100, 900), (2950, 3000)]:
                part = decompress_range(result.stream, start, stop)
                assert np.array_equal(part, full[start:stop]), (
                    name, start, stop,
                )

    def test_unaligned_ranges(self, stream_and_field):
        results, data = stream_and_field
        for name, result in results.items():
            full = CereSZ().decompress(result.stream)
            for start, stop in [(1, 2), (31, 33), (17, 1999), (1499, 1501)]:
                part = decompress_range(result.stream, start, stop)
                assert np.array_equal(part, full[start:stop]), (
                    name, start, stop,
                )

    def test_range_through_zero_blocks(self, stream_and_field):
        results, data = stream_and_field
        for name, result in results.items():
            part = decompress_range(result.stream, 1100, 1400)
            assert not part.any(), name

    def test_empty_range(self, stream_and_field):
        results, _ = stream_and_field
        for result in results.values():
            assert decompress_range(result.stream, 50, 50).size == 0

    def test_out_of_bounds_rejected(self, stream_and_field):
        results, _ = stream_and_field
        for result in results.values():
            with pytest.raises(CompressionError, match="outside"):
                decompress_range(result.stream, 0, 4000)
            with pytest.raises(CompressionError):
                decompress_range(result.stream, -1, 10)

    def test_nd_streams_rejected(self, field_2d):
        nd = CereSZ(predictor="nd").compress(field_2d, rel=1e-3)
        with pytest.raises(CompressionError, match="random access"):
            decompress_range(nd.stream, 0, 32)

    def test_constant_stream_range(self):
        result = CereSZ().compress(np.full(200, 7.5, dtype=np.float32), rel=1e-3)
        part = decompress_range(result.stream, 10, 20)
        assert np.all(part == np.float32(7.5))

    def test_block_index(self, stream_and_field):
        results, _ = stream_and_field
        records = set()
        for name, result in results.items():
            idx = block_index(result.stream)
            assert idx.size == -(-3000 // 32)
            assert np.all(np.diff(idx) >= 4)  # at least a header per block
            # Every offset lands on its record's header, whose low byte is
            # the block's fixed length.
            headers = np.frombuffer(result.stream, dtype=np.uint8)[idx]
            assert np.array_equal(headers, result.fixed_lengths), name
            records.add(result.stream[idx[0]:])
        # The records are the same bytes behind every container's tables.
        assert len(records) == 1


class TestPsnrTarget:
    def test_conversion_matches_fig15_identity(self):
        """REL 1e-4 <-> 84.77 dB (the paper's Fig 15 numbers)."""
        assert psnr_to_relative(84.77) == pytest.approx(1e-4, rel=0.01)

    @pytest.mark.parametrize("target", [50.0, 70.0, 90.0])
    def test_achieved_psnr_close_to_target(self, target, rng):
        data = np.cumsum(rng.normal(size=60000)).astype(np.float32)
        codec = CereSZ()
        result = codec.compress(data, psnr=target)
        got = measure_psnr(data, codec.decompress(result.stream))
        assert got == pytest.approx(target, abs=0.6)

    def test_higher_target_lower_ratio(self, smooth_field):
        codec = CereSZ()
        low = codec.compress(smooth_field, psnr=50.0)
        high = codec.compress(smooth_field, psnr=100.0)
        assert high.ratio < low.ratio

    def test_exclusive_with_other_modes(self, smooth_field):
        codec = CereSZ()
        with pytest.raises(ErrorBoundError):
            codec.compress(smooth_field, psnr=80.0, rel=1e-3)
        with pytest.raises(ErrorBoundError):
            codec.compress(smooth_field, psnr=80.0, eps=0.1)

    def test_invalid_targets(self, smooth_field):
        codec = CereSZ()
        with pytest.raises(ErrorBoundError):
            codec.compress(smooth_field, psnr=-5.0)
        with pytest.raises(ErrorBoundError):
            codec.compress(smooth_field, psnr=float("inf"))
