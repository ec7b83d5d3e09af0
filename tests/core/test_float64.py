"""Tests for double-precision field support.

SDRBench distributes several datasets in float64; a usable compressor must
honor bounds below float32 resolution when the input (and hence the
reconstruction) is double precision.
"""

import numpy as np
import pytest

from repro import CereSZ
from repro.errors import ErrorBoundError
from repro.metrics.errorbound import check_error_bound


@pytest.fixture
def field64(rng):
    return np.cumsum(rng.normal(size=5000))  # float64 random walk


class TestFloat64RoundTrip:
    def test_dtype_preserved(self, codec, field64):
        result = codec.compress(field64, rel=1e-4)
        back = codec.decompress(result.stream)
        assert back.dtype == np.float64
        assert check_error_bound(field64, back, result.eps)

    def test_float32_still_default(self, codec, smooth_field):
        result = codec.compress(smooth_field, rel=1e-3)
        assert codec.decompress(result.stream).dtype == np.float32

    def test_bounds_below_f32_resolution(self, codec, field64):
        """REL 1e-7 on O(100) values needs ~1e-5 absolute precision at
        magnitude ~100 — representable in f64, not reliably in f32."""
        result = codec.compress(field64, rel=1e-7)
        back = codec.decompress(result.stream)
        assert check_error_bound(field64, back, result.eps)

    def test_same_bound_fails_in_f32(self, field64):
        f32 = field64.astype(np.float32)
        scale = float(np.max(np.abs(f32)))
        with pytest.raises(ErrorBoundError, match="resolution"):
            CereSZ().compress(f32, eps=scale * 1e-9)

    def test_original_bytes_counts_doubles(self, codec, field64):
        result = codec.compress(field64, rel=1e-4)
        assert result.original_bytes == field64.size * 8

    def test_bit_rate_uses_element_count(self, codec, field64):
        result = codec.compress(field64, rel=1e-4)
        assert result.bit_rate == pytest.approx(
            8.0 * len(result.stream) / field64.size
        )

    def test_constant_field64(self, codec):
        data = np.full(100, np.pi)  # float64
        result = codec.compress(data, rel=1e-3)
        back = codec.decompress(result.stream)
        assert back.dtype == np.float64
        assert np.array_equal(back, data)

    def test_nd_variant_in_f64(self, field64):
        codec = CereSZ(predictor="nd")
        data = field64[:4096].reshape(64, 64)
        result = codec.compress(data, rel=1e-6)
        back = codec.decompress(result.stream)
        assert back.dtype == np.float64
        assert check_error_bound(data, back, result.eps)

    def test_2d_f64_shape(self, codec, rng):
        data = rng.normal(size=(40, 50))
        result = codec.compress(data, eps=1e-5)
        back = codec.decompress(result.stream)
        assert back.shape == (40, 50)
        assert back.dtype == np.float64
