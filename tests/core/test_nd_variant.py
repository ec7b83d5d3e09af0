"""Tests for ``CereSZ(predictor="nd")``, the higher-dimensional Lorenzo."""

import numpy as np
import pytest

from repro import CereSZ
from repro.metrics.errorbound import check_error_bound


class TestRoundTrip:
    def test_1d(self, smooth_field):
        codec = CereSZ(predictor="nd")
        result = codec.compress(smooth_field, rel=1e-3)
        back = codec.decompress(result.stream)
        assert back.shape == smooth_field.shape
        assert check_error_bound(smooth_field, back, result.eps)

    def test_2d(self, field_2d):
        codec = CereSZ(predictor="nd")
        result = codec.compress(field_2d, rel=1e-3)
        back = codec.decompress(result.stream)
        assert back.shape == field_2d.shape
        assert check_error_bound(field_2d, back, result.eps)

    def test_3d(self, field_3d):
        codec = CereSZ(predictor="nd")
        result = codec.compress(field_3d, rel=1e-4)
        back = codec.decompress(result.stream)
        assert check_error_bound(field_3d, back, result.eps)

    def test_partial_tail(self):
        data = np.linspace(0, 10, 77).astype(np.float32)
        codec = CereSZ(predictor="nd")
        result = codec.compress(data, eps=0.01)
        back = codec.decompress(result.stream)
        assert back.size == 77
        assert check_error_bound(data, back, 0.01)

    def test_constant_field(self):
        codec = CereSZ(predictor="nd")
        data = np.full((5, 5), 2.0, dtype=np.float32)
        result = codec.compress(data, rel=1e-3)
        assert np.array_equal(codec.decompress(result.stream), data)


class TestCrossDecoding:
    def test_base_codec_decodes_nd_streams(self, field_2d):
        """The predictor flag makes streams self-describing."""
        nd_stream = CereSZ(predictor="nd").compress(field_2d, rel=1e-3).stream
        back = CereSZ().decompress(nd_stream)
        vrange = float(field_2d.max() - field_2d.min())
        assert check_error_bound(field_2d, back, 1e-3 * vrange)

    def test_nd_codec_decodes_blocked_streams(self, field_2d):
        blocked = CereSZ().compress(field_2d, rel=1e-3).stream
        back = CereSZ(predictor="nd").decompress(blocked)
        assert np.array_equal(back, CereSZ().decompress(blocked))

    def test_streams_differ(self, field_2d):
        s1 = CereSZ().compress(field_2d, rel=1e-3).stream
        s2 = CereSZ(predictor="nd").compress(field_2d, rel=1e-3).stream
        assert s1 != s2


class TestRatioAdvantage:
    def test_nd_wins_on_2d_fields(self, field_2d):
        """The paper's claim: higher-dimensional Lorenzo -> higher ratio."""
        blocked = CereSZ().compress(field_2d, rel=1e-3)
        nd = CereSZ(predictor="nd").compress(field_2d, rel=1e-3)
        assert nd.ratio > blocked.ratio

    def test_nd_wins_on_3d_fields(self, field_3d):
        blocked = CereSZ().compress(field_3d, rel=1e-3)
        nd = CereSZ(predictor="nd").compress(field_3d, rel=1e-3)
        assert nd.ratio > blocked.ratio

    def test_no_block_leader_penalty(self):
        """Blocked-1D pays an absolute leader per block; ND does not, so a
        large-offset smooth field shows the gap starkly."""
        y, x = np.mgrid[0:64, 0:96]
        # Increment of exactly two quantization bins per grid step: the
        # N-D operator annihilates the plane, the blocked form still pays
        # a ~17-bit absolute leader per block.
        field = (1000.0 + 0.04 * (x + y)).astype(np.float32)
        blocked = CereSZ().compress(field, eps=0.01)
        nd = CereSZ(predictor="nd").compress(field, eps=0.01)
        assert nd.zero_block_fraction > blocked.zero_block_fraction
        assert nd.ratio > 2 * blocked.ratio

    def test_same_quality_as_blocked(self, field_2d):
        """Same pre-quantization -> identical reconstructions."""
        b1 = CereSZ()
        b2 = CereSZ(predictor="nd")
        back1 = b1.decompress(b1.compress(field_2d, rel=1e-3).stream)
        back2 = b2.decompress(b2.compress(field_2d, rel=1e-3).stream)
        assert np.array_equal(back1, back2)

    def test_ratio_still_capped_at_32(self):
        field = np.zeros((64, 64), dtype=np.float32)
        field[0, 0] = 1.0
        result = CereSZ(predictor="nd").compress(field, rel=1e-2)
        assert result.ratio <= 32.5
