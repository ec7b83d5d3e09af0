"""Tests for on-wafer decompression (the Section 4.2 reverse mapping)."""

import numpy as np
import pytest

from repro import CereSZ
from repro.errors import CompressionError
from repro.core.mapping_decompress import (
    decode_block_from_words,
    records_to_words,
)
from repro.core.wse_compressor import WSECereSZ


@pytest.fixture(scope="module")
def mixed_field():
    """Smooth + constant-run data: exercises zero and dense blocks."""
    rng = np.random.default_rng(9)
    data = np.cumsum(rng.normal(size=1024)).astype(np.float32)
    # A silent region (exactly zero) quantizes to all-zero codes, so these
    # blocks become header-only zero blocks in the stream.
    data[256:512] = 0.0
    return data


@pytest.fixture(scope="module")
def stream(mixed_field):
    return CereSZ().compress(mixed_field, rel=1e-3)


class TestRecordPacking:
    def test_word_counts(self, stream, mixed_field):
        from repro.core.format import StreamHeader

        header, offset = StreamHeader.unpack(stream.stream)
        packed = records_to_words(
            stream.stream[offset:], header.num_blocks, header.block_size
        )
        assert len(packed) == header.num_blocks
        for hdr, words in packed:
            fl = int(hdr[0])
            if fl == 0:
                assert words is None
            else:
                assert words.size == 1 + fl  # signs word + fl plane words

    def test_zero_blocks_have_no_body(self, stream):
        from repro.core.format import StreamHeader

        header, offset = StreamHeader.unpack(stream.stream)
        packed = records_to_words(
            stream.stream[offset:], header.num_blocks, header.block_size
        )
        zero = [w for h, w in packed if int(h[0]) == 0]
        assert zero and all(w is None for w in zero)

    def test_rejects_unaligned_block_size(self):
        with pytest.raises(CompressionError, match="32-multiple"):
            records_to_words(b"", 0, 16)


class TestDecodeKernel:
    def test_zero_block(self):
        out = decode_block_from_words(0, None, 0.5, 32)
        assert not out.any()

    def test_matches_reference_block(self):
        rng = np.random.default_rng(1)
        data = np.cumsum(rng.normal(size=32)).astype(np.float32)
        codec = CereSZ()
        result = codec.compress(data, eps=0.05)
        expected = codec.decompress(result.stream)
        from repro.core.format import StreamHeader

        header, offset = StreamHeader.unpack(result.stream)
        packed = records_to_words(result.stream[offset:], 1, 32)
        hdr, words = packed[0]
        out = decode_block_from_words(int(hdr[0]), words, header.eps, 32)
        assert np.array_equal(out, expected)


class TestOnWaferDecompression:
    @pytest.mark.parametrize("rows", [1, 2, 4])
    def test_values_identical_to_reference(self, mixed_field, stream, rows):
        expected = CereSZ().decompress(stream.stream)
        sim = WSECereSZ(rows=rows, cols=1, strategy="rows")
        out, report = sim.decompress_on_wafer(stream.stream)
        assert np.array_equal(out, expected)
        assert report.tasks_run > 0

    def test_error_bound_holds(self, mixed_field, stream):
        sim = WSECereSZ(rows=2, cols=1, strategy="rows")
        out, _ = sim.decompress_on_wafer(stream.stream)
        err = np.max(
            np.abs(out.astype(np.float64) - mixed_field.astype(np.float64))
        )
        assert err <= stream.eps

    def test_decompression_faster_than_compression(self, mixed_field):
        """The paper's Figs 11 vs 12, at discrete-event level: no Max /
        GetLength work and shorter receive chains for zero blocks."""
        sim = WSECereSZ(rows=2, cols=1, strategy="rows")
        comp = sim.compress(mixed_field, rel=1e-3)
        out, report = sim.decompress_on_wafer(comp.stream)
        assert report.makespan_cycles < comp.makespan_cycles

    def test_rows_speed_up_decompression(self, stream):
        m1 = WSECereSZ(rows=1, cols=1, strategy="rows").decompress_on_wafer(
            stream.stream
        )[1]
        m4 = WSECereSZ(rows=4, cols=1, strategy="rows").decompress_on_wafer(
            stream.stream
        )[1]
        speedup = m1.makespan_cycles / m4.makespan_cycles
        assert 3.0 <= speedup <= 4.5

    def test_2d_shape_restored(self, field_2d):
        result = CereSZ().compress(field_2d, rel=1e-3)
        sim = WSECereSZ(rows=2, cols=1, strategy="rows")
        out, _ = sim.decompress_on_wafer(result.stream)
        assert out.shape == field_2d.shape

    def test_constant_stream_redirected(self):
        result = CereSZ().compress(
            np.full(64, 5.0, dtype=np.float32), rel=1e-3
        )
        sim = WSECereSZ(rows=1, cols=1, strategy="rows")
        with pytest.raises(CompressionError, match="constant"):
            sim.decompress_on_wafer(result.stream)

    def test_szp_stream_rejected(self, mixed_field):
        szp_stream = CereSZ(header_width=1).compress(
            mixed_field, rel=1e-3
        )
        sim = WSECereSZ(rows=1, cols=1, strategy="rows")
        with pytest.raises(CompressionError, match="4-byte"):
            sim.decompress_on_wafer(szp_stream.stream)


class TestPipelineDecompression:
    """The Section 4.2 decompression mapping: Algorithm 1 over the reverse
    sub-stages, one pipeline per row."""

    @pytest.mark.parametrize("pl", [2, 3, 4, 6])
    def test_values_identical_to_reference(self, mixed_field, stream, pl):
        expected = CereSZ().decompress(stream.stream)
        sim = WSECereSZ(
            rows=2, cols=max(pl, 2), strategy="pipeline", pipeline_length=pl
        )
        out, report = sim.decompress_on_wafer(stream.stream)
        assert np.array_equal(out, expected)
        assert report.tasks_run > 0

    def test_pipeline_beats_single_pe_makespan(self, stream):
        single = WSECereSZ(rows=1, cols=1, strategy="rows")
        piped = WSECereSZ(
            rows=1, cols=4, strategy="pipeline", pipeline_length=4
        )
        m_single = single.decompress_on_wafer(stream.stream)[1]
        m_piped = piped.decompress_on_wafer(stream.stream)[1]
        assert m_piped.makespan_cycles < m_single.makespan_cycles

    def test_zero_blocks_take_the_fast_path(self, mixed_field):
        """Zero blocks enter the pipeline collapsed; the head PE spends
        almost nothing on them."""
        silent = np.zeros(320, dtype=np.float32)
        silent[0] = 100.0  # one dense block establishes fl > 0
        result = CereSZ().compress(silent, eps=0.5)
        sim = WSECereSZ(
            rows=1, cols=3, strategy="pipeline", pipeline_length=3
        )
        out, report = sim.decompress_on_wafer(result.stream)
        assert np.max(np.abs(out - silent)) <= 0.5

    def test_records_are_split_once_per_decode(self, stream, monkeypatch):
        """``decompress_on_wafer`` sizes the pipeline from the split
        records and hands the same split to the planner."""
        import repro.core.mapping_decompress as md
        import repro.core.plan as plan

        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return records_to_words(*args, **kwargs)

        monkeypatch.setattr(md, "records_to_words", counted)
        monkeypatch.setattr(plan, "records_to_words", counted)
        sim = WSECereSZ(
            rows=2, cols=3, strategy="pipeline", pipeline_length=3
        )
        for expected in (1, 2):
            out, _ = sim.decompress_on_wafer(stream.stream)
            assert len(calls) == expected
        assert np.array_equal(out, CereSZ().decompress(stream.stream))

    def test_feeds_are_the_split_arrays(self, stream, monkeypatch):
        """The plan feeds the split's own uint32 arrays, no copies, and
        the decode leaves them as they were."""
        import repro.core.wse_compressor as wc

        build, seen = wc.plan_pipeline_decompress, []

        def kept(*args, **kwargs):
            plan = build(*args, **kwargs)
            payloads = [
                a for pair in kwargs["records"] for a in pair if a is not None
            ]
            seen.append((plan, payloads, [a.copy() for a in payloads]))
            return plan

        monkeypatch.setattr(wc, "plan_pipeline_decompress", kept)
        sim = WSECereSZ(
            rows=2, cols=3, strategy="pipeline", pipeline_length=3
        )
        out, _ = sim.decompress_on_wafer(stream.stream)
        ((plan, payloads, before),) = seen
        assert len(plan.feeds) == len(payloads)
        assert all(f.data is a for f, a in zip(plan.feeds, payloads))
        assert all(np.array_equal(a, b) for a, b in zip(payloads, before))
        expected = CereSZ().decompress(stream.stream)
        assert out.tobytes() == expected.tobytes()

    def test_error_bound_holds_through_pipeline(self, mixed_field, stream):
        sim = WSECereSZ(
            rows=2, cols=3, strategy="pipeline", pipeline_length=3
        )
        out, _ = sim.decompress_on_wafer(stream.stream)
        err = np.max(
            np.abs(out.astype(np.float64) - mixed_field.astype(np.float64))
        )
        assert err <= stream.eps


class TestWideBlocks:
    """Above block size 32 one bit plane spans ``block_size // 32`` words;
    the pipelined decode must carry and unshuffle every word of it."""

    @pytest.mark.parametrize("block_size", [64, 128])
    @pytest.mark.parametrize("strategy", ["rows", "pipeline"])
    def test_decode_matches_reference(self, strategy, block_size):
        rng = np.random.default_rng(0)
        data = np.cumsum(rng.standard_normal(1024)).astype(np.float32)
        codec = CereSZ(block_size=block_size)
        stream = codec.compress(data, rel=1e-3).stream
        extra = {"pipeline_length": 2} if strategy == "pipeline" else {}
        sim = WSECereSZ(
            rows=2, cols=4, strategy=strategy, block_size=block_size, **extra
        )
        out, _ = sim.decompress_on_wafer(stream)
        assert np.array_equal(out, codec.decompress(stream))
