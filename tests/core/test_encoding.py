"""Tests for fixed-length encoding: the paper's step 3 and Fig 8."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.config import CERESZ_HEADER_BYTES, SZP_HEADER_BYTES
from repro.errors import CompressionError, FormatError
from repro.core.encoding import (
    _transpose_8x8,
    block_fixed_lengths,
    decode_blocks,
    encode_blocks,
    index_record_offsets,
    pack_block_index,
    pack_records,
    record_sizes,
    scan_record_offsets,
    unpack_block_index,
)


class TestFixedLengths:
    def test_matches_bit_length(self):
        blocks = np.array([[0, 1, 2, 3, 8, -8, 5, 7]], dtype=np.int64)
        assert block_fixed_lengths(blocks)[0] == 4  # max |.| = 8 -> 4 bits

    def test_paper_fig5_example(self):
        """Fig 5(b): max abs 8 -> fixed length 4."""
        residuals = np.array([[4, 2, -3, 0, 1, 8, -6, 2]], dtype=np.int64)
        assert block_fixed_lengths(residuals)[0] == 4

    def test_zero_block_length_zero(self):
        assert block_fixed_lengths(np.zeros((1, 8), dtype=np.int64))[0] == 0

    def test_exact_powers_of_two(self):
        for k in range(1, 45):
            blocks = np.array([[2**k] + [0] * 7], dtype=np.int64)
            assert block_fixed_lengths(blocks)[0] == k + 1, k
            blocks = np.array([[2**k - 1] + [0] * 7], dtype=np.int64)
            assert block_fixed_lengths(blocks)[0] == k

    def test_per_block_independence(self):
        blocks = np.array([[1] * 8, [255] * 8, [0] * 8], dtype=np.int64)
        assert block_fixed_lengths(blocks).tolist() == [1, 8, 0]

    def test_float64_log2_boundaries(self):
        """Regression: the old float64-log2 width scan rounded across
        binades — ``log2(2**k - 1)`` for k >= 49 evaluates to exactly
        ``k`` in float64, inflating the width by one bit. The exact
        integer bit-length scan must hold at every boundary up to and
        beyond the 2**53 float64 integer precision cliff."""
        for k in range(45, 63):
            lo = np.array([[2**k - 1] + [0] * 7], dtype=np.int64)
            assert block_fixed_lengths(lo)[0] == k, k
            if k < 62:
                hi = np.array([[2**k] + [0] * 7], dtype=np.int64)
                assert block_fixed_lengths(hi)[0] == k + 1, k
        cliff = np.array([[2**53 + 1] + [0] * 7], dtype=np.int64)
        assert block_fixed_lengths(cliff)[0] == 54
        imax = np.array([[2**63 - 1] + [0] * 7], dtype=np.int64)
        assert block_fixed_lengths(imax)[0] == 63

    def test_int64_min_rejected_not_wrapped(self):
        """Regression: |int64 min| wraps to itself under int64 abs; the
        width scan must report 64 bits (via the uint64 view) and the
        encoder must refuse the block rather than emit a wrapped record."""
        blocks = np.array([[-(2**63)] + [0] * 7], dtype=np.int64)
        assert block_fixed_lengths(blocks)[0] == 64
        with pytest.raises(FormatError):
            encode_blocks(blocks)

    @given(
        hnp.arrays(
            np.int64,
            st.tuples(st.integers(1, 10), st.integers(8, 8)),
            elements=st.integers(-(2**45), 2**45),
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_python_bit_length(self, blocks):
        fls = block_fixed_lengths(blocks)
        for row, fl in zip(blocks, fls):
            assert fl == int(np.max(np.abs(row))).bit_length()


class TestRecordSizes:
    def test_zero_block_is_header_only(self):
        sizes = record_sizes(np.array([0]), 32, CERESZ_HEADER_BYTES)
        assert sizes[0] == 4

    def test_nonzero_block_layout(self):
        # header + signs (L/8) + fl * L/8
        sizes = record_sizes(np.array([5]), 32, CERESZ_HEADER_BYTES)
        assert sizes[0] == 4 + 4 + 5 * 4

    def test_szp_header_width(self):
        sizes = record_sizes(np.array([0, 3]), 32, SZP_HEADER_BYTES)
        assert sizes.tolist() == [1, 1 + 4 + 12]

    def test_format_ratio_caps(self):
        """The 31.99x / 127.94x ceilings of the paper's Table 5."""
        raw = 32 * 4
        assert raw / record_sizes(np.array([0]), 32, 4)[0] == 32.0
        assert raw / record_sizes(np.array([0]), 32, 1)[0] == 128.0


class TestEncodeDecode:
    def test_paper_fig5_byte_count(self):
        """Fig 5: 8 floats (32 B) -> 6 B with a 1-byte header.

        Header 1 + signs 1 + 4 bits x 8 elements = 4 payload bytes.
        """
        residuals = np.array([[4, 2, -3, 0, 1, 8, -6, 2]], dtype=np.int64)
        stream = encode_blocks(residuals, SZP_HEADER_BYTES)
        assert len(stream) == 6

    def test_round_trip_basic(self):
        residuals = np.array(
            [[4, 2, -3, 0, 1, 8, -6, 2], [0] * 8, [-1] * 8], dtype=np.int64
        )
        stream = encode_blocks(residuals)
        out = decode_blocks(stream, 3, 8)
        assert np.array_equal(out, residuals)

    def test_round_trip_szp_header(self):
        residuals = np.array([[100, -100] * 16], dtype=np.int64)
        stream = encode_blocks(residuals, SZP_HEADER_BYTES)
        out = decode_blocks(stream, 1, 32, SZP_HEADER_BYTES)
        assert np.array_equal(out, residuals)

    def test_zero_blocks_store_header_only(self):
        residuals = np.zeros((10, 32), dtype=np.int64)
        stream = encode_blocks(residuals)
        assert len(stream) == 10 * 4

    def test_mixed_fixed_lengths(self):
        rng = np.random.default_rng(0)
        residuals = np.concatenate(
            [
                rng.integers(-3, 4, size=(5, 32)),
                rng.integers(-1000, 1001, size=(5, 32)),
                np.zeros((5, 32), dtype=np.int64),
            ]
        )
        stream = encode_blocks(residuals)
        assert np.array_equal(decode_blocks(stream, 15, 32), residuals)

    def test_large_magnitudes(self):
        residuals = np.array([[2**44, -(2**44)] + [0] * 30], dtype=np.int64)
        stream = encode_blocks(residuals)
        assert np.array_equal(decode_blocks(stream, 1, 32), residuals)

    def test_bit_shuffle_layout(self):
        """Byte group k holds bit k of all elements (paper Fig 8)."""
        # One block of 8 where only element 3 is nonzero, value 1 (fl=1):
        residuals = np.zeros((1, 8), dtype=np.int64)
        residuals[0, 3] = 1
        stream = encode_blocks(residuals, SZP_HEADER_BYTES)
        # [header=1][signs=0][bit0 byte: element 3 -> bit 3 = 0x08]
        assert stream == bytes([1, 0, 0x08])

    def test_sign_bit_layout(self):
        residuals = np.zeros((1, 8), dtype=np.int64)
        residuals[0, 5] = -1
        stream = encode_blocks(residuals, SZP_HEADER_BYTES)
        # [header=1][signs: bit 5 -> 0x20][payload bit0: element 5 -> 0x20]
        assert stream == bytes([1, 0x20, 0x20])

    def test_empty_block_array(self):
        residuals = np.zeros((0, 32), dtype=np.int64)
        assert encode_blocks(residuals) == b""
        assert decode_blocks(b"", 0, 32).shape == (0, 32)

    def test_rejects_non_integer(self):
        with pytest.raises(CompressionError):
            encode_blocks(np.zeros((1, 8), dtype=np.float32))

    def test_rejects_1d(self):
        with pytest.raises(CompressionError):
            encode_blocks(np.zeros(8, dtype=np.int64))

    def test_rejects_bad_header_width(self):
        with pytest.raises(FormatError):
            encode_blocks(np.zeros((1, 8), dtype=np.int64), header_bytes=2)

    def test_szp_header_overflow(self):
        # fl 256 cannot fit a single byte... but fl > 63 is rejected first.
        residuals = np.array([[2**60] + [0] * 7], dtype=np.int64)
        stream = encode_blocks(residuals)  # 4-byte header handles fl=61
        assert np.array_equal(decode_blocks(stream, 1, 8), residuals)

    @given(
        blocks=hnp.arrays(
            np.int64,
            st.tuples(st.integers(1, 12), st.sampled_from([8, 16, 32])),
            elements=st.integers(-(2**45), 2**45),
        ),
        header=st.sampled_from([1, 4]),
    )
    @settings(max_examples=150, deadline=None)
    def test_round_trip_property(self, blocks, header):
        stream = encode_blocks(blocks, header)
        out = decode_blocks(
            stream, blocks.shape[0], blocks.shape[1], header
        )
        assert np.array_equal(out, blocks)


class TestScanAndErrors:
    def test_scan_offsets(self):
        residuals = np.array([[0] * 8, [1] * 8, [0] * 8], dtype=np.int64)
        stream = encode_blocks(residuals, SZP_HEADER_BYTES)
        offsets, fls = scan_record_offsets(stream, 3, 8, SZP_HEADER_BYTES)
        assert offsets.tolist() == [0, 1, 4]
        assert fls.tolist() == [0, 1, 0]

    def test_truncated_header_raises(self):
        with pytest.raises(FormatError, match="truncated|cannot hold"):
            decode_blocks(b"\x01", 1, 8)  # CereSZ header needs 4 bytes

    def test_block_count_beyond_stream_raises(self):
        """The pre-allocation guard against corrupt block counts."""
        with pytest.raises(FormatError, match="cannot hold"):
            decode_blocks(b"\x00" * 16, 10**9, 8)

    def test_truncated_payload_raises(self):
        residuals = np.array([[7] * 8], dtype=np.int64)
        stream = encode_blocks(residuals)
        with pytest.raises(FormatError, match="truncated"):
            decode_blocks(stream[:-1], 1, 8)

    def test_corrupt_fixed_length_raises(self):
        bad = bytes([200, 0, 0, 0])  # fl = 200 > 63
        with pytest.raises(FormatError, match="invalid fixed length"):
            decode_blocks(bad, 1, 8)

    def test_missing_second_block_raises(self):
        residuals = np.array([[1] * 8], dtype=np.int64)
        stream = encode_blocks(residuals)
        with pytest.raises(FormatError):
            decode_blocks(stream, 2, 8)

    def test_start_offset(self):
        residuals = np.array([[3] * 8], dtype=np.int64)
        stream = b"\xde\xad" + encode_blocks(residuals)
        out = decode_blocks(stream, 1, 8, start=2)
        assert np.array_equal(out, residuals)


def walk_headers(stream, num_blocks, block_size, header_bytes, start=0):
    """The plain sequential header walk: the oracle for
    :func:`scan_record_offsets`, same results and same error messages."""
    buf = bytes(stream)
    n = len(buf)
    if num_blocks < 0:
        raise FormatError(f"negative block count {num_blocks}")
    if num_blocks * header_bytes > max(0, n - start):
        raise FormatError(
            f"stream of {n} bytes cannot hold {num_blocks} block records"
        )
    sign_bytes = block_size // 8
    offsets, fls = [], []
    pos = start
    for i in range(num_blocks):
        if pos + header_bytes > n:
            raise FormatError(
                f"stream truncated in header of block {i} "
                f"(offset {pos}, stream {n} bytes)"
            )
        f = int.from_bytes(buf[pos : pos + header_bytes], "little")
        if f > 63:
            raise FormatError(f"block {i}: invalid fixed length {f}")
        offsets.append(pos)
        fls.append(f)
        pos += header_bytes
        if f:
            pos += sign_bytes + f * sign_bytes
    if pos > n:
        raise FormatError(
            f"stream truncated in payload of final block (need {pos}, have {n})"
        )
    return np.array(offsets, dtype=np.int64), np.array(fls, dtype=np.int64)


def _walk_outcome(walk, *args):
    try:
        offsets, fls = walk(*args)
    except FormatError as exc:
        return ("raised", str(exc))
    return ("ok", offsets.tolist(), fls.tolist())


class TestHeaderWalkOracle:
    """The vectorized-validation walk against the sequential oracle, on
    valid streams and on one corruption per example."""

    @given(
        runs=st.lists(
            st.tuples(
                st.one_of(st.just(0), st.integers(1, 63)),
                st.integers(1, 12),
            ),
            min_size=1,
            max_size=12,
        ),
        block_size=st.integers(1, 32).map(lambda k: 8 * k),
        header=st.sampled_from([SZP_HEADER_BYTES, CERESZ_HEADER_BYTES]),
        prefix=st.binary(max_size=9),
        trailing=st.binary(max_size=9),
        as_array=st.booleans(),
        corruption=st.sampled_from(
            ["none", "truncate", "low", "high", "count"]
        ),
        data=st.data(),
    )
    @settings(max_examples=250, deadline=None)
    def test_matches_sequential_walk(
        self, runs, block_size, header, prefix, trailing, as_array,
        corruption, data,
    ):
        fls = [f for f, count in runs for _ in range(count)]
        rng = np.random.default_rng(len(fls))
        records = bytearray()
        heads = []
        for f in fls:
            heads.append(len(prefix) + len(records))
            records += f.to_bytes(header, "little")
            if f:
                body = (f + 1) * (block_size // 8)
                records += rng.integers(0, 256, body, dtype=np.uint8).tobytes()
        stream = bytearray(prefix + records + trailing)
        num_blocks = len(fls)
        # Claiming extra blocks may still parse (the trailing bytes can
        # read as valid records); every other corruption must raise.
        must_raise = corruption in ("truncate", "low")
        if corruption == "truncate":
            end = len(prefix) + len(records)
            stream = stream[: data.draw(st.integers(len(prefix), end - 1))]
        elif corruption == "low":
            at = data.draw(st.sampled_from(heads))
            stream[at] = data.draw(st.integers(64, 255))
        elif corruption == "high" and header == CERESZ_HEADER_BYTES:
            at = data.draw(st.sampled_from(heads)) + data.draw(
                st.integers(1, 3)
            )
            stream[at] = data.draw(st.integers(1, 255))
            must_raise = True
        elif corruption == "count":
            num_blocks += data.draw(st.integers(1, 40))
        stream = bytes(stream)
        if as_array:
            stream = np.frombuffer(stream, dtype=np.uint8).copy()

        args = (stream, num_blocks, block_size, header, len(prefix))
        got = _walk_outcome(scan_record_offsets, *args)
        assert got == _walk_outcome(walk_headers, *args)
        if must_raise:
            assert got[0] == "raised"


class TestPackRecords:
    """The fused path's packing core against the encode_blocks oracle."""

    def test_matches_encode_blocks_mixed_lengths(self):
        rng = np.random.default_rng(11)
        residuals = rng.integers(-(2**20), 2**20, size=(16, 32), dtype=np.int64)
        residuals[3] = 0  # zero block in the middle
        residuals[15] = 0  # and at the tail
        mags = np.abs(residuals).astype(np.uint64)
        negs = residuals < 0
        fl = block_fixed_lengths(residuals)
        packed = pack_records(mags, negs, fl)
        assert packed.tobytes() == encode_blocks(residuals)

    def test_negative_fixed_length_rejected(self):
        with pytest.raises(FormatError, match="negative fixed length"):
            pack_records(
                np.zeros((1, 8), dtype=np.uint64),
                np.zeros((1, 8), dtype=bool),
                np.array([-1], dtype=np.int64),
            )

    def test_overwide_fixed_length_rejected(self):
        with pytest.raises(FormatError, match="exceeds 63"):
            pack_records(
                np.zeros((1, 8), dtype=np.uint64),
                np.zeros((1, 8), dtype=bool),
                np.array([64], dtype=np.int64),
            )

    def test_fixed_length_vector_of_wrong_length_rejected(self):
        with pytest.raises(CompressionError, match=r"\(3,\).*2 blocks"):
            pack_records(
                np.ones((2, 8), dtype=np.uint64),
                np.zeros((2, 8), dtype=bool),
                np.array([1, 1, 1], dtype=np.int64),
            )

    def test_narrow_sign_mask_rejected(self):
        with pytest.raises(CompressionError, match=r"\(2, 4\).*\(2, 8\)"):
            pack_records(
                np.ones((2, 8), dtype=np.uint64),
                np.zeros((2, 4), dtype=bool),
                np.array([1, 1], dtype=np.int64),
            )

    def test_non_2d_magnitudes_rejected(self):
        with pytest.raises(CompressionError, match=r"\(16,\)"):
            pack_records(
                np.ones(16, dtype=np.uint64),
                np.zeros(16, dtype=bool),
                np.array([1, 1], dtype=np.int64),
            )

    def test_short_sign_mask_rejected(self):
        with pytest.raises(CompressionError, match=r"\(1, 8\).*\(2, 8\)"):
            pack_records(
                np.ones((2, 8), dtype=np.uint64),
                np.zeros((1, 8), dtype=bool),
                np.array([1, 1], dtype=np.int64),
            )


@st.composite
def _residual_blocks(draw):
    """Residual blocks whose fixed lengths span the whole 0..63 range.

    Each block gets a drawn width w: its magnitudes lie below 2**w and one
    of them has bit w-1 set, so the block's fixed length is exactly w
    (w = 0 is a zero block). A "full" block sets every magnitude to
    2**w - 1, which reaches 2**63 - 1 at w = 63.
    """
    block_size = draw(st.sampled_from([8, 16, 24, 32, 64, 256]))
    widths = draw(st.lists(st.integers(0, 63), max_size=6))
    full = draw(st.lists(st.booleans(), min_size=len(widths),
                         max_size=len(widths)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mags = np.zeros((len(widths), block_size), dtype=np.uint64)
    for row, (w, f) in enumerate(zip(widths, full)):
        if w == 0:
            continue
        top = np.uint64((1 << w) - 1)
        if f:
            mags[row] = top
        else:
            mags[row] = rng.integers(0, top, size=block_size,
                                     dtype=np.uint64, endpoint=True)
            mags[row, rng.integers(block_size)] |= np.uint64(1 << (w - 1))
    negative = rng.random(mags.shape) < 0.5
    residuals = np.where(negative, -mags.view(np.int64), mags.view(np.int64))
    return residuals, np.array(widths, dtype=np.int64)


class TestPackRecordsFullRange:
    """pack_records and decode_blocks against the encode_blocks oracle over
    every fixed length, i.e. one to eight byte lanes of the bit-matrix
    transpose."""

    @given(
        blocks=_residual_blocks(),
        header=st.sampled_from([SZP_HEADER_BYTES, CERESZ_HEADER_BYTES]),
        sign_dtype=st.sampled_from([bool, np.uint8]),
    )
    @example(
        blocks=(np.zeros((3, 32), dtype=np.int64), np.zeros(3, np.int64)),
        header=CERESZ_HEADER_BYTES,
        sign_dtype=bool,
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_encode_blocks_and_round_trips(
        self, blocks, header, sign_dtype
    ):
        residuals, widths = blocks
        fl = block_fixed_lengths(residuals)
        assert np.array_equal(fl, widths)
        mags = np.abs(residuals).view(np.uint64)
        negs = (residuals < 0).astype(sign_dtype)
        stream = encode_blocks(residuals, header)
        assert pack_records(mags, negs, fl, header).tobytes() == stream

        num_blocks, block_size = residuals.shape
        stale = np.full((num_blocks, block_size), -7, dtype=np.int64)
        out = decode_blocks(stream, num_blocks, block_size, header, out=stale)
        assert np.array_equal(out, residuals)


class TestTranspose8x8:
    """The bit-matrix transpose behind pack_records and decode_blocks."""

    @staticmethod
    def _reference(words):
        # Bit k of little-endian byte i moves to bit i of byte k.
        bits = np.unpackbits(
            words.astype("<u8").view(np.uint8), bitorder="little"
        ).reshape(-1, 8, 8)
        return np.packbits(
            bits.transpose(0, 2, 1), axis=-1, bitorder="little"
        ).reshape(-1).view("<u8").astype(np.uint64)

    @given(hnp.arrays(np.uint64, st.integers(0, 64)))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_and_is_an_involution(self, words):
        got = _transpose_8x8(words.copy())
        assert np.array_equal(got, self._reference(words))
        assert np.array_equal(_transpose_8x8(got), words)

    def test_random_words(self, rng):
        words = rng.integers(0, 2**64, size=4096, dtype=np.uint64)
        got = _transpose_8x8(words.copy())
        assert np.array_equal(got, self._reference(words))
        assert np.array_equal(_transpose_8x8(got), words)


class TestBlockIndex:
    """The container-v2 fl table and its vectorized offset computation."""

    def _stream_and_fls(self, rng, blocks=40, L=32):
        residuals = rng.integers(-500, 500, size=(blocks, L)).astype(np.int64)
        residuals[::3] = 0  # mix in zero blocks
        fls = block_fixed_lengths(residuals)
        return encode_blocks(residuals), fls, residuals

    def test_pack_unpack_round_trip(self, rng):
        _, fls, _ = self._stream_and_fls(rng)
        table = pack_block_index(fls)
        assert len(table) == len(fls)
        out, pos = unpack_block_index(table, len(fls))
        assert pos == len(table)
        assert np.array_equal(out, fls)

    def test_unpack_with_start(self, rng):
        _, fls, _ = self._stream_and_fls(rng)
        buf = b"\xab\xcd" + pack_block_index(fls)
        out, pos = unpack_block_index(buf, len(fls), 2)
        assert pos == 2 + len(fls)
        assert np.array_equal(out, fls)

    def test_pack_rejects_out_of_range(self):
        with pytest.raises(FormatError):
            pack_block_index(np.array([64], dtype=np.int64))
        with pytest.raises(FormatError):
            pack_block_index(np.array([-1], dtype=np.int64))

    def test_unpack_rejects_truncated_table(self, rng):
        _, fls, _ = self._stream_and_fls(rng)
        with pytest.raises(FormatError, match="truncated"):
            unpack_block_index(pack_block_index(fls)[:-1], len(fls))

    def test_unpack_rejects_invalid_fl(self):
        with pytest.raises(FormatError, match="fixed length"):
            unpack_block_index(bytes([64]), 1)

    def test_index_offsets_match_scan(self, rng):
        stream, fls, _ = self._stream_and_fls(rng)
        scanned, scanned_fls = scan_record_offsets(stream, len(fls), 32)
        indexed = index_record_offsets(fls, 32, stream_size=len(stream))
        assert np.array_equal(indexed, scanned)
        assert np.array_equal(scanned_fls, fls)

    def test_index_offsets_respect_start(self, rng):
        _, fls, _ = self._stream_and_fls(rng)
        base = index_record_offsets(fls, 32)
        shifted = index_record_offsets(fls, 32, start=7)
        assert np.array_equal(shifted, base + 7)

    def test_index_offsets_reject_overrun(self, rng):
        stream, fls, _ = self._stream_and_fls(rng)
        with pytest.raises(FormatError, match="outside|truncated"):
            index_record_offsets(fls, 32, stream_size=len(stream) - 1)

    def test_decode_with_explicit_layout(self, rng):
        stream, fls, residuals = self._stream_and_fls(rng)
        offsets = index_record_offsets(fls, 32, stream_size=len(stream))
        out = decode_blocks(
            stream, len(fls), 32, offsets=offsets, fls=fls
        )
        assert np.array_equal(out, residuals)

    def test_decode_rejects_layout_shape_mismatch(self, rng):
        stream, fls, _ = self._stream_and_fls(rng)
        offsets = index_record_offsets(fls, 32)
        with pytest.raises(FormatError, match="mismatch"):
            decode_blocks(
                stream, len(fls), 32, offsets=offsets[:-1], fls=fls
            )

    def test_decode_rejects_layout_out_of_bounds(self, rng):
        stream, fls, _ = self._stream_and_fls(rng)
        offsets = index_record_offsets(fls, 32) + len(stream)
        with pytest.raises(FormatError, match="outside"):
            decode_blocks(stream, len(fls), 32, offsets=offsets, fls=fls)
