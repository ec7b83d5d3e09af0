"""CRC32C primitives: known vectors, incremental use, combine, and the
many-region lane kernel the integrity layer leans on, all checked against
a table-free bit-at-a-time reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.crc32c import crc32c, crc32c_combine, crc32c_many

CHECK_VECTOR = 0xE3069283  # iSCSI/ext4 Castagnoli check value
POLY = 0x82F63B78  # reflected Castagnoli polynomial
LANE = 64  # bytes per lane of the kernel under test


def crc_bitwise(data: bytes, crc: int = 0) -> int:
    """Reference CRC32C: one polynomial-division step per bit, no tables."""
    reg = crc ^ 0xFFFFFFFF
    for byte in data:
        reg ^= byte
        for _ in range(8):
            reg = (reg >> 1) ^ (POLY if reg & 1 else 0)
    return reg ^ 0xFFFFFFFF


class TestSingleBuffer:
    def test_known_vector(self):
        assert crc32c(b"123456789") == CHECK_VECTOR

    def test_empty_is_zero(self):
        assert crc32c(b"") == 0

    def test_empty_continues_previous(self):
        assert crc32c(b"", crc=0xDEADBEEF) == 0xDEADBEEF

    def test_incremental_matches_whole(self):
        a, b = b"12345", b"6789"
        assert crc32c(b, crc=crc32c(a)) == CHECK_VECTOR

    def test_accepts_numpy_views(self):
        data = np.arange(1000, dtype=np.float32)
        assert crc32c(data) == crc32c(data.tobytes())

    def test_big_buffer_matches_incremental_chunks(self):
        """A buffer of 16Ki+ lanes folds in one call; the result must equal
        the CRC continued chunk by chunk (chunks off the lane grid)."""
        rng = np.random.default_rng(3)
        big = rng.integers(0, 256, size=(1 << 20) + 13, dtype=np.uint8)
        big = big.tobytes()
        incremental = 0
        for lo in range(0, len(big), 4093):
            incremental = crc32c(big[lo : lo + 4093], crc=incremental)
        assert crc32c(big) == incremental

    def test_single_byte_flip_always_detected(self):
        data = bytearray(b"the quick brown fox jumps over the lazy dog")
        ref = crc32c(bytes(data))
        for i in range(len(data)):
            data[i] ^= 0x40
            assert crc32c(bytes(data)) != ref
            data[i] ^= 0x40


class TestCombine:
    def test_combine_matches_concatenation(self):
        a, b = b"hello, ", b"world"
        assert crc32c_combine(crc32c(a), crc32c(b), len(b)) == crc32c(a + b)

    def test_combine_with_empty_suffix(self):
        assert crc32c_combine(0x12345678, 0, 0) == 0x12345678

    def test_combine_various_lengths(self):
        rng = np.random.default_rng(7)
        blob = rng.integers(0, 256, size=700, dtype=np.uint8).tobytes()
        for cut in (1, 63, 64, 65, 255, 256, 511):
            a, b = blob[:cut], blob[cut:]
            assert crc32c_combine(
                crc32c(a), crc32c(b), len(b)
            ) == crc32c(blob)


class TestManyRegions:
    def test_matches_per_region_scalar(self):
        rng = np.random.default_rng(11)
        buf = rng.integers(0, 256, size=512, dtype=np.uint8).tobytes()
        starts = np.array([0, 10, 100, 300, 511])
        lengths = np.array([10, 90, 200, 211, 1])
        got = crc32c_many(buf, starts, lengths)
        want = [
            crc32c(buf[s : s + n])
            for s, n in zip(starts.tolist(), lengths.tolist())
        ]
        assert got.tolist() == want

    def test_zero_length_regions(self):
        got = crc32c_many(b"abcdef", [0, 3], [0, 0])
        assert got.tolist() == [0, 0]

    def test_init_seeds_split_coverage(self):
        """init= continues each region from a prior CRC — the exact shape
        the v3 group CRC uses (fl slice ++ record slice)."""
        buf = b"AAAABBBBCCCCDDDD"
        fl = [crc32c(buf[0:2]), crc32c(buf[4:6])]
        got = crc32c_many(buf, [8, 12], [4, 4], init=fl)
        assert got.tolist() == [
            crc32c(buf[0:2] + buf[8:12]),
            crc32c(buf[4:6] + buf[12:16]),
        ]

    def test_region_overrun_raises(self):
        with pytest.raises(ValueError, match="extends"):
            crc32c_many(b"abc", [0], [4])

    def test_negative_region_raises(self):
        with pytest.raises(ValueError, match="negative"):
            crc32c_many(b"abc", [0], [-1])

    def test_empty_region_list(self):
        assert crc32c_many(b"abc", [], []).size == 0


def _as_form(data: bytes, form: str):
    """``data`` as bytes, a memoryview, or a non-contiguous uint8 array."""
    if form == "bytes":
        return data
    if form == "memoryview":
        return memoryview(data)
    holder = np.zeros((len(data), 3), dtype=np.uint8)
    holder[:, 1] = np.frombuffer(data, dtype=np.uint8)
    return holder[:, 1]


#: Region shapes that stress the lane kernel: padding of every width mod 4,
#: exactly one lane, one byte past a lane, many lanes, overlap with the
#: previous region, and regions that end on the buffer's last byte.
REGION_KINDS = (
    "empty", "mod4=1", "mod4=2", "mod4=3", "one lane", "lane + 1",
    "multi-lane", "overlap", "to end",
)


@st.composite
def buffer_and_regions(draw):
    n = draw(st.integers(0, 3 * 1024))
    data = draw(st.binary(min_size=n, max_size=n))
    regions = []
    for kind in draw(st.lists(st.sampled_from(REGION_KINDS), max_size=8)):
        if kind in ("overlap", "to end"):
            # "overlap" starts inside the previous region, if there is one.
            lo, span = regions[-1] if kind == "overlap" and regions else (0, n)
            start = draw(st.integers(lo, min(lo + span, n)))
            length = n - start
            if kind == "overlap":
                length = draw(st.integers(0, length))
        else:
            length = {
                "empty": 0,
                "one lane": LANE,
                "lane + 1": LANE + 1,
                "multi-lane": draw(st.integers(2 * LANE + 1, 3 * 1024)),
            }.get(kind)
            if length is None:  # "mod4=r"
                length = 4 * draw(st.integers(0, 60)) + int(kind[-1])
            length = min(length, n)
            start = draw(st.integers(0, n - length))
        regions.append((start, length))
    inits = draw(
        st.lists(
            st.integers(0, 0xFFFFFFFF),
            min_size=len(regions),
            max_size=len(regions),
        )
    )
    return data, regions, inits


class TestAgainstBitwiseReference:
    """Every entry point against :func:`crc_bitwise` on shapes that cover
    each branch of the lane kernel."""

    def test_reference_known_vector(self):
        assert crc_bitwise(b"123456789") == CHECK_VECTOR

    @given(
        case=buffer_and_regions(),
        form=st.sampled_from(["bytes", "memoryview", "strided"]),
        seed=st.integers(0, 0xFFFFFFFF),
        cut=st.floats(0, 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_kernel_matches_reference(self, case, form, seed, cut):
        data, regions, inits = case
        buf = _as_form(data, form)
        starts = [s for s, _ in regions]
        lengths = [n for _, n in regions]
        got = crc32c_many(buf, starts, lengths, init=inits)
        want = [
            crc_bitwise(data[s : s + n], c)
            for (s, n), c in zip(regions, inits)
        ]
        assert got.tolist() == want
        assert crc32c_many(buf, starts, lengths).tolist() == [
            crc_bitwise(data[s : s + n]) for s, n in regions
        ]

        whole = crc_bitwise(data, seed)
        assert crc32c(buf, crc=seed) == whole
        k = int(cut * len(data))
        assert crc32c_combine(
            crc_bitwise(data[:k], seed), crc_bitwise(data[k:]), len(data) - k
        ) == whole
