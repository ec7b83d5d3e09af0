"""Tests for the per-PE 48 KB SRAM allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PE_SRAM_BYTES
from repro.errors import MemoryError_
from repro.wse.memory import SramAllocator


class TestSramAllocator:
    def test_default_capacity_is_48kb(self):
        assert SramAllocator().capacity == PE_SRAM_BYTES == 48 * 1024

    def test_alloc_and_free_accounting(self):
        sram = SramAllocator()
        sram.alloc("a", 1000)
        assert sram.used == 1000
        assert sram.free == PE_SRAM_BYTES - 1000
        sram.release("a")
        assert sram.used == 0

    def test_overflow_raises(self):
        sram = SramAllocator(capacity=100)
        sram.alloc("a", 60)
        with pytest.raises(MemoryError_, match="overflow"):
            sram.alloc("b", 50)

    def test_exact_fit_allowed(self):
        sram = SramAllocator(capacity=100)
        sram.alloc("a", 100)
        assert sram.free == 0

    def test_resize_existing_allocation(self):
        sram = SramAllocator(capacity=100)
        sram.alloc("a", 90)
        sram.alloc("a", 50)  # shrink in place
        assert sram.used == 50
        sram.alloc("b", 50)

    def test_resize_beyond_capacity_raises(self):
        sram = SramAllocator(capacity=100)
        sram.alloc("a", 50)
        sram.alloc("b", 40)
        with pytest.raises(MemoryError_):
            sram.alloc("a", 70)

    def test_release_unknown_raises(self):
        with pytest.raises(MemoryError_, match="unknown"):
            SramAllocator().release("ghost")

    def test_negative_allocation_rejected(self):
        with pytest.raises(ValueError):
            SramAllocator().alloc("a", -1)

    def test_reserved_bytes_count_against_budget(self):
        sram = SramAllocator(capacity=100, reserved=30)
        assert sram.free == 70
        with pytest.raises(MemoryError_):
            sram.alloc("a", 71)

    def test_invalid_reserved_rejected(self):
        with pytest.raises(ValueError):
            SramAllocator(capacity=100, reserved=200)

    def test_zero_byte_allocation_tracks_name(self):
        sram = SramAllocator()
        sram.alloc("marker", 0)
        assert "marker" in sram
        assert sram.size_of("marker") == 0

    def test_snapshot_is_a_copy(self):
        sram = SramAllocator()
        sram.alloc("a", 10)
        snap = sram.snapshot()
        snap["a"] = 999
        assert sram.size_of("a") == 10


NAMES = st.sampled_from(["a", "b", "c"])
SRAM_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), NAMES, st.integers(0, 120)),
        st.tuples(st.just("release"), NAMES),
    ),
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(reserved=st.integers(0, 60), ops=SRAM_OPS)
def test_running_total_matches_the_allocation_table(reserved, ops):
    """After any allocs, resizes, releases and refused allocs, ``used``
    and ``free`` read what the sum over ``snapshot()`` gives."""
    sram = SramAllocator(capacity=200, reserved=reserved)
    for op in ops:
        before = sram.snapshot()
        try:
            if op[0] == "alloc":
                sram.alloc(op[1], op[2])
            else:
                sram.release(op[1])
        except MemoryError_:
            assert sram.snapshot() == before  # a refusal changes nothing
        used = reserved + sum(sram.snapshot().values())
        assert sram.used == used
        assert sram.free == sram.capacity - used
