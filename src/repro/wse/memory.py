"""Per-PE SRAM accounting.

Each PE owns 48 KB of SRAM holding *all* code and data (paper Section 2.1);
there is no global memory. The simulator does not model addresses — buffers
are numpy arrays — but it does enforce the capacity so that mappings which
would not fit on the device (e.g. pipeline length 1 with an oversized block
working set, see the paper's Section 4.4 discussion of when longer pipelines
become necessary) fail loudly in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import PE_SRAM_BYTES
from repro.errors import MemoryError_


@dataclass
class SramAllocator:
    """Named-buffer allocator with a hard byte budget."""

    capacity: int = PE_SRAM_BYTES
    reserved: int = 0  # bytes pre-charged for code/runtime, if desired
    _allocs: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError("SRAM capacity must be positive")
        if not (0 <= self.reserved <= self.capacity):
            raise ValueError("reserved bytes outside [0, capacity]")
        # A running sum of _allocs: `used` is read on every transmit.
        self._total = sum(self._allocs.values())

    @property
    def used(self) -> int:
        return self.reserved + self._total

    @property
    def free(self) -> int:
        return self.capacity - self.used

    def alloc(self, name: str, nbytes: int) -> None:
        """Reserve ``nbytes`` under ``name``.

        Re-allocating an existing name resizes it (the new size must still
        fit). Allocations of zero bytes are legal and track the name only.
        """
        if nbytes < 0:
            raise ValueError(f"negative allocation for {name!r}")
        old = self._allocs.get(name, 0)
        self.require(name, nbytes, reclaim=old)
        self._allocs[name] = nbytes
        self._total += nbytes - old

    def require(self, name: str, nbytes: int, *, reclaim: int = 0) -> None:
        """Raise :class:`MemoryError_` unless ``nbytes`` more would fit.

        ``reclaim`` bytes are returned first (a resize gives back the old
        size). Transient buffers that never outlive one operation — a
        task's transmit array — are checked here without being recorded.
        """
        if self.used - reclaim + nbytes > self.capacity:
            raise MemoryError_(
                f"PE SRAM overflow allocating {name!r}: need {nbytes} B, "
                f"{self.free + reclaim} B free of {self.capacity} B"
            )

    def release(self, name: str) -> None:
        if name not in self._allocs:
            raise MemoryError_(f"release of unknown buffer {name!r}")
        self._total -= self._allocs.pop(name)

    def size_of(self, name: str) -> int:
        return self._allocs[name]

    def __contains__(self, name: str) -> bool:
        return name in self._allocs

    def snapshot(self) -> dict[str, int]:
        """Copy of the current allocation table (for traces/diagnostics)."""
        return dict(self._allocs)
