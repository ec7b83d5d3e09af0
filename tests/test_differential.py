"""Differential oracle: every execution path against the reference codec.

One Hypothesis property drives a random float32 walk through every path
that claims to write the reference stream — the fused host kernel, the
wafer simulator under each mapping strategy in event and hybrid mode, a
self-healed wafer run, and replication-composed tiling — and asserts
identical bytes. Every decoder (fused host, sharded, wafer rows and
pipeline) must reproduce the reference decode bit for bit and honour the
error bound. The pipeline arm draws its length and block size, so its
stage-group boundaries fall after every kind of sub-stage in both
directions.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CereSZ, WSECereSZ
from repro.config import BLOCK_SIZE
from repro.core.parallel import compress_sharded
from repro.faults import FaultPlan, PEHalt
from repro.metrics.errorbound import check_error_bound

REFERENCE = CereSZ(fast=False)

WAFERS = {
    "rows": dict(rows=2, cols=1, strategy="rows"),
    "multi": dict(rows=2, cols=4, strategy="multi"),
    "staged": dict(rows=2, cols=4, strategy="multi", pipeline_length=2),
}

#: Halts row 0's only PE before its first block arrives. With no more
#: blocks than rows the halted PE's receive has already matched, so the
#: run quiesces without a stall and must still be repaired onto the spare.
HALTED_ROW0 = FaultPlan(seed=1, faults=(PEHalt(row=0, col=0, at_cycle=5),))


def _walk(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.standard_normal(n)).astype(np.float32)


walks = st.builds(_walk, st.integers(1, 700), st.integers(0, 2**32 - 1))


@settings(max_examples=120, deadline=None)
@given(
    data=walks,
    rel=st.sampled_from([1e-2, 1e-3, 1e-4]),
    pipeline_length=st.integers(1, 8),
    block_size=st.sampled_from([32, 64]),
)
def test_every_path_matches_the_reference(
    data, rel, pipeline_length, block_size
):
    ref = REFERENCE.compress(data, rel=rel)
    expected = REFERENCE.decompress(ref.stream)
    assert check_error_bound(data, expected, ref.eps)

    assert CereSZ().compress(data, rel=rel).stream == ref.stream
    assert np.array_equal(CereSZ().decompress(ref.stream), expected)
    sharded = CereSZ().compress(data, rel=rel, jobs=2)
    assert np.array_equal(CereSZ().decompress(sharded.stream, jobs=2), expected)
    # Finer shards each tighten the bound against their own peak (see
    # DESIGN.md, "One bound"), so they owe the bound and jobs-invariance,
    # not bit identity.
    fine = [
        compress_sharded(data, rel=rel, jobs=j, shard_elements=4 * BLOCK_SIZE)
        for j in (1, 2)
    ]
    assert fine[0].stream == fine[1].stream
    back = CereSZ().decompress(fine[1].stream, jobs=2)
    assert check_error_bound(data, back, ref.eps)
    if np.ptp(data) == 0:
        return  # constant fields bypass the wafer by design

    for name, kw in WAFERS.items():
        for mode in ("event", "hybrid"):
            run = WSECereSZ(mode=mode, **kw).compress(data, rel=rel)
            assert run.stream == ref.stream, (name, mode)
    pipeline = dict(
        rows=2, cols=8, strategy="pipeline",
        pipeline_length=pipeline_length, block_size=block_size,
    )
    piped_ref = CereSZ(fast=False, block_size=block_size).compress(
        data, rel=rel
    )
    for mode in ("event", "hybrid"):
        run = WSECereSZ(mode=mode, **pipeline).compress(data, rel=rel)
        assert run.stream == piped_ref.stream, ("pipeline", mode)
    healed = WSECereSZ(
        rows=2, cols=1, strategy="rows", spare_rows=1, on_fault="repair",
        faults=HALTED_ROW0,
    ).compress(data, rel=rel)
    assert healed.repair.outcome == "repaired"
    assert healed.stream == ref.stream

    back, _ = WSECereSZ(**WAFERS["rows"]).decompress_on_wafer(ref.stream)
    assert np.array_equal(back, expected)
    back, _ = WSECereSZ(**pipeline).decompress_on_wafer(piped_ref.stream)
    assert np.array_equal(back, REFERENCE.decompress(piped_ref.stream))

    row = data[: data.size // BLOCK_SIZE * BLOCK_SIZE]
    if row.size and np.ptp(row) > 0:
        tiled = WSECereSZ(rows=3, cols=4, strategy="multi").compress(
            row, rel=rel, tile_rows=True
        )
        assert tiled.stream == REFERENCE.compress(np.tile(row, 3), rel=rel).stream
