"""The predictor registry and its contract across every layer.

The pluggable-predictor refactor made prediction a first-class stage:
registry (predictors.py), container tag (format.py), codec dispatch
(compressor.py/decompressor.py), fused fast path (fastpath.py), shard
engine (parallel.py), random access (access.py), and plan IR / lowering
(plan.py/lower.py). This suite pins the cross-layer property: any stream
written with any registered predictor under any container layout decodes
with a *plain* ``CereSZ()`` — dispatch is purely header-driven — within
the error bound; plus the locality-contract diagnostics, the byte-identity
guarantees (fast vs reference, jobs-invariance, wafer vs host), and the
format-level canonical-encoding rules.
"""

import numpy as np
import pytest

from repro.core.compressor import CereSZ
from repro.core.format import (
    FLAG_ND_PREDICTOR,
    FLAG_PREDICTOR_ID,
    StreamHeader,
    make_header,
)
from repro.core.parallel import is_sharded
from repro.core.predictors import (
    BLOCK_LOCAL,
    WHOLE_ARRAY,
    get_predictor,
    predictor_from_tag,
    predictor_names,
    registered_predictors,
)
from repro.errors import CompressionError, FormatError, ScheduleError

ALL_PREDICTORS = predictor_names()
BLOCK_LOCAL_PREDICTORS = tuple(
    p.name for p in registered_predictors() if p.block_local
)
WHOLE_ARRAY_PREDICTORS = tuple(
    p.name for p in registered_predictors() if not p.block_local
)


def _field(shape, dtype, kind="smooth", seed=0):
    rng = np.random.default_rng(seed)
    if kind == "zero":
        return np.zeros(shape, dtype=dtype)
    idx = np.indices(shape).astype(np.float64)
    smooth = 100.0 + sum(
        np.sin(g / (3.0 + i)) for i, g in enumerate(idx)
    )
    smooth += 0.05 * rng.standard_normal(shape)
    return smooth.astype(dtype)


# --- registry ---------------------------------------------------------------------------


def test_registry_names_and_tags_are_stable():
    # Container tags are forever: reordering or reusing one silently
    # reinterprets archived streams.
    assert {p.name: p.tag for p in registered_predictors()} == {
        "lorenzo1d": 0,
        "nd": 1,
        "lorenzo2d": 2,
        "lorenzo3d": 3,
        "regression": 4,
        "interpolation": 5,
    }
    for p in registered_predictors():
        assert predictor_from_tag(p.tag) is p
        assert get_predictor(p.name) is p
        assert p.locality in (BLOCK_LOCAL, WHOLE_ARRAY)


def test_registry_aliases_and_unknowns():
    with pytest.raises(CompressionError, match="registered:"):
        get_predictor("does-not-exist")
    with pytest.raises(CompressionError, match="unknown predictor tag"):
        predictor_from_tag(250)


def test_wrong_locality_api_raises_with_contract():
    lorenzo = get_predictor("lorenzo1d")
    nd = get_predictor("nd")
    with pytest.raises(CompressionError, match="block_local"):
        lorenzo.predict(np.zeros((4, 4), dtype=np.int64))
    with pytest.raises(CompressionError, match="whole_array"):
        nd.predict_blocks(np.zeros((2, 32), dtype=np.int64))


@pytest.mark.parametrize("name", ALL_PREDICTORS)
@pytest.mark.parametrize(
    "shape", [(64,), (7,), (1,), (33, 17), (6, 7, 9)]
)
def test_transforms_are_exactly_invertible(name, shape):
    pred = get_predictor(name)
    rng = np.random.default_rng(3)
    codes = rng.integers(-(2**40), 2**40, size=shape, dtype=np.int64)
    if pred.block_local:
        flat = codes.reshape(1, -1)
        back = pred.reconstruct_blocks(pred.predict_blocks(flat))
        assert np.array_equal(back, flat)
    else:
        back = pred.reconstruct(pred.predict(codes))
        assert np.array_equal(back, codes)


# --- the cross-layer property -----------------------------------------------------------


@pytest.mark.parametrize("name", ALL_PREDICTORS)
@pytest.mark.parametrize("dtype", ["f4", "f8"])
@pytest.mark.parametrize(
    "shape,kind",
    [
        ((257,), "smooth"),  # 1-D ragged tail
        ((48, 21), "smooth"),  # 2-D ragged
        ((9, 10, 11), "smooth"),  # 3-D ragged
        ((128,), "zero"),  # all-zero field
    ],
)
@pytest.mark.parametrize("container", ["v1", "v2", "v3"])
def test_any_predictor_any_container_decodes_by_header(
    name, dtype, shape, kind, container
):
    np_dtype = np.float32 if dtype == "f4" else np.float64
    field = _field(shape, np_dtype, kind)
    eps = 1e-3
    codec = CereSZ(predictor=name)
    result = codec.compress(
        field,
        eps=eps,
        index=container != "v1",
        checksum=container == "v3",
    )
    header, _ = StreamHeader.unpack(result.stream)
    assert header.predictor == name
    assert header.dtype == dtype
    # Decode with a codec that was NOT told the predictor: pure header
    # dispatch, for both the fused and the reference decode paths.
    for fast in (True, False):
        back = CereSZ(fast=fast).decompress(result.stream)
        assert back.shape == tuple(shape)
        assert back.dtype == np_dtype
        assert np.abs(back.astype(np.float64) - field).max() <= eps


@pytest.mark.parametrize("name", BLOCK_LOCAL_PREDICTORS)
def test_block_local_predictors_shard_to_cszx(name):
    from repro.core.parallel import compress_sharded

    field = _field((6000,), np.float32)
    codec = CereSZ(predictor=name)
    sharded = compress_sharded(
        field, eps=1e-3, codec=codec, jobs=2, shard_elements=2048
    )
    assert is_sharded(sharded.stream)
    back = CereSZ().decompress(sharded.stream)
    assert np.abs(back - field).max() <= 1e-3


@pytest.mark.parametrize("name", ALL_PREDICTORS)
def test_fast_and_reference_paths_are_byte_identical(name):
    field = _field((41, 23), np.float32)
    fast = CereSZ(predictor=name, fast=True).compress(field, eps=1e-3)
    ref = CereSZ(predictor=name, fast=False).compress(field, eps=1e-3)
    assert fast.stream == ref.stream


@pytest.mark.parametrize("name", WHOLE_ARRAY_PREDICTORS)
def test_whole_array_jobs_is_invariant(name):
    """jobs= must never change whole-array bytes (predict once, then
    shard only the block-range encode into one plain stream)."""
    field = _field((73, 41), np.float32)
    codec = CereSZ(predictor=name)
    # index=True on all three: the jobs= route defaults to indexed
    # shards, plain compression to v1 — pin the container so the only
    # variable is the worker count.
    serial = codec.compress(field, eps=1e-3, index=True)
    j1 = codec.compress(field, eps=1e-3, jobs=1, index=True)
    j4 = codec.compress(field, eps=1e-3, jobs=4, index=True)
    assert not is_sharded(j4.stream)
    assert j1.stream == serial.stream
    assert j4.stream == serial.stream


def test_per_call_predictor_override():
    field = _field((48, 21), np.float32)
    codec = CereSZ()  # lorenzo1d default
    default = codec.compress(field, eps=1e-3)
    override = codec.compress(field, eps=1e-3, predictor="lorenzo2d")
    assert StreamHeader.unpack(default.stream)[0].predictor == "lorenzo1d"
    assert StreamHeader.unpack(override.stream)[0].predictor == "lorenzo2d"
    # The instance default is untouched by the override.
    again = codec.compress(field, eps=1e-3)
    assert again.stream == default.stream


def test_whole_array_random_access_is_gated():
    from repro.core.access import decompress_range

    field = _field((48, 21), np.float32)
    stream = CereSZ(predictor="nd").compress(field, eps=1e-3).stream
    with pytest.raises(CompressionError, match="block-local"):
        decompress_range(stream, 0, 10)
    # Block-local non-default predictors still random-access fine.
    stream = CereSZ(predictor="regression").compress(field, eps=1e-3).stream
    part = decompress_range(stream, 5, 100)
    assert np.abs(part - field.reshape(-1)[5:100]).max() <= 1e-3


# --- container format rules -------------------------------------------------------------


# Flags live after the shape dims and eps; for a plain v1 header with no
# constant/crc/tag trailer, that is the final byte — a fixed offset for a
# given shape, whatever the predictor.
_FLAGS_OFF_2D = len(make_header((8, 8), 0.01).pack()) - 1


def test_default_predictor_header_bytes_are_unchanged():
    # lorenzo1d emits neither flag bit nor a tag byte: pre-refactor
    # decoders read these streams, and pre-refactor streams decode here.
    packed = make_header((64,), 0.01).pack()
    flags = packed[-1]
    assert not flags & FLAG_PREDICTOR_ID
    assert not flags & FLAG_ND_PREDICTOR
    back, _ = StreamHeader.unpack(packed + b"\x00" * 8)
    assert back.predictor == "lorenzo1d"


def test_nd_predictor_uses_legacy_flag():
    packed = make_header((8, 8), 0.01, predictor="nd").pack()
    flags = packed[_FLAGS_OFF_2D]
    assert flags & FLAG_ND_PREDICTOR
    assert not flags & FLAG_PREDICTOR_ID
    assert len(packed) == _FLAGS_OFF_2D + 1  # no tag byte


def test_explicit_tag_roundtrip_and_canonical_rejections():
    for name in ("lorenzo2d", "lorenzo3d", "regression", "interpolation"):
        packed = make_header((8, 8), 0.01, predictor=name).pack()
        assert packed[_FLAGS_OFF_2D] & FLAG_PREDICTOR_ID
        assert len(packed) == _FLAGS_OFF_2D + 2  # flags then tag byte
        back, _ = StreamHeader.unpack(packed + b"\x00" * 8)
        assert back.predictor == name

    base = make_header((8, 8), 0.01, predictor="regression").pack()
    # Unknown tag: a future registry entry needs a newer decoder.
    with pytest.raises(FormatError, match="newer decoder"):
        StreamHeader.unpack(base[:-1] + bytes([200]) + b"\x00" * 8)
    # Tags 0/1 must use their legacy encodings (one canonical byte form).
    with pytest.raises(FormatError, match="legacy"):
        StreamHeader.unpack(base[:-1] + bytes([0]) + b"\x00" * 8)
    # Both predictor encodings at once is non-canonical.
    both = bytearray(base)
    both[_FLAGS_OFF_2D] |= FLAG_ND_PREDICTOR
    with pytest.raises(FormatError, match="both"):
        StreamHeader.unpack(bytes(both) + b"\x00" * 8)

    with pytest.raises(FormatError, match="unknown predictor"):
        make_header((8,), 0.01, predictor="nope")


# --- plan IR and lowering ---------------------------------------------------------------


def _blocks(num=4, block=32):
    span = np.arange(num * block, dtype=np.float64)
    return np.sin(span / 5.0).reshape(num, block)


def test_plans_carry_and_validate_the_predictor():
    from repro.core.plan import plan_row_parallel

    plan = plan_row_parallel(
        _blocks(), 0.01, rows=2, cols=1, predictor="regression"
    )
    assert plan.predictor == "regression"
    assert plan.snapshot()["predictor"] == "regression"
    assert "predictor regression" in plan.describe()
    plan.validate()


def test_whole_array_predictors_cannot_be_planned():
    from repro.core.plan import plan_multi_pipeline, plan_row_parallel

    for ctor in (plan_row_parallel, plan_multi_pipeline):
        with pytest.raises(ScheduleError) as err:
            ctor(_blocks(), 0.01, rows=2, cols=2, predictor="nd")
        # The diagnostic names the locality contract and the paper trade.
        msg = str(err.value)
        assert "whole_array" in msg
        assert "block_local" in msg


def test_staged_pipelines_are_lorenzo1d_only():
    from repro.core.plan import plan_pipeline
    from repro.core.schedule import distribute_substages
    from repro.core.stages import compression_substages
    from repro.wse.cost import PAPER_CYCLE_MODEL

    dist = distribute_substages(
        compression_substages(6, 32, PAPER_CYCLE_MODEL), 3
    )
    with pytest.raises(ScheduleError, match="lorenzo1d"):
        plan_pipeline(
            _blocks(), 0.01, dist, rows=1, cols=3, predictor="regression"
        )


@pytest.mark.parametrize("strategy", ["rows", "multi"])
@pytest.mark.parametrize("name", BLOCK_LOCAL_PREDICTORS)
def test_wafer_streams_match_host_for_block_local(strategy, name):
    from repro.core.wse_compressor import WSECereSZ

    rng = np.random.default_rng(7)
    walk = np.cumsum(rng.normal(size=256)).astype(np.float32)
    sim = WSECereSZ(rows=2, cols=2, strategy=strategy, predictor=name)
    result = sim.compress(walk, rel=1e-3)
    host = CereSZ(predictor=name).compress(walk, rel=1e-3)
    assert result.stream == host.stream
    assert StreamHeader.unpack(result.stream)[0].predictor == name


def test_wse_compressor_rejects_whole_array_at_init():
    from repro.core.wse_compressor import WSECereSZ

    with pytest.raises(ScheduleError, match="whole_array"):
        WSECereSZ(predictor="interpolation")


def test_wafer_decompress_is_lorenzo1d_only():
    from repro.core.wse_compressor import WSECereSZ

    field = _field((2048,), np.float32)
    stream = CereSZ(predictor="regression").compress(field, eps=1e-2).stream
    sim = WSECereSZ(rows=2, cols=2, strategy="rows")
    with pytest.raises(CompressionError, match="host"):
        sim.decompress_on_wafer(stream)
