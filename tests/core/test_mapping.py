"""Tests for pipeline state, sub-stage execution, and record assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CompressionError
from repro.core.encoding import encode_blocks
from repro.core.mapping import (
    PipelineState,
    ProgramOutputs,
    finalize_record,
    run_substage,
    substage_cycles,
)
from repro.core.mapping_decompress import DecompressOutputs
from repro.core.stages import compression_substages
from repro.wse.cost import PAPER_CYCLE_MODEL


def fresh_state(values, eps=0.1):
    arr = np.asarray(values, dtype=np.float64)
    return PipelineState(phase="raw", block_size=arr.size, values=arr)


def run_all(values, eps, fl_plan=64):
    state = fresh_state(values)
    for stage in compression_substages(fl_plan, len(values)):
        state = run_substage(stage, state, eps)
    return state


class TestStageSemantics:
    def test_full_pipeline_matches_reference_encoder(self):
        rng = np.random.default_rng(0)
        data = np.cumsum(rng.normal(size=32))
        eps = 0.05
        state = run_all(data, eps)
        record = finalize_record(state)

        from repro.core.quantize import prequantize
        from repro.core.lorenzo import lorenzo_predict

        codes = prequantize(data, eps).reshape(1, -1)
        residuals = lorenzo_predict(codes)
        assert record == encode_blocks(residuals)

    def test_zero_block_record(self):
        state = run_all(np.zeros(32), 0.1)
        record = finalize_record(state)
        assert record == b"\x00\x00\x00\x00"  # fl=0 header only

    def test_multiplication_then_addition_is_quantization(self):
        state = fresh_state([0.83] * 8)
        stages = compression_substages(64, 8)
        state = run_substage(stages[0], state, 0.01)  # multiplication
        assert state.phase == "scaled"
        state = run_substage(stages[1], state, 0.01)  # addition
        assert state.phase == "codes"
        assert state.values[0] == 42  # round(0.83 / 0.02)

    def test_stage_order_enforced(self):
        state = fresh_state(np.ones(8))
        stages = compression_substages(2, 8)
        with pytest.raises(CompressionError):
            run_substage(stages[2], state, 0.1)  # lorenzo before quantize

    def test_sign_stage_splits_magnitude_and_sign(self):
        state = fresh_state(np.arange(8) - 4.0)
        eps = 0.5
        for stage in compression_substages(64, 8)[:4]:  # through sign
            state = run_substage(stage, state, eps)
        assert state.phase == "mags"
        assert (state.values >= 0).all()
        assert state.signs is not None

    def test_idle_shuffle_bits_do_nothing(self):
        """Planned bits beyond the block's fl are no-ops (schedule sized
        for the sampled max)."""
        state = run_all([1.0] * 32, 0.1, fl_plan=20)
        assert state.bits_done == state.fl < 20

    def test_finalize_requires_completed_state(self):
        with pytest.raises(CompressionError):
            finalize_record(fresh_state(np.ones(8)))


class TestStateSerialization:
    def test_round_trip_raw(self):
        state = fresh_state(np.arange(32, dtype=np.float64))
        back = PipelineState.from_array(state.to_array())
        assert back.phase == "raw"
        assert np.array_equal(back.values, state.values)

    def test_round_trip_mid_encode(self):
        state = run_all(np.linspace(-5, 5, 32), 0.01, fl_plan=64)
        vec = state.to_array()
        back = PipelineState.from_array(vec)
        assert back.phase == state.phase
        assert back.fl == state.fl
        assert back.max_mag == state.max_mag
        assert back.bits_done == state.bits_done
        assert np.array_equal(back.signs, state.signs)
        for a, b in zip(back.shuffled, state.shuffled):
            assert np.array_equal(a, b)

    def test_serialized_record_equals_direct_record(self):
        state = run_all(np.linspace(-5, 5, 32), 0.01)
        back = PipelineState.from_array(state.to_array())
        assert finalize_record(back) == finalize_record(state)

    def test_padding_tolerated(self):
        """Fabric buffers are fixed-extent; trailing zeros must parse."""
        state = run_all(np.linspace(0, 1, 32), 0.01)
        vec = state.to_array()
        padded = np.zeros(vec.size + 40)
        padded[: vec.size] = vec
        back = PipelineState.from_array(padded)
        assert finalize_record(back) == finalize_record(state)


class TestStateValidation:
    """Corrupted state vectors must fail loudly, naming the bad value."""

    def _vec(self):
        return run_all(np.linspace(0, 1, 32), 0.01).to_array()

    def test_to_array_rejects_unknown_phase(self):
        state = fresh_state(np.ones(8))
        state.phase = "garbled"
        with pytest.raises(CompressionError, match="unknown phase 'garbled'"):
            state.to_array()

    def test_rejects_short_vector(self):
        with pytest.raises(CompressionError, match=r"5-word header.*\(3,\)"):
            PipelineState.from_array(np.zeros(3))

    def test_rejects_matrix(self):
        with pytest.raises(CompressionError, match="5-word header"):
            PipelineState.from_array(np.zeros((4, 8)))

    @pytest.mark.parametrize("bad", [-1.0, 99.0, 2.5, np.nan, np.inf])
    def test_rejects_bad_phase_index(self, bad):
        vec = self._vec()
        vec[0] = bad
        with pytest.raises(CompressionError, match="invalid phase index"):
            PipelineState.from_array(vec)

    @pytest.mark.parametrize("bad", [0.0, -32.0, 12.0, 31.5, np.nan])
    def test_rejects_bad_block_size(self, bad):
        vec = self._vec()
        vec[1] = bad
        with pytest.raises(CompressionError, match="invalid block size"):
            PipelineState.from_array(vec)

    def test_block_size_message_names_value(self):
        vec = self._vec()
        vec[1] = 12.0
        with pytest.raises(CompressionError, match="12.0"):
            PipelineState.from_array(vec)

    @pytest.mark.parametrize("bad", [-1.0, 3.5, np.nan])
    def test_rejects_bad_bits_done(self, bad):
        vec = self._vec()
        vec[4] = bad
        with pytest.raises(CompressionError, match="invalid bits_done"):
            PipelineState.from_array(vec)

    def test_rejects_truncated_payload(self):
        vec = self._vec()
        with pytest.raises(
            CompressionError, match=rf"truncated.*needs {vec.size} words"
        ):
            PipelineState.from_array(vec[:-1])

    def test_truncation_message_names_counts(self):
        vec = self._vec()
        short = vec[: vec.size - 8]
        with pytest.raises(CompressionError, match=f"got {short.size}"):
            PipelineState.from_array(short)


class TestSubstageCycles:
    def test_regular_stage_uses_declared_cycles(self):
        stages = compression_substages(4)
        mult = stages[0]
        assert substage_cycles(mult, None, PAPER_CYCLE_MODEL, 32) == (
            mult.cycles
        )

    def test_idle_shuffle_is_nearly_free(self):
        stages = compression_substages(8)
        bit7 = stages[-1]
        busy = substage_cycles(bit7, 8, PAPER_CYCLE_MODEL, 32)
        idle = substage_cycles(bit7, 3, PAPER_CYCLE_MODEL, 32)
        assert idle < busy / 50

    def test_active_shuffle_charges_per_bit_cost(self):
        stages = compression_substages(8)
        bit0 = stages[6]
        assert substage_cycles(bit0, 8, PAPER_CYCLE_MODEL, 32) == (
            pytest.approx(PAPER_CYCLE_MODEL.bit_shuffle.cycles(32, 1))
        )


class TestArbitraryPipelineSplits:
    """Property: any contiguous split of the sub-stage chain produces the
    reference record (the state machine is split-point agnostic)."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_split_points(self, seed):
        import numpy as np
        from repro.core.quantize import prequantize
        from repro.core.lorenzo import lorenzo_predict

        rng = np.random.default_rng(seed)
        data = np.cumsum(rng.normal(size=32))
        eps = 0.05
        stages = compression_substages(64, 32)
        # Reference record.
        codes = prequantize(data, eps).reshape(1, -1)
        expected = encode_blocks(lorenzo_predict(codes))

        # Random contiguous grouping, serialized through PipelineState
        # between groups (exactly what the fabric does).
        cuts = sorted(
            rng.choice(
                np.arange(1, len(stages)),
                size=rng.integers(1, 5),
                replace=False,
            ).tolist()
        )
        bounds = [0, *cuts, len(stages)]
        state = fresh_state(data)
        for lo, hi in zip(bounds, bounds[1:]):
            # Serialize across the "fabric" boundary.
            state = PipelineState.from_array(state.to_array())
            for stage in stages[lo:hi]:
                fl_known = state.fl
                if stage.name.startswith("shuffle_bit_") and (
                    fl_known is not None
                    and int(stage.name.rsplit("_", 1)[1]) >= fl_known
                ):
                    continue
                state = run_substage(stage, state, eps)
        assert finalize_record(state) == expected


class TestProgramOutputsStream:
    def test_records_join_in_block_order(self):
        outputs = ProgramOutputs(records={1: b"b", 0: b"a", 2: b"cd"})
        assert outputs.stream(3) == b"abcd"
        assert outputs.stream(2) == b"ab"

    def test_gap_names_the_first_eight_missing_blocks(self):
        outputs = ProgramOutputs(records={i: b"x" for i in range(0, 24, 2)})
        with pytest.raises(CompressionError) as exc_info:
            outputs.stream(24)
        assert str(exc_info.value) == (
            "simulation produced no record for blocks "
            "[1, 3, 5, 7, 9, 11, 13, 15]..."
        )
        with pytest.raises(CompressionError) as exc_info:
            outputs.stream(6)
        assert str(exc_info.value) == (
            "simulation produced no record for blocks [1, 3, 5]"
        )


# -- replicas by reference ---------------------------------------------------------

#: A zero block's record: the 4-byte header alone.
HEADER_ONLY = bytes(4)


@st.composite
def replica_layouts(draw):
    """Direct records plus 1-3 representatives merged as 1-6 copies each.

    Copies are mostly laid end to end, as the composer tiles them, but a
    copy may also skip a block (a gap) or step back over earlier blocks
    (an overlap), and its indices come as an ascending ``range`` or as a
    permuted tuple (a hybrid row interleaves its blocks). Returns
    ``(direct indices, [(record count, seqs)], num_blocks)``.
    """
    reps, cursor = [], 0
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 12))
        seqs = []
        for _ in range(draw(st.integers(1, 6))):
            shift = draw(st.sampled_from([0, 0, 0, 1, -1, -n]))
            start = max(0, cursor + shift)
            seq = range(start, start + n)
            if draw(st.booleans()):
                seq = tuple(draw(st.permutations(list(seq))))
            seqs.append(seq)
            cursor = max(cursor, start + n)
        reps.append((n, seqs))
    direct = draw(
        st.lists(st.integers(0, cursor + 2), max_size=4, unique=True)
    )
    num_blocks = draw(st.one_of(st.just(cursor), st.integers(0, cursor + 3)))
    return direct, reps, num_blocks


def _eager(direct: dict, reps: list) -> dict:
    """The oracle: the per-block copy loop composition used to run."""
    store = dict(direct)
    for values, seqs in reps:
        for seq in seqs:
            store.update(zip(seq, values))
    return store


def _outcome(read):
    try:
        return "ok", read()
    except CompressionError as exc:
        return "error", str(exc)


class TestReplicatedOutputs:
    @settings(max_examples=300, deadline=None)
    @given(layout=replica_layouts(), data=st.data())
    def test_stream_matches_the_materialized_join(self, layout, data):
        direct_idx, shapes, num_blocks = layout
        record = st.one_of(
            st.just(HEADER_ONLY), st.binary(min_size=5, max_size=9)
        )
        direct = {i: data.draw(record) for i in direct_idx}
        reps = [
            (data.draw(st.lists(record, min_size=n, max_size=n)), seqs)
            for n, seqs in shapes
        ]
        outputs = ProgramOutputs(dict(direct))
        for values, seqs in reps:
            outputs.merge_replicas(values, seqs)
        eager = _eager(direct, reps)
        assert _outcome(lambda: outputs.stream(num_blocks)) == _outcome(
            lambda: ProgramOutputs(dict(eager)).stream(num_blocks)
        )
        assert list(outputs.records.items()) == list(eager.items())
        assert _outcome(lambda: outputs.stream(num_blocks)) == _outcome(
            lambda: ProgramOutputs(dict(eager)).stream(num_blocks)
        )

    @settings(max_examples=300, deadline=None)
    @given(layout=replica_layouts(), seed=st.integers(0, 2**16))
    def test_assemble_matches_the_materialized_stack(self, layout, seed):
        direct_idx, shapes, num_blocks = layout
        rng = np.random.default_rng(seed)
        bs = 4

        def block():
            return rng.normal(size=bs).astype(np.float32)

        direct = {i: block() for i in direct_idx}
        reps = [([block() for _ in range(n)], seqs) for n, seqs in shapes]
        outputs = DecompressOutputs(dict(direct))
        for values, seqs in reps:
            outputs.merge_replicas(values, seqs)
        eager = _eager(direct, reps)

        def bits(out):
            return _outcome(lambda: out.assemble(num_blocks, bs).tobytes())

        assert bits(outputs) == bits(DecompressOutputs(dict(eager)))
        blocks = outputs.blocks
        assert list(blocks) == list(eager)
        assert all(blocks[i] is eager[i] for i in eager)
        assert bits(outputs) == bits(DecompressOutputs(dict(eager)))

    def test_only_an_exact_tiling_skips_the_mapping(self):
        outputs = ProgramOutputs()
        outputs.merge_replicas([b"a", b"b", b"c"], [range(3, 6), range(0, 3)])
        assert outputs.stream(6) == b"abcabc"
        assert not outputs._store  # tiled: no per-block mapping built
        assert outputs.stream(2) == b"ab"  # a prefix reads the mapping
        assert list(outputs._store) == [3, 4, 5, 0, 1, 2]

    def test_an_empty_copy_does_not_end_the_tiling(self):
        outputs = ProgramOutputs()
        outputs.merge_replicas([b"a"] * 5, [range(0, 5)])
        outputs.merge_replicas([], [range(5, 3)])  # empty, stop < start
        assert outputs.stream(3) == b"aaa"

    def test_gap_reads_the_mapping(self):
        outputs = ProgramOutputs()
        outputs.merge_replicas([b"a", b"b", b"c"], [range(0, 3), range(4, 7)])
        assert outputs.stream(3) == b"abc"
        with pytest.raises(CompressionError) as exc_info:
            outputs.stream(7)
        assert str(exc_info.value) == (
            "simulation produced no record for blocks [3]"
        )
        assert outputs.records == {
            0: b"a", 1: b"b", 2: b"c", 4: b"a", 5: b"b", 6: b"c"
        }
