"""Fused stage-group kernels against the stepped sub-stage machines.

``repro.core.lower`` runs every pipelined stage group through one fused
kernel; the stepped machines (``run_substage`` and
``run_decompress_substage`` over ``PipelineState`` and
``DecompressState``) are its oracle. These tests chain both over random
contiguous splits of the sub-stage list, hop by hop, in both directions.
Every hop must forward the same wire vector and charge the same cycles and
accounting items (the task-dispatch charges of idle shuffle and unshuffle
bits and of a zero block's sign restore included), and the tail must emit
the same record or decoded values.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lower import (
    _encode_record,
    _make_decompress_process,
    _make_fused_decode,
    _make_fused_group,
    _make_stepped_group,
    _record_entry,
    _wire_entry,
    lower_plan,
)
from repro.core.mapping import PipelineState, ProgramOutputs
from repro.core.mapping_decompress import (
    DecompressOutputs,
    DecompressState,
    decode_block_from_words,
)
from repro.core.plan import plan_pipeline
from repro.core.predictors import get_predictor
from repro.core.schedule import StageDistribution
from repro.core.stages import compression_substages, decompression_substages
from repro.errors import CompressionError, ScheduleError
from repro.wse.color import Color
from repro.wse.cost import PAPER_CYCLE_MODEL
from repro.wse.engine import Engine
from repro.wse.fabric import Fabric
from repro.wse.trace import NodeCounters

#: 2 eps = 1, so integer-valued blocks quantize to themselves exactly.
EPS = 0.5
OUT = Color(1, "fwd")


class _Ctx:
    """The part of TaskContext a stage-group kernel touches, recorded."""

    def __init__(self):
        self.buffers: dict[str, np.ndarray] = {}
        self.cycles = 0
        self.sent: list[np.ndarray] = []

    def buffer(self, name: str) -> np.ndarray:
        return self.buffers[name]

    def spend(self, cycles, *, relay: bool = False) -> None:
        self.cycles += int(round(cycles))

    def send(self, color, array) -> None:
        self.sent.append(array)

    def halt(self) -> None:
        pass


class _Counters(NodeCounters):
    """NodeCounters that also log every accounting item, in order."""

    def __init__(self):
        super().__init__(label="group", kind="stage", row=0, col=0)
        self.items: list[tuple[str, float]] = []

    def add_stage(self, stage_name, cycles):
        self.items.append((stage_name, cycles))
        super().add_stage(stage_name, cycles)

    def add_stages(self, items):
        self.items.extend(items)
        super().add_stages(items)


def _block(block_size: int, fl: int, seed: int) -> np.ndarray:
    """Integer codes whose largest Lorenzo residual has exactly ``fl`` bits."""
    rng = np.random.default_rng(seed)
    top = (1 << fl) - 1
    residuals = rng.integers(-top, top + 1, size=block_size)
    residuals[rng.integers(block_size)] = top * rng.choice((-1, 1))
    return np.cumsum(residuals).astype(np.float64)


@st.composite
def _groups(draw, stages):
    """A random contiguous split of ``stages`` into non-empty groups."""
    n = len(stages)
    cuts = draw(st.sets(st.integers(1, n - 1))) if n > 1 else set()
    bounds = [0, *sorted(cuts), n]
    return [tuple(stages[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _compress_hop(make, group, src, first, last, plan, ctx, nc):
    """One compression hop: the forwarded vector, or the tail's record."""
    outputs = ProgramOutputs()
    ctx.buffers["stage_in"] = src
    run_group, _ = make(
        group, "stage_in", first, None if last else OUT, [0], {"done": 0},
        plan, PAPER_CYCLE_MODEL, outputs, nc, True,
    )
    run_group(ctx)
    return outputs.records[0] if last else ctx.sent[0]


def _decode_hop(make, group, entry, first, last, plan, ctx, nc):
    """One decode hop: the forwarded vector, or the tail's values."""
    outputs = DecompressOutputs()
    process, _ = make(
        group, first, None if last else OUT, [0], {"done": 0}, plan,
        PAPER_CYCLE_MODEL, outputs, nc,
    )
    process(ctx, entry)
    return outputs.blocks[0] if last else ctx.sent[0]


def _entered_hop(make, group, enter, vec, last, plan, ctx, nc):
    """A decode hop that first reads its entry state from a wire vector,
    so a header the reader rejects counts as the hop's outcome."""
    return _decode_hop(make, group, enter(vec), False, last, plan, ctx, nc)


def _error(exc: Exception) -> str:
    """A failed hop's record of its error: a ``CompressionError``'s message,
    or the type of the ``ValueError`` a state past ``state_len`` raises,
    which the fused and stepped writes word differently."""
    if isinstance(exc, CompressionError):
        return str(exc)
    return type(exc).__name__


def _outcome(hop, *args):
    """A hop's result, cycles and items — or the error it raised (see
    ``_error``) with what it charged before raising."""
    ctx, nc = _Ctx(), _Counters()
    try:
        result = hop(*args, ctx, nc)
    except (CompressionError, ValueError) as exc:
        return ("error", _error(exc), ctx.cycles, nc.items), None
    return ("ok", _bits(result), ctx.cycles, nc.items), result


def _compress_chain(make, groups, values, plan):
    hops = []
    src = values
    for i, group in enumerate(groups):
        last = i == len(groups) - 1
        hop, src = _outcome(
            _compress_hop, make, group, src.copy(), i == 0, last, plan
        )
        hops.append(hop)
        if src is None:
            break
    return hops


def _decode_chain(make, from_record, from_wire, groups, fl, words, plan):
    hops = []
    entry = from_record(fl, words, plan.block_size)
    for i, group in enumerate(groups):
        last = i == len(groups) - 1
        hop, result = _outcome(
            _decode_hop, make, group, entry, i == 0, last, plan
        )
        hops.append(hop)
        if result is None:
            break
        if not last:
            entry = from_wire(result.copy())
    return hops


def _bits(result) -> bytes:
    return result if isinstance(result, bytes) else result.tobytes()


def _record(values: np.ndarray) -> tuple[bytes, int, np.ndarray | None]:
    record, fl = _encode_record(values, EPS, get_predictor("lorenzo1d"))
    words = np.frombuffer(record[4:], dtype=np.uint32).copy() if fl else None
    return record, fl, words


def _compress_plan(block_size: int, planned: int):
    sign_bytes = block_size // 8
    return SimpleNamespace(
        eps=EPS,
        block_size=block_size,
        state_len=5 + block_size + sign_bytes * (1 + planned),
    )


def _decode_plan(block_size: int, max_fl: int):
    return SimpleNamespace(
        eps=EPS,
        block_size=block_size,
        state_len=4 + block_size + block_size // 8
        + max_fl * (block_size // 32),
    )


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    block_size=st.sampled_from([32, 64]),
    fl=st.integers(0, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_compress_groups_match_stepped(data, block_size, fl, seed):
    # Planned shuffle bits may fall short of or exceed the block's own
    # fixed length: short plans leave planes unshuffled, long ones idle.
    planned = data.draw(st.integers(0, 21), label="planned bits")
    stages = compression_substages(planned, block_size)
    groups = data.draw(_groups(stages), label="groups")
    values = _block(block_size, fl, seed)
    plan = _compress_plan(block_size, planned)
    stepped = _compress_chain(_make_stepped_group, groups, values, plan)
    fused = _compress_chain(_make_fused_group, groups, values, plan)
    assert fused == stepped
    if planned >= fl:
        assert stepped[-1][:2] == ("ok", _record(values)[0])


def _commit_rows(commit, rows, body, outputs, last, nc):
    """Commit a run's rows as the engine does, recording each row as
    ``_outcome`` does: the run form's rows before ``commit.ok`` are booked
    one at a time (their cycles, items and output or send), and every other
    row, all of them when the run form declined (``commit`` is None), runs
    through the one-block ``body(ctx, r)``; the run stops at its first
    error. Returns the records, the results and whether it declined."""
    hops, results = [], []
    for r in range(rows):
        before = len(nc.items)
        if commit is not None and r < commit.ok:
            commit.book(r, r + 1)
            if last:
                result = outputs[r]
            else:
                assert commit.color is OUT
                result = commit.sends[r]
            cycles = commit.cycles[r]
        else:
            ctx = _Ctx()
            try:
                body(ctx, r)
            except (CompressionError, ValueError) as exc:
                hops.append(
                    ("error", _error(exc), ctx.cycles, nc.items[before:])
                )
                break
            result = outputs[r] if last else ctx.sent[0]
            cycles = ctx.cycles
        hops.append(("ok", _bits(result), cycles, nc.items[before:]))
        results.append(result)
    return hops, results, commit is None


def _run_hop(group, stack, first, last, plan):
    """One hop of the run kernel over ``stack``, as a ready receive train
    takes it (see ``_commit_rows``). Returns each row's ``_outcome``
    record, the forwarded vectors (or records) and whether it declined."""
    nc, outputs = _Counters(), ProgramOutputs()
    run_group, run = _make_fused_group(
        group, "stage_in", first, None if last else OUT,
        list(range(len(stack))), {"done": 0}, plan, PAPER_CYCLE_MODEL,
        outputs, nc, True,
    )

    def body(ctx, r):
        ctx.buffers["stage_in"] = stack[r].copy()
        run_group(ctx)

    return _commit_rows(
        run(stack.copy()), len(stack), body, outputs.records, last, nc
    )


def _run_chain(groups, blocks, plan):
    """Every block's hops through the run kernel, one run per group."""
    chains = [[] for _ in blocks]
    stack = np.array(blocks)
    for i, group in enumerate(groups):
        last = i == len(groups) - 1
        hops, results, declined = _run_hop(group, stack, i == 0, last, plan)
        # Valid blocks never fail, and the run form takes any stack of them.
        assert len(hops) == len(blocks) and not declined
        for chain, hop in zip(chains, hops):
            chain.append(hop)
        if not last:
            stack = np.array(results)
    return chains


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    block_size=st.sampled_from([32, 64]),
    seed=st.integers(0, 2**32 - 1),
)
def test_run_kernel_matches_stepped(data, block_size, seed):
    """A stack of 1-40 blocks of mixed fixed lengths (zero blocks
    included) through the run kernel: every row equals its own block's
    stepped chain, hop by hop."""
    planned = data.draw(st.integers(0, 21), label="planned bits")
    stages = compression_substages(planned, block_size)
    groups = data.draw(_groups(stages), label="groups")
    fls = data.draw(
        st.lists(st.integers(0, 20), min_size=1, max_size=40),
        label="fixed lengths",
    )
    blocks = [_block(block_size, fl, seed + i) for i, fl in enumerate(fls)]
    plan = _compress_plan(block_size, planned)
    stepped = [
        _compress_chain(_make_stepped_group, groups, values, plan)
        for values in blocks
    ]
    assert _run_chain(groups, blocks, plan) == stepped


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    block_size=st.sampled_from([32, 64]),
    fl=st.integers(0, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_decode_groups_match_stepped(data, block_size, fl, seed):
    # The plan sizes its unshuffle bits for the stream's largest fl, so
    # this block's bits beyond its own fl are planned but idle.
    max_fl = fl + data.draw(st.integers(0, 3), label="extra planned bits")
    stages = decompression_substages(max_fl, block_size)
    groups = data.draw(_groups(stages), label="groups")
    _, fl, words = _record(_block(block_size, fl, seed))
    plan = _decode_plan(block_size, max_fl)
    stepped = _decode_chain(
        _make_decompress_process,
        DecompressState.from_record,
        DecompressState.from_array,
        groups, fl, words, plan,
    )
    fused = _decode_chain(
        _make_fused_decode, _record_entry, _wire_entry, groups, fl, words,
        plan,
    )
    assert fused == stepped
    expected = decode_block_from_words(fl, words, EPS, block_size)
    assert stepped[-1][:2] == ("ok", expected.tobytes())


def _record_stack(records) -> np.ndarray:
    """A decode head's run as a record train hands it to the run form: one
    row per record, its fl and then its words, zero-padded."""
    width = max((0 if words is None else words.size) for _, words in records)
    stack = np.zeros((len(records), 1 + width), dtype=np.int64)
    for row, (fl, words) in zip(stack, records):
        row[0] = fl
        if words is not None:
            row[1 : 1 + words.size] = words
    return stack


def _decode_run_hop(group, stack, entries, first, last, plan):
    """One decode hop of the run form over ``stack``, as a ready receive
    train takes it (see ``_commit_rows``; a row the batch does not commit
    runs its ``entries`` one through the one-block ``process``). Returns
    each row's ``_outcome`` record, the forwarded vectors (or values) and
    whether it declined."""
    nc, outputs = _Counters(), DecompressOutputs()
    process, run = _make_fused_decode(
        group, first, None if last else OUT, list(range(len(stack))),
        {"done": 0}, plan, PAPER_CYCLE_MODEL, outputs, nc,
    )
    return _commit_rows(
        run(stack.copy()),
        len(stack),
        lambda ctx, r: process(ctx, entries[r]()),
        outputs.blocks,
        last,
        nc,
    )


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    block_size=st.sampled_from([32, 64]),
    seed=st.integers(0, 2**32 - 1),
)
def test_decode_run_kernel_matches_stepped(data, block_size, seed):
    """A run of 1-40 records of mixed fixed lengths (header-only fl-0
    records included) through the decode run form, head first: every row
    equals its own record's stepped chain, hop by hop, and no valid stack
    is declined."""
    fls = data.draw(
        st.lists(st.integers(0, 20), min_size=1, max_size=40),
        label="fixed lengths",
    )
    max_fl = max(fls) + data.draw(st.integers(0, 3), label="extra bits")
    stages = decompression_substages(max_fl, block_size)
    groups = data.draw(_groups(stages), label="groups")
    plan = _decode_plan(block_size, max_fl)
    records = [
        _record(_block(block_size, fl, seed + i))[1:]
        for i, fl in enumerate(fls)
    ]
    stepped = [
        _decode_chain(
            _make_decompress_process,
            DecompressState.from_record,
            DecompressState.from_array,
            groups, fl, words, plan,
        )
        for fl, words in records
    ]
    chains = [[] for _ in records]
    stack = _record_stack(records)
    for i, group in enumerate(groups):
        last = i == len(groups) - 1
        hops, results, declined = _decode_run_hop(
            group, stack, [None] * len(records), i == 0, last, plan
        )
        assert len(hops) == len(records) and not declined
        for chain, hop in zip(chains, hops):
            chain.append(hop)
        if not last:
            stack = np.array(results)
    assert chains == stepped


@pytest.mark.parametrize("row", [0, 4, 6])
@pytest.mark.parametrize(
    "word, value",
    [(0, 2.5), (0, np.nan), (0, -1.0), (0, 5.0), (0, 3.0), (0, 2.0),
     (1, 48.0), (2, -1.0), (2, 2.5), (2, 13.0), (2, 1.0), (2, 0.0),
     (3, np.inf)],
)
@pytest.mark.parametrize("last", [True, False])
@pytest.mark.parametrize("split", [3, 10])
def test_corrupt_decode_row_fails_the_run_like_stepped(
    split, last, word, value, row
):
    """A run of seven decode states (fixed lengths 0-12 of 12 planned
    bits) with one corrupt header word: the run form declines exactly when
    a row fails a header or phase check, the rows before it commit as
    their stepped hops do, and the corrupt row fails (or, with a word
    still legal for the group, forwards or stores) as its stepped hop
    does. ``split`` 3 makes the second group start at unshuffle bit 3; 10
    puts the last planes and the sign restore in it; ``last`` makes it run
    to the tail (values) or forward its states. A wrong but legal phase
    or fl word changes which of its planes row 4 (fl 8) adds; 13 puts its
    planes past the vector's end."""
    stages = decompression_substages(12, 32)
    head = tuple(stages[:split])
    group = tuple(stages[split:] if last else stages[split : split + 3])
    plan = _decode_plan(32, 12)
    vecs = [
        _outcome(
            _decode_hop, _make_decompress_process, head,
            DecompressState.from_record(*_record(_block(32, fl, fl))[1:], 32),
            True, False, plan,
        )[1]
        for fl in (0, 1, 3, 5, 8, 12, 2)
    ]
    vecs[row][word] = value
    entries = [lambda vec=vec: _wire_entry(vec.copy()) for vec in vecs]
    hops, _, declined = _decode_run_hop(
        group, np.array(vecs), entries, False, last, plan
    )
    stepped = [
        _outcome(
            _entered_hop, _make_decompress_process, group,
            DecompressState.from_array, vec.copy(), last, plan,
        )[0]
        for vec in vecs
    ]
    failed = [hop[0] == "error" for hop in stepped]
    expected = stepped[: failed.index(True) + 1] if any(failed) else stepped
    assert hops == expected
    assert declined == any(failed)


#: Header words a bit flip could leave in the phase slot.
PHASE_WORDS = [-1.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 2.5, np.nan]


@pytest.mark.parametrize("length", [2, 3, 5])
@pytest.mark.parametrize("phase_word", PHASE_WORDS)
def test_corrupt_compress_phase_fails_like_stepped(length, phase_word):
    """A state arriving in the wrong phase fails the fused kernel with the
    stepped path's header check or phase-order error, or (when the phase is
    still legal for the group) forwards the identical vector."""
    stages = compression_substages(8, 32)
    n = len(stages)
    bounds = [round(i * n / length) for i in range(length + 1)]
    groups = [tuple(stages[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    plan = _compress_plan(32, 8)
    _, vec = _outcome(
        _compress_hop, _make_stepped_group, groups[0], _block(32, 8, 1),
        True, False, plan,
    )
    vec[0] = phase_word
    stepped, fused = (
        _outcome(
            _compress_hop, make, groups[1], vec.copy(), False, length == 2,
            plan,
        )[0]
        for make in (_make_stepped_group, _make_fused_group)
    )
    assert fused == stepped


@pytest.mark.parametrize("length", [2, 3, 6])
@pytest.mark.parametrize(
    "phase_word", [0.0, 1.0, 2.0, 3.0, 4.0, -1.0, 2.5, 7.0, np.nan]
)
@pytest.mark.parametrize("fl", [0, 5, 8])
def test_corrupt_decode_phase_fails_like_stepped(length, phase_word, fl):
    """The decode counterpart; with fl 5 of 8 planned bits, a group's idle
    unshuffles are charged before its sign restore fails. A phase word
    that names no decode phase fails both readers' header check."""
    stages = decompression_substages(8, 32)
    n = len(stages)
    bounds = [round(i * n / length) for i in range(length + 1)]
    groups = [tuple(stages[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    plan = _decode_plan(32, 8)
    _, fl, words = _record(_block(32, fl, 2))
    _, vec = _outcome(
        _decode_hop, _make_decompress_process, groups[0],
        DecompressState.from_record(fl, words, 32), True, False, plan,
    )
    vec[0] = phase_word
    stepped, fused = (
        _outcome(
            _entered_hop, make, groups[1], enter, vec.copy(), length == 2,
            plan,
        )[0]
        for make, enter in (
            (_make_decompress_process, DecompressState.from_array),
            (_make_fused_decode, _wire_entry),
        )
    )
    assert fused == stepped
    if phase_word not in (0.0, 1.0, 2.0, 3.0, 4.0):
        assert stepped[0] == "error"
        assert "invalid phase index" in stepped[1]


def _flip(word: float, bit: int) -> float:
    """``word`` with one bit of its float64 encoding flipped."""
    raw = np.array([word]).view(np.uint64) ^ np.uint64(1 << bit)
    return float(raw.view(np.float64)[0])


#: Count words a flip or a bad forward could leave: bit 62 of a
#: not-yet-computed -1.0 is -inf; NaN and 2.5 are not integers.
COUNT_WORDS = [_flip(-1.0, 62), np.nan, 2.5]


@pytest.mark.parametrize("word, name", [(2, "max_mag"), (3, "fl")])
@pytest.mark.parametrize("value", COUNT_WORDS)
def test_corrupt_count_word_fails_like_stepped(word, name, value):
    """A max_mag or fl word that is neither -1 (not yet computed) nor a
    non-negative integer fails ``PipelineState.from_array`` and both
    stage-group kernels with the same ``CompressionError``, before any
    charge."""
    stages = compression_substages(8, 32)
    groups = [tuple(stages[:2]), tuple(stages[2:])]
    plan = _compress_plan(32, 8)
    _, vec = _outcome(
        _compress_hop, _make_stepped_group, groups[0], _block(32, 8, 1),
        True, False, plan,
    )
    assert vec[2] == vec[3] == -1.0  # neither computed yet
    vec[word] = value
    with pytest.raises(CompressionError, match=f"invalid {name}"):
        PipelineState.from_array(vec.copy())
    stepped, fused = (
        _outcome(
            _compress_hop, make, groups[1], vec.copy(), False, True, plan
        )[0]
        for make in (_make_stepped_group, _make_fused_group)
    )
    assert fused == stepped
    assert stepped[0] == "error" and f"invalid {name}" in stepped[1]
    assert stepped[2:] == (0, [])


@pytest.mark.parametrize("row", [0, 1, 6])
@pytest.mark.parametrize(
    "word, value",
    [(0, 2.5), (0, np.nan), (0, 0.0), (0, 2.0), (0, 6.0), (0, 7.0),
     (2, 2.5), (3, np.nan), (3, _flip(-1.0, 62)), (3, 1.0), (4, 0.0)],
)
@pytest.mark.parametrize("last", [True, False])
@pytest.mark.parametrize("split", [2, 7])
def test_corrupt_row_fails_the_run_like_stepped(split, last, word, value, row):
    """A run of seven states (fixed lengths 0-12) with one corrupt phase,
    count or bits word: the run form declines exactly when a row fails a
    check, the rows before it commit as their stepped hops do, and the
    corrupt row fails (or, with a word still legal for the group,
    forwards or stores) as its stepped hop does. A legal but wrong fl or
    bits word leaves that row's planes out of line with the others'.
    ``split`` 2 makes the second group start at Lorenzo; 7 makes it a
    shuffle-only group; ``last`` makes it the tail (records) or three
    sub-stages that forward their state."""
    stages = compression_substages(8, 32)
    head = tuple(stages[:split])
    group = tuple(stages[split:] if last else stages[split : split + 3])
    plan = _compress_plan(32, 8)
    vecs = [
        _outcome(
            _compress_hop, _make_stepped_group, head, _block(32, fl, fl),
            True, False, plan,
        )[1]
        for fl in (0, 1, 3, 5, 8, 12, 2)
    ]
    vecs[row][word] = value
    hops, _, declined = _run_hop(group, np.array(vecs), False, last, plan)
    stepped = [
        _outcome(
            _compress_hop, _make_stepped_group, group, vec.copy(), False,
            last, plan,
        )[0]
        for vec in vecs
    ]
    failed = [hop[0] == "error" for hop in stepped]
    expected = stepped[: failed.index(True) + 1] if any(failed) else stepped
    assert hops == expected
    # A block that cannot finalize fails in its commit, after its charges,
    # as the one-block path does; a failed check declines the run, and so
    # may a wrong bits word that puts a row's new planes out of line.
    checked = any(failed) and "finalize" not in expected[-1][1]
    assert declined == checked or word == 4


@pytest.mark.parametrize("decode", [False, True])
def test_a_state_past_state_len_fails_the_run_like_stepped(decode):
    """A plan whose ``state_len`` is short of its longest forwarded state:
    by 20 words for compression states after shuffle bits 1-4 (8 planned
    bits), by one plane word for decode states of the largest fixed length
    (12). The run form commits the rows before the first state that does
    not fit as their stepped hops do, and that row raises the stepped
    hop's ``ValueError`` after the same charges."""
    if decode:
        plan = _decode_plan(32, 12)
        plan.state_len -= 1
        group = tuple(decompression_substages(12, 32)[:3])
        records = [
            _record(_block(32, fl, fl))[1:] for fl in (3, 8, 5, 12, 2)
        ]
        entries = [
            lambda fl=fl, words=words: _record_entry(fl, words, 32)
            for fl, words in records
        ]
        hops, _, declined = _decode_run_hop(
            group, _record_stack(records), entries, True, False, plan
        )
        stepped = [
            _outcome(
                _decode_hop, _make_decompress_process, group,
                DecompressState.from_record(fl, words, 32), True, False,
                plan,
            )[0]
            for fl, words in records
        ]
    else:
        plan = _compress_plan(32, 8)
        plan.state_len -= 20
        stages = compression_substages(8, 32)
        group = tuple(stages[7:11])
        vecs = [
            _outcome(
                _compress_hop, _make_stepped_group, tuple(stages[:7]),
                _block(32, fl, fl), True, False, plan,
            )[1]
            for fl in (3, 2, 5, 1, 4)
        ]
        hops, _, declined = _run_hop(group, np.array(vecs), False, False, plan)
        stepped = [
            _outcome(
                _compress_hop, _make_stepped_group, group, vec.copy(), False,
                False, plan,
            )[0]
            for vec in vecs
        ]
    failed = [hop[0] == "error" for hop in stepped]
    assert failed.index(True) == (3 if decode else 2)
    assert hops == stepped[: failed.index(True) + 1]
    assert hops[-1][1] == "ValueError" and not declined


def test_non_contiguous_group_is_rejected_at_lowering():
    """The fused kernels need Algorithm 1's contiguous groups; a plan that
    reorders sub-stages fails at lowering, and only the stepped oracle
    will run it."""
    stages = compression_substages(2, 32)
    dist = StageDistribution(
        groups=(tuple(stages[:6]) + (stages[7],), (stages[6],))
    )
    blocks = np.cumsum(np.ones((2, 32)), axis=1)
    for fast_kernels in (True, False):
        plan = plan_pipeline(blocks, EPS, dist, rows=1, cols=2)
        fabric = Fabric(1, 2)
        if fast_kernels:
            with pytest.raises(ScheduleError, match="contiguous"):
                lower_plan(plan, fabric, Engine(fabric))
        else:
            lower_plan(plan, fabric, Engine(fabric), fast_kernels=False)
