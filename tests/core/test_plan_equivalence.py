"""Plan-constructor equivalence matrix (every strategy vs the reference).

Each mapping strategy is now a plan constructor plus the single lowering
pass. These tests sweep the awkward shapes — non-divisible block counts,
single-block inputs, all-zero blocks, more rows than blocks — and assert
the lowered programs still produce byte-identical compressed records and
array-identical reconstructions against the host NumPy reference.
"""

import numpy as np
import pytest

from repro.config import BLOCK_SIZE
from repro.core.compressor import CereSZ
from repro.core.plan import plan_multi_pipeline
from repro.core.wse_compressor import WSECereSZ
from repro.errors import ScheduleError

EPS = 0.01

# (label, strategy, rows, cols, pipeline_length)
STRATEGY_CONFIGS = [
    ("rows", "rows", 3, 1, 1),
    ("pipeline", "pipeline", 2, 3, 3),
    ("multi", "multi", 2, 3, 1),
    ("staged", "multi", 1, 4, 2),
]


def _dataset(name: str, rng) -> np.ndarray:
    if name == "nondivisible":
        # 7 blocks: not a multiple of any mesh extent used above.
        return np.cumsum(rng.normal(size=7 * BLOCK_SIZE)).astype(np.float32)
    if name == "single_block":
        # One block: rows > blocks on every multi-row mesh.
        return np.cumsum(rng.normal(size=BLOCK_SIZE)).astype(np.float32)
    if name == "zero_blocks":
        # First two blocks exactly zero (fl=0 records), rest a walk.
        data = np.cumsum(rng.normal(size=5 * BLOCK_SIZE)).astype(np.float32)
        data[: 2 * BLOCK_SIZE] = 0.0
        return data
    raise AssertionError(name)


@pytest.mark.parametrize(
    "label,strategy,rows,cols,pl",
    STRATEGY_CONFIGS,
    ids=[c[0] for c in STRATEGY_CONFIGS],
)
@pytest.mark.parametrize(
    "dataset", ["nondivisible", "single_block", "zero_blocks"]
)
class TestPlanEquivalence:
    def test_records_match_reference(
        self, dataset, label, strategy, rows, cols, pl, rng
    ):
        data = _dataset(dataset, rng)
        sim = WSECereSZ(
            rows=rows, cols=cols, strategy=strategy, pipeline_length=pl
        )
        result = sim.compress(data, eps=EPS)
        reference = CereSZ().compress(data, eps=EPS)
        assert result.stream == reference.stream

    def test_reconstruction_matches_reference(
        self, dataset, label, strategy, rows, cols, pl, rng
    ):
        data = _dataset(dataset, rng)
        sim = WSECereSZ(
            rows=rows, cols=cols, strategy=strategy, pipeline_length=pl
        )
        stream = sim.compress(data, eps=EPS).stream
        on_wafer, report = sim.decompress_on_wafer(stream)
        assert report.makespan_cycles > 0
        assert np.array_equal(on_wafer, sim.decompress(stream))


@pytest.mark.parametrize(
    "label,strategy,rows,cols,pl",
    STRATEGY_CONFIGS,
    ids=[c[0] for c in STRATEGY_CONFIGS],
)
def test_plan_for_matches_compressed_placement(
    label, strategy, rows, cols, pl, rng
):
    """plan_for() is the exact plan compress() lowers (same snapshot)."""
    data = _dataset("nondivisible", rng)
    sim = WSECereSZ(
        rows=rows, cols=cols, strategy=strategy, pipeline_length=pl
    )
    plan = sim.plan_for(data, eps=EPS)
    plan.validate()
    assert plan.num_blocks == 7
    again = sim.plan_for(data, eps=EPS)
    assert plan.snapshot() == again.snapshot()


def test_multi_pipeline_plan_names_the_staged_alternative():
    """Longer pipelines are the staged plan's job; the error says how."""
    blocks = np.zeros((4, BLOCK_SIZE))
    with pytest.raises(
        ScheduleError,
        match=r"plan_staged_multi_pipeline.*"
        r"WSECereSZ\(strategy=\"multi\", pipeline_length=k\)",
    ):
        plan_multi_pipeline(blocks, EPS, rows=1, cols=4, pipeline_length=2)
