"""Fig 7: throughput vs number of PE rows (NYX temperature, block 32).

The paper's point: rows run independently, so throughput is exactly linear
in the row count.
"""

from benchmarks.conftest import run_artifact
from repro.harness.figures import plan_placement_summary


def test_fig7(benchmark, record_result):
    points, text = run_artifact(benchmark, "fig7")
    placement = plan_placement_summary(
        strategy="rows", rows=4, cols=1, dataset="NYX"
    )
    record_result("fig7_row_scaling", text + "\n\n" + placement)
    assert "strategy=rows" in placement

    per_row = [p.throughput_mbs / p.rows for p in points]
    assert max(per_row) / min(per_row) < 1.0001  # strictly linear
