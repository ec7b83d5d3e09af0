"""Table 1: execution cycles for the three compression steps.

Paper values (CESM-ATM / HACC / QMCPack): Pre-Quant 6051/6101/6111,
Lorenzo 975/975/975, FL-Encoding 37124/29181/27188. Ours come from the
calibrated cycle model evaluated at the fixed lengths measured on the
synthetic datasets.
"""

from benchmarks.conftest import run_artifact


def test_table1(benchmark, record_result):
    rows, text = run_artifact(benchmark, "table1")
    record_result("table1_stage_cycles", text)
    for r in rows:
        assert r.fl_encode > r.prequant > r.lorenzo  # Table 1's ordering
        assert abs(r.prequant - r.paper[0]) / r.paper[0] < 0.03
        assert r.lorenzo == r.paper[1]
