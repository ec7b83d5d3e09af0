"""Table 2: Multiplication / Addition breakdown of Pre-Quantization.

Paper: Multiplication ~5063-5081 cycles (~80% of pre-quantization),
Addition ~1033-1049.
"""

from benchmarks.conftest import run_artifact


def test_table2(benchmark, record_result):
    rows, text = run_artifact(benchmark, "table2")
    record_result("table2_prequant_breakdown", text)
    for r in rows:
        assert r.multiplication + r.addition == r.prequant
        assert 0.75 <= r.multiplication / r.prequant <= 0.88
