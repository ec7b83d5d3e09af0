"""Table 3: Sign / Max / GetLength / Bit-shuffle breakdown of encoding.

Paper: fixed sub-stages ~1030-1390 cycles, Bit-shuffle ~1977 cycles per
effective bit (33609/17 = 25675/13 = 23694/12).
"""

from benchmarks.conftest import run_artifact


def test_table3(benchmark, record_result):
    rows, text = run_artifact(benchmark, "table3")
    record_result("table3_encoding_breakdown", text)
    per_bit = {round(r.bit_shuffle / r.fixed_length, 3) for r in rows}
    assert len(per_bit) == 1  # uniform per-bit cost, the paper's observation
    for r in rows:
        assert r.bit_shuffle / r.fl_encode > 0.8  # Bit-shuffle dominates
