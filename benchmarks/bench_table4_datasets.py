"""Table 4: the dataset inventory (paper dims + synthetic stand-in dims)."""

from benchmarks.conftest import run_artifact


def test_table4(benchmark, record_result):
    rows, text = run_artifact(benchmark, "table4")
    record_result("table4_datasets", text)
    assert len(rows) == 6
    assert sum(r["num_fields"] for r in rows) == 79 + 13 + 2 + 6 + 36 + 6
