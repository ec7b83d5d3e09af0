"""Fig 11: compression throughput, 5 compressors x 6 datasets x 3 bounds.

CereSZ bars come from the wafer model (512x512 PEs, pipeline length 1) fed
by workload statistics measured on the synthetic fields; baselines come
from the calibrated device models. Asserted shape facts from the paper:
CereSZ wins everywhere; the speedup over cuSZp sits in the 2.43x-10.98x
band; SZ stays under 1 GB/s; throughput falls as the bound tightens.
"""

from benchmarks.conftest import run_artifact
from repro.harness.figures import average_gbs


def test_fig11(benchmark, record_result):
    bars, text = run_artifact(benchmark, "fig11")
    record_result("fig11_compression_throughput", text)
    avg = average_gbs(bars, "CereSZ")
    speedup = avg / average_gbs(bars, "cuSZp")

    groups = {}
    for b in bars:
        groups.setdefault((b.dataset, b.rel), {})[b.compressor] = (
            b.throughput_gbs
        )
    for key, rates in groups.items():
        assert rates["CereSZ"] == max(rates.values()), key
        assert 2.0 <= rates["CereSZ"] / rates["cuSZp"] <= 12.0, key
        assert rates["SZ"] < 1.0
    assert 3.0 <= speedup <= 8.0
    assert 250 <= avg <= 900
