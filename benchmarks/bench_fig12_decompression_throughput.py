"""Fig 12: decompression throughput.

Paper: CereSZ averages 581.31 GB/s (1.27x its compression average, up to
920.67 GB/s on RTM) — decompression skips Max/GetLength because the block
headers pre-record the fixed length.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.harness.figures import (
    average_gbs,
    fig11_fig12_throughput,
    render_fig12,
)


def test_fig12(benchmark, record_result):
    # Fig 11 comes from the same pass over the fields, for the comparison.
    fig11, bars = run_once(benchmark, fig11_fig12_throughput)
    record_result("fig12_decompression_throughput", render_fig12(bars))

    assert 350 <= average_gbs(bars, "CereSZ") <= 1100
    # Decompression beats compression per configuration (Figs 11 vs 12).
    comp = {
        (b.dataset, b.rel): b.throughput_gbs
        for b in fig11
        if b.compressor == "CereSZ"
    }
    decomp = {
        (b.dataset, b.rel): b.throughput_gbs
        for b in bars
        if b.compressor == "CereSZ"
    }
    ratios = [decomp[k] / comp[k] for k in comp]
    assert all(r > 1.0 for r in ratios)
    assert 1.1 <= float(np.mean(ratios)) <= 1.45  # paper: ~1.27
