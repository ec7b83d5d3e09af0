"""Fig 13: compression throughput of 1/2/4/8-PE pipelines (REL 1e-4).

Paper: the 1-PE pipeline wins on QMCPack and Hurricane; longer pipelines
lose to the imperfect stage decomposition and the C2 forwarding overhead.
The bottleneck group used here comes from the *actual* Algorithm 1
distribution at each length.
"""

from benchmarks.conftest import run_artifact
from repro.harness.figures import plan_placement_summary


def test_fig13(benchmark, record_result):
    points, text = run_artifact(benchmark, "fig13")
    placement = plan_placement_summary(
        strategy="multi", rows=1, cols=4, pipeline_length=2, blocks=8
    )
    record_result("fig13_pipeline_length", text + "\n\n" + placement)
    assert "strategy=staged" in placement  # pl=2 lowers to staged pipelines

    for dataset in {p.dataset for p in points}:
        series = sorted(
            (p.pipeline_length, p.throughput_gbs)
            for p in points
            if p.dataset == dataset
        )
        rates = [r for _, r in series]
        assert rates[0] == max(rates), dataset  # 1-PE optimal
        assert all(a >= b for a, b in zip(rates, rates[1:])), dataset
