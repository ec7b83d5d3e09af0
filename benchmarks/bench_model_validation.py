"""Cross-validation artifact: analytic model vs discrete-event simulator.

Not a paper table — this is the reproduction's own soundness check, the
structural leg of DESIGN.md's fidelity claim. Both parallelization
strategies run on small meshes with real data and real kernels; makespans
must track the Eq. 2-4 prediction.
"""

from benchmarks.conftest import run_artifact


def test_model_validation(benchmark, record_result):
    points, text = run_artifact(benchmark, "model_validation")
    record_result("model_validation", text)
    for p in points:
        assert p.relative_gap < 0.15, (p.strategy, p.rows, p.cols)
