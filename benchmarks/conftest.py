"""Shared infrastructure for the table/figure regeneration benchmarks.

Every bench regenerates one paper table or figure: it times the harness
function once (``benchmark.pedantic`` with a single round — these are
experiment runs, not microbenchmarks) and writes the artifact's one
rendering (``repro.harness.ARTIFACTS``) to
``benchmarks/results/<name>.txt`` so the regenerated artifacts survive the
run. Kernel microbenchmarks (``bench_kernels.py``) use the default
repeated timing.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record_result(results_dir):
    """Write one regenerated table/figure to the results directory."""

    def write(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")

    return write


def run_once(benchmark, fn, *args, **kwargs):
    """Time an experiment harness exactly once (no warmup repetitions)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def run_artifact(benchmark, name: str):
    """Time one harness artifact's compute once; return its data and text."""
    from repro.harness import ARTIFACTS

    compute, render = ARTIFACTS[name]
    data = run_once(benchmark, compute)
    return data, render(data)
