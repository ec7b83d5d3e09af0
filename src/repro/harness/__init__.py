"""Experiment harness: one compute and one render function per paper artifact.

:data:`ARTIFACTS` maps each artifact's name (``table1``...``table5``,
``fig7``, ``fig10``...``fig15``, ``calibration``, ``model_validation``,
``observations``) to its ``(compute, render)`` pair. ``compute`` returns
structured rows, so tests assert on them; ``render`` is the only code that
formats the artifact, so the benchmarks, ``ceresz table/figure/validate/
observations`` and :func:`repro.harness.reproduce.reproduce_all` all print
the same text. The ``observations`` entry is a verdict over the Fig 11/12,
Table 5 and Fig 15 data, which it computes once; ``reproduce_all`` judges
the data it already computed instead. The experiment-to-module map lives
in DESIGN.md; the paper-vs-measured record the harness produces is
summarized in EXPERIMENTS.md.
"""

from repro.harness.tables import (
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    render_table5,
    table1_stage_cycles,
    table2_prequant_breakdown,
    table3_encoding_breakdown,
    table4_datasets,
    table5_compression_ratio,
    table5_predictor_comparison,
)
from repro.harness.figures import (
    fig7_row_scaling,
    fig10_relay_and_execution,
    fig11_compression_throughput,
    fig11_fig12_throughput,
    fig12_decompression_throughput,
    fig13_pipeline_lengths,
    fig14_wse_sizes,
    fig15_quality,
    render_fig7,
    render_fig10,
    render_fig11,
    render_fig12,
    render_fig13,
    render_fig14,
    render_fig15,
)
from repro.harness.observations import (
    Verdict,
    all_observations,
    judge_observations,
    observation1_throughput,
    observation2_ratio,
    observation3_quality,
    render_observations,
)
from repro.harness.report import format_table
from repro.perf.calibration import calibration_report
from repro.perf.validate import validate_probe, validation_report
from repro.wse.cost import PAPER_CYCLE_MODEL

#: Artifact name -> ``(compute, render)``; the text of an artifact is
#: ``render(compute(**kwargs))``. The calibration audit computes nothing
#: beyond the cycle model it reports on.
ARTIFACTS = {
    "table1": (table1_stage_cycles, render_table1),
    "table2": (table2_prequant_breakdown, render_table2),
    "table3": (table3_encoding_breakdown, render_table3),
    "table4": (table4_datasets, render_table4),
    "table5": (table5_compression_ratio, render_table5),
    "fig7": (fig7_row_scaling, render_fig7),
    "fig10": (fig10_relay_and_execution, render_fig10),
    "fig11": (fig11_compression_throughput, render_fig11),
    "fig12": (fig12_decompression_throughput, render_fig12),
    "fig13": (fig13_pipeline_lengths, render_fig13),
    "fig14": (fig14_wse_sizes, render_fig14),
    "fig15": (fig15_quality, render_fig15),
    "calibration": (lambda: PAPER_CYCLE_MODEL, calibration_report),
    "model_validation": (validate_probe, validation_report),
    "observations": (all_observations, render_observations),
}


def render_artifact(name: str, **kwargs) -> str:
    """Compute one artifact of :data:`ARTIFACTS` and return its text."""
    compute, render = ARTIFACTS[name]
    return render(compute(**kwargs))


__all__ = [
    "ARTIFACTS",
    "render_artifact",
    "table1_stage_cycles",
    "table2_prequant_breakdown",
    "table3_encoding_breakdown",
    "table4_datasets",
    "table5_compression_ratio",
    "table5_predictor_comparison",
    "fig7_row_scaling",
    "fig10_relay_and_execution",
    "fig11_compression_throughput",
    "fig11_fig12_throughput",
    "fig12_decompression_throughput",
    "fig13_pipeline_lengths",
    "fig14_wse_sizes",
    "fig15_quality",
    "format_table",
    "Verdict",
    "all_observations",
    "judge_observations",
    "observation1_throughput",
    "observation2_ratio",
    "observation3_quality",
]
