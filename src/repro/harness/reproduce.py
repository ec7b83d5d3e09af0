"""One-command reproduction: every table, figure, and audit to one folder.

``ceresz reproduce --out DIR`` (or :func:`reproduce_all`) regenerates the
paper's full evaluation and the reproduction-side audits, writing each
artifact of :data:`repro.harness.ARTIFACTS` as a text file plus a
``REPORT.md`` index with the headline numbers. ``quick=True`` narrows
dataset/field coverage for smoke runs. Each artifact is computed once (Figs
11 and 12 from one pass over the fields): the Observations are judged over
the Fig 11/12, Table 5 and Fig 15 data this run computed and wrote beside
them.
"""

from __future__ import annotations

import pathlib
import time
from dataclasses import dataclass

from repro.harness import ARTIFACTS
from repro.harness.figures import (
    PAPER_FIG11_AVG_GBS,
    PAPER_FIG11_SPEEDUP,
    PAPER_FIG12_AVG_GBS,
    average_gbs,
    fig11_fig12_throughput,
)
from repro.harness.observations import judge_observations


@dataclass(frozen=True)
class ReproduceSummary:
    out_dir: pathlib.Path
    artifacts: tuple[str, ...]
    elapsed_seconds: float
    headline: dict


#: Artifacts whose compute takes no seed.
_UNSEEDED = ("table2", "table4", "calibration")


def _compute_kwargs(quick: bool, seed: int) -> dict[str, dict]:
    """Per-artifact compute keywords; ``quick`` narrows the heavy ones."""
    kwargs = {
        name: ({} if name in _UNSEEDED else {"seed": seed})
        for name in ARTIFACTS
    }
    # One pass computes Figs 11 and 12, so they share one keyword dict.
    kwargs["fig12"] = kwargs["fig11"]
    if quick:
        narrow = {"datasets": ("QMCPack", "HACC"), "rel_bounds": (1e-2, 1e-4)}
        kwargs["table5"].update(narrow, field_limit=2)
        kwargs["fig11"].update(narrow)
        kwargs["fig14"]["sizes"] = (16, 64, 256)
        kwargs["model_validation"]["blocks"] = 16
    return kwargs


def reproduce_all(
    out_dir: str | pathlib.Path, *, quick: bool = False, seed: int = 0
) -> ReproduceSummary:
    """Run the full experiment matrix; returns the summary it wrote."""
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    artifacts: list[str] = []
    data = {}
    for name, kwargs in _compute_kwargs(quick, seed).items():
        compute, render = ARTIFACTS[name]
        if name == "observations":  # verdicts over the data computed above
            data[name] = judge_observations(
                data["fig11"], data["fig12"], data["table5"], data["fig15"]
            )
        elif name in ("fig11", "fig12"):  # both in one pass, at the first
            if name not in data:
                data["fig11"], data["fig12"] = fig11_fig12_throughput(**kwargs)
        else:
            data[name] = compute(**kwargs)
        (out / f"{name}.txt").write_text(render(data[name]) + "\n")
        artifacts.append(f"{name}.txt")

    f11, f12, f15 = data["fig11"], data["fig12"], data["fig15"]
    compress_avg = average_gbs(f11, "CereSZ")
    headline = {
        "compress_avg_gbs": round(compress_avg, 2),
        "decompress_avg_gbs": round(average_gbs(f12, "CereSZ"), 2),
        "speedup_vs_cuszp": round(
            compress_avg / average_gbs(f11, "cuSZp"), 2
        ),
        "fig15_psnr_db": round(float(f15.ceresz_psnr), 2),
        "observations_hold": all(v.holds for v in data["observations"]),
        "worst_model_gap": round(
            max(p.relative_gap for p in data["model_validation"]), 3
        ),
    }
    elapsed = time.monotonic() - started
    lines = [
        "# Reproduction report",
        "",
        f"Mode: {'quick' if quick else 'full'}; seed {seed}; "
        f"{elapsed:.1f} s.",
        "",
        "| headline | paper | this run |",
        "|---|---|---|",
        f"| compression avg (GB/s) | {PAPER_FIG11_AVG_GBS} | "
        f"{headline['compress_avg_gbs']} |",
        f"| decompression avg (GB/s) | {PAPER_FIG12_AVG_GBS} | "
        f"{headline['decompress_avg_gbs']} |",
        f"| speedup vs cuSZp | {PAPER_FIG11_SPEEDUP}x | "
        f"{headline['speedup_vs_cuszp']}x |",
        f"| Fig 15 PSNR (dB) | {f15.paper_psnr} | "
        f"{headline['fig15_psnr_db']} |",
        f"| Observations 1-3 | hold | "
        f"{'hold' if headline['observations_hold'] else 'FAIL'} |",
        f"| worst sim-vs-model gap | — | "
        f"{100 * headline['worst_model_gap']:.1f}% |",
        "",
        "Artifacts:",
        *[f"- {name}" for name in artifacts],
    ]
    (out / "REPORT.md").write_text("\n".join(lines) + "\n")
    artifacts.append("REPORT.md")
    return ReproduceSummary(
        out_dir=out,
        artifacts=tuple(artifacts),
        elapsed_seconds=elapsed,
        headline=headline,
    )
