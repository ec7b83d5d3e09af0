"""The paper's three numbered Observations, judged over the artifacts' data.

Each observation function is a pure verdict over already-computed results
(Figs 11/12, Table 5, Fig 15) and returns a structured :class:`Verdict`
whose evidence values are built-in ``float``/``int``/``bool``;
:func:`render_observations` is the one text form of the verdicts that the
bench, the CLI and ``ceresz reproduce`` print. Tests assert they hold.

* **Observation 1** (5.2): CereSZ averages hundreds of GB/s for compression
  and decompression, ~5x faster than cuSZp.
* **Observation 2** (5.3): ratios are similar to cuSZ and slightly below
  SZp/cuSZp, because of the 32-bit message-passing restriction.
* **Observation 3** (5.4): identical PSNR/SSIM to cuSZp at the same bound,
  with a slightly compromised rate-distortion curve.

``ceresz reproduce`` judges the Fig 11/12, Table 5 and Fig 15 data it has
already computed (:func:`judge_observations`); the standalone
``observations`` artifact (:func:`all_observations`) computes each of
those inputs once (Figs 11 and 12 in one pass), Table 5 as a slice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.harness.figures import (
    QualityReport,
    ThroughputBar,
    average_gbs,
    fig11_fig12_throughput,
    fig15_quality,
)
from repro.harness.tables import RatioRow, table5_compression_ratio

#: The compressors Observation 2 weighs, in evidence order.
OBSERVATION2_COMPRESSORS = ("CereSZ", "SZp", "cuSZp", "cuSZ")


@dataclass(frozen=True)
class Verdict:
    observation: int
    claim: str
    holds: bool
    evidence: dict


def observation1_throughput(
    fig11: list[ThroughputBar], fig12: list[ThroughputBar]
) -> Verdict:
    """CereSZ hundreds of GB/s, ~5x cuSZp, both directions."""
    c_avg = average_gbs(fig11, "CereSZ")
    d_avg = average_gbs(fig12, "CereSZ")
    c_speedup = c_avg / average_gbs(fig11, "cuSZp")
    d_speedup = d_avg / average_gbs(fig12, "cuSZp")
    holds = (
        c_avg > 200
        and d_avg > c_avg
        and 3.0 <= c_speedup <= 8.0
        and 3.0 <= d_speedup <= 8.0
    )
    return Verdict(
        observation=1,
        claim=(
            "CereSZ achieves hundreds of GB/s for compression and "
            "decompression, ~5x faster than cuSZp (paper: 457.35 / 581.31 "
            "GB/s, 4.9x / 4.8x)"
        ),
        holds=holds,
        evidence={
            "compress_avg_gbs": round(c_avg, 2),
            "decompress_avg_gbs": round(d_avg, 2),
            "compress_speedup_vs_cuszp": round(c_speedup, 2),
            "decompress_speedup_vs_cuszp": round(d_speedup, 2),
        },
    )


def observation2_ratio(table5: list[RatioRow]) -> Verdict:
    """Ratios similar to cuSZ, slightly below SZp/cuSZp (header width).

    Averages each of :data:`OBSERVATION2_COMPRESSORS` over every dataset,
    bound and field the rows hold; other compressors' rows are ignored.
    """
    means = {
        name: float(np.mean([r.avg for r in table5 if r.compressor == name]))
        for name in OBSERVATION2_COMPRESSORS
    }
    szp_gap = means["SZp"] / means["CereSZ"]
    cusz_gap = means["cuSZ"] / means["CereSZ"]
    holds = (
        means["SZp"] >= means["CereSZ"]  # never better than SZp
        and szp_gap < 4.0  # "slightly lower", not catastrophically
        and 0.5 <= cusz_gap <= 4.0  # "similar" to cuSZ
        and abs(means["SZp"] - means["cuSZp"]) / means["SZp"] < 0.01
    )
    return Verdict(
        observation=2,
        claim=(
            "CereSZ has similar ratios to cuSZ and slightly lower ratios "
            "than SZp/cuSZp due to the 32-bit message-passing restriction"
        ),
        holds=holds,
        evidence={k: round(v, 2) for k, v in means.items()},
    )


def observation3_quality(fig15: QualityReport) -> Verdict:
    """Identical visualization/PSNR/SSIM to cuSZp at the same bound."""
    q = fig15
    holds = bool(
        q.reconstructions_identical
        and abs(q.ceresz_psnr - q.cuszp_psnr) < 1e-9
        and abs(q.ceresz_ssim - q.cuszp_ssim) < 1e-9
        and q.cuszp_ratio > q.ceresz_ratio  # the compromised RD curve
    )
    return Verdict(
        observation=3,
        claim=(
            "CereSZ shares identical PSNR/SSIM with cuSZp under the same "
            "error bound; its rate-distortion curve is slightly compromised"
        ),
        holds=holds,
        evidence={
            "reconstructions_identical": q.reconstructions_identical,
            "psnr_db": round(float(q.ceresz_psnr), 2),  # psnr() is numpy
            "ssim": round(q.ceresz_ssim, 6),
            "ratio_ceresz": round(q.ceresz_ratio, 2),
            "ratio_cuszp": round(q.cuszp_ratio, 2),
        },
    )


def judge_observations(
    fig11: list[ThroughputBar],
    fig12: list[ThroughputBar],
    table5: list[RatioRow],
    fig15: QualityReport,
) -> list[Verdict]:
    """All three verdicts over already-computed artifact data."""
    return [
        observation1_throughput(fig11, fig12),
        observation2_ratio(table5),
        observation3_quality(fig15),
    ]


def all_observations(*, seed: int = 0) -> list[Verdict]:
    """The standalone artifact: compute each input once, then judge it.

    Figs 11 and 12 share one pass over the fields. Table 5 is sliced to
    Observation 2's compressors, the loosest and tightest bounds and four
    fields per dataset: the full table takes ~4x as long and gives the
    same verdict.
    """
    return judge_observations(
        *fig11_fig12_throughput(seed=seed),
        table5_compression_ratio(
            compressors=OBSERVATION2_COMPRESSORS,
            rel_bounds=(1e-2, 1e-4),
            field_limit=4,
            seed=seed,
        ),
        fig15_quality(seed=seed),
    )


def render_observations(verdicts: list[Verdict]) -> str:
    lines = []
    for v in verdicts:
        lines += [
            f"Observation {v.observation}: {'HOLDS' if v.holds else 'FAILS'}",
            f"  claim   : {v.claim}",
            f"  evidence: {v.evidence}",
        ]
    return "\n".join(lines)
