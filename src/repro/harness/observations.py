"""The paper's three numbered Observations, verified programmatically.

Each function re-derives one of the boxed claims of Section 5 from this
reproduction's own measurements and returns a structured verdict;
:func:`render_observations` is the one text form of the verdicts that the
bench, the CLI and ``ceresz reproduce`` print. Tests assert they hold.

* **Observation 1** (5.2): CereSZ averages hundreds of GB/s for compression
  and decompression, ~5x faster than cuSZp.
* **Observation 2** (5.3): ratios are similar to cuSZ and slightly below
  SZp/cuSZp, because of the 32-bit message-passing restriction.
* **Observation 3** (5.4): identical PSNR/SSIM to cuSZp at the same bound,
  with a slightly compromised rate-distortion curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.harness.figures import (
    average_gbs,
    fig11_compression_throughput,
    fig12_decompression_throughput,
    fig15_quality,
)
from repro.harness.tables import table5_compression_ratio


@dataclass(frozen=True)
class Verdict:
    observation: int
    claim: str
    holds: bool
    evidence: dict


def observation1_throughput(*, seed: int = 0) -> Verdict:
    """CereSZ hundreds of GB/s, ~5x cuSZp, both directions."""
    comp = fig11_compression_throughput(seed=seed)
    decomp = fig12_decompression_throughput(seed=seed)
    c_avg = average_gbs(comp, "CereSZ")
    d_avg = average_gbs(decomp, "CereSZ")
    c_speedup = c_avg / average_gbs(comp, "cuSZp")
    d_speedup = d_avg / average_gbs(decomp, "cuSZp")
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


def observation2_ratio(*, seed: int = 0) -> Verdict:
    """Ratios similar to cuSZ, slightly below SZp/cuSZp (header width)."""
    rows = table5_compression_ratio(
        compressors=("CereSZ", "SZp", "cuSZp", "cuSZ"),
        rel_bounds=(1e-2, 1e-4),
        field_limit=4,
        seed=seed,
    )
    by = {}
    for r in rows:
        by.setdefault(r.compressor, []).append(r.avg)
    means = {k: float(np.mean(v)) for k, v in by.items()}
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


def observation3_quality(*, seed: int = 0) -> Verdict:
    """Identical visualization/PSNR/SSIM to cuSZp at the same bound."""
    q = fig15_quality(seed=seed)
    holds = (
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
            "psnr_db": round(q.ceresz_psnr, 2),
            "ssim": round(q.ceresz_ssim, 6),
            "ratio_ceresz": round(q.ceresz_ratio, 2),
            "ratio_cuszp": round(q.cuszp_ratio, 2),
        },
    )


def all_observations(*, seed: int = 0) -> list[Verdict]:
    return [
        observation1_throughput(seed=seed),
        observation2_ratio(seed=seed),
        observation3_quality(seed=seed),
    ]


def render_observations(verdicts: list[Verdict]) -> str:
    lines = []
    for v in verdicts:
        lines += [
            f"Observation {v.observation}: {'HOLDS' if v.holds else 'FAILS'}",
            f"  claim   : {v.claim}",
            f"  evidence: {v.evidence}",
        ]
    return "\n".join(lines)
