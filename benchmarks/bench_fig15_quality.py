"""Fig 15: data quality parity with cuSZp on NYX velocity_x (REL 1e-4).

Paper: CereSZ and cuSZp share the pre-quantization design, so their
reconstructions — and hence PSNR (84.77 dB) and SSIM (0.9996) — are
identical; only the ratio differs (3.10 vs 3.35). The PSNR value itself is
analytic for uniform quantization noise, which is why it reproduces
exactly on synthetic data.
"""

from benchmarks.conftest import run_artifact
from repro.baselines.base import get_compressor
from repro.datasets import generate_field
from repro.metrics.visualize import error_map, slice_of, write_pgm


def test_fig15(benchmark, record_result, results_dir):
    q, text = run_artifact(benchmark, "fig15")
    record_result("fig15_quality", text)

    # Emit the visual comparison itself: middle slice of velocity_x,
    # original vs reconstruction vs (scaled) error map — the paper's
    # side-by-side rendering, as PGM images next to the text artifact.
    field = generate_field("NYX", 3)
    codec = get_compressor("CereSZ")
    restored = codec.decompress(codec.compress(field, rel=1e-4).stream)
    write_pgm(
        results_dir / "fig15_velocity_x_original.pgm", slice_of(field, 2)
    )
    write_pgm(
        results_dir / "fig15_velocity_x_ceresz.pgm", slice_of(restored, 2)
    )
    write_pgm(
        results_dir / "fig15_velocity_x_error.pgm",
        error_map(slice_of(field, 2), slice_of(restored, 2)),
    )

    assert q.reconstructions_identical
    assert abs(q.ceresz_psnr - 84.77) < 0.35
    assert q.ceresz_ssim > 0.999
    assert q.cuszp_ratio > q.ceresz_ratio  # the 4-byte-header penalty
