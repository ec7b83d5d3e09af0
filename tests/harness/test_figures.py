"""Tests for the figure-regeneration harness (paper Figs 7, 10-15)."""

import numpy as np
import pytest

from repro.harness import figures
from repro.harness.figures import (
    DEFAULT_FIELD_LIMITS,
    fig7_row_scaling,
    fig10_relay_and_execution,
    fig11_compression_throughput,
    fig11_fig12_throughput,
    fig12_decompression_throughput,
    fig13_pipeline_lengths,
    fig14_wse_sizes,
    fig14_wse_sizes_simulated,
    iter_fields,
    measure_workload,
)
from repro.wse.cost import PAPER_CYCLE_MODEL


class TestFig7:
    @pytest.fixture(scope="class")
    def points(self):
        return fig7_row_scaling(rows_list=(64, 128, 256, 512))

    def test_linear_speedup(self, points):
        per_row = [p.throughput_mbs / p.rows for p in points]
        assert max(per_row) / min(per_row) == pytest.approx(1.0, rel=1e-9)

    def test_doubling_rows_doubles_throughput(self, points):
        assert points[1].throughput_mbs == pytest.approx(
            2 * points[0].throughput_mbs
        )


class TestFig10:
    @pytest.fixture(scope="class")
    def profile(self):
        return fig10_relay_and_execution(sim_cols=(2, 4, 8))

    def test_analytic_line_is_eq2(self, profile):
        c1 = PAPER_CYCLE_MODEL.c1_relay
        for tc, cycles in zip(profile.cols_swept, profile.relay_cycles_analytic):
            assert cycles == pytest.approx(tc * c1)

    def test_simulated_relay_is_linear(self, profile):
        """The head PE relays TC-1 blocks per round at cost C1 each."""
        c1 = PAPER_CYCLE_MODEL.c1_relay
        for tc, cycles in zip(
            profile.cols_swept, profile.relay_cycles_simulated
        ):
            assert cycles == pytest.approx((tc - 1) * c1, rel=0.05)

    def test_execution_time_falls_initially(self, profile):
        ex = profile.execution_cycles_per_pe
        assert ex[1] < ex[0]

    def test_execution_curve_has_c_over_pl_shape(self, profile):
        """Fig 10b: inversely proportional to the pipeline length."""
        ex = profile.execution_cycles_per_pe
        pls = profile.pipeline_lengths
        c2 = PAPER_CYCLE_MODEL.c2_forward
        # Removing the forwarding term must leave ~C/pl.
        base = [(e - (pl - 1) * c2) * pl for e, pl in zip(ex, pls)]
        assert max(base) / min(base) == pytest.approx(1.0, rel=1e-6)


class TestFigs11And12:
    """Quick reproduce's Figs 11/12: QMCPack and HACC at REL 1e-2 and 1e-4."""

    @pytest.fixture(scope="class")
    def comp(self, reproduced):
        return reproduced.computed["fig11"][0]

    @pytest.fixture(scope="class")
    def decomp(self, reproduced):
        return reproduced.computed["fig12"][0]

    def test_matrix_complete(self, comp):
        assert len(comp) == 5 * 2 * 2  # compressors x datasets x bounds

    def test_ceresz_fastest_everywhere(self, comp):
        groups = {}
        for bar in comp:
            groups.setdefault((bar.dataset, bar.rel), {})[
                bar.compressor
            ] = bar.throughput_gbs
        for key, rates in groups.items():
            assert rates["CereSZ"] == max(rates.values()), key

    def test_speedup_over_cuszp_in_paper_band(self, comp):
        """Headline claim: 2.43x-10.98x faster than cuSZp."""
        groups = {}
        for bar in comp:
            groups.setdefault((bar.dataset, bar.rel), {})[
                bar.compressor
            ] = bar.throughput_gbs
        for key, rates in groups.items():
            speedup = rates["CereSZ"] / rates["cuSZp"]
            assert 2.0 <= speedup <= 12.0, (key, speedup)

    def test_sz_slowest(self, comp):
        for bar in comp:
            if bar.compressor == "SZ":
                assert bar.throughput_gbs < 1.0

    def test_decompression_faster_for_ceresz(self, comp, decomp):
        c = {
            (b.dataset, b.rel): b.throughput_gbs
            for b in comp
            if b.compressor == "CereSZ"
        }
        d = {
            (b.dataset, b.rel): b.throughput_gbs
            for b in decomp
            if b.compressor == "CereSZ"
        }
        for key in c:
            assert d[key] > c[key]

    def test_tighter_bound_slower_for_ceresz(self, comp):
        c = {
            (b.dataset, b.rel): b.throughput_gbs
            for b in comp
            if b.compressor == "CereSZ"
        }
        for dataset in ("QMCPack", "HACC"):
            assert c[(dataset, 1e-2)] > c[(dataset, 1e-4)]


def test_figs_11_and_12_measure_each_field_once(monkeypatch):
    """The shared pass measures every field x bound once and gives the
    bars Fig 11 and Fig 12 give computed alone."""
    narrow = {"datasets": ("QMCPack",), "rel_bounds": (1e-2, 1e-4)}
    calls = []

    def counted(arr, eps):
        calls.append(eps)
        return measure_workload(arr, eps)

    monkeypatch.setattr(figures, "measure_workload", counted)
    fig11, fig12 = fig11_fig12_throughput(**narrow)
    shared = len(calls)
    assert fig11 == fig11_compression_throughput(**narrow)
    assert fig12 == fig12_decompression_throughput(**narrow)
    assert len(calls) == 3 * shared  # each figure alone measures as much
    fields = sum(1 for _ in iter_fields(
        "QMCPack", limit=DEFAULT_FIELD_LIMITS.get("QMCPack")
    ))
    assert shared == fields * 2


class TestFig13:
    @pytest.fixture(scope="class")
    def points(self):
        return fig13_pipeline_lengths(datasets=("QMCPack",))

    def test_one_pe_pipeline_wins(self, points):
        by_pl = {p.pipeline_length: p.throughput_gbs for p in points}
        assert by_pl[1] == max(by_pl.values())

    def test_monotone_decrease(self, points):
        rates = [p.throughput_gbs for p in points]
        assert all(a >= b for a, b in zip(rates, rates[1:]))


class TestFig14:
    @pytest.fixture(scope="class")
    def points(self):
        return fig14_wse_sizes(datasets=("HACC",), sizes=(16, 32, 64))

    def test_monotone_in_mesh_size(self, points):
        rates = [p.throughput_gbs for p in points]
        assert rates == sorted(rates)

    def test_quadrupling_pes_about_quadruples_throughput(self, points):
        assert points[1].throughput_gbs / points[0].throughput_gbs == (
            pytest.approx(4.0, rel=0.15)
        )


class TestFig14Simulated:
    @pytest.fixture(scope="class")
    def points(self):
        return fig14_wse_sizes_simulated(sizes=(16, 32))

    def test_tiled_rows_collapse_to_one_class(self, points):
        assert [(p.rows, p.cols) for p in points] == [(16, 16), (32, 32)]
        assert all(p.row_classes == 1 for p in points)

    def test_throughput_rises_with_mesh_size(self, points):
        assert points[1].throughput_gbs > points[0].throughput_gbs

    def test_gap_inside_the_bench_envelope(self, points):
        """The Eq. 4 cross-check band ``bench_fig14_wse_size`` asserts
        for meshes from 32x32 up."""
        assert abs(points[1].model_gap) <= 0.15


class TestFig15:
    @pytest.fixture(scope="class")
    def report(self, reproduced):
        return reproduced.computed["fig15"][0]

    def test_reconstructions_identical(self, report):
        """Paper Obs 3: CereSZ and cuSZp share the reconstruction."""
        assert report.reconstructions_identical
        assert report.ceresz_psnr == pytest.approx(report.cuszp_psnr)
        assert report.ceresz_ssim == pytest.approx(report.cuszp_ssim)

    def test_psnr_matches_paper_value(self, report):
        """84.77 dB at REL 1e-4 is analytic for uniform quantization."""
        assert report.ceresz_psnr == pytest.approx(84.77, abs=0.35)

    def test_ssim_near_one(self, report):
        assert report.ceresz_ssim > 0.999

    def test_cuszp_ratio_slightly_higher(self, report):
        """The 4-byte headers cost CereSZ a little ratio (3.10 vs 3.35)."""
        assert report.cuszp_ratio > report.ceresz_ratio
        assert report.cuszp_ratio / report.ceresz_ratio < 1.25
