"""Tests for the one-command reproduction runbook."""

import pytest

from repro.harness import render_artifact


@pytest.fixture(scope="module")
def summary(reproduced):
    return reproduced.summary


class TestReproduceAll:
    def test_every_artifact_written(self, summary):
        expected = {
            "table1.txt", "table2.txt", "table3.txt", "table4.txt",
            "table5.txt", "fig7.txt", "fig10.txt", "fig11.txt",
            "fig12.txt", "fig13.txt", "fig14.txt", "fig15.txt",
            "calibration.txt", "model_validation.txt", "observations.txt",
            "REPORT.md",
        }
        assert set(summary.artifacts) == expected
        for name in expected:
            path = summary.out_dir / name
            assert path.exists() and path.stat().st_size > 0, name

    def test_headline_sane(self, summary):
        h = summary.headline
        assert h["observations_hold"]
        assert 200 <= h["compress_avg_gbs"] <= 1100
        assert h["decompress_avg_gbs"] > h["compress_avg_gbs"]
        assert h["fig15_psnr_db"] == pytest.approx(84.77, abs=0.1)
        assert h["worst_model_gap"] < 0.15
        assert all(type(v) in (bool, int, float) for v in h.values()), h

    def test_report_is_markdown_with_paper_columns(self, summary):
        text = (summary.out_dir / "REPORT.md").read_text()
        assert "| headline | paper | this run |" in text
        assert "457.35" in text  # paper compression average for comparison

    def test_tables_are_the_harness_renderings(self, summary):
        for n in (1, 2, 3, 4):
            text = (summary.out_dir / f"table{n}.txt").read_text()
            assert text == render_artifact(f"table{n}") + "\n", n

    def test_observations_artifact_reports_holds(self, summary):
        text = (summary.out_dir / "observations.txt").read_text()
        assert text.count("HOLDS") == 3
        assert "FAILS" not in text

    def test_observed_artifacts_computed_once(self, reproduced):
        """The Observations judge the data reproduce already computed:
        Figs 11/12, Table 5 and Fig 15 each run exactly once."""
        calls = reproduced.computed
        assert set(calls) == {"fig11", "fig12", "table5", "fig15"}
        for name, results in calls.items():
            assert len(results) == 1, name

    def test_observation_evidence_matches_written_artifacts(self, summary):
        """Observations judge the (quick) artifacts written beside them."""
        h = summary.headline
        text = (summary.out_dir / "observations.txt").read_text()
        assert f"'compress_avg_gbs': {h['compress_avg_gbs']}," in text
        assert f"'decompress_avg_gbs': {h['decompress_avg_gbs']}," in text
        assert f"'psnr_db': {h['fig15_psnr_db']}," in text
