"""Tests for the table-regeneration harness (paper Tables 1-5)."""

import pytest

from repro.core.predictors import predictor_names
from repro.harness.tables import (
    PAPER_TABLE1,
    table1_stage_cycles,
    table2_prequant_breakdown,
    table3_encoding_breakdown,
    table4_datasets,
    table5_compression_ratio,
    table5_predictor_comparison,
)


class TestTable1:
    @pytest.fixture(scope="class")
    def rows(self):
        return table1_stage_cycles()

    def test_rows_cover_profiled_datasets(self, rows):
        assert [r.dataset for r in rows] == ["CESM-ATM", "HACC", "QMCPack"]

    def test_prequant_within_paper_band(self, rows):
        for row in rows:
            paper_pq = row.paper[0]
            assert row.prequant == pytest.approx(paper_pq, rel=0.03)

    def test_lorenzo_exact(self, rows):
        for row in rows:
            assert row.lorenzo == pytest.approx(975)

    def test_encode_dominates(self, rows):
        """Table 1's key observation: encoding is the heavy step."""
        for row in rows:
            assert row.fl_encode > row.prequant > row.lorenzo


class TestTable2:
    def test_split_sums_to_prequant(self):
        for row in table2_prequant_breakdown():
            assert row.multiplication + row.addition == pytest.approx(
                row.prequant
            )

    def test_multiplication_about_80_percent(self):
        for row in table2_prequant_breakdown():
            assert 0.75 <= row.multiplication / row.prequant <= 0.88

    def test_matches_paper_values(self):
        for row in table2_prequant_breakdown():
            assert row.multiplication == pytest.approx(row.paper[1], rel=0.01)
            assert row.addition == pytest.approx(row.paper[2], rel=0.01)


class TestTable3:
    @pytest.fixture(scope="class")
    def rows(self):
        return table3_encoding_breakdown()

    def test_split_sums_to_encode(self, rows):
        for row in rows:
            total = row.sign + row.max + row.get_length + row.bit_shuffle
            assert total == pytest.approx(row.fl_encode)

    def test_bitshuffle_dominates(self, rows):
        for row in rows:
            assert row.bit_shuffle > 0.8 * row.fl_encode

    def test_fixed_stages_stable_across_datasets(self, rows):
        assert len({r.sign for r in rows}) == 1
        assert len({r.max for r in rows}) == 1
        assert len({r.get_length for r in rows}) == 1

    def test_bitshuffle_proportional_to_fl(self, rows):
        """Table 3's observation: ~uniform overhead per effective bit."""
        per_bit = {r.bit_shuffle / r.fixed_length for r in rows}
        assert max(per_bit) - min(per_bit) < 1e-6


class TestTable4:
    def test_six_rows(self):
        rows = table4_datasets()
        assert len(rows) == 6

    def test_paper_dims_reported(self):
        rows = {r["dataset"]: r for r in table4_datasets()}
        assert rows["NYX"]["paper_shape"] == "512x512x512"
        assert rows["HACC"]["paper_shape"] == "280953867"


class TestTable5:
    @pytest.fixture(scope="class")
    def rows(self):
        # A narrow slice keeps the test fast; the bench runs the full table.
        return table5_compression_ratio(
            compressors=("CereSZ", "SZp", "SZ"),
            datasets=("RTM", "HACC"),
            rel_bounds=(1e-2, 1e-4),
            field_limit=3,
        )

    def test_matrix_complete(self, rows):
        assert len(rows) == 3 * 2 * 2

    def test_min_avg_max_ordering(self, rows):
        for row in rows:
            assert row.min <= row.avg <= row.max

    def test_sz_dominates(self, rows):
        """Table 5: SZ has the highest average everywhere."""
        by_key = {(r.compressor, r.dataset, r.rel): r for r in rows}
        for dataset in ("RTM", "HACC"):
            for rel in (1e-2, 1e-4):
                assert (
                    by_key[("SZ", dataset, rel)].avg
                    > by_key[("CereSZ", dataset, rel)].avg
                )

    def test_szp_at_least_ceresz(self, rows):
        """The 1-byte headers can only help."""
        by_key = {(r.compressor, r.dataset, r.rel): r for r in rows}
        for dataset in ("RTM", "HACC"):
            for rel in (1e-2, 1e-4):
                assert (
                    by_key[("SZp", dataset, rel)].avg
                    >= by_key[("CereSZ", dataset, rel)].avg * 0.99
                )

    def test_format_caps(self, rows):
        for row in rows:
            if row.compressor == "CereSZ":
                assert row.max <= 32.5
            if row.compressor == "SZp":
                assert row.max <= 128.5

    def test_ratio_falls_with_tighter_bound(self, rows):
        by_key = {(r.compressor, r.dataset, r.rel): r for r in rows}
        for name in ("CereSZ", "SZp", "SZ"):
            for dataset in ("RTM", "HACC"):
                assert (
                    by_key[(name, dataset, 1e-2)].avg
                    > by_key[(name, dataset, 1e-4)].avg
                )


class TestTable5Predictors:
    @pytest.fixture(scope="class")
    def rows(self):
        return table5_predictor_comparison(datasets=("HACC",))

    def test_one_row_per_registered_predictor(self, rows):
        assert [r.compressor for r in rows] == [
            f"CereSZ[{name}]" for name in predictor_names()
        ]

    def test_lorenzo1d_row_is_table5_ceresz(self, rows):
        """Same field, bound and codec as Table 5's CereSZ row."""
        (lorenzo,) = [r for r in rows if r.compressor == "CereSZ[lorenzo1d]"]
        (ceresz,) = table5_compression_ratio(
            compressors=("CereSZ",),
            datasets=("HACC",),
            rel_bounds=(lorenzo.rel,),
            field_limit=lorenzo.num_fields,
        )
        assert (lorenzo.min, lorenzo.avg, lorenzo.max) == (
            ceresz.min, ceresz.avg, ceresz.max
        )
