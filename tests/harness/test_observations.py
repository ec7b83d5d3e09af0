"""Tests for the paper's three Observations (the boxed claims)."""

import pytest

from repro.harness.observations import (
    all_observations,
    observation2_ratio,
    render_observations,
)
from repro.harness.tables import RatioRow


@pytest.fixture(scope="module")
def verdicts():
    """The standalone artifact: full-scale Figs 11/12, the Observation 2
    Table 5 slice and Fig 15, each computed once and judged."""
    return all_observations()


def _row(compressor: str, avg: float, rel: float = 1e-2) -> RatioRow:
    return RatioRow(
        compressor=compressor, dataset="HACC", rel=rel,
        min=avg, avg=avg, max=avg, num_fields=1,
    )


class TestObservations:
    def test_observation2_holds(self, verdicts):
        v = verdicts[1]
        assert v.holds, v.evidence
        assert v.evidence["SZp"] == pytest.approx(v.evidence["cuSZp"])

    def test_observation3_holds(self, verdicts):
        v = verdicts[2]
        assert v.holds, v.evidence
        assert v.evidence["reconstructions_identical"]
        assert v.evidence["ratio_cuszp"] > v.evidence["ratio_ceresz"]

    @pytest.mark.slow
    def test_all_observations_hold(self, verdicts):
        assert [v.observation for v in verdicts] == [1, 2, 3]
        for v in verdicts:
            assert v.holds, (v.observation, v.evidence)
        # Observation 1's headline numbers in the paper's territory.
        ev = verdicts[0].evidence
        assert ev["decompress_avg_gbs"] > ev["compress_avg_gbs"]

    def test_evidence_is_builtin_values(self, verdicts):
        """The committed text must not depend on the numpy version."""
        for v in verdicts:
            for key, value in v.evidence.items():
                assert type(value) in (bool, int, float), (key, type(value))
        assert "np." not in render_observations(verdicts)


class TestObservation2Verdict:
    def test_averages_its_compressors_over_every_row(self):
        rows = [
            _row("CereSZ", 4.0), _row("CereSZ", 6.0, rel=1e-4),
            _row("SZp", 6.0), _row("cuSZp", 6.0), _row("cuSZ", 5.0),
            _row("SZ", 100.0),  # not one of Observation 2's compressors
        ]
        v = observation2_ratio(rows)
        assert v.evidence == {
            "CereSZ": 5.0, "SZp": 6.0, "cuSZp": 6.0, "cuSZ": 5.0,
        }
        assert v.holds

    def test_ceresz_above_szp_fails(self):
        rows = [_row("CereSZ", 8.0), _row("SZp", 6.0), _row("cuSZp", 6.0),
                _row("cuSZ", 8.0)]
        assert not observation2_ratio(rows).holds
