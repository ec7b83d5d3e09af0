"""Regression observatory: statistics, policies, adapters, and the gate.

The acceptance story lives in :class:`TestGateCatchesInjectedSlowdown`:
a ledger of healthy same-fingerprint runs passes ``run_report``'s gate,
and the same ledger with a synthetic 2x slowdown appended fails it.
"""

import json

import pytest

from repro.errors import LedgerError
from repro.obs.ledger import Ledger, make_record
from repro.obs.regress import (
    DETERMINISTIC_THRESHOLD,
    TIMING_HISTORY_THRESHOLD,
    compare_to_baseline,
    compare_to_history,
    group_by_fingerprint,
    headline_values,
    load_baseline,
    metric_policy,
    render_comparison,
    run_report,
    summarize,
)


class TestSummarize:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="zero samples"):
            summarize([])

    def test_single_sample_collapses_to_point(self):
        s = summarize([3.0])
        assert (s.n, s.median, s.iqr) == (1, 3.0, 0.0)
        assert s.ci_low == s.ci_high == 3.0

    def test_median_and_iqr(self):
        s = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        assert s.median == 3.0
        assert s.iqr == 2.0
        assert s.ci_low <= s.median <= s.ci_high

    def test_bootstrap_is_seeded(self):
        a = summarize([1.0, 1.1, 0.9, 1.05, 0.95])
        b = summarize([1.0, 1.1, 0.9, 1.05, 0.95])
        assert (a.ci_low, a.ci_high) == (b.ci_low, b.ci_high)


class TestMetricPolicy:
    @pytest.mark.parametrize(
        "name,direction,kind",
        [
            ("wall_s", "lower", "timing"),
            ("wafer.wall_s", "lower", "timing"),
            ("makespan_cycles", "lower", "deterministic"),
            ("compressed_bytes", "lower", "deterministic"),
            ("fig7_rows_speedup", "higher", "timing"),
            ("rows4x1.sim_events", "lower", "deterministic"),
            ("rows4x1.wall_s", "lower", "timing"),
            ("smooth.fused_compress_speedup", "higher", "timing"),
            ("smooth.rtm_small.ratio", "higher", "deterministic"),
            ("obs1.holds_ratio", "higher", "deterministic"),
            ("max_error", "lower", "deterministic"),
            ("throughput_gbs", "higher", "timing"),
            ("novel_metric", "higher", "timing"),
        ],
    )
    def test_classification(self, name, direction, kind):
        policy = metric_policy(name)
        assert (policy.direction, policy.kind) == (direction, kind)

    def test_overhead_uses_absolute_tolerance(self):
        policy = metric_policy("max_obs_overhead")
        assert policy.kind == "overhead"
        assert policy.abs_tol is not None


def host_payload(v1_decode_mbs=720.0, v2_over_v1=2.4, quick=False):
    """A host-throughput bench payload: the v1 (header walk) case and the
    indexed case it is measured against."""
    return {
        "benchmark": "host_throughput",
        "quick": quick,
        "profiles": {
            "smooth": {
                "v2_over_v1_decode_speedup": v2_over_v1,
                "fused_compress_speedup": 4.0,
                "cases": [
                    {"name": "serial-v1", "ratio": 26.6,
                     "decompress_mbs": v1_decode_mbs},
                    {"name": "indexed-v2", "ratio": 22.0,
                     "decompress_mbs": v1_decode_mbs * v2_over_v1},
                ],
            }
        },
    }


class TestHeadlineAdapters:
    def test_host_throughput(self):
        vals = headline_values(host_payload())
        assert vals["smooth.v2_over_v1_decode_speedup"] == 2.4
        assert vals["smooth.serial-v1.ratio"] == 26.6
        assert vals["smooth.serial-v1.decompress_mbs"] == 720.0
        assert vals["smooth.indexed-v2.decompress_mbs"] == 720.0 * 2.4

    def test_host_decode_rate_gates_the_header_walk(self):
        """A slower v1 header walk *raises* the v2-over-v1 speedup, so only
        the v1 case's own decode rate can catch it. A return to the
        per-block scalar walk reads ~55 MB/s against the ~720 MB/s
        baseline (-92%) and must be flagged; a healthy quick run (~420
        MB/s on a quarter-size field) must pass."""
        base = headline_values(host_payload())
        quick = headline_values(host_payload(420.0, 3.2, quick=True))
        assert compare_to_baseline(quick, base).ok
        scalar = compare_to_baseline(
            headline_values(host_payload(55.0, 25.0)), base
        )
        assert [f.metric for f in scalar.findings if f.regressed] == [
            "smooth.serial-v1.decompress_mbs"
        ]

    def test_sim_speed(self):
        payload = {
            "benchmark": "sim_speed",
            "max_obs_overhead": 0.02,
            "configs": [
                {
                    "strategy": "rows", "rows": 4, "cols": 1,
                    "optimized": {
                        "makespan_cycles": 1000.0,
                        "wall_s": 0.05,
                        "events": 780,
                    },
                }
            ],
            "hybrid_configs": [
                {
                    "strategy": "rows", "rows": 4, "cols": 1,
                    "speedup_hybrid": 2.5, "makespan_cycles": 1000.0,
                }
            ],
            "wafer": {"wall_s": 4.2, "makespan_cycles": 5e6},
        }
        vals = headline_values(payload)
        assert vals["rows4x1.makespan_cycles"] == 1000.0
        assert vals["rows4x1.wall_s"] == 0.05
        assert vals["rows4x1.sim_events"] == 780.0
        assert vals["max_obs_overhead"] == 0.02
        assert vals["rows4x1.hybrid_speedup"] == 2.5
        assert vals["wafer.wall_s"] == 4.2

    def test_rate_distortion(self):
        payload = {
            "benchmark": "rate_distortion_predictors",
            "rows": [
                {"field": "smooth2d", "predictor": "lorenzo2d",
                 "eps": 1e-3, "ratio": 30.0},
            ],
        }
        vals = headline_values(payload)
        assert vals == {"smooth2d.lorenzo2d.eps0.001.ratio": 30.0}

    def test_observations(self):
        payload = {
            "benchmark": "observations",
            "verdicts": [
                {"observation": 1, "holds": True},
                {"observation": 2, "holds": False},
            ],
        }
        vals = headline_values(payload)
        assert vals == {"obs1.holds_ratio": 1.0, "obs2.holds_ratio": 0.0}

    def test_run_record_values_pass_through(self):
        vals = headline_values({"values": {"x": 1}})
        assert vals == {"x": 1.0}

    def test_unknown_payload_raises(self):
        with pytest.raises(LedgerError, match="unknown payload"):
            headline_values({"benchmark": "mystery"})

    def test_load_baseline_from_committed_file(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({
            "benchmark": "observations",
            "verdicts": [{"observation": 1, "holds": True}],
        }))
        assert load_baseline(path) == {"obs1.holds_ratio": 1.0}

    def test_load_baseline_rejects_junk(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{nope")
        with pytest.raises(LedgerError, match="not valid JSON"):
            load_baseline(path)

    def test_load_baseline_refuses_quick_runs(self, tmp_path):
        """A --quick bench that overwrote its committed baseline would be
        gated against itself; the gate must refuse it instead."""
        path = tmp_path / "BENCH_host_throughput.json"
        path.write_text(json.dumps(host_payload(quick=True)))
        with pytest.raises(LedgerError, match="quick"):
            load_baseline(path)
        path.write_text(json.dumps(host_payload(quick=False)))
        assert load_baseline(path)["smooth.serial-v1.decompress_mbs"] == 720.0


class TestCompare:
    def test_baseline_judges_only_the_intersection(self):
        comp = compare_to_baseline(
            {"a.ratio": 10.0, "only_current": 1.0},
            {"a.ratio": 10.0, "only_base": 2.0},
        )
        assert [f.metric for f in comp.findings] == ["a.ratio"]
        assert comp.ok

    def test_deterministic_drop_beyond_threshold_regresses(self):
        drop = 1.0 - (DETERMINISTIC_THRESHOLD + 0.05)
        comp = compare_to_baseline(
            {"a.ratio": 10.0 * drop}, {"a.ratio": 10.0}
        )
        assert not comp.ok

    def test_improvement_never_regresses(self):
        comp = compare_to_baseline({"a.ratio": 20.0}, {"a.ratio": 10.0})
        assert comp.ok
        # Lower-better improves downward.
        comp = compare_to_baseline(
            {"makespan_cycles": 500.0}, {"makespan_cycles": 1000.0}
        )
        assert comp.ok

    def test_lower_better_regresses_upward(self):
        comp = compare_to_baseline(
            {"makespan_cycles": 2000.0}, {"makespan_cycles": 1000.0}
        )
        assert not comp.ok

    def test_overhead_absolute_tolerance(self):
        ok = compare_to_baseline(
            {"max_obs_overhead": 0.08}, {"max_obs_overhead": 0.01}
        )
        assert ok.ok  # +0.07 within the 0.10 absolute tolerance
        bad = compare_to_baseline(
            {"max_obs_overhead": 0.15}, {"max_obs_overhead": 0.01}
        )
        assert not bad.ok

    def test_zero_reference_deterministic_requires_exact_match(self):
        assert compare_to_baseline({"n_bytes": 0.0}, {"n_bytes": 0.0}).ok
        assert not compare_to_baseline({"n_bytes": 1.0}, {"n_bytes": 0.0}).ok

    def test_history_needs_two_records(self):
        rec = make_record("bench", "x", {}, values={"v": 1.0})
        with pytest.raises(ValueError, match=">= 2"):
            compare_to_history([rec])

    def test_history_reference_is_prior_median(self):
        group = [
            make_record("bench", "x", {"k": 1}, values={"wall_s": w})
            for w in (1.0, 1.1, 0.9, 1.05)
        ]
        comp = compare_to_history(group)
        (finding,) = comp.findings
        assert finding.reference == 1.0  # median of (1.0, 1.1, 0.9)
        assert finding.summary.n == 3
        assert comp.ok

    def test_render_mentions_counts_and_regressions(self):
        comp = compare_to_baseline({"a.ratio": 1.0}, {"a.ratio": 10.0})
        text = render_comparison(comp)
        assert "REGRESSED" in text
        assert "1 regression(s)" in text
        ok_text = render_comparison(
            compare_to_baseline({"a.ratio": 10.0}, {"a.ratio": 10.0})
        )
        assert "REGRESSED" not in ok_text

    def test_group_by_fingerprint(self):
        a1 = make_record("bench", "x", {"k": 1})
        a2 = make_record("bench", "x", {"k": 1})
        b = make_record("bench", "x", {"k": 2})
        groups = group_by_fingerprint([a1, a2, b])
        assert sorted(len(g) for g in groups.values()) == [1, 2]


class TestGateCatchesInjectedSlowdown:
    """The acceptance criterion: a synthetic 2x slowdown in the newest
    same-fingerprint record must fail ``ceresz report --gate``; the
    healthy history alone must pass it."""

    CONFIG = {"bench": "demo", "eps": 1e-3, "jobs": 1}

    def _healthy(self, path, n=4):
        led = Ledger(path)
        for i in range(n):
            led.append(make_record(
                "bench", "demo", self.CONFIG,
                timings={"wall_s": 1.0 + 0.02 * i},
                values={
                    "demo.fused_compress_speedup": 4.0 + 0.05 * i,
                    "demo.rtm.ratio": 25.0,
                },
            ))
        return led

    def test_healthy_history_passes(self, tmp_path):
        led = self._healthy(tmp_path / "led.jsonl")
        text, ok = run_report(led)
        assert ok
        assert "gate: PASS" in text

    def test_injected_2x_slowdown_fails(self, tmp_path):
        led = self._healthy(tmp_path / "led.jsonl")
        # A 2x slowdown halves every timing-derived speedup: a -50%
        # effect, well past the -35% history threshold.
        led.append(make_record(
            "bench", "demo", self.CONFIG,
            timings={"wall_s": 2.0},
            values={
                "demo.fused_compress_speedup": 2.0,
                "demo.rtm.ratio": 25.0,
            },
        ))
        assert 0.5 > TIMING_HISTORY_THRESHOLD  # the demo's margin
        text, ok = run_report(led)
        assert not ok
        assert "gate: FAIL" in text
        assert "demo.fused_compress_speedup" in text

    def test_slowdown_in_a_different_config_does_not_cross_gate(
        self, tmp_path
    ):
        led = self._healthy(tmp_path / "led.jsonl")
        # Same bench, different resolved config: groups are disjoint, a
        # single record has no history, so nothing regresses.
        led.append(make_record(
            "bench", "demo", dict(self.CONFIG, jobs=4),
            values={"demo.fused_compress_speedup": 2.0},
        ))
        _, ok = run_report(led)
        assert ok

    def test_empty_ledger_passes(self, tmp_path):
        text, ok = run_report(Ledger(tmp_path / "none.jsonl"))
        assert ok
        assert "no records" in text

    def test_baseline_file_comparison(self, tmp_path):
        led = Ledger(tmp_path / "led.jsonl")
        led.append(make_record(
            "bench", "observations", {"bench": "observations"},
            values={"obs1.holds_ratio": 0.0},
        ))
        base = tmp_path / "BENCH_observations.json"
        base.write_text(json.dumps({
            "benchmark": "observations",
            "verdicts": [{"observation": 1, "holds": True}],
        }))
        text, ok = run_report(led, baselines=[str(base)])
        assert not ok
        assert "obs1.holds_ratio" in text

    def test_baseline_without_matching_record_is_reported_not_fatal(
        self, tmp_path
    ):
        led = Ledger(tmp_path / "led.jsonl")
        led.append(make_record("bench", "other", {}, values={"v": 1.0}))
        base = tmp_path / "BENCH_observations.json"
        base.write_text(json.dumps({
            "benchmark": "observations",
            "verdicts": [{"observation": 1, "holds": True}],
        }))
        text, ok = run_report(led, baselines=[str(base)])
        assert ok
        assert "no matching ledger record" in text
