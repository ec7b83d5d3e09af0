"""Tests for the metrics registry: cells, snapshots, and the merge policy."""

import json

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_inc_and_value(self):
        c = Counter(name="c")
        c.inc()
        c.inc(4)
        assert c.value() == 5

    def test_labels_are_order_insensitive(self):
        c = Counter(name="c")
        c.inc(1, a="x", b="y")
        c.inc(2, b="y", a="x")
        assert c.value(a="x", b="y") == 3

    def test_total_sums_all_cells(self):
        c = Counter(name="c")
        c.inc(1, outcome="hit")
        c.inc(2, outcome="miss")
        assert c.total() == 3

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Counter(name="c").inc(-1)


class TestGauge:
    def test_set_overwrites(self):
        g = Gauge(name="g")
        g.set(5)
        g.set(2)
        assert g.value() == 2

    def test_set_max_keeps_high_water_mark(self):
        g = Gauge(name="g")
        g.set_max(5)
        g.set_max(2)
        g.set_max(9)
        assert g.value() == 9


class TestHistogram:
    def test_observe_tracks_count_sum_min_max(self):
        h = Histogram(name="h")
        h.observe(3)
        h.observe(100)
        cell = h.cell()
        assert cell["count"] == 2
        assert cell["sum"] == 103
        assert cell["min"] == 3
        assert cell["max"] == 100

    def test_bucket_assignment(self):
        h = Histogram(name="h", buckets=(10.0, 100.0))
        h.observe(5)
        h.observe(50)
        h.observe(500)  # overflow bucket
        assert h.cell()["bucket_counts"] == [1, 1, 1]


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("x")

    def test_iteration_is_name_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.counter("a")
        assert [m.name for m in reg] == ["a", "b"]

    def test_snapshot_is_json_able(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2, step="encode")
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(7)
        snap = reg.snapshot()
        json.dumps(snap)  # must not raise
        assert snap["c"]["values"]["step=encode"] == 2

    def test_render_mentions_every_cell(self):
        reg = MetricsRegistry()
        reg.counter("sim.route_cache").inc(3, outcome="hit")
        reg.histogram("h").observe(1)
        text = reg.render()
        assert "sim.route_cache{outcome=hit}: 3" in text
        assert "count 1" in text


class TestMergePolicy:
    def test_counters_sum(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2, k="v")
        b.counter("c").inc(5, k="v")
        a.merge(b.snapshot())
        assert a.counter("c").value(k="v") == 7

    def test_gauges_take_max(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("g").set(9)
        b.gauge("g").set(4)
        a.merge(b.snapshot())
        assert a.gauge("g").value() == 9
        b2 = MetricsRegistry()
        b2.gauge("g").set(20)
        a.merge(b2.snapshot())
        assert a.gauge("g").value() == 20

    def test_histograms_add_buckets(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=(10.0,)).observe(5)
        b.histogram("h", buckets=(10.0,)).observe(50)
        a.merge(b.snapshot())
        cell = a.histogram("h").cell()
        assert cell["count"] == 2
        assert cell["bucket_counts"] == [1, 1]
        assert cell["min"] == 5
        assert cell["max"] == 50

    def test_histogram_bucket_mismatch_rejected(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=(10.0,)).observe(1)
        b.histogram("h", buckets=(99.0,)).observe(1)
        with pytest.raises(ValueError, match="bucket bounds"):
            a.merge(b.snapshot())

    def test_merge_into_empty_registry(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.counter("c").inc(3)
        b.gauge("g").set(2)
        b.histogram("h").observe(1)
        a.merge(b.snapshot())
        assert a.counter("c").value() == 3
        assert a.gauge("g").value() == 2
        assert a.histogram("h").cell()["count"] == 1

    def test_counter_totals(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(1, k="a")
        reg.counter("c").inc(2, k="b")
        reg.gauge("g").set(99)
        totals = reg.counter_totals()
        assert totals == {"c": 3}


class TestCollectors:
    def test_collect_run_metrics_from_simulated_run(self):
        """The collectors publish a real run's raw cells under stable names."""
        import numpy as np

        from repro.core.plan import plan_multi_pipeline
        from repro.core.simulate import simulate_plan
        from repro.obs.metrics import MetricsRegistry

        rng = np.random.default_rng(0)
        # Two rounds of blocks: a convoy resolves its route once per run,
        # so a one-round plan may make no repeat lookup at all.
        blocks = rng.normal(size=(12, 32)).cumsum(axis=1)
        plan = plan_multi_pipeline(blocks, 0.01, rows=2, cols=3)
        reg = MetricsRegistry()
        run = simulate_plan(plan, metrics=reg)
        assert run.metrics is reg
        assert reg.counter("sim.engine.events").total() == (
            run.report.events_processed
        )
        assert reg.counter("sim.pe.tasks").total() == run.report.tasks_run
        assert reg.counter("sim.route_cache").value(outcome="hit") > 0
        assert reg.gauge("sim.engine.queue_depth.max").value() > 0
        assert reg.counter("sim.cycles").total() == pytest.approx(
            sum(run.report.trace.step_cycle_totals().values())
        )
        busy = reg.histogram("sim.pe.busy_cycles").cell()
        assert busy["count"] == len(run.report.trace.traces)
