"""Self-healing wafer runs: plan repair, spare-row remapping, host fallback.

The contract under test: a seeded fault plan that stalls (or corrupts) a
run is recovered by the bounded retry loop — onto spare rows when any
exist, onto a shrunk-and-rebalanced replan when none do, or through the
degraded-mode host fast path when wafer repair is impossible — and the
recovered stream is byte-identical to a fault-free run. The
:class:`RepairReport` derives only from the fault plan and the mapping
plans, so it is invariant under row-parallel partitioning (jobs=1 == jobs=N).
"""

import json

import numpy as np
import pytest

from repro.core.blocks import partition_blocks
from repro.core.compressor import CereSZ
from repro.core.plan import expand_mesh, plan_row_parallel
from repro.core.simulate import simulate_plan, simulate_with_repair
from repro.core.wse_compressor import WSECereSZ
from repro.errors import DeadlockError, RepairError, ScheduleError
from repro.faults import (
    FaultPlan,
    LinkDown,
    PEHalt,
    RepairReport,
    SramBitFlip,
    StuckTransfer,
    WaveletDrop,
    WaveletDup,
    classify_faults,
    drop_rows,
    remap_rows,
    row_blocks,
    spare_rows,
    used_rows,
)

EPS = 0.01


def _field(n: int = 512, seed: int = 5) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=n).cumsum().astype(np.float32)


def _reference_stream() -> bytes:
    return WSECereSZ(4, 4, strategy="rows").compress(_field(), eps=EPS).stream


def _healing_codec(faults, **kw):
    kw.setdefault("on_fault", "repair")
    return WSECereSZ(4, 4, strategy="rows", faults=faults, **kw)


REFERENCE = _reference_stream()

# One fault of every kind, aimed at a PE the rows strategy uses (col 0
# carries the per-row ComputeNodes). The N/S link fault is the tolerated
# case: row-partitionable plans never route across rows.
FAULT_CASES = {
    "halt": PEHalt(row=2, col=0, at_cycle=5),
    "drop": WaveletDrop(row=2, col=0, color_id=0, nth=1),
    "dup": WaveletDup(row=2, col=0, color_id=0, nth=1),
    "flip": SramBitFlip(row=2, col=0, buffer="inbox", bit=62, at_cycle=50),
    "link": LinkDown(row=2, col=0, direction="W"),
}


class TestRepairEveryKind:
    @pytest.mark.parametrize("kind", sorted(FAULT_CASES))
    def test_repaired_stream_is_byte_identical(self, kind):
        plan = FaultPlan(seed=1, faults=(FAULT_CASES[kind],))
        codec = _healing_codec(plan, spare_rows=1)
        result = codec.compress(_field(), eps=EPS)
        assert result.stream == REFERENCE
        assert result.repair is not None
        assert result.repair.outcome in ("clean", "repaired")
        # Byte-identity was verified against the fault-free reference.
        assert result.repair.verified is True

    def test_halt_consumes_a_spare_row(self):
        plan = FaultPlan(seed=1, faults=(PEHalt(row=2, col=0, at_cycle=5),))
        result = _healing_codec(plan, spare_rows=1).compress(_field(), eps=EPS)
        rep = result.repair
        assert rep.outcome == "repaired"
        assert rep.attempts == 1
        assert rep.unusable_rows == (2,)
        assert rep.spare_rows_used == (4,)
        assert [r.action for r in rep.repairs] == ["remap"]
        assert rep.repairs[0].target_row == 4
        assert "halt PE(2,0)" in rep.repairs[0].reason

    def test_north_south_link_is_tolerated_in_place(self):
        plan = FaultPlan(
            seed=1, faults=(LinkDown(row=2, col=0, direction="N"),)
        )
        result = _healing_codec(plan, spare_rows=1).compress(_field(), eps=EPS)
        assert result.stream == REFERENCE
        assert result.repair.outcome == "clean"
        assert len(result.repair.tolerated) == 1
        assert "link into PE(2,0)" in result.repair.tolerated[0]


class TestShrinkRepair:
    def test_no_spares_shrinks_and_rebalances(self):
        # No spare rows: the replan callback rebuilds the placement over
        # the three surviving rows and the stream is still byte-identical.
        plan = FaultPlan(seed=1, faults=(PEHalt(row=1, col=0, at_cycle=5),))
        result = _healing_codec(plan).compress(_field(), eps=EPS)
        rep = result.repair
        assert result.stream == REFERENCE
        assert rep.outcome == "repaired"
        assert rep.spare_rows_used == ()
        assert {r.action for r in rep.repairs} == {"shrink"}


class TestHostFallback:
    def test_fallback_mode_routes_blocks_to_host(self):
        plan = FaultPlan(seed=1, faults=(PEHalt(row=1, col=0, at_cycle=5),))
        result = _healing_codec(plan, on_fault="fallback").compress(
            _field(), eps=EPS
        )
        rep = result.repair
        assert result.stream == REFERENCE
        assert rep.outcome == "fallback"
        assert {r.action for r in rep.repairs} == {"fallback"}
        # Row 1 of a 4-row mesh owns every 4th of the 16 blocks.
        assert rep.fallback_blocks == (1, 5, 9, 13)

    def test_exhausted_repairs_degrade_to_host(self):
        # max_repairs=0 forbids wafer-side repair entirely; the host
        # fallback still completes the run byte-identically.
        plan = FaultPlan(seed=1, faults=(PEHalt(row=1, col=0, at_cycle=5),))
        result = _healing_codec(plan, max_repairs=0, spare_rows=1).compress(
            _field(), eps=EPS
        )
        assert result.stream == REFERENCE
        assert result.repair.outcome == "fallback"

    def test_every_row_condemned_goes_fully_host(self):
        plan = FaultPlan(
            seed=1,
            faults=tuple(
                PEHalt(row=r, col=0, at_cycle=5) for r in range(4)
            ),
        )
        result = _healing_codec(plan, on_fault="fallback").compress(
            _field(), eps=EPS
        )
        rep = result.repair
        assert result.stream == REFERENCE
        assert rep.outcome == "fallback"
        assert rep.unusable_rows == (0, 1, 2, 3)
        assert rep.fallback_blocks == tuple(range(16))


class TestTiledFallback:
    def test_tiled_fallback_encodes_template_blocks(self):
        # Under faults tile_rows materializes the replicated plan; global
        # block b of a condemned row is the template's block b % 4.
        row = _field(4 * 32)
        faults = FaultPlan(seed=1, faults=(PEHalt(row=1, col=0, at_cycle=5),))
        clean = WSECereSZ(3, 4, strategy="rows").compress(
            row, eps=EPS, tile_rows=True
        )
        healed = WSECereSZ(
            3, 4, strategy="rows", faults=faults, on_fault="fallback"
        ).compress(row, eps=EPS, tile_rows=True)
        assert healed.repair.outcome == "fallback"
        assert healed.repair.fallback_blocks == (4, 5, 6, 7)
        assert healed.stream == clean.stream


class TestExhaustion:
    def test_repair_error_when_no_fallback_possible(self):
        # simulate_with_repair with neither spares, replan, nor a host
        # fallback has no avenue left: structured RepairError carrying
        # both reports.
        raw, _ = partition_blocks(
            _field().astype(np.float64), 32
        )
        plan = plan_row_parallel(raw, EPS, rows=4, cols=4)
        faults = FaultPlan(
            seed=1, faults=(PEHalt(row=1, col=0, at_cycle=5),)
        )
        with pytest.raises(RepairError) as exc_info:
            simulate_with_repair(plan, faults=faults, on_fault="repair")
        err = exc_info.value
        assert err.fault_report is not None
        assert isinstance(err.repair_report, RepairReport)
        assert err.repair_report.outcome == "exhausted"
        assert 1 in err.repair_report.unusable_rows

    def test_decompress_direction_never_host_falls_back(self):
        # The host fallback produces compressed records; a decompress
        # plan cannot use it and must exhaust instead.
        codec = WSECereSZ(4, 4, strategy="rows")
        stream = codec.compress(_field(), eps=EPS).stream
        faults = FaultPlan(
            seed=1, faults=(PEHalt(row=1, col=0, at_cycle=5),)
        )
        healing = WSECereSZ(
            4, 4, strategy="rows", faults=faults, on_fault="fallback"
        )
        with pytest.raises(RepairError):
            healing.decompress_on_wafer(stream)


class TestVerifyDetection:
    def test_verify_rejection_triggers_repair(self):
        # Silent corruption (the SRAM-flip failure mode) completes the
        # run but fails byte verification; the loop must classify, remap,
        # and re-verify. Modeled with a verify that rejects the first
        # completed run.
        raw, _ = partition_blocks(_field().astype(np.float64), 32)
        plan = expand_mesh(plan_row_parallel(raw, EPS, rows=4, cols=4), 1)
        faults = FaultPlan(
            seed=1,
            faults=(
                SramBitFlip(row=2, col=0, buffer="inbox", bit=3, at_cycle=9),
            ),
        )
        seen = []

        def verify(run) -> bool:
            seen.append(len(run.outputs.records))
            return len(seen) > 1

        run = simulate_with_repair(
            plan, faults=faults, on_fault="repair", verify=verify
        )
        assert run.repair.outcome == "repaired"
        assert run.repair.verified is True
        assert [r.action for r in run.repair.repairs] == ["remap"]
        assert run.repair.repairs[0].row == 2
        assert len(seen) == 2


class TestSilentBlockLoss:
    """A PE halted after its only receive matched leaves nothing pending,
    so the run quiesces without a stall and the block is simply missing.
    The loop must count that incomplete run as a failed attempt."""

    @pytest.mark.parametrize("rows", [1, 2, 3, 4])
    def test_halted_single_block_row_is_remapped(self, rows):
        data = _field(rows * 32)  # one block per row
        faults = FaultPlan(
            seed=1, faults=(PEHalt(row=0, col=0, at_cycle=5),)
        )
        clean = WSECereSZ(rows, 1, strategy="rows")
        healing = WSECereSZ(
            rows, 1, strategy="rows", spare_rows=1, on_fault="repair",
            faults=faults,
        )
        result = healing.compress(data, eps=EPS)
        assert result.stream == clean.compress(data, eps=EPS).stream
        assert [
            (r.row, r.action, r.target_row) for r in result.repair.repairs
        ] == [(0, "remap", rows)]
        back, _ = healing.decompress_on_wafer(result.stream)
        assert np.array_equal(
            back, clean.decompress_on_wafer(result.stream)[0]
        )


class TestMisframedDecode:
    """A dropped wavelet on the record feed shifts every later message,
    so the next receive sees the wrong length (a 1-wavelet header where
    the 7-wavelet payload was expected, or the reverse). Under injection
    that is a fault symptom and must enter the repair ladder like any
    stall, not escape it as a bare TaskError."""

    X = np.random.default_rng(3).normal(size=390).cumsum().astype(np.float32)

    @pytest.mark.parametrize("on_fault", ("raise", "repair", "fallback"))
    @pytest.mark.parametrize("nth", (1, 2, 5))
    @pytest.mark.parametrize("spare", (0, 1))
    @pytest.mark.parametrize("strategy", ("rows", "pipeline"))
    def test_dropped_wavelet_stays_on_the_ladder(
        self, strategy, spare, nth, on_fault
    ):
        stream = CereSZ().compress(self.X, rel=1e-3).stream
        cols = 2 if strategy == "pipeline" else 1
        codec = WSECereSZ(
            rows=1, cols=cols, strategy=strategy, pipeline_length=cols,
            spare_rows=spare, on_fault=on_fault,
            faults=FaultPlan(
                seed=0,
                faults=(WaveletDrop(row=0, col=0, color_id=0, nth=nth),),
            ),
        )
        if on_fault == "raise":
            with pytest.raises(DeadlockError) as exc_info:
                codec.decompress_on_wafer(stream)
            report = exc_info.value.report
            assert [f.kind for f in report.injected] == ["drop"]
            assert (0, 0) in report.stuck_pes
        elif on_fault == "repair" and spare:
            back, _ = codec.decompress_on_wafer(stream)
            assert np.array_equal(back, CereSZ().decompress(stream))
        else:
            with pytest.raises(RepairError) as exc_info:
                codec.decompress_on_wafer(stream)
            assert exc_info.value.fault_report is not None
            assert exc_info.value.repair_report.outcome == "exhausted"


class TestVerifiedDecode:
    """A duplicated wavelet on a decode pipeline mis-decodes 20 values
    without stalling. Under self-healing the wafer decode is verified
    against the host decode of the same stream, so it ends bit-identical
    or in a RepairError — never as silently wrong values."""

    X = np.cumsum(np.random.default_rng(1960).standard_normal(340)).astype(
        np.float32
    )
    FAULTS = FaultPlan(
        seed=0, faults=(WaveletDup(row=1, col=1, color_id=4, nth=3),)
    )

    @pytest.mark.parametrize("on_fault", ("repair", "fallback"))
    def test_duplicated_wavelet_never_decodes_silently(self, on_fault):
        stream = CereSZ(fast=False).compress(self.X, rel=1e-3).stream
        codec = WSECereSZ(
            rows=3, cols=4, strategy="pipeline", pipeline_length=4,
            spare_rows=1, on_fault=on_fault, faults=self.FAULTS,
        )
        if on_fault == "fallback":
            with pytest.raises(RepairError):
                codec.decompress_on_wafer(stream)
            return
        back, _ = codec.decompress_on_wafer(stream)
        host = CereSZ(fast=False).decompress(stream)
        assert np.array_equal(back.view(np.uint32), host.view(np.uint32))


class TestDeadRelayLink:
    """A dead link on a relay hop of the multi-pipeline mapping (Fig 9):
    every block PE(1,1) relays east vanishes, so PE(1,2)'s relay and
    PE(1,3)'s own receive wait forever. Under faults every relay step
    goes through the task queue, so this also runs the queued steps."""

    X = _field(24 * 32)
    FAULTS = FaultPlan(
        seed=0, faults=(LinkDown(row=1, col=2, direction="W"),)
    )

    def _codec(self, on_fault: str) -> WSECereSZ:
        return WSECereSZ(
            3, 4, strategy="multi", spare_rows=1, on_fault=on_fault,
            faults=self.FAULTS,
        )

    def test_raise_reports_the_stuck_relay(self):
        with pytest.raises(DeadlockError) as exc_info:
            self._codec("raise").compress(self.X, eps=EPS)
        report = exc_info.value.report
        assert report.stuck == (
            StuckTransfer(
                row=1, col=2, color_id=0, kind="relay", extent=32,
                buffer="", posted_at=0,
            ),
            StuckTransfer(
                row=1, col=3, color_id=1, kind="recv", extent=32,
                buffer="inbox", posted_at=0,
            ),
        )
        # Round 1 and round 2 each relay two blocks across the dead link.
        assert [(f.kind, f.row, f.col) for f in report.injected] == [
            ("link", 1, 2)
        ] * 4

    @pytest.mark.parametrize(
        "on_fault,outcome", [("repair", "repaired"), ("fallback", "fallback")]
    )
    def test_self_healing_restores_the_stream(self, on_fault, outcome):
        clean = WSECereSZ(3, 4, strategy="multi").compress(self.X, eps=EPS)
        healed = self._codec(on_fault).compress(self.X, eps=EPS)
        assert healed.stream == clean.stream
        assert healed.repair.outcome == outcome
        assert healed.repair.unusable_rows == (1,)


class TestPartitionInvariance:
    @pytest.mark.parametrize("kind", ("halt", "drop"))
    def test_repair_report_identical_for_any_jobs(self, kind):
        plan = FaultPlan(seed=1, faults=(FAULT_CASES[kind],))
        r1 = _healing_codec(plan, spare_rows=1, jobs=1).compress(
            _field(), eps=EPS
        )
        r4 = _healing_codec(plan, spare_rows=1, jobs=4).compress(
            _field(), eps=EPS
        )
        assert r1.repair == r4.repair
        assert r1.stream == r4.stream == REFERENCE


class TestRepairReportShape:
    def test_report_round_trips_json(self):
        plan = FaultPlan(seed=1, faults=(PEHalt(row=2, col=0, at_cycle=5),))
        result = _healing_codec(plan, spare_rows=1).compress(_field(), eps=EPS)
        payload = json.loads(result.repair.to_json())
        assert payload["outcome"] == "repaired"
        assert payload["unusable_rows"] == [2]
        assert payload["repairs"][0]["action"] == "remap"
        assert payload["seed"] == 1

    def test_report_pickles(self):
        import pickle

        plan = FaultPlan(seed=1, faults=(PEHalt(row=2, col=0, at_cycle=5),))
        result = _healing_codec(plan, spare_rows=1).compress(_field(), eps=EPS)
        assert pickle.loads(pickle.dumps(result.repair)) == result.repair

    def test_describe_mentions_each_action(self):
        plan = FaultPlan(seed=1, faults=(PEHalt(row=2, col=0, at_cycle=5),))
        result = _healing_codec(plan, spare_rows=1).compress(_field(), eps=EPS)
        text = result.repair.describe()
        assert "repaired after 1" in text
        assert "remapped to spare row 4" in text
        assert "byte-identical" in text


class TestRepairMetricsAndLedger:
    def test_metrics_publish_repair_counters(self):
        plan = FaultPlan(seed=1, faults=(PEHalt(row=1, col=0, at_cycle=5),))
        codec = _healing_codec(
            plan, on_fault="fallback", collect_metrics=True
        )
        codec.compress(_field(), eps=EPS)
        fallback = codec.last_metrics.get("faults.fallback_blocks")
        repaired = codec.last_metrics.get("faults.repaired")
        assert fallback is not None and fallback.total() == 4
        assert repaired is not None and repaired.total() == 0

    def test_ledger_records_each_repair_attempt(self, tmp_path):
        from repro.obs.ledger import Ledger

        path = tmp_path / "ledger.jsonl"
        plan = FaultPlan(seed=1, faults=(PEHalt(row=2, col=0, at_cycle=5),))
        codec = _healing_codec(plan, spare_rows=1, ledger=path)
        codec.compress(_field(), eps=EPS)
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        names = [r["name"] for r in records]
        assert "sim.repair" in names
        repair_rec = records[names.index("sim.repair")]
        assert repair_rec["config"]["action"] == "remap"
        assert repair_rec["config"]["bad_rows"] == [2]
        final = records[-1]
        assert final["name"] == "wse.compress"
        assert final["config"]["repair_outcome"] == "repaired"

        # The exact record sequence, for a remap and a fallback run: the
        # stalled first attempt leaves no record, the rewrite one, the
        # attempt that completes one, and the codec its own.
        expected = [
            ("sim", "sim.repair", [
                "action", "attempt", "bad_rows", "fault_seed",
                "max_repairs", "on_fault", "op",
            ]),
            ("sim", "simulate_plan", [
                "cols", "direction", "faults", "jobs", "mode",
                "num_blocks", "op", "rows", "strategy",
            ]),
            ("sim", "wse.compress", [
                "block_size", "cols", "eps", "faults", "jobs", "mode",
                "on_fault", "op", "pipeline_length", "predictor",
                "repair_outcome", "rows", "shape", "spare_rows", "strategy",
            ]),
        ]
        fallback_path = tmp_path / "fallback.jsonl"
        _healing_codec(
            plan, on_fault="fallback", ledger=fallback_path
        ).compress(_field(), eps=EPS)
        for ledger_path in (path, fallback_path):
            records = [
                json.loads(line)
                for line in ledger_path.read_text().splitlines()
            ]
            assert [
                (r["kind"], r["name"], sorted(r["config"])) for r in records
            ] == expected

        # Records carry the mode that ran: faults force a hybrid request
        # onto the event engine, so no record may fingerprint it hybrid.
        mode_path = tmp_path / "mode.jsonl"
        never = FaultPlan(seed=0, faults=(PEHalt(row=0, col=0, at_cycle=10**9),))
        result = _healing_codec(
            never, mode="hybrid", ledger=mode_path
        ).compress(_field(seed=0), rel=1e-3)
        assert result.mode == "event"
        records = [
            json.loads(line) for line in mode_path.read_text().splitlines()
        ]
        assert [r["name"] for r in records] == ["simulate_plan", "wse.compress"]
        assert [r["config"]["mode"] for r in records] == ["event", "event"]


class TestPlanRewriteHelpers:
    def _plan(self, rows=4, spare=0):
        raw, _ = partition_blocks(_field().astype(np.float64), 32)
        return expand_mesh(
            plan_row_parallel(raw, EPS, rows=rows, cols=4), spare
        )

    def test_spare_and_used_rows(self):
        plan = self._plan(rows=4, spare=2)
        assert used_rows(plan) == (0, 1, 2, 3)
        assert spare_rows(plan) == (4, 5)

    def test_expand_mesh_zero_is_identity(self):
        plan = self._plan()
        assert expand_mesh(plan, 0) is plan
        with pytest.raises(ScheduleError):
            expand_mesh(plan, -1)

    def test_remap_preserves_stream_bytes(self):
        plan = self._plan(rows=4, spare=1)
        moved = remap_rows(plan, {1: 4})
        assert 1 not in used_rows(moved)
        assert 4 in used_rows(moved)
        a = simulate_plan(plan).outputs.stream(plan.num_blocks)
        b = simulate_plan(moved).outputs.stream(plan.num_blocks)
        assert a == b

    def test_remap_rejects_colliding_targets(self):
        plan = self._plan(rows=4, spare=2)
        with pytest.raises(ScheduleError, match="colliding"):
            remap_rows(plan, {0: 4, 1: 4})

    def test_remap_rejects_occupied_targets(self):
        plan = self._plan(rows=4, spare=0)
        with pytest.raises(ScheduleError, match="occupied"):
            remap_rows(plan, {0: 1})

    def test_remap_rejects_out_of_mesh_targets(self):
        plan = self._plan(rows=4, spare=0)
        with pytest.raises(ScheduleError, match="outside"):
            remap_rows(plan, {0: 9})

    def test_drop_rows_is_partial_and_disjoint(self):
        plan = self._plan()
        partial = drop_rows(plan, {1, 3})
        assert partial.partial is True
        assert set(used_rows(partial)) == {0, 2}
        dropped = row_blocks(plan, {1, 3})
        kept = simulate_plan(partial).outputs.records
        assert set(kept).isdisjoint(dropped)
        assert set(kept) | set(dropped) == set(range(plan.num_blocks))

    def test_classification_is_pure_and_canonical(self):
        plan = self._plan(rows=4, spare=1)
        faults = FaultPlan(
            seed=3,
            faults=(
                PEHalt(row=1, col=0, at_cycle=5),
                PEHalt(row=4, col=0, at_cycle=5),  # spare row: idle
                LinkDown(row=2, col=0, direction="N"),  # uncrossed
                WaveletDrop(row=3, col=0, color_id=0, nth=1),  # node site
            ),
        )
        cls = classify_faults(faults, plan)
        assert cls.unusable_rows == (1, 3)
        assert len(cls.harmful) == 2
        assert len(cls.tolerated) == 2
        assert classify_faults(faults, plan) == cls
        assert cls.row_reason(1) == "halt PE(1,0) at cycle 5"
