"""Deterministic fault injection into the simulated wafer.

The contract under test: a seeded :class:`FaultPlan` produces the same
injections, the same :class:`FaultReport`, and the same ``faults.*``
metrics whether the mesh simulates serially or row-partitioned across
worker processes — and a fault the mapping absorbs leaves the compressed
stream bit-identical to a fault-free run.
"""

import numpy as np
import pytest

from repro.core.wse_compressor import WSECereSZ
from repro.errors import DeadlockError, ReproError
from repro.faults import FaultPlan, FaultReport, LinkDown, PEHalt, SramBitFlip
from repro.faults.plan import parse_fault_spec

EPS = 0.01


def _field(n: int = 512, seed: int = 5) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=n).cumsum().astype(np.float32)


HALT_PLAN = parse_fault_spec("seed:7;halt:1,0@50")


def _compress_with(plan, *, jobs: int = 1, metrics: bool = False):
    codec = WSECereSZ(
        4, 4, strategy="rows", jobs=jobs, faults=plan,
        collect_metrics=metrics,
    )
    return codec, codec.compress(_field(), eps=EPS)


class TestHaltStalls:
    def test_halt_raises_structured_deadlock(self):
        codec = WSECereSZ(4, 4, strategy="rows", faults=HALT_PLAN)
        with pytest.raises(DeadlockError) as exc_info:
            codec.compress(_field(), eps=EPS)
        report = exc_info.value.report
        assert isinstance(report, FaultReport)
        assert report.reason == "deadlock"
        assert (1, 0) in report.halted_pes
        assert any(f.kind == "halt" for f in report.injected)
        assert report.seed == 7
        assert report.last_progress_cycle >= 50
        # The report names at least one wedged transfer on the halted row.
        assert any(s.row == 1 for s in report.stuck)

    def test_report_survives_json_round_trip(self):
        codec = WSECereSZ(4, 4, strategy="rows", faults=HALT_PLAN)
        with pytest.raises(DeadlockError) as exc_info:
            codec.compress(_field(), eps=EPS)
        import json

        payload = json.loads(exc_info.value.report.to_json())
        assert payload["reason"] == "deadlock"
        assert payload["seed"] == 7
        assert [1, 0] in payload["halted_pes"]

    def test_task_queued_at_a_halted_pe_is_a_stall(self):
        """The halt lands while PE(2,1)'s own receive is in flight; it
        completes and queues the compute task, which never runs. That is
        a stall with a FaultReport, not a bare missing-record error."""
        data = np.cumsum(
            np.random.default_rng(1816).standard_normal(341)
        ).astype(np.float32)
        codec = WSECereSZ(
            3, 2, strategy="multi", spare_rows=1,
            faults=FaultPlan(
                seed=0, faults=(PEHalt(row=2, col=1, at_cycle=21306),)
            ),
        )
        with pytest.raises(DeadlockError) as exc_info:
            codec.compress(data, rel=1e-3)
        report = exc_info.value.report
        assert [(s.row, s.col, s.kind, s.extent) for s in report.stuck] == [
            (2, 1, "activation", 1)
        ]
        assert report.halted_pes == ((2, 1),)
        assert report.last_progress_cycle == 21306


class TestPartitionInvariance:
    def _stall_report(self, jobs: int) -> FaultReport:
        codec = WSECereSZ(
            4, 4, strategy="rows", jobs=jobs, faults=HALT_PLAN,
            collect_metrics=True,
        )
        with pytest.raises(DeadlockError) as exc_info:
            codec.compress(_field(), eps=EPS)
        return exc_info.value.report, codec.last_metrics

    def test_report_identical_serial_vs_partitioned(self):
        serial, serial_metrics = self._stall_report(jobs=1)
        parallel, parallel_metrics = self._stall_report(jobs=4)
        assert serial == parallel  # frozen dataclass: full field equality

    def test_fault_metrics_identical_serial_vs_partitioned(self):
        _, serial_metrics = self._stall_report(jobs=1)
        _, parallel_metrics = self._stall_report(jobs=4)
        for name in ("faults.injected", "faults.detected"):
            a = serial_metrics.get(name)
            b = parallel_metrics.get(name)
            assert a is not None and b is not None, name
            assert a.total() == b.total(), name
            assert a.total() >= 1

    def test_repeated_injections_survive_the_partition_merge(self):
        """Both partitions stall: row 1's halt and row 2's dead link, which
        drops eight blocks. Merging the two partition reports keeps all
        eight identical drops, as the serial report does."""
        plan = FaultPlan(
            seed=0,
            faults=(
                PEHalt(row=1, col=1, at_cycle=300),
                LinkDown(row=2, col=2, direction="W"),
            ),
        )
        data = np.cumsum(
            np.random.default_rng(7).standard_normal(2048)
        ).astype(np.float32)
        reports = []
        for jobs in (1, 2):
            codec = WSECereSZ(
                4, 4, strategy="multi", mode="event", jobs=jobs, faults=plan
            )
            with pytest.raises(DeadlockError) as exc_info:
                codec.compress(data, rel=1e-3)
            reports.append(exc_info.value.report)
        serial, merged = reports
        assert merged == serial
        assert [f.kind for f in serial.injected].count("link") == 8
        assert len(serial.injected) == 9

    def test_partitioned_message_names_the_shard(self):
        codec = WSECereSZ(4, 4, strategy="rows", jobs=4, faults=HALT_PLAN)
        with pytest.raises(DeadlockError, match=r"\[shard \d+, rows"):
            codec.compress(_field(), eps=EPS)


class TestAbsorbedFaults:
    def test_noop_flip_leaves_stream_bit_identical(self):
        """A bit flip aimed at a buffer the mapping never allocates is
        logged but absorbed: the run completes and the stream matches a
        fault-free run byte for byte."""
        plan = FaultPlan(
            seed=3,
            faults=(
                SramBitFlip(
                    row=0, col=0, buffer="no_such_buffer", bit=5, at_cycle=40
                ),
            ),
        )
        _, faulted = _compress_with(plan, metrics=True)
        _, clean = _compress_with(None)
        assert faulted.result.stream == clean.result.stream

    def test_absorbed_fault_still_counted(self):
        plan = FaultPlan(
            seed=3,
            faults=(
                SramBitFlip(
                    row=0, col=0, buffer="no_such_buffer", bit=5, at_cycle=40
                ),
            ),
        )
        codec, _ = _compress_with(plan, metrics=True)
        injected = codec.last_metrics.get("faults.injected")
        assert injected is not None and injected.total() == 1


class TestValidation:
    def test_fault_outside_mesh_rejected(self):
        # Validation now happens at construction (plan-installation time),
        # naming the offending fault — not deep inside a simulated run.
        plan = FaultPlan(seed=0, faults=(PEHalt(row=99, col=0, at_cycle=10),))
        with pytest.raises(ReproError, match=r"outside.*halt PE\(99,0\)"):
            WSECereSZ(4, 4, strategy="rows", faults=plan)

    def test_fault_outside_mesh_rejected_at_install(self):
        # The injector still validates at install for engines built by
        # hand (not through WSECereSZ).
        from repro.faults.inject import FaultInjector
        from repro.wse.engine import Engine
        from repro.wse.fabric import Fabric

        plan = FaultPlan(seed=0, faults=(PEHalt(row=99, col=0, at_cycle=10),))
        injector = FaultInjector(plan)
        with pytest.raises(ReproError, match="outside"):
            Engine(Fabric(4, 4), faults=injector)
