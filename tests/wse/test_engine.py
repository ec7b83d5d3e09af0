"""Tests for the discrete-event engine: dataflow semantics and timing."""

import numpy as np
import pytest

from repro.errors import DeadlockError, MemoryError_, TaskError
from repro.wse.color import ColorAllocator
from repro.wse.dsd import FabinDsd, FaboutDsd, Mem1dDsd
from repro.wse.engine import Engine
from repro.wse.fabric import Fabric
from repro.wse.pe import Task
from repro.wse.wavelet import Direction


def two_pe_setup():
    fabric = Fabric(1, 2)
    engine = Engine(fabric)
    colors = ColorAllocator()
    return fabric, engine, colors


class TestPointToPoint:
    def test_send_receive_array(self):
        fabric, engine, colors = two_pe_setup()
        c_data = colors.allocate("data")
        c_done = colors.allocate("done")
        fabric.route_row_segment(0, 0, 1, c_data)
        src = fabric.pe(0, 0)
        dst = fabric.pe(0, 1)
        payload = np.arange(8, dtype=np.float32)
        src.alloc_buffer("out", payload)
        dst.alloc_buffer("in", np.zeros(8, dtype=np.float32))
        got = {}

        def sender(ctx):
            ctx.mov32(FaboutDsd(c_data, extent=8), Mem1dDsd("out"))
            ctx.halt()

        def receiver(ctx):
            ctx.mov32(
                Mem1dDsd("in"), FabinDsd(c_data, extent=8), on_complete=c_done
            )

        def on_done(ctx):
            got["data"] = ctx.buffer("in").copy()
            ctx.halt()

        c_go = colors.allocate("go")
        src.bind_task(c_go, Task("send", sender))
        dst.bind_task(c_go, Task("recv", receiver))
        dst.bind_task(c_done, Task("done", on_done))
        engine.schedule_activation(src, c_go.id, 0.0)
        engine.schedule_activation(dst, c_go.id, 0.0)
        engine.run()
        assert np.array_equal(got["data"], payload)

    def test_receive_before_send_matches(self):
        """Posting the receive first must not deadlock (dataflow order)."""
        fabric, engine, colors = two_pe_setup()
        c_data = colors.allocate("data")
        c_done = colors.allocate("done")
        c_go = colors.allocate("go")
        fabric.route_row_segment(0, 0, 1, c_data)
        src, dst = fabric.pe(0, 0), fabric.pe(0, 1)
        src.alloc_buffer("out", np.ones(4, dtype=np.float32))
        dst.alloc_buffer("in", np.zeros(4, dtype=np.float32))
        done = []

        dst.bind_task(
            c_go,
            Task(
                "recv",
                lambda ctx: ctx.mov32(
                    Mem1dDsd("in"),
                    FabinDsd(c_data, extent=4),
                    on_complete=c_done,
                ),
            ),
        )
        dst.bind_task(c_done, Task("done", lambda ctx: done.append(ctx.now)))

        def sender(ctx):
            ctx.spend(500)  # send long after the receive was posted
            ctx.mov32(FaboutDsd(c_data, extent=4), Mem1dDsd("out"))

        src.bind_task(c_go, Task("send", sender))
        engine.schedule_activation(dst, c_go.id, 0.0)
        engine.schedule_activation(src, c_go.id, 0.0)
        engine.run()
        assert done and done[0] >= 500

    def test_transfer_timing_charges_wavelets_and_hops(self):
        fabric = Fabric(1, 4)
        engine = Engine(fabric)
        colors = ColorAllocator()
        c_data = colors.allocate("data")
        c_done = colors.allocate("done")
        c_go = colors.allocate("go")
        fabric.route_row_segment(0, 0, 3, c_data)
        src, dst = fabric.pe(0, 0), fabric.pe(0, 3)
        src.alloc_buffer("out", np.zeros(16, dtype=np.float32))
        dst.alloc_buffer("in", np.zeros(16, dtype=np.float32))
        arrival = []

        src.bind_task(
            c_go,
            Task(
                "send",
                lambda ctx: ctx.mov32(
                    FaboutDsd(c_data, extent=16), Mem1dDsd("out")
                ),
            ),
        )
        dst.bind_task(
            c_go,
            Task(
                "recv",
                lambda ctx: ctx.mov32(
                    Mem1dDsd("in"),
                    FabinDsd(c_data, extent=16),
                    on_complete=c_done,
                ),
            ),
        )
        dst.bind_task(c_done, Task("done", lambda ctx: arrival.append(ctx.now)))
        engine.schedule_activation(src, c_go.id, 0.0)
        engine.schedule_activation(dst, c_go.id, 0.0)
        engine.run()
        # 16 wavelets injected + 3 hops = 19 cycles minimum.
        assert arrival[0] >= 19


class TestRelay:
    def test_fabric_to_fabric_relay(self):
        fabric = Fabric(1, 3)
        engine = Engine(fabric)
        colors = ColorAllocator()
        c_a = colors.allocate("a")  # edge -> middle
        c_b = colors.allocate("b")  # middle -> right
        c_done = colors.allocate("done")
        c_go = colors.allocate("go")
        fabric.set_route(0, 0, c_a, Direction.WEST, Direction.RAMP)
        fabric.set_route(0, 0, c_b, Direction.RAMP, Direction.EAST)
        fabric.set_route(0, 1, c_b, Direction.WEST, Direction.RAMP)
        mid, right = fabric.pe(0, 0), fabric.pe(0, 1)
        right.alloc_buffer("in", np.zeros(4, dtype=np.float32))
        got = {}

        mid.bind_task(
            c_go,
            Task(
                "relay",
                lambda ctx: ctx.mov32(
                    FaboutDsd(c_b, extent=4), FabinDsd(c_a, extent=4)
                ),
            ),
        )
        right.bind_task(
            c_go,
            Task(
                "recv",
                lambda ctx: ctx.mov32(
                    Mem1dDsd("in"), FabinDsd(c_b, extent=4), on_complete=c_done
                ),
            ),
        )
        right.bind_task(
            c_done,
            Task("done", lambda ctx: got.update(v=ctx.buffer("in").copy())),
        )
        engine.schedule_activation(mid, c_go.id, 0.0)
        engine.schedule_activation(right, c_go.id, 0.0)
        engine.inject(0, 0, c_a, np.array([1, 2, 3, 4], dtype=np.float32))
        engine.run()
        assert np.array_equal(got["v"], [1, 2, 3, 4])

    def test_relay_flag_charges_relay_cycles(self):
        fabric = Fabric(1, 2)
        engine = Engine(fabric)
        colors = ColorAllocator()
        c_a = colors.allocate("a")
        c_b = colors.allocate("b")
        c_go = colors.allocate("go")
        fabric.set_route(0, 0, c_a, Direction.WEST, Direction.RAMP)
        fabric.set_route(0, 0, c_b, Direction.RAMP, Direction.EAST)
        fabric.set_route(0, 1, c_b, Direction.WEST, Direction.RAMP)
        mid = fabric.pe(0, 0)
        sink = fabric.pe(0, 1)
        sink.alloc_buffer("in", np.zeros(4, dtype=np.float32))
        c_done = colors.allocate("done")

        mid.bind_task(
            c_go,
            Task(
                "relay",
                lambda ctx: ctx.mov32(
                    FaboutDsd(c_b, extent=4),
                    FabinDsd(c_a, extent=4),
                    relay=True,
                ),
            ),
        )
        sink.bind_task(
            c_go,
            Task(
                "recv",
                lambda ctx: ctx.mov32(
                    Mem1dDsd("in"), FabinDsd(c_b, extent=4), on_complete=c_done
                ),
            ),
        )
        sink.bind_task(c_done, Task("done", lambda ctx: None))
        engine.schedule_activation(mid, c_go.id, 0.0)
        engine.schedule_activation(sink, c_go.id, 0.0)
        engine.inject(0, 0, c_a, np.zeros(4, dtype=np.float32))
        engine.run()
        assert mid.relay_cycles == 4  # injection of 4 wavelets


class TestLocalOps:
    def test_mem_to_mem_copy(self):
        fabric = Fabric(1, 1)
        engine = Engine(fabric)
        colors = ColorAllocator()
        c_go = colors.allocate("go")
        pe = fabric.pe(0, 0)
        pe.alloc_buffer("a", np.arange(6, dtype=np.float32))
        pe.alloc_buffer("b", np.zeros(6, dtype=np.float32))

        def copier(ctx):
            ctx.mov32(Mem1dDsd("b"), Mem1dDsd("a"))

        pe.bind_task(c_go, Task("copy", copier))
        engine.schedule_activation(pe, c_go.id, 0.0)
        engine.run()
        assert np.array_equal(pe.buffers["b"], np.arange(6))

    def test_mem_copy_size_mismatch_raises(self):
        fabric = Fabric(1, 1)
        engine = Engine(fabric)
        colors = ColorAllocator()
        c_go = colors.allocate("go")
        pe = fabric.pe(0, 0)
        pe.alloc_buffer("a", np.zeros(4, dtype=np.float32))
        pe.alloc_buffer("b", np.zeros(5, dtype=np.float32))
        pe.bind_task(
            c_go, Task("bad", lambda ctx: ctx.mov32(Mem1dDsd("b"), Mem1dDsd("a")))
        )
        engine.schedule_activation(pe, c_go.id, 0.0)
        with pytest.raises(TaskError, match="mismatch"):
            engine.run()


class TestScheduling:
    def test_tasks_serialize_on_one_pe(self):
        """A PE runs one task at a time; spends delay later activations."""
        fabric = Fabric(1, 1)
        engine = Engine(fabric)
        colors = ColorAllocator()
        c_a, c_b = colors.allocate("a"), colors.allocate("b")
        pe = fabric.pe(0, 0)
        times = []

        pe.bind_task(c_a, Task("a", lambda ctx: (times.append(ctx.now), ctx.spend(100))))
        pe.bind_task(c_b, Task("b", lambda ctx: times.append(ctx.now)))
        engine.schedule_activation(pe, c_a.id, 0.0)
        engine.schedule_activation(pe, c_b.id, 0.0)
        engine.run()
        assert times[0] == 0.0
        assert times[1] >= 100.0

    def test_activation_of_unbound_color_raises(self):
        fabric = Fabric(1, 1)
        engine = Engine(fabric)
        engine.schedule_activation(fabric.pe(0, 0), 7, 0.0)
        with pytest.raises(TaskError, match="no bound task"):
            engine.run()

    def test_unmatched_receive_is_a_deadlock(self):
        fabric, engine, colors = two_pe_setup()
        c_data = colors.allocate("data")
        c_go = colors.allocate("go")
        c_done = colors.allocate("done")
        fabric.route_row_segment(0, 0, 1, c_data)
        dst = fabric.pe(0, 1)
        dst.alloc_buffer("in", np.zeros(4, dtype=np.float32))
        dst.bind_task(
            c_go,
            Task(
                "recv",
                lambda ctx: ctx.mov32(
                    Mem1dDsd("in"), FabinDsd(c_data, extent=4),
                    on_complete=c_done,
                ),
            ),
        )
        dst.bind_task(c_done, Task("done", lambda ctx: None))
        engine.schedule_activation(dst, c_go.id, 0.0)
        with pytest.raises(DeadlockError, match="unmatched"):
            engine.run()

    def test_allow_pending_suppresses_deadlock(self):
        fabric, engine, colors = two_pe_setup()
        c_data = colors.allocate("data")
        c_go = colors.allocate("go")
        c_done = colors.allocate("done")
        fabric.route_row_segment(0, 0, 1, c_data)
        dst = fabric.pe(0, 1)
        dst.alloc_buffer("in", np.zeros(4, dtype=np.float32))
        dst.bind_task(
            c_go,
            Task(
                "recv",
                lambda ctx: ctx.mov32(
                    Mem1dDsd("in"), FabinDsd(c_data, extent=4),
                    on_complete=c_done,
                ),
            ),
        )
        dst.bind_task(c_done, Task("done", lambda ctx: None))
        engine.schedule_activation(dst, c_go.id, 0.0)
        report = engine.run(allow_pending=True)
        assert report.tasks_run == 1

    def test_extent_mismatch_on_receive_raises(self):
        fabric, engine, colors = two_pe_setup()
        c_data = colors.allocate("data")
        c_go = colors.allocate("go")
        c_done = colors.allocate("done")
        fabric.route_row_segment(0, 0, 1, c_data)
        dst = fabric.pe(0, 1)
        dst.alloc_buffer("in", np.zeros(8, dtype=np.float32))
        dst.bind_task(
            c_go,
            Task(
                "recv",
                lambda ctx: ctx.mov32(
                    Mem1dDsd("in"), FabinDsd(c_data, extent=8),
                    on_complete=c_done,
                ),
            ),
        )
        dst.bind_task(c_done, Task("done", lambda ctx: None))
        engine.schedule_activation(dst, c_go.id, 0.0)
        engine.inject(0, 1, c_data, np.zeros(4, dtype=np.float32))
        with pytest.raises(TaskError, match="expected 8"):
            engine.run()

    def test_event_budget_guards_livelock(self):
        fabric = Fabric(1, 1)
        engine = Engine(fabric, max_events=50)
        colors = ColorAllocator()
        c_go = colors.allocate("go")
        pe = fabric.pe(0, 0)
        pe.bind_task(c_go, Task("spin", lambda ctx: ctx.activate(c_go)))
        engine.schedule_activation(pe, c_go.id, 0.0)
        with pytest.raises(DeadlockError, match="budget"):
            engine.run()

    def test_report_aggregates(self):
        fabric = Fabric(1, 1)
        engine = Engine(fabric)
        colors = ColorAllocator()
        c_go = colors.allocate("go")
        pe = fabric.pe(0, 0)
        pe.bind_task(c_go, Task("work", lambda ctx: ctx.spend(42)))
        engine.schedule_activation(pe, c_go.id, 0.0)
        report = engine.run()
        assert report.tasks_run == 1
        assert report.makespan_cycles == 42
        assert report.trace.max_compute_cycles() == 42


class TestSramIntegration:
    def test_scratch_send_buffers_are_freed(self):
        fabric, engine, colors = two_pe_setup()
        c_data = colors.allocate("data")
        c_go = colors.allocate("go")
        c_done = colors.allocate("done")
        fabric.route_row_segment(0, 0, 1, c_data)
        src, dst = fabric.pe(0, 0), fabric.pe(0, 1)
        dst.alloc_buffer("in", np.zeros(4, dtype=np.float32))

        src.bind_task(
            c_go,
            Task(
                "send",
                lambda ctx: ctx.send(c_data, np.ones(4, dtype=np.float32)),
            ),
        )
        dst.bind_task(
            c_go,
            Task(
                "recv",
                lambda ctx: ctx.mov32(
                    Mem1dDsd("in"), FabinDsd(c_data, extent=4),
                    on_complete=c_done,
                ),
            ),
        )
        dst.bind_task(c_done, Task("done", lambda ctx: None))
        engine.schedule_activation(src, c_go.id, 0.0)
        engine.schedule_activation(dst, c_go.id, 0.0)
        engine.run()
        # The transmit array is checked against SRAM but never registered.
        assert src.sram.used == 0

    def test_send_must_fit_in_free_sram(self):
        fabric = Fabric(1, 2, sram_bytes=64)
        engine = Engine(fabric)
        colors = ColorAllocator()
        c_data = colors.allocate("data")
        c_go = colors.allocate("go")
        fabric.route_row_segment(0, 0, 1, c_data)
        src = fabric.pe(0, 0)
        src.alloc_buffer("live", np.zeros(4))  # 32 B of the 64 B budget
        src.bind_task(
            c_go,
            Task("send", lambda ctx: ctx.send(c_data, np.ones(5))),  # 40 B
        )
        engine.schedule_activation(src, c_go.id, 0.0)
        with pytest.raises(MemoryError_, match="overflow.*need 40 B, 32 B"):
            engine.run()

    def test_empty_send_is_rejected(self):
        fabric, engine, colors = two_pe_setup()
        c_data = colors.allocate("data")
        c_go = colors.allocate("go")
        fabric.route_row_segment(0, 0, 1, c_data)
        src = fabric.pe(0, 0)
        src.bind_task(
            c_go, Task("send", lambda ctx: ctx.send(c_data, np.zeros(0)))
        )
        engine.schedule_activation(src, c_go.id, 0.0)
        with pytest.raises(TaskError):
            engine.run()


class TestOrderingAndScale:
    def test_deliveries_on_one_color_are_fifo(self):
        """Multiple queued arrivals must match pending receives in order."""
        fabric = Fabric(1, 1)
        engine = Engine(fabric)
        colors = ColorAllocator()
        c_in = colors.allocate("in")
        c_done = colors.allocate("done")
        pe = fabric.pe(0, 0)
        pe.alloc_buffer("buf", np.zeros(2, dtype=np.float32))
        got = []

        def recv(ctx):
            ctx.mov32(
                Mem1dDsd("buf"), FabinDsd(c_in, extent=2), on_complete=c_done
            )

        def done(ctx):
            got.append(float(ctx.buffer("buf")[0]))
            if len(got) < 4:
                ctx.activate(c_in)

        pe.bind_task(c_in, Task("recv", recv))
        pe.bind_task(c_done, Task("done", done))
        engine.schedule_activation(pe, c_in.id, 0.0)
        # All four chunks injected up-front, before any receive matches.
        for i in range(4):
            engine.inject(
                0, 0, c_in, np.full(2, float(i), dtype=np.float32), at=0.0
            )
        engine.run()
        assert got == [0.0, 1.0, 2.0, 3.0]

    @pytest.mark.slow
    def test_large_mesh_stress(self):
        """An 8x8 mesh over ~512 blocks: the engine must stay exact and
        bounded in events (no livelock, no quadratic blowup)."""
        from repro import CereSZ
        from repro.core.wse_compressor import WSECereSZ

        rng = np.random.default_rng(0)
        data = np.cumsum(rng.normal(size=32 * 512)).astype(np.float32)
        ref = CereSZ().compress(data, rel=1e-3)
        sim = WSECereSZ(rows=8, cols=8, strategy="multi")
        result = sim.compress(data, rel=1e-3)
        assert result.stream == ref.stream
        # Events scale ~linearly with blocks x columns.
        assert result.report.events_processed < 200_000
