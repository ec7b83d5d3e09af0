"""Failure injection into the WSE substrate: resource limits must bite.

The simulator's value over a plain reimplementation is that it *enforces*
the device's constraints — 48 KB SRAM, static single-output routes, the
data-triggered task model. These tests inject violations and verify the
substrate refuses them loudly, the way the real toolchain (or a hang)
would.
"""

import numpy as np
import pytest

from repro.errors import DeadlockError, MemoryError_, RoutingError, TaskError
from repro.core.lower import lower_plan
from repro.core.plan import plan_multi_pipeline
from repro.wse.color import Color, ColorAllocator
from repro.wse.dsd import FabinDsd, Mem1dDsd
from repro.wse.engine import Engine
from repro.wse.fabric import Fabric
from repro.wse.pe import Task
from repro.wse.wavelet import Direction


class TestSramLimits:
    def test_program_buffers_must_fit_sram(self):
        """A mapping whose working set exceeds 48 KB cannot load.

        This is the paper's Section 4.4 constraint: when "the local memory
        is [not] large enough to hold the intermediate data", a longer
        pipeline (smaller per-PE state) becomes mandatory.
        """
        fabric = Fabric(1, 2, sram_bytes=64)  # pathologically small PE
        engine = Engine(fabric)
        blocks = np.zeros((4, 32), dtype=np.float64)
        plan = plan_multi_pipeline(blocks, 0.1, rows=1, cols=2)
        with pytest.raises(MemoryError_, match="overflow"):
            lower_plan(plan, fabric, engine)

    def test_normal_mapping_fits_comfortably(self):
        fabric = Fabric(1, 2)
        engine = Engine(fabric)
        blocks = np.zeros((4, 32), dtype=np.float64)
        plan = plan_multi_pipeline(blocks, 0.1, rows=1, cols=2)
        lower_plan(plan, fabric, engine)
        for pe in fabric:
            assert pe.sram.used < pe.sram.capacity // 10


class TestRoutingFaults:
    def test_send_without_route_fails_at_send_time(self):
        fabric = Fabric(1, 2)
        engine = Engine(fabric)
        colors = ColorAllocator()
        c_go = colors.allocate("go")
        c_out = colors.allocate("out")
        pe = fabric.pe(0, 0)
        pe.bind_task(
            c_go,
            Task(
                "send",
                lambda ctx: ctx.send(c_out, np.zeros(4, dtype=np.float32)),
            ),
        )
        engine.schedule_activation(pe, c_go.id, 0.0)
        with pytest.raises(RoutingError, match="no route"):
            engine.run()

    def test_route_off_the_east_edge_fails(self):
        fabric = Fabric(1, 1)
        engine = Engine(fabric)
        colors = ColorAllocator()
        c_go = colors.allocate("go")
        c_out = colors.allocate("out")
        fabric.set_route(0, 0, c_out, Direction.RAMP, Direction.EAST)
        pe = fabric.pe(0, 0)
        pe.bind_task(
            c_go,
            Task(
                "send",
                lambda ctx: ctx.send(c_out, np.zeros(2, dtype=np.float32)),
            ),
        )
        engine.schedule_activation(pe, c_go.id, 0.0)
        with pytest.raises(RoutingError, match="leaves the mesh"):
            engine.run()

    def test_wrong_direction_arrival_fails(self):
        """A wavelet entering a route from an unconfigured direction."""
        fabric = Fabric(2, 1)
        engine = Engine(fabric)
        colors = ColorAllocator()
        c = colors.allocate("c")
        # (1,0) accepts this color only from the NORTH...
        fabric.set_route(1, 0, c, Direction.NORTH, Direction.RAMP)
        # ...but (0,0) is configured to be reached from RAMP going SOUTH is
        # fine; instead send from a router that emits EAST -> impossible in
        # a 1-wide mesh, so emit SOUTH from a conflicting entry direction:
        fabric.set_route(0, 0, c, Direction.RAMP, Direction.SOUTH)
        route = fabric.resolve(0, 0, c)
        assert route.destination == (1, 0)  # correct configuration works

        # Reconfiguring (1,0) to only accept WEST must break resolution.
        fabric2 = Fabric(2, 1)
        fabric2.set_route(0, 0, c, Direction.RAMP, Direction.SOUTH)
        fabric2.set_route(1, 0, c, Direction.WEST, Direction.RAMP)
        with pytest.raises(RoutingError, match="only accepts"):
            fabric2.resolve(0, 0, c)


class TestTaskModelFaults:
    def test_double_binding_a_color(self):
        fabric = Fabric(1, 1)
        pe = fabric.pe(0, 0)
        color = Color(0)
        pe.bind_task(color, Task("a", lambda ctx: None))
        with pytest.raises(TaskError, match="already bound"):
            pe.bind_task(color, Task("b", lambda ctx: None))

    def test_receive_into_missing_buffer(self):
        fabric = Fabric(1, 1)
        engine = Engine(fabric)
        colors = ColorAllocator()
        c_go = colors.allocate("go")
        c_in = colors.allocate("in")
        c_done = colors.allocate("done")
        pe = fabric.pe(0, 0)
        pe.bind_task(
            c_go,
            Task(
                "recv",
                lambda ctx: ctx.mov32(
                    Mem1dDsd("ghost"),
                    FabinDsd(c_in, extent=4),
                    on_complete=c_done,
                ),
            ),
        )
        pe.bind_task(c_done, Task("done", lambda ctx: None))
        engine.schedule_activation(pe, c_go.id, 0.0)
        engine.inject(0, 0, c_in, np.zeros(4, dtype=np.float32))
        with pytest.raises(TaskError, match="unknown buffer"):
            engine.run()

    def test_lost_wakeup_is_a_deadlock_not_a_hang(self):
        """A task waiting for data that never arrives must be diagnosed."""
        fabric = Fabric(1, 1)
        engine = Engine(fabric)
        colors = ColorAllocator()
        c_go = colors.allocate("go")
        c_in = colors.allocate("in")
        c_done = colors.allocate("done")
        pe = fabric.pe(0, 0)
        pe.alloc_buffer("buf", np.zeros(4, dtype=np.float32))
        pe.bind_task(
            c_go,
            Task(
                "recv",
                lambda ctx: ctx.mov32(
                    Mem1dDsd("buf"),
                    FabinDsd(c_in, extent=4),
                    on_complete=c_done,
                ),
            ),
        )
        pe.bind_task(c_done, Task("done", lambda ctx: None))
        engine.schedule_activation(pe, c_go.id, 0.0)
        with pytest.raises(DeadlockError, match="PE\\(0,0\\) color"):
            engine.run()
