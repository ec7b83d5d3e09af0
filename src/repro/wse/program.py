"""Reusable CSL-style program patterns for the WSE simulator.

The paper's kernels are built from two communication idioms:

* the **point-to-point stream** of Fig 3/4 — a producer PE sends arrays
  east on a color, a consumer receives them with a read-task/compute-task
  pair whose completion colors re-arm each other;
* the **relay chain** of Fig 9 — every PE forwards a counted number of
  blocks to its east neighbors before consuming one itself.

:class:`Program` packages those idioms so simulator users (and tests) can
compose them without hand-wiring colors, routes, and task bindings each
time. It is a convenience layer only: everything it does can be written
against :class:`~repro.wse.fabric.Fabric` directly, exactly as
:mod:`repro.core.lower` does when it lowers a compressor mapping plan.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import RoutingError
from repro.wse.color import Color, ColorAllocator
from repro.wse.dsd import FabinDsd, FaboutDsd, Mem1dDsd
from repro.wse.engine import Engine
from repro.wse.fabric import Fabric
from repro.wse.pe import Task, TaskContext
from repro.wse.wavelet import Direction


class Program:
    """A fabric + engine pair with pattern helpers and one color space."""

    def __init__(self, rows: int, cols: int):
        self.fabric = Fabric(rows, cols)
        self.engine = Engine(self.fabric)
        self.colors = ColorAllocator()

    def run(self, **kwargs):
        return self.engine.run(**kwargs)

    # -- declarative mapping plans -------------------------------------------------

    def load_plan(self, plan, *, model=None):
        """Lower a :class:`~repro.core.plan.MappingPlan` onto this program.

        Colors come out of this program's shared allocator, so a loaded
        plan composes with pattern helpers used on the same fabric. Returns
        the :class:`~repro.core.lower.LoweredProgram` (plan, colors, live
        outputs, per-node counters).
        """
        from repro.core.lower import lower_plan
        from repro.wse.cost import PAPER_CYCLE_MODEL

        return lower_plan(
            plan,
            self.fabric,
            self.engine,
            model=PAPER_CYCLE_MODEL if model is None else model,
            colors=self.colors,
        )

    # -- Fig 3/4: point-to-point streaming ---------------------------------------

    def stream_eastward(
        self,
        row: int,
        col_from: int,
        col_to: int,
        *,
        extent: int,
        count: int,
        on_chunk: Callable[[TaskContext, int, np.ndarray], None],
        name: str = "stream",
    ) -> Color:
        """Deliver ``count`` chunks of ``extent`` elements to ``col_to``.

        Implements the Fig 4 read/compute color pair on the receiving PE:
        the ``read`` task posts an async receive whose completion activates
        ``compute``; ``compute`` calls ``on_chunk(ctx, index, data)`` and
        re-activates ``read`` until every chunk has arrived. Data is
        injected at ``col_from`` (the west edge / producer side) by the
        caller via :meth:`feed`.
        """
        if col_to <= col_from:
            raise RoutingError("stream_eastward requires col_to > col_from")
        data_color = self.colors.allocate(f"{name}_data")
        compute_color = self.colors.allocate(f"{name}_compute")
        if col_from == col_to - 1:
            self.fabric.set_route(
                row, col_to, data_color, Direction.WEST, Direction.RAMP
            )
            self.fabric.set_route(
                row, col_from, data_color, Direction.RAMP, Direction.EAST
            )
        else:
            self.fabric.route_row_segment(row, col_from, col_to, data_color)
        pe = self.fabric.pe(row, col_to)
        pe.alloc_buffer(f"{name}_in", np.zeros(extent, dtype=np.float64))
        progress = {"seen": 0}

        def read(ctx: TaskContext) -> None:
            ctx.mov32(
                Mem1dDsd(f"{name}_in"),
                FabinDsd(data_color, extent=extent),
                on_complete=compute_color,
            )

        def compute(ctx: TaskContext) -> None:
            index = progress["seen"]
            progress["seen"] += 1
            on_chunk(ctx, index, ctx.buffer(f"{name}_in").copy())
            if progress["seen"] < count:
                ctx.activate(data_color)
            else:
                ctx.halt()

        pe.bind_task(data_color, Task(f"{name}_read", read))
        pe.bind_task(compute_color, Task(f"{name}_compute", compute))
        if count:
            self.engine.schedule_activation(pe, data_color.id, 0.0)
        return data_color

    def feed(
        self, row: int, col: int, color: Color, chunks, *, start: float = 0.0
    ) -> None:
        """Emit a sequence of arrays from PE (row, col), serialized in time.

        If the source PE routes the color from its RAMP, chunks travel the
        fabric to the route's destination (the producer-PE model);
        otherwise they are edge-injected straight into the PE's inbox (the
        off-wafer feed model the relay chain uses at column 0).
        """
        pe = self.fabric.pe(row, col)
        via_route = pe.router.accepts(color.id, Direction.RAMP)
        t = start
        for chunk in chunks:
            arr = np.asarray(chunk)
            if via_route:
                self.engine.send_from(row, col, color, arr, at=t)
            else:
                self.engine.inject(row, col, color, arr, at=t)
            t += arr.size

    # -- Fig 9: counted relay chain -------------------------------------------------

    def relay_chain(
        self,
        row: int,
        *,
        extent: int,
        rounds: int,
        on_block: Callable[[TaskContext, int, int, np.ndarray], None],
        name: str = "relay",
    ) -> Color:
        """Every PE in the row consumes one block per round, east-first.

        ``on_block(ctx, col, round, data)`` fires on each PE for its own
        block. Returns the color to :meth:`feed` at column 0 — inject
        ``rounds * cols`` blocks, east-most PE's block first within each
        round, exactly like the paper's ``(TC - i)/pipeline_length``
        countdown.
        """
        cols = self.fabric.cols
        recv_colors = [
            self.colors.allocate(f"{name}{p}") for p in range(2)
        ]
        work_color = self.colors.allocate(f"{name}_work")

        for col in range(cols):
            recv = recv_colors[col % 2]
            send = recv_colors[(col + 1) % 2]
            self.fabric.set_route(row, col, recv, Direction.WEST, Direction.RAMP)
            if col + 1 < cols:
                self.fabric.set_route(
                    row, col, send, Direction.RAMP, Direction.EAST
                )

        for col in range(cols):
            pe = self.fabric.pe(row, col)
            recv = recv_colors[col % 2]
            send = recv_colors[(col + 1) % 2]
            pe.alloc_buffer(f"{name}_in", np.zeros(extent, dtype=np.float64))
            state = {"relayed": 0, "round": 0}

            def relay(
                ctx: TaskContext, recv=recv, send=send, state=state, col=col
            ) -> None:
                if state["relayed"] < cols - 1 - col:
                    ctx.mov32(
                        FaboutDsd(send, extent=extent),
                        FabinDsd(recv, extent=extent),
                        on_complete=recv,
                        relay=True,
                    )
                    state["relayed"] += 1
                else:
                    ctx.mov32(
                        Mem1dDsd(f"{name}_in"),
                        FabinDsd(recv, extent=extent),
                        on_complete=work_color,
                    )

            def work(
                ctx: TaskContext, recv=recv, state=state, col=col
            ) -> None:
                rnd = state["round"]
                state["round"] += 1
                state["relayed"] = 0
                on_block(ctx, col, rnd, ctx.buffer(f"{name}_in").copy())
                if state["round"] < rounds:
                    ctx.activate(recv)
                else:
                    ctx.halt()

            pe.bind_task(recv, Task(f"{name}_fwd", relay))
            pe.bind_task(work_color, Task(f"{name}_work", work))
            if rounds:
                self.engine.schedule_activation(pe, recv.id, 0.0)
        return recv_colors[0]
