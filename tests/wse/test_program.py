"""The paper's CSL program idioms, wired directly on Fabric and Engine.

* the **point-to-point stream** of Fig 3/4: a producer PE sends arrays
  east on a color, and the consumer receives them with a read/compute
  task pair whose colors re-arm each other;
* the **relay chain** of Fig 9: every PE forwards a counted number of
  blocks to its east neighbors before consuming one itself.
"""

import numpy as np

from repro.wse.color import ColorAllocator
from repro.wse.dsd import FabinDsd, FaboutDsd, Mem1dDsd
from repro.wse.engine import Engine
from repro.wse.fabric import Fabric
from repro.wse.pe import Task
from repro.wse.wavelet import Direction


class Mesh:
    """A fabric, its engine and one color space."""

    def __init__(self, rows, cols):
        self.fabric = Fabric(rows, cols)
        self.engine = Engine(self.fabric)
        self.colors = ColorAllocator()

    def stream_eastward(
        self, row, col_from, col_to, *, extent, count, on_chunk, name="s"
    ):
        """Fig 4 receive side at ``col_to``: ``read`` posts a receive whose
        completion activates ``compute``, which calls ``on_chunk(ctx,
        index, data)`` and re-arms ``read`` until ``count`` chunks came."""
        data = self.colors.allocate(f"{name}_data")
        compute_color = self.colors.allocate(f"{name}_compute")
        self.fabric.route_row_segment(row, col_from, col_to, data)
        pe = self.fabric.pe(row, col_to)
        pe.alloc_buffer("in", np.zeros(extent, dtype=np.float64))
        seen = []

        def read(ctx):
            ctx.mov32(
                Mem1dDsd("in"), FabinDsd(data, extent=extent),
                on_complete=compute_color,
            )

        def compute(ctx):
            seen.append(None)
            on_chunk(ctx, len(seen) - 1, ctx.buffer("in").copy())
            if len(seen) < count:
                ctx.activate(data)
            else:
                ctx.halt()

        pe.bind_task(data, Task("read", read))
        pe.bind_task(compute_color, Task("compute", compute))
        self.engine.schedule_activation(pe, data.id, 0.0)
        return data

    def relay_chain(self, row, *, extent, rounds, on_block):
        """Fig 9: per round, PE ``col`` relays ``cols - 1 - col`` blocks
        east, then consumes its own (``on_block(ctx, col, round, data)``).
        Blocks enter at column 0, east-most PE's block first."""
        cols = self.fabric.cols
        recv_colors = [self.colors.allocate(f"relay{p}") for p in range(2)]
        work_color = self.colors.allocate("work")
        for col in range(cols):
            recv, send = recv_colors[col % 2], recv_colors[(col + 1) % 2]
            self.fabric.set_route(
                row, col, recv, Direction.WEST, Direction.RAMP
            )
            if col + 1 < cols:
                self.fabric.set_route(
                    row, col, send, Direction.RAMP, Direction.EAST
                )
            pe = self.fabric.pe(row, col)
            pe.alloc_buffer("in", np.zeros(extent, dtype=np.float64))
            state = {"relayed": 0, "round": 0}

            def relay(ctx, recv=recv, send=send, state=state, col=col):
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
                        Mem1dDsd("in"), FabinDsd(recv, extent=extent),
                        on_complete=work_color,
                    )

            def work(ctx, recv=recv, state=state, col=col):
                on_block(ctx, col, state["round"], ctx.buffer("in").copy())
                state["round"] += 1
                state["relayed"] = 0
                if state["round"] < rounds:
                    ctx.activate(recv)
                else:
                    ctx.halt()

            pe.bind_task(recv, Task("fwd", relay))
            pe.bind_task(work_color, Task("work", work))
            self.engine.schedule_activation(pe, recv.id, 0.0)
        return recv_colors[0]

    def send(self, row, col, color, chunks):
        """Serialize ``chunks`` out of PE (row, col) along its route."""
        for t, chunk in enumerate(chunks):
            self.engine.send_from(row, col, color, chunk, at=t * chunk.size)

    def inject(self, row, col, color, chunks):
        """Edge-inject ``chunks`` into PE (row, col), serialized."""
        for t, chunk in enumerate(chunks):
            self.engine.inject(row, col, color, chunk, at=t * chunk.size)


class TestStreamEastward:
    def test_chunks_arrive_in_order(self):
        mesh = Mesh(1, 3)
        seen = []
        color = mesh.stream_eastward(
            0, 0, 2, extent=4, count=3,
            on_chunk=lambda ctx, i, data: seen.append((i, data.copy())),
        )
        chunks = [np.full(4, v, dtype=np.float32) for v in (1.0, 2.0, 3.0)]
        mesh.send(0, 0, color, chunks)
        mesh.engine.run()
        assert [i for i, _ in seen] == [0, 1, 2]
        for (_, got), sent in zip(seen, chunks):
            assert np.array_equal(got, sent)

    def test_adjacent_pes(self):
        mesh = Mesh(1, 2)
        seen = []
        color = mesh.stream_eastward(
            0, 0, 1, extent=2, count=1,
            on_chunk=lambda ctx, i, data: seen.append(data.copy()),
        )
        mesh.send(0, 0, color, [np.array([7.0, 8.0], dtype=np.float32)])
        mesh.engine.run()
        assert np.array_equal(seen[0], [7.0, 8.0])

    def test_compute_cycles_can_be_charged(self):
        mesh = Mesh(1, 2)
        color = mesh.stream_eastward(
            0, 0, 1, extent=2, count=2,
            on_chunk=lambda ctx, i, data: ctx.spend(500),
        )
        mesh.send(0, 0, color, [np.zeros(2, dtype=np.float32)] * 2)
        report = mesh.engine.run()
        assert report.makespan_cycles >= 1000

    def test_parallel_rows_are_independent(self):
        mesh = Mesh(2, 2)
        rows_seen = {0: [], 1: []}
        c0 = mesh.stream_eastward(
            0, 0, 1, extent=2, count=1, name="r0",
            on_chunk=lambda ctx, i, d: rows_seen[0].append(d.copy()),
        )
        c1 = mesh.stream_eastward(
            1, 0, 1, extent=2, count=1, name="r1",
            on_chunk=lambda ctx, i, d: rows_seen[1].append(d.copy()),
        )
        mesh.send(0, 0, c0, [np.array([1.0, 1.0], dtype=np.float32)])
        mesh.send(1, 0, c1, [np.array([2.0, 2.0], dtype=np.float32)])
        mesh.engine.run()
        assert rows_seen[0][0][0] == 1.0
        assert rows_seen[1][0][0] == 2.0


class TestRelayChain:
    def test_every_pe_gets_one_block_per_round(self):
        mesh = Mesh(1, 4)
        got = {}
        color = mesh.relay_chain(
            0, extent=2, rounds=2,
            on_block=lambda ctx, col, rnd, d: got.__setitem__(
                (col, rnd), d[0]
            ),
        )
        # Round-major, east-most block first within a round.
        blocks = [
            np.full(2, 10 * rnd + col, dtype=np.float32)
            for rnd in range(2)
            for col in (3, 2, 1, 0)
        ]
        mesh.inject(0, 0, color, blocks)
        mesh.engine.run()
        for rnd in range(2):
            for col in range(4):
                assert got[(col, rnd)] == 10 * rnd + col

    def test_relay_cycles_decrease_eastward(self):
        mesh = Mesh(1, 4)
        color = mesh.relay_chain(
            0, extent=8, rounds=1, on_block=lambda *a: None
        )
        blocks = [np.full(8, c, dtype=np.float32) for c in (3, 2, 1, 0)]
        mesh.inject(0, 0, color, blocks)
        mesh.engine.run()
        relay = [mesh.fabric.pe(0, c).relay_cycles for c in range(4)]
        assert relay[0] > relay[1] > relay[2] > relay[3] == 0

    def test_single_column_chain(self):
        mesh = Mesh(1, 1)
        got = []
        color = mesh.relay_chain(
            0, extent=2, rounds=3,
            on_block=lambda ctx, col, rnd, d: got.append(d[0]),
        )
        mesh.inject(
            0, 0, color,
            [np.full(2, v, dtype=np.float32) for v in (5, 6, 7)],
        )
        mesh.engine.run()
        assert got == [5, 6, 7]
