"""The 2D mesh of PEs and static route resolution.

The fabric owns the PE grid and resolves, for a wavelet injected at some PE
on some color, the *path* it takes: the sequence of hops dictated by each
traversed PE's router until a router delivers it to a RAMP. Routes on the
device are static per program load, so resolving the full path once per
transfer (instead of stepping wavelet by wavelet) is behaviourally exact and
keeps event counts low.

Because the routes are static, the resolution itself is memoized: the first
walk from a source caches a :class:`ResolvedRoute` for *every* PE it
traverses (each intermediate position resolves to the same destination with
fewer hops), so a chain of k relaying PEs pays one O(k) walk total instead
of k separate walks. Installing any route invalidates the whole cache —
route setup happens at program-load time, before traffic flows, so the
invalidation never costs anything during a simulation. The memo is always
on; ``tests/wse/test_route_cache.py`` pins literal destinations and hop
counts for walked and memoized resolutions alike.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import WSE_USABLE_COLS, WSE_USABLE_ROWS
from repro.errors import RoutingError
from repro.wse.color import Color
from repro.wse.pe import ProcessingElement
from repro.wse.router import RouteRule
from repro.wse.wavelet import Direction


@dataclass(frozen=True)
class ResolvedRoute:
    """Outcome of walking a color's route from a source PE."""

    source: tuple[int, int]
    destination: tuple[int, int]
    hops: int  # number of PE-to-PE links traversed
    #: True when the walk hit a broken link (injected LinkDown fault):
    #: ``destination`` is then the PE where the wavelet vanishes, and the
    #: engine drops the payload instead of delivering it.
    dropped: bool = False


class Fabric:
    """A rows x cols mesh of :class:`ProcessingElement`."""

    def __init__(
        self,
        rows: int,
        cols: int,
        *,
        sram_bytes: int | None = None,
    ):
        if not (1 <= rows <= WSE_USABLE_ROWS):
            raise ValueError(f"rows outside [1, {WSE_USABLE_ROWS}]: {rows}")
        if not (1 <= cols <= WSE_USABLE_COLS):
            raise ValueError(f"cols outside [1, {WSE_USABLE_COLS}]: {cols}")
        self.rows = rows
        self.cols = cols
        #: Static-route memo: (row, col, color_id, entering) -> ResolvedRoute.
        self._route_cache: dict[
            tuple[int, int, int, Direction], ResolvedRoute
        ] = {}
        #: Resolve calls answered from the memo / forced to walk
        #: (observability for tests and ``ceresz sim --metrics``). Both
        #: reset whenever a route is (re)installed, so the numbers always
        #: describe the current program's traffic, not a previous run on
        #: the same fabric.
        self.route_cache_hits = 0
        self.route_cache_misses = 0
        #: Dead links installed by fault injection: a wavelet *arriving at*
        #: PE (row, col) from the stored direction is lost. Walks crossing a
        #: broken link return ``dropped=True`` and are never memoized, so
        #: diagnostics stay exact.
        self.broken_links: set[tuple[int, int, Direction]] = set()
        self._pes: list[list[ProcessingElement]] = [
            [ProcessingElement(row=r, col=c) for c in range(cols)]
            for r in range(rows)
        ]
        if sram_bytes is not None:
            for row in self._pes:
                for pe in row:
                    pe.sram.capacity = sram_bytes

    # -- access ------------------------------------------------------------------

    def pe(self, row: int, col: int) -> ProcessingElement:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise RoutingError(
                f"PE coordinate ({row}, {col}) outside "
                f"{self.rows}x{self.cols} mesh"
            )
        return self._pes[row][col]

    def __iter__(self):
        for row in self._pes:
            yield from row

    @property
    def num_pes(self) -> int:
        return self.rows * self.cols

    def neighbor(
        self, row: int, col: int, direction: Direction
    ) -> ProcessingElement | None:
        """The PE one hop away, or None at a mesh edge."""
        dr, dc = direction.delta
        nr, nc = row + dr, col + dc
        if 0 <= nr < self.rows and 0 <= nc < self.cols:
            return self._pes[nr][nc]
        return None

    # -- routing -------------------------------------------------------------------

    def break_link(self, row: int, col: int, direction: Direction) -> None:
        """Mark the link delivering into PE (row, col) from ``direction`` dead.

        ``direction`` is the side the wavelet *arrives from* (the
        ``entering`` direction of the walk). Installing a break clears the
        route memo: previously cached walks may cross the now-dead link.
        """
        self.pe(row, col)  # validate coordinates
        if direction is Direction.RAMP:
            raise RoutingError("cannot break the internal RAMP link")
        self.broken_links.add((row, col, direction))
        if self._route_cache:
            self._route_cache.clear()

    @property
    def route_cache_size(self) -> int:
        """Number of memoized (PE, color, entering) resolutions."""
        return len(self._route_cache)

    def set_route(
        self,
        row: int,
        col: int,
        color: Color,
        inputs: Direction | tuple[Direction, ...] | list[Direction],
        output: Direction,
    ) -> None:
        """Configure one PE's router for ``color`` (CSL's route setup).

        Invalidates the resolve cache: a new rule can change the path of
        any route that traverses this PE. The hit/miss counters reset with
        it — route installation marks the start of a new program, so the
        counters stay per-run.
        """
        self.pe(row, col).router.set_route(RouteRule.make(color, inputs, output))
        if self._route_cache:
            self._route_cache.clear()
        self.route_cache_hits = 0
        self.route_cache_misses = 0

    def route_row_segment(
        self, row: int, col_from: int, col_to: int, color: Color
    ) -> None:
        """Configure an eastward point-to-point route along one row.

        Installs ``RAMP -> EAST`` at the source, ``WEST -> EAST`` pass-through
        on intermediate PEs, and ``WEST -> RAMP`` at the destination. This is
        the Figure 3 pattern generalized to any distance.
        """
        if col_to <= col_from:
            raise RoutingError(
                f"route_row_segment requires col_to > col_from "
                f"({col_from} -> {col_to})"
            )
        self.set_route(row, col_from, color, Direction.RAMP, Direction.EAST)
        for c in range(col_from + 1, col_to):
            self.set_route(row, c, color, Direction.WEST, Direction.EAST)
        self.set_route(row, col_to, color, Direction.WEST, Direction.RAMP)

    def resolve(
        self, row: int, col: int, color: Color, entering: Direction = Direction.RAMP
    ) -> ResolvedRoute:
        """Walk ``color``'s route from (row, col) until it reaches a RAMP.

        Raises :class:`RoutingError` on missing rules, on routes that leave
        the mesh, and on cycles (a route revisiting a PE from the same
        direction would loop forever on the device).

        Resolutions are memoized per (PE, color, entering direction) — see
        the module docstring. Only successful walks are cached; error paths
        always re-walk so diagnostics stay exact.
        """
        cache = self._route_cache
        ckey = (row, col, color.id, entering)
        hit = cache.get(ckey)
        if hit is not None:
            self.route_cache_hits += 1
            return hit
        self.route_cache_misses += 1
        r, c = row, col
        arriving = entering
        hops = 0
        seen: set[tuple[int, int, Direction]] = set()
        path: list[tuple[int, int, Direction]] = []
        while True:
            key = (r, c, arriving)
            if self.broken_links and key in self.broken_links:
                # Broken link: the wavelet dies here. Not memoized — fault
                # runs are rare and diagnostics should always re-walk.
                return ResolvedRoute(
                    source=(row, col), destination=(r, c), hops=hops,
                    dropped=True,
                )
            if key in seen:
                raise RoutingError(
                    f"color {color.id} route loops at PE({r}, {c})"
                )
            seen.add(key)
            path.append(key)
            out = self.pe(r, c).router.route(color.id, arriving)
            if out is Direction.RAMP:
                # Every traversed position resolves to the same RAMP with
                # the remaining hop count, so one walk warms the cache for
                # the whole chain downstream of the source.
                destination = (r, c)
                for i, (pr, pc, pd) in enumerate(path):
                    cache[(pr, pc, color.id, pd)] = ResolvedRoute(
                        source=(pr, pc), destination=destination, hops=hops - i
                    )
                return cache[ckey]
            nxt = self.neighbor(r, c, out)
            if nxt is None:
                raise RoutingError(
                    f"color {color.id} route leaves the mesh at PE({r}, {c}) "
                    f"going {out.value}"
                )
            r, c = nxt.row, nxt.col
            arriving = out.opposite
            hops += 1
