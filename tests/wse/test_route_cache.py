"""Tests for the static-route memo in Fabric.resolve."""

import pytest

from repro.errors import RoutingError
from repro.wse.color import Color
from repro.wse.fabric import Fabric, ResolvedRoute
from repro.wse.wavelet import Direction


def _eastward_chain(fabric: Fabric, color: Color, row: int, cols: int):
    fabric.route_row_segment(row, 0, cols - 1, color)


class TestRouteCacheHits:
    def test_repeated_resolve_hits_the_cache(self):
        fabric = Fabric(1, 5)
        color = Color(0)
        _eastward_chain(fabric, color, 0, 5)
        first = fabric.resolve(0, 0, color)
        assert fabric.route_cache_hits == 0
        assert fabric.route_cache_size > 0
        for _ in range(3):
            again = fabric.resolve(0, 0, color)
            assert again == first
        assert fabric.route_cache_hits == 3

    def test_one_walk_warms_every_traversed_position(self):
        # Resolving from the source caches the downstream positions too,
        # so a k-PE relay chain pays one O(k) walk total.
        fabric = Fabric(1, 6)
        color = Color(1)
        _eastward_chain(fabric, color, 0, 6)
        fabric.resolve(0, 0, color)
        size_after_first = fabric.route_cache_size
        assert size_after_first == 6  # source + 4 relays + destination
        mid = fabric.resolve(0, 3, color, entering=Direction.WEST)
        assert fabric.route_cache_hits == 1
        assert mid.destination == (0, 5)
        assert mid.hops == 2
        assert fabric.route_cache_size == size_after_first

    def test_cached_and_walked_routes_agree(self):
        """Walked and memoized resolutions both equal the literal route."""
        color = Color(2)
        expected = {
            col: ResolvedRoute(source=(1, col), destination=(1, 3), hops=3 - col)
            for col in range(3)
        }

        def entering(col: int) -> Direction:
            return Direction.RAMP if col == 0 else Direction.WEST

        for col, want in expected.items():
            cold = Fabric(2, 4)  # empty memo: this resolve walks the route
            _eastward_chain(cold, color, 1, 4)
            assert cold.resolve(1, col, color, entering(col)) == want
            assert cold.route_cache_misses == 1
        warm = Fabric(2, 4)
        _eastward_chain(warm, color, 1, 4)
        warm.resolve(1, 0, color)  # one walk memoizes the whole chain
        for col, want in expected.items():
            assert warm.resolve(1, col, color, entering(col)) == want
        assert warm.route_cache_hits == 3
        assert warm.route_cache_misses == 1


class TestRouteCacheInvalidation:
    def test_set_route_clears_the_cache(self):
        fabric = Fabric(1, 3)
        color = Color(0)
        fabric.set_route(0, 0, color, Direction.RAMP, Direction.EAST)
        fabric.set_route(0, 1, color, Direction.WEST, Direction.RAMP)
        short = fabric.resolve(0, 0, color)
        assert short.destination == (0, 1)
        assert fabric.route_cache_size > 0
        # Extend the route: PE(0,1) now forwards east instead of delivering.
        other = Color(1)
        fabric.set_route(0, 1, other, Direction.WEST, Direction.EAST)
        assert fabric.route_cache_size == 0  # any rule change invalidates
        fabric.pe(0, 1).router.rules.pop(color.id)
        fabric.set_route(0, 1, color, Direction.WEST, Direction.EAST)
        fabric.set_route(0, 2, color, Direction.WEST, Direction.RAMP)
        rerouted = fabric.resolve(0, 0, color)
        assert rerouted.destination == (0, 2)
        assert rerouted.hops == 2

    def test_set_route_resets_hit_and_miss_counters(self):
        """Counters are per-run: installing a route marks a new program,
        so numbers reported by ``ceresz sim --metrics`` never include a
        previous run's traffic on the same fabric."""
        fabric = Fabric(1, 3)
        color = Color(0)
        fabric.route_row_segment(0, 0, 2, color)
        fabric.resolve(0, 0, color)  # miss + walk
        fabric.resolve(0, 0, color)  # hit
        assert fabric.route_cache_misses == 1
        assert fabric.route_cache_hits == 1
        other = Color(1)
        fabric.set_route(0, 0, other, Direction.RAMP, Direction.EAST)
        assert fabric.route_cache_hits == 0
        assert fabric.route_cache_misses == 0
        assert fabric.route_cache_size == 0

    def test_miss_counter_tracks_cold_lookups(self):
        fabric = Fabric(1, 3)
        color = Color(0)
        fabric.route_row_segment(0, 0, 2, color)
        assert fabric.route_cache_misses == 0
        fabric.resolve(0, 0, color)
        assert fabric.route_cache_misses == 1
        fabric.resolve(0, 0, color)
        assert fabric.route_cache_misses == 1  # warm now

    def test_error_paths_stay_uncached(self):
        fabric = Fabric(1, 2)
        color = Color(0)
        fabric.set_route(0, 0, color, Direction.RAMP, Direction.EAST)
        # No rule at PE(0,1): the walk fails and must not poison the cache.
        with pytest.raises(RoutingError):
            fabric.resolve(0, 0, color)
        assert fabric.route_cache_size == 0
        fabric.set_route(0, 1, color, Direction.WEST, Direction.RAMP)
        assert fabric.resolve(0, 0, color).destination == (0, 1)
