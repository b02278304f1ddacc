"""Unit tests for multicast routing tables and p2p tables."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (linear_lookup, reference_displacement,
                     reference_p2p_entries)
from repro.alloc.machine_view import LeaseGeometry
from repro.alloc.partition import Lease, Rect
from repro.core.geometry import ChipCoordinate, Direction, TorusGeometry
from repro.router.p2p import P2PRoutingTable
from repro.router.routing_table import (
    MulticastRoutingTable,
    RoutingEntry,
    RoutingTableFullError,
)


class TestRoutingEntry:
    def test_entry_matches_masked_key(self):
        entry = RoutingEntry(key=0x1200, mask=0xFF00)
        assert entry.matches(0x1234)
        assert entry.matches(0x12FF)
        assert not entry.matches(0x1300)

    def test_key_outside_mask_rejected(self):
        with pytest.raises(ValueError):
            RoutingEntry(key=0x12, mask=0x10)

    def test_key_and_mask_width_checked(self):
        with pytest.raises(ValueError):
            RoutingEntry(key=1 << 32, mask=0xFFFFFFFF)
        with pytest.raises(ValueError):
            RoutingEntry(key=0, mask=1 << 32)

    def test_span_counts_wildcards(self):
        assert RoutingEntry(key=0, mask=0xFFFFFFFF).span == 1
        assert RoutingEntry(key=0, mask=0xFFFFFF00).span == 256

    def test_same_route_comparison(self):
        first = RoutingEntry(key=0, mask=0xFFFFFFFF,
                             link_directions=frozenset([Direction.EAST]),
                             processor_ids=frozenset([1]))
        second = RoutingEntry(key=4, mask=0xFFFFFFFF,
                              link_directions=frozenset([Direction.EAST]),
                              processor_ids=frozenset([1]))
        third = RoutingEntry(key=4, mask=0xFFFFFFFF,
                             link_directions=frozenset([Direction.WEST]))
        assert first.same_route(second)
        assert not first.same_route(third)


class TestMulticastRoutingTable:
    def test_first_match_wins(self):
        table = MulticastRoutingTable()
        table.add(key=0x10, mask=0xF0, cores=[1])
        table.add(key=0x10, mask=0xFF, cores=[2])
        entry = table.lookup(0x10)
        assert entry.processor_ids == frozenset([1])

    def test_lookup_miss_returns_none_and_counts(self):
        table = MulticastRoutingTable()
        table.add(key=5, mask=0xFFFFFFFF)
        assert table.lookup(6) is None
        assert table.misses == 1
        assert table.lookups == 1

    def test_capacity_enforced(self):
        table = MulticastRoutingTable(capacity=2)
        table.add(key=0, mask=0xFFFFFFFF)
        table.add(key=1, mask=0xFFFFFFFF)
        with pytest.raises(RoutingTableFullError):
            table.add(key=2, mask=0xFFFFFFFF)

    def test_default_capacity_is_1024(self):
        assert MulticastRoutingTable().capacity == 1024

    def test_occupancy_fraction(self):
        table = MulticastRoutingTable(capacity=10)
        table.add(key=0, mask=0xFFFFFFFF)
        assert table.occupancy == pytest.approx(0.1)

    def test_clear_empties_table(self):
        table = MulticastRoutingTable()
        table.add(key=0, mask=0xFFFFFFFF)
        table.clear()
        assert len(table) == 0

    def test_minimise_merges_single_bit_pairs(self):
        table = MulticastRoutingTable()
        table.add(key=0b1000, mask=0xFFFFFFFF, links=[Direction.EAST])
        table.add(key=0b1001, mask=0xFFFFFFFF, links=[Direction.EAST])
        eliminated = table.minimise()
        assert eliminated == 1
        assert len(table) == 1
        merged = table.entries[0]
        assert merged.matches(0b1000)
        assert merged.matches(0b1001)
        assert not merged.matches(0b1010)

    def test_minimise_does_not_merge_different_routes(self):
        table = MulticastRoutingTable()
        table.add(key=0b1000, mask=0xFFFFFFFF, links=[Direction.EAST])
        table.add(key=0b1001, mask=0xFFFFFFFF, links=[Direction.WEST])
        assert table.minimise() == 0
        assert len(table) == 2

    def test_minimise_is_repeated_until_stable(self):
        table = MulticastRoutingTable()
        for key in range(4):
            table.add(key=key, mask=0xFFFFFFFF, cores=[3])
        table.minimise()
        assert len(table) == 1
        assert table.entries[0].span == 4

    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=1,
                    max_size=40, unique=True))
    @settings(max_examples=30, deadline=None)
    def test_minimise_preserves_routing_semantics(self, keys):
        # After minimisation every original key must still hit an entry
        # with the same route, and no key outside the originals that was
        # previously a miss may suddenly route differently *to a different
        # route set* (coarsening may make extra keys match, but only with
        # the same route as the merged group, which is safe for multicast).
        table = MulticastRoutingTable()
        for key in keys:
            table.add(key=key, mask=0xFFFFFFFF, links=[Direction.NORTH])
        table.minimise()
        for key in keys:
            entry = table.lookup(key)
            assert entry is not None
            assert entry.link_directions == frozenset([Direction.NORTH])


class TestIndexedLookup:
    """The mask-grouped key index must replicate the linear CAM walk."""

    def test_index_respects_cross_mask_entry_order(self):
        table = MulticastRoutingTable()
        table.add(key=0x10, mask=0xF0, cores=[1])     # coarse entry first
        table.add(key=0x12, mask=0xFF, cores=[2])     # finer entry shadowed
        assert table.lookup(0x12).processor_ids == frozenset([1])
        table2 = MulticastRoutingTable()
        table2.add(key=0x12, mask=0xFF, cores=[2])    # finer entry first
        table2.add(key=0x10, mask=0xF0, cores=[1])
        assert table2.lookup(0x12).processor_ids == frozenset([2])

    def test_index_invalidated_on_mutation(self):
        table = MulticastRoutingTable()
        table.add(key=1, mask=0xFFFFFFFF, cores=[1])
        assert table.lookup(2) is None                # builds the index
        table.add(key=2, mask=0xFFFFFFFF, cores=[2])  # must invalidate it
        assert table.lookup(2).processor_ids == frozenset([2])
        table.clear()
        assert table.lookup(1) is None

    def test_compile_routes_reports_hits_and_misses(self):
        table = MulticastRoutingTable()
        table.add(key=0x100, mask=0xFFFFFF00, links=[Direction.EAST])
        routes = table.compile_routes([0x104, 0x999])
        assert routes[0x104] == (frozenset([Direction.EAST]), frozenset())
        assert routes[0x999] is None
        assert table.lookups == 0 and table.misses == 0

    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=0xFF),
                  st.sampled_from([0xFFFFFFFF, 0xFFFFFFF0, 0xFFFFFF00]),
                  st.sampled_from(list(Direction)),
                  st.integers(min_value=0, max_value=3)),
        min_size=1, max_size=30),
        st.lists(st.integers(min_value=0, max_value=0x3FF),
                 min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_indexed_lookup_matches_linear_scan(self, raw_entries, probes):
        # Overlapping masks, duplicate keys and shadowed entries included:
        # the indexed cache must agree with the linear CAM walk for every
        # probe key, both before and after minimisation.
        table = MulticastRoutingTable()
        for key, mask, link, core in raw_entries:
            table.add(key=key & mask, mask=mask, links=[link], cores=[core])
        for key in probes:
            assert table.route_for(key) is linear_lookup(table, key)
        table.minimise()
        for key in probes:
            assert table.route_for(key) is linear_lookup(table, key)


class TestP2PRoutingTable:
    def test_table_covers_every_destination(self):
        geometry = TorusGeometry(4, 4)
        table = P2PRoutingTable(ChipCoordinate(1, 1), geometry)
        assert len(table) == 16
        assert table.next_hop(ChipCoordinate(1, 1)) is None

    def test_next_hop_is_first_step_of_shortest_route(self):
        geometry = TorusGeometry(8, 8)
        origin = ChipCoordinate(0, 0)
        table = P2PRoutingTable(origin, geometry)
        destination = ChipCoordinate(3, 3)
        assert table.next_hop(destination) is Direction.NORTH_EAST

    def test_unknown_destination_raises(self):
        geometry = TorusGeometry(2, 2)
        table = P2PRoutingTable(ChipCoordinate(0, 0), geometry)
        with pytest.raises(KeyError):
            table.next_hop(ChipCoordinate(5, 5))
        assert not table.knows(ChipCoordinate(5, 5))

    def test_following_next_hops_reaches_destination(self):
        geometry = TorusGeometry(6, 6)
        tables = {coord: P2PRoutingTable(coord, geometry)
                  for coord in geometry.all_chips()}
        source = ChipCoordinate(0, 0)
        destination = ChipCoordinate(4, 2)
        current = source
        hops = 0
        while current != destination:
            direction = tables[current].next_hop(destination)
            current = current.neighbour(direction, 6, 6)
            hops += 1
            assert hops <= 12, "p2p forwarding must not loop"
        assert hops == geometry.distance(source, destination)


def _lease_geometry(rect, excluded=(), machine=(8, 6)):
    lease = Lease(lease_id=1, rect=rect, excluded=set(excluded))
    return LeaseGeometry(lease, *machine)


#: A torus (odd and even axes, so half-torus ties occur), and leases that
#: wrap on both axes, on one, on none, and with condemned chips.
P2P_GEOMETRIES = {
    "torus": lambda: TorusGeometry(7, 6),
    "torus-2x2": lambda: TorusGeometry(2, 2),
    "lease-wraps-both": lambda: _lease_geometry(
        Rect(0, 0, 8, 6), excluded={ChipCoordinate(3, 2)}),
    "lease-wraps-x": lambda: _lease_geometry(Rect(0, 2, 8, 3)),
    "lease-open": lambda: _lease_geometry(Rect(2, 1, 5, 4)),
    "lease-excluded": lambda: _lease_geometry(
        Rect(1, 1, 6, 4), excluded={ChipCoordinate(2, 2),
                                    ChipCoordinate(6, 4)}),
}


class TestDisplacementTable:
    """Every p2p entry and every distance, against the scalar per-pair
    search boot used to run for each chip."""

    @pytest.mark.parametrize("name", sorted(P2P_GEOMETRIES))
    def test_every_p2p_entry_matches_the_scalar_builder(self, name):
        geometry = P2P_GEOMETRIES[name]()
        for chip in geometry.all_chips():
            table = P2PRoutingTable(chip, geometry)
            expected = reference_p2p_entries(chip, geometry)
            assert len(table) == len(expected)
            assert {destination: table.next_hop(destination)
                    for destination in expected} == expected

    @pytest.mark.parametrize("name", sorted(P2P_GEOMETRIES))
    def test_every_displacement_and_distance_matches(self, name):
        geometry = P2P_GEOMETRIES[name]()
        chips = list(geometry.all_chips())
        for source in chips:
            for target in chips:
                dx, dy = reference_displacement(geometry, source, target)
                assert geometry.displacement(source, target) == (dx, dy)
                assert geometry.distance(source, target) == \
                    TorusGeometry.hex_distance(dx, dy)
                assert geometry.route(source, target) == \
                    TorusGeometry.decompose(dx, dy)

    def test_excluded_lease_chips_stay_unknown(self):
        geometry = P2P_GEOMETRIES["lease-excluded"]()
        table = P2PRoutingTable(ChipCoordinate(1, 1), geometry)
        for condemned in (ChipCoordinate(2, 2), ChipCoordinate(6, 4)):
            assert not table.knows(condemned)
            with pytest.raises(KeyError):
                table.next_hop(condemned)
        assert not table.knows(ChipCoordinate(0, 0))  # outside the rect
        assert len(table) == 6 * 4 - 2

    def test_condemning_a_chip_after_boot_forgets_it(self):
        geometry = _lease_geometry(Rect(0, 0, 4, 4))
        table = P2PRoutingTable(ChipCoordinate(0, 0), geometry)
        assert table.knows(ChipCoordinate(2, 2))
        geometry.lease.excluded.add(ChipCoordinate(2, 2))
        assert not table.knows(ChipCoordinate(2, 2))
        assert len(table) == 15

    def test_lease_rejects_queries_leaving_its_rectangle(self):
        geometry = P2P_GEOMETRIES["lease-open"]()
        with pytest.raises(ValueError):
            geometry.distance(ChipCoordinate(2, 1), ChipCoordinate(0, 0))
