"""Multicast routing-table generation (Section 5.3, ref [19]).

For every source vertex the generator computes the set of chips that host
post-synaptic vertices of any projection leaving that vertex, builds a
multicast tree from the source chip to those destinations over the torus,
and installs one masked routing entry per chip on the tree:

* at the source chip the entry lists the outgoing links of the tree (and
  the local cores, if any targets are co-located);
* at intermediate chips the entry forwards along the tree;
* at destination chips the entry delivers to the local target cores.

The trees are built by merging the shortest dimension-ordered routes to
each destination, which is what the real tool-chain's default router does
and gives the traffic reduction measured in experiment E11.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.geometry import ChipCoordinate, Direction
from repro.core.machine import SpiNNakerMachine
from repro.mapping.keys import KeyAllocator
from repro.mapping.placement import Placement, Vertex
from repro.neuron.network import Network
from repro.neuron.population import expansion_rng
from repro.router.fabric import RouteProgram, compile_route
from repro.router.routing_table import RoutingEntry


@dataclass
class RoutingSummary:
    """Statistics of a routing-table generation pass."""

    entries_installed: int = 0
    entries_after_minimisation: int = 0
    chips_touched: int = 0
    multicast_trees: int = 0
    total_tree_links: int = 0
    programs_compiled: int = 0


class RoutingTableGenerator:
    """Builds and installs the per-chip multicast routing tables."""

    def __init__(self, machine: SpiNNakerMachine, placement: Placement,
                 keys: KeyAllocator) -> None:
        self.machine = machine
        self.placement = placement
        self.keys = keys
        #: Compiled key -> route programs for the transport fabric,
        #: emitted by :meth:`generate` when ``compile_programs`` is set.
        self.compiled_programs: Dict[int, RouteProgram] = {}

    # ------------------------------------------------------------------
    # Destination discovery
    # ------------------------------------------------------------------
    def destinations_of(self, network: Network, vertex: Vertex,
                        seed: Optional[int]
                        ) -> Dict[ChipCoordinate, Set[int]]:
        """Chips (and the cores on them) that must receive ``vertex``'s spikes.

        A chip is a destination if any projection from the vertex's
        population has, in the expansion under ``seed``, at least one
        synapse from a neuron in this vertex to a neuron placed on that
        chip.
        """
        destinations: Dict[ChipCoordinate, Set[int]] = {}
        for index, projection in enumerate(network.projections):
            if projection.pre.label != vertex.population_label:
                continue
            csr = projection.compile_csr(expansion_rng(seed, index), seed)
            hit = csr.targets[csr.row_ptr[vertex.slice_start]:
                              csr.row_ptr[vertex.slice_stop]]
            for target_vertex in self.placement.vertices_of(
                    projection.post.label):
                if np.any((hit >= target_vertex.slice_start)
                          & (hit < target_vertex.slice_stop)):
                    chip, core = self.placement.location_of(target_vertex)
                    destinations.setdefault(chip, set()).add(core)
        return destinations

    # ------------------------------------------------------------------
    # Tree construction
    # ------------------------------------------------------------------
    def build_tree(self, source: ChipCoordinate,
                   destinations: List[ChipCoordinate]
                   ) -> Dict[ChipCoordinate, Set[Direction]]:
        """Merge shortest routes into a multicast tree.

        Returns a mapping from each chip on the tree to the set of outgoing
        link directions the packet must take there.  Destination-only chips
        appear with an empty set.
        """
        tree: Dict[ChipCoordinate, Set[Direction]] = {source: set()}
        for destination in destinations:
            if destination == source:
                continue
            route = self.machine.geometry.route(source, destination)
            current = source
            for direction in route:
                tree.setdefault(current, set()).add(direction)
                current = current.neighbour(direction,
                                            self.machine.config.width,
                                            self.machine.config.height)
            tree.setdefault(current, set())
        return tree

    # ------------------------------------------------------------------
    # Table installation
    # ------------------------------------------------------------------
    def generate(self, network: Network,
                 seed: Optional[int] = None,
                 minimise: bool = True,
                 compile_programs: bool = False) -> RoutingSummary:
        """Install routing entries for every source vertex of the network.

        With ``compile_programs`` the generator also emits the compiled
        key -> tree programs the transport fabric replays at run time
        (:attr:`compiled_programs`), walked from the *installed* tables
        after minimisation so the programs reflect exactly what the
        event-driven router would do.
        """
        effective_seed = network.seed if seed is None else seed
        summary = RoutingSummary()
        touched: Set[ChipCoordinate] = set()
        sources: List[Tuple[ChipCoordinate, int]] = []

        for vertex in self.placement.vertices:
            space = self.keys.key_space(vertex)
            source_chip, _source_core = self.placement.location_of(vertex)
            destinations = self.destinations_of(network, vertex,
                                                effective_seed)
            if not destinations:
                continue
            summary.multicast_trees += 1
            sources.append((source_chip, space.base_key))
            tree = self.build_tree(source_chip, list(destinations))
            summary.total_tree_links += sum(len(links) for links in tree.values())

            for chip_coordinate, link_directions in tree.items():
                cores = destinations.get(chip_coordinate, set())
                if not link_directions and not cores:
                    continue
                entry = RoutingEntry(key=space.base_key, mask=space.mask,
                                     link_directions=frozenset(link_directions),
                                     processor_ids=frozenset(cores))
                self.machine.chips[chip_coordinate].router.table.add_entry(entry)
                summary.entries_installed += 1
                touched.add(chip_coordinate)

        summary.chips_touched = len(touched)
        if minimise:
            remaining = 0
            for coordinate in touched:
                table = self.machine.chips[coordinate].router.table
                table.minimise()
                remaining += len(table)
            summary.entries_after_minimisation = remaining
        else:
            summary.entries_after_minimisation = summary.entries_installed
        if compile_programs:
            self.compiled_programs = {
                key: compile_route(self.machine, source_chip, key)
                for source_chip, key in sources}
            summary.programs_compiled = len(self.compiled_programs)
        return summary

    # ------------------------------------------------------------------
    # Broadcast baseline (experiment E11)
    # ------------------------------------------------------------------
    def generate_broadcast(self, network: Network,
                           seed: Optional[int] = None) -> RoutingSummary:
        """Install *broadcast* entries: every vertex's packets flood every chip.

        This is the bus-style AER baseline the paper contrasts with the
        packet-switched multicast mechanism ("in the past AER has been used
        principally in bus-based broadcast communication").  Each source
        vertex gets an entry on every chip that forwards the packet to the
        whole machine along a spanning tree rooted at the source, and
        delivers it to every application core that hosts post-synaptic
        vertices of the projection (the cores then discard irrelevant
        spikes, as a bus-snooping AER system would).
        """
        effective_seed = network.seed if seed is None else seed
        summary = RoutingSummary()
        touched: Set[ChipCoordinate] = set()
        all_chips = list(self.machine.geometry.all_chips())

        for vertex in self.placement.vertices:
            space = self.keys.key_space(vertex)
            source_chip, _ = self.placement.location_of(vertex)
            destinations = self.destinations_of(network, vertex,
                                                effective_seed)
            if not destinations:
                continue
            summary.multicast_trees += 1
            tree = self.build_tree(source_chip, all_chips)
            summary.total_tree_links += sum(len(links) for links in tree.values())
            for chip_coordinate, link_directions in tree.items():
                cores = destinations.get(chip_coordinate, set())
                if not link_directions and not cores:
                    continue
                entry = RoutingEntry(key=space.base_key, mask=space.mask,
                                     link_directions=frozenset(link_directions),
                                     processor_ids=frozenset(cores))
                self.machine.chips[chip_coordinate].router.table.add_entry(entry)
                summary.entries_installed += 1
                touched.add(chip_coordinate)
        summary.chips_touched = len(touched)
        summary.entries_after_minimisation = summary.entries_installed
        return summary
