"""Multicast tree construction (Section 5.3, ref [19]).

The route pass of :mod:`repro.compile` realises every source vertex's
projections as one multicast tree from the source chip to the chips
hosting its post-synaptic vertices, installed as one masked routing
entry per chip on the tree:

* at the source chip the entry lists the outgoing links of the tree (and
  the local cores, if any targets are co-located);
* at intermediate chips the entry forwards along the tree;
* at destination chips the entry delivers to the local target cores.

This module holds the tree algorithm (:func:`build_tree`) and the
statistics record the pass fills in (:class:`RoutingSummary`).  The
trees are built by merging the shortest dimension-ordered routes to
each destination, which is what the real tool-chain's default router does
and gives the traffic reduction measured in experiment E11.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from repro.core.geometry import ChipCoordinate, Direction
from repro.core.machine import SpiNNakerMachine


@dataclass
class RoutingSummary:
    """Statistics of the routing tables one compilation installed."""

    entries_installed: int = 0
    entries_after_minimisation: int = 0
    chips_touched: int = 0
    multicast_trees: int = 0
    total_tree_links: int = 0
    programs_compiled: int = 0


def build_tree(machine: SpiNNakerMachine, source: ChipCoordinate,
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
        route = machine.geometry.route(source, destination)
        current = source
        for direction in route:
            tree.setdefault(current, set()).add(direction)
            current = current.neighbour(direction, machine.config.width,
                                        machine.config.height)
        tree.setdefault(current, set())
    return tree
