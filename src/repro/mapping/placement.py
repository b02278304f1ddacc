"""Placement: splitting populations into vertices and assigning them to cores.

The paper's "virtualised topology" principle (Section 3.2) says any neuron
*can* be mapped to any processor, but that mapping biologically-proximal
neurons to physically-proximal cores "will minimize routing costs".  The
placer implements both policies:

* ``"round-robin"`` — scatter vertices over the machine in raster order,
  the simplest legal placement (and a useful worst case for traffic);
* ``"locality"`` — place the vertices of each population contiguously and
  place connected populations on nearby chips, a greedy approximation of
  the radix/locality-aware placement of the real tool-chain [19].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.geometry import ChipCoordinate
from repro.core.machine import SpiNNakerMachine
from repro.neuron.network import Network

#: Default maximum number of neurons simulated by one application core; the
#: real-time budget of the SpiNNaker kernel is of this order for LIF /
#: Izhikevich neurons at a 1 ms timestep.
DEFAULT_MAX_NEURONS_PER_CORE = 256


@dataclass(frozen=True)
class Vertex:
    """A slice of a population small enough to run on one core."""

    population_label: str
    slice_start: int
    slice_stop: int
    index: int

    @property
    def n_neurons(self) -> int:
        """Number of neurons in the slice."""
        return self.slice_stop - self.slice_start

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "%s[%d:%d]" % (self.population_label, self.slice_start,
                              self.slice_stop)


class PlacementError(Exception):
    """Raised when the network does not fit on the machine."""


@dataclass
class Placement:
    """The result of placing a network onto a machine."""

    machine: SpiNNakerMachine
    max_neurons_per_core: int
    vertices: List[Vertex] = field(default_factory=list)
    #: vertex -> (chip coordinate, core id)
    locations: Dict[Vertex, Tuple[ChipCoordinate, int]] = field(default_factory=dict)
    #: population label -> vertices, in slice order
    by_population: Dict[str, List[Vertex]] = field(default_factory=dict)

    def location_of(self, vertex: Vertex) -> Tuple[ChipCoordinate, int]:
        """The (chip, core) a vertex was placed on."""
        return self.locations[vertex]

    def vertices_of(self, population_label: str) -> List[Vertex]:
        """The vertices of one population, in slice order."""
        return self.by_population[population_label]

    def vertex_for_neuron(self, population_label: str,
                          neuron: int) -> Tuple[Vertex, int]:
        """The vertex holding ``neuron`` and the neuron's index within it."""
        for vertex in self.by_population[population_label]:
            if vertex.slice_start <= neuron < vertex.slice_stop:
                return vertex, neuron - vertex.slice_start
        raise KeyError("neuron %d of %r not found in the placement"
                       % (neuron, population_label))

    @property
    def n_cores_used(self) -> int:
        """Number of application cores with at least one vertex."""
        return len(self.locations)

    def chips_used(self) -> List[ChipCoordinate]:
        """Chips hosting at least one vertex."""
        return sorted({chip for chip, _ in self.locations.values()},
                      key=lambda c: (c.y, c.x))


class Placer:
    """Split populations into vertices and assign them to application cores."""

    def __init__(self, machine: SpiNNakerMachine,
                 max_neurons_per_core: int = DEFAULT_MAX_NEURONS_PER_CORE,
                 strategy: str = "locality") -> None:
        if max_neurons_per_core <= 0:
            raise ValueError("max_neurons_per_core must be positive")
        if strategy not in ("locality", "round-robin"):
            raise ValueError("unknown placement strategy %r" % (strategy,))
        self.machine = machine
        self.max_neurons_per_core = max_neurons_per_core
        self.strategy = strategy

    # ------------------------------------------------------------------
    # Partitioning
    # ------------------------------------------------------------------
    def partition(self, network: Network) -> Dict[str, List[Vertex]]:
        """Split every population into vertices of at most the core budget."""
        vertices: Dict[str, List[Vertex]] = {}
        index = 0
        for population in network.populations:
            slices: List[Vertex] = []
            start = 0
            while start < population.size:
                stop = min(start + self.max_neurons_per_core, population.size)
                slices.append(Vertex(population.label, start, stop, index))
                index += 1
                start = stop
            vertices[population.label] = slices
        return vertices

    # ------------------------------------------------------------------
    # Core enumeration
    # ------------------------------------------------------------------
    def _application_cores(self) -> Iterator[Tuple[ChipCoordinate, int]]:
        """Iterate over usable (chip, core) slots in placement order.

        Core 0 of every chip is reserved for the Monitor Processor when the
        boot layer has not yet run; cores flagged failed or disabled are
        skipped.
        """
        for coordinate in self.machine.geometry.all_chips():
            chip = self.machine.chips[coordinate]
            monitor = chip.monitor_core_id if chip.monitor_core_id is not None else 0
            for core in chip.cores:
                if core.core_id == monitor:
                    continue
                if not core.is_available and core.state.value in ("failed",
                                                                  "disabled"):
                    continue
                yield coordinate, core.core_id

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def place(self, network: Network,
              partition: Optional[Dict[str, List[Vertex]]] = None) -> Placement:
        """Place ``network`` onto the machine.

        ``partition`` lets a caller (the pass-based mapping compiler)
        supply an already-computed partition artifact instead of
        re-partitioning; the placement is identical either way.

        Raises
        ------
        PlacementError
            If there are more vertices than available application cores.
        """
        if partition is None:
            partition = self.partition(network)
        all_vertices = [vertex for slices in partition.values()
                        for vertex in slices]
        slots = list(self._application_cores())
        if len(all_vertices) > len(slots):
            raise PlacementError(
                "network needs %d cores but the machine only offers %d"
                % (len(all_vertices), len(slots)))

        placement = Placement(machine=self.machine,
                              max_neurons_per_core=self.max_neurons_per_core,
                              vertices=all_vertices,
                              by_population=partition)

        if self.strategy == "round-robin":
            order = all_vertices
        else:
            # Locality: keep each population contiguous, and order
            # populations so that connected ones are adjacent in the slot
            # sequence (a greedy chain over the projection graph).
            order = self._locality_order(network, partition)

        for vertex, slot in zip(order, slots):
            placement.locations[vertex] = slot
        return placement

    def _locality_order(self, network: Network,
                        partition: Dict[str, List[Vertex]]) -> List[Vertex]:
        """Order vertices so connected populations sit on nearby cores."""
        adjacency: Dict[str, List[str]] = {}
        for projection in network.projections:
            adjacency.setdefault(projection.pre.label, []).append(
                projection.post.label)
            adjacency.setdefault(projection.post.label, []).append(
                projection.pre.label)

        visited: List[str] = []
        seen = set()

        def visit(label: str) -> None:
            if label in seen:
                return
            seen.add(label)
            visited.append(label)
            for neighbour in adjacency.get(label, []):
                visit(neighbour)

        for population in network.populations:
            visit(population.label)

        order: List[Vertex] = []
        for label in visited:
            order.extend(partition.get(label, []))
        return order
