"""Host-side reference network simulator.

This simulator executes a population/projection network directly on the
host, with the same 1 ms tick, the same deferred-event (soft-delay) ring
and the same tick kernel (:mod:`repro.neuron.kernel`) as the on-machine
runtime (:mod:`repro.runtime.application`); what is the host's own is the
propagate step — every projection's unquantised float CSR rows stacked
into one :class:`~repro.neuron.engine.RowTable`, the board engine's table
type, whose rows a tick sorts so its spikes reach the ring in one
element-order scatter (``add_events``) — plasticity, and membrane-voltage
recording.  It serves two purposes:

* it is the behavioural baseline the on-machine simulation is checked
  against (same network, same seed, same spike counts); and
* it is the fast vehicle for the purely neural experiments (retina coding,
  rank-order codes, soft-delay ablation) that do not need the machine
  model in the loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.neuron.engine import RowTable
from repro.neuron.kernel import SpikeRecord, TickKernel, TickUnit
from repro.neuron.population import (
    Population,
    Projection,
    simulation_rng,
)
from repro.profile import profile_stage

# The host loop's own stages; the kernel's ``stimulus``, ``neuron_update``
# and ``record`` nest under ``tick`` beside ``propagate``.
_TICK_STAGE = profile_stage("tick")
_PROPAGATE_STAGE = profile_stage("propagate")


def expand_projections(network: "Network", seed: Optional[int]):
    """Expand every projection of ``network`` once under ``seed``.

    The single shared entry point to the connectivity-expansion artifact:
    the host reference simulator, the routing/synaptic mapping passes of
    :mod:`repro.compile` and the host system all go through here, so one
    seed has exactly one expansion (cached on the projections) however
    many layers consume it and in whatever order.

    Returns ``[(index, projection, csr)]`` with projections in network
    order.
    """
    return [(index, projection, projection.compile_csr(seed, index))
            for index, projection in enumerate(network.projections)]


@dataclass
class SimulationResult(SpikeRecord):
    """Recorded output of a network run.

    Adds to the :class:`~repro.neuron.kernel.SpikeRecord` the membrane
    ``voltages``: a label to an array of shape ``(n_ticks, n_neurons)``.
    """

    timestep_ms: float = 1.0
    voltages: Dict[str, np.ndarray] = field(default_factory=dict)


class Network:
    """A container of populations and projections plus the reference simulator."""

    def __init__(self, timestep_ms: float = 1.0,
                 seed: Optional[int] = None) -> None:
        if timestep_ms <= 0:
            raise ValueError("timestep must be positive")
        self.timestep_ms = timestep_ms
        self.seed = seed
        self.populations: List[Population] = []
        self.projections: List[Projection] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_population(self, population: Population) -> Population:
        """Add a population (or spike source) to the network."""
        if population in self.populations:
            return population
        if any(p.label == population.label for p in self.populations):
            raise ValueError("duplicate population label %r" % (population.label,))
        self.populations.append(population)
        return population

    def add_projection(self, projection: Projection) -> Projection:
        """Add a projection; its endpoints are added automatically."""
        for endpoint in (projection.pre, projection.post):
            if endpoint not in self.populations:
                self.add_population(endpoint)
        self.projections.append(projection)
        return projection

    def connect(self, pre: Population, post: Population,
                connector, label: Optional[str] = None,
                plasticity: Optional[object] = None) -> Projection:
        """Convenience wrapper: build and add a projection."""
        projection = Projection(pre=pre, post=post, connector=connector,
                                label=label, plasticity=plasticity)
        return self.add_projection(projection)

    def population(self, label: str) -> Population:
        """Look a population up by label."""
        for population in self.populations:
            if population.label == label:
                return population
        raise KeyError("no population labelled %r" % (label,))

    @property
    def n_neurons(self) -> int:
        """Total neurons (excluding spike sources)."""
        return sum(p.size for p in self.populations if not p.is_spike_source)

    def n_synapses(self) -> int:
        """Total synapses across all projections (under the network seed)."""
        return sum(csr.n_synapses for _index, _projection, csr
                   in expand_projections(self, self.seed))

    # ------------------------------------------------------------------
    # Reference simulation
    # ------------------------------------------------------------------
    def run(self, duration_ms: float,
            seed: Optional[int] = None) -> SimulationResult:
        """Simulate the network on the host for ``duration_ms``.

        Each tick the kernel generates the stimulus, drains the ring into
        the neuron models, integrates and records; the loop then looks
        every projection's spiking rows up in one table stacked from their
        CSR matrices and defers them, with the programmed delays, in one
        ring call — in projection order, spiking rows ascending, storage
        order within a row: the order per-projection scatters sum in.
        Plastic projections then update in network order.
        """
        if duration_ms < 0:
            raise ValueError("duration must be non-negative")
        effective_seed = self.seed if seed is None else seed
        rng = simulation_rng(effective_seed)
        n_ticks = int(round(duration_ms / self.timestep_ms))

        result = SimulationResult(duration_ms=duration_ms,
                                  timestep_ms=self.timestep_ms)
        result.track(self.populations)
        units = {population.label: TickUnit(population, 0, population.size,
                                            rng)
                 for population in self.populations}
        kernel = TickKernel(list(units.values()), self.timestep_ms, result)
        probed = [units[population.label] for population in self.populations
                  if population.record_voltages
                  and not population.is_spike_source]
        for unit in probed:
            result.voltages[unit.population.label] = np.zeros(
                (n_ticks, unit.n_neurons))

        # The expansion artifact is shared with the mapping compiler — see
        # :func:`expand_projections` — so results do not depend on
        # expansion order or on cache hits/misses.  A projection onto a
        # spike source delivers nowhere (the kernel discards its charge)
        # and the host counts no events, so it is left out of the table.
        expanded = [(projection, csr, units[projection.pre.label],
                     units[projection.post.label])
                    for _index, projection, csr
                    in expand_projections(self, effective_seed)
                    if not projection.post.is_spike_source]
        # One row table over them all, in network order, for this run
        # only: a fired cell reaches one row per projection it feeds.
        table = RowTable([(csr, pre.cell + np.arange(csr.n_pre),
                           kernel.columns(post))
                          for _p, csr, pre, post in expanded],
                         kernel.n_cells, kernel.ring)
        learners = [(projection.plasticity, csr, pre, post, span)
                    for (projection, csr, pre, post), span
                    in zip(expanded, table.spans)
                    if projection.plasticity is not None]
        fired_mask = np.zeros(kernel.n_cells, dtype=bool)

        for tick in range(n_ticks):
            with _TICK_STAGE:
                fired = kernel.step(tick)
                for unit in probed:
                    result.voltages[unit.population.label][tick] = \
                        kernel.voltages(unit)
                with _PROPAGATE_STAGE:
                    # Rows ascend in projection order, then by pre
                    # neuron: sorted, they are the per-projection order.
                    rows, _counts = table.rows(fired)
                    slots, _lengths = table.slots(np.sort(rows))
                    if slots.size:
                        kernel.ring.add_events(table.offsets[slots],
                                               table.weights[slots])
                    # An update reads only its own weights and this tick's
                    # masks, so running it after every delivery changes
                    # nothing; the table then takes the learned weights.
                    if learners:
                        fired_mask[:] = False
                        fired_mask[fired] = True
                    for plasticity, csr, pre, post, span in learners:
                        plasticity.update_csr(
                            csr, fired_mask[pre.cell:pre.cell + pre.n_neurons],
                            fired_mask[post.cell:post.cell + post.n_neurons],
                            tick * self.timestep_ms)
                        table.weights[span] = csr.weights
        result.flush()
        return result
