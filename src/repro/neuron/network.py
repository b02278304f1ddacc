"""Host-side reference network simulator.

This simulator executes a population/projection network directly on the
host, with the same 1 ms tick, the same deferred-event (soft-delay) buffers
and the same neuron update rules as the on-machine runtime
(:mod:`repro.runtime.application`).  It serves two purposes:

* it is the behavioural baseline the on-machine simulation is checked
  against (same network, same seed, same spike counts); and
* it is the fast vehicle for the purely neural experiments (retina coding,
  rank-order codes, soft-delay ablation) that do not need the machine
  model in the loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.neuron.population import (
    Population,
    Projection,
    SpikeSourceArray,
    SpikeSourcePoisson,
    expansion_rng,
    simulation_rng,
)
from repro.neuron.synapse import DeferredEventBuffer, MAX_DELAY_TICKS
from repro.profile import profile_stage

# The Fig. 7 timer-tick phases, hoisted so the loop re-enters the same
# stage objects (a disabled entry is one flag check).
_TICK_STAGE = profile_stage("tick")
_STIMULUS_STAGE = profile_stage("stimulus")
_NEURON_UPDATE_STAGE = profile_stage("neuron_update")
_RECORD_STAGE = profile_stage("record")
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
    return [(index, projection,
             projection.compile_csr(expansion_rng(seed, index), seed))
            for index, projection in enumerate(network.projections)]


@dataclass
class SimulationResult:
    """Recorded output of a network run.

    ``spikes`` maps a population label to a list of ``(time_ms, neuron)``
    pairs; ``voltages`` maps a label to an array of shape
    ``(n_ticks, n_neurons)``.
    """

    duration_ms: float
    timestep_ms: float
    spikes: Dict[str, List[Tuple[float, int]]] = field(default_factory=dict)
    voltages: Dict[str, np.ndarray] = field(default_factory=dict)
    spike_counts: Dict[str, np.ndarray] = field(default_factory=dict)

    def spike_times(self, label: str, neuron: int) -> List[float]:
        """Spike times (ms) of one neuron in one population."""
        return [t for t, n in self.spikes.get(label, []) if n == neuron]

    def total_spikes(self, label: Optional[str] = None) -> int:
        """Total spikes of one population, or of the whole network."""
        if label is not None:
            return int(self.spike_counts[label].sum())
        return int(sum(counts.sum() for counts in self.spike_counts.values()))

    def mean_rate_hz(self, label: str) -> float:
        """Mean firing rate of a population over the run."""
        counts = self.spike_counts[label]
        seconds = self.duration_ms / 1000.0
        if seconds <= 0:
            return 0.0
        return float(counts.mean() / seconds)


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

        The loop mirrors the on-machine application model: each tick drains
        the deferred-event buffers into the neuron models, integrates the
        membrane equations, collects the spikes and batch-scatters their
        synaptic consequences through each projection's
        :class:`~repro.neuron.engine.CSRMatrix` back into the buffers
        with the programmed delays.
        """
        if duration_ms < 0:
            raise ValueError("duration must be non-negative")
        effective_seed = self.seed if seed is None else seed
        rng = simulation_rng(effective_seed)
        n_ticks = int(round(duration_ms / self.timestep_ms))

        # Build per-population state, input buffers and recording stores.
        states: Dict[str, object] = {}
        buffers: Dict[str, DeferredEventBuffer] = {}
        result = SimulationResult(duration_ms=duration_ms,
                                  timestep_ms=self.timestep_ms)
        for population in self.populations:
            result.spike_counts[population.label] = np.zeros(population.size,
                                                             dtype=int)
            if population.record_spikes:
                result.spikes[population.label] = []
            if population.is_spike_source:
                continue
            states[population.label] = population.build_state(self.timestep_ms,
                                                              rng)
            buffers[population.label] = DeferredEventBuffer(
                population.size, MAX_DELAY_TICKS)
            if population.record_voltages:
                result.voltages[population.label] = np.zeros(
                    (n_ticks, population.size))

        # The expansion artifact is shared with the mapping compiler — see
        # :func:`expand_projections` — so results do not depend on
        # expansion order or on cache hits/misses.
        expanded = [(projection, csr) for _index, projection, csr
                    in expand_projections(self, effective_seed)]

        for tick in range(n_ticks):
            with _TICK_STAGE:
                time_ms = tick * self.timestep_ms
                spikes_this_tick: Dict[str, np.ndarray] = {}

                # Stimulus populations generate their spikes first.
                with _STIMULUS_STAGE:
                    for population in self.populations:
                        if isinstance(population, SpikeSourcePoisson):
                            spikes_this_tick[population.label] = \
                                population.spikes_for_tick(
                                    self.timestep_ms, rng)
                        elif isinstance(population, SpikeSourceArray):
                            spikes_this_tick[population.label] = \
                                population.spikes_for_tick(
                                    tick, self.timestep_ms)

                # Neuron populations: drain deferred inputs and integrate.
                with _NEURON_UPDATE_STAGE:
                    for population in self.populations:
                        if population.is_spike_source:
                            continue
                        state = states[population.label]
                        inputs = buffers[population.label].drain()
                        state.inject_synaptic_input(inputs)
                        bias = None
                        if population.bias_current_na:
                            bias = np.full(population.size,
                                           population.bias_current_na)
                        spikes = state.step(bias)
                        spikes_this_tick[population.label] = spikes
                        if population.record_voltages:
                            result.voltages[population.label][tick] = state.v

                # Record and propagate the spikes.
                with _RECORD_STAGE:
                    for population in self.populations:
                        spikes = spikes_this_tick.get(population.label)
                        if spikes is None:
                            continue
                        spiking_neurons = np.flatnonzero(spikes)
                        if spiking_neurons.size == 0:
                            continue
                        result.spike_counts[population.label][
                            spiking_neurons] += 1
                        if population.record_spikes:
                            result.spikes[population.label].extend(
                                (time_ms, int(neuron))
                                for neuron in spiking_neurons)

                with _PROPAGATE_STAGE:
                    for projection, csr in expanded:
                        pre_spikes = spikes_this_tick.get(
                            projection.pre.label)
                        if pre_spikes is None:
                            continue
                        target_buffer = buffers.get(projection.post.label)
                        if target_buffer is None:
                            continue
                        spiking = np.flatnonzero(pre_spikes)
                        if spiking.size:
                            csr.scatter(spiking, target_buffer)
                        if projection.plasticity is not None:
                            post_spikes = spikes_this_tick.get(
                                projection.post.label)
                            if post_spikes is None:
                                post_spikes = np.zeros(projection.post.size,
                                                       dtype=bool)
                            projection.plasticity.update_csr(
                                csr, pre_spikes, post_spikes, time_ms)

        return result
