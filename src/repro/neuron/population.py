"""Populations, spike sources and projections (the network-description API).

The user-facing model-description layer is deliberately PyNN-flavoured —
the paper's stated goal is a machine "ready for use by neuroscientists and
psychologists who do not wish to have to contend with concurrency issues at
any level below the neurological model" (Section 6).  A network is a set of
:class:`Population` objects (neuron groups or spike sources) joined by
:class:`Projection` objects (a connector plus synapse parameters); the
mapping layer then places it on the machine and the runtime executes it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.neuron.connectors import Connector
from repro.neuron.engine import CSRMatrix
from repro.neuron.izhikevich import IzhikevichParameters, IzhikevichPopulation
from repro.neuron.lif import LIFParameters, LIFPopulation

_population_counter = itertools.count()

#: Stream-split constant mixed into the connectivity-expansion generator so
#: its draws are statistically independent of the simulation generator
#: seeded with the same value.
_EXPANSION_STREAM = 0x5EED

#: Stream-split constant for the per-core generators of the on-machine
#: runtime (neuron-state initialisation, Poisson stimulus draws, timer
#: stagger), keeping them independent of both the expansion stream and
#: the host simulator's ``default_rng(seed)``.
_CORE_STREAM = 0xC04E


def core_rng(seed: Optional[int], chip_x: int, chip_y: int, core_id: int,
             stream: int = 0) -> np.random.Generator:
    """The generator of the application core at ``(chip_x, chip_y, core_id)``.

    Derived purely from the seed and the core's physical location (the
    same seed-sequence mechanism as :func:`expansion_rng`), so per-core
    randomness does not depend on the order in which the mapping layer
    happens to iterate over placements — any two tool-chains that put a
    vertex on the same core give it the same stream.  ``stream``
    separates independent uses at one core (0 = neuron state / stimulus,
    1 = timer stagger).
    """
    if seed is None:
        return np.random.default_rng()
    return np.random.default_rng(
        [_CORE_STREAM, stream, chip_x, chip_y, core_id, seed])


def simulation_rng(seed: Optional[int]) -> np.random.Generator:
    """The host-side simulation/workload stream for ``seed``.

    Exactly ``np.random.default_rng(seed)`` — the stream that drives
    membrane initialisation, stimulus draws and host-side workloads,
    decorrelated from :func:`expansion_rng` and :func:`core_rng` by
    their stream-split constants.  A sanctioned seam: shipped
    code constructs generators only here (``repro.checks`` enforces
    it), so every stream stays pinned to the run's seed and audits of
    "where does randomness enter?" have one module to read.  Passing
    ``None`` explicitly opts out of determinism, exactly like the other
    seams.
    """
    return np.random.default_rng(seed)


def expansion_rng(seed: Optional[int],
                  projection_index: int = 0) -> np.random.Generator:
    """The generator every layer uses to expand connectivity for ``seed``.

    Each projection gets its own stream, keyed by its position in the
    network's projection list, so a network expanded anywhere — host
    simulator, synaptic-matrix builder, routing generator, in any order —
    yields the same synapses for the same seed, while staying
    decorrelated from the simulation stream (``default_rng(seed)``) that
    drives membrane initialisation and Poisson stimuli.
    """
    if seed is None:
        return np.random.default_rng()
    return np.random.default_rng([_EXPANSION_STREAM, projection_index, seed])


def tile_rng(root_key: Tuple[int, ...], src_tile: int, tgt_tile: int,
             quantity: int) -> np.random.Generator:
    """The ``quantity`` stream (cells, weights or delays) of one tile of
    a keyed expansion, seeded by the root key a connector draws from
    :func:`expansion_rng` and the tile's coordinates alone.  Entropy as
    32-bit words: the tuple's stream at half the cost."""
    return np.random.default_rng(np.array(
        root_key + (src_tile, tgt_tile, quantity), dtype=np.uint32))


class Population:
    """A homogeneous group of neurons described by one model and parameter set.

    Parameters
    ----------
    size:
        Number of neurons.
    model:
        ``"lif"`` or ``"izhikevich"``, or an explicit parameters object
        (:class:`LIFParameters` / :class:`IzhikevichParameters`).
    label:
        Optional human-readable name; an automatic one is generated when
        omitted.
    """

    def __init__(self, size: int,
                 model: Union[str, LIFParameters, IzhikevichParameters] = "lif",
                 label: Optional[str] = None) -> None:
        if size <= 0:
            raise ValueError("population size must be positive")
        self.size = size
        self.label = label or "population-%d" % next(_population_counter)
        if isinstance(model, str):
            if model == "lif":
                self.model_name = "lif"
                self.parameters: Union[LIFParameters, IzhikevichParameters] = LIFParameters()
            elif model == "izhikevich":
                self.model_name = "izhikevich"
                self.parameters = IzhikevichParameters()
            else:
                raise ValueError("unknown neuron model %r" % (model,))
        elif isinstance(model, LIFParameters):
            self.model_name = "lif"
            self.parameters = model
        elif isinstance(model, IzhikevichParameters):
            self.model_name = "izhikevich"
            self.parameters = model
        else:
            raise TypeError("model must be a name or a parameters object")
        self.record_spikes = False
        self.record_voltages = False
        #: External bias current per neuron (nA), applied every tick.
        self.bias_current_na = 0.0

    # ------------------------------------------------------------------
    def record(self, spikes: bool = True, voltages: bool = False) -> None:
        """Request recording of spikes and/or membrane voltages."""
        self.record_spikes = spikes
        self.record_voltages = voltages

    def build_state(self, timestep_ms: float
                    ) -> Union[LIFPopulation, IzhikevichPopulation]:
        """This population's initial state and derived parameters."""
        if self.model_name == "lif":
            return LIFPopulation(self.size, self.parameters, timestep_ms)
        return IzhikevichPopulation(self.size, self.parameters, timestep_ms)

    @property
    def is_spike_source(self) -> bool:
        """True for stimulus populations that generate rather than integrate."""
        return False

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "Population(%r, size=%d, model=%s)" % (self.label, self.size,
                                                      self.model_name)


class SpikeSourcePoisson(Population):
    """A stimulus population emitting independent Poisson spike trains."""

    def __init__(self, size: int, rate_hz: float,
                 label: Optional[str] = None) -> None:
        if rate_hz < 0:
            raise ValueError("rate must be non-negative")
        super().__init__(size, model="lif", label=label)
        self.model_name = "poisson-source"
        self.rate_hz = rate_hz

    @property
    def is_spike_source(self) -> bool:
        return True

    @staticmethod
    def spike_probability(rate_hz: float, timestep_ms: float) -> float:
        """Probability of at least one spike in one tick of a Poisson train.

        ``1 - exp(-rate * dt)`` rather than the naive ``rate * dt``, which
        is not a probability for rates above ``1 / dt`` (1 kHz at the 1 ms
        tick) and overestimates the rate well below that.
        """
        return float(-np.expm1(-rate_hz * timestep_ms / 1000.0))

    def spikes_for_tick(self, timestep_ms: float,
                        rng: np.random.Generator) -> np.ndarray:
        """Sample this tick's spike mask."""
        probability = self.spike_probability(self.rate_hz, timestep_ms)
        return rng.random(self.size) < probability


class SpikeSourceArray(Population):
    """A stimulus population replaying explicit spike times (ms) per neuron."""

    def __init__(self, spike_times_ms: Sequence[Sequence[float]],
                 label: Optional[str] = None) -> None:
        super().__init__(len(spike_times_ms), model="lif", label=label)
        self.model_name = "array-source"
        self.spike_times_ms = [sorted(times) for times in spike_times_ms]

    @property
    def is_spike_source(self) -> bool:
        return True

    def spikes_for_tick(self, tick: int, timestep_ms: float) -> np.ndarray:
        """Spike mask for the tick covering ``[tick*dt, (tick+1)*dt)``."""
        start = tick * timestep_ms
        end = start + timestep_ms
        mask = np.zeros(self.size, dtype=bool)
        for neuron, times in enumerate(self.spike_times_ms):
            for t in times:
                if start <= t < end:
                    mask[neuron] = True
                    break
        return mask


def stimulus_spikes(population: Population, slice_start: int,
                    slice_stop: int, first_tick: int, n_ticks: int,
                    timestep_ms: float, rng: np.random.Generator
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """The spikes of one core's slice of a stimulus population over
    ``n_ticks`` ticks from ``first_tick`` on, as ``(tick offsets,
    slice-local indices)`` in tick order, indices ascending within a
    tick.

    ``rng`` is the owning core's generator (:func:`core_rng`): a Poisson
    slice draws its whole block in one ``random((n_ticks, n))`` call, the
    same stream as one ``random(n)`` per tick, so the spikes depend only
    on the seed, the core's location and the tick count.
    """
    if isinstance(population, SpikeSourcePoisson):
        probability = SpikeSourcePoisson.spike_probability(
            population.rate_hz, timestep_ms)
        fired = rng.random((n_ticks, slice_stop - slice_start)) < probability
    else:
        fired = np.array([population.spikes_for_tick(tick, timestep_ms)[
            slice_start:slice_stop]
            for tick in range(first_tick, first_tick + n_ticks)])
    return np.nonzero(fired)


@dataclass
class Projection:
    """A bundle of synapses from one population to another.

    The connector is expanded lazily (per simulation / per mapping) so the
    same network description can be instantiated with different seeds.
    Expansions are cached **per seed**: running the same network with
    ``seed=A`` and then ``seed=B`` builds two independent connectivities
    instead of silently reusing the first seed's synapses.
    """

    pre: Population
    post: Population
    connector: Connector
    label: Optional[str] = None
    #: Optional plasticity mechanism (see :mod:`repro.neuron.stdp`).
    plasticity: Optional[object] = None
    #: Per-seed expansion cache.
    _csr_cache: Dict[object, CSRMatrix] = field(
        default_factory=dict, repr=False, compare=False)

    def compile_csr(self, seed: Optional[int], index: int) -> CSRMatrix:
        """The projection's connectivity under ``seed`` (expanded once).

        ``seed`` is the cache key and ``index`` is the projection's
        position in its network: a cache miss expands the connector with
        :func:`expansion_rng` for that pair (and :func:`tile_rng` per
        tile), a hit builds no generator at all.  ``None`` keys the one
        unseeded expansion.

        The returned matrix is the cache entry itself: plasticity
        mutates its weight array in place, and that is the learned state
        every later consumer of the seed sees.
        """
        csr = self._csr_cache.get(seed)
        if csr is None:
            csr = self._csr_cache[seed] = self.connector.build_csr(
                self.pre.size, self.post.size, expansion_rng(seed, index))
        return csr
