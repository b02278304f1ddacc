"""Izhikevich neurons.

The Izhikevich model is the workhorse of the SpiNNaker software stack: it
reproduces a wide range of cortical firing patterns from two coupled
first-order equations,

    dv/dt = 0.04 v^2 + 5 v + 140 - u + I
    du/dt = a (b v - u)

with the after-spike reset ``v <- c, u <- u + d``.  It is cheap enough to
integrate on an embedded core once per millisecond, which is exactly the
design point of the architecture (Section 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class IzhikevichParameters:
    """The four Izhikevich parameters plus the spike cutoff voltage."""

    a: float = 0.02
    b: float = 0.2
    c: float = -65.0
    d: float = 8.0
    v_peak_mv: float = 30.0

    @classmethod
    def regular_spiking(cls) -> "IzhikevichParameters":
        """Cortical regular-spiking (excitatory) cell."""
        return cls(a=0.02, b=0.2, c=-65.0, d=8.0)

    @classmethod
    def fast_spiking(cls) -> "IzhikevichParameters":
        """Cortical fast-spiking (inhibitory) cell."""
        return cls(a=0.1, b=0.2, c=-65.0, d=2.0)

    @classmethod
    def chattering(cls) -> "IzhikevichParameters":
        """Chattering (bursting) cell."""
        return cls(a=0.02, b=0.2, c=-50.0, d=2.0)

    @classmethod
    def intrinsically_bursting(cls) -> "IzhikevichParameters":
        """Intrinsically-bursting cell."""
        return cls(a=0.02, b=0.2, c=-55.0, d=4.0)


def _advance(state, external_current_na: Optional[np.ndarray],
             valid: Optional[np.ndarray] = None) -> np.ndarray:
    """One tick over ``state``'s arrays, in place.

    The model's only update: ``state`` is a 1-D
    :class:`IzhikevichPopulation` (parameters as Python floats) or a
    :class:`~repro.neuron.kernel.StackedBlock` of them (``(n_lanes, 1)``
    parameter columns).  Integration uses half-steps of 0.5 ms for the membrane
    equation (the scheme used by both Izhikevich's reference code and
    the SpiNNaker kernel) to keep the quadratic term stable.  Every
    operation is elementwise, so a block's valid cells evolve
    bit-for-bit like the populations they were stacked from.  The
    quadratic equation has no stable rest point, so a block's padding
    (``valid`` false) is masked out of the spikes and re-clamped to its
    lane's reset state instead of being allowed to diverge.
    """
    i_total = state.synaptic_current.copy()
    if external_current_na is not None:
        i_total = i_total + external_current_na

    n_substeps = max(1, int(round(state.timestep_ms / 0.5)))
    dt = state.timestep_ms / n_substeps
    v, u = state.v, state.u
    for _ in range(n_substeps):
        v = v + dt * (0.04 * v * v + 5.0 * v + 140.0 - u + i_total)
        u = u + dt * (state._a * (state._b * v - u))

    spikes = v >= state._v_peak
    if valid is not None:
        spikes &= valid
    v = np.where(spikes, state._c, v)
    u = np.where(spikes, u + state._d, u)
    if valid is not None:
        v = np.where(valid, v, state._c)
        u = np.where(valid, u, state._b * state._c)

    state.v, state.u = v, u
    state.synaptic_current[:] = 0.0
    return spikes


class IzhikevichPopulation:
    """State of a population of Izhikevich neurons (1-D arrays)."""

    #: What a stacked block stacks: the per-neuron arrays and the
    #: per-population scalars :func:`_advance` reads.
    STATE = ("v", "u", "synaptic_current")
    PARAMETERS = ("_a", "_b", "_c", "_d", "_v_peak")
    advance = staticmethod(_advance)

    def __init__(self, size: int,
                 parameters: Optional[IzhikevichParameters] = None,
                 timestep_ms: float = 1.0,
                 rng: Optional[np.random.Generator] = None) -> None:
        if size <= 0:
            raise ValueError("population size must be positive")
        if timestep_ms <= 0:
            raise ValueError("timestep must be positive")
        self.size = size
        self.parameters = parameters or IzhikevichParameters()
        self.timestep_ms = timestep_ms
        # Deferred import: population.py imports this module at load time.
        from repro.neuron.population import simulation_rng
        self._rng = rng or simulation_rng(None)

        p = self.parameters
        self._a, self._b, self._c, self._d = p.a, p.b, p.c, p.d
        self._v_peak = p.v_peak_mv
        self.v = np.full(size, p.c, dtype=float)
        self.u = p.b * self.v
        self.synaptic_current = np.zeros(size, dtype=float)
        self.spike_count = np.zeros(size, dtype=int)

    def randomise_membrane(self) -> None:
        """Scatter the initial membrane state to desynchronise the network."""
        p = self.parameters
        self.v = self._rng.uniform(p.c, -50.0, self.size)
        self.u = p.b * self.v

    def inject_synaptic_input(self, charge_na: np.ndarray) -> None:
        """Add synaptic input (one value per neuron) for the current tick."""
        if charge_na.shape != (self.size,):
            raise ValueError("expected input of shape (%d,), got %s"
                             % (self.size, charge_na.shape))
        self.synaptic_current += charge_na

    def step(self, external_current_na: Optional[np.ndarray] = None) -> np.ndarray:
        """Advance every neuron by one timestep; return the spike mask."""
        spikes = _advance(self, external_current_na)
        self.spike_count += spikes.astype(int)
        return spikes

    def reset(self) -> None:
        """Return the population to its initial quiescent state."""
        p = self.parameters
        self.v[:] = p.c
        self.u = p.b * self.v
        self.synaptic_current[:] = 0.0
        self.spike_count[:] = 0
