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
             valid: np.ndarray) -> np.ndarray:
    """One tick over ``state``'s arrays, in place.

    The model's only update: ``state`` is a
    :class:`~repro.neuron.kernel.StackedBlock` of Izhikevich populations
    (per-neuron arrays ``(n_lanes, width)``, parameters ``(n_lanes, 1)``
    columns).  Integration uses half-steps of 0.5 ms for the membrane
    equation (the scheme used by both Izhikevich's reference code and
    the SpiNNaker kernel) to keep the quadratic term stable.  Every
    operation is elementwise, so every valid cell evolves bit for bit
    like one scalar neuron of its lane's parameters.  The quadratic
    equation has no stable rest point, so the block's padding (``valid``
    false) is masked out of the spikes and re-clamped to its lane's
    reset state instead of being allowed to diverge.
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

    spikes = (v >= state._v_peak) & valid
    v = np.where(spikes, state._c, v)
    u = np.where(spikes, u + state._d, u)
    v = np.where(valid, v, state._c)
    u = np.where(valid, u, state._b * state._c)

    state.v, state.u = v, u
    state.synaptic_current[:] = 0.0
    return spikes


class IzhikevichPopulation:
    """The initial state and parameters of a population of Izhikevich
    neurons: what a :class:`~repro.neuron.kernel.StackedBlock` stacks
    and steps."""

    #: What a stacked block stacks: the per-neuron arrays and the
    #: per-population scalars :func:`_advance` reads.
    STATE = ("v", "u", "synaptic_current")
    PARAMETERS = ("_a", "_b", "_c", "_d", "_v_peak")
    advance = staticmethod(_advance)

    def __init__(self, size: int,
                 parameters: Optional[IzhikevichParameters] = None,
                 timestep_ms: float = 1.0) -> None:
        if size <= 0:
            raise ValueError("population size must be positive")
        if timestep_ms <= 0:
            raise ValueError("timestep must be positive")
        self.size = size
        self.parameters = parameters or IzhikevichParameters()
        self.timestep_ms = timestep_ms

        p = self.parameters
        self._a, self._b, self._c, self._d = p.a, p.b, p.c, p.d
        self._v_peak = p.v_peak_mv
        self.v = np.full(size, p.c, dtype=float)
        self.u = p.b * self.v
        self.synaptic_current = np.zeros(size, dtype=float)
