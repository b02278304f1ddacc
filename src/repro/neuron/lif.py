"""Leaky integrate-and-fire neurons.

The LIF model is the simplest of the "simplified neuron models the
architecture is optimized for" (Section 1).  The membrane equation

    tau_m * dV/dt = -(V - V_rest) + R_m * I(t)

is integrated with the exponential-Euler step used by the SpiNNaker neural
kernel, once per 1 ms timer tick.  A neuron whose membrane potential
crosses the threshold emits a spike, is reset, and is held refractory for a
fixed number of ticks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class LIFParameters:
    """Parameters of a leaky integrate-and-fire population.

    Attributes
    ----------
    tau_m_ms:
        Membrane time constant.
    v_rest_mv, v_reset_mv, v_threshold_mv:
        Resting, post-spike reset and firing-threshold potentials.
    r_m_mohm:
        Membrane resistance (MOhm); input currents are in nA so
        ``r_m_mohm * i_na`` is in mV.
    tau_refrac_ms:
        Absolute refractory period.
    tau_syn_ms:
        Time constant of the exponential synaptic current kernel.
    """

    tau_m_ms: float = 20.0
    v_rest_mv: float = -65.0
    v_reset_mv: float = -70.0
    v_threshold_mv: float = -50.0
    r_m_mohm: float = 10.0
    tau_refrac_ms: float = 2.0
    tau_syn_ms: float = 5.0

    def __post_init__(self) -> None:
        if self.tau_m_ms <= 0:
            raise ValueError("tau_m_ms must be positive")
        if self.tau_syn_ms <= 0:
            raise ValueError("tau_syn_ms must be positive")
        if self.v_threshold_mv <= self.v_reset_mv:
            raise ValueError("threshold must be above the reset potential")
        if self.tau_refrac_ms < 0:
            raise ValueError("tau_refrac_ms must be non-negative")


def _advance(state, external_current_na: Optional[np.ndarray],
             valid: np.ndarray) -> np.ndarray:
    """One exponential-Euler tick over ``state``'s arrays, in place.

    The model's only update: ``state`` is a
    :class:`~repro.neuron.kernel.StackedBlock` of LIF populations
    (per-neuron arrays ``(n_lanes, width)``, parameters ``(n_lanes, 1)``
    columns).  Every operation is elementwise, and broadcasting a
    parameter column over a row performs the identical IEEE-754 scalar
    operation a Python float does, so every valid cell evolves bit for
    bit like one scalar neuron of its lane's parameters.  ``valid``
    masks the block's padding out of the returned spikes (padding
    receives no input and is never read, so it cannot influence a valid
    cell).

    The voltage is integrated in place, by the IEEE-754 operations of
    ``v_rest + r_m * i`` and ``v_inf + (v - v_inf) * alpha_m`` with some
    operands commuted (which changes no bit), so a caller that keeps a
    tick's ``v`` or ``refractory_ticks_left`` must copy it.  Both resets
    are one ``np.where``: a refractory cell is clamped at reset, below
    threshold (:class:`LIFParameters` checks it), so it cannot fire.
    """
    # Exponential-Euler integration towards the steady-state voltage.
    if external_current_na is None:
        v_infinity = state.synaptic_current * state._r_m
    else:
        v_infinity = state.synaptic_current + external_current_na
        v_infinity *= state._r_m
    v_infinity += state._v_rest
    v = state.v
    v -= v_infinity
    v *= state._alpha_m
    v += v_infinity

    # Refractory neurons are clamped at reset, spiking ones reset.
    left = state.refractory_ticks_left
    reset = left > 0
    spikes = v >= state._v_threshold
    spikes &= valid
    spikes &= ~reset
    reset |= spikes
    state.v = np.where(reset, state._v_reset, v)
    left -= 1
    np.maximum(left, 0, out=left)
    state.refractory_ticks_left = np.where(spikes, state.refractory_ticks,
                                           left)

    # Synaptic current decays after being applied.
    state.synaptic_current *= state._alpha_syn
    return spikes


class LIFPopulation:
    """The initial state and derived parameters of a population of LIF
    neurons: what a :class:`~repro.neuron.kernel.StackedBlock` stacks
    and steps once per timestep (1 ms on the real machine).

    Synaptic input arrives as charge delivered into an exponentially
    decaying synaptic current, matching the "current exponential"
    synapse type of the SpiNNaker software stack.
    """

    #: What a stacked block stacks: the per-neuron arrays and the
    #: per-population scalars :func:`_advance` reads.
    STATE = ("v", "synaptic_current", "refractory_ticks_left")
    PARAMETERS = ("_v_rest", "_v_reset", "_v_threshold", "_r_m",
                  "_alpha_m", "_alpha_syn", "refractory_ticks")
    advance = staticmethod(_advance)

    def __init__(self, size: int, parameters: Optional[LIFParameters] = None,
                 timestep_ms: float = 1.0) -> None:
        if size <= 0:
            raise ValueError("population size must be positive")
        if timestep_ms <= 0:
            raise ValueError("timestep must be positive")
        self.size = size
        self.parameters = parameters or LIFParameters()
        self.timestep_ms = timestep_ms

        p = self.parameters
        self.v = np.full(size, p.v_rest_mv, dtype=float)
        self.synaptic_current = np.zeros(size, dtype=float)
        self.refractory_ticks_left = np.zeros(size, dtype=int)
        self.refractory_ticks = int(round(p.tau_refrac_ms / timestep_ms))

        # What :func:`_advance` reads; the decay factors are computed once.
        self._v_rest = p.v_rest_mv
        self._v_reset = p.v_reset_mv
        self._v_threshold = p.v_threshold_mv
        self._r_m = p.r_m_mohm
        self._alpha_m = float(np.exp(-timestep_ms / p.tau_m_ms))
        self._alpha_syn = float(np.exp(-timestep_ms / p.tau_syn_ms))
