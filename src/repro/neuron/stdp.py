"""Spike-timing-dependent plasticity.

Section 5.3 notes that "if the connectivity data is modified, a DMA must be
scheduled to write the changes back into SDRAM" — the write-back path that
exists purely to support synaptic plasticity.  This module provides the
standard additive pair-based STDP rule used by the SpiNNaker software
stack, so that the write-back path and the learning experiments have a real
workload to run.

The rule keeps one exponentially-decaying trace per pre- and per
post-synaptic neuron.  On a pre-synaptic spike each affected synapse is
depressed in proportion to the post-synaptic trace; on a post-synaptic
spike each incoming synapse is potentiated in proportion to the
pre-synaptic trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.neuron.engine import CSRMatrix


@dataclass(frozen=True)
class STDPParameters:
    """Parameters of the additive pair-based STDP rule."""

    tau_plus_ms: float = 20.0
    tau_minus_ms: float = 20.0
    a_plus: float = 0.05
    a_minus: float = 0.06
    w_min: float = 0.0
    w_max: float = 5.0

    def __post_init__(self) -> None:
        if self.tau_plus_ms <= 0 or self.tau_minus_ms <= 0:
            raise ValueError("STDP time constants must be positive")
        if self.w_max < self.w_min:
            raise ValueError("w_max must be at least w_min")


class STDPMechanism:
    """Additive pair-based STDP applied to a projection's synapse rows.

    The mechanism mutates the projection's CSR weight array in place,
    which in the on-machine runtime corresponds to modifying the row in
    DTCM and scheduling the write-back DMA.
    """

    def __init__(self, n_pre: int, n_post: int,
                 parameters: STDPParameters = STDPParameters(),
                 timestep_ms: float = 1.0) -> None:
        if n_pre <= 0 or n_post <= 0:
            raise ValueError("population sizes must be positive")
        self.parameters = parameters
        self.timestep_ms = timestep_ms
        self.pre_trace = np.zeros(n_pre)
        self.post_trace = np.zeros(n_post)
        self._decay_plus = float(np.exp(-timestep_ms / parameters.tau_plus_ms))
        self._decay_minus = float(np.exp(-timestep_ms / parameters.tau_minus_ms))
        self.potentiation_events = 0
        self.depression_events = 0
        self.rows_modified = 0

    def update_csr(self, csr: CSRMatrix, pre_spikes: np.ndarray,
                   post_spikes: np.ndarray, time_ms: float) -> None:
        """Apply one tick of STDP given this tick's pre/post spike masks.

        Mutates ``csr.weights`` in place with gather/scatter operations;
        each synapse sees one scalar IEEE update per rule per tick, and
        ``rows_modified`` counts source rows with at least one changed
        weight (once per rule).
        """
        p = self.parameters
        # Decay the traces first (they represent activity *before* this tick).
        self.pre_trace *= self._decay_plus
        self.post_trace *= self._decay_minus

        pre_indices = np.flatnonzero(pre_spikes)
        post_indices = np.flatnonzero(post_spikes)

        # Depression: pre-synaptic spike reads the post trace.
        if pre_indices.size:
            slots = csr.synapse_slots(pre_indices)
            if slots.size:
                trace = self.post_trace[csr.targets[slots]]
                active = slots[trace > 0.0]
                if active.size:
                    old = csr.weights[active]
                    new = np.maximum(p.w_min,
                                     old - p.a_minus * trace[trace > 0.0])
                    changed = new != old
                    csr.weights[active] = new
                    self.depression_events += int(changed.sum())
                    if changed.any():
                        self.rows_modified += int(np.unique(
                            csr.pre_index[active[changed]]).size)

        # Potentiation: post-synaptic spike reads the pre trace.
        if post_indices.size:
            post_spiked = np.zeros(csr.n_post, dtype=bool)
            post_spiked[post_indices] = True
            trace = self.pre_trace[csr.pre_index]
            candidates = np.flatnonzero(post_spiked[csr.targets]
                                        & (trace > 0.0))
            if candidates.size:
                old = csr.weights[candidates]
                new = np.minimum(p.w_max, old + p.a_plus * trace[candidates])
                changed = new != old
                csr.weights[candidates] = new
                self.potentiation_events += int(changed.sum())
                if changed.any():
                    self.rows_modified += int(np.unique(
                        csr.pre_index[candidates[changed]]).size)

        # Finally the spikes of this tick bump their own traces.
        self.pre_trace[pre_indices] += 1.0
        self.post_trace[post_indices] += 1.0

    def mean_weight(self, csr: CSRMatrix) -> float:
        """Mean synaptic weight across all rows (for the learning benches)."""
        if csr.n_synapses == 0:
            return 0.0
        return float(np.mean(csr.weights))
