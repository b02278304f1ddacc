"""Unit tests for the LIF and Izhikevich neuron models."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from repro.neuron.izhikevich import IzhikevichParameters, IzhikevichPopulation
from repro.neuron.kernel import StackedBlock
from repro.neuron.lif import LIFParameters, LIFPopulation


class TestLIFParameters:
    def test_defaults_are_consistent(self):
        parameters = LIFParameters()
        assert parameters.v_threshold_mv > parameters.v_reset_mv

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            LIFParameters(v_threshold_mv=-80.0, v_reset_mv=-70.0)

    def test_invalid_time_constants_rejected(self):
        with pytest.raises(ValueError):
            LIFParameters(tau_m_ms=0.0)
        with pytest.raises(ValueError):
            LIFParameters(tau_refrac_ms=-1.0)


def one_lane(state):
    """``state`` stacked alone: the shipped update of one population."""
    return StackedBlock([state])


def step(block, current=None):
    """One tick of a one-lane block under a per-neuron ``current``;
    returns the lane's spikes."""
    if current is not None:
        current = np.reshape(current, (1, -1))
    return block.step(current)[0]


def count_spikes(block, current, ticks):
    """Each neuron's spikes over ``ticks`` ticks of constant drive."""
    return sum(step(block, current).astype(int) for _ in range(ticks))


class TestLIFDynamics:
    def test_quiescent_without_input(self):
        block = one_lane(LIFPopulation(10))
        for _ in range(100):
            spikes = step(block)
            assert not spikes.any()
        assert np.allclose(block.lane_voltages(0), LIFParameters().v_rest_mv)

    def test_strong_constant_current_drives_spiking(self):
        block = one_lane(LIFPopulation(5))
        counts = count_spikes(block, np.full(5, 5.0), 100)
        assert counts.sum() > 0
        assert (counts > 0).all()

    def test_subthreshold_current_never_spikes(self):
        parameters = LIFParameters()
        # Steady state = v_rest + R*I; choose I so that it stays below
        # threshold: (threshold - rest) / R = 1.5 nA, use 1.0 nA.
        block = one_lane(LIFPopulation(5, parameters))
        current = np.full(5, 1.0)
        for _ in range(500):
            assert not step(block, current).any()

    def test_higher_current_gives_higher_rate(self):
        low = count_spikes(one_lane(LIFPopulation(1)), [2.0], 500)
        high = count_spikes(one_lane(LIFPopulation(1)), [4.0], 500)
        assert high[0] > low[0]

    def test_refractory_period_enforced(self):
        parameters = LIFParameters(tau_refrac_ms=5.0)
        block = one_lane(LIFPopulation(1, parameters))
        current = np.array([100.0])
        spike_ticks = []
        for tick in range(50):
            if step(block, current)[0]:
                spike_ticks.append(tick)
        intervals = np.diff(spike_ticks)
        assert (intervals >= 5).all()

    def test_membrane_reset_after_spike(self):
        block = one_lane(LIFPopulation(1))
        current = np.array([100.0])
        fired = False
        for _ in range(20):
            if step(block, current)[0]:
                fired = True
                assert block.lane_voltages(0)[0] == LIFParameters().v_reset_mv
                break
        assert fired

    def test_synaptic_current_decays(self):
        block = one_lane(LIFPopulation(1))
        block.inject_synaptic_input(np.array([[1.0]]))
        step(block)
        first = block.synaptic_current[0, 0]
        step(block)
        assert block.synaptic_current[0, 0] < first

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            LIFPopulation(0)


class TestIzhikevich:
    def test_quiescent_without_input(self):
        block = one_lane(IzhikevichPopulation(5))
        for _ in range(100):
            assert not step(block).any()

    def test_constant_current_produces_spikes(self):
        block = one_lane(IzhikevichPopulation(1))
        assert count_spikes(block, [10.0], 300).sum() > 0

    def test_regular_spiking_slower_than_fast_spiking(self):
        regular = one_lane(IzhikevichPopulation(
            1, IzhikevichParameters.regular_spiking()))
        fast = one_lane(IzhikevichPopulation(
            1, IzhikevichParameters.fast_spiking()))
        assert (count_spikes(fast, [10.0], 500)[0]
                > count_spikes(regular, [10.0], 500)[0])

    def test_reset_after_spike_uses_c_and_d(self):
        parameters = IzhikevichParameters()
        block = one_lane(IzhikevichPopulation(1, parameters))
        fired = False
        for _ in range(200):
            u_before = block.u[0, 0]
            if step(block, [15.0])[0]:
                fired = True
                assert block.v[0, 0] == parameters.c
                assert block.u[0, 0] == pytest.approx(u_before + parameters.d,
                                                       rel=0.2)
                break
        assert fired

    def test_cell_class_presets_differ(self):
        presets = {IzhikevichParameters.regular_spiking(),
                   IzhikevichParameters.fast_spiking(),
                   IzhikevichParameters.chattering(),
                   IzhikevichParameters.intrinsically_bursting()}
        assert len(presets) == 4


class TestModelProperties:
    @given(st.floats(min_value=0.0, max_value=20.0))
    @settings(max_examples=30, deadline=None)
    def test_lif_spike_rate_monotone_in_current(self, current):
        # Firing count must never decrease when the drive increases.
        low = count_spikes(one_lane(LIFPopulation(1)), [current], 200)
        high = count_spikes(one_lane(LIFPopulation(1)), [current + 1.0], 200)
        assert high[0] >= low[0]

    @given(st.integers(min_value=1, max_value=50))
    @settings(max_examples=20, deadline=None)
    def test_population_sizes_respected(self, size):
        spikes = step(one_lane(LIFPopulation(size)), np.zeros(size))
        assert spikes.shape == (size,)


class TestStackedBlocks:
    """A ``StackedBlock`` steps many populations of a model at once;
    every valid cell must evolve bit for bit like one scalar oracle
    neuron of its lane's parameters, whatever is stacked beside it —
    the property the tick kernel's agreement across engines rests on."""

    SIZES = (7, 32, 1, 19)      # ragged: every lane but one is padded

    @staticmethod
    def drive(build, scalar_cls):
        """A block over ragged populations plus one scalar oracle neuron
        per cell; 200 ticks of random synaptic charge plus a per-lane
        bias (absent on some lanes, as for a population without
        ``bias_current_na``)."""
        sizes = TestStackedBlocks.SIZES
        states = [build(lane, size) for lane, size in enumerate(sizes)]
        scalars = [[scalar_cls(state.parameters, state.timestep_ms)
                    for _ in range(state.size)] for state in states]
        block = StackedBlock(states)
        assert (block.n_lanes, block.width) == (len(sizes), max(sizes))
        lane_bias = [0.0, 0.35, 1.1, 0.0]
        bias = np.zeros((block.n_lanes, block.width))
        for lane, size in enumerate(sizes):
            bias[lane, :size] = lane_bias[lane]
        rng = np.random.default_rng(17)
        total_spikes = 0
        for _ in range(200):
            # Fixed-point charge, as the ring buffers deliver it.
            charge = rng.integers(-24, 64, size=bias.shape) / 16.0
            charge[~block.valid] = 0.0
            block.inject_synaptic_input(charge)
            grid = block.step(bias)
            assert not grid[~block.valid].any()
            for lane, size in enumerate(sizes):
                literal = [neuron.step(float(charge[lane, cell]),
                                       lane_bias[lane])
                           for cell, neuron in enumerate(scalars[lane])]
                assert literal == grid[lane, :size].tolist()
                assert [neuron.v for neuron in scalars[lane]] \
                    == block.lane_voltages(lane).tolist()
                total_spikes += sum(literal)
        assert total_spikes > 0

    def test_lif_block_matches_per_population_steps(self):
        parameters = [LIFParameters(),
                      LIFParameters(tau_m_ms=12.0, v_threshold_mv=-52.0),
                      LIFParameters(tau_refrac_ms=0.0, r_m_mohm=14.0),
                      LIFParameters(tau_syn_ms=2.5, v_reset_mv=-68.0,
                                    tau_refrac_ms=4.0)]
        self.drive(lambda lane, size: LIFPopulation(size, parameters[lane]),
                   oracles.ScalarLIF)

    def test_izhikevich_block_matches_per_population_steps(self):
        parameters = [IzhikevichParameters.regular_spiking(),
                      IzhikevichParameters.fast_spiking(),
                      IzhikevichParameters.chattering(),
                      IzhikevichParameters(a=0.03, b=0.25, c=-60.0, d=4.0)]
        self.drive(lambda lane, size: IzhikevichPopulation(
            size, parameters[lane]), oracles.ScalarIzhikevich)
