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


class TestLIFDynamics:
    def test_quiescent_without_input(self):
        population = LIFPopulation(10)
        for _ in range(100):
            spikes = population.step()
            assert not spikes.any()
        assert np.allclose(population.v, LIFParameters().v_rest_mv)

    def test_strong_constant_current_drives_spiking(self):
        population = LIFPopulation(5)
        current = np.full(5, 5.0)
        total = 0
        for _ in range(100):
            total += int(population.step(current).sum())
        assert total > 0
        assert (population.spike_count > 0).all()

    def test_subthreshold_current_never_spikes(self):
        parameters = LIFParameters()
        # Steady state = v_rest + R*I; choose I so that it stays below
        # threshold: (threshold - rest) / R = 1.5 nA, use 1.0 nA.
        population = LIFPopulation(5, parameters)
        current = np.full(5, 1.0)
        for _ in range(500):
            assert not population.step(current).any()

    def test_higher_current_gives_higher_rate(self):
        low = LIFPopulation(1)
        high = LIFPopulation(1)
        for _ in range(500):
            low.step(np.array([2.0]))
            high.step(np.array([4.0]))
        assert high.spike_count[0] > low.spike_count[0]

    def test_refractory_period_enforced(self):
        parameters = LIFParameters(tau_refrac_ms=5.0)
        population = LIFPopulation(1, parameters)
        current = np.array([100.0])
        spike_ticks = []
        for tick in range(50):
            if population.step(current)[0]:
                spike_ticks.append(tick)
        intervals = np.diff(spike_ticks)
        assert (intervals >= 5).all()

    def test_membrane_reset_after_spike(self):
        population = LIFPopulation(1)
        current = np.array([100.0])
        fired = False
        for _ in range(20):
            if population.step(current)[0]:
                fired = True
                assert population.v[0] == LIFParameters().v_reset_mv
                break
        assert fired

    def test_synaptic_input_shape_checked(self):
        population = LIFPopulation(4)
        with pytest.raises(ValueError):
            population.inject_synaptic_input(np.zeros(3))

    def test_synaptic_current_decays(self):
        population = LIFPopulation(1)
        population.inject_synaptic_input(np.array([1.0]))
        population.step()
        first = population.synaptic_current[0]
        population.step()
        assert population.synaptic_current[0] < first

    def test_reset_restores_initial_state(self):
        population = LIFPopulation(3)
        population.step(np.full(3, 10.0))
        population.reset()
        assert np.allclose(population.v, LIFParameters().v_rest_mv)
        assert population.spike_count.sum() == 0

    def test_randomise_membrane_stays_in_range(self):
        population = LIFPopulation(100, rng=np.random.default_rng(1))
        population.randomise_membrane()
        parameters = LIFParameters()
        assert (population.v >= parameters.v_reset_mv).all()
        assert (population.v <= parameters.v_threshold_mv).all()

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            LIFPopulation(0)


class TestIzhikevich:
    def test_quiescent_without_input(self):
        population = IzhikevichPopulation(5)
        for _ in range(100):
            assert not population.step().any()

    def test_constant_current_produces_spikes(self):
        population = IzhikevichPopulation(1)
        total = 0
        for _ in range(300):
            total += int(population.step(np.array([10.0])).sum())
        assert total > 0

    def test_regular_spiking_slower_than_fast_spiking(self):
        regular = IzhikevichPopulation(1, IzhikevichParameters.regular_spiking())
        fast = IzhikevichPopulation(1, IzhikevichParameters.fast_spiking())
        current = np.array([10.0])
        for _ in range(500):
            regular.step(current)
            fast.step(current)
        assert fast.spike_count[0] > regular.spike_count[0]

    def test_reset_after_spike_uses_c_and_d(self):
        parameters = IzhikevichParameters()
        population = IzhikevichPopulation(1, parameters)
        fired = False
        for _ in range(200):
            u_before = population.u[0]
            if population.step(np.array([15.0]))[0]:
                fired = True
                assert population.v[0] == parameters.c
                assert population.u[0] == pytest.approx(u_before + parameters.d,
                                                        rel=0.2)
                break
        assert fired

    def test_cell_class_presets_differ(self):
        presets = {IzhikevichParameters.regular_spiking(),
                   IzhikevichParameters.fast_spiking(),
                   IzhikevichParameters.chattering(),
                   IzhikevichParameters.intrinsically_bursting()}
        assert len(presets) == 4

    def test_reset_restores_quiescence(self):
        population = IzhikevichPopulation(2)
        for _ in range(50):
            population.step(np.full(2, 10.0))
        population.reset()
        assert population.spike_count.sum() == 0
        assert not population.step().any()

    def test_input_shape_checked(self):
        population = IzhikevichPopulation(3)
        with pytest.raises(ValueError):
            population.inject_synaptic_input(np.zeros(5))


class TestModelProperties:
    @given(st.floats(min_value=0.0, max_value=20.0))
    @settings(max_examples=30, deadline=None)
    def test_lif_spike_rate_monotone_in_current(self, current):
        # Firing count must never decrease when the drive increases.
        low = LIFPopulation(1)
        high = LIFPopulation(1)
        for _ in range(200):
            low.step(np.array([current]))
            high.step(np.array([current + 1.0]))
        assert high.spike_count[0] >= low.spike_count[0]

    @given(st.integers(min_value=1, max_value=50))
    @settings(max_examples=20, deadline=None)
    def test_population_sizes_respected(self, size):
        population = LIFPopulation(size)
        spikes = population.step(np.zeros(size))
        assert spikes.shape == (size,)


class TestStackedBlocks:
    """A ``StackedBlock`` steps many populations of a model at once;
    every valid cell must evolve bit for bit like the population it was
    stacked from — the property the tick kernel's agreement across
    engines rests on.  A model's population and block share one array
    update, so both are also pinned to the per-neuron scalar oracle."""

    SIZES = (7, 32, 1, 19)      # ragged: every lane but one is padded

    @staticmethod
    def drive(build, scalar_cls):
        """Two identical sets of populations, one stacked, plus one
        scalar oracle neuron per cell; 200 ticks of random synaptic
        charge plus a per-lane bias (absent on some lanes, as for a
        population without ``bias_current_na``)."""
        sizes = TestStackedBlocks.SIZES
        singles = [build(lane, size) for lane, size in enumerate(sizes)]
        scalars = [[scalar_cls(state.parameters, state.timestep_ms)
                    for _ in range(state.size)] for state in singles]
        block = StackedBlock([build(lane, size)
                              for lane, size in enumerate(sizes)])
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
            for lane, (state, size) in enumerate(zip(singles, sizes)):
                state.inject_synaptic_input(charge[lane, :size])
                spikes = state.step(np.full(size, lane_bias[lane])
                                    if lane_bias[lane] else None)
                assert np.array_equal(grid[lane, :size], spikes)
                assert np.array_equal(block.lane_voltages(lane), state.v)
                literal = [neuron.step(float(charge[lane, cell]),
                                       lane_bias[lane])
                           for cell, neuron in enumerate(scalars[lane])]
                assert literal == spikes.tolist()
                assert [neuron.v for neuron in scalars[lane]] \
                    == state.v.tolist()
                total_spikes += int(spikes.sum())
        assert total_spikes > 0

    def test_lif_block_matches_per_population_steps(self):
        parameters = [LIFParameters(),
                      LIFParameters(tau_m_ms=12.0, v_threshold_mv=-52.0),
                      LIFParameters(tau_refrac_ms=0.0, r_m_mohm=14.0),
                      LIFParameters(tau_syn_ms=2.5, v_reset_mv=-68.0,
                                    tau_refrac_ms=4.0)]
        self.drive(lambda lane, size: LIFPopulation(
            size, parameters[lane], 1.0, np.random.default_rng(100 + lane)),
            oracles.ScalarLIF)

    def test_izhikevich_block_matches_per_population_steps(self):
        parameters = [IzhikevichParameters.regular_spiking(),
                      IzhikevichParameters.fast_spiking(),
                      IzhikevichParameters.chattering(),
                      IzhikevichParameters(a=0.03, b=0.25, c=-60.0, d=4.0)]
        self.drive(lambda lane, size: IzhikevichPopulation(
            size, parameters[lane], 1.0, np.random.default_rng(200 + lane)),
            oracles.ScalarIzhikevich)
