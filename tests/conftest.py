"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.machine import MachineConfig, SpiNNakerMachine
from repro.neuron.connectors import FixedProbabilityConnector
from repro.neuron.network import Network
from repro.neuron.population import Population, SpikeSourcePoisson
from repro.runtime.boot import BootController


def pytest_addoption(parser):
    parser.addoption(
        "--update-answers", action="store_true", default=False,
        help="rewrite tests/answers.json from the current code instead "
             "of comparing against it")


@pytest.fixture
def small_machine() -> SpiNNakerMachine:
    """A 3x3 machine with 4 cores per chip (fast to build and run)."""
    return SpiNNakerMachine(MachineConfig(width=3, height=3, cores_per_chip=4))


@pytest.fixture
def medium_machine() -> SpiNNakerMachine:
    """A 4x4 machine with 6 cores per chip."""
    return SpiNNakerMachine(MachineConfig(width=4, height=4, cores_per_chip=6))


@pytest.fixture
def booted_machine() -> SpiNNakerMachine:
    """A 4x4 machine that has completed the fault-free boot sequence."""
    machine = SpiNNakerMachine(MachineConfig(width=4, height=4, cores_per_chip=6))
    BootController(machine, seed=0).boot()
    return machine


@pytest.fixture
def small_network() -> Network:
    """A small stimulus-driven network used by mapping and runtime tests."""
    network = Network(seed=11)
    stimulus = SpikeSourcePoisson(40, rate_hz=60.0, label="stimulus")
    excitatory = Population(80, "lif", label="excitatory")
    excitatory.record(spikes=True)
    network.connect(stimulus, excitatory,
                    FixedProbabilityConnector(p_connect=0.2, weight=0.6,
                                              delay_range=(1, 4)))
    network.connect(excitatory, excitatory,
                    FixedProbabilityConnector(p_connect=0.05, weight=0.2))
    return network


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic NumPy generator."""
    return np.random.default_rng(12345)
