"""Run-time functional migration (paper abstract, Sections 2.2 and 3.2).

The abstract promises "run-time support for functional migration and
real-time fault mitigation".  Because logical and physical connectivity are
decoupled (virtualised topology), the work running on a suspect core can be
moved to a spare core — same routing keys, new multicast trees — and the
simulation simply resumed.

This example maps a network, runs it for a while, declares one whole chip
suspect (as a monitor processor would after repeated fault reports),
migrates everything off it, and keeps running, reporting the firing rates
before and after so the hand-over is visible end to end.

Run with::

    python examples/functional_migration.py
"""

from __future__ import annotations

from repro.core.machine import MachineConfig, SpiNNakerMachine
from repro.neuron.connectors import FixedProbabilityConnector
from repro.neuron.network import Network
from repro.neuron.population import Population, SpikeSourcePoisson
from repro.runtime.application import NeuralApplication
from repro.runtime.boot import BootController
from repro.runtime.migration import FunctionalMigrator

PHASE_MS = 150.0
NEURONS = 120


def build_network(seed: int = 37) -> Network:
    """A stimulus-driven excitatory population with recurrent connections."""
    network = Network(seed=seed)
    stimulus = SpikeSourcePoisson(NEURONS, rate_hz=70.0, label="stimulus")
    excitatory = Population(NEURONS, "lif", label="excitatory")
    excitatory.record(spikes=True)
    network.connect(stimulus, excitatory,
                    FixedProbabilityConnector(p_connect=0.15, weight=0.7,
                                              delay_range=(1, 4)))
    network.connect(excitatory, excitatory,
                    FixedProbabilityConnector(p_connect=0.05, weight=0.15))
    return network


def main() -> None:
    machine = SpiNNakerMachine(MachineConfig(width=3, height=3,
                                             cores_per_chip=8))
    BootController(machine, seed=2).boot()

    application = NeuralApplication(machine, build_network(),
                                    max_neurons_per_core=12, seed=37)
    application.prepare()

    first = application.run(PHASE_MS)
    spikes_phase_one = first.total_spikes("excitatory")
    rate_before = spikes_phase_one / (PHASE_MS / 1000.0) / NEURONS
    print("Phase 1 (%.0f ms): %d spikes, mean rate %.1f Hz"
          % (PHASE_MS, spikes_phase_one, rate_before))

    migrator = FunctionalMigrator(application)
    suspect_chip = next(iter(migrator.occupied_slots()))[0]
    occupied_on_chip = sum(1 for (chip, _core) in migrator.occupied_slots()
                           if chip == suspect_chip)
    print("\nChip %s is suspected faulty (%d vertices on it); evacuating..."
          % (suspect_chip, occupied_on_chip))
    report = migrator.evacuate_chip(suspect_chip)
    print("  vertices moved:        %d" % report.n_moves)
    print("  cores mapped out:      %d" % len(report.cores_mapped_out))
    print("  routing entries:       %d -> %d"
          % (report.routing_entries_before, report.routing_entries_after))
    print("  core runtimes rebuilt: %d" % report.runtimes_rebuilt)
    for vertex, old_slot, new_slot in report.moves[:5]:
        print("    %s  %s core %d  ->  %s core %d"
              % (vertex, old_slot[0], old_slot[1], new_slot[0], new_slot[1]))
    if report.n_moves > 5:
        print("    ... and %d more" % (report.n_moves - 5))

    # run() accumulates into the same ApplicationResult, so take the delta
    # against the phase-1 count to isolate the post-migration activity.
    second = application.run(PHASE_MS)
    spikes_after = second.total_spikes("excitatory") - spikes_phase_one
    rate_after = spikes_after / (PHASE_MS / 1000.0) / NEURONS
    print("\nPhase 2 (%.0f ms, after migration): %d spikes, mean rate %.1f Hz"
          % (PHASE_MS, spikes_after, rate_after))
    print("Dropped packets across both phases: %d" % second.packets_dropped)

    still_there = [slot for slot in migrator.occupied_slots()
                   if slot[0] == suspect_chip]
    print("Vertices still on the suspect chip: %d" % len(still_there))
    print("\nThe routing keys never changed — only the tables and the "
          "synaptic data followed the neurons to their new cores, which is "
          "what the virtualised-topology principle buys.")


if __name__ == "__main__":
    main()
