"""The Ethernet-attached host system (Figure 1, Section 5.2).

The host reaches the machine through one or more Ethernet-attached chips;
all other chips are reached by tunnelling SDP-style messages over p2p
packets via chip (0, 0).  The host model supports the management operations
the paper describes: querying chip and core status after boot, reading
router diagnostics, and injecting stimulus spikes into the fabric.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional

from repro.core.geometry import ChipCoordinate
from repro.core.machine import SpiNNakerMachine
from repro.core.packets import MulticastPacket

#: Latency of the Ethernet + frame-handling path between the host and its
#: attached chip, in microseconds.
DEFAULT_ETHERNET_LATENCY_US = 50.0

_sequence = itertools.count()


class HostCommand(Enum):
    """Management commands the host can issue."""

    QUERY_STATUS = "query-status"
    READ_ROUTER_DIAGNOSTICS = "read-router-diagnostics"
    READ_CORE_STATE = "read-core-state"
    INJECT_SPIKE = "inject-spike"


@dataclass
class SDPMessage:
    """An SDP-style datagram exchanged between the host and a chip."""

    command: HostCommand
    destination: ChipCoordinate
    arguments: Dict[str, Any] = field(default_factory=dict)
    sequence: int = field(default_factory=lambda: next(_sequence))
    response: Optional[Dict[str, Any]] = None


class HostSystem:
    """The workstation driving the machine over Ethernet."""

    def __init__(self, machine: SpiNNakerMachine,
                 ethernet_latency_us: float = DEFAULT_ETHERNET_LATENCY_US) -> None:
        if ethernet_latency_us < 0:
            raise ValueError("Ethernet latency must be non-negative")
        self.machine = machine
        self.ethernet_latency_us = ethernet_latency_us
        self.gateway = machine.ethernet_chips[0]
        self.messages_sent: List[SDPMessage] = []
        self.p2p_hops_used = 0

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _reachable(self, destination: ChipCoordinate) -> bool:
        """True if p2p routing can carry a message to ``destination``."""
        if destination == self.gateway:
            return True
        gateway_chip = self.machine.chips[self.gateway]
        return (gateway_chip.p2p_table is not None and
                gateway_chip.p2p_table.knows(destination))

    def send(self, message: SDPMessage) -> SDPMessage:
        """Send a management message and synchronously collect its response.

        The transport is modelled functionally (the p2p hop count is
        recorded for the traffic statistics); the response is filled in
        from the machine model's state, which is what the real chip-side
        monitor software would report back.
        """
        self.messages_sent.append(message)
        if not self._reachable(message.destination):
            message.response = {"error": "destination unreachable: p2p "
                                         "tables not configured"}
            return message
        self.p2p_hops_used += self.machine.geometry.distance(
            self.gateway, message.destination) or 1
        message.response = self._execute(message)
        return message

    # ------------------------------------------------------------------
    # Command execution (chip-side behaviour)
    # ------------------------------------------------------------------
    def _execute(self, message: SDPMessage) -> Dict[str, Any]:
        chip = self.machine.chips[message.destination]
        if message.command is HostCommand.QUERY_STATUS:
            return {
                "booted": chip.state.booted,
                "coordinates_known": chip.state.coordinates_known,
                "p2p_configured": chip.state.p2p_configured,
                "application_loaded": chip.state.application_loaded,
                "monitor_core": chip.monitor_core_id,
                "working_cores": len(chip.working_cores),
            }
        if message.command is HostCommand.READ_ROUTER_DIAGNOSTICS:
            stats = chip.router.stats
            return {
                "multicast_routed": stats.multicast_routed,
                "dropped": stats.dropped,
                "emergency_invocations": stats.emergency_invocations,
                "default_routed": stats.default_routed,
                "p2p_routed": stats.p2p_routed,
            }
        if message.command is HostCommand.READ_CORE_STATE:
            core_id = int(message.arguments.get("core", 0))
            if not 0 <= core_id < chip.n_cores:
                return {"error": "no such core %d" % core_id}
            core = chip.cores[core_id]
            return {
                "state": core.state.value,
                "packets_received": core.packets_received,
                "packets_sent": core.packets_sent,
                "busy_time_us": core.busy_time_us,
            }
        if message.command is HostCommand.INJECT_SPIKE:
            key = int(message.arguments["key"])
            packet = MulticastPacket(key=key,
                                     timestamp=self.machine.kernel.now,
                                     source=message.destination)
            self.machine.inject_multicast(message.destination, packet)
            return {"injected": True, "key": key}
        return {"error": "unknown command"}

    # ------------------------------------------------------------------
    # Convenience wrappers
    # ------------------------------------------------------------------
    def query_status(self, destination: ChipCoordinate) -> Dict[str, Any]:
        """Ask a chip for its boot/application status."""
        return self.send(SDPMessage(HostCommand.QUERY_STATUS,
                                    destination)).response

    def router_diagnostics(self, destination: ChipCoordinate) -> Dict[str, Any]:
        """Read a chip's router diagnostic counters."""
        return self.send(SDPMessage(HostCommand.READ_ROUTER_DIAGNOSTICS,
                                    destination)).response

    def survey_machine(self) -> Dict[str, int]:
        """Query every chip and summarise the machine's health."""
        booted = 0
        loaded = 0
        unreachable = 0
        for coordinate in self.machine.geometry.all_chips():
            status = self.query_status(coordinate)
            if "error" in status:
                unreachable += 1
                continue
            booted += int(bool(status["booted"]))
            loaded += int(bool(status["application_loaded"]))
        return {"chips": self.machine.n_chips, "booted": booted,
                "application_loaded": loaded, "unreachable": unreachable}

    def inject_spike(self, key: int,
                     at: Optional[ChipCoordinate] = None) -> None:
        """Inject a stimulus spike packet with routing key ``key``."""
        destination = at if at is not None else self.gateway
        self.send(SDPMessage(HostCommand.INJECT_SPIKE, destination,
                             {"key": key}))

    def inject_population_spike(self, keys, label: str, neuron: int) -> None:
        """Inject a spike on behalf of one mapped neuron.

        ``keys`` is the key-allocation artifact of the mapping compiler
        (``application.keys`` / ``MappingContext.keys``): the host shares
        the compiled key spaces instead of re-deriving packet keys from a
        private copy of the placement.  The packet is injected at the
        neuron's source chip, so it takes exactly the multicast tree the
        neuron's own spikes would.
        """
        key = keys.key_for_neuron(label, neuron)
        vertex, _local = keys.placement.vertex_for_neuron(label, neuron)
        source_chip, _core = keys.placement.location_of(vertex)
        self.send(SDPMessage(HostCommand.INJECT_SPIKE, source_chip,
                             {"key": key}))
