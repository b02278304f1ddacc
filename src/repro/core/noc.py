"""On-chip Network-on-Chip fabrics (Figure 3).

The SpiNNaker chip has two self-timed NoC fabrics built on CHAIN-style
delay-insensitive interconnect:

* the **Communications NoC** carries neural-spike (and other) packets
  between the processors and the router, and bridges to the six inter-chip
  links;
* the **System NoC** is the general-purpose interconnect through which the
  processors and their DMA engines reach the shared SDRAM and other system
  resources.

Both fabrics are modelled at the transaction level: a transfer occupies the
fabric for ``size / bandwidth`` and experiences a fixed traversal latency.
The fabrics keep utilisation statistics used by the traffic benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

#: Communications NoC throughput: the real fabric carries on the order of
#: 6 Gbit/s of packet traffic; expressed here in packets (40 bits) per
#: microsecond it comfortably exceeds the per-core injection rates.
DEFAULT_COMMS_NOC_PACKETS_PER_US = 8.0
#: Latency for a packet to cross the Communications NoC (processor to
#: router or router to processor), in microseconds.
DEFAULT_COMMS_NOC_LATENCY_US = 0.1
#: System NoC sustained bandwidth in bytes per microsecond.
DEFAULT_SYSTEM_NOC_BANDWIDTH = 1000.0
#: System NoC traversal latency in microseconds.
DEFAULT_SYSTEM_NOC_LATENCY_US = 0.05


@dataclass
class FabricStatistics:
    """Counters shared by both NoC fabrics."""

    transfers: int = 0
    total_bits: int = 0
    busy_time_us: float = 0.0

    def utilisation(self, elapsed_us: float) -> float:
        """Fraction of ``elapsed_us`` for which the fabric was busy."""
        if elapsed_us <= 0:
            return 0.0
        return min(1.0, self.busy_time_us / elapsed_us)


@dataclass
class CommunicationsNoC:
    """The packet-carrying fabric between cores and the router.

    The fabric serialises packet transfers: each 40-bit packet occupies it
    for ``1 / packets_per_us`` and arrives ``latency_us`` after it is
    accepted.  :meth:`schedule_packet` returns the arrival time at the
    destination port (core or router).
    """

    packets_per_us: float = DEFAULT_COMMS_NOC_PACKETS_PER_US
    latency_us: float = DEFAULT_COMMS_NOC_LATENCY_US
    _busy_until: float = 0.0
    stats: FabricStatistics = field(default_factory=FabricStatistics)

    def schedule_packet(self, now: float, bit_length: int = 40) -> float:
        """Accept a packet at ``now`` and return its delivery time."""
        service_time = 1.0 / self.packets_per_us
        start = max(now, self._busy_until)
        self._busy_until = start + service_time
        self.stats.transfers += 1
        self.stats.total_bits += bit_length
        self.stats.busy_time_us += service_time
        return start + service_time + self.latency_us

    def record_batch(self, n_packets: int, bit_length: int = 40) -> None:
        """Account ``n_packets`` transfers in one call (fabric transport).

        The compiled transport fabric moves a whole spike batch at once,
        so it charges the fabric's statistics in bulk: transfer count,
        bits and the busy time the packets would have occupied.  The
        serialisation state (``_busy_until``) is left alone — the fabric
        bypasses per-packet queueing by construction.
        """
        if n_packets < 0:
            raise ValueError("batch size must be non-negative")
        if n_packets == 0:
            return
        self.stats.transfers += n_packets
        self.stats.total_bits += n_packets * bit_length
        self.stats.busy_time_us += n_packets / self.packets_per_us

    def queue_delay(self, now: float) -> float:
        """How long a packet arriving at ``now`` would wait before service."""
        return max(0.0, self._busy_until - now)


@dataclass
class SystemNoC:
    """The general-purpose fabric between cores/DMA engines and the SDRAM.

    The System NoC arbitrates the (up to) 20 cores' accesses to the shared
    memory.  DMA timing itself is handled by the :class:`~repro.core.sdram.
    SDRAM` contention model; the System NoC adds its own traversal latency
    and records per-initiator traffic so the benchmarks can show how memory
    bandwidth is shared.
    """

    bandwidth_bytes_per_us: float = DEFAULT_SYSTEM_NOC_BANDWIDTH
    latency_us: float = DEFAULT_SYSTEM_NOC_LATENCY_US
    _busy_until: float = 0.0
    stats: FabricStatistics = field(default_factory=FabricStatistics)
    traffic_by_initiator: Dict[str, int] = field(default_factory=dict)

    def schedule_transfer(self, now: float, n_bytes: int,
                          initiator: str = "unknown") -> float:
        """Account for a transfer of ``n_bytes`` and return its finish time."""
        if n_bytes < 0:
            raise ValueError("transfer size must be non-negative")
        service_time = n_bytes / self.bandwidth_bytes_per_us
        start = max(now, self._busy_until)
        self._busy_until = start + service_time
        self.stats.transfers += 1
        self.stats.total_bits += n_bytes * 8
        self.stats.busy_time_us += service_time
        self.traffic_by_initiator[initiator] = (
            self.traffic_by_initiator.get(initiator, 0) + n_bytes)
        return start + service_time + self.latency_us

    def record_batch(self, n_transfers: int, total_bytes: int,
                     initiator: str = "fabric") -> None:
        """Account a batch of transfers without serialising them.

        Bulk counterpart of :meth:`schedule_transfer` for the compiled
        transport fabric's batched synaptic-row movement.
        """
        if n_transfers < 0 or total_bytes < 0:
            raise ValueError("batch sizes must be non-negative")
        if n_transfers == 0:
            return
        self.stats.transfers += n_transfers
        self.stats.total_bits += total_bytes * 8
        self.stats.busy_time_us += total_bytes / self.bandwidth_bytes_per_us
        self.traffic_by_initiator[initiator] = (
            self.traffic_by_initiator.get(initiator, 0) + total_bytes)
