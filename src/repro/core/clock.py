"""GALS clocking model (Figure 5).

The SpiNNaker chip is Globally Asynchronous, Locally Synchronous: each
processor subsystem, the router and the memory interface sit in their own
clock domain, and the domains communicate only through self-timed
interconnect.  The practical consequences modelled here are:

* every clock domain has its *own* frequency, with a per-domain deviation
  drawn from a process-variability distribution (the paper motivates GALS
  partly as a way of coping with increasing process variability);
* there is no global clock edge — converting a time to "cycles" is only
  meaningful within one domain;
* a domain can be independently slowed down or turned off (the decoupling
  of clocks and supply voltages that GALS offers the designers).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Nominal processor clock of the ARM968 cores in SpiNNaker (200 MHz).
DEFAULT_CORE_FREQUENCY_MHZ = 200.0
#: Nominal router clock.
DEFAULT_ROUTER_FREQUENCY_MHZ = 200.0
#: Nominal SDRAM interface clock (mobile DDR, 133 MHz in the real chip).
DEFAULT_MEMORY_FREQUENCY_MHZ = 133.0


@dataclass
class ClockDomain:
    """A single locally-synchronous clock domain.

    Attributes
    ----------
    name:
        Human-readable domain name (for example ``"core-3"`` or ``"router"``).
    nominal_frequency_mhz:
        Design frequency of the domain.
    actual_frequency_mhz:
        Frequency after process variation and any dynamic scaling have been
        applied.  ``None`` until :meth:`apply_variation` or an explicit set.
    enabled:
        Whether the domain is currently clocked.  A disabled domain models a
        powered-down subsystem.
    """

    name: str
    nominal_frequency_mhz: float
    actual_frequency_mhz: Optional[float] = None
    enabled: bool = True
    scaling_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.nominal_frequency_mhz <= 0:
            raise ValueError("clock frequency must be positive")
        if self.actual_frequency_mhz is None:
            self.actual_frequency_mhz = self.nominal_frequency_mhz

    @property
    def effective_frequency_mhz(self) -> float:
        """Frequency after dynamic scaling; zero if the domain is disabled."""
        if not self.enabled:
            return 0.0
        return self.actual_frequency_mhz * self.scaling_factor

    def cycles_to_microseconds(self, cycles: float) -> float:
        """Convert a cycle count in this domain to microseconds.

        Raises
        ------
        RuntimeError
            If the domain is disabled (its clock is not running).
        """
        frequency = self.effective_frequency_mhz
        if frequency <= 0:
            raise RuntimeError("clock domain %r is disabled" % (self.name,))
        return cycles / frequency

    def microseconds_to_cycles(self, microseconds: float) -> float:
        """Convert a duration in microseconds to cycles of this domain."""
        return microseconds * self.effective_frequency_mhz

    def apply_variation(self, sigma_fraction: float,
                        rng: random.Random) -> None:
        """Apply a random process-variation offset to the actual frequency.

        ``sigma_fraction`` is the standard deviation of the frequency
        deviation as a fraction of nominal (for example 0.05 for 5 %).
        """
        if sigma_fraction < 0:
            raise ValueError("sigma_fraction must be non-negative")
        deviation = rng.gauss(0.0, sigma_fraction)
        # Clamp to a physically sensible range: a domain never runs faster
        # than 150 % or slower than 50 % of nominal through variation alone.
        deviation = max(-0.5, min(0.5, deviation))
        self.actual_frequency_mhz = self.nominal_frequency_mhz * (1.0 + deviation)

    def scale(self, factor: float) -> None:
        """Apply dynamic frequency scaling (DVFS) to this domain."""
        if factor < 0:
            raise ValueError("scaling factor must be non-negative")
        self.scaling_factor = factor

    def disable(self) -> None:
        """Stop the domain's clock (power the subsystem down)."""
        self.enabled = False

    def enable(self) -> None:
        """Restart the domain's clock."""
        self.enabled = True


@dataclass
class GALSClockSystem:
    """The collection of clock domains on one chip (Figure 5).

    A chip has one domain per processor subsystem, one for the router and
    one for the memory interface.  The domains are created by
    :meth:`for_chip` and can each be varied, scaled and disabled
    independently — the defining property of a GALS design.
    """

    domains: Dict[str, ClockDomain] = field(default_factory=dict)

    @classmethod
    def for_chip(cls, n_cores: int,
                 core_frequency_mhz: float = DEFAULT_CORE_FREQUENCY_MHZ,
                 router_frequency_mhz: float = DEFAULT_ROUTER_FREQUENCY_MHZ,
                 memory_frequency_mhz: float = DEFAULT_MEMORY_FREQUENCY_MHZ,
                 ) -> "GALSClockSystem":
        """Create the standard set of domains for an ``n_cores``-core chip."""
        system = cls()
        for core in range(n_cores):
            system.add(ClockDomain("core-%d" % core, core_frequency_mhz))
        system.add(ClockDomain("router", router_frequency_mhz))
        system.add(ClockDomain("memory", memory_frequency_mhz))
        return system

    def add(self, domain: ClockDomain) -> None:
        """Register a clock domain; names must be unique within the chip."""
        if domain.name in self.domains:
            raise ValueError("duplicate clock domain %r" % (domain.name,))
        self.domains[domain.name] = domain

    def __getitem__(self, name: str) -> ClockDomain:
        return self.domains[name]

    def __contains__(self, name: str) -> bool:
        return name in self.domains

    def core_domain(self, core_id: int) -> ClockDomain:
        """The clock domain of processor ``core_id``."""
        return self.domains["core-%d" % core_id]

    def apply_process_variation(self, sigma_fraction: float,
                                seed: Optional[int] = None) -> None:
        """Apply independent frequency variation to every domain on the chip."""
        rng = random.Random(seed)
        for domain in self.domains.values():
            domain.apply_variation(sigma_fraction, rng)

    def frequency_spread(self) -> float:
        """Return (max - min) / nominal over the enabled core domains.

        This is the quantity the GALS organisation is designed to tolerate:
        with a global clock the chip would have to run at the *slowest*
        domain's frequency, whereas GALS lets every domain run at its own.
        """
        core_domains = [d for name, d in self.domains.items()
                        if name.startswith("core-") and d.enabled]
        if not core_domains:
            return 0.0
        frequencies = [d.actual_frequency_mhz for d in core_domains]
        nominal = core_domains[0].nominal_frequency_mhz
        return (max(frequencies) - min(frequencies)) / nominal

    def synchronous_frequency(self) -> float:
        """The frequency a fully-synchronous chip would be forced to run at.

        A globally-clocked chip must clock every core at the speed of its
        slowest core; this helper is used by tests and benches to quantify
        the throughput the GALS organisation recovers.
        """
        core_domains = [d for name, d in self.domains.items()
                        if name.startswith("core-") and d.enabled]
        if not core_domains:
            return 0.0
        return min(d.actual_frequency_mhz for d in core_domains)

    def aggregate_core_frequency(self) -> float:
        """Sum of the effective core frequencies (a throughput proxy)."""
        return sum(d.effective_frequency_mhz
                   for name, d in self.domains.items()
                   if name.startswith("core-"))

    def all_domains(self) -> List[ClockDomain]:
        """All domains in insertion order."""
        return list(self.domains.values())
