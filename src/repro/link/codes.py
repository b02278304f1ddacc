"""Delay-insensitive link codes (Section 5.1).

Two code families are used in SpiNNaker:

* the on-chip CHAIN fabric uses a **3-of-6 return-to-zero (RTZ)** code:
  each 4-bit symbol is signalled by raising exactly three of six wires and
  then returning them all to zero;
* the chip-to-chip links use a **2-of-7 non-return-to-zero (NRZ)** code:
  each 4-bit symbol is signalled by *transitioning* exactly two of seven
  wires, with no return phase.

The paper's comparison (which this module regenerates exactly) is:

* *power* — "a 2-of-7 NRZ code uses 3 off-chip wire transitions to send 4
  bits of data; a 3-of-6 RTZ code uses 8 wire transitions to send the same
  4 bits" (data transitions plus the acknowledge transitions);
* *performance* — an RTZ handshake needs two complete out-and-return
  signalling loops per symbol where NRZ needs only one, "effectively
  doubling the throughput".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

#: Number of data bits carried per symbol by both codes.
BITS_PER_SYMBOL = 4


@dataclass(frozen=True)
class DelayInsensitiveCode:
    """An m-of-n delay-insensitive code.

    Attributes
    ----------
    name:
        Human-readable name, e.g. ``"3-of-6 RTZ"``.
    n_wires:
        Number of data wires in the group.
    n_active:
        Number of wires that signal per symbol (the "m" of m-of-n).
    return_to_zero:
        True for RTZ codes (wires must be driven back to zero after every
        symbol), False for NRZ codes (the new symbol is signalled by wire
        *transitions* relative to the previous state).
    codebook:
        Mapping from 4-bit symbol value to the frozenset of active wires.
    end_of_packet:
        The wire set reserved for the end-of-packet marker.
    """

    name: str
    n_wires: int
    n_active: int
    return_to_zero: bool
    codebook: Dict[int, FrozenSet[int]]
    end_of_packet: FrozenSet[int]

    # ------------------------------------------------------------------
    # Encoding / decoding
    # ------------------------------------------------------------------
    def encode(self, symbol: int) -> FrozenSet[int]:
        """Return the set of active wires for a 4-bit ``symbol``."""
        if symbol not in self.codebook:
            raise ValueError("symbol %r is not a valid %d-bit value"
                             % (symbol, BITS_PER_SYMBOL))
        return self.codebook[symbol]

    def decode(self, wires: FrozenSet[int]) -> int:
        """Return the symbol value for a set of active wires.

        Raises
        ------
        ValueError
            If the wire set is not a codeword (a corrupted symbol); the
            delay-insensitive property means any wrong *number* of wires is
            detectable.
        """
        wires = frozenset(wires)
        for symbol, codeword in self.codebook.items():
            if codeword == wires:
                return symbol
        raise ValueError("wire set %s is not a codeword of %s"
                         % (sorted(wires), self.name))

    def is_codeword(self, wires: FrozenSet[int]) -> bool:
        """True if ``wires`` is a valid data codeword."""
        return frozenset(wires) in set(self.codebook.values())

    def encode_nibbles(self, nibbles: Sequence[int]) -> List[FrozenSet[int]]:
        """Encode a sequence of 4-bit values, appending the EOP marker."""
        return [self.encode(n) for n in nibbles] + [self.end_of_packet]

    # ------------------------------------------------------------------
    # Wire-transition accounting (the energy comparison of Section 5.1)
    # ------------------------------------------------------------------
    def data_transitions_per_symbol(self) -> int:
        """Wire transitions on the data wires for one symbol.

        RTZ: each active wire rises and then falls — ``2 * n_active``.
        NRZ: each active wire transitions exactly once — ``n_active``.
        """
        return self.n_active * (2 if self.return_to_zero else 1)

    def ack_transitions_per_symbol(self) -> int:
        """Wire transitions on the acknowledge wire for one symbol.

        RTZ handshakes acknowledge both the data phase and the return-to-
        zero phase (two transitions); NRZ acknowledges once per symbol.
        """
        return 2 if self.return_to_zero else 1

    def transitions_per_symbol(self) -> int:
        """Total wire transitions (data + acknowledge) for one 4-bit symbol.

        This reproduces the paper's numbers: 8 for 3-of-6 RTZ and 3 for
        2-of-7 NRZ.
        """
        return self.data_transitions_per_symbol() + self.ack_transitions_per_symbol()

    def handshake_round_trips_per_symbol(self) -> int:
        """Complete out-and-return signalling loops needed per symbol.

        An RTZ protocol completes two loops per symbol (data + ack, then
        return-to-zero + ack); NRZ completes one.  This is the paper's
        throughput argument.
        """
        return 2 if self.return_to_zero else 1


def _build_codebook(n_wires: int, n_active: int) -> Tuple[Dict[int, FrozenSet[int]],
                                                          FrozenSet[int]]:
    """Assign the first 16 m-of-n codewords to symbols, reserve one for EOP.

    Codewords are enumerated in lexicographic order of their wire indices,
    which is deterministic and therefore stable across runs and versions.
    """
    combinations = [frozenset(c) for c in
                    itertools.combinations(range(n_wires), n_active)]
    n_symbols = 1 << BITS_PER_SYMBOL
    if len(combinations) < n_symbols + 1:
        raise ValueError("%d-of-%d has only %d codewords; %d needed"
                         % (n_active, n_wires, len(combinations), n_symbols + 1))
    codebook = {symbol: combinations[symbol] for symbol in range(n_symbols)}
    end_of_packet = combinations[n_symbols]
    return codebook, end_of_packet


def three_of_six_rtz() -> DelayInsensitiveCode:
    """The on-chip 3-of-6 return-to-zero code (CHAIN fabric)."""
    codebook, eop = _build_codebook(6, 3)
    return DelayInsensitiveCode(name="3-of-6 RTZ", n_wires=6, n_active=3,
                                return_to_zero=True, codebook=codebook,
                                end_of_packet=eop)


def two_of_seven_nrz() -> DelayInsensitiveCode:
    """The chip-to-chip 2-of-7 non-return-to-zero code."""
    codebook, eop = _build_codebook(7, 2)
    return DelayInsensitiveCode(name="2-of-7 NRZ", n_wires=7, n_active=2,
                                return_to_zero=False, codebook=codebook,
                                end_of_packet=eop)


@dataclass
class LinkPerformanceModel:
    """Throughput and energy model of a chip-to-chip link.

    The dominant delay off chip is the wire flight time plus pad delay, so
    the symbol rate is set by how many complete out-and-return loops the
    protocol needs per symbol.  Energy per symbol is proportional to the
    number of off-chip wire transitions.

    Parameters
    ----------
    wire_delay_ns:
        One-way chip-to-chip delay (pad + PCB trace), nanoseconds.
    energy_per_transition_pj:
        Energy dissipated by one off-chip wire transition, picojoules.
    """

    wire_delay_ns: float = 2.0
    energy_per_transition_pj: float = 6.0

    def symbol_period_ns(self, code: DelayInsensitiveCode) -> float:
        """Time to transfer one 4-bit symbol across the link."""
        round_trip = 2.0 * self.wire_delay_ns
        return code.handshake_round_trips_per_symbol() * round_trip

    def throughput_mbit_per_s(self, code: DelayInsensitiveCode) -> float:
        """Sustained data throughput of the link using ``code``."""
        return BITS_PER_SYMBOL / self.symbol_period_ns(code) * 1e3

    def energy_per_symbol_pj(self, code: DelayInsensitiveCode) -> float:
        """Off-chip signalling energy per 4-bit symbol."""
        return code.transitions_per_symbol() * self.energy_per_transition_pj

    def packet_transfer_time_ns(self, code: DelayInsensitiveCode,
                                packet_bits: int = 40) -> float:
        """Time to transfer a packet of ``packet_bits`` (plus EOP symbol)."""
        n_symbols = (packet_bits + BITS_PER_SYMBOL - 1) // BITS_PER_SYMBOL
        # The end-of-packet marker costs one more symbol time.
        return (n_symbols + 1) * self.symbol_period_ns(code)

    def comparison(self) -> Dict[str, float]:
        """The headline NRZ-vs-RTZ ratios quoted in Section 5.1."""
        nrz = two_of_seven_nrz()
        rtz = three_of_six_rtz()
        return {
            "nrz_transitions_per_symbol": nrz.transitions_per_symbol(),
            "rtz_transitions_per_symbol": rtz.transitions_per_symbol(),
            "energy_ratio_nrz_over_rtz": (self.energy_per_symbol_pj(nrz) /
                                          self.energy_per_symbol_pj(rtz)),
            "throughput_ratio_nrz_over_rtz": (self.throughput_mbit_per_s(nrz) /
                                              self.throughput_mbit_per_s(rtz)),
        }
