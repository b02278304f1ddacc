"""Literal reference semantics the shipped CSR path is pinned to.

The package ships exactly one representation of an expanded projection
(the flat CSR arrays of :mod:`repro.neuron.engine`), one propagation path
(the vectorized scatter) and one STDP rule (``update_csr``).  This module
keeps the slow, obviously-correct formulation of each — one Python object
per synapse, one ring-buffer update per event — so the tests can assert
the fast path equals it element for element:

* :class:`Synapse` and :func:`pack_row` / :func:`unpack_row` — the scalar
  32-bit synaptic-word codec;
* :func:`decode_packed_row` / :func:`decode_block` — the reference
  decoders of one packed row and of one installed block, read back out
  of SDRAM (the shipped legs are decoded from the array as it is
  written, never read back);
* :class:`DictSDRAM` — the SDRAM word store as one dict entry per written
  word, accessed a word at a time;
* :func:`reference_displacement` / :func:`reference_p2p_entries` — the
  minimal displacement searched per chip pair, and one chip's p2p table
  built destination by destination from full routes, which pin the
  geometry's one displacement table;
* :func:`linear_lookup` — the multicast router's CAM walked entry by
  entry, which pins the routing table's indexed first-match lookup;
* :func:`build_rows` — the object-building connector loops, making the
  generator calls one synapse at a time (for fixed probability, one
  geometric gap at a time through each tile's keyed streams);
* :class:`ScalarRing` — a per-event deferred-event ring that clamps
  each cell at the 16-bit weight range as it drains it, one cell at a
  time;
* :func:`stdp_update` — the per-synapse additive pair-based STDP rule;
* :class:`ScalarLIF` / :class:`ScalarIzhikevich` — one neuron's membrane
  equations in Python floats, which pin the one array update each model
  ships (1-D population and stacked block alike);
* :func:`reference_run` — the host tick loop over all of the above;
* :func:`inline_toolchain` — the mapping tool-chain run inline, stage by
  stage over the literal expansion (place, allocate keys, one tree and
  one entry set per source vertex, minimise, pack every block into
  SDRAM), which pins what the :mod:`repro.compile` pass pipeline
  installs: placements, keys, per-chip tables, route programs and SDRAM
  bytes;
* :class:`PerPairSynapticMatrices` — the synaptic-matrix pass one
  (source, target) vertex pair at a time (a per-source reach scan, one
  :func:`submatrix` per projection on the pair, merged by
  :func:`merge_rows`, each block packed by :func:`pack_csr_block`,
  written to SDRAM on its own and decoded from its words by
  :func:`write_pair_block`), which pins the per-projection pack and the
  per-chip writes of the shipped pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compile.passes import BuildSynapticMatricesPass
from repro.core.geometry import ChipCoordinate, Direction, TorusGeometry
from repro.core.sdram import (
    DEFAULT_SDRAM_BYTES,
    SDRAMAllocationError,
    SDRAMRegion,
)
from repro.mapping.keys import KeyAllocator
from repro.mapping.placement import Placer
from repro.mapping.routing_generator import build_tree
from repro.mapping.synaptic_matrix import (
    CoreSynapticData,
    PopulationTableEntry,
)
from repro.neuron.connectors import (
    AllToAllConnector,
    DistanceDependentConnector,
    FixedProbabilityConnector,
    FromListConnector,
    OneToOneConnector,
)
from repro.neuron.engine import (CSRMatrix, pack_synapse_words,
                                 unpack_synapse_words)
from repro.neuron.kernel import StackedBlock
from repro.neuron.network import Network, SimulationResult
from repro.neuron.population import (
    SpikeSourceArray,
    SpikeSourcePoisson,
    expansion_rng,
    simulation_rng,
)
from repro.neuron.synapse import (
    DELAY_BITS,
    INDEX_BITS,
    MAX_DELAY_TICKS,
    WEIGHT_BITS,
    WEIGHT_FIXED_POINT,
    WEIGHT_SATURATION_NA,
)
from repro.router.fabric import compile_route
from repro.router.routing_table import RoutingEntry

Rows = Dict[int, List["Synapse"]]


# ----------------------------------------------------------------------
# One synapse, and its packed 32-bit word
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Synapse:
    """One synaptic connection from an implicit source neuron."""

    target: int
    weight: float
    delay_ticks: int = 1

    def __post_init__(self) -> None:
        if self.target < 0:
            raise ValueError("synapse target index must be non-negative")
        if not 1 <= self.delay_ticks <= MAX_DELAY_TICKS:
            raise ValueError("delay must be in 1..%d ticks, got %d"
                             % (MAX_DELAY_TICKS, self.delay_ticks))

    def pack(self) -> int:
        """Pack the synapse into the 32-bit SDRAM synaptic word."""
        if self.target >= (1 << INDEX_BITS):
            raise ValueError("target index %d does not fit in %d bits"
                             % (self.target, INDEX_BITS))
        weight_fixed = int(round(abs(self.weight) * WEIGHT_FIXED_POINT))
        weight_fixed = min(weight_fixed, (1 << (WEIGHT_BITS - 1)) - 1)
        if self.weight < 0:
            weight_fixed |= 1 << (WEIGHT_BITS - 1)
        return ((weight_fixed << (DELAY_BITS + INDEX_BITS)) |
                ((self.delay_ticks - 1) << INDEX_BITS) |
                self.target)

    @classmethod
    def unpack(cls, word: int) -> "Synapse":
        """Reconstruct a synapse from its packed 32-bit word."""
        target = word & ((1 << INDEX_BITS) - 1)
        delay = ((word >> INDEX_BITS) & ((1 << DELAY_BITS) - 1)) + 1
        weight_field = word >> (DELAY_BITS + INDEX_BITS)
        magnitude = ((weight_field & ((1 << (WEIGHT_BITS - 1)) - 1))
                     / WEIGHT_FIXED_POINT)
        sign = -1.0 if weight_field & (1 << (WEIGHT_BITS - 1)) else 1.0
        return cls(target=target, weight=sign * magnitude, delay_ticks=delay)


def pack_row(synapses: Sequence[Synapse]) -> List[int]:
    """Pack one row for SDRAM: a count header followed by synapse words."""
    return [len(synapses)] + [s.pack() for s in synapses]


def unpack_row(words: Sequence[int]) -> List[Synapse]:
    """Rebuild a row from its packed (possibly stride-padded) words."""
    if not words:
        raise ValueError("a packed synaptic row has at least a header word")
    count = words[0]
    if count > len(words) - 1:
        raise ValueError("row header claims %d synapses but only %d words "
                         "follow" % (count, len(words) - 1))
    return [Synapse.unpack(int(word)) for word in words[1:count + 1]]


def decode_packed_row(words: Sequence[int]) -> Tuple[int, np.ndarray,
                                                     np.ndarray, np.ndarray]:
    """Decode one packed SDRAM row (count header + synapse words).

    Returns ``(count, targets, weights, delay_ticks)``; words past the
    header's count are SDRAM stride padding and ignored.
    """
    if len(words) == 0:
        raise ValueError("a packed synaptic row has at least a header word")
    count = int(words[0])
    if count > len(words) - 1:
        raise ValueError("row header claims %d synapses but only %d words "
                         "follow" % (count, len(words) - 1))
    targets, weights, delay_ticks = unpack_synapse_words(
        np.asarray(words[1:count + 1], dtype=np.uint32))
    return count, targets, weights, delay_ticks


def decode_block(chip, entry: PopulationTableEntry,
                 n_post: int) -> CSRMatrix:
    """Decode one installed block back out of ``chip``'s SDRAM, a row at
    a time.  Peeks, so it charges no SDRAM traffic."""
    stride = entry.row_stride_words
    words = chip.sdram.peek_block(entry.sdram_address, stride * entry.n_rows)
    rows = [decode_packed_row(words[i:i + stride])
            for i in range(0, len(words), stride)]
    return CSRMatrix(entry.n_rows, n_post,
                     np.append(0, np.cumsum([row[0] for row in rows])),
                     *(np.concatenate([row[field] for row in rows])
                       for field in (1, 2, 3)))


# ----------------------------------------------------------------------
# The SDRAM store, one dict entry per written word
# ----------------------------------------------------------------------
class DictSDRAM:
    """The word store of :class:`repro.core.sdram.SDRAM`, one Python dict
    entry per written word keyed by byte address, every block access a
    loop of checked single-word accesses.

    Same bump allocator, same results and counters; the one intended
    difference is a block that crosses the end of the address space: this
    model writes (and, for ``read_block``, charges) the in-range prefix
    before raising, where the shipped store raises first.
    """

    def __init__(self, size_bytes: int = DEFAULT_SDRAM_BYTES) -> None:
        self.size_bytes = size_bytes
        self._next_free = 0
        self._regions: List[SDRAMRegion] = []
        self._store: Dict[int, int] = {}
        self.total_bytes_read = 0
        self.total_bytes_written = 0

    def allocate(self, size: int, tag: str = "") -> SDRAMRegion:
        if size <= 0:
            raise ValueError("allocation size must be positive, got %r"
                             % (size,))
        aligned = (size + 3) & ~3
        if self._next_free + aligned > self.size_bytes:
            raise SDRAMAllocationError(
                "cannot allocate %d bytes: %d of %d bytes already in use"
                % (size, self._next_free, self.size_bytes))
        region = SDRAMRegion(base=self._next_free, size=aligned, tag=tag)
        self._next_free += aligned
        self._regions.append(region)
        return region

    def free(self, region: SDRAMRegion) -> None:
        try:
            self._regions.remove(region)
        except ValueError:
            raise ValueError("region %r was not allocated from this SDRAM"
                             % (region,))
        for address in range(region.base, region.end, 4):
            self._store.pop(address, None)
        if region.end == self._next_free:
            self._next_free = region.base

    @property
    def bytes_allocated(self) -> int:
        return self._next_free

    @property
    def regions(self) -> List[SDRAMRegion]:
        return list(self._regions)

    def write_word(self, address: int, value: int) -> None:
        self._check_address(address)
        self._store[address] = value & 0xFFFFFFFF
        self.total_bytes_written += 4

    def read_word(self, address: int) -> int:
        self._check_address(address)
        self.total_bytes_read += 4
        return self._store.get(address, 0)

    def write_block(self, address: int, words: Sequence[int]) -> None:
        for offset, word in enumerate(words):
            self.write_word(address + 4 * offset, word)

    def read_block(self, address: int, n_words: int) -> List[int]:
        return [self.read_word(address + 4 * i) for i in range(n_words)]

    def peek_block(self, address: int, n_words: int) -> List[int]:
        words = []
        for i in range(n_words):
            word_address = address + 4 * i
            self._check_address(word_address)
            words.append(self._store.get(word_address, 0))
        return words

    def _check_address(self, address: int) -> None:
        if address % 4 != 0:
            raise ValueError("address 0x%x is not word-aligned" % (address,))
        if not 0 <= address < self.size_bytes:
            raise ValueError("address 0x%x is outside the %d-byte SDRAM"
                             % (address, self.size_bytes))


# ----------------------------------------------------------------------
# Scalar displacements and p2p tables, one route per chip pair
# ----------------------------------------------------------------------
def _axis_options(delta: int, size: int, wraps: bool) -> Tuple[int, ...]:
    if not wraps:
        return (delta,)
    delta %= size
    if delta == 0:
        return (0,)
    return (delta, delta - size)


def reference_displacement(geometry, source: ChipCoordinate,
                           target: ChipCoordinate) -> Tuple[int, int]:
    """Minimal ``(dx, dy)`` from ``source`` to ``target``, searched per pair.

    Each axis offers its torus-equivalent candidates (a lease axis that
    does not wrap offers only the signed delta); the pair with the fewest
    hexagonal hops wins, ties to the smaller ``(dx, dy)``.
    """
    best: Optional[Tuple[int, int, int]] = None
    for dx in _axis_options(target.x - source.x, geometry.width,
                            getattr(geometry, "wraps_x", True)):
        for dy in _axis_options(target.y - source.y, geometry.height,
                                getattr(geometry, "wraps_y", True)):
            candidate = (TorusGeometry.hex_distance(dx, dy), dx, dy)
            if best is None or candidate < best:
                best = candidate
    return best[1], best[2]


def reference_p2p_entries(coordinate: ChipCoordinate, geometry
                          ) -> Dict[ChipCoordinate, Optional[Direction]]:
    """One chip's p2p table as boot once built it: for every chip of the
    geometry, the first link of the full route there (``None`` locally)."""
    entries: Dict[ChipCoordinate, Optional[Direction]] = {}
    for destination in geometry.all_chips():
        route = TorusGeometry.decompose(
            *reference_displacement(geometry, coordinate, destination))
        entries[destination] = route[0] if route else None
    return entries


# ----------------------------------------------------------------------
# The multicast CAM walked entry by entry
# ----------------------------------------------------------------------
def linear_lookup(table, key: int):
    """The first entry of ``table`` (in lookup order) matching ``key``,
    or ``None`` on a miss; the lookup/miss counters are left alone."""
    for entry in table.entries:
        if entry.matches(key):
            return entry
    return None


# ----------------------------------------------------------------------
# Object-building connector loops
# ----------------------------------------------------------------------
def _clip_delay(delay_ticks) -> int:
    return int(min(max(1, delay_ticks), MAX_DELAY_TICKS))


def _one_to_one(c: OneToOneConnector, n_pre, n_post, rng) -> Rows:
    return {i: [Synapse(i, c.weight, _clip_delay(c.delay_ticks))]
            for i in range(min(n_pre, n_post))}


def _all_to_all(c: AllToAllConnector, n_pre, n_post, rng) -> Rows:
    delay = _clip_delay(c.delay_ticks)
    return {pre: [Synapse(post, c.weight, delay) for post in range(n_post)
                  if c.allow_self_connections or post != pre]
            for pre in range(n_pre)}


#: The keyed stream's tile side, stated here again so a change to the
#: shipped constant shows up as a changed stream.
KEYED_TILE = 256


def _fixed_probability(c: FixedProbabilityConnector, n_pre, n_post,
                       rng) -> Rows:
    """The keyed tile stream, one scalar draw at a time.

    ``rng`` yields only the four-word root key.  Each square tile of
    side ``KEYED_TILE`` walks its cells row-major, one ``geometric`` gap
    per kept cell, from its own ``SeedSequence(root_key + (src_tile,
    tgt_tile, 0))`` stream; its kept synapses (self-connections dropped)
    then draw one weight each from stream 1 and one delay each from
    stream 2.
    """
    root_key = tuple(int(word) for word in rng.integers(1 << 32, size=4))

    def stream(src_tile, tgt_tile, quantity):
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(
            root_key + (src_tile, tgt_tile, quantity))))

    rows: Rows = {pre: [] for pre in range(n_pre)}
    for src_tile in range(math.ceil(n_pre / KEYED_TILE)):
        for tgt_tile in range(math.ceil(n_post / KEYED_TILE)):
            row0, col0 = src_tile * KEYED_TILE, tgt_tile * KEYED_TILE
            width = min(KEYED_TILE, n_post - col0)
            n_cells = min(KEYED_TILE, n_pre - row0) * width
            kept = []
            if c.p_connect == 1.0:
                kept = list(range(n_cells))
            elif c.p_connect > 0.0:
                cells = stream(src_tile, tgt_tile, 0)
                cell = int(cells.geometric(c.p_connect)) - 1
                while cell < n_cells:
                    kept.append(cell)
                    cell += int(cells.geometric(c.p_connect))
            pairs = [(row0 + cell // width, col0 + cell % width)
                     for cell in kept]
            pairs = [(pre, post) for pre, post in pairs
                     if c.allow_self_connections or pre != post]
            weights = stream(src_tile, tgt_tile, 1)
            delays = stream(src_tile, tgt_tile, 2)
            for pre, post in pairs:
                weight = (c.weight if c.weight_range is None
                          else float(weights.uniform(*c.weight_range)))
                delay = (c.delay_ticks if c.delay_range is None
                         else int(delays.integers(c.delay_range[0],
                                                  c.delay_range[1] + 1)))
                rows[pre].append(Synapse(post, weight, _clip_delay(delay)))
    return rows


def _distance_dependent(c: DistanceDependentConnector, n_pre, n_post,
                        rng) -> Rows:
    pre_rows, pre_cols = c.pre_shape
    post_rows, post_cols = c.post_shape
    if pre_rows * pre_cols < n_pre or post_rows * post_cols < n_post:
        raise ValueError("grid shapes are too small for the populations")
    row_scale = pre_rows / post_rows
    col_scale = pre_cols / post_cols
    rows: Rows = {}
    for pre in range(n_pre):
        pre_r, pre_c = float(pre // pre_cols), float(pre % pre_cols)
        synapses = []
        for post in range(n_post):
            post_r, post_c = float(post // post_cols), float(post % post_cols)
            distance = math.hypot(pre_r - post_r * row_scale,
                                  pre_c - post_c * col_scale)
            if distance > c.max_distance:
                continue
            probability = c.p_peak * math.exp(
                -(distance ** 2) / (2.0 * c.sigma ** 2))
            if rng.random() >= probability:
                continue
            delay = c.min_delay_ticks + int(
                round(distance * c.delay_per_unit_distance_ticks))
            synapses.append(Synapse(post, c.weight, _clip_delay(delay)))
        rows[pre] = synapses
    return rows


def _from_list(c: FromListConnector, n_pre, n_post, rng) -> Rows:
    rows: Rows = {}
    for pre, post, weight, delay in c.connections:
        if not 0 <= pre < n_pre:
            raise IndexError("pre index %d outside population of %d"
                             % (pre, n_pre))
        if not 0 <= post < n_post:
            raise IndexError("post index %d outside population of %d"
                             % (post, n_post))
        rows.setdefault(pre, []).append(
            Synapse(post, weight, _clip_delay(delay)))
    return rows


_BUILDERS = {
    OneToOneConnector: _one_to_one,
    AllToAllConnector: _all_to_all,
    FixedProbabilityConnector: _fixed_probability,
    DistanceDependentConnector: _distance_dependent,
    FromListConnector: _from_list,
}


def build_rows(connector, n_pre: int, n_post: int,
               rng: np.random.Generator) -> Rows:
    """Expand ``connector`` into per-source :class:`Synapse` lists."""
    return _BUILDERS[type(connector)](connector, n_pre, n_post, rng)


def flatten_rows(rows: Rows, n_pre: int
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``rows`` as ``(row_ptr, targets, weights, delay_ticks)`` arrays —
    source-ordered, each row in list order (the CSR storage order)."""
    flat = [s for pre in range(n_pre) for s in rows.get(pre, ())]
    row_ptr = np.concatenate([[0], np.cumsum(
        [len(rows.get(pre, ())) for pre in range(n_pre)])]).astype(np.int64)
    return (row_ptr,
            np.array([s.target for s in flat], dtype=np.int64),
            np.array([s.weight for s in flat], dtype=float),
            np.array([s.delay_ticks for s in flat], dtype=np.int64))


def csr_rows(csr) -> Rows:
    """A :class:`~repro.neuron.engine.CSRMatrix` as per-source synapse
    lists (every row present, possibly empty)."""
    return {pre: [Synapse(int(csr.targets[i]), float(csr.weights[i]),
                          int(csr.delay_ticks[i]))
                  for i in range(int(csr.row_ptr[pre]),
                                 int(csr.row_ptr[pre + 1]))]
            for pre in range(csr.n_pre)}


# ----------------------------------------------------------------------
# The per-event deferred-event ring
# ----------------------------------------------------------------------
class ScalarRing:
    """One core's input ring, updated one event at a time and clamped one
    cell at a time as each tick drains (the first ``n_cells`` cells:
    those past them are a sink no neuron reads)."""

    def __init__(self, n_neurons: int,
                 max_delay_ticks: int = MAX_DELAY_TICKS,
                 n_cells: Optional[int] = None) -> None:
        self.n_neurons = n_neurons
        self.n_cells = n_neurons if n_cells is None else n_cells
        self.max_delay_ticks = max_delay_ticks
        self.n_slots = max_delay_ticks + 1
        self.buffer = np.zeros((self.n_slots, n_neurons), dtype=float)
        self.current_tick = 0
        self.events_deferred = 0
        self.saturations = 0

    def add_input(self, target: int, weight: float, delay_ticks: int,
                  age: int = 0) -> None:
        """Accumulate ``weight`` for ``target``, ``delay_ticks`` after a
        send ``age`` ticks in the past (effective delay 0 = this tick)."""
        if not 0 <= target < self.n_neurons:
            raise IndexError("target %d outside population of %d neurons"
                             % (target, self.n_neurons))
        if not 1 <= delay_ticks <= self.max_delay_ticks:
            raise ValueError("delay %d outside 1..%d"
                             % (delay_ticks, self.max_delay_ticks))
        if not 0 <= age <= delay_ticks:
            raise ValueError("age %d outside 0..%d" % (age, delay_ticks))
        slot = (self.current_tick + delay_ticks - age) % self.n_slots
        self.buffer[slot, target] += weight
        self.events_deferred += 1

    def add_synapse(self, synapse: Synapse) -> None:
        self.add_input(synapse.target, synapse.weight, synapse.delay_ticks)

    def drain(self) -> np.ndarray:
        slot = self.current_tick % self.n_slots
        inputs = self.buffer[slot].copy()
        self.buffer[slot] = 0.0
        self.current_tick += 1
        for cell, charge in enumerate(inputs[:self.n_cells].tolist()):
            if charge > WEIGHT_SATURATION_NA:
                inputs[cell] = WEIGHT_SATURATION_NA
                self.saturations += 1
            elif charge < -WEIGHT_SATURATION_NA:
                inputs[cell] = -WEIGHT_SATURATION_NA
                self.saturations += 1
        return inputs

    def pending_charge(self) -> float:
        return float(np.sum(self.buffer))


# ----------------------------------------------------------------------
# One neuron at a time
# ----------------------------------------------------------------------
class ScalarLIF:
    """One leaky integrate-and-fire neuron: exponential-Euler towards
    the steady-state voltage, clamped at reset while refractory."""

    def __init__(self, parameters, timestep_ms: float = 1.0) -> None:
        self.p = parameters
        self.v = parameters.v_rest_mv
        self.synaptic_current = 0.0
        self.refractory_left = 0
        self.refractory_ticks = int(round(parameters.tau_refrac_ms
                                          / timestep_ms))
        self.alpha_m = math.exp(-timestep_ms / parameters.tau_m_ms)
        self.alpha_syn = math.exp(-timestep_ms / parameters.tau_syn_ms)

    def step(self, charge_na: float, bias_na: float) -> bool:
        p = self.p
        self.synaptic_current += charge_na
        v_infinity = p.v_rest_mv + p.r_m_mohm * (self.synaptic_current
                                                 + bias_na)
        v = v_infinity + (self.v - v_infinity) * self.alpha_m
        if self.refractory_left > 0:
            v = p.v_reset_mv
            self.refractory_left -= 1
        spiked = v >= p.v_threshold_mv
        if spiked:
            v = p.v_reset_mv
            self.refractory_left = self.refractory_ticks
        self.v = v
        self.synaptic_current *= self.alpha_syn
        return spiked


class ScalarIzhikevich:
    """One Izhikevich neuron: half-millisecond Euler sub-steps, then the
    after-spike reset ``v <- c, u <- u + d``."""

    def __init__(self, parameters, timestep_ms: float = 1.0) -> None:
        self.p = parameters
        self.timestep_ms = timestep_ms
        self.v = parameters.c
        self.u = parameters.b * parameters.c
        self.synaptic_current = 0.0

    def step(self, charge_na: float, bias_na: float) -> bool:
        p = self.p
        current = self.synaptic_current + charge_na + bias_na
        n_substeps = max(1, int(round(self.timestep_ms / 0.5)))
        dt = self.timestep_ms / n_substeps
        v, u = self.v, self.u
        for _ in range(n_substeps):
            v = v + dt * (0.04 * v * v + 5.0 * v + 140.0 - u + current)
            u = u + dt * (p.a * (p.b * v - u))
        spiked = v >= p.v_peak_mv
        if spiked:
            v = p.c
            u = u + p.d
        self.v, self.u = v, u
        self.synaptic_current = 0.0
        return spiked


# ----------------------------------------------------------------------
# The per-synapse STDP rule
# ----------------------------------------------------------------------
def stdp_update(mechanism, rows: Rows, pre_spikes: np.ndarray,
                post_spikes: np.ndarray) -> None:
    """One tick of additive pair-based STDP over ``Synapse`` objects.

    Drives ``mechanism``'s own traces, parameters and counters (a
    :class:`~repro.neuron.stdp.STDPMechanism`), replacing the frozen
    synapses of ``rows`` in place.
    """
    p = mechanism.parameters
    # Decay the traces first (they represent activity *before* this tick).
    mechanism.pre_trace *= mechanism._decay_plus
    mechanism.post_trace *= mechanism._decay_minus
    pre_indices = np.flatnonzero(pre_spikes)
    post_indices = np.flatnonzero(post_spikes)

    # Depression: pre-synaptic spike reads the post trace.
    for pre in pre_indices:
        row = rows.get(int(pre))
        if not row:
            continue
        modified = False
        for i, synapse in enumerate(row):
            trace = mechanism.post_trace[synapse.target]
            if trace <= 0.0:
                continue
            new_weight = max(p.w_min, synapse.weight - p.a_minus * trace)
            if new_weight != synapse.weight:
                row[i] = Synapse(synapse.target, new_weight,
                                 synapse.delay_ticks)
                mechanism.depression_events += 1
                modified = True
        if modified:
            mechanism.rows_modified += 1

    # Potentiation: post-synaptic spike reads the pre trace.
    post_spiking = set(int(i) for i in post_indices)
    if post_spiking:
        for pre, row in rows.items():
            trace = mechanism.pre_trace[pre]
            if trace <= 0.0 or not row:
                continue
            modified = False
            for i, synapse in enumerate(row):
                if synapse.target not in post_spiking:
                    continue
                new_weight = min(p.w_max, synapse.weight + p.a_plus * trace)
                if new_weight != synapse.weight:
                    row[i] = Synapse(synapse.target, new_weight,
                                     synapse.delay_ticks)
                    mechanism.potentiation_events += 1
                    modified = True
            if modified:
                mechanism.rows_modified += 1

    # Finally the spikes of this tick bump their own traces.
    mechanism.pre_trace[pre_indices] += 1.0
    mechanism.post_trace[post_indices] += 1.0


# ----------------------------------------------------------------------
# The host tick loop
# ----------------------------------------------------------------------
def reference_run(network: Network, duration_ms: float,
                  seed: Optional[int] = None
                  ) -> Tuple[SimulationResult, List[Rows]]:
    """``Network.run`` over object rows, the scalar ring and the object
    STDP rule.  Returns the result and every projection's (possibly
    learned) rows, in network order.

    Shares the neuron update (a one-lane :class:`StackedBlock` per
    population), the stimulus draws and the seed seams with the shipped
    loop — the parts under test are the expansion, the propagation and
    the plasticity rule.
    """
    effective_seed = network.seed if seed is None else seed
    rng = simulation_rng(effective_seed)
    n_ticks = int(round(duration_ms / network.timestep_ms))
    result = SimulationResult(duration_ms=duration_ms,
                              timestep_ms=network.timestep_ms)
    blocks, rings = {}, {}
    for population in network.populations:
        result.spike_counts[population.label] = np.zeros(population.size,
                                                         dtype=int)
        if population.record_spikes:
            result.spikes[population.label] = []
        if population.is_spike_source:
            continue
        blocks[population.label] = StackedBlock(
            [population.build_state(network.timestep_ms)])
        rings[population.label] = ScalarRing(population.size)
        if population.record_voltages:
            result.voltages[population.label] = np.zeros(
                (n_ticks, population.size))
    rows_by_projection = [
        build_rows(projection.connector, projection.pre.size,
                   projection.post.size, expansion_rng(effective_seed, index))
        for index, projection in enumerate(network.projections)]

    for tick in range(n_ticks):
        time_ms = tick * network.timestep_ms
        spikes_this_tick: Dict[str, np.ndarray] = {}
        for population in network.populations:
            if isinstance(population, SpikeSourcePoisson):
                spikes_this_tick[population.label] = \
                    population.spikes_for_tick(network.timestep_ms, rng)
            elif isinstance(population, SpikeSourceArray):
                spikes_this_tick[population.label] = \
                    population.spikes_for_tick(tick, network.timestep_ms)
        for population in network.populations:
            if population.is_spike_source:
                continue
            block = blocks[population.label]
            block.inject_synaptic_input(
                rings[population.label].drain().reshape(1, -1))
            bias = None
            if population.bias_current_na:
                bias = np.full((1, population.size),
                               population.bias_current_na)
            spikes_this_tick[population.label] = block.step(bias)[0]
            if population.record_voltages:
                result.voltages[population.label][tick] = \
                    block.lane_voltages(0)
        for population in network.populations:
            spiking = np.flatnonzero(spikes_this_tick[population.label])
            result.spike_counts[population.label][spiking] += 1
            if population.record_spikes:
                result.spikes[population.label].extend(
                    (time_ms, int(neuron)) for neuron in spiking)
        for projection, rows in zip(network.projections, rows_by_projection):
            ring = rings.get(projection.post.label)
            if ring is None:
                continue
            pre_spikes = spikes_this_tick[projection.pre.label]
            for neuron in np.flatnonzero(pre_spikes):
                for synapse in rows.get(int(neuron), ()):
                    ring.add_synapse(synapse)
            if projection.plasticity is not None:
                stdp_update(projection.plasticity, rows, pre_spikes,
                            spikes_this_tick[projection.post.label])
    return result, rows_by_projection


# ----------------------------------------------------------------------
# The mapping tool-chain, inline
# ----------------------------------------------------------------------
def expand_rows(network: Network, seed: Optional[int]) -> List[Rows]:
    """The literal expansion of every projection under ``seed``."""
    return [build_rows(projection.connector, projection.pre.size,
                       projection.post.size, expansion_rng(seed, index))
            for index, projection in enumerate(network.projections)]


def destinations_of(network: Network, expansion: List[Rows], placement,
                    vertex) -> Dict:
    """Chips (and the cores on them) that must receive ``vertex``'s spikes.

    A chip is a destination if any projection from the vertex's
    population has, in the literal ``expansion``, at least one synapse
    from a neuron in this vertex to a neuron placed there.
    """
    destinations: Dict = {}
    for projection, rows in zip(network.projections, expansion):
        if projection.pre.label != vertex.population_label:
            continue
        hit = {synapse.target
               for source in range(vertex.slice_start, vertex.slice_stop)
               for synapse in rows.get(source, ())}
        for target_vertex in placement.vertices_of(projection.post.label):
            if any(target_vertex.slice_start <= target
                   < target_vertex.slice_stop for target in hit):
                chip, core = placement.location_of(target_vertex)
                destinations.setdefault(chip, set()).add(core)
    return destinations


def install_routes(machine, network: Network, expansion: List[Rows],
                   placement, keys,
                   broadcast: bool = False) -> List[Tuple]:
    """Install one masked entry per chip of every source vertex's tree.

    Multicast trees reach exactly the destination chips; ``broadcast``
    floods every chip along a spanning tree and still delivers only to
    the destination cores (the bus-style AER baseline, left
    unminimised).  Returns the ``(source chip, base key)`` of every
    vertex that got a tree.
    """
    sources = []
    touched = set()
    all_chips = list(machine.geometry.all_chips())
    for vertex in placement.vertices:
        space = keys.key_space(vertex)
        source_chip, _ = placement.location_of(vertex)
        destinations = destinations_of(network, expansion, placement,
                                       vertex)
        if not destinations:
            continue
        sources.append((source_chip, space.base_key))
        tree = build_tree(machine, source_chip,
                          all_chips if broadcast else list(destinations))
        for chip, links in tree.items():
            cores = destinations.get(chip, set())
            if not links and not cores:
                continue
            machine.chips[chip].router.table.add_entry(RoutingEntry(
                key=space.base_key, mask=space.mask,
                link_directions=frozenset(links),
                processor_ids=frozenset(cores)))
            touched.add(chip)
    if not broadcast:
        for chip in touched:
            machine.chips[chip].router.table.minimise()
    return sources


def build_synaptic_matrices(machine, network: Network,
                            expansion: List[Rows], placement,
                            keys) -> Dict:
    """Pack every (source vertex -> destination core) block into SDRAM.

    Projection-major, then destination vertex, then source vertex: each
    source row is filtered down to the synapses landing on the core,
    targets rewritten to core-local numbering, packed and padded to the
    block's fixed stride.  Parallel projections (same two populations)
    share their source's key, so their rows go into one block, written
    at the first projection with synapses on the pair.  Returns the
    per-core data keyed by ``(chip, core)``.
    """
    def block_rows(projections, source, target):
        return [[Synapse(s.target - target.slice_start, s.weight,
                         s.delay_ticks)
                 for rows in projections for s in rows.get(neuron, ())
                 if target.slice_start <= s.target < target.slice_stop]
                for neuron in range(source.slice_start, source.slice_stop)]

    core_data = {location: CoreSynapticData(vertex=vertex)
                 for vertex, location in placement.locations.items()}
    for projection, rows in zip(network.projections, expansion):
        parallel = [other_rows for other, other_rows
                    in zip(network.projections, expansion)
                    if (other.pre.label, other.post.label)
                    == (projection.pre.label, projection.post.label)]
        for target in placement.vertices_of(projection.post.label):
            location = placement.location_of(target)
            data = core_data[location]
            chip = machine.chips[location[0]]
            for source in placement.vertices_of(projection.pre.label):
                space = keys.key_space(source)
                if (not any(block_rows([rows], source, target))
                        or any(entry.key == space.base_key
                               for entry in data.population_table.entries)):
                    continue
                block = block_rows(parallel, source, target)
                packed = [pack_row(row) for row in block]
                stride = max(len(words) for words in packed)
                region = chip.sdram.allocate(
                    4 * stride * len(packed),
                    tag="synapses:%s->%s" % (source, target))
                for row_index, words in enumerate(packed):
                    chip.sdram.write_block(
                        region.base + 4 * row_index * stride,
                        words + [0] * (stride - len(words)))
                    data.total_synapses += len(block[row_index])
                data.total_sdram_words += stride * len(packed)
                data.regions.append(region)
                data.population_table.add(PopulationTableEntry(
                    key=space.base_key, mask=space.mask,
                    sdram_address=region.base, row_stride_words=stride,
                    n_rows=len(packed)))
    return core_data


def inline_toolchain(machine, network: Network, *,
                     expansion_seed: Optional[int],
                     max_neurons_per_core: int = 8,
                     strategy: str = "locality", broadcast: bool = False,
                     fabric: bool = False):
    """Map ``network`` onto ``machine`` stage by stage.

    Returns ``(placement, keys, route_programs, core_data)``; the route
    programs (``fabric`` only) are walked from the installed, minimised
    tables.
    """
    placement = Placer(machine, max_neurons_per_core, strategy).place(network)
    keys = KeyAllocator(placement)
    expansion = expand_rows(network, expansion_seed)
    sources = install_routes(machine, network, expansion, placement, keys,
                             broadcast=broadcast)
    programs = ({key: compile_route(machine, chip, key)
                 for chip, key in sources} if fabric else {})
    core_data = build_synaptic_matrices(machine, network, expansion,
                                        placement, keys)
    return placement, keys, programs, core_data


# ----------------------------------------------------------------------
# The synaptic-matrix pass, one (source, target) vertex pair at a time
# ----------------------------------------------------------------------
def submatrix(csr, pre_start: int, pre_stop: int, post_start: int,
              post_stop: int) -> CSRMatrix:
    """Restrict ``csr`` to one (source-slice, target-slice) block.

    Source rows are renumbered from ``pre_start`` and target indices are
    rewritten into the target slice's local numbering, each row keeping
    its storage order.
    """
    lo, hi = int(csr.row_ptr[pre_start]), int(csr.row_ptr[pre_stop])
    targets = csr.targets[lo:hi]
    keep = (targets >= post_start) & (targets < post_stop)
    counts = np.bincount(csr.pre_index[lo:hi][keep] - pre_start,
                         minlength=pre_stop - pre_start)
    return CSRMatrix(pre_stop - pre_start, post_stop - post_start,
                     np.concatenate(([0], np.cumsum(counts))),
                     targets[keep] - post_start, csr.weights[lo:hi][keep],
                     csr.delay_ticks[lo:hi][keep])


def merge_rows(blocks: Sequence[CSRMatrix], n_post: int) -> CSRMatrix:
    """Merge blocks over the same source rows into one matrix: row ``i``
    holds every block's row ``i``, block by block, each in storage order."""
    n_pre = blocks[0].n_pre
    pre = np.concatenate([block.pre_index for block in blocks])
    order = np.argsort(pre, kind="stable")
    row_ptr = np.zeros(n_pre + 1, dtype=np.int64)
    row_ptr[1:] = np.cumsum(np.bincount(pre, minlength=n_pre))
    return CSRMatrix(n_pre, n_post, row_ptr,
                     np.concatenate([block.targets for block in blocks])[order],
                     np.concatenate([block.weights for block in blocks])[order],
                     np.concatenate([block.delay_ticks
                                     for block in blocks])[order])


def pack_csr_block(block) -> np.ndarray:
    """One CSR block as zero-padded ``(n_rows, stride)`` packed rows: per
    source row the synapse count, then the row's words in storage order."""
    counts = block.row_lengths()
    rows = np.zeros((block.n_pre, 1 + int(counts.max())), dtype=np.uint32)
    rows[:, 0] = counts
    column = 1 + np.arange(block.n_synapses) - block.row_ptr[block.pre_index]
    rows[block.pre_index, column] = pack_synapse_words(
        block.targets, block.weights, block.delay_ticks)
    return rows


def write_pair_block(chip, data: CoreSynapticData, space, source,
                     rows: np.ndarray) -> None:
    """Install one packed block on its own: allocate its region, write
    its words, add its population-table record and decode its leg from
    the words (so the leg carries the fixed-point quantisation)."""
    region = chip.sdram.allocate(
        4 * rows.size, tag="synapses:%s->%s" % (source, data.vertex))
    data.regions.append(region)
    chip.sdram.write_block(region.base, rows)
    data.population_table.add(PopulationTableEntry(
        key=space.base_key, mask=space.mask, sdram_address=region.base,
        row_stride_words=rows.shape[1], n_rows=rows.shape[0]))
    counts = rows[:, 0]
    data.total_synapses += int(counts.sum())
    data.total_sdram_words += rows.size
    keep = np.arange(rows.shape[1] - 1) < counts[:, None]
    data.legs[space.base_key] = CSRMatrix(
        rows.shape[0], data.vertex.n_neurons, np.append(0, np.cumsum(counts)),
        *unpack_synapse_words(rows[:, 1:][keep]))


class PerPairSynapticMatrices(BuildSynapticMatricesPass):
    """The synaptic-matrix pass with a per-pair reach and per-pair blocks.

    Reach is a per-source scan of every projection's rows; each block is
    its own ``submatrix`` of every projection with synapses on the pair,
    merged row by row and packed on its own, then decoded from the
    written words.  It keeps its own reach and block caches and has the
    shipped pass's name, so it drops into a ``MappingPipeline`` in place
    of :class:`BuildSynapticMatricesPass` (``reach_of`` / ``feeders_of``
    mirror the context's).
    """

    def __init__(self) -> None:
        self.tag = None
        #: projection index -> source vertex -> target vertices hit.
        self.reach: Dict[int, Dict] = {}
        self.blocks: Dict[Tuple, np.ndarray] = {}

    def run(self, ctx) -> None:
        ctx.ensure_reach()
        if self.tag != ctx.expansion_tag():
            self.tag, self.blocks = ctx.expansion_tag(), {}
            self.reach = {}
            for index, projection in enumerate(ctx.network.projections):
                csr = projection.compile_csr(ctx.expansion_seed, index)
                targets = ctx.partition[projection.post.label]
                starts = np.array([t.slice_start for t in targets])
                per_source = self.reach.setdefault(index, {})
                for source in ctx.partition[projection.pre.label]:
                    hit = csr.targets[int(csr.row_ptr[source.slice_start]):
                                      int(csr.row_ptr[source.slice_stop])]
                    if hit.size:
                        per_source[source] = dict.fromkeys(
                            targets[int(t)] for t in np.unique(
                                np.searchsorted(starts, hit, "right") - 1))
        if ctx.reach_rebuilt or not ctx.core_data:
            self._build_full(ctx)
        else:
            self._build_incremental(ctx)

    def has_block(self, index: int, source, target) -> bool:
        return target in self.reach.get(index, {}).get(source, {})

    def reach_of(self, vertex) -> Dict:
        merged: Dict = {}
        for per_source in self.reach.values():
            merged.update(per_source.get(vertex, {}))
        return merged

    def feeders_of(self, ctx) -> Dict:
        feeders: Dict = {}
        for index, projection in enumerate(ctx.network.projections):
            per_source = self.reach.get(index, {})
            for source in ctx.partition[projection.pre.label]:
                for target in per_source.get(source, {}):
                    feeders.setdefault(target, {})[source] = None
        return feeders

    def packed_block(self, ctx, source, target) -> np.ndarray:
        """Every projection's ``submatrix`` on (source, target), merged
        row by row in projection order and packed (cached per pair)."""
        if (source, target) not in self.blocks:
            parts = [submatrix(projection.compile_csr(ctx.expansion_seed,
                                                      index),
                               source.slice_start, source.slice_stop,
                               target.slice_start, target.slice_stop)
                     for index, projection
                     in enumerate(ctx.network.projections)
                     if self.has_block(index, source, target)]
            block = (parts[0] if len(parts) == 1
                     else merge_rows(parts, target.n_neurons))
            self.blocks[(source, target)] = pack_csr_block(block)
        return self.blocks[(source, target)]

    def _build_full(self, ctx) -> None:
        for slot, data in ctx.core_data.items():
            self._free_core(ctx, slot, data)
        locations = ctx.placement.locations
        ctx.core_data = {slot: CoreSynapticData(vertex=vertex)
                         for vertex, slot in locations.items()}
        for index, projection in enumerate(ctx.network.projections):
            for target in ctx.partition[projection.post.label]:
                for source in ctx.partition[projection.pre.label]:
                    if self.has_block(index, source, target):
                        self._write_pair(ctx, locations[target], source)
        ctx.last_scope[self.name] = "full (%s)" % self._scope(
            ctx.core_data.values())

    def _build_incremental(self, ctx) -> None:
        locations = ctx.placement.locations
        for slot, data in list(ctx.core_data.items()):
            if locations.get(data.vertex) != slot:
                self._free_core(ctx, slot, data)
                del ctx.core_data[slot]
        feeders = self.feeders_of(ctx)
        rebuilt = []
        for vertex in ctx.placement.vertices:
            slot = locations[vertex]
            if slot not in ctx.core_data:
                ctx.core_data[slot] = CoreSynapticData(vertex=vertex)
                for source in feeders.get(vertex, {}):
                    self._write_pair(ctx, slot, source)
                rebuilt.append(ctx.core_data[slot])
        ctx.last_scope[self.name] = self._scope(rebuilt)

    def _write_pair(self, ctx, slot, source) -> None:
        data = ctx.core_data[slot]
        space = ctx.keys.key_space(source)
        if space.base_key in data.legs:
            return    # a parallel projection's block: already merged in
        write_pair_block(ctx.machine.chips[slot[0]], data, space, source,
                         self.packed_block(ctx, source, data.vertex))
