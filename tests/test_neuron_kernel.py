"""Tests for the tick kernel (:mod:`repro.neuron.kernel`).

The kernel is Figure 7's timer task written once; the host loop, the
on-machine runtime and the board engine differ only in the set of units
they hand it.  What makes the three agree is pinned here: a kernel of N
units computes, cell for cell, what N one-unit kernels compute.
"""

from __future__ import annotations

import ast
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.neuron.izhikevich import IzhikevichParameters
from repro.neuron.kernel import SpikeRecord, SpikeTrain, TickKernel, TickUnit
from repro.neuron.lif import LIFParameters
from repro.neuron.population import (
    Population,
    SpikeSourceArray,
    SpikeSourcePoisson,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def populations():
    """Ragged LIF and Izhikevich populations (some biased), both source
    kinds: every path of the kernel."""
    quick = Population(19, LIFParameters(tau_m_ms=12.0, tau_refrac_ms=0.0),
                       label="k-quick")
    quick.bias_current_na = 1.8
    slow = Population(7, "lif", label="k-slow")
    burst = Population(11, IzhikevichParameters.chattering(),
                       label="k-burst")
    burst.bias_current_na = 6.0
    plain = Population(5, "izhikevich", label="k-plain")
    poisson = SpikeSourcePoisson(13, rate_hz=120.0, label="k-poisson")
    replay = SpikeSourceArray(
        [[float(t) for t in range(i % 4, 60, 5 + i)] for i in range(6)],
        label="k-replay")
    members = [quick, poisson, burst, slow, replay, plain]
    for population in members:
        population.record(spikes=True)
    return members


def units_of(members, slices, rng_of):
    """One unit per ``(population index, start, stop)`` slice."""
    return [TickUnit(members[i], start, stop, rng_of(i, start))
            for i, start, stop in slices]


def own_rng(i, start):
    return np.random.default_rng([7, i, start])


def fired_by_unit(units, cells):
    """One step's fired cells as ``{unit: local indices}``, each unit's
    in the order the step returned them (``units`` in cell order)."""
    owner = np.searchsorted([unit.cell for unit in units], cells,
                            side="right") - 1
    return {units[i]: cells[owner == i] - units[i].cell
            for i in np.unique(owner).tolist()}


#: Every population split in two, as a partitioner would place it.
SLICES = [(0, 0, 10), (0, 10, 19), (1, 0, 8), (1, 8, 13), (2, 0, 11),
          (3, 0, 3), (3, 3, 7), (4, 0, 2), (4, 2, 6), (5, 0, 5)]


def drive(kernels, units, rng, fixed_point):
    """Add one tick's random charge onto every unit, the same whatever
    the kernel(s) the units live in, at ring offsets ``delay * width +
    column`` as an engine addresses its ring: float weights in element
    order, fixed-point ones through the pre-summing rule."""
    for kernel, unit in zip(kernels, units):
        n = int(rng.integers(0, 40))
        targets = rng.integers(0, unit.n_neurons, size=n)
        delays = rng.integers(1, 17, size=n)
        ring = kernel.ring
        if fixed_point:
            weights = rng.integers(-30, 90, size=n) / 16.0
            add = ring.add_fixed_point
        else:
            weights = rng.uniform(-1.5, 5.0, size=n)
            add = ring.add_events
        add(delays * ring.width + kernel.columns(unit)[targets], weights)


class TestUnitIndependence:
    @pytest.mark.parametrize("fixed_point", [False, True],
                             ids=["add_events", "add_fixed_point"])
    def test_one_kernel_of_n_units_equals_n_one_unit_kernels(self,
                                                             fixed_point):
        members = populations()
        together_record = SpikeRecord(duration_ms=0.0)
        together_record.track(members)
        together_units = units_of(members, SLICES, own_rng)
        together = TickKernel(together_units, 1.0, together_record)
        apart_record = SpikeRecord(duration_ms=0.0)
        apart_record.track(members)
        apart_units = units_of(members, SLICES, own_rng)
        apart = [TickKernel([unit], 1.0, apart_record)
                 for unit in apart_units]

        rng_a, rng_b = (np.random.default_rng(3) for _ in range(2))
        fired_total = 0
        for tick in range(200):
            fired = fired_by_unit(together_units, together.step(tick))
            for unit, twin, kernel in zip(together_units, apart_units,
                                          apart):
                expected = fired_by_unit([twin], kernel.step(tick)).get(twin)
                got = fired.get(unit)
                if expected is None:
                    assert got is None
                else:
                    assert np.array_equal(got, expected)
                    fired_total += expected.size
                if not unit.population.is_spike_source:
                    assert np.array_equal(together.voltages(unit),
                                          kernel.voltages(twin))
            drive([together] * len(together_units), together_units, rng_a,
                  fixed_point)
            drive(apart, apart_units, rng_b, fixed_point)
        assert fired_total > 500
        together_record.flush()
        apart_record.flush()
        for label, counts in together_record.spike_counts.items():
            assert counts.sum() > 0, label
            assert np.array_equal(counts, apart_record.spike_counts[label])
            assert sorted(together_record.spikes[label]) \
                == sorted(apart_record.spikes[label])

    def test_ring_layout_is_lane_major_with_a_trailing_sink(self):
        members = populations()
        units = units_of(members, SLICES, own_rng)
        kernel = TickKernel(units, 1.0, SpikeRecord(duration_ms=0.0))
        seen = set()
        for unit in units:
            columns = kernel.columns(unit)
            assert columns.shape == (unit.n_neurons,)
            if unit.population.is_spike_source:
                assert (columns == kernel.sink).all()
            else:
                assert not seen.intersection(columns.tolist())
                assert columns.max() < kernel.sink
                seen.update(columns.tolist())
        assert kernel.ring.width == kernel.sink + 1

    def test_a_kernel_without_sources_has_no_sink_column(self):
        member = Population(9, "lif", label="k-alone")
        unit = TickUnit(member, 0, 9, own_rng(0, 0))
        kernel = TickKernel([unit], 1.0, SpikeRecord(duration_ms=0.0))
        assert kernel.ring.width == 9


class TestStimulus:
    @staticmethod
    def run(prefetch, rng_of):
        members = populations()
        record = SpikeRecord(duration_ms=0.0)
        record.track(members)
        units = units_of(members, SLICES, rng_of)
        kernel = TickKernel(units, 1.0, record)
        fired = []
        for tick in range(90):
            if tick in prefetch:
                kernel.prefetch_sources(prefetch[tick])
            fired.append(kernel.step(tick).tolist())
        record.flush()
        return fired, record.spikes

    def test_block_draws_change_nothing(self):
        """One ``random((k, n))`` per source is its k per-tick draws when
        every source owns its generator, as on a core or a board."""
        plain = self.run({}, own_rng)
        ahead = self.run({0: 59, 30: 40, 70: 85}, own_rng)
        assert plain == ahead
        assert sum(len(spikes) for spikes in plain[1].values()) > 0

    def test_next_source_tick_marks_the_first_undrawn_tick(self):
        """A step draws its own tick if it is not drawn yet; a prefetch
        draws through its tick and never back."""
        units = units_of(populations(), SLICES, own_rng)
        kernel = TickKernel(units, 1.0, SpikeRecord(duration_ms=0.0))
        assert kernel.next_source_tick == 0
        kernel.step(0)
        assert kernel.next_source_tick == 1
        kernel.prefetch_sources(9)
        assert kernel.next_source_tick == 10
        kernel.prefetch_sources(4)
        assert kernel.next_source_tick == 10
        for tick in range(1, 12):
            kernel.step(tick)
        assert kernel.next_source_tick == 12

    def test_a_shared_generator_is_drawn_one_tick_at_a_time(self):
        """Sources sharing one generator, as on the host, interleave
        their draws per tick, so a block draw would move spikes: the
        kernel refuses it."""
        def shared():
            one = np.random.default_rng(5)
            return lambda i, start: one

        plain = self.run({}, shared())
        assert self.run({tick: tick for tick in range(90)},
                        shared()) == plain
        with pytest.raises(AssertionError):
            self.run({0: 59}, shared())

    def test_charge_aimed_at_a_source_lands_nowhere(self):
        """Charge addressed to a source's neurons reaches the sink
        column, which no unit reads: the kernel steps exactly like a twin
        that never received it."""
        def kernel_of():
            units = units_of(populations(), SLICES, own_rng)
            return TickKernel(units, 1.0, SpikeRecord(duration_ms=0.0)), units

        (hit, units), (twin, twin_units) = kernel_of(), kernel_of()
        source = next(unit for unit in units
                      if unit.population.is_spike_source)
        hit.ring.add_events(hit.ring.width + hit.columns(source),
                            np.full(source.n_neurons, 5000.0))
        assert hit.ring.pending_charge() > 0.0
        for tick in range(20):
            assert np.array_equal(hit.step(tick), twin.step(tick))
            for unit, other in zip(units, twin_units):
                if not unit.population.is_spike_source:
                    assert np.array_equal(hit.voltages(unit),
                                          twin.voltages(other))


class TestSpikeRecord:
    def test_flushes_append_in_time_order(self):
        """Reading ``spikes`` after a flush and then running on appends
        the later ticks behind the earlier ones."""
        def run(flush_at):
            members = populations()
            record = SpikeRecord(duration_ms=0.0)
            record.track(members)
            kernel = TickKernel(units_of(members, SLICES, own_rng), 1.0,
                                record)
            seen = {}
            for tick in range(60):
                kernel.step(tick)
                if tick in flush_at:
                    record.flush()
                    seen[tick] = {label: list(spikes) for label, spikes
                                  in record.spikes.items()}
            record.flush()
            return record, seen

        once, _ = run(())
        twice, seen = run((19, 39))
        assert twice.spikes == once.spikes
        assert once.total_spikes() > 100
        for label, spikes in once.spikes.items():
            times = [time for time, _ in spikes]
            assert times == sorted(times), label
            for tick, snapshot in seen.items():
                assert snapshot[label] == [pair for pair in spikes
                                           if pair[0] <= tick]

    def test_a_label_records_its_units_in_unit_order_each_tick(self):
        """Several units per label, sources and both models interleaved,
        a label's units out of slice order: within every tick, a label's
        spikes are its units' in unit order, each ascending — what one
        stable sort by label code at flush keeps."""
        scrambled = [(0, 10, 19), (2, 0, 11), (1, 8, 13), (3, 3, 7),
                     (0, 0, 10), (4, 2, 6), (1, 0, 8), (5, 0, 5),
                     (3, 0, 3), (4, 0, 2)]
        members = populations()
        record = SpikeRecord(duration_ms=0.0)
        record.track(members)
        units = units_of(members, scrambled, own_rng)
        kernel = TickKernel(units, 1.0, record)
        expected = {member.label: [] for member in members}
        rng = np.random.default_rng(8)
        for tick in range(120):
            drive([kernel] * len(units), units, rng, False)
            fired = fired_by_unit(units, kernel.step(tick))
            for unit in units:
                spiking = fired.get(unit, np.zeros(0, dtype=int))
                assert np.array_equal(spiking, np.sort(spiking))
                expected[unit.population.label].extend(
                    (float(tick), neuron)
                    for neuron in (spiking + unit.slice_start).tolist())
        record.flush()
        for label, pairs in expected.items():
            assert len(pairs) > 10, label
            assert record.spikes[label] == pairs, label
        # Some tick records a label's later slice before its earlier one.
        quick = expected["k-quick"]
        assert any(a[0] == b[0] and a[1] > b[1]
                   for a, b in zip(quick, quick[1:]))

    def test_unrecorded_populations_keep_counts_only(self):
        quiet = Population(4, "lif", label="k-quiet")
        record = SpikeRecord(duration_ms=1000.0)
        record.track([quiet])
        code = record.label_code("k-quiet")
        record.add(0.0, np.array([code, code]), np.array([1, 3]))
        record.add(1.0, np.array([code]), np.array([3]))
        record.flush()
        assert record.spikes == {}
        assert record.spike_counts["k-quiet"].tolist() == [0, 1, 0, 2]
        assert record.total_spikes() == record.total_spikes("k-quiet") == 3
        assert record.mean_rate_hz("k-quiet") == pytest.approx(0.75)
        with pytest.raises(KeyError, match="k-quiet"):
            record.total_spikes("missing")


class TestSpikeTrain:
    """A train is arrays underneath and the list of ``(time_ms, neuron)``
    pairs it replaced on top."""

    PAIRS = [(0.0, 3), (1.0, 0), (1.0, 7), (4.0, 2)]

    @staticmethod
    def train(pairs=PAIRS):
        return SpikeTrain([time for time, _ in pairs],
                          [neuron for _, neuron in pairs])

    def test_compares_equal_to_its_pair_list_both_ways(self):
        train = self.train()
        assert train == self.PAIRS
        assert self.PAIRS == train
        assert not train != self.PAIRS
        assert train != self.PAIRS[:-1]
        assert self.PAIRS[::-1] != train
        assert train == self.train()
        assert SpikeTrain() == [] and [] == SpikeTrain()
        assert {"a": train, "b": SpikeTrain()} == {"a": self.PAIRS,
                                                    "b": []}
        assert {"a": self.PAIRS} == {"a": self.train()}
        assert {"a": train} != {"a": self.train(self.PAIRS[1:])}

    def test_reads_like_a_list(self):
        train = self.train()
        assert len(train) == 4 and bool(train) and not SpikeTrain()
        assert train[1] == (1.0, 0)
        assert type(train[1][0]) is float and type(train[1][1]) is int
        assert train[-1] == (4.0, 2)
        assert train[1:3] == self.PAIRS[1:3]
        assert isinstance(train[1:3], SpikeTrain)
        assert list(train) == self.PAIRS
        assert sorted(train, key=lambda pair: pair[1]) == sorted(
            self.PAIRS, key=lambda pair: pair[1])
        assert sorted(self.train(self.PAIRS[::-1])) == self.PAIRS
        assert (1.0, 7) in train

    def test_is_an_n_by_2_float_array(self):
        pairs = np.asarray(self.train(), dtype=np.float64).reshape(-1, 2)
        assert pairs.dtype == np.float64
        assert pairs.tolist() == [list(pair) for pair in self.PAIRS]
        empty = np.asarray(SpikeTrain(), dtype=np.float64).reshape(-1, 2)
        assert empty.shape == (0, 2) and empty.dtype == np.float64
        assert np.asarray(self.train()).shape == (4, 2)
        assert np.asarray(self.train(), dtype=np.int64)[:, 1].tolist() \
            == [3, 0, 7, 2]

    def test_pickles_as_its_two_arrays(self):
        train = self.train()
        back = pickle.loads(pickle.dumps(train))
        assert isinstance(back, SpikeTrain) and back == train
        assert back.times_ms.dtype == np.float64
        assert back.neurons.dtype == np.int64
        assert np.array_equal(back.times_ms, train.times_ms)
        assert np.array_equal(back.neurons, train.neurons)

    def test_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(self.train())


class TestOneTickBody:
    """The timer task exists once: nothing outside the kernel module
    builds neuron state, injects ring input or draws stimulus."""

    KERNEL_ONLY = {"inject_synaptic_input", "build_state", "stimulus_spikes"}

    def test_only_the_kernel_calls_the_tick_primitives(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            if path.name == "kernel.py" and path.parent.name == "neuron":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                function = node.func
                name = (function.attr if isinstance(function, ast.Attribute)
                        else getattr(function, "id", None))
                if name in self.KERNEL_ONLY:
                    offenders.append("%s:%d %s(" % (
                        path.relative_to(SRC), node.lineno, name))
        assert not offenders, offenders

    def test_only_the_kernel_drains_a_ring(self):
        # (``repro.service`` drains leases, not rings.)
        drains = [str(path.relative_to(SRC))
                  for path in sorted(SRC.rglob("*.py"))
                  if "service" not in path.parts
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "drain"]
        assert drains == ["repro/neuron/kernel.py"]

    def test_spike_trains_are_built_by_the_record_and_the_merge_only(self):
        """One record: only the recorder and the shard merge make a
        :class:`SpikeTrain`, and nothing re-sorts a train per spike."""
        builders, resorts = set(), []
        for path in sorted(SRC.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                function = node.func
                name = (function.attr if isinstance(function, ast.Attribute)
                        else getattr(function, "id", None))
                if name == "SpikeTrain":
                    builders.add(str(path.relative_to(SRC)))
                elif (name == "sort"
                      and any(k.arg == "key" for k in node.keywords)
                      and any(word in ast.unparse(function.value).lower()
                              for word in ("spike", "train"))):
                    resorts.append("%s:%d" % (path.relative_to(SRC),
                                              node.lineno))
        assert builders == {"repro/neuron/kernel.py",
                            "repro/runtime/application.py"}
        assert not resorts, resorts
