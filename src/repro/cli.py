"""Command-line interface to the SpiNNaker reproduction.

The CLI is a thin layer over the library: each subcommand builds the same
objects a script would and prints a concise textual report.  It is the
quickest way to sanity-check an installation::

    spinnaker-repro info                      # machine-scale arithmetic
    spinnaker-repro boot --width 8 --height 8 # run the boot protocol
    spinnaker-repro codes                     # NRZ vs RTZ link codes
    spinnaker-repro run --duration 200        # a small SNN on the machine
    spinnaker-repro saturation --width 48     # lightly-loaded-regime check
    spinnaker-repro alloc demo --jobs 40      # multi-tenant job stream
    spinnaker-repro alloc policies            # compare placement policies
    spinnaker-repro compile report --chips 16 # mapping-compiler pass report

All output goes to stdout; the exit status is zero unless a subcommand
fails (for example a boot in which chips stay dead).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from typing import List, Optional, Sequence

from repro.alloc.partition import PLACEMENT_POLICIES
from repro.alloc.scheduler import AllocationScheduler
from repro.alloc.workload import JobStreamConfig, run_job_stream
from repro.analysis.congestion import congestion_report, saturation_injection_rate
from repro.core.machine import MachineConfig, SpiNNakerMachine
from repro.fault.injection import FaultInjector
from repro.energy.cost import OwnershipCostModel
from repro.mapping.placement import PlacementError
from repro.energy.model import EnergyModel, MachineScaleModel
from repro.link.codes import LinkPerformanceModel
from repro.neuron.connectors import FixedProbabilityConnector
from repro.neuron.network import Network
from repro.neuron.population import Population, SpikeSourcePoisson
from repro.profile import perf_now
from repro.runtime.application import NeuralApplication
from repro.runtime.boot import BootController

__all__ = ["main", "build_parser"]


def _print_table(rows: Sequence[Sequence[str]], header: Sequence[str]) -> None:
    """Print a small fixed-width table (no external dependencies)."""
    widths = [max(len(str(row[column])) for row in [header, *rows])
              for column in range(len(header))]
    def render(row: Sequence[str]) -> str:
        return "  ".join(str(cell).ljust(width)
                         for cell, width in zip(row, widths))
    print(render(header))
    print(render(["-" * width for width in widths]))
    for row in rows:
        print(render(row))


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_info(_args: argparse.Namespace) -> int:
    """Print the machine-scale and cost-effectiveness headline numbers."""
    scale = MachineScaleModel()
    comparison = EnergyModel().comparison()
    ownership = OwnershipCostModel.ownership_comparison()
    print("SpiNNaker full-machine scale (Section 6):")
    for key, value in scale.summary().items():
        print("  %-22s %g" % (key, value))
    print("\nEmbedded vs desktop processors (Section 2):")
    for key, value in comparison.items():
        print("  %-28s %.2f" % (key, value))
    print("\nOwnership cost over three years (Section 3.3):")
    for key, value in ownership.items():
        print("  %-28s %.2f" % (key, value))
    return 0


def cmd_boot(args: argparse.Namespace) -> int:
    """Boot a machine and report the result of the boot protocol."""
    machine = SpiNNakerMachine(MachineConfig(width=args.width,
                                             height=args.height,
                                             cores_per_chip=args.cores))
    result = BootController(machine, seed=args.seed).boot()
    print("Booted %dx%d machine (%d chips, %d cores/chip)"
          % (args.width, args.height, result.n_chips, args.cores))
    print("  booted unaided:      %d" % result.chips_booted_unaided)
    print("  repaired by nn:      %d" % result.chips_repaired)
    print("  dead:                %d" % result.chips_dead)
    print("  monitors elected:    %d" % result.monitors_elected)
    print("  p2p tables built:    %d" % result.p2p_tables_configured)
    print("  boot complete at:    %.1f us" % result.boot_complete_time_us)
    return 0 if result.all_chips_operational else 1


def cmd_codes(_args: argparse.Namespace) -> int:
    """Compare the 2-of-7 NRZ and 3-of-6 RTZ link codes (Section 5.1)."""
    model = LinkPerformanceModel()
    comparison = model.comparison()
    rows = [
        ["transitions / 4-bit symbol",
         "%.0f" % comparison["nrz_transitions_per_symbol"],
         "%.0f" % comparison["rtz_transitions_per_symbol"]],
        ["throughput ratio (NRZ/RTZ)",
         "%.2f" % comparison["throughput_ratio_nrz_over_rtz"], ""],
        ["energy ratio (NRZ/RTZ)",
         "%.2f" % comparison["energy_ratio_nrz_over_rtz"], ""],
    ]
    _print_table(rows, header=["metric", "2-of-7 NRZ", "3-of-6 RTZ"])
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """Map a small random SNN onto a machine and run it in simulated real time."""
    machine = SpiNNakerMachine(MachineConfig(width=args.width,
                                             height=args.height,
                                             cores_per_chip=args.cores))
    BootController(machine, seed=args.seed).boot()

    network = Network(seed=args.seed)
    stimulus = SpikeSourcePoisson(args.neurons, rate_hz=args.rate,
                                  label="stimulus")
    excitatory = Population(args.neurons, "lif", label="excitatory")
    excitatory.record(spikes=True)
    network.connect(stimulus, excitatory,
                    FixedProbabilityConnector(p_connect=0.15, weight=0.8,
                                              delay_range=(1, 4)))
    application = NeuralApplication(machine, network,
                                    max_neurons_per_core=args.neurons_per_core,
                                    seed=args.seed)
    result = application.run(args.duration)

    print("Ran %d+%d neurons for %.0f ms on a %dx%d machine"
          % (args.neurons, args.neurons, args.duration,
             args.width, args.height))
    print("  spikes (excitatory): %d" % result.total_spikes("excitatory"))
    print("  mean rate:           %.1f Hz" % result.mean_rate_hz("excitatory"))
    print("  packets sent:        %d" % result.packets_sent)
    print("  packets dropped:     %d" % result.packets_dropped)
    print("  mean delivery:       %.1f us" % result.mean_delivery_latency_us())
    print("  worst delivery:      %.1f us" % result.max_delivery_latency_us())
    report = congestion_report(machine)
    print("  peak link load:      %.1f %%" % (100.0 * report.peak_utilisation))
    print("  lightly loaded:      %s" % ("yes" if report.lightly_loaded else "no"))
    return 0 if result.packets_dropped == 0 else 1


def cmd_saturation(args: argparse.Namespace) -> int:
    """Report the per-core injection rate at which the torus saturates."""
    rate = saturation_injection_rate(args.width, args.height,
                                     cores_per_chip=args.cores)
    biological = args.neurons_per_core * args.mean_rate / 1000.0
    print("Torus %dx%d, %d cores/chip:" % (args.width, args.height, args.cores))
    print("  saturation injection rate: %.1f packets/ms per core" % rate)
    print("  biological requirement:    %.1f packets/ms per core"
          % biological)
    headroom = rate / biological if biological > 0 else float("inf")
    print("  headroom factor:           %.1fx" % headroom)
    return 0 if headroom >= 1.0 else 1


def _alloc_machine(args: argparse.Namespace) -> SpiNNakerMachine:
    """Build the demo machine, optionally with whole-chip faults."""
    machine = SpiNNakerMachine(MachineConfig(width=args.width,
                                             height=args.height,
                                             cores_per_chip=args.cores))
    if args.fault_chips > 0:
        injector = FaultInjector(machine, seed=args.seed)
        chips = sorted(machine.chips, key=lambda c: (c.y, c.x))
        for coordinate in injector.rng.sample(chips, args.fault_chips):
            for core in machine.chips[coordinate].cores:
                injector.fail_core(coordinate, core.core_id)
    return machine


def _alloc_stream_config(args: argparse.Namespace) -> JobStreamConfig:
    return JobStreamConfig(n_jobs=args.jobs,
                           mean_interarrival_ms=args.interarrival,
                           mean_hold_ms=args.hold,
                           min_side=args.min_side, max_side=args.max_side,
                           tenants=tuple("tenant-%d" % i
                                         for i in range(args.tenants)),
                           seed=args.seed)


def cmd_alloc(args: argparse.Namespace) -> int:
    """Dispatch the ``alloc`` subcommand group."""
    if args.alloc_command == "serve":
        return cmd_alloc_serve(args)
    if args.alloc_command == "client":
        return cmd_alloc_client(args)
    if not 0 <= args.fault_chips <= args.width * args.height:
        print("error: --fault-chips must lie in [0, %d] for a %dx%d machine"
              % (args.width * args.height, args.width, args.height))
        return 2
    if args.min_side < 1 or args.max_side < args.min_side:
        print("error: job sizes need 1 <= --min-side <= --max-side")
        return 2
    if args.jobs < 1 or args.tenants < 1:
        print("error: --jobs and --tenants must be at least 1")
        return 2
    if args.interarrival <= 0 or args.hold <= 0:
        print("error: --interarrival and --hold must be positive")
        return 2
    if args.alloc_command == "demo":
        return cmd_alloc_demo(args)
    return cmd_alloc_policies(args)


def cmd_alloc_serve(args: argparse.Namespace) -> int:
    """Run the HTTP/JSON allocation service until stopped."""
    from repro.service import (AllocationService, BackpressureConfig,
                               ENDPOINTS)

    if args.width < 1 or args.height < 1:
        print("error: machine dimensions must be positive")
        return 2
    service = AllocationService.build(
        width=args.width, height=args.height, cores_per_chip=args.cores,
        host=args.host, port=args.port, time_scale=args.time_scale,
        backpressure=BackpressureConfig(max_queue_depth=args.max_queue_depth))
    service.start()
    print("Allocation service: %dx%d machine at %s (queue limit %d, "
          "time scale %gx)" % (args.width, args.height, service.url,
                               args.max_queue_depth, args.time_scale))
    _print_table([[method, path, response] for method, path, _request,
                  response, _label in ENDPOINTS],
                 header=["method", "path", "response"])
    try:
        if args.duration > 0:
            time.sleep(args.duration)
        else:
            print("serving until interrupted (Ctrl-C) ...")
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        print("\ninterrupt: draining ...")
    drained = service.stop()
    summary = service.scheduler.stats.summary()
    print("Served %.1f s:" % service.runtime.uptime_s)
    for key in ("submitted", "scheduled", "rejected", "freed", "expired"):
        print("  %-22s %g" % (key, summary[key]))
    print("  %-22s %s" % ("drained cleanly", drained))
    return 0 if drained else 1


def cmd_alloc_client(args: argparse.Namespace) -> int:
    """Drive sessionful jobs against a service (embedded by default)."""
    from repro.service import (AllocationService, ServiceBusy, ServiceClient,
                               ServiceClientError)

    if args.jobs < 1 or args.tenants < 1:
        print("error: --jobs and --tenants must be at least 1")
        return 2
    service = None
    url = args.url
    if url is None:
        service = AllocationService.build(width=args.width,
                                          height=args.height).start()
        url = service.url
        print("started an embedded service at %s" % url)

    rows = []
    failures = 0
    clients = [ServiceClient(url, tenant="tenant-%d" % index)
               for index in range(args.tenants)]
    try:
        for number in range(args.jobs):
            client = clients[number % args.tenants]
            started = perf_now()
            try:
                with client.session(args.side, args.side,
                                    keepalive_ms=args.keepalive_ms) as run:
                    ready = run.wait_ready(timeout_s=10.0)
                    elapsed_ms = (perf_now() - started) * 1000.0
                    rows.append([str(ready["job_id"]), client.tenant,
                                 ready["lease"], "%.1f" % elapsed_ms,
                                 "%.2f" % ready["wait_ms"]])
            except (ServiceBusy, ServiceClientError, TimeoutError) as error:
                failures += 1
                rows.append(["-", client.tenant, "failed: %s" % error,
                             "-", "-"])
        metrics = clients[0].metrics()
    finally:
        for client in clients:
            client.close()
        if service is not None:
            service.stop()
    print("Ran %d sessionful %dx%d jobs over %d tenants:"
          % (args.jobs, args.side, args.side, args.tenants))
    _print_table(rows, header=["job", "tenant", "lease", "ready ms",
                               "queue wait ms"])
    create = metrics["requests"].get("create", {})
    print("  create p50/p99:      %.2f / %.2f ms"
          % (create.get("p50_ms", 0.0), create.get("p99_ms", 0.0)))
    print("  failures:            %d" % failures)
    return 0 if failures == 0 else 1


def cmd_alloc_demo(args: argparse.Namespace) -> int:
    """Run one synthetic multi-tenant job stream and report the outcome."""
    machine = _alloc_machine(args)
    scheduler = AllocationScheduler(machine, policy=args.policy)
    summary = run_job_stream(scheduler, _alloc_stream_config(args))
    print("Allocation demo: %dx%d machine, %d jobs, policy %s, %d faulty "
          "chips" % (args.width, args.height, args.jobs, args.policy,
                     args.fault_chips))
    for key in ("submitted", "scheduled", "rejected", "skips_quota",
                "skips_capacity", "mean_wait_ms", "peak_fragmentation",
                "peak_chips_in_use", "jobs_per_simulated_s"):
        print("  %-22s %g" % (key, summary[key]))
    leaked = scheduler.partitioner.leased_area
    print("  %-22s %g" % ("chips_still_leased", leaked))
    return 0 if leaked == 0 else 1


def cmd_alloc_policies(args: argparse.Namespace) -> int:
    """Run the same job stream under every placement policy."""
    rows = []
    for policy in PLACEMENT_POLICIES:
        machine = _alloc_machine(args)
        scheduler = AllocationScheduler(machine, policy=policy)
        summary = run_job_stream(scheduler, _alloc_stream_config(args))
        rows.append([policy, "%d" % summary["scheduled"],
                     "%d" % summary["skips_capacity"],
                     "%.2f" % summary["mean_wait_ms"],
                     "%.3f" % summary["peak_fragmentation"],
                     "%.1f" % summary["jobs_per_simulated_s"]])
    print("Placement-policy comparison (%dx%d machine, %d jobs, %d faulty "
          "chips):" % (args.width, args.height, args.jobs, args.fault_chips))
    _print_table(rows, header=["policy", "scheduled", "capacity skips",
                               "mean wait ms", "peak frag", "jobs/s"])
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    """Dispatch the ``compile`` subcommand group (currently: report)."""
    if args.chips < 4 or args.neurons < 8:
        print("error: need --chips >= 4 and --neurons >= 8")
        return 2
    width, height = _transport_mesh(args.chips)
    machine = SpiNNakerMachine(MachineConfig(width=width, height=height,
                                             cores_per_chip=args.cores))
    BootController(machine, seed=args.seed).boot()
    application = NeuralApplication(machine, _transport_network(args),
                                    max_neurons_per_core=args.neurons_per_core,
                                    seed=args.seed)
    try:
        application.prepare()
    except PlacementError as error:
        print("error: %s — grow --chips/--cores or --neurons-per-core, or "
              "shrink --neurons" % (error,))
        return 2
    pipeline = application.pipeline

    remapped = 0
    if args.condemn > 0:
        from repro.runtime.monitor import MonitorService
        monitor = MonitorService(machine)
        monitor.attach_application(application)
        for _ in range(args.condemn):
            used = application.placement.chips_used()
            if len(used) <= 1:
                break
            try:
                monitor.condemn_chip(used[-1])
            except PlacementError as error:
                print("note: stopped condemning after %d chip(s): %s"
                      % (remapped, error))
                break
            remapped += 1

    rows = [[row["pass"], "%d" % row["runs"], "%d" % row["cache_hits"],
             "%.0f%%" % (100.0 * row["hit_rate"]), row["last_scope"],
             "%.2f" % row["last_ms"], "%.2f" % row["total_ms"]]
            for row in pipeline.report()]
    print("Mapping-compiler report: %dx%d machine (%d chips), %d+%d "
          "neurons, %d condemnation(s)"
          % (width, height, width * height, args.neurons, args.neurons,
             remapped))
    _print_table(rows, header=["pass", "runs", "hits", "hit rate",
                               "last scope", "last ms", "total ms"])
    print()
    for key, value in pipeline.summary().items():
        print("  %-26s %g" % (key, value))
    return 0


def _transport_mesh(chips: int) -> tuple:
    """Pick a near-square (width, height) covering at least ``chips``."""
    width = max(2, int(math.isqrt(max(chips, 4))))
    height = max(2, -(-chips // width))
    return width, height


def _transport_network(args: argparse.Namespace) -> "Network":
    network = Network(seed=args.seed)
    stimulus = SpikeSourcePoisson(args.neurons, rate_hz=args.rate,
                                  label="stimulus")
    excitatory = Population(args.neurons, "lif", label="excitatory")
    excitatory.record(spikes=True)
    network.connect(stimulus, excitatory,
                    FixedProbabilityConnector(p_connect=0.1, weight=1.0,
                                              delay_range=(1, 8)))
    network.connect(excitatory, excitatory,
                    FixedProbabilityConnector(p_connect=0.02, weight=0.2,
                                              delay_range=(1, 16)))
    return network


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for the tests)."""
    parser = argparse.ArgumentParser(
        prog="spinnaker-repro",
        description="SpiNNaker architecture reproduction (Furber & Brown, "
                    "DATE 2011)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("info", help="machine-scale headline numbers")

    boot = subparsers.add_parser("boot", help="boot a simulated machine")
    boot.add_argument("--width", type=int, default=8)
    boot.add_argument("--height", type=int, default=8)
    boot.add_argument("--cores", type=int, default=18)
    boot.add_argument("--seed", type=int, default=1)

    subparsers.add_parser("codes", help="compare the inter-chip link codes")

    run = subparsers.add_parser("run", help="run a small SNN on the machine")
    run.add_argument("--width", type=int, default=4)
    run.add_argument("--height", type=int, default=4)
    run.add_argument("--cores", type=int, default=8)
    run.add_argument("--neurons", type=int, default=100)
    run.add_argument("--neurons-per-core", type=int, default=32)
    run.add_argument("--rate", type=float, default=60.0)
    run.add_argument("--duration", type=float, default=100.0)
    run.add_argument("--seed", type=int, default=7)

    saturation = subparsers.add_parser(
        "saturation", help="lightly-loaded-regime headroom check")
    saturation.add_argument("--width", type=int, default=48)
    saturation.add_argument("--height", type=int, default=48)
    saturation.add_argument("--cores", type=int, default=20)
    saturation.add_argument("--neurons-per-core", type=int, default=1000)
    saturation.add_argument("--mean-rate", type=float, default=10.0)

    alloc = subparsers.add_parser(
        "alloc", help="multi-tenant machine allocation")
    alloc_sub = alloc.add_subparsers(dest="alloc_command", required=True)
    for name, help_text in (("demo", "run one synthetic job stream"),
                            ("policies", "compare placement policies on "
                                         "the same stream")):
        sub = alloc_sub.add_parser(name, help=help_text)
        sub.add_argument("--width", type=int, default=16)
        sub.add_argument("--height", type=int, default=16)
        sub.add_argument("--cores", type=int, default=4)
        sub.add_argument("--jobs", type=int, default=40)
        sub.add_argument("--tenants", type=int, default=3)
        sub.add_argument("--interarrival", type=float, default=20.0,
                         help="mean interarrival time in ms")
        sub.add_argument("--hold", type=float, default=120.0,
                         help="mean lease hold time in ms")
        sub.add_argument("--min-side", type=int, default=1)
        sub.add_argument("--max-side", type=int, default=4)
        sub.add_argument("--fault-chips", type=int, default=0,
                         help="number of chips to fail before allocating")
        sub.add_argument("--seed", type=int, default=1)
        if name == "demo":
            sub.add_argument("--policy", choices=PLACEMENT_POLICIES,
                             default="first-fit")

    serve = alloc_sub.add_parser(
        "serve", help="run the HTTP/JSON allocation service")
    serve.add_argument("--width", type=int, default=16)
    serve.add_argument("--height", type=int, default=16)
    serve.add_argument("--cores", type=int, default=1)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (0 picks a free one)")
    serve.add_argument("--duration", type=float, default=0.0,
                       help="serve for this many seconds, then drain "
                            "(0 = until interrupted)")
    serve.add_argument("--time-scale", type=float, default=1.0,
                       help="simulated us advanced per wall us")
    serve.add_argument("--max-queue-depth", type=int, default=64,
                       help="admission-queue depth beyond which creates "
                            "are shed with 429")

    client = alloc_sub.add_parser(
        "client", help="drive sessionful jobs against a service")
    client.add_argument("--url", default=None,
                        help="service base URL (default: start an "
                             "embedded service)")
    client.add_argument("--width", type=int, default=16,
                        help="embedded-service machine width")
    client.add_argument("--height", type=int, default=16,
                        help="embedded-service machine height")
    client.add_argument("--jobs", type=int, default=8)
    client.add_argument("--tenants", type=int, default=2)
    client.add_argument("--side", type=int, default=2,
                        help="requested job side (side x side chips)")
    client.add_argument("--keepalive-ms", type=float, default=1000.0)

    compile_parser = subparsers.add_parser(
        "compile", help="the pass-based mapping compiler")
    compile_sub = compile_parser.add_subparsers(dest="compile_command",
                                                required=True)
    report = compile_sub.add_parser(
        "report", help="compile a network and print per-pass timings, "
                       "cache hit rates and artifact counts")
    report.add_argument("--chips", type=int, default=16,
                        help="approximate machine size in chips")
    report.add_argument("--cores", type=int, default=4)
    report.add_argument("--neurons", type=int, default=384,
                        help="neurons per population")
    report.add_argument("--neurons-per-core", type=int, default=48)
    report.add_argument("--rate", type=float, default=30.0)
    report.add_argument("--seed", type=int, default=11)
    report.add_argument("--condemn", type=int, default=1,
                        help="chips to condemn afterwards, each triggering "
                             "an incremental re-map (0 = cold compile only)")

    return parser


_COMMANDS = {
    "info": cmd_info,
    "boot": cmd_boot,
    "codes": cmd_codes,
    "run": cmd_run,
    "saturation": cmd_saturation,
    "alloc": cmd_alloc,
    "compile": cmd_compile,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point used by the ``spinnaker-repro`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    sys.exit(main())
