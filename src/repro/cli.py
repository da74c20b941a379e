"""Command-line front end for the PSCP codesign flow.

Mirrors how the paper's system is used: feed it a textual statechart
(Fig. 2a) and the routine sources (Fig. 2b dialect); it runs the flow and
prints the analysis/synthesis results.

Usage::

    python -m repro CHART.sc ROUTINES.c [options]

    --arch minimal|md16          starting architecture (default: auto-select
                                 from the data-path requirements)
    --teps N                     number of TEPs
    --optimize                   peephole + constant-argument specialization
    --improve                    run the iterative improvement ladder
    --emit blif|vhdl|asm|dot     write generated artifacts to stdout
    --floorplan                  print the CLB floorplan
    --json                       machine-readable summary

Static analysis subcommand (see docs/ANALYSIS.md)::

    python -m repro lint PROJECT [--format text|json|sarif] [--out PATH]
                                 [--suppress CODES] [--enable CODES]
    python -m repro lint --workload smd|elevator

Bounded model checking subcommand (see docs/CHECKING.md)::

    python -m repro check PROJECT [--properties FILE] [--depth N]
                                  [--max-states N] [--witness-dir DIR]
                                  [--format text|json|sarif] [--out PATH]
    python -m repro check --workload smd|elevator

``check`` explores every configuration the machine's compiled SLA planes
can reach within the bound (the AND plane's live rows prune the event
alphabet per state) and decides the declared properties: ``never A while B``,
``never COND in S``, ``always reach S within k cycles of E`` and
``deadline E [n]``.  Proofs are exhaustive within the bound; every
counterexample is replayed on the real machine (witness + forensics
bundle under ``--witness-dir``) before it is reported.  Exit 0 proved,
1 violated, 2 bad input, 3 bound exhausted.

``lint`` runs the cross-layer analyzer: chart well-formedness and design
smells, transition determinism (shadowing/priority overlap), AND-region
write-write races, action-routine dataflow (use-before-init, dead stores,
constant conditions, width truncation), WCET/budget checks against the ISA
cost model, and SLA/TAT invariants.  Exit status 1 means error-severity
diagnostics; warnings exit 0.

Observability subcommands (see docs/OBSERVABILITY.md)::

    python -m repro trace PROJECT [--out trace.json] [--cycles N] ...
    python -m repro stats PROJECT [--json] [--cycles N] ...

Robustness subcommands (see docs/ROBUSTNESS.md and docs/RESILIENCE.md)::

    python -m repro faults PROJECT [--seed N] [--runs-per-class N]
                                   [--classes a,b,...] [--json]
    python -m repro serve  PROJECT [--workers N] [--items N] [--seed N]
                                   [--chaos] [--json] [--dashboard]
                                   [--trace PATH] [--forensics-dir DIR]
                                   [--samples PATH] [--sample-every K]
                                   [--lineage PATH]
    python -m repro forensics BUNDLE.json [--json]
    python -m repro why DAG.json NODE [--find] [--json]

``PROJECT`` is either a directory holding one ``*.sc`` chart and one
``*.c`` routine file (e.g. ``examples/smd``) or an explicit
``CHART.sc ROUTINES.c`` pair.  ``trace`` simulates the compiled system and
writes Chrome trace-event JSON — open it at https://ui.perfetto.dev —
with one track per TEP plus the SLA, scheduler and condition-cache bus;
``stats`` runs the same simulation and prints the metrics registry;
``faults`` runs seeded fault-injection campaigns over the SMD closed loop
and reports detected/recovered/missed per fault class; ``serve`` runs a
supervised farm of machine instances over a seeded event stream — with
``--chaos`` it injects per-worker fault plans and exercises
restart-from-snapshot, load shedding and backpressure, then prints the
conservation-checked farm report.  Each farm worker carries an always-on
flight recorder (disable with ``--no-recorder``); ``--trace`` merges every
machine plus the supervisor timeline into one Perfetto trace,
``--forensics-dir`` collects the bundles dumped on escalation, and
``--dashboard`` renders the sampler's sparkline dashboard.  ``forensics``
pretty-prints one such bundle.  Under ``--processes``, ``--lineage``
records end-to-end causal lineage — every item's path from injection
through dispatch, redispatch after a kill, standby promotion, down to
machine-level latches, fires and port writes — and writes the stitched
DAG as canonical JSON; ``why`` then renders the complete causal chain
through any node of that DAG (byte-identical across same-seed runs).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, List, NamedTuple, Optional, Tuple

from repro.flow import (
    Frontend,
    Improver,
    improvement_profile_json,
    improvement_profile_report,
    table2_report,
    table3_report,
)
from repro.isa import MD16_TEP, MINIMAL_TEP
from repro.statechart import Chart, parse_chart

_ARCHS = {"minimal": MINIMAL_TEP, "md16": MD16_TEP}


def build_argument_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PSCP codesign flow: statechart + routines -> "
                    "analysis, synthesis, simulation artifacts")
    parser.add_argument("chart", help="textual statechart file (Fig. 2a format)")
    parser.add_argument("routines", help="intermediate-C routine file")
    parser.add_argument("--arch", choices=sorted(_ARCHS),
                        help="starting architecture (default: auto-select)")
    parser.add_argument("--teps", type=_positive_int, default=None,
                        help="override the number of TEPs")
    parser.add_argument("--optimize", action="store_true",
                        help="apply microcode peephole + specialization")
    parser.add_argument("--improve", action="store_true",
                        help="run the iterative improvement ladder")
    parser.add_argument("--emit", choices=["blif", "vhdl", "asm", "dot"],
                        action="append", default=[],
                        help="emit a generated artifact (repeatable)")
    parser.add_argument("--floorplan", action="store_true",
                        help="print the CLB floorplan")
    parser.add_argument("--json", action="store_true",
                        help="print a machine-readable summary")
    return parser


# ---------------------------------------------------------------------------
# observability subcommands: repro trace / repro stats
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_project_arguments(parser: argparse.ArgumentParser,
                           required: bool = True) -> None:
    parser.add_argument("project", nargs=None if required else "?",
                        default=None,
                        help="project directory (one *.sc + one *.c) or a "
                             "chart file followed by a routine file")
    parser.add_argument("routines", nargs="?", default=None,
                        help="routine file (when PROJECT is a chart file)")


def _add_arch_arguments(parser: argparse.ArgumentParser) -> None:
    """The options :func:`_arch_for_chart` reads."""
    parser.add_argument("--arch", choices=sorted(_ARCHS),
                        help="architecture (default: auto-select)")
    parser.add_argument("--teps", type=_positive_int, default=None,
                        help="number of TEPs (default: 2 for the SMD chart)")
    parser.add_argument("--optimize", action="store_true",
                        help="peephole + constant-argument specialization")


def _sim_argument_parser(prog: str, description: str
                         ) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=prog, description=description)
    _add_project_arguments(parser)
    parser.add_argument("--cycles", type=_positive_int, default=None,
                        help="configuration cycles to simulate")
    _add_arch_arguments(parser)
    return parser


def _resolve_paths(project: str, routines: Optional[str]
                   ) -> Tuple[str, str]:
    """Resolve (chart path, routine path) from a directory or a file pair."""
    if os.path.isdir(project):
        charts = sorted(name for name in os.listdir(project)
                        if name.endswith(".sc"))
        sources = sorted(name for name in os.listdir(project)
                         if name.endswith(".c"))
        if len(charts) != 1 or len(sources) != 1:
            raise OSError(
                f"{project}: expected exactly one *.sc and one *.c file, "
                f"found {charts or 'no charts'} / {sources or 'no routines'}")
        return (os.path.join(project, charts[0]),
                os.path.join(project, sources[0]))
    if routines is None:
        raise OSError(
            f"{project} is not a directory; pass the routine file too")
    return project, routines


def _arch_for_chart(chart, routine_text: str, args):
    """The command's one front end, and the shared architecture defaulting
    for simulation and lint runs.

    The SMD chart defaults to the paper's final architecture (two 16-bit
    M/D TEPs, optimized code, declared mutual exclusions); other charts
    default to the auto-selected architecture with one TEP, which reads
    the routines.  Returns (front end, arch, specialize-routines?).
    """
    frontend = Frontend(chart, routine_text)
    is_smd = chart.name == "smd_pickup_head"
    if args.arch is not None:
        arch = _ARCHS[args.arch]
    elif is_smd:
        arch = MD16_TEP
    else:
        arch = frontend.initial_architecture()
    teps = args.teps if args.teps is not None else (2 if is_smd else 1)
    exclusions = frozenset()
    if is_smd and teps > 1:
        from repro.workloads import SMD_MUTUAL_EXCLUSIONS
        exclusions = SMD_MUTUAL_EXCLUSIONS
    optimize = args.optimize or is_smd
    arch = arch.with_(n_teps=teps, mutual_exclusions=exclusions,
                      microcode_optimized=optimize)
    return frontend, arch, optimize


def _build_for_simulation(chart, routine_text: str, args):
    """Build the system a trace/stats/faults/serve/check run uses."""
    frontend, arch, optimize = _arch_for_chart(chart, routine_text, args)
    return frontend.build(arch, specialize=optimize)


class _Project(NamedTuple):
    """One loaded project and what its command built from it."""

    chart_path: str
    source_path: str
    chart: Chart
    built: object


def _load_project(project: str, routines: Optional[str], args, out,
                  build: Callable = _build_for_simulation
                  ) -> Optional[_Project]:
    """Read, parse and build one project: the one loader of every command
    that takes a PROJECT (or the flow's CHART ROUTINES pair).

    *build* ``(chart, routine_text, args)`` makes the command's one front
    end and what the command runs from it; by default the built system.
    On bad input this prints why and returns None, and the command exits
    2: an unreadable project as ``error:`` on stderr, anything else as
    diagnostics on *out* — PSC100 when the chart does not parse, PSC111
    per unresolved ref state (the flow does not inline chart references),
    PSC301 when *build* needs routines that do not parse or check (the
    front end already gives the line in the routine file).
    """
    from repro.action.check import CheckError
    from repro.action.parser import ActionParseError
    from repro.analysis import Diagnostic, Severity, SourceLocation, \
        render_text
    from repro.statechart.model import ChartError, StateKind
    from repro.statechart.parser import ParseError

    try:
        chart_path, source_path = _resolve_paths(project, routines)
        with open(chart_path) as handle:
            chart_text = handle.read()
        with open(source_path) as handle:
            routine_text = handle.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None

    try:
        chart = parse_chart(chart_text)
    except (ParseError, ChartError) as exc:
        problems = [Diagnostic(
            code="PSC100", severity=Severity.ERROR,
            message=f"chart does not parse: {exc}",
            location=SourceLocation(file=chart_path,
                                    line=getattr(exc, "line", None)))]
    else:
        problems = [Diagnostic(
            code="PSC111", severity=Severity.ERROR,
            message=f"ref state {state.name!r} (refers to "
                    f"{repr(state.ref) if state.ref else 'no chart'}) is "
                    "not resolved",
            location=SourceLocation(file=chart_path, line=state.line,
                                    obj=f"state {state.name!r}"),
            hint="the flow does not inline chart references; copy the "
                 "referenced chart's states in place of the ref state")
            for state in chart.preorder() if state.kind is StateKind.REF]
        if not problems:
            try:
                return _Project(chart_path, source_path, chart,
                                build(chart, routine_text, args))
            except (ActionParseError, CheckError) as exc:
                problems = [Diagnostic(
                    code="PSC301", severity=Severity.ERROR,
                    message=f"routines do not parse: {exc}",
                    location=SourceLocation(
                        file=source_path, line=getattr(exc, "line", None)))]
    print(render_text(problems, header=chart_path), file=out, end="")
    return None


def _simulate(system, cycles: Optional[int], tracer, metrics):
    """Drive the built system and return (configuration cycles, report).

    The SMD chart runs in its closed loop against the motor physics; any
    other chart gets a generic stimulus: every constrained event arrives at
    its declared period (other events round-robin when the chart declares no
    constraints).
    """
    if system.chart.name == "smd_pickup_head":
        from repro.workloads import FAST_MOTORS, MoveCommand, SmdClosedLoop
        loop = SmdClosedLoop(system, motor_specs=FAST_MOTORS, tracer=tracer,
                             metrics=metrics)
        report = loop.run([MoveCommand(60, 45, 8)],
                          max_configuration_cycles=cycles or 20000)
        return loop.machine, report
    from repro.pscp.trace import DeadlineMonitor

    machine = system.make_machine()
    if tracer is not None:
        machine.attach(tracer)
    monitor = DeadlineMonitor(system.chart)
    constrained = sorted(monitor.periods)
    next_arrival = {event: 0 for event in constrained}
    all_events = sorted(system.chart.events)
    total = cycles or 500
    for index in range(total):
        due = set()
        for event in constrained:
            if next_arrival[event] <= machine.time:
                due.add(event)
                monitor.arrival(event, machine.time)
                next_arrival[event] = machine.time + monitor.periods[event]
        if not constrained and all_events:
            due.add(all_events[index % len(all_events)])
        monitor.observe(machine.step(due))
    if tracer is not None:
        tracer.flush()
    if metrics is not None:
        monitor.publish(metrics)
        metrics.counter("machine.configuration_cycles").value = \
            machine.cycle_count
        metrics.counter("machine.reference_cycles").value = machine.time
    return machine, None


def run_trace(argv: List[str], out=sys.stdout) -> int:
    """``repro trace``: simulate and export a Perfetto-loadable trace."""
    parser = _sim_argument_parser(
        "repro trace",
        "simulate the compiled system and write Chrome trace-event JSON")
    parser.add_argument("--out", default="trace.json",
                        help="output path (default: trace.json)")
    parser.add_argument("--summary", action="store_true",
                        help="also print the plain-text trace summary")
    args = parser.parse_args(argv)

    from repro.obs import MetricsRegistry, Tracer, trace_summary, \
        write_chrome_trace

    project = _load_project(args.project, args.routines, args, out)
    if project is None:
        return 2
    try:
        # fail on an unwritable destination now, not after the simulation
        with open(args.out, "a"):
            pass
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    system = project.built
    tracer = Tracer()
    metrics = MetricsRegistry()
    machine, _report = _simulate(system, args.cycles, tracer, metrics)
    write_chrome_trace(tracer, args.out, metrics)
    print(f"wrote {args.out}: {len(tracer.events)} trace events on "
          f"{len(tracer.track_names)} tracks "
          f"({machine.cycle_count} configuration cycles, "
          f"{machine.time} reference cycles, "
          f"architecture {system.arch.describe()})", file=out)
    if args.summary:
        print(file=out)
        print(trace_summary(tracer, metrics), file=out)
    return 0


#: bump when the ``repro stats --json`` document layout changes
STATS_SCHEMA_VERSION = 1


def run_stats(argv: List[str], out=sys.stdout) -> int:
    """``repro stats``: simulate and print the metrics registry."""
    parser = _sim_argument_parser(
        "repro stats",
        "simulate the compiled system and report runtime metrics")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable metrics dump")
    args = parser.parse_args(argv)

    from repro.flow import ascii_table
    from repro.obs import MetricsRegistry, metrics_summary

    project = _load_project(args.project, args.routines, args, out)
    if project is None:
        return 2
    chart, system = project.chart, project.built
    metrics = MetricsRegistry()
    machine, report = _simulate(system, args.cycles, None, metrics)
    if args.json:
        document = {
            "schema_version": STATS_SCHEMA_VERSION,
            "chart": chart.name,
            "architecture": system.arch.describe(),
            "configuration_cycles": machine.cycle_count,
            "reference_cycles": machine.time,
            "metrics": metrics.collect(),
        }
        if report is not None:
            document["deadlines"] = [
                {"event": d.event, "period": d.period,
                 "arrivals": d.arrivals, "consumed": d.consumed,
                 "worst_latency": d.worst_latency, "misses": d.misses}
                for d in report.deadline_reports]
        # canonical: sorted keys, so two same-seed runs diff clean
        json.dump(document, out, indent=2, sort_keys=True)
        print(file=out)
        return 0
    print(f"chart {chart.name!r} on {system.arch.describe()}: "
          f"{machine.cycle_count} configuration cycles, "
          f"{machine.time} reference cycles", file=out)
    if report is not None:
        rows = [(d.event, d.period, d.worst_latency, d.misses)
                for d in report.deadline_reports]
        print(file=out)
        print(ascii_table(["Event", "Period", "Worst latency", "Misses"],
                          rows, title="Deadlines"), file=out)
    print(file=out)
    print(metrics_summary(metrics), file=out)
    return 0


def run_faults(argv: List[str], out=sys.stdout) -> int:
    """``repro faults``: seeded fault campaigns over the SMD closed loop."""
    parser = _sim_argument_parser(
        "repro faults",
        "run seeded fault-injection campaigns against the closed-loop "
        "simulation and report detection/recovery per fault class")
    parser.add_argument("--seed", type=int, default=1,
                        help="campaign seed (default: 1)")
    parser.add_argument("--runs-per-class", type=_positive_int, default=3,
                        help="fault runs per fault class (default: 3)")
    parser.add_argument("--classes", default=None,
                        help="comma-separated fault classes "
                             "(default: all 15)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable campaign report")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write a Chrome trace of the fault runs "
                             "(fault instants + recovery tracks)")
    parser.add_argument("--faults-per-run", type=_positive_int, default=1,
                        help="faults injected per run (default: 1)")
    parser.add_argument("--restore-from-checkpoint", action="store_true",
                        help="restore unrecoverable runs from the last "
                             "checkpoint instead of counting them crashed")
    args = parser.parse_args(argv)

    from repro.fault import ALL_FAULT_KINDS, CampaignError, FaultCampaign
    from repro.obs import MetricsRegistry, metrics_summary

    classes = ALL_FAULT_KINDS
    if args.classes:
        classes = tuple(name.strip() for name in args.classes.split(",")
                        if name.strip())
        unknown = set(classes) - set(ALL_FAULT_KINDS)
        if unknown:
            print(f"error: unknown fault classes {sorted(unknown)}; "
                  f"known: {', '.join(ALL_FAULT_KINDS)}", file=sys.stderr)
            return 2
    project = _load_project(args.project, args.routines, args, out)
    if project is None:
        return 2
    chart, system = project.chart, project.built
    if chart.name != "smd_pickup_head":
        print("error: fault campaigns drive the SMD closed loop; "
              f"chart {chart.name!r} has no environment model",
              file=sys.stderr)
        return 2

    tracer = None
    if args.trace is not None:
        from repro.obs import Tracer
        tracer = Tracer()
    metrics = MetricsRegistry()
    campaign = FaultCampaign(
        system, seed=args.seed, runs_per_class=args.runs_per_class,
        classes=classes,
        max_configuration_cycles=args.cycles or 20000,
        faults_per_run=args.faults_per_run,
        restore_from_checkpoint=args.restore_from_checkpoint,
        tracer=tracer, metrics=metrics)
    try:
        report = campaign.run()
    except CampaignError as exc:
        print(f"error: --cycles {campaign.max_configuration_cycles} is too "
              f"short: {exc}", file=sys.stderr)
        return 2
    if tracer is not None:
        from repro.obs import write_chrome_trace
        write_chrome_trace(tracer, args.trace, metrics)
    if args.json:
        json.dump(report.to_json(), out, indent=2)
        print(file=out)
        return 0
    print(f"chart {chart.name!r} on {system.arch.describe()}", file=out)
    print(file=out)
    print(report.render(), file=out)
    print(file=out)
    print(metrics_summary(metrics), file=out)
    if tracer is not None:
        print(file=out)
        print(f"wrote {args.trace}: {len(tracer.events)} trace events",
              file=out)
    return 0


#: ``repro serve`` flags that only one farm mode reads
_IN_PROCESS_FLAGS = ("--workers", "--chaos-faults", "--recorder-capacity",
                     "--no-recorder", "--dashboard", "--forensics-dir")
_DISTRIBUTED_FLAGS = ("--standby", "--kills", "--lineage")


def _foreign_serve_flags(args) -> List[str]:
    """The given ``serve`` flags that the chosen farm mode never reads."""
    distributed = args.processes is not None
    return [flag for flag in (_IN_PROCESS_FLAGS if distributed
                              else _DISTRIBUTED_FLAGS)
            if getattr(args, flag[2:].replace("-", "_")) not in (None, False)]


def run_serve(argv: List[str], out=sys.stdout) -> int:
    """``repro serve``: a supervised machine farm over an event stream."""
    from repro.resil import FarmConfig

    parser = _sim_argument_parser(
        "repro serve",
        "run a supervised farm of PSCP machine instances over a seeded "
        "event stream, with bounded queues, load shedding, circuit "
        "breakers and restart-from-snapshot")
    parser.add_argument("--workers", type=_positive_int, default=None,
                        help="in-process mode: machine instances in the "
                             "farm (default: 2)")
    parser.add_argument("--processes", type=_positive_int, default=None,
                        metavar="N",
                        help="distributed mode: shard the farm across N "
                             "worker OS processes (framed-message "
                             "transport, failover, delta-encoded "
                             "checkpoints); --chaos then SIGKILLs worker "
                             "processes at seeded ticks")
    parser.add_argument("--standby", action="store_true",
                        help="distributed mode: pair every shard with a "
                             "hot standby that replays one checkpoint "
                             "behind, so a killed primary is promoted "
                             "over, not respawned")
    parser.add_argument("--kills", type=_positive_int, default=None,
                        help="distributed mode: process kills in the "
                             "seeded chaos plan under --chaos (default: 2)")
    parser.add_argument("--items", type=_positive_int, default=200,
                        help="work items in the stream (default: 200)")
    parser.add_argument("--seed", type=int, default=1,
                        help="stream and chaos seed (default: 1)")
    parser.add_argument("--queue-capacity", type=_positive_int,
                        default=FarmConfig.queue_capacity,
                        help="per-worker admission queue depth "
                             "(default: %(default)s)")
    parser.add_argument("--arrivals-per-tick", type=_positive_int,
                        default=FarmConfig.arrivals_per_tick,
                        help="items offered per supervisor tick "
                             "(default: %(default)s)")
    parser.add_argument("--batch", type=_positive_int,
                        default=FarmConfig.batch,
                        help="items each worker processes per tick "
                             "(default: %(default)s)")
    parser.add_argument("--checkpoint-every", type=_positive_int,
                        default=FarmConfig.checkpoint_every,
                        help="processed items between worker checkpoints "
                             "(default: %(default)s)")
    parser.add_argument("--max-restarts", type=_positive_int, default=5,
                        help="restarts before a worker fails permanently "
                             "(default: 5)")
    parser.add_argument("--no-shed", action="store_true",
                        help="disable priority load shedding (full queues "
                             "always reject)")
    parser.add_argument("--chaos", action="store_true",
                        help="inject a seeded per-worker fault plan and "
                             "exercise restart-from-snapshot")
    parser.add_argument("--chaos-faults", type=_positive_int, default=None,
                        help="in-process mode: faults per worker plan "
                             "under --chaos (default: 6)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable farm report")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write a merged multi-machine Perfetto trace: "
                             "one process per worker plus the supervisor "
                             "track (shed/restart/escalation instants)")
    parser.add_argument("--forensics-dir", default=None, metavar="DIR",
                        help="in-process mode: write each escalation's "
                             "forensics bundle into DIR (created if "
                             "missing)")
    parser.add_argument("--lineage", default=None, metavar="PATH",
                        help="distributed mode: trace causal lineage "
                             "end to end and write the stitched DAG as "
                             "canonical JSON (query it with `repro why`)")
    parser.add_argument("--recorder-capacity", type=_positive_int,
                        default=None,
                        help="in-process mode: flight-recorder ring "
                             "entries per worker (default: 64)")
    parser.add_argument("--no-recorder", action="store_true",
                        help="in-process mode: do not attach per-worker "
                             "flight recorders")
    parser.add_argument("--sample-every", type=_positive_int,
                        default=FarmConfig.sample_every,
                        help="supervisor ticks between farm samples "
                             "(default: %(default)s)")
    parser.add_argument("--samples", default=None, metavar="PATH",
                        help="write the sampler time series (CSV when PATH "
                             "ends in .csv, JSON otherwise)")
    parser.add_argument("--dashboard", action="store_true",
                        help="in-process mode: render the farm dashboard "
                             "(sampler sparklines + worker states)")
    args = parser.parse_args(argv)
    foreign = _foreign_serve_flags(args)
    for flag in foreign:
        if args.processes is None:
            print(f"error: {flag} requires --processes (distributed mode)",
                  file=sys.stderr)
        else:
            print(f"error: {flag} is an in-process farm option, not read "
                  f"under --processes (distributed mode)", file=sys.stderr)
    if foreign:
        return 2

    from repro.fault import FaultInjector, FaultPlan, FaultSurface
    from repro.fault.model import TEP_FAIL, TEP_RUNAWAY
    from repro.obs import FarmSampler, FlightRecorder, MetricsRegistry, \
        Tracer, metrics_summary, render_dashboard, write_forensics_bundle, \
        write_merged_chrome_trace
    from repro.resil import RestartPolicy, Supervisor, generate_event_stream

    project = _load_project(args.project, args.routines, args, out)
    if project is None:
        return 2
    try:
        # fail on an unwritable trace destination now, not after the soak
        if args.trace is not None:
            with open(args.trace, "a"):
                pass
        if args.lineage is not None:
            with open(args.lineage, "a"):
                pass
        if args.forensics_dir is not None:
            os.makedirs(args.forensics_dir, exist_ok=True)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    chart, system = project.chart, project.built
    config = FarmConfig(queue_capacity=args.queue_capacity,
                        shed_enabled=not args.no_shed, batch=args.batch,
                        arrivals_per_tick=args.arrivals_per_tick,
                        checkpoint_every=args.checkpoint_every,
                        sample_every=args.sample_every)

    if args.processes is not None:
        return _run_serve_distributed(args, chart, system, config, out)

    workers = 2 if args.workers is None else args.workers
    injector_factory = None
    if args.chaos:
        import random

        surface = FaultSurface.from_system(system)
        horizon = max(10, args.items // workers)
        n_faults = 6 if args.chaos_faults is None else args.chaos_faults

        def injector_factory(worker_index: int):
            rng = random.Random(args.seed * 6271 + worker_index)
            plan = FaultPlan.generate(
                rng, surface, [TEP_RUNAWAY, TEP_FAIL],
                n_faults=n_faults, horizon=horizon)
            return FaultInjector(plan)

    capacity = 64 if args.recorder_capacity is None else \
        args.recorder_capacity

    def observer_factory(worker_index: int):
        observers = []
        if not args.no_recorder:
            observers.append(FlightRecorder(capacity=capacity))
        if args.trace is not None:
            observers.append(Tracer())
        return observers

    sampler = FarmSampler(every=config.sample_every)
    metrics = MetricsRegistry()
    supervisor = Supervisor.for_system(
        system, n_workers=workers, config=config,
        policy=RestartPolicy(max_restarts=args.max_restarts),
        injector_factory=injector_factory,
        observer_factory=observer_factory,
        metrics=metrics, sampler=sampler)
    stream = generate_event_stream(system.chart.events, args.items,
                                   seed=args.seed)
    report = supervisor.run(stream)
    violations = report.conservation()
    violations += sampler.conservation()

    bundle_paths: List[str] = []
    if args.forensics_dir is not None:
        for index, bundle in enumerate(supervisor.forensics_bundles()):
            name = f"bundle-{index:03d}-{bundle.get('worker') or 'farm'}.json"
            path = os.path.join(args.forensics_dir, name)
            write_forensics_bundle(bundle, path)
            bundle_paths.append(path)
    if args.trace is not None:
        write_merged_chrome_trace(supervisor.machine_tracers(), args.trace,
                                  supervisor_events=report.timeline,
                                  metrics=metrics,
                                  dropped_events=report.timeline_dropped)
    if args.samples is not None:
        if args.samples.endswith(".csv"):
            sampler.write_csv(args.samples)
        else:
            sampler.write_json(args.samples)

    if args.json:
        json.dump({
            "chart": chart.name,
            "architecture": system.arch.describe(),
            "farm": report.to_json(),
            "samples": sampler.to_json(),
            "metrics": metrics.collect(),
        }, out, indent=2)
        print(file=out)
        return 1 if violations else 0
    print(f"chart {chart.name!r} on {system.arch.describe()}: "
          f"{workers} worker(s), {args.items} item(s), "
          f"seed {args.seed}"
          + (", chaos on" if args.chaos else ""), file=out)
    print(file=out)
    print(report.render(), file=out)
    print(file=out)
    print(metrics_summary(metrics), file=out)
    if args.dashboard:
        print(file=out)
        print(render_dashboard(supervisor, sampler), file=out)
    for path in bundle_paths:
        print(f"wrote forensics bundle {path}", file=out)
    if args.trace is not None:
        print(f"wrote {args.trace}: merged trace of "
              f"{len(supervisor.machine_tracers())} machine(s) + "
              f"supervisor track ({len(report.timeline)} instant(s))",
              file=out)
    if args.samples is not None:
        print(f"wrote {args.samples}: {len(sampler)} sample(s)", file=out)
    if violations:
        for problem in violations:
            print(f"conservation violation: {problem}", file=sys.stderr)
    return 1 if violations else 0


def _run_serve_distributed(args, chart, system, config, out) -> int:
    """``repro serve --processes N``: the multi-process sharded farm.

    Output is deliberately deterministic for a fixed seed (canonical key
    order, no wall-clock fields), so CI can ``cmp`` two runs byte for
    byte.
    """
    from repro.fault.model import generate_kill_plan
    from repro.obs import FarmLineage, ShardAggregator, dag_flow_events, \
        write_merged_chrome_trace
    from repro.obs.export import FIRST_MACHINE_PID
    from repro.resil import RestartPolicy, generate_event_stream
    from repro.resil.shardfarm import ShardFarmError, ShardSupervisor

    lineage = FarmLineage() if args.lineage is not None else None
    kill_plan = []
    if args.chaos:
        # land the kills while the stream is still flowing
        active_ticks = max(4, args.items // max(1, args.arrivals_per_tick))
        kill_plan = generate_kill_plan(
            args.processes, 2 if args.kills is None else args.kills,
            seed=args.seed,
            max_tick=max(4, active_ticks // 2),
            standby_fraction=0.25 if args.standby else 0.0)
    aggregator = ShardAggregator()
    policy = RestartPolicy(
        max_restarts=args.max_restarts,
        # seeded jitter desynchronizes simultaneous respawns without
        # costing two-run determinism
        jitter_ticks=2, jitter_seed=args.seed)
    supervisor = ShardSupervisor(
        system, n_shards=args.processes, config=config, policy=policy,
        standby=args.standby, kill_plan=kill_plan, aggregator=aggregator,
        lineage=lineage)
    stream = generate_event_stream(system.chart.events, args.items,
                                   seed=args.seed)
    try:
        report = supervisor.run(stream)
    except ShardFarmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    violations = report.conservation() + aggregator.conservation()
    if lineage is not None:
        violations += lineage.conservation()
        with open(args.lineage, "w") as handle:
            handle.write(lineage.dumps())
            handle.write("\n")

    if args.trace is not None:
        # no per-machine tracers cross the process boundary; the merged
        # trace carries the supervisor track (kills, promotions,
        # respawns, sheds) — plus, with --lineage, flow arrows from the
        # stitched causal DAG, placed on each shard's pid track
        flows = None
        if lineage is not None:
            pids = {shard.name: FIRST_MACHINE_PID + index
                    for index, shard in enumerate(supervisor.shards)}
            flows = dag_flow_events(lineage.dag, pids=pids)
        write_merged_chrome_trace({}, args.trace,
                                  supervisor_events=report.timeline,
                                  dropped_events=report.timeline_dropped,
                                  flows=flows)
    if args.samples is not None:
        aggregator.write_json(args.samples)

    if args.json:
        document = {
            "chart": chart.name,
            "architecture": system.arch.describe(),
            "farm": report.to_json(),
            "samples": aggregator.to_json(),
        }
        if lineage is not None:
            document["lineage"] = {
                "nodes": len(lineage.dag.nodes),
                "edges": len(lineage.dag.edges),
                "conservation_violations": lineage.conservation(),
            }
        json.dump(document, out, indent=2, sort_keys=True)
        print(file=out)
        return 1 if violations else 0
    print(f"chart {chart.name!r} on {system.arch.describe()}: "
          f"{args.processes} shard process(es)"
          + (" + hot standbys" if args.standby else "")
          + f", {args.items} item(s), seed {args.seed}"
          + (f", chaos on ({len(kill_plan)} kill(s) planned)"
             if args.chaos else ""), file=out)
    print(file=out)
    print(report.render(), file=out)
    if lineage is not None:
        print(f"wrote {args.lineage}: causal DAG, "
              f"{len(lineage.dag.nodes)} node(s), "
              f"{len(lineage.dag.edges)} edge(s)", file=out)
    if args.trace is not None:
        print(f"wrote {args.trace}: supervisor track "
              f"({len(report.timeline)} instant(s)"
              + (f", {report.timeline_dropped} aged out of the ring"
                 if report.timeline_dropped else "") + ")", file=out)
    if args.samples is not None:
        print(f"wrote {args.samples}: {len(aggregator)} sample(s)",
              file=out)
    if violations:
        for problem in violations:
            print(f"conservation violation: {problem}", file=sys.stderr)
    return 1 if violations else 0


def run_forensics(argv: List[str], out=sys.stdout) -> int:
    """``repro forensics``: pretty-print a flight-recorder bundle."""
    parser = argparse.ArgumentParser(
        prog="repro forensics",
        description="pretty-print a forensics bundle dumped by an "
                    "escalating farm worker (serve --forensics-dir)")
    parser.add_argument("bundle", help="forensics bundle JSON file")
    parser.add_argument("--json", action="store_true",
                        help="re-emit the bundle as canonical JSON")
    args = parser.parse_args(argv)

    from repro.obs import load_forensics_bundle, render_forensics, \
        write_forensics_bundle

    try:
        bundle = load_forensics_bundle(args.bundle)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        write_forensics_bundle(bundle, out)
        print(file=out)
        return 0
    print(render_forensics(bundle), file=out)
    return 0


def run_why(argv: List[str], out=sys.stdout) -> int:
    """``repro why``: render the causal chain through one lineage node.

    Output is deterministic — sorted ancestors/descendants, canonical
    JSON — so two same-seed farm runs answer byte-identically.  Exit
    status 2 names close matches when the node id is unknown.
    """
    parser = argparse.ArgumentParser(
        prog="repro why",
        description="render the end-to-end causal chain (injection -> "
                    "latch -> dispatch -> raise -> output) for a node of "
                    "a lineage DAG written by serve --lineage")
    parser.add_argument("dag", help="lineage DAG JSON file "
                                    "(serve --lineage PATH)")
    parser.add_argument("node", help="node id, e.g. ev:stream:12 or "
                                     "shard0.g0/port:9:t3:464:0")
    parser.add_argument("--find", action="store_true",
                        help="list node ids containing NODE instead of "
                             "rendering a chain")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable chain (canonical JSON)")
    args = parser.parse_args(argv)

    from repro.obs import load_dag, render_chain

    try:
        with open(args.dag) as handle:
            document = json.load(handle)
        dag = load_dag(document)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.find:
        matches = dag.find(args.node)
        for node_id in matches:
            print(node_id, file=out)
        if not matches:
            print(f"error: no lineage node id contains {args.node!r}",
                  file=sys.stderr)
            return 2
        return 0

    if args.node not in dag.nodes:
        candidates = dag.find(args.node)
        hint = ("; close matches: " + ", ".join(candidates[:6])
                if candidates else "")
        print(f"error: no lineage node {args.node!r}{hint}",
              file=sys.stderr)
        return 2
    if args.json:
        json.dump({
            "id": args.node,
            "node": dag.nodes[args.node],
            "parents": [{"id": src, "edge": kind}
                        for src, kind in dag.parents(args.node)],
            "children": [{"id": dst, "edge": kind}
                         for dst, kind in dag.children(args.node)],
            "ancestors": dag.ancestors(args.node),
            "descendants": dag.descendants(args.node),
        }, out, indent=2, sort_keys=True)
        print(file=out)
        return 0
    print(render_chain(dag, args.node), file=out)
    return 0


def run_fuzz(argv: List[str], out=sys.stdout) -> int:
    """``repro fuzz``: seeded differential campaigns over generated charts.

    Exit status: 0 when every chart is clean (or, with ``--canary``, when
    the planted mutation is caught first at its planted stage everywhere
    it fits), 1 on any divergence / missed canary, 2 on bad inputs.
    """
    parser = argparse.ArgumentParser(
        prog="repro fuzz",
        description="generate seeded random charts and differentially "
                    "compare the reference interpreter against the machine "
                    "at every improvement-ladder rung, plus snapshot/"
                    "restore and delta-chain continuations, in ladder "
                    "order; the first diverging stage is the guilty one, "
                    "and the chart is shrunk (see docs/FUZZING.md)")
    parser.add_argument("--seed", type=int, default=1,
                        help="campaign seed (default: 1)")
    parser.add_argument("--charts", type=_positive_int, default=50,
                        help="charts to generate (default: 50)")
    parser.add_argument("--cycles", type=_positive_int, default=40,
                        help="event-trace cycles per chart (default: 40)")
    parser.add_argument("--rungs", type=_positive_int, default=None,
                        help="limit the ladder to its first N rungs "
                             "(default: all)")
    parser.add_argument("--canary", default=None, metavar="STAGE",
                        help="plant a retargeting mutation at STAGE in "
                             "every chart where one fits; the campaign "
                             "must catch it first at STAGE")
    parser.add_argument("--no-shrink", action="store_true",
                        help="skip shrinking diverging charts")
    parser.add_argument("--bmc", action="store_true",
                        help="cross-check every clean chart with the "
                             "bounded model checker: implied mutual "
                             "exclusions, oracle agreement and a "
                             "counterexample-replay canary")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the canonical JSON report to PATH")
    parser.add_argument("--replay", default=None, metavar="DIR",
                        help="replay the regression corpus under DIR "
                             "instead of running a campaign")
    parser.add_argument("--json", action="store_true",
                        help="print the report as JSON instead of a table")
    args = parser.parse_args(argv)

    from repro.fuzz import FuzzCampaign, replay_corpus

    if args.replay is not None:
        if not os.path.isdir(args.replay):
            print(f"error: {args.replay!r} is not a directory",
                  file=sys.stderr)
            return 2
        results = replay_corpus(args.replay, cycles_default=args.cycles)
        if args.json:
            json.dump([r.to_json() for r in results], out, indent=2,
                      sort_keys=True)
            print(file=out)
        else:
            for result in results:
                mark = "ok " if result.ok else "FAIL"
                print(f"  {mark} {result.name}: {result.detail}", file=out)
            print(f"{sum(r.ok for r in results)}/{len(results)} corpus "
                  f"entries passed", file=out)
        return 0 if results and all(r.ok for r in results) else 1

    campaign = FuzzCampaign(seed=args.seed, charts=args.charts,
                            cycles=args.cycles, max_rungs=args.rungs,
                            canary_stage=args.canary,
                            shrink=not args.no_shrink, bmc=args.bmc)
    report = campaign.run()
    if args.out is not None:
        try:
            with open(args.out, "w") as handle:
                handle.write(report.dumps())
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.json:
        print(report.dumps(), end="", file=out)
    else:
        print(report.render(), file=out)

    if args.canary is None:
        return 0 if report.clean else 1
    # canary mode: every plantable chart must be caught AND attributed
    caught = [o for o in report.outcomes if o.status == "diverged"]
    wrong = [o for o in caught if o.guilty_stage != args.canary
             or not o.bisect_verified]
    if not caught:
        print("canary: no chart could host the mutation", file=sys.stderr)
        return 1
    if wrong:
        print(f"canary: {len(wrong)} chart(s) attributed to the wrong stage",
              file=sys.stderr)
        return 1
    unexpected = [o for o in report.outcomes
                  if o.status not in ("diverged", "canary-unplantable")]
    if unexpected:
        print(f"canary: {len(unexpected)} chart(s) neither diverged nor "
              f"unplantable", file=sys.stderr)
        return 1
    return 0


def _parse_code_list(text: Optional[str]) -> Tuple[str, ...]:
    if not text:
        return ()
    return tuple(code.strip() for code in text.split(",") if code.strip())


def _lint_workload(name: str):
    """(built system, label) of a shipped workload under its blessed
    architecture."""
    if name == "smd":
        from repro.workloads import (
            SMD_MUTUAL_EXCLUSIONS,
            SMD_ROUTINES,
            smd_chart,
        )

        arch = MD16_TEP.with_(n_teps=2,
                              mutual_exclusions=SMD_MUTUAL_EXCLUSIONS,
                              microcode_optimized=True)
        return (Frontend(smd_chart(), SMD_ROUTINES).build(arch,
                                                          specialize=True),
                "smd")
    from repro.workloads.elevator import (
        ELEVATOR_MUTUAL_EXCLUSIONS,
        ELEVATOR_ROUTINES,
        elevator_chart,
    )

    improved = Improver(elevator_chart(), ELEVATOR_ROUTINES,
                        initial_arch=MD16_TEP,
                        mutual_exclusions=ELEVATOR_MUTUAL_EXCLUSIONS,
                        max_teps=3).run()
    return improved.final, "elevator"


def _report_command(argv: List[str], out, run: Callable, *, prog: str,
                    description: str, workload_help: str, enable_help: str,
                    inputs=(), outputs=()) -> int:
    """What ``repro lint`` and ``repro check`` share: their common
    arguments, the diagnostic-code check and the report writer.

    *inputs* and *outputs* are the command's own arguments as ``(flags,
    keywords)`` pairs, listed after ``--workload`` and after ``--out``.
    ``run(parser, args, out)`` does the command's work, with
    ``args.suppress`` and ``args.enable`` as code tuples.  It returns None
    when its inputs cannot be loaded (exit 2), else ``(diagnostics, chart
    path, summary for --out, exit status)``.
    """
    from repro.analysis import known_code, render_json, render_sarif, \
        render_text

    parser = argparse.ArgumentParser(prog=prog, description=description)
    _add_project_arguments(parser, required=False)
    parser.add_argument("--workload", choices=["smd", "elevator"],
                        help=workload_help)
    for flags, keywords in inputs:
        parser.add_argument(*flags, **keywords)
    _add_arch_arguments(parser)
    parser.add_argument("--format", choices=["text", "json", "sarif"],
                        default="text", help="output format (default: text)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the report to PATH instead of stdout")
    for flags, keywords in outputs:
        parser.add_argument(*flags, **keywords)
    parser.add_argument("--suppress", default=None, metavar="CODES",
                        help="comma-separated diagnostic codes to drop")
    parser.add_argument("--enable", default=None, metavar="CODES",
                        help=enable_help)
    args = parser.parse_args(argv)

    args.suppress = _parse_code_list(args.suppress)
    args.enable = _parse_code_list(args.enable)
    for code in args.suppress + args.enable:
        if not known_code(code):
            print(f"error: unknown diagnostic code {code!r}", file=out)
            return 2

    outcome = run(parser, args, out)
    if outcome is None:
        return 2
    diagnostics, chart_path, summary, status = outcome
    renderer = {"text": lambda d: render_text(d, header=chart_path),
                "json": render_json,
                "sarif": render_sarif}[args.format]
    report = renderer(diagnostics)
    if args.out is not None:
        try:
            with open(args.out, "w") as handle:
                handle.write(report)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {args.out}: {summary}", file=out)
    else:
        print(report, file=out, end="" if report.endswith("\n") else "\n")
    return status


def run_lint(argv: List[str], out=sys.stdout) -> int:
    """``repro lint``: cross-layer static analysis with stable codes.

    Exit status: 0 clean (warnings allowed), 1 when any error-severity
    diagnostic survives, 2 when the inputs cannot be loaded or the chart
    does not parse.
    """
    return _report_command(
        argv, out, _lint, prog="repro lint",
        description="statically analyze a chart + routines: determinism "
                    "conflicts, AND-region races, action dataflow, WCET "
                    "budgets and SLA/TAT invariants (see docs/ANALYSIS.md)",
        workload_help="lint a shipped workload under its blessed "
                      "architecture instead of reading files",
        enable_help="comma-separated default-suppressed codes to "
                    "re-enable (e.g. PSC202)")


def _lint(parser, args, out):
    from repro.analysis import lint_system

    system, specialize = None, False
    if args.workload is not None:
        system, label = _lint_workload(args.workload)
        frontend, arch = system.frontend, system.arch
        chart_path, source_path = f"{label}.sc", f"{label}.c"
    else:
        if args.project is None:
            parser.error("PROJECT or --workload is required")
        # lint_system builds the system itself, after its routine passes;
        # the loader makes the front end and selects the architecture
        project = _load_project(args.project, args.routines, args, out,
                                build=_arch_for_chart)
        if project is None:
            return None
        chart_path, source_path = project.chart_path, project.source_path
        frontend, arch, specialize = project.built

    result = lint_system(
        frontend, arch, specialize=specialize, system=system,
        chart_path=chart_path, source_path=source_path,
        suppress=args.suppress, enable=args.enable)
    return (result.diagnostics, chart_path,
            f"{len(result.diagnostics)} diagnostic(s), "
            f"{result.errors} error(s)",
            1 if result.has_errors else 0)


def run_check(argv: List[str], out=sys.stdout) -> int:
    """``repro check``: bounded model checking on the compiled SLA planes.

    Explores the chart's configuration space through the built system's
    SLA, decides the declared safety/deadline properties within the
    bound and replays every counterexample on the real machine before
    reporting it (see docs/CHECKING.md).

    Exit status: 0 when every property is proved, 1 when a property is
    violated (with a replaying witness), 2 when the inputs or properties
    cannot be loaded, 3 when the bound was exhausted before a verdict.
    """
    return _report_command(
        argv, out, _check, prog="repro check",
        description="bounded model checker: proves `never`/`always reach`/"
                    "`deadline` properties over every reachable "
                    "configuration, or produces a machine-replayable "
                    "counterexample (see docs/CHECKING.md)",
        workload_help="check a shipped workload (with its shipped "
                      "properties) instead of reading files",
        enable_help="comma-separated default-suppressed codes to "
                    "re-enable",
        inputs=[
            (("--properties",), dict(
                default=None, metavar="FILE",
                help="sidecar property file (one property per line); "
                     "chart-embedded `property` declarations are always "
                     "checked too")),
            (("--depth",), dict(
                type=_positive_int, default=40,
                help="exploration depth bound in configuration cycles "
                     "(default: 40)")),
            (("--max-states",), dict(
                type=_positive_int, default=20000,
                help="state budget for the exploration (default: 20000)")),
        ],
        outputs=[
            (("--witness-dir",), dict(
                default=None, metavar="DIR",
                help="write <label>.pN.witness.json + forensics bundles "
                     "for every confirmed violation")),
        ])


def _check(parser, args, out):
    from repro.analysis.bmc import check_system

    properties_text = properties_path = None
    if args.properties is not None:
        try:
            with open(args.properties) as handle:
                properties_text = handle.read()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return None
        properties_path = args.properties

    if args.workload is not None:
        system, label = _lint_workload(args.workload)
        chart_path = f"{label}.sc"
        if properties_text is None:
            if args.workload == "smd":
                from repro.workloads import SMD_PROPERTIES
                properties_text = SMD_PROPERTIES
            else:
                from repro.workloads.elevator import ELEVATOR_PROPERTIES
                properties_text = ELEVATOR_PROPERTIES
    else:
        if args.project is None:
            parser.error("PROJECT or --workload is required")
        project = _load_project(args.project, args.routines, args, out)
        if project is None:
            return None
        chart_path, system = project.chart_path, project.built
        label = os.path.splitext(os.path.basename(chart_path))[0]

    result = check_system(
        system.frontend.chart, system.frontend.source, system,
        properties_text=properties_text, properties_path=properties_path,
        depth=args.depth, max_states=args.max_states,
        chart_path=chart_path, witness_dir=args.witness_dir, label=label,
        suppress=args.suppress, enable=args.enable)
    if result.truncation == "property errors":
        status = 2
    elif result.violated:
        status = 1
    elif result.undecided:
        status = 3
    else:
        status = 0
    return (result.diagnostics, chart_path,
            f"{len(result.verdicts)} propert"
            f"{'y' if len(result.verdicts) == 1 else 'ies'}, "
            f"{result.errors} error(s)",
            status)


def _build_for_flow(chart, routine_text: str, args):
    """The flow command's build: the improvement ladder's result under
    ``--improve``, otherwise one system on the selected architecture; each
    from the command's one front end."""
    if args.improve:
        return Improver(chart, routine_text).run()
    frontend = Frontend(chart, routine_text)
    if args.arch is not None:
        arch = _ARCHS[args.arch]
    else:
        arch = frontend.initial_architecture()
    if args.teps is not None:
        arch = arch.with_(n_teps=args.teps)
    if args.optimize:
        arch = arch.with_(microcode_optimized=True)
    return frontend.build(arch, specialize=args.optimize)


def run(argv: Optional[List[str]] = None, out=sys.stdout) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "lint":
        return run_lint(argv[1:], out)
    if argv and argv[0] == "check":
        return run_check(argv[1:], out)
    if argv and argv[0] == "trace":
        return run_trace(argv[1:], out)
    if argv and argv[0] == "stats":
        return run_stats(argv[1:], out)
    if argv and argv[0] == "faults":
        return run_faults(argv[1:], out)
    if argv and argv[0] == "serve":
        return run_serve(argv[1:], out)
    if argv and argv[0] == "forensics":
        return run_forensics(argv[1:], out)
    if argv and argv[0] == "why":
        return run_why(argv[1:], out)
    if argv and argv[0] == "fuzz":
        return run_fuzz(argv[1:], out)
    args = build_argument_parser().parse_args(argv)
    project = _load_project(args.chart, args.routines, args, out,
                            build=_build_for_flow)
    if project is None:
        return 2
    chart = project.chart

    if args.improve:
        result = project.built
        system = result.final
        if not args.json:
            print("improvement trajectory:", file=out)
            for step in result.steps:
                print(f"  {step.rung:20s} area {step.area_clbs:5d} "
                      f"violations {step.n_violations}", file=out)
            print(file=out)
            print(improvement_profile_report(result), file=out)
    else:
        system = project.built

    violations = system.violations()

    if args.json:
        summary = {
            "chart": chart.name,
            "architecture": system.arch.describe(),
            "area_clbs": system.area().total_clbs,
            "device": system.area().device().name,
            "critical_paths": system.critical_paths(),
            "violations": [v.describe() for v in violations],
            "routine_wcets": {name: wcet
                              for name, wcet in system.routine_wcets().items()
                              if not name.startswith("__")},
        }
        if args.improve:
            summary["improvement_profile"] = improvement_profile_json(result)
        json.dump(summary, out, indent=2)
        print(file=out)
    else:
        print(f"chart {chart.name!r}: {len(chart.states)} states, "
              f"{len(chart.transitions)} transitions", file=out)
        print(f"architecture: {system.arch.describe()}", file=out)
        print(file=out)
        print(table2_report(chart), file=out)
        print(file=out)
        print(table3_report(system.validator.all_cycles()), file=out)
        print(file=out)
        if violations:
            print("timing violations:", file=out)
            for violation in violations:
                print(f"  {violation.describe()}", file=out)
        else:
            print("all timing constraints met", file=out)
        print(file=out)
        print(system.area().report(), file=out)

    for kind in args.emit:
        print(file=out)
        print(f"---- {kind} ----", file=out)
        if kind == "blif":
            from repro.sla import emit_blif
            print(emit_blif(system.pla), file=out)
        elif kind == "vhdl":
            from repro.hw import emit_sla_vhdl
            print(emit_sla_vhdl(
                "sla", system.pla.layout.input_names(),
                system.pla.output_names(),
                system.pla.as_products_by_output()), file=out)
        elif kind == "asm":
            from repro.isa import emit_text
            print(emit_text(system.compiled.flat_instructions()), file=out)
        elif kind == "dot":
            from repro.statechart import TransitionGraph
            print(TransitionGraph(chart).to_dot(), file=out)

    if args.floorplan:
        from repro.hw import floorplan
        print(file=out)
        print(floorplan(system.area()).ascii_map(), file=out)

    return 1 if violations else 0


def main() -> None:  # pragma: no cover - thin wrapper
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (``| head``): point stdout at devnull so
        # the interpreter's final flush stays quiet, and exit 1 as Python
        # does on EPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover
    main()
