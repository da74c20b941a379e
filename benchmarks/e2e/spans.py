"""Per-layer tracing from the benchmark's own files.

The program is never asked to time itself.  :class:`Tracer` replaces each
probed callable — the class attribute, and every ``repro.*`` module binding
of the same function object — with a wrapper that records a span: name,
start, end, parent span, and the id of the cycle, item, node or chart the
work belongs to (set by the probe that opens that unit, inherited by the
spans inside it).  Spans stay in memory; :meth:`SpanStore.summary` reduces
them to per-name calls, total and self time, where a span's self time is
its duration minus the time its child spans cover.  Probes also count at
the same boundary (instructions retired, words copied, bytes sent), so
ratios are measured where the work happens.

:meth:`Tracer.uninstall` puts every original back, including bindings a
module imported while tracing took.  A probed callable that a later change
renames or deletes is listed in :attr:`Tracer.absent` and its metrics read
0; the run does not crash.

Worker processes of the distributed farm inherit the installed wrappers
when they are forked.  Each starts an empty span store at fork and writes
it to ``flush_dir`` when it sends its ``bye`` frame in answer to ``stop``;
:meth:`Tracer.collect_workers` merges those files into the rep.
"""

from __future__ import annotations

import contextlib
import functools
import glob
import importlib
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

clock = time.perf_counter_ns

#: the benchmark's own span around one traced rep
ROOT_SPAN = "rep"

#: the DeltaChain counters a checkpoint chain is summed by
_CHAIN_COUNTS = ("delta.fulls", "delta.deltas", "delta.full_bytes",
                 "delta.delta_bytes")


@dataclass(frozen=True)
class Probe:
    """One callable to wrap, and what to record at its boundary."""

    #: span name, ``layer.operation``
    span: str
    #: ``package.module:Class.attribute`` or ``package.module:function``
    target: str
    #: ``(store, args) -> id`` opened by this span for the spans inside it
    ident: Optional[Callable[["SpanStore", tuple], Any]] = None
    #: ``(store, args) -> token`` taken just before the call
    before: Optional[Callable[["SpanStore", tuple], Any]] = None
    #: ``(store, args, result, token, span)`` called after a normal return
    after: Optional[Callable[..., None]] = None


class SpanStore:
    """Spans and boundary counts of one process."""

    def __init__(self, names: List[str]) -> None:
        self.names = names
        #: [name index, start ns, end ns, parent index, id]
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.distinct: Dict[str, set] = defaultdict(set)
        #: end of the in-process farm's previous tick
        self.tick_mark: Optional[int] = None
        #: per checkpoint chain: its latest _CHAIN_COUNTS
        self.chains: Dict[int, Tuple[int, int, int, int]] = {}
        self.ordinals: Dict[str, int] = defaultdict(int)
        self.born = clock()
        #: set in a forked worker: where to write the store on ``bye``
        self.flush_path: Optional[str] = None

    def next_id(self, kind: str) -> int:
        self.ordinals[kind] += 1
        return self.ordinals[kind]

    # -- reduction ---------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Per-name calls/total/self, step durations and counts (JSON-able)."""
        now = clock()
        spans = self.spans
        child_ns = [0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child_ns[span[3]] += (span[2] or now) - span[1]
        per_name: Dict[str, Dict[str, int]] = {}
        steps: List[int] = []
        step_index = self.names.index("machine.step")
        for index, span in enumerate(spans):
            duration = (span[2] or now) - span[1]
            row = per_name.setdefault(self.names[span[0]],
                                      {"calls": 0, "total_ns": 0,
                                       "self_ns": 0})
            row["calls"] += 1
            row["total_ns"] += duration
            row["self_ns"] += duration - child_ns[index]
            if span[0] == step_index:
                steps.append(duration)
        counts = dict(self.counts)
        for name, values in self.distinct.items():
            counts[f"{name}.distinct"] = len(values)
        for chain in self.chains.values():
            for key, value in zip(_CHAIN_COUNTS, chain):
                counts[key] = counts.get(key, 0) + value
        return {"spans": per_name, "step_ns": steps, "counts": counts,
                "samples": {k: list(v) for k, v in self.samples.items()},
                "lifetime_ns": now - self.born}

    def flush(self) -> None:
        """Worker side: write summary and raw spans for the parent."""
        document = {"pid": os.getpid(), "summary": self.summary(),
                    "spans": self.spans}
        with open(self.flush_path, "w") as handle:
            json.dump(document, handle)


# ---------------------------------------------------------------------------
# boundary hooks
# ---------------------------------------------------------------------------

def _quiescent(store, args, result, token, span):
    if not result:
        store.counts["sla.quiescent"] += 1


def _words(store, args, result, token, span):
    store.counts["condcache.words"] += result


def _retired_before(store, args):
    return args[0].instructions_executed


def _retired_after(store, args, result, token, span):
    store.counts["tep.instructions"] += args[0].instructions_executed - token


def _distinct_instruction(store, args, result, token, span):
    store.distinct["microcode.cycle_cost"].add(args[0])


def _tick_start(store, args):
    store.tick_mark = clock()


def _tick_interval(store, args, result, token, span):
    # the in-process supervisor calls its sampler once at the end of every
    # tick: the interval between calls is one tick
    if store.tick_mark is not None:
        store.samples["farm.tick"].append(span[2] - store.tick_mark)
    store.tick_mark = span[2]


def _tick_span(store, args, result, token, span):
    store.samples["farm.tick"].append(span[2] - span[1])


def _snapshot_bytes(store, args, result, token, span):
    # encode every 16th capture only: encoding each would double the
    # layer's cost in the traced run
    if store.next_id("snapshot") % 16 == 1:
        store.samples["snapshot.bytes"].append(len(result.to_json_str()))


def _delta_record(store, args, result, token, span):
    chain = args[0]
    store.chains[id(chain)] = (chain.fulls_emitted, chain.deltas_emitted,
                               chain.full_bytes, chain.delta_bytes)


def _bytes_before(store, args):
    return args[0].bytes_sent


def _send_after(store, args, result, token, span):
    store.counts["transport.bytes"] += args[0].bytes_sent - token
    message = args[1]
    if (store.flush_path is not None and isinstance(message, dict)
            and message.get("op") == "bye"):
        store.flush()


def _explored(store, args, result, token, span):
    store.counts["bmc.explorations"] += 1
    store.counts["bmc.nodes"] += len(result.nodes)


def _successors(store, args, result, token, span):
    store.counts["bmc.edges"] += len(result)


def _decisions(store, args, result, token, span):
    # successors() runs one abstract step per subset of these events
    store.counts["bmc.expansions"] += 1
    store.counts["bmc.decision_events"] += len(result)
    store.counts["bmc.abstract_steps"] += 1 << len(result)


PROBES: Tuple[Probe, ...] = (
    # pscp.machine and its kernel layers
    Probe("machine.step", "repro.pscp.machine:PscpMachine.step",
          ident=lambda store, args: args[0].cycle_count),
    Probe("cr.sample", "repro.pscp.cr:ConfigurationRegister.sample_events"),
    Probe("cr.pack", "repro.pscp.cr:ConfigurationRegister.bits"),
    Probe("sla.enabled", "repro.sla.synth:Pla.enabled", after=_quiescent),
    Probe("scheduler.dispatch", "repro.pscp.scheduler:round_robin_dispatch"),
    Probe("condcache.copy",
          "repro.pscp.condcache:ConditionCacheBridge.copy_in", after=_words),
    Probe("condcache.copy",
          "repro.pscp.condcache:ConditionCacheBridge.copy_back",
          after=_words),
    Probe("tep.run", "repro.pscp.tep:Tep.run", before=_retired_before,
          after=_retired_after),
    Probe("microcode.cycle_cost", "repro.isa.microcode:cycle_cost",
          after=_distinct_instruction),
    # statechart hierarchy queries (machine state update, explorer, oracle)
    Probe("statechart.exit_entry", "repro.statechart.model:Chart.exit_set"),
    Probe("statechart.exit_entry", "repro.statechart.model:Chart.entry_set"),
    Probe("statechart.select",
          "repro.statechart.semantics:select_transitions"),
    # the SMD plant and loop driver
    Probe("environment", "repro.workloads.environment:SmdClosedLoop.run"),
    # farm machinery
    Probe("flightrec.record", "repro.obs.flightrec:FlightRecorder.record_step"),
    Probe("guard.check",
          "repro.fault.guard:MachineGuard.check_configuration"),
    Probe("queue.offer", "repro.resil.queue:BoundedQueue.offer",
          ident=lambda store, args: args[1].seq),
    Probe("farm.run", "repro.resil.supervisor:Supervisor.run",
          before=_tick_start),
    Probe("farm.run", "repro.resil.shardfarm:ShardSupervisor.run"),
    Probe("farm.sampler", "repro.obs.farm:FarmSampler.on_tick",
          after=_tick_interval),
    Probe("farm.tick", "repro.resil.shardfarm:ShardSupervisor._tick_once",
          after=_tick_span),
    Probe("snapshot.capture", "repro.resil.snapshot:snapshot_machine",
          after=_snapshot_bytes),
    Probe("delta.record", "repro.resil.delta:DeltaChain.record",
          after=_delta_record),
    Probe("transport.send", "repro.resil.transport:Channel.send",
          before=_bytes_before, after=_send_after),
    Probe("transport.recv", "repro.resil.transport:Channel.recv"),
    Probe("worker.dispatch", "repro.resil.shardfarm:WorkerCore.on_dispatch"),
    # the bounded model checker; the explorer's three entry points share
    # one name so its self time is the explorer's own work
    Probe("bmc.check", "repro.analysis.bmc.checker:check_system"),
    Probe("bmc.actions", "repro.analysis.bmc.explorer:abstract_actions"),
    Probe("bmc.explore", "repro.analysis.bmc.explorer:Explorer.explore",
          after=_explored),
    Probe("bmc.explore", "repro.analysis.bmc.explorer:Explorer.successors",
          ident=lambda store, args: store.next_id("node"),
          after=_successors),
    Probe("bmc.explore",
          "repro.analysis.bmc.explorer:Explorer.decision_events",
          after=_decisions),
    # the flow: source to built system
    Probe("flow.build", "repro.flow.build:build_system"),
    Probe("action.parse", "repro.action.parser:parse_with_preamble"),
    Probe("action.check", "repro.action.check:Checker.analyze"),
    Probe("codegen.compile", "repro.isa.codegen:CodeGenerator.compile"),
    Probe("cost.wcet", "repro.isa.cost:routine_wcets"),
    Probe("sla.synthesize", "repro.sla.synth:synthesize"),
    # the differential fuzzer
    Probe("fuzz.campaign", "repro.fuzz.campaign:FuzzCampaign.run"),
    Probe("fuzz.generate", "repro.fuzz.generator:generate_spec"),
    Probe("fuzz.oracle", "repro.fuzz.oracle:OracleHarness.run_all",
          ident=lambda store, args: store.next_id("chart")),
    Probe("fuzz.reference", "repro.fuzz.oracle:OracleHarness.reference_states"),
    Probe("fuzz.lint", "repro.analysis.runner:lint_system"),
)


# ---------------------------------------------------------------------------
# installing and removing the wrappers
# ---------------------------------------------------------------------------

def _program_modules():
    return [module for name, module in list(sys.modules.items())
            if (name == "repro" or name.startswith("repro."))
            and module is not None]


def _resolve(target: str):
    """``(owner, attribute, raw object)`` for *target*, or ``None``."""
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = vars(owner).get(attribute)
    if raw is None or not (callable(raw) or isinstance(raw, property)):
        return None
    return owner, attribute, raw


class Tracer:
    """Installs :data:`PROBES`, records spans, and removes them again."""

    def __init__(self, flush_dir: str) -> None:
        self.flush_dir = flush_dir
        names = [ROOT_SPAN]
        for probe in PROBES:
            if probe.span not in names:
                names.append(probe.span)
        self.names = names
        self.store = SpanStore(names)
        #: (owner, attribute, original, replacement) in install order
        self._patches: List[Tuple[Any, str, Any, Any]] = []
        self._wrappers: Dict[int, Any] = {}
        #: probe targets that do not exist
        self.absent: List[str] = []
        #: probe targets whose boundary hook met a changed program attribute
        self.broken_hooks: set = set()
        self.active = False
        os.register_at_fork(after_in_child=self._after_fork)

    # -- lifecycle ---------------------------------------------------------
    def install(self) -> None:
        """Wrap every probe target that exists; list the rest as absent."""
        if self.active:
            raise RuntimeError("tracer already installed")
        self.absent = []
        for probe in PROBES:
            resolved = _resolve(probe.target)
            if resolved is None:
                self.absent.append(probe.target)
                continue
            owner, attribute, raw = resolved
            if isinstance(raw, property):
                replacement = property(self._wrap(raw.fget, probe),
                                       raw.fset, raw.fdel, raw.__doc__)
            elif isinstance(raw, (staticmethod, classmethod)):
                replacement = type(raw)(self._wrap(raw.__func__, probe))
            else:
                replacement = self._wrap(raw, probe)
            self._patch(owner, attribute, raw, replacement)
            if not isinstance(owner, type):
                # module-level function: rebind every `from x import f`
                for module in _program_modules():
                    for name, value in list(vars(module).items()):
                        if value is raw and module is not owner:
                            self._patch(module, name, raw, replacement)
        self.active = True

    def uninstall(self) -> None:
        """Restore every original binding, newest first."""
        for owner, attribute, original, _ in reversed(self._patches):
            setattr(owner, attribute, original)
        # modules imported while tracing bound the wrappers themselves
        for module in _program_modules():
            for name, value in list(vars(module).items()):
                original = self._wrappers.get(id(value))
                if original is not None and original[1] is value:
                    setattr(module, name, original[0])
        self._patches = []
        self._wrappers = {}
        self.active = False

    def _patch(self, owner, attribute: str, original, replacement) -> None:
        setattr(owner, attribute, replacement)
        self._patches.append((owner, attribute, original, replacement))
        self._wrappers[id(replacement)] = (original, replacement)

    def _after_fork(self) -> None:
        if self.active:
            self.store = SpanStore(self.names)
            self.store.flush_path = os.path.join(
                self.flush_dir, f"worker-{os.getpid()}.json")

    def _wrap(self, function, probe: Probe):
        tracer = self
        name_index = self.names.index(probe.span)
        ident, before, after = probe.ident, probe.before, probe.after

        def hook(call, *args):
            # a hook reads program attributes; one a later change renamed
            # reports the probe absent instead of failing the traced rep
            try:
                return call(*args)
            except (AttributeError, TypeError, KeyError, IndexError):
                tracer.broken_hooks.add(probe.target)
                return None

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            store = tracer.store
            stack = store.stack
            parent = stack[-1] if stack else -1
            if ident is not None:
                span_id = hook(ident, store, args)
            else:
                span_id = store.spans[parent][4] if parent >= 0 else None
            token = hook(before, store, args) if before is not None else None
            span = [name_index, 0, 0, parent, span_id]
            stack.append(len(store.spans))
            store.spans.append(span)
            span[1] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                hook(after, store, args, result, token, span)
            return result

        return wrapper

    # -- one traced rep ----------------------------------------------------
    @contextlib.contextmanager
    def traced_rep(self):
        """Install the probes and open the root span for one rep."""
        self.install()
        self.store = SpanStore(self.names)
        store = self.store
        store.stack.append(0)
        store.spans.append([0, clock(), 0, -1, None])
        try:
            yield store
        finally:
            store.spans[0][2] = clock()
            store.stack.pop()
            self.uninstall()

    def collect_workers(self) -> List[Dict[str, Any]]:
        """Read and remove the span files forked workers flushed."""
        documents = []
        for path in sorted(glob.glob(os.path.join(self.flush_dir,
                                                  "worker-*.json"))):
            with open(path) as handle:
                documents.append(json.load(handle))
            os.remove(path)
        return documents


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def merge(summaries: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum per-process summaries into one (lifetimes stay per process)."""
    merged: Dict[str, Any] = {"spans": {}, "step_ns": [], "counts": {},
                              "samples": {}}
    for summary in summaries:
        for name, row in summary["spans"].items():
            into = merged["spans"].setdefault(
                name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            for key in into:
                into[key] += row[key]
        merged["step_ns"].extend(summary["step_ns"])
        for name, value in summary["counts"].items():
            merged["counts"][name] = merged["counts"].get(name, 0) + value
        for name, values in summary["samples"].items():
            merged["samples"].setdefault(name, []).extend(values)
    return merged


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: every per-layer metric: name -> unit (the order the README lists them)
LAYER_UNITS: Dict[str, str] = {
    "machine.step.calls": "count",
    "machine.step.self_s": "s",
    "machine.step.p50_us": "us",
    "machine.step.p99_us": "us",
    "sla.enabled.calls": "count",
    "sla.enabled.self_s": "s",
    "sla.enabled.ns_per_call": "ns",
    "sla.quiescent_ratio": "ratio",
    "cr.pack.self_s": "s",
    "cr.sample.self_s": "s",
    "tep.run.calls": "count",
    "tep.run.self_s": "s",
    "tep.instructions": "count",
    "tep.ns_per_instruction": "ns",
    "microcode.cycle_cost.calls": "count",
    "microcode.cycle_cost.self_s": "s",
    "microcode.cycle_cost.distinct_ratio": "ratio",
    "condcache.copy.calls": "count",
    "condcache.copy.self_s": "s",
    "condcache.words": "count",
    "scheduler.dispatch.self_s": "s",
    "statechart.exit_entry.calls": "count",
    "statechart.exit_entry.self_s": "s",
    "statechart.select.calls": "count",
    "statechart.select.self_s": "s",
    "environment.self_s": "s",
    "flightrec.record.self_s": "s",
    "guard.check.self_s": "s",
    "queue.offer.calls": "count",
    "queue.offer.self_s": "s",
    "farm.run.self_s": "s",
    "farm.tick.count": "count",
    "farm.tick.p50_ms": "ms",
    "farm.tick.p99_ms": "ms",
    "snapshot.capture.calls": "count",
    "snapshot.capture.self_s": "s",
    "snapshot.bytes_mean": "B",
    "delta.record.calls": "count",
    "delta.record.self_s": "s",
    "delta.full_ratio": "ratio",
    "delta.bytes_ratio": "ratio",
    "transport.send.calls": "count",
    "transport.send.self_s": "s",
    "transport.bytes": "B",
    "transport.recv.wait_s": "s",
    "worker.dispatch.self_s": "s",
    "worker.busy_ratio": "ratio",
    "bmc.explore.self_s": "s",
    "bmc.nodes": "count",
    "bmc.abstract_steps": "count",
    "bmc.new_state_ratio": "ratio",
    "bmc.decision_events_mean": "count",
    "bmc.actions.self_s": "s",
    "bmc.properties.self_s": "s",
    "flow.build.calls": "count",
    "flow.build.self_s": "s",
    "action.parse.self_s": "s",
    "action.check.self_s": "s",
    "codegen.compile.self_s": "s",
    "cost.wcet.self_s": "s",
    "sla.synthesize.self_s": "s",
    "fuzz.generate.self_s": "s",
    "fuzz.reference.self_s": "s",
    "fuzz.lint.self_s": "s",
    "fuzz.builds_per_chart": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_ratio": "ratio",
}


def layer_metrics(main: Dict[str, Any],
                  workers: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer metric values of one traced rep.

    *main* is the benchmark process's summary, *workers* those of forked
    farm workers.  ``trace.overhead_ratio`` needs the untraced reps and is
    filled in by the caller.
    """
    total = merge([main] + workers)
    spans, counts, samples = total["spans"], total["counts"], total["samples"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name):
        return spans.get(name, {}).get("self_ns", 0) / 1e9

    def total_ns(name, source=spans):
        return source.get(name, {}).get("total_ns", 0)

    ticks = samples.get("farm.tick", [])
    snapshot_bytes = samples.get("snapshot.bytes", [])
    fulls, deltas = counts.get("delta.fulls", 0), counts.get("delta.deltas", 0)
    full_mean = _ratio(counts.get("delta.full_bytes", 0), fulls)
    delta_mean = _ratio(counts.get("delta.delta_bytes", 0), deltas)
    worker_dispatch = sum(total_ns("worker.dispatch", w["spans"])
                          for w in workers)
    worker_life = sum(w["lifetime_ns"] for w in workers)
    root = main["spans"].get(ROOT_SPAN, {})

    values = {
        "machine.step.calls": calls("machine.step"),
        "machine.step.self_s": self_s("machine.step"),
        "machine.step.p50_us": _percentile(total["step_ns"], 50) / 1e3,
        "machine.step.p99_us": _percentile(total["step_ns"], 99) / 1e3,
        "sla.enabled.calls": calls("sla.enabled"),
        "sla.enabled.self_s": self_s("sla.enabled"),
        "sla.enabled.ns_per_call": _ratio(self_s("sla.enabled") * 1e9,
                                          calls("sla.enabled")),
        "sla.quiescent_ratio": _ratio(counts.get("sla.quiescent", 0),
                                      calls("sla.enabled")),
        "cr.pack.self_s": self_s("cr.pack"),
        "cr.sample.self_s": self_s("cr.sample"),
        "tep.run.calls": calls("tep.run"),
        "tep.run.self_s": self_s("tep.run"),
        "tep.instructions": counts.get("tep.instructions", 0),
        "tep.ns_per_instruction": _ratio(total_ns("tep.run"),
                                         counts.get("tep.instructions", 0)),
        "microcode.cycle_cost.calls": calls("microcode.cycle_cost"),
        "microcode.cycle_cost.self_s": self_s("microcode.cycle_cost"),
        "microcode.cycle_cost.distinct_ratio": _ratio(
            counts.get("microcode.cycle_cost.distinct", 0),
            calls("microcode.cycle_cost")),
        "condcache.copy.calls": calls("condcache.copy"),
        "condcache.copy.self_s": self_s("condcache.copy"),
        "condcache.words": counts.get("condcache.words", 0),
        "scheduler.dispatch.self_s": self_s("scheduler.dispatch"),
        "statechart.exit_entry.calls": calls("statechart.exit_entry"),
        "statechart.exit_entry.self_s": self_s("statechart.exit_entry"),
        "statechart.select.calls": calls("statechart.select"),
        "statechart.select.self_s": self_s("statechart.select"),
        "environment.self_s": self_s("environment"),
        "flightrec.record.self_s": self_s("flightrec.record"),
        "guard.check.self_s": self_s("guard.check"),
        "queue.offer.calls": calls("queue.offer"),
        "queue.offer.self_s": self_s("queue.offer"),
        "farm.run.self_s": self_s("farm.run"),
        "farm.tick.count": len(ticks),
        "farm.tick.p50_ms": _percentile(ticks, 50) / 1e6,
        "farm.tick.p99_ms": _percentile(ticks, 99) / 1e6,
        "snapshot.capture.calls": calls("snapshot.capture"),
        "snapshot.capture.self_s": self_s("snapshot.capture"),
        "snapshot.bytes_mean": (statistics.fmean(snapshot_bytes)
                                if snapshot_bytes else 0.0),
        "delta.record.calls": calls("delta.record"),
        "delta.record.self_s": self_s("delta.record"),
        "delta.full_ratio": _ratio(fulls, fulls + deltas),
        "delta.bytes_ratio": _ratio(delta_mean, full_mean),
        "transport.send.calls": calls("transport.send"),
        "transport.send.self_s": self_s("transport.send"),
        "transport.bytes": counts.get("transport.bytes", 0),
        # the supervisor's side only: a worker's recv is idle waiting
        "transport.recv.wait_s": total_ns("transport.recv",
                                          main["spans"]) / 1e9,
        "worker.dispatch.self_s": self_s("worker.dispatch"),
        "worker.busy_ratio": _ratio(worker_dispatch, worker_life),
        "bmc.explore.self_s": self_s("bmc.explore"),
        "bmc.nodes": counts.get("bmc.nodes", 0),
        "bmc.abstract_steps": counts.get("bmc.abstract_steps", 0),
        # every exploration's initial node is new without an edge
        "bmc.new_state_ratio": _ratio(
            counts.get("bmc.nodes", 0) - counts.get("bmc.explorations", 0),
            counts.get("bmc.edges", 0)),
        "bmc.decision_events_mean": _ratio(
            counts.get("bmc.decision_events", 0),
            counts.get("bmc.expansions", 0)),
        "bmc.actions.self_s": self_s("bmc.actions"),
        "bmc.properties.self_s": self_s("bmc.check"),
        "flow.build.calls": calls("flow.build"),
        "flow.build.self_s": self_s("flow.build"),
        "action.parse.self_s": self_s("action.parse"),
        "action.check.self_s": self_s("action.check"),
        "codegen.compile.self_s": self_s("codegen.compile"),
        "cost.wcet.self_s": self_s("cost.wcet"),
        "sla.synthesize.self_s": self_s("sla.synthesize"),
        "fuzz.generate.self_s": self_s("fuzz.generate"),
        "fuzz.reference.self_s": self_s("fuzz.reference"),
        "fuzz.lint.self_s": self_s("fuzz.lint"),
        "fuzz.builds_per_chart": _ratio(calls("flow.build"),
                                        calls("fuzz.generate")),
        "trace.overhead_ratio": 0.0,
        "trace.unattributed_ratio": _ratio(root.get("self_ns", 0),
                                           root.get("total_ns", 0)),
    }
    return values
