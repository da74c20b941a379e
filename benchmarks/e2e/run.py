"""External end-to-end benchmark of the PSCP reproduction.

One workload, the command ``BENCHMARK.json`` names (from the repository
root)::

    python3 benchmarks/e2e/run.py --workload smd --seed 1 --seconds 15 \
        --trace 0 [--out DOC.json]

It builds nothing: the program is pure Python and is imported from
``src/`` of the same checkout.  After one untimed warmup rep it repeats
fresh reps (set-up, then work) for ``--seconds``, checks every rep's
simulated digest, and prints as its last stdout line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics (scaled to a reference host speed by the benchmark's own host
probe, :class:`HostProbe`) with ``--trace 0``, the per-layer metrics of the
separate traced run with ``--trace 1``.  Exit status is 0 only when every
rep is correct and no operation failed.

Every workload, one fresh child process each, one after another::

    python -m benchmarks.e2e run --seed 1 [--out DOC.json]
    python -m benchmarks.e2e trace --seed 1 [--out DOC.json]

``run`` prints every end-to-end metric by name, unit and sample count and
writes one JSON document; ``trace`` does the same for the per-layer split.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import mmap
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
if __package__ in (None, ""):
    # run as a script: import this package from the checkout root, not
    # from this directory (keeps stdlib module names unshadowed)
    sys.path[0] = ROOT

from benchmarks.e2e import spans as span_tracing  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS, Workload  # noqa: E402

HERE = os.path.join(ROOT, "benchmarks", "e2e")
EXPECTED_DIR = os.path.join(HERE, "expected")
OUT_DIR = os.path.join(HERE, "out")
DEFAULT_SECONDS = 15
#: timed reps a run makes at least, however long they take
MIN_REPS = 3

#: end-to-end metric -> unit
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


class ProgramMissing(Exception):
    """The checkout holds no importable program under ``src/``."""


def load_program() -> None:
    """Import the program from this checkout's ``src/`` or refuse."""
    source = os.path.join(ROOT, "src")
    if source not in sys.path:
        sys.path.insert(0, source)
    try:
        import repro
    except ImportError as exc:
        raise ProgramMissing(f"cannot import the program from {source}: "
                             f"{exc}") from None
    where = os.path.dirname(os.path.abspath(repro.__file__))
    if not where.startswith(source + os.sep):
        raise ProgramMissing(f"imported repro from {where}, not {source}")


# ---------------------------------------------------------------------------
# host yardstick
# ---------------------------------------------------------------------------

#: loop iterations of one probe slice, and the process CPU time between
#: slices: about 0.5 ms of probing per 10 ms of the program
SLICE_ITERATIONS = 2000
PROBE_PERIOD_S = 0.01
#: a slice's time on the reference host; end-to-end times are reported as
#: if measured on a host this fast (see README, "Steadiness")
SLICE_REFERENCE_S = 0.0005
#: forked children probed per timed part; the distributed farm forks two
CHILD_SLOTS = 8
#: iterations of the calibration loop timed between reps
CALIBRATION_ITERATIONS = 280_000

_TABLE: Dict[int, int] = {}
_MEMBERS: set = set()


def host_fingerprint() -> Dict[str, Any]:
    uname = platform.uname()
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "system": uname.system, "release": uname.release,
            "machine": uname.machine, "cpus": os.cpu_count()}


def spin(iterations: int) -> float:
    """CPU seconds of this thread for a fixed pure-Python loop of dict and
    set updates — the benchmark's own host-speed yardstick.  No change to
    the program can move it, and it exercises the interpreter paths the
    simulator leans on, so it slows when the host slows the program.

    It counts CPU time, not wall time, so a farm worker that preempts it on
    a shared core does not read as a slow host.  It reuses one dict and one
    set of ints, and it runs with the garbage collector off: no collection
    that walks the program's heap lands inside it, so the garbage a program
    leaves behind cannot move the yardstick."""
    table, members = _TABLE, _MEMBERS
    table.clear()
    members.clear()
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.thread_time()
        for i in range(iterations):
            key = i % 997
            table[key] = table.get(key, 0) + (i & 7)
            if i & 3 == 0:
                members.add(key * 16 + (i & 15))
            elif i & 3 == 1:
                members.discard((key - 1) * 16 + (i & 15))
        return time.thread_time() - started
    finally:
        if collecting:
            gc.enable()


def calibration_loop() -> float:
    """The yardstick timed between reps, after the rep's garbage is
    collected; recorded as host metadata, never a metric."""
    gc.collect()
    return spin(CALIBRATION_ITERATIONS)


#: per forked child, its slices' total seconds and count, in anonymous
#: memory shared with every child forked after import
_CHILD_SLICES = memoryview(mmap.mmap(-1, 16 * CHILD_SLOTS)).cast("d")


class HostProbe:
    """Samples host speed at the moments the program runs.

    The host's speed swings up to 2x within tenths of a second while
    other tenants come and go, so a yardstick timed between reps sees
    another host than the rep did.  This one runs a slice of :func:`spin`
    every :data:`PROBE_PERIOD_S` of a process's CPU time, from a SIGPROF
    handler between the program's bytecodes: in this process, and in each
    of the first :data:`CHILD_SLOTS` processes the program forks while the
    probe runs (the farm's shard workers), whose slices come back through
    :data:`_CHILD_SLICES`.
    """

    #: the probe now running in this process, if any
    running: Optional["HostProbe"] = None

    def __init__(self) -> None:
        self.slices: List[float] = []
        self.forks = 0
        #: (total seconds, count) of the forked children's slices
        self.child_slices = (0.0, 0)

    def _on_signal(self, signum, frame) -> None:
        self.slices.append(spin(SLICE_ITERATIONS))

    def __enter__(self) -> "HostProbe":
        for index in range(len(_CHILD_SLICES)):
            _CHILD_SLICES[index] = 0.0
        HostProbe.running = self
        self._previous = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        HostProbe.running = None
        # the program has joined its children by now
        self.child_slices = (sum(_CHILD_SLICES[0::2]),
                             int(sum(_CHILD_SLICES[1::2])))

    def mean_slice(self) -> float:
        """Mean slice over every probed process: each slice stands for
        the same CPU time, so this weighs each process by its CPU time."""
        seconds, count = self.child_slices
        return (sum(self.slices) + seconds) / (len(self.slices) + count)


def _before_fork() -> None:
    if HostProbe.running is not None:
        HostProbe.running.forks += 1


def _in_forked_child() -> None:
    probe = HostProbe.running
    if probe is None or probe.forks > CHILD_SLOTS:
        return  # no timer survives a fork: the child runs unprobed
    slot = 2 * (probe.forks - 1)

    def on_signal(signum, frame) -> None:
        _CHILD_SLICES[slot] += spin(SLICE_ITERATIONS)
        _CHILD_SLICES[slot + 1] += 1

    signal.signal(signal.SIGPROF, on_signal)
    signal.setitimer(signal.ITIMER_PROF, PROBE_PERIOD_S, PROBE_PERIOD_S)


os.register_at_fork(before=_before_fork, after_in_child=_in_forked_child)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child."""
    scale = 2 ** 20 if sys.platform == "darwin" else 2 ** 10
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / scale


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def load_expected(seed: int) -> Optional[Dict[str, Any]]:
    """Recorded digests for *seed*, or ``None`` when none were recorded."""
    path = os.path.join(EXPECTED_DIR, f"seed-{seed}.json")
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)


def _normalized(document: Any) -> Any:
    return json.loads(json.dumps(document, sort_keys=True))


def _timed(call, *args, probed: bool):
    """``(result, seconds, probe)``: *call*'s wall time without the CPU
    time of this process's probe slices taken inside it, and the probe
    (``None`` when not *probed*)."""
    probe = HostProbe() if probed else None
    with probe or contextlib.nullcontext():
        started = time.perf_counter()
        result = call(*args)
    elapsed = time.perf_counter() - started
    if probe is not None:
        elapsed -= sum(probe.slices)
        if not probe.slices:
            # shorter than one probe period: sample the host right after it
            probe.slices.append(spin(SLICE_ITERATIONS))
    return result, elapsed, probe


def _rep(workload: Workload, probed: bool = True) -> Dict[str, Any]:
    """One fresh rep: set-up then work, each timed on its own."""
    gc.collect()
    ready, setup_s, setup_probe = _timed(workload.setup, probed=probed)
    outcome, work_s, work_probe = _timed(workload.run, ready, probed=probed)
    del ready
    return {"setup_s": setup_s, "work_s": work_s, "outcome": outcome,
            "setup_probe": setup_probe, "work_probe": work_probe}


def _probe_record(probe: Optional[HostProbe]) -> Optional[Dict[str, Any]]:
    if probe is None:
        return None
    seconds, count = probe.child_slices
    return {"mean_s": probe.mean_slice(), "slices": len(probe.slices),
            "own_mean_s": statistics.fmean(probe.slices),
            "child_slices": count,
            "child_mean_s": seconds / count if count else None}


def _summary(values: List[float], unit: str,
             value: Optional[float] = None) -> Dict[str, Any]:
    """*value* (default: the median) with the sample's spread."""
    quartiles = (statistics.quantiles(values, n=4) if len(values) > 1
                 else [values[0]] * 3)
    median = statistics.median(values)
    return {"value": median if value is None else value, "unit": unit,
            "samples": len(values), "median": median, "q1": quartiles[0],
            "q3": quartiles[2], "min": min(values), "max": max(values)}


def measure(name: str, seed: int, seconds: float, trace: bool,
            expected: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Run one workload and return its document (see the module doc).

    *expected* is the workload's recorded digest; without one, every rep
    must match the warmup rep and the workload's invariants.  A traced run
    also writes its last traced rep's spans to :data:`OUT_DIR`.
    """
    workload = WORKLOADS[name](seed)
    warmup = _rep(workload)
    reference = _normalized(warmup["outcome"].digest)
    tracer = span_tracing.Tracer(flush_dir=OUT_DIR) if trace else None
    if tracer is not None:
        os.makedirs(OUT_DIR, exist_ok=True)

    reps: List[Dict[str, Any]] = []
    layer_samples: List[Dict[str, float]] = []
    last_spans: Dict[str, Any] = {}
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(reps) < MIN_REPS \
            or (tracer is not None and not layer_samples):
        traced = tracer is not None and len(reps) % 2 == 1
        if traced:
            with tracer.traced_rep() as store:
                rep = _rep(workload, probed=False)
            workers = tracer.collect_workers()
            layer_samples.append(span_tracing.layer_metrics(
                store.summary(), [w["summary"] for w in workers]))
            last_spans = {"main": store.spans,
                          **{f"worker-{w['pid']}": w["spans"]
                             for w in workers}}
        else:
            rep = _rep(workload)
        rep["traced"] = traced
        rep["calibration_s"] = calibration_loop()
        reps.append(rep)

    problems: List[str] = []
    attempted = failed = 0
    for index, rep in enumerate(reps):
        outcome = rep["outcome"]
        digest = _normalized(outcome.digest)
        rep_problems = list(outcome.problems)
        if expected is not None and digest != expected:
            rep_problems.append("digest differs from the recorded one")
        if digest != reference:
            rep_problems.append("digest differs from the warmup rep's")
        attempted += outcome.ops
        failed += outcome.ops if rep_problems else outcome.failed
        rep["ok"] = not rep_problems
        problems.extend(f"rep {index}: {p}" for p in rep_problems)

    untraced = [r for r in reps if not r["traced"]]
    rates = [r["outcome"].work / r["work_s"] for r in untraced]

    def slowdown(rep, part):
        # the host's slowness during one part of the rep: its mean probe
        # slice over the reference slice
        return rep[f"{part}_probe"].mean_slice() / SLICE_REFERENCE_S

    # each rep's value as if timed on the reference host
    scaled_setups = [r["setup_s"] / slowdown(r, "setup") for r in untraced]
    scaled_rates = [rate * slowdown(r, "work")
                    for rate, r in zip(rates, untraced)]

    document: Dict[str, Any] = {
        "schema": 1,
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "work_unit": workload.work_unit,
        "op_unit": workload.op_unit,
        "host": {"fingerprint": host_fingerprint(),
                 "calibration_s": _summary(
                     [r["calibration_s"] for r in reps], "s"),
                 "slice_reference_s": SLICE_REFERENCE_S},
        "digest": reference,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "problems": problems,
        "reps": [{"setup_s": r["setup_s"], "work_s": r["work_s"],
                  "work": r["outcome"].work, "ops": r["outcome"].ops,
                  "calibration_s": r["calibration_s"],
                  # the host probe per part (none in traced reps)
                  "setup_probe": _probe_record(r["setup_probe"]),
                  "work_probe": _probe_record(r["work_probe"]),
                  "traced": r["traced"], "ok": r["ok"]} for r in reps],
        # raw samples; "value" is their median at the reference host speed
        "end_to_end": {
            "setup_s": _summary([r["setup_s"] for r in untraced], "s",
                                statistics.median(scaled_setups)),
            "ops_per_s": _summary(rates, "1/s",
                                  statistics.median(scaled_rates)),
            "peak_rss_mb": _summary([peak_rss_mb()], "MB"),
        },
    }
    if tracer is not None:
        traced_total = statistics.median(
            r["setup_s"] + r["work_s"] for r in reps if r["traced"])
        plain_total = statistics.median(
            r["setup_s"] + r["work_s"] for r in untraced)
        for sample in layer_samples:
            sample["trace.overhead_ratio"] = traced_total / plain_total - 1
        document["per_layer"] = {
            metric: {"value": statistics.median(s[metric]
                                                for s in layer_samples),
                     "unit": unit, "samples": len(layer_samples)}
            for metric, unit in span_tracing.LAYER_UNITS.items()}
        document["absent"] = tracer.absent + [
            f"{target} (boundary count)"
            for target in sorted(tracer.broken_hooks)]
        spans_path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.json")
        with open(spans_path, "w") as handle:
            json.dump({"names": tracer.names, "processes": last_spans},
                      handle)
    return document


def result_line(document: Dict[str, Any]) -> Dict[str, Any]:
    """The result object printed as the last stdout line."""
    section = "per_layer" if document["trace"] else "end_to_end"
    return {"correct": document["correct"],
            "attempted": document["attempted"],
            "failed": document["failed"],
            "metrics": {metric: {"value": entry["value"],
                                 "unit": entry["unit"]}
                        for metric, entry in document[section].items()}}


def run_one(args) -> int:
    load_program()
    expected = (load_expected(args.seed) or {}).get(args.workload)
    document = measure(args.workload, args.seed, args.seconds,
                       bool(args.trace), expected=expected)
    if args.out is not None:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
    for problem in document["problems"]:
        print(f"error: {problem}", file=sys.stderr)
    for absent in document.get("absent", ()):
        print(f"absent: {absent}")
    print(json.dumps(result_line(document)))
    return 0 if document["correct"] and not document["failed"] else 1


# ---------------------------------------------------------------------------
# every workload
# ---------------------------------------------------------------------------

def run_suite(args) -> int:
    """Each workload in its own fresh child process, one after another."""
    load_program()
    os.makedirs(OUT_DIR, exist_ok=True)
    documents: Dict[str, Any] = {}
    status = 0
    for name in WORKLOADS:
        child_out = os.path.join(OUT_DIR, f"child-{name}.json")
        command = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(DEFAULT_SECONDS),
                   "--trace", "1" if args.mode == "trace" else "0",
                   "--out", child_out]
        print(f"[{name}] running ...", file=sys.stderr, flush=True)
        child = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True)
        if child.returncode != 0:
            status = 1
            sys.stderr.write(child.stderr)
        if not os.path.exists(child_out):
            print(f"[{name}] no result (exit {child.returncode})",
                  file=sys.stderr)
            continue
        with open(child_out) as handle:
            documents[name] = json.load(handle)
        os.remove(child_out)

    section = "per_layer" if args.mode == "trace" else "end_to_end"
    print(f"{'workload':<17} {'metric':<36} {'value':>14} {'unit':<6} "
          f"{'samples':>7}")
    for name, document in documents.items():
        for metric, entry in document[section].items():
            if section == "per_layer" and not entry["value"]:
                continue
            print(f"{name:<17} {metric:<36} {entry['value']:>14.6g} "
                  f"{entry['unit']:<6} {entry['samples']:>7}")
        print(f"{name:<17} {'error_rate':<36} {document['error_rate']:>14.6g}"
              f" {'ratio':<6} {document['attempted']:>7}")
        for absent in document.get("absent", ()):
            print(f"{name:<17} absent: {absent}")
    suite = {"schema": 1, "mode": args.mode, "seed": args.seed,
             "seconds": DEFAULT_SECONDS, "host": host_fingerprint(),
             "workloads": documents}
    out = args.out or os.path.join(OUT_DIR, f"{args.mode}-seed{args.seed}"
                                            f".json")
    with open(out, "w") as handle:
        json.dump(suite, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out}")
    if any(not d["correct"] or d["failed"] for d in documents.values()):
        status = 1
    return status


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in ("run", "trace"):
        parser = argparse.ArgumentParser(
            prog="python -m benchmarks.e2e",
            description="run every workload, each in a fresh process")
        parser.add_argument("mode", choices=["run", "trace"])
        parser.add_argument("--seed", type=int, default=1)
        parser.add_argument("--out", default=None,
                            help="suite document path (default: "
                                 "benchmarks/e2e/out/<mode>-seed<N>.json)")
        runner = run_suite
    else:
        parser = argparse.ArgumentParser(
            prog="benchmarks/e2e/run.py",
            description="measure one workload; the last stdout line is the "
                        "result JSON")
        parser.add_argument("--workload", required=True,
                            choices=sorted(WORKLOADS))
        parser.add_argument("--seed", type=int, required=True)
        parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
        parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
        parser.add_argument("--out", default=None,
                            help="also write the full JSON document here")
        runner = run_one
    args = parser.parse_args(argv)
    try:
        return runner(args)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
