#!/usr/bin/env python
"""Observability-overhead guard for the closed-loop benchmark.

Runs the bench_closed_loop workload (the paper's final architecture against
the fast-motor physics) in four legs, timed after one untimed warmup and
then interleaved round by round.  Samples are timed in process CPU time
(:func:`time.process_time_ns`), which other processes on a shared host do
not inflate the way they inflate wall-clock time.  One closed-loop run
lasts only tens of milliseconds, so each timed sample is *k* back-to-back
runs, with *k* fixed once, before the first round, so that a disabled
sample takes at least ``MIN_SAMPLE_S`` of CPU time:

* **disabled** — no instrumentation at all;
* **recorder** — flight recorder attached, tracing off (the always-on
  production configuration);
* **lineage** — :class:`~repro.obs.lineage.LineageTracker` attached (the
  causal-provenance recorder: hot path appends raw hop tuples only, all
  DAG digestion is deferred to query time);
* **enabled** — tracer attached.

Checks, against ``scripts/overhead_baseline.json``:

* **determinism**: total reference-clock cycles, configuration cycles and
  final motor positions of every run must match across all four legs and
  the baseline exactly — observability must not perturb the simulation;
* **leg overhead**: the recorder and lineage legs must stay within
  ``--threshold`` (default 5%) of the disabled leg — a *hard* failure.
  Overhead is the median of per-round ratios (:func:`paired_overhead`):
  within a round the legs run back-to-back so load drift cancels in the
  ratio.  When a budget overshoots, the measurement is *extended* (another
  full set of rounds, pooled with the first) up to ``--retries`` times
  before failing: the cumulative median converges on the true overhead,
  so a noise burst that swamps a few rounds washes out while a real
  regression only firms up.  The tracer leg is advisory: it may cost
  something, a warning is printed when it does.

Each leg also prints what it adds to one closed-loop run in ms of CPU
time (:func:`added_cost_ms`: the leg's median minus the disabled median,
over the runs per sample), which tells a faster disabled run apart from a
costlier observer: the percentage grows in either case.

Host-time regressions of the simulator itself are the job of the
end-to-end benchmark (``python -m benchmarks.e2e run``), not of this guard.

Refresh the baseline after an intended simulator change::

    PYTHONPATH=src python scripts/check_overhead.py --update
"""

import argparse
import gc
import json
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.flow import build_system
from repro.isa import MD16_TEP
from repro.obs import FlightRecorder, LineageTracker, Tracer
from repro.workloads import (
    MoveCommand,
    SMD_MUTUAL_EXCLUSIONS,
    SMD_ROUTINES,
    SmdClosedLoop,
    smd_chart,
)
from repro.workloads.motors import MotorSpec

BASELINE_PATH = Path(__file__).with_name("overhead_baseline.json")

# mirror benchmarks/bench_closed_loop.py exactly
FAST_MOTORS = {
    "X": MotorSpec("X", 50_000.0, 0.025e-3, 1.25, 2000.0),
    "Y": MotorSpec("Y", 50_000.0, 0.025e-3, 1.25, 2000.0),
    "Phi": MotorSpec("Phi", 9_000.0, 0.1, 900.0, 0.0),
}
COMMANDS = [MoveCommand(60, 45, 8), MoveCommand(25, 30, 4)]

#: the legs whose overhead budget is a hard failure: the flight recorder is
#: always-on in production farms and the lineage tracker rides every farm
#: run under --lineage; the full tracer's budget is advisory
HARD_LEGS = ("recorder", "lineage")
MEASURED_LEGS = HARD_LEGS + ("enabled",)

#: shortest disabled sample: scheduler noise of a few milliseconds stays
#: well under the budgets' share of it
MIN_SAMPLE_S = 0.2


def median(values):
    """The sample median (mean of the middle pair for even counts)."""
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[middle])
    return (ordered[middle - 1] + ordered[middle]) / 2.0


class LegTiming:
    """Per-leg result of :func:`measure_interleaved`."""

    __slots__ = ("times_ns", "payload")

    def __init__(self):
        #: one process-CPU-time sample per timed round, in nanoseconds
        self.times_ns = []
        #: the leg callable's return value from the last timed round
        self.payload = None

    @property
    def median_ns(self):
        return median(self.times_ns)


def measure_interleaved(legs, rounds):
    """Time *legs* (ordered name → zero-argument callable) interleaved.

    Every leg first runs one untimed warmup repetition (in leg order), then
    *rounds* timed rounds run the legs round-robin, with the schedule
    *rotated* one position every round (a Latin-square scheme: over
    ``len(legs)`` rounds each leg occupies each position exactly once).
    That cancels position-dependent load bias — both monotonic drift
    (which taxes late positions) and periodic bursts whose period aliases
    against the round time (which tax one fixed position).  Each callable's
    return value is kept as the leg's ``payload`` (last round wins) so the
    caller can check determinism of what the timed runs computed.
    """
    results = {name: LegTiming() for name in legs}
    for run in legs.values():
        run()
    order = list(legs.items())
    for round_index in range(rounds):
        shift = round_index % len(order)
        for name, run in order[shift:] + order[:shift]:
            # drain garbage left by the previous leg outside the timed
            # window: collections trigger on allocation thresholds, so
            # without this they land *systematically* in whichever leg
            # the accumulated pattern taxes, biasing the paired ratios
            gc.collect()
            started = time.process_time_ns()
            payload = run()
            elapsed = time.process_time_ns() - started
            timing = results[name]
            timing.times_ns.append(elapsed)
            timing.payload = payload
    return results


def paired_overhead(candidate, reference):
    """Overhead of *candidate* over *reference* as the **median of
    per-round ratios** — the noise-robust leg-vs-leg estimator.

    Within one interleaved round the two legs run back-to-back, so
    machine-load drift (CPU steal, frequency scaling) is mostly shared by
    the pair and cancels in the ratio; the median then discards rounds
    where a spike hit one leg but not the other.  Comparing best-of-k
    instead pits the *luckiest* run of each leg against the other, which
    on a noisy host swings by many percent in either direction.
    """
    ratios = [c / r for c, r in zip(candidate.times_ns, reference.times_ns)
              if r]
    if not ratios:
        return 0.0
    return median(ratios) - 1.0


def added_cost_ms(candidate, reference, runs):
    """What *candidate* adds to one closed-loop run, in ms of CPU time:
    the difference of the two legs' medians, over the *runs* per sample.
    Unlike the paired percentage, it does not grow when only the
    reference run gets faster."""
    return (candidate.median_ns - reference.median_ns) / runs / 1e6


def build_final_system():
    arch = MD16_TEP.with_(n_teps=2, microcode_optimized=True,
                          mutual_exclusions=SMD_MUTUAL_EXCLUSIONS)
    return build_system(smd_chart(), SMD_ROUTINES, arch, specialize=True)


def run_once(system, tracer=None, recorder=None, lineage=None):
    loop = SmdClosedLoop(system, motor_specs=FAST_MOTORS, tracer=tracer)
    if recorder is not None:
        loop.machine.attach(recorder)
    if lineage is not None:
        loop.machine.attach(lineage)
    return loop.run(COMMANDS, max_configuration_cycles=40000)


def determinism_record(report):
    return {
        "total_cycles": report.total_cycles,
        "configuration_cycles": report.configuration_cycles,
        "final_positions": report.final_positions,
        "commands_completed": report.commands_completed,
        "misses": sum(d.misses for d in report.deadline_reports),
    }


def runs_per_sample(system):
    """How many back-to-back closed-loop runs make a disabled sample last
    at least :data:`MIN_SAMPLE_S`: after one untimed run, the fastest of
    the disabled runs that fill :data:`MIN_SAMPLE_S` sets it."""
    run_once(system)
    times = []
    while sum(times) < MIN_SAMPLE_S:
        started = time.process_time()
        run_once(system)
        times.append(time.process_time() - started)
    return math.ceil(MIN_SAMPLE_S / min(times))


def measure(system, rounds, runs):
    """One full interleaved measurement of the four legs, *runs*
    closed-loop runs per sample; a leg's payload is each run's determinism
    record (kept instead of the report, so no run's observers outlive
    it)."""
    print(f"timing disabled/recorder/lineage/enabled interleaved "
          f"({rounds} rounds each, {runs} runs per sample) ...")

    def leg(**observers):
        """One sample: *runs* closed-loop runs, each with fresh
        *observers* (keyword -> class)."""
        def sample():
            return [determinism_record(run_once(system, **{
                name: make() for name, make in observers.items()}))
                for _ in range(runs)]
        return sample

    legs = measure_interleaved({
        "disabled": leg(),
        "recorder": leg(recorder=FlightRecorder),
        "lineage": leg(lineage=LineageTracker),
        "enabled": leg(tracer=Tracer),
    }, rounds)
    disabled = legs["disabled"]
    print(f"  disabled median {disabled.median_ns / 1e6:.1f} ms "
          f"({disabled.median_ns / runs / 1e6:.3f} ms per run), "
          f"{disabled.payload[0]['total_cycles']} cycles per run")
    overheads = {}
    for name in MEASURED_LEGS:
        overheads[name] = paired_overhead(legs[name], disabled)
        print(f"  {name:8s} median {legs[name].median_ns / 1e6:.1f} ms "
              f"({overheads[name] * 100:+.1f}% vs disabled, paired; "
              f"{added_cost_ms(legs[name], disabled, runs):+.3f} ms "
              f"per run)")
    return legs, overheads


def _int_at_least(minimum):
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}")
        return value
    return parse


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="record the current run as the new baseline")
    parser.add_argument("--rounds", type=_int_at_least(1), default=12,
                        help="timing rounds per leg (interleaved with a "
                             "rotating schedule; a multiple of the four "
                             "legs keeps the position balance exact)")
    parser.add_argument("--threshold", type=float, default=0.05,
                        help="allowed paired-leg overhead fraction")
    parser.add_argument("--retries", type=_int_at_least(0), default=2,
                        help="re-measurements allowed before a busted leg "
                             "budget becomes a failure")
    args = parser.parse_args(argv)

    print("building the final SMD architecture ...")
    system = build_final_system()
    runs = runs_per_sample(system)

    # a busted hard budget extends the measurement rather than failing:
    # the pooled median converges on the true overhead, so a noise burst
    # washes out while a real regression only firms up
    legs, overheads = measure(system, args.rounds, runs)
    for _ in range(args.retries):
        if all(overheads[name] <= args.threshold for name in HARD_LEGS):
            break
        print("hard-budget overshoot; extending the measurement to "
              "wash out machine-load bursts ...")
        fresh, _ = measure(system, args.rounds, runs)
        for name, timing in fresh.items():
            legs[name].times_ns.extend(timing.times_ns)
            legs[name].payload = timing.payload
        overheads = {name: paired_overhead(legs[name], legs["disabled"])
                     for name in MEASURED_LEGS}
        print("  pooled   " + ", ".join(
            f"{name} {overheads[name] * 100:+.1f}% "
            f"({added_cost_ms(legs[name], legs['disabled'], runs):+.3f} "
            f"ms per run)"
            for name in MEASURED_LEGS))

    record = legs["disabled"].payload[0]
    for name in ("disabled",) + MEASURED_LEGS:
        if any(other != record for other in legs[name].payload):
            print(f"FAIL: {name} run diverged from disabled run")
            return 1
    for name in HARD_LEGS:
        if overheads[name] > args.threshold:
            print(f"FAIL: {name} overhead {overheads[name] * 100:.1f}% "
                  f"exceeds {args.threshold * 100:.0f}% budget")
            return 1
    if overheads["enabled"] > args.threshold:
        print(f"warning: tracing-enabled overhead "
              f"{overheads['enabled'] * 100:.1f}% exceeds "
              f"{args.threshold * 100:.0f}% target")

    if args.update or not BASELINE_PATH.exists():
        baseline = {"determinism": record, "rounds": args.rounds}
        BASELINE_PATH.write_text(json.dumps(baseline, indent=2,
                                            sort_keys=True) + "\n")
        print(f"baseline written to {BASELINE_PATH}")
        return 0

    baseline = json.loads(BASELINE_PATH.read_text())
    if record != baseline["determinism"]:
        print("FAIL: simulation diverged from the recorded baseline:")
        for key, expected in baseline["determinism"].items():
            if record.get(key) != expected:
                print(f"  {key}: expected {expected}, got {record.get(key)}")
        print("(if the change is intended, re-record with --update)")
        return 1
    print("determinism: OK (cycles and positions match the baseline)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
