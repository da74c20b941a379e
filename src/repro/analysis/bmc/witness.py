"""Counterexample witnesses: concrete traces, machine replay, forensics.

An abstract violation is only a *candidate*: the explorer forks on may
effects, so a path can exist in the abstraction that the routines' real
data semantics never take.  Before the checker reports PSC602/PSC611 it
drives the actual :class:`~repro.pscp.machine.PscpMachine` (built by the
same flow that synthesizes the hardware) with the witness's external-event
trace, a FlightRecorder attached, and re-evaluates the violated predicate
on the machine's own configuration register.  Only a confirmed replay is an
error; a diverging one is reported honestly as PSC605.

Artifacts written next to the report (``write_witness``):

* ``<base>.witness.json`` — the replayable event trace plus the expected
  violation, machine-readable for CI re-replay;
* ``<base>.forensics.json`` — the FlightRecorder post-mortem bundle
  (:data:`repro.obs.flightrec.FORENSICS_VERSION`) captured at the violating
  cycle.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from repro.obs.flightrec import FlightRecorder, write_forensics_bundle

WITNESS_VERSION = 1


@dataclass
class Witness:
    """A concrete counterexample candidate for one property."""

    property_text: str
    kind: str  # never-while | never-in | always-reach | deadline
    trace: Tuple[FrozenSet[str], ...]
    expect: Dict[str, object] = field(default_factory=dict)
    replayed: Optional[bool] = None
    replay_detail: str = ""
    final_configuration: Tuple[str, ...] = ()
    final_conditions: Tuple[Tuple[str, bool], ...] = ()

    def to_json(self) -> Dict[str, object]:
        return {
            "version": WITNESS_VERSION,
            "property": self.property_text,
            "kind": self.kind,
            "trace": [sorted(step) for step in self.trace],
            "expect": self.expect,
            "replayed": self.replayed,
            "replay_detail": self.replay_detail,
            "final_configuration": list(self.final_configuration),
            "final_conditions": [[name, value] for name, value
                                 in self.final_conditions],
        }


def _check_expectation(witness: Witness,
                       steps: Sequence,
                       final: FrozenSet[str],
                       conditions: Dict[str, bool]) -> Tuple[bool, str]:
    """Does the machine's run violate the property the way we predicted?

    *final* is the machine's configuration after the whole trace — the
    never-forms are judged on it directly, so a zero-length trace (the
    initial configuration already violates) replays fine.
    """
    expect = witness.expect
    if witness.kind == "never-while":
        states = expect["states"]
        missing = [s for s in states if s not in final]
        if missing:
            return False, (f"machine ended in {sorted(final)}; "
                           f"missing {missing}")
        return True, f"configuration holds {states} simultaneously"
    if witness.kind == "never-in":
        state = expect["state"]
        if state not in final:
            return False, f"machine did not end inside {state!r}"
        from repro.statechart.expr import parse_expr
        asserted = {name for name, value in conditions.items() if value}
        if not parse_expr(expect["expr"]).evaluate(asserted):
            return False, (f"condition expression {expect['expr']!r} is "
                           "false on the machine")
        return True, (f"{expect['expr']!r} true inside {state!r}")
    if not steps:
        return False, "empty trace"
    if witness.kind == "always-reach":
        state, window = expect["state"], int(expect["cycles"])
        tail = steps[-window:]
        hit = [i for i, step in enumerate(tail)
               if state in step.configuration]
        if hit:
            return False, f"machine reached {state!r} within the window"
        return True, (f"{state!r} not reached for {window} cycles after "
                      f"{expect['event']!r}")
    if witness.kind == "deadline":
        sequence = list(expect["transitions"])
        position = 0
        for step in steps:
            fired = {t.index for t in step.fired}
            if position < len(sequence) and sequence[position] in fired:
                position += 1
        if position < len(sequence):
            return False, (f"machine fired only {position}/{len(sequence)} "
                           "cycle transitions")
        return True, (f"event cycle of {len(sequence)} transition(s) "
                      "executed in order")
    return False, f"unknown witness kind {witness.kind!r}"


def replay_witness(system, witness: Witness,
                   recorder_capacity: int = 128
                   ) -> Tuple[Witness, FlightRecorder]:
    """Drive the real machine along the witness trace and verdict it.

    Returns the witness (mutated in place with the replay outcome) and the
    attached recorder, ready for a forensics dump.
    """
    machine = system.make_machine()
    recorder = FlightRecorder(capacity=recorder_capacity)
    machine.attach(recorder)
    steps = []
    try:
        for events in witness.trace:
            steps.append(machine.step(sorted(events)))
    except Exception as exc:  # noqa: BLE001 - replay must never crash check
        witness.replayed = False
        witness.replay_detail = f"machine rejected the trace: {exc}"
        return witness, recorder
    conditions = dict(machine.cr.condition_vector())
    final = frozenset(machine.cr.configuration)
    ok, detail = _check_expectation(witness, steps, final, conditions)
    witness.replayed = ok
    witness.replay_detail = detail
    witness.final_configuration = tuple(sorted(final))
    witness.final_conditions = tuple(sorted(conditions.items()))
    if ok:
        recorder.note_escalation(machine.cycle_count,
                                 "model-check",
                                 f"property violated: "
                                 f"{witness.property_text}")
    return witness, recorder


def write_witness(witness: Witness, recorder: FlightRecorder,
                  directory: str, base: str) -> Tuple[str, str]:
    """Write the replay artifact pair; returns (witness path, bundle path)."""
    os.makedirs(directory, exist_ok=True)
    witness_path = os.path.join(directory, f"{base}.witness.json")
    bundle_path = os.path.join(directory, f"{base}.forensics.json")
    with open(witness_path, "w") as handle:
        json.dump(witness.to_json(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    bundle = recorder.forensics_bundle(
        cause={"kind": "model-check",
               "property": witness.property_text,
               "replayed": witness.replayed})
    write_forensics_bundle(bundle, bundle_path)
    return witness_path, bundle_path


def load_witness(path: str) -> Witness:
    """Load a ``*.witness.json`` artifact back for re-replay (CI uses it)."""
    with open(path) as handle:
        doc = json.load(handle)
    return Witness(
        property_text=doc["property"],
        kind=doc["kind"],
        trace=tuple(frozenset(step) for step in doc["trace"]),
        expect=doc["expect"],
        replayed=doc.get("replayed"),
        replay_detail=doc.get("replay_detail", ""),
        final_configuration=tuple(doc.get("final_configuration", ())),
        final_conditions=tuple((name, value) for name, value
                               in doc.get("final_conditions", ())),
    )
