"""The diagnostic framework every static-analysis pass reports through.

A :class:`Diagnostic` is one finding: a stable code (``PSC203``), a severity,
a human message, an optional source location and an optional fix hint.  The
code is the contract — messages may be reworded, codes never change meaning —
so suppression lists, golden files and CI gates key on codes.

Severity is three-valued, mirroring SARIF levels: ``error`` findings reject
the design (the CLI exits non-zero), ``warning`` findings are real hazards a
designer must triage (e.g. an AND-region race the runtime serializes
deterministically), ``note`` findings are informational.

Codes are grouped by layer:

====== =====================================================================
 band   layer
====== =====================================================================
PSC1xx  chart well-formedness and design smells (statechart)
PSC2xx  determinism, AND-region races, quiescence (statechart semantics)
PSC3xx  action-language checks and dataflow (intermediate C)
PSC4xx  WCET / budget checks (ISA cost model, watchdog, scheduler)
PSC5xx  SLA / transition-address-table checks (synthesis)
PSC6xx  bounded model checking (declared properties, deadline proofs)
====== =====================================================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"
    NOTE = "note"

    @property
    def rank(self) -> int:
        return {"error": 0, "warning": 1, "note": 2}[self.value]


@dataclass(frozen=True)
class SourceLocation:
    """Where a finding anchors: a file, a line, and/or a named object."""

    file: Optional[str] = None
    line: Optional[int] = None
    #: human-readable object description ("function 'GetByte'",
    #: "transition 12") for findings on synthetic or in-memory objects
    obj: str = ""

    def prefix(self) -> str:
        """The ``file:line: `` prefix of a text rendering (may be empty)."""
        if self.file and self.line:
            return f"{self.file}:{self.line}: "
        if self.file:
            return f"{self.file}: "
        return ""

    def to_json(self) -> Dict[str, object]:
        doc: Dict[str, object] = {}
        if self.file is not None:
            doc["file"] = self.file
        if self.line is not None:
            doc["line"] = self.line
        if self.obj:
            doc["object"] = self.obj
        return doc


@dataclass(frozen=True)
class Diagnostic:
    """One static-analysis finding."""

    code: str
    severity: Severity
    message: str
    location: SourceLocation = field(default_factory=SourceLocation)
    hint: str = ""

    def format(self) -> str:
        text = (f"{self.location.prefix()}{self.severity.value} "
                f"{self.code}: {self.message}")
        if self.hint:
            text += f" [hint: {self.hint}]"
        return text

    def sort_key(self) -> Tuple:
        loc = self.location
        return (loc.file or "", loc.line or 0, self.code,
                self.message, loc.obj)

    def to_json(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
        }
        location = self.location.to_json()
        if location:
            doc["location"] = location
        if self.hint:
            doc["hint"] = self.hint
        return doc


@dataclass(frozen=True)
class CodeInfo:
    """Registry entry for one diagnostic code."""

    title: str
    severity: Severity
    description: str = ""


#: Every stable diagnostic code, its default severity and one-line title.
#: docs/ANALYSIS.md is generated from the same table of facts — keep both
#: in sync when adding a code.
CODES: Dict[str, CodeInfo] = {
    # -- PSC1xx: chart well-formedness and design smells -------------------
    "PSC100": CodeInfo("chart parse error", Severity.ERROR),
    "PSC101": CodeInfo("OR-state default is not a child", Severity.ERROR),
    "PSC102": CodeInfo("AND-state needs at least two regions",
                       Severity.ERROR),
    "PSC103": CodeInfo("basic state must not contain children",
                       Severity.ERROR),
    "PSC104": CodeInfo("ref state refers to no chart", Severity.ERROR),
    "PSC105": CodeInfo("ref state must not contain children",
                       Severity.ERROR),
    "PSC106": CodeInfo("undeclared event/condition in a label",
                       Severity.ERROR),
    "PSC107": CodeInfo("transition targets the root", Severity.ERROR),
    "PSC108": CodeInfo("event period must be positive", Severity.ERROR),
    "PSC109": CodeInfo("event port is not declared", Severity.ERROR),
    "PSC110": CodeInfo("condition port is not declared", Severity.ERROR),
    "PSC111": CodeInfo("ref state is not resolved", Severity.ERROR),
    "PSC150": CodeInfo("structurally unreachable state", Severity.WARNING),
    "PSC151": CodeInfo("event triggers no transition", Severity.WARNING),
    "PSC152": CodeInfo("condition guards no transition", Severity.WARNING),
    # -- PSC2xx: determinism, races, quiescence ----------------------------
    "PSC201": CodeInfo("transition shadowed by a higher-priority one",
                       Severity.ERROR),
    "PSC202": CodeInfo("overlapping enables resolved only by priority",
                       Severity.NOTE),
    "PSC203": CodeInfo("AND-region write-write race", Severity.WARNING),
    "PSC204": CodeInfo("raised-event cycle may prevent quiescence",
                       Severity.WARNING),
    "PSC205": CodeInfo("transition shadowed by the union of higher-priority "
                       "ones", Severity.ERROR),
    # -- PSC3xx: action language -------------------------------------------
    "PSC301": CodeInfo("action parse error", Severity.ERROR),
    "PSC302": CodeInfo("action semantic error", Severity.ERROR),
    "PSC303": CodeInfo("recursion is not permitted", Severity.ERROR),
    "PSC304": CodeInfo("a label's call does not link to the routines",
                       Severity.ERROR),
    "PSC310": CodeInfo("use before initialization", Severity.ERROR),
    "PSC311": CodeInfo("dead store", Severity.WARNING),
    "PSC312": CodeInfo("constant condition; branch is dead",
                       Severity.WARNING),
    "PSC313": CodeInfo("width-truncating assignment", Severity.WARNING),
    # -- PSC4xx: WCET / budgets --------------------------------------------
    "PSC401": CodeInfo("@wcet override below the derived cost",
                       Severity.ERROR),
    "PSC402": CodeInfo("event cycle exceeds the arrival period",
                       Severity.ERROR),
    "PSC403": CodeInfo("no event declares a period", Severity.NOTE),
    # -- PSC5xx: SLA / TAT -------------------------------------------------
    "PSC501": CodeInfo("duplicate transition-address-table entry",
                       Severity.ERROR),
    "PSC502": CodeInfo("SLA encoding collision", Severity.ERROR),
    # -- PSC6xx: bounded model checking ------------------------------------
    "PSC600": CodeInfo("property does not parse", Severity.ERROR),
    "PSC601": CodeInfo("property names an unknown state/event/condition",
                       Severity.ERROR),
    "PSC602": CodeInfo("safety property violated (counterexample replayed)",
                       Severity.ERROR),
    "PSC603": CodeInfo("safety property proved within the explored space",
                       Severity.NOTE),
    "PSC604": CodeInfo("bound exhausted before a verdict", Severity.WARNING),
    "PSC605": CodeInfo("abstract counterexample did not replay",
                       Severity.WARNING),
    "PSC610": CodeInfo("deadline proven: worst realizable cycle within the "
                       "period", Severity.NOTE),
    "PSC611": CodeInfo("deadline violation proven (witness replayed)",
                       Severity.ERROR),
    "PSC612": CodeInfo("heuristic deadline violation refuted within the "
                       "bound", Severity.NOTE),
}

#: Codes that are off unless explicitly enabled.  PSC202 fires on every
#: legitimate use of declaration-order priority (the STATEMATE semantics the
#: interpreter implements), so it is opt-in documentation, not a default lint.
DEFAULT_SUPPRESSED = frozenset({"PSC202"})


def known_code(code: str) -> bool:
    return code in CODES


def default_severity(code: str) -> Severity:
    info = CODES.get(code)
    return info.severity if info is not None else Severity.WARNING


class Collector:
    """Accumulates diagnostics for one pass; severity defaults from CODES."""

    def __init__(self) -> None:
        self.diagnostics: List[Diagnostic] = []

    def emit(self, code: str, message: str, *,
             location: Optional[SourceLocation] = None,
             hint: str = "",
             severity: Optional[Severity] = None) -> Diagnostic:
        diagnostic = Diagnostic(
            code=code,
            severity=severity or default_severity(code),
            message=message,
            location=location or SourceLocation(),
            hint=hint)
        self.diagnostics.append(diagnostic)
        return diagnostic


def finalize(diagnostics: Iterable[Diagnostic],
             suppress: Sequence[str] = (),
             enable: Sequence[str] = ()) -> Tuple[Diagnostic, ...]:
    """Apply per-code suppression and return a deterministically sorted tuple.

    *suppress* silences codes on top of :data:`DEFAULT_SUPPRESSED`;
    *enable* re-activates codes (it wins over both suppression sources).
    """
    suppressed = (DEFAULT_SUPPRESSED | frozenset(suppress)) - frozenset(enable)
    kept = [d for d in diagnostics if d.code not in suppressed]
    return tuple(sorted(kept, key=Diagnostic.sort_key))


def count_by_severity(diagnostics: Sequence[Diagnostic]) -> Dict[str, int]:
    counts = {"error": 0, "warning": 0, "note": 0}
    for diagnostic in diagnostics:
        counts[diagnostic.severity.value] += 1
    return counts
