"""BLIF emission, parsing and evaluation.

"The C code is generated by a frontend called the Statechart Structural
Analyzer, which also generates a BLIF description of the SLA.  These two
formats are the starting point for the architecture and instruction
selection process.  The BLIF description is converted to VHDL, and can be
immediately synthesized."

We emit standard BLIF (``.model``/``.inputs``/``.outputs``/``.names`` with
one cover row per product term), parse it back, and evaluate it — the parse
and evaluate halves let tests check that emission is faithful to the PLA.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.sla.synth import Pla


class BlifError(Exception):
    """Raised on malformed BLIF text."""


@dataclass
class BlifModel:
    """A parsed (single-level-of-hierarchy) BLIF model."""

    name: str
    inputs: List[str]
    outputs: List[str]
    #: per output: list of cover rows; a row maps input name -> '0'/'1'
    covers: Dict[str, List[Dict[str, str]]]
    #: observability (``attach_metrics``): evaluation/product-term counters
    _evaluations: object = field(default=None, repr=False, compare=False)
    _terms_scanned: object = field(default=None, repr=False, compare=False)

    def attach_metrics(self, metrics, prefix: str = "pla") -> None:
        """Count evaluations and product-term scans into a
        :class:`repro.obs.MetricsRegistry`; detach by passing ``None``."""
        if metrics is None:
            self._evaluations = self._terms_scanned = None
            return
        self._evaluations = metrics.counter(
            f"{prefix}.evaluations", "full PLA evaluations")
        self._terms_scanned = metrics.counter(
            f"{prefix}.product_terms_scanned",
            "cover rows tested across all evaluations")

    def evaluate(self, assignment: Dict[str, bool]) -> Dict[str, bool]:
        """Evaluate all outputs for a complete input assignment."""
        missing = set(self.inputs) - set(assignment)
        if missing:
            raise BlifError(f"unassigned inputs: {sorted(missing)}")
        meter = self._terms_scanned
        result = {}
        for output in self.outputs:
            value = False
            for row in self.covers.get(output, []):
                if meter is not None:
                    meter.inc()
                if all(assignment[name] == (bit == "1")
                       for name, bit in row.items()):
                    value = True
                    break
            result[output] = value
        if self._evaluations is not None:
            self._evaluations.inc()
        return result


def emit_blif(pla: Pla, model_name: str = "sla") -> str:
    """Render the SLA PLA as BLIF text."""
    input_names = pla.layout.input_names()
    output_names = pla.output_names()
    lines = [f".model {model_name}",
             ".inputs " + " ".join(input_names),
             ".outputs " + " ".join(output_names)]
    for index in sorted(pla.transition_terms):
        terms = pla.transition_terms[index]
        output = f"t{index}"
        if not terms:
            lines.append(f".names {output}")  # constant 0
            continue
        used_bits = sorted({bit for term in terms for bit, _ in term.literals})
        used_names = [input_names[bit] for bit in used_bits]
        lines.append(f".names {' '.join(used_names)} {output}")
        for term in terms:
            values = dict(term.literals)
            row = "".join(
                ("1" if values[bit] else "0") if bit in values else "-"
                for bit in used_bits)
            lines.append(f"{row} 1")
    lines.append(".end")
    return "\n".join(lines) + "\n"


def parse_blif(text: str) -> BlifModel:
    """Parse BLIF produced by :func:`emit_blif` (plus '-' don't-cares)."""
    name = ""
    inputs: List[str] = []
    outputs: List[str] = []
    covers: Dict[str, List[Dict[str, str]]] = {}
    current_output = None
    current_inputs: List[str] = []

    # join continuation lines
    logical_lines: List[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if logical_lines and logical_lines[-1].endswith("\\"):
            logical_lines[-1] = logical_lines[-1][:-1] + " " + line.strip()
        else:
            logical_lines.append(line.strip())

    for line in logical_lines:
        if line.startswith(".model"):
            name = line.split()[1] if len(line.split()) > 1 else ""
        elif line.startswith(".inputs"):
            inputs.extend(line.split()[1:])
        elif line.startswith(".outputs"):
            outputs.extend(line.split()[1:])
        elif line.startswith(".names"):
            parts = line.split()[1:]
            if not parts:
                raise BlifError(".names without signals")
            current_output = parts[-1]
            current_inputs = parts[:-1]
            covers.setdefault(current_output, [])
        elif line.startswith(".end"):
            current_output = None
        elif line.startswith("."):
            raise BlifError(f"unsupported BLIF construct: {line}")
        else:
            if current_output is None:
                raise BlifError(f"cover row outside .names: {line!r}")
            fields = line.split()
            if len(fields) != 2 or fields[1] != "1":
                raise BlifError(f"unsupported cover row: {line!r}")
            pattern = fields[0]
            if len(pattern) != len(current_inputs):
                raise BlifError(
                    f"cover row width {len(pattern)} != "
                    f"{len(current_inputs)} inputs")
            row = {signal: bit
                   for signal, bit in zip(current_inputs, pattern)
                   if bit != "-"}
            covers[current_output].append(row)
    return BlifModel(name, inputs, outputs, covers)


def evaluate_pla_via_blif(pla: Pla, cr_bits: int) -> List[int]:
    """Round-trip check helper: emit BLIF, parse, evaluate, return enabled
    transition indices (pre-guard)."""
    model = parse_blif(emit_blif(pla))
    assignment = {name: bool((cr_bits >> bit) & 1)
                  for bit, name in enumerate(pla.layout.input_names())}
    outputs = model.evaluate(assignment)
    return sorted(int(name[1:]) for name, value in outputs.items() if value)
