"""Bounded model checking on the machine's compiled SLA planes.

``repro check`` front door: declared safety properties, deadline proofs and
replayable counterexamples.  The explorer steps the built system's
:class:`~repro.sla.synth.Pla` — enabledness, guard arbitration and the
next-state plane the machine runs — and takes each state's input alphabet
from the AND plane's live rows.  See docs/CHECKING.md for the property
grammar and verdict semantics.
"""

from repro.analysis.bmc.checker import (
    BOUND_EXHAUSTED,
    CheckResult,
    PROVED,
    PropertyVerdict,
    UNCONFIRMED,
    VIOLATED,
    check_system,
)
from repro.analysis.bmc.explorer import (
    ActionAbstraction,
    BmcNode,
    Edge,
    ExploredSpace,
    Explorer,
    abstract_actions,
)
from repro.analysis.bmc.props import (
    AlwaysReach,
    Deadline,
    NeverIn,
    NeverWhile,
    ParsedProperties,
    Property,
    parse_properties,
)
from repro.analysis.bmc.witness import (
    Witness,
    load_witness,
    replay_witness,
    write_witness,
)

__all__ = [
    "ActionAbstraction",
    "AlwaysReach",
    "BOUND_EXHAUSTED",
    "BmcNode",
    "CheckResult",
    "Deadline",
    "Edge",
    "ExploredSpace",
    "Explorer",
    "NeverIn",
    "NeverWhile",
    "PROVED",
    "ParsedProperties",
    "Property",
    "PropertyVerdict",
    "UNCONFIRMED",
    "VIOLATED",
    "Witness",
    "abstract_actions",
    "check_system",
    "load_witness",
    "parse_properties",
    "replay_witness",
    "write_witness",
]
