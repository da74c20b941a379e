"""The standard preamble and builtin routines of the intermediate C dialect.

Fig. 2b shows "part of a preamble of data types that are always part of the
generated C code, plus some port declarations".  :data:`PREAMBLE` reproduces
that preamble verbatim (module the whitespace).  These code pieces "are not
actually executed, but used by the compiler to generate the hardware port
architecture, and instruction sequences to access the ports" — accordingly,
the code generator treats ``Port``/``EventCondition`` globals as
*architecture directives*, not data.

Builtins are the operations a transition routine can perform on the machine
state around it; each maps to a short fixed instruction sequence:

===================  ====================================================
builtin              meaning
===================  ====================================================
``Raise(E)``         set event E in the Configuration Register
``SetTrue(C)``       set condition C (through the TEP's condition cache)
``SetFalse(C)``      clear condition C
``Test(C)``          read condition C (returns bool)
``ReadPort(P)``      read a data port
``WritePort(P, v)``  write a data port
===================  ====================================================
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.action.ast import BoolType, IntType, StructType, Type, VoidType

PREAMBLE = """
enum ECD {Event, Condition, Data};
enum Encoding {Onehot, Binary};
enum PortDir {Input, Output, Bidirectional};
typedef struct port {
  ECD          Type;
  int:8        Width;
  int:8        Address;
  PortDir      Direction;
} Port;
typedef struct ec {
  ECD           Type;
  int:4         Size;
  int:8         Representation;
  int:4         PositionInPort;
  Port          p;
  int:32        TimeConstraint;
} EventCondition;
"""

#: builtin name -> (parameter kinds, return type).  Parameter kind strings:
#: ``"event"``, ``"condition"``, ``"port"`` (resolved against the chart) or
#: ``"value"`` (an ordinary expression).
BUILTINS: Dict[str, Tuple[Tuple[str, ...], Type]] = {
    "Raise": (("event",), VoidType()),
    "SetTrue": (("condition",), VoidType()),
    "SetFalse": (("condition",), VoidType()),
    "Test": (("condition",), BoolType()),
    "ReadPort": (("port",), IntType(8, signed=False)),
    "WritePort": (("port", "value"), VoidType()),
}


def is_builtin(name: str) -> bool:
    return name in BUILTINS


def is_directive(typ: Type) -> bool:
    """Is a global of *typ* an architecture directive, not data?"""
    return isinstance(typ, StructType) and typ.name in (
        "Port", "EventCondition", "port", "ec")
