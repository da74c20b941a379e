"""Peephole optimizations (section 4, first rung of the improvement ladder).

"First, a peephole optimization step removes redundant jumps from the
microprogram sequences."  Unoptimized microprograms end with an explicit
jump microinstruction returning control to the fetch sequence;
:func:`optimize_microprogram` folds that jump into the preceding
microinstruction's next-address field — one clock cycle saved on *every*
instruction executed.  The ladder's peephole rung only sets
``microcode_optimized``: :func:`~repro.isa.microcode.microprogram` then
leaves the jump out, and the tests check it against
:func:`optimize_microprogram`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

from repro.isa.microcode import RETURN_TO_FETCH, MicroOp


def optimize_microprogram(ops: List[MicroOp],
                          fetch_address: int = 0) -> List[MicroOp]:
    """Remove the redundant trailing return-to-fetch jump.

    The jump's only effect is to set the micro-PC to the fetch sequence;
    the same is achieved by pointing the previous microinstruction's
    next-address field there.  Returns a new list; the final
    microinstruction carries ``next_address=fetch_address`` explicitly.
    """
    if not ops:
        return []
    result = list(ops)
    while len(result) > 1 and _is_return_jump(result[-1]):
        result.pop()
    result[-1] = replace(result[-1], next_address=fetch_address)
    return result


def _is_return_jump(op: MicroOp) -> bool:
    return op.group is RETURN_TO_FETCH.group and op.signal == RETURN_TO_FETCH.signal


def count_redundant_jumps(programs: List[List[MicroOp]]) -> int:
    """How many microinstructions the peephole would remove."""
    return sum(1 for ops in programs if ops and _is_return_jump(ops[-1]))
