"""The condition-cache bridge: CR ⇄ per-TEP cache copy traffic.

"The scheduler copies the contents of the condition part of the CR into the
local condition caches" before dispatching a transition, and copies the
cache back into the CR when the routine returns.  The bridge models that
traffic in one place: the machine calls :meth:`copy_in` / :meth:`copy_back`
around every routine execution, and the bridge keeps exact word counts so
the tracer and the metrics registry can report bus utilization without the
machine knowing how.

The copy itself is behaviour the cycle-exact benchmarks depend on, so the
bridge preserves the historical iteration orders exactly: copy-in walks the
chart's condition declaration order, copy-back walks the compiled
condition-index map.  Both orders are fixed when the bridge is built, as
(condition name, cache slot) pairs.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.pscp.cr import ConfigurationRegister


class ConditionCacheBridge:
    """Copy-in/copy-back between the CR and one TEP's condition cache."""

    __slots__ = ("_copy_in_pairs", "_copy_back_pairs", "_undeclared",
                 "words_copied_in", "words_copied_back", "transfers",
                 "injector")

    def __init__(self, declared: Iterable[str],
                 condition_indices: Dict[str, int]) -> None:
        """*declared* is the chart's conditions in declaration order, which
        the CR's condition part holds; *condition_indices* maps a condition
        name to its cache slot (the compiled NameMaps view)."""
        declared = tuple(declared)
        self._copy_in_pairs = tuple(
            (name, condition_indices[name]) for name in declared
            if name in condition_indices)
        #: copy-back stops at the first compiled condition the chart does
        #: not declare, and raises as the CR's write would
        declared_names = frozenset(declared)
        back = []
        self._undeclared: Optional[str] = None
        index_to_name = {index: name
                         for name, index in condition_indices.items()}
        for index, name in index_to_name.items():
            if name not in declared_names:
                self._undeclared = name
                break
            back.append((name, index))
        self._copy_back_pairs = tuple(back)
        self.words_copied_in = 0
        self.words_copied_back = 0
        self.transfers = 0
        #: fault injection: ``None`` keeps the copies on the fault-free path
        self.injector = None

    def copy_in(self, cr: ConfigurationRegister,
                cache: List[bool]) -> int:
        """CR condition part -> cache; returns words moved."""
        conditions = cr.conditions
        for name, cache_index in self._copy_in_pairs:
            cache[cache_index] = name in conditions
        moved = len(self._copy_in_pairs)
        self.words_copied_in += moved
        self.transfers += 1
        if self.injector is not None:
            self.injector.on_cache_copy_in(cache)
        return moved

    def copy_back(self, cr: ConfigurationRegister,
                  cache: List[bool]) -> int:
        """Cache -> CR condition part; returns words moved."""
        if self.injector is not None:
            self.injector.on_cache_copy_back(cache)
        conditions = cr.conditions
        for name, cache_index in self._copy_back_pairs:
            if cache[cache_index]:
                conditions.add(name)
            else:
                conditions.discard(name)
        if self._undeclared is not None:
            raise KeyError(f"unknown condition {self._undeclared!r}")
        moved = len(self._copy_back_pairs)
        self.words_copied_back += moved
        return moved

    @property
    def words_total(self) -> int:
        return self.words_copied_in + self.words_copied_back
