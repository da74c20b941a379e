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
condition-index map.
"""

from __future__ import annotations

from typing import Dict, List

from repro.pscp.cr import ConfigurationRegister


class ConditionCacheBridge:
    """Copy-in/copy-back between the CR and one TEP's condition cache."""

    __slots__ = ("condition_indices", "index_to_name",
                 "words_copied_in", "words_copied_back", "transfers",
                 "injector")

    def __init__(self, condition_indices: Dict[str, int]) -> None:
        #: condition name -> cache slot (the compiled NameMaps view)
        self.condition_indices = dict(condition_indices)
        self.index_to_name = {index: name for name, index
                              in condition_indices.items()}
        self.words_copied_in = 0
        self.words_copied_back = 0
        self.transfers = 0
        #: fault injection: ``None`` keeps the copies on the fault-free path
        self.injector = None

    def copy_in(self, cr: ConfigurationRegister,
                cache: List[bool]) -> int:
        """CR condition part -> cache; returns words moved."""
        moved = 0
        for name, value in cr.condition_vector().items():
            cache_index = self.condition_indices.get(name)
            if cache_index is not None:
                cache[cache_index] = value
                moved += 1
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
        updates = {}
        for cache_index, name in self.index_to_name.items():
            updates[name] = cache[cache_index]
        cr.write_conditions(updates)
        moved = len(updates)
        self.words_copied_back += moved
        return moved

    @property
    def words_total(self) -> int:
        return self.words_copied_in + self.words_copied_back
