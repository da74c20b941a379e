"""The causal DAG: query layer over lineage hops, farm-wide stitching.

:class:`CausalDag` is the queryable artifact the
:class:`~repro.obs.lineage.LineageTracker` digests into: nodes are event
instances, latches, dispatches, raises, port writes and farm lifecycle
marks; edges are typed causal hops.  Serialization is canonical (sorted
nodes and edges, ``sort_keys`` JSON) so two same-seed runs produce
byte-identical documents — the property the CI lineage-soak ``cmp``\\ s.

:class:`FarmLineage` is the supervisor-side recorder: it stamps every
:class:`~repro.resil.queue.WorkItem` with a ``ev:<origin>:<seq>`` trace
context, records routing, redispatch after worker death, standby
promotion, shedding and rejection as DAG nodes, and merges the
per-worker machine digests (namespaced by shard and generation, so a
respawned worker replaying pre-death cycles cannot collide with the
hops its predecessor already shipped).  :meth:`FarmLineage.conservation`
asserts the lineage identity: **every accepted item's lineage terminates
in exactly one of processed / shed / rejected** — no orphan, no dangle,
no double-count.

:func:`dag_flow_events` renders the DAG's edges as Chrome trace *flow
events* (``ph: "s"``/``"f"`` pairs — arrows in Perfetto) that
:func:`repro.obs.export.merged_chrome_trace` lays over the farm tracks.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional, Tuple

#: bump when the DAG JSON layout changes
DAG_VERSION = 1


class CausalDag:
    """Typed nodes + typed edges, canonically serializable."""

    def __init__(self) -> None:
        #: node id -> attributes (always includes ``kind``)
        self.nodes: Dict[str, Dict[str, Any]] = {}
        #: (source id, destination id, edge kind), insertion order
        self.edges: List[Tuple[str, str, str]] = []
        self._out: Dict[str, List[Tuple[str, str]]] = {}
        self._in: Dict[str, List[Tuple[str, str]]] = {}

    # -- construction ------------------------------------------------------
    def add_node(self, node_id: str, kind: str, **attrs: Any) -> str:
        node = self.nodes.get(node_id)
        if node is None:
            self.nodes[node_id] = {"kind": kind, **attrs}
        else:
            node.update(attrs)
        return node_id

    def add_edge(self, src: str, dst: str, kind: str) -> None:
        self.edges.append((src, dst, kind))
        self._out.setdefault(src, []).append((dst, kind))
        self._in.setdefault(dst, []).append((src, kind))

    # -- queries -----------------------------------------------------------
    def parents(self, node_id: str) -> List[Tuple[str, str]]:
        """``(source id, edge kind)`` pairs pointing at *node_id*."""
        return sorted(self._in.get(node_id, []))

    def children(self, node_id: str) -> List[Tuple[str, str]]:
        return sorted(self._out.get(node_id, []))

    def ancestors(self, node_id: str) -> List[str]:
        """All transitive causes of *node_id* (excludes itself), sorted."""
        return self._closure(node_id, self._in)

    def descendants(self, node_id: str) -> List[str]:
        """All transitive effects of *node_id* (excludes itself), sorted."""
        return self._closure(node_id, self._out)

    def _closure(self, node_id: str,
                 adjacency: Dict[str, List[Tuple[str, str]]]) -> List[str]:
        seen: set = set()
        frontier = [node_id]
        while frontier:
            current = frontier.pop()
            for neighbour, _kind in adjacency.get(current, ()):
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        seen.discard(node_id)
        return sorted(seen)

    def find(self, fragment: str) -> List[str]:
        """Node ids containing *fragment*, sorted (the ``repro why``
        port-write lookup: ``--find port:`` style queries)."""
        return sorted(nid for nid in self.nodes if fragment in nid)

    def sort_key(self, node_id: str) -> Tuple[int, str]:
        """Deterministic chronological-ish order: cycle (or tick) then id."""
        node = self.nodes.get(node_id, {})
        when = node.get("cycle", node.get("tick", -1))
        return (when if isinstance(when, int) else -1, node_id)

    # -- serialization -----------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        nodes = [{"id": nid, **self.nodes[nid]}
                 for nid in sorted(self.nodes)]
        edges = [{"src": src, "dst": dst, "kind": kind}
                 for src, dst, kind in sorted(self.edges)]
        return {"version": DAG_VERSION, "nodes": nodes, "edges": edges}

    def slice_json(self, nodes_before: int, edges_before: int
                   ) -> Dict[str, Any]:
        """The nodes/edges appended since the given counts (incremental
        drain payloads; node insertion order is dict order)."""
        new_ids = list(self.nodes)[nodes_before:]
        return {
            "nodes": [{"id": nid, **self.nodes[nid]} for nid in new_ids],
            "edges": [{"src": s, "dst": d, "kind": k}
                      for s, d, k in self.edges[edges_before:]],
        }

    def merge_json(self, payload: Dict[str, Any],
                   prefix: str = "", **extra: Any) -> None:
        """Merge a :meth:`to_json`/:meth:`slice_json` payload in.

        Non-global node ids (everything not starting with ``ev:``) are
        namespaced with *prefix*; *extra* attributes (``shard=...``) are
        stamped on every merged node.
        """
        def rename(nid: str) -> str:
            return nid if nid.startswith("ev:") else prefix + nid

        for node in payload.get("nodes", ()):
            attrs = dict(node)
            nid = rename(attrs.pop("id"))
            kind = attrs.pop("kind")
            self.add_node(nid, kind, **attrs, **extra)
        for edge in payload.get("edges", ()):
            self.add_edge(rename(edge["src"]), rename(edge["dst"]),
                          edge["kind"])

    @classmethod
    def from_json(cls, document: Dict[str, Any]) -> "CausalDag":
        version = document.get("version")
        if version != DAG_VERSION:
            raise ValueError(
                f"not a version-{DAG_VERSION} causal DAG "
                f"(found version {version!r})")
        dag = cls()
        dag.merge_json(document)
        return dag

    def dumps(self) -> str:
        """Canonical string form — byte-identical across same-seed runs."""
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# chain rendering (the `repro why` answer)
# ---------------------------------------------------------------------------

def _describe(node_id: str, node: Dict[str, Any]) -> str:
    kind = node.get("kind", "?")
    if kind == "inject" or kind == "submit":
        events = node.get("events")
        what = "+".join(events) if events else node.get("event", "?")
        return f"injected {what}"
    if kind == "latch":
        return f"latched {node.get('event', '?')} in the CR" + (
            f" [{node['outcome']}]" if "outcome" in node else "")
    if kind == "fire":
        state = "dispatched" if node.get("completed", True) else "aborted"
        return f"t{node.get('transition', '?')} {state}"
    if kind == "raise":
        return f"raised {node.get('event', '?')}"
    if kind == "port":
        return (f"wrote port {node.get('addr', '?')} = "
                f"{node.get('value', '?')}")
    if kind in ("processed", "shed", "rejected"):
        reason = node.get("reason")
        return kind + (f" ({reason})" if reason else "")
    detail = node.get("detail")
    return kind + (f": {detail}" if detail else "")


def _stamp(node: Dict[str, Any]) -> str:
    if "cycle" in node:
        where = f"cycle {node['cycle']}"
    elif "tick" in node:
        where = f"tick {node['tick']}"
    else:
        where = "origin"
    shard = node.get("shard")
    return f"{where}, {shard}" if shard else where


def render_chain(dag: CausalDag, node_id: str) -> str:
    """The complete causal chain through *node_id*, deterministic text.

    Causes (transitive ancestors) first, then the node, then its effects
    — each line stamped with its cycle/tick and shard and annotated with
    the edge kinds that feed it.
    """
    if node_id not in dag.nodes:
        candidates = dag.find(node_id)
        hint = ("; close matches: " + ", ".join(candidates[:6])
                if candidates else "")
        raise KeyError(f"no lineage node {node_id!r}{hint}")

    def line(nid: str, marker: str) -> str:
        node = dag.nodes[nid]
        via = dag.parents(nid)
        source = (" <- " + ", ".join(f"{src} [{kind}]"
                                     for src, kind in via) if via else "")
        return (f"{marker} {nid} ({_stamp(node)}): "
                f"{_describe(nid, node)}{source}")

    lines = [f"why {node_id}"]
    causes = sorted(dag.ancestors(node_id), key=dag.sort_key)
    effects = sorted(dag.descendants(node_id), key=dag.sort_key)
    for nid in causes:
        lines.append(line(nid, "  "))
    lines.append(line(node_id, "=>"))
    for nid in effects:
        lines.append(line(nid, "  ->"))
    if not causes and not effects:
        lines.append("  (isolated node: no recorded causes or effects)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# farm-wide lineage (supervisor side)
# ---------------------------------------------------------------------------

class FarmLineage:
    """Item-level provenance across worker processes.

    Not a hot path: the supervisor touches it once per item lifecycle
    event, so nodes and edges are built eagerly.  Machine-level digests
    shipped in worker replies merge under a ``<shard>.g<generation>/``
    namespace — generations advance on respawn and promotion, keeping a
    restarted worker's replayed cycles distinct from its predecessor's.
    """

    def __init__(self) -> None:
        self.dag = CausalDag()
        self.accepted: set = set()
        #: seq -> terminal node ids (conservation wants exactly one)
        self.terminals: Dict[int, List[str]] = {}
        self._last: Dict[int, str] = {}
        self._attempts: Dict[int, int] = {}
        self._last_death: Dict[str, str] = {}

    # -- trace-context stamping -------------------------------------------
    @staticmethod
    def item_id(origin: str, seq: int) -> str:
        return f"ev:{origin}:{seq}"

    # -- submission and routing -------------------------------------------
    def on_submit(self, tick: int, doc: Dict[str, Any]) -> None:
        seq = doc["seq"]
        node_id = self.item_id(doc.get("origin", "stream"), seq)
        self.dag.add_node(node_id, "submit", tick=tick, seq=seq,
                          events=list(doc.get("events", ())))
        self._last[seq] = node_id

    def on_dispatch(self, tick: int, shard_name: str, doc: Dict[str, Any],
                    redispatch: bool = False) -> None:
        seq = doc["seq"]
        attempt = self._attempts.get(seq, 0)
        self._attempts[seq] = attempt + 1
        node_id = f"disp:{seq}:{attempt}"
        self.dag.add_node(node_id, "dispatch", tick=tick, seq=seq,
                          shard=shard_name, attempt=attempt,
                          redispatch=redispatch)
        previous = self._last.get(seq)
        if previous is not None:
            self.dag.add_edge(previous, node_id,
                              "redispatch" if redispatch else "dispatch")
        death = self._last_death.get(shard_name)
        if redispatch and death is not None:
            self.dag.add_edge(death, node_id, "redispatch")
        self._last[seq] = node_id

    # -- outcomes ----------------------------------------------------------
    def on_accept(self, tick: int, seq: int) -> None:
        self.accepted.add(seq)

    def _terminal(self, tick: int, seq: int, kind: str,
                  reason: Optional[str] = None) -> None:
        node_id = f"{kind}:{seq}"
        attrs: Dict[str, Any] = {"tick": tick, "seq": seq}
        if reason is not None:
            attrs["reason"] = reason
        self.dag.add_node(node_id, kind, **attrs)
        previous = self._last.get(seq)
        if previous is not None:
            self.dag.add_edge(previous, node_id, kind)
        self.terminals.setdefault(seq, [])
        if node_id not in self.terminals[seq]:
            self.terminals[seq].append(node_id)
        self._last[seq] = node_id

    def on_processed(self, tick: int, seq: int) -> None:
        self._terminal(tick, seq, "processed")

    def on_shed(self, tick: int, seq: int, reason: str) -> None:
        self._terminal(tick, seq, "shed", reason)

    def on_reject(self, tick: int, seq: int, reason: str) -> None:
        self._terminal(tick, seq, "rejected", reason)

    # -- farm lifecycle ----------------------------------------------------
    def on_worker_lost(self, tick: int, shard_name: str,
                       cause: str) -> None:
        node_id = f"death:{tick}:{shard_name}"
        self.dag.add_node(node_id, "death", tick=tick, shard=shard_name,
                          detail=cause)
        self._last_death[shard_name] = node_id

    def on_promotion(self, tick: int, shard_name: str) -> None:
        node_id = f"promote:{tick}:{shard_name}"
        self.dag.add_node(node_id, "promotion", tick=tick,
                          shard=shard_name)
        death = self._last_death.get(shard_name)
        if death is not None:
            self.dag.add_edge(death, node_id, "promote")

    def on_respawn(self, tick: int, shard_name: str) -> None:
        node_id = f"respawn:{tick}:{shard_name}"
        self.dag.add_node(node_id, "respawn", tick=tick, shard=shard_name)
        death = self._last_death.get(shard_name)
        if death is not None:
            self.dag.add_edge(death, node_id, "respawn")

    # -- worker digests ----------------------------------------------------
    def merge_worker(self, shard_name: str, generation: int,
                     payload: Dict[str, Any]) -> None:
        self.dag.merge_json(payload, prefix=f"{shard_name}.g{generation}/",
                            shard=shard_name)

    # -- the lineage identity ---------------------------------------------
    def conservation(self) -> List[str]:
        """Violations of the lineage identity; empty when sound.

        Every accepted item terminates in exactly one of
        processed/shed/rejected; every submitted item either terminates
        or was accepted (whose rule then applies).  An item both
        processed and shed, or accepted with no terminal at all, is a
        conservation hole.
        """
        problems: List[str] = []
        for seq in sorted(self.accepted):
            terminals = self.terminals.get(seq, [])
            if len(terminals) != 1:
                problems.append(
                    f"accepted item {seq} has {len(terminals)} lineage "
                    f"terminal(s): {terminals or 'none'}")
        for node_id, node in sorted(self.dag.nodes.items()):
            if node.get("kind") != "submit":
                continue
            seq = node["seq"]
            if seq not in self.accepted and not self.terminals.get(seq):
                problems.append(
                    f"submitted item {seq} ({node_id}) has no terminal "
                    f"and was never accepted")
        return problems

    def to_json(self) -> Dict[str, Any]:
        document = self.dag.to_json()
        document["accepted"] = sorted(self.accepted)
        document["terminals"] = {
            str(seq): sorted(ids)
            for seq, ids in sorted(self.terminals.items())}
        document["conservation_violations"] = self.conservation()
        return document

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


def load_dag(document: Dict[str, Any]) -> CausalDag:
    """A :class:`CausalDag` from either a bare DAG document or a
    :meth:`FarmLineage.to_json` document (same nodes/edges layout)."""
    return CausalDag.from_json(document)


# ---------------------------------------------------------------------------
# Chrome-trace flow events (Perfetto arrows)
# ---------------------------------------------------------------------------

def dag_flow_events(dag: CausalDag,
                    pids: Optional[Mapping[str, int]] = None,
                    supervisor_pid: int = 1,
                    category: str = "lineage"
                    ) -> List[Dict[str, Any]]:
    """The DAG's edges as Chrome trace flow-event pairs.

    Each edge becomes a ``ph: "s"`` (start) at the source node's
    timestamp and a ``ph: "f"`` (finish, ``bp: "e"``) at the destination,
    sharing a deterministic string binding id ``<src>-><dst>`` — Perfetto
    draws these as arrows across tracks.  *pids* maps shard names to
    trace-event pids (machine-level nodes land on their worker's
    process); unmapped nodes land on the supervisor pid.
    """
    pids = pids or {}

    def place(node_id: str) -> Tuple[int, int]:
        node = dag.nodes.get(node_id, {})
        pid = pids.get(node.get("shard"), supervisor_pid)
        when = node.get("cycle", node.get("tick", 0))
        return pid, when if isinstance(when, int) else 0

    events: List[Dict[str, Any]] = []
    for src, dst, kind in sorted(dag.edges):
        bind_id = f"{src}->{dst}"
        src_pid, src_ts = place(src)
        dst_pid, dst_ts = place(dst)
        events.append({"ph": "s", "cat": category, "name": kind,
                       "id": bind_id, "pid": src_pid, "tid": 0,
                       "ts": src_ts})
        events.append({"ph": "f", "bp": "e", "cat": category, "name": kind,
                       "id": bind_id, "pid": dst_pid, "tid": 0,
                       "ts": dst_ts})
    return events
