"""The bounded model checker's explored graphs, pinned.

Witness traces are read off the explored graph (``space.parent``), and the
``always reach`` check walks its edges and decisions, so the checker's
verdicts depend on the whole graph, not only on its node count.  For each
chart below, ``tests/golden/bmc_spaces.json`` holds the node and edge counts
and the sha256 of a canonical JSON rendering of the nodes with their
depths, every expanded node's edges (inputs, target, fired transitions) in
exploration order, the decision events, and the BFS parents.

Regenerate (only when a change to the explored graph is intended)::

    PYTHONPATH=src python tests/test_bmc_spaces.py
"""

import hashlib
import json
import pathlib

import pytest

from repro.analysis.bmc import check_system
from repro.flow.build import build_system, select_initial_architecture
from repro.statechart.parser import parse_chart

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "bmc"
GOLDEN = pathlib.Path(__file__).parent / "golden" / "bmc_spaces.json"

CHARTS = ("smd", "elevator", "safe", "bounded", "violating")


def _sources(name):
    if name == "smd":
        from repro.workloads import SMD_ROUTINES, smd_chart
        return smd_chart(), SMD_ROUTINES
    if name == "elevator":
        from repro.workloads.elevator import ELEVATOR_ROUTINES, elevator_chart
        return elevator_chart(), ELEVATOR_ROUTINES
    return (parse_chart((FIXTURES / name / "chart.sc").read_text()),
            (FIXTURES / name / "routines.c").read_text())


def explore(name):
    """The space ``repro check`` explores for *name* at the default bound
    (the architecture does not change the explored graph)."""
    chart, source = _sources(name)
    system = build_system(chart, source,
                          select_initial_architecture(chart, source))
    return check_system(chart, source, system,
                        include_declared_deadlines=False).space


def _node(node):
    return [sorted(part) for part in node]


def summarize(space):
    """Counts plus the sha256 of the canonical graph document."""
    order = sorted(space.nodes, key=lambda n: json.dumps(_node(n)))
    document = {
        "nodes": [[_node(n), space.nodes[n]] for n in order],
        "edges": [[_node(n), [[sorted(e.inputs), _node(e.target),
                               list(e.fired)] for e in space.edges[n]]]
                  for n in order if n in space.edges],
        "decisions": [[_node(n), list(space.decisions[n])]
                      for n in order if n in space.decisions],
        "parents": [[_node(n), _node(space.parent[n][0]),
                     sorted(space.parent[n][1])]
                    for n in order if n in space.parent],
    }
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return {
        "nodes": len(space.nodes),
        "edges": sum(len(edges) for edges in space.edges.values()),
        "complete": space.complete,
        "truncation": space.truncation,
        "sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
    }


@pytest.mark.parametrize("name", CHARTS)
def test_explored_graph_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())[name]
    assert summarize(explore(name)) == golden


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {name: summarize(explore(name)) for name in CHARTS},
        indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
