"""One FarmConfig, one ledger: the two farm engines agree item for item.

The in-process :class:`Supervisor` and the process-sharded
:class:`ShardSupervisor` read the same :class:`FarmConfig`.  On a
fault-free seeded stream they must end with the same ticks, the same
ledger (submitted, accepted, processed, rejected and shed by reason,
checkpoints) and the same per-worker processed counts, whether the queues
keep up or shed and reject.  A merge of the two engines must keep this.
"""

import pytest

from repro.flow import build_system
from repro.isa import MD16_TEP
from repro.resil import (
    FarmConfig,
    ShardSupervisor,
    Supervisor,
    generate_event_stream,
)
from repro.workloads import SMD_MUTUAL_EXCLUSIONS, SMD_ROUTINES, smd_chart


@pytest.fixture(scope="module")
def smd_system():
    # the build `repro serve examples/smd` farms out
    arch = MD16_TEP.with_(n_teps=2, mutual_exclusions=SMD_MUTUAL_EXCLUSIONS,
                          microcode_optimized=True)
    return build_system(smd_chart(), SMD_ROUTINES, arch, specialize=True)


# (queue capacity, batch, arrivals per tick, items); the first two shed
# and reject
SETTINGS = [(2, 1, 5, 60), (3, 1, 7, 90), (8, 2, 4, 200)]


def ledger(report, rows):
    return {
        "ticks": report.ticks,
        "submitted": report.submitted,
        "accepted": report.accepted,
        "processed": report.processed,
        "rejected": report.rejected,
        "shed": report.shed,
        "checkpoints": report.checkpoints,
        "per_worker_processed": [row["processed"] for row in rows],
    }


@pytest.mark.parametrize("capacity,batch,arrivals,items", SETTINGS)
def test_both_engines_keep_one_ledger(smd_system, capacity, batch,
                                      arrivals, items):
    config = FarmConfig(queue_capacity=capacity, batch=batch,
                        arrivals_per_tick=arrivals)
    stream = generate_event_stream(smd_system.chart.events, items, seed=1)
    in_process = Supervisor.for_system(smd_system, n_workers=2,
                                       config=config).run(stream)
    sharded = ShardSupervisor(smd_system, n_shards=2,
                              config=config).run(stream)
    assert in_process.conservation() == [] == sharded.conservation()
    assert ledger(in_process, in_process.workers) == \
        ledger(sharded, sharded.shards)
    overloaded = capacity < 8
    assert bool(in_process.shed) == bool(in_process.rejected) == overloaded
