"""One farm engine, two transports: they agree item for item.

The in-process :class:`Supervisor` and the process-sharded
:class:`ShardSupervisor` are one engine and read the same
:class:`FarmConfig`.  On a seeded stream they must end with the same ticks,
the same ledger (submitted, accepted, processed, rejected and shed by
reason, checkpoints) and the same per-worker processed counts, whether the
queues keep up or shed and reject, and whether items escalate out of the
machine or not: an escalation climbs the same restart ladder in place
under both transports.
"""

import pathlib

import pytest

from repro.fault.model import ProcessKill
from repro.flow import build_system, select_initial_architecture
from repro.isa import MD16_TEP
from repro.resil import (
    FarmConfig,
    RestartPolicy,
    ShardSupervisor,
    Supervisor,
    generate_event_stream,
)
from repro.statechart import parse_chart
from repro.workloads import SMD_MUTUAL_EXCLUSIONS, SMD_ROUTINES, smd_chart

#: ``Begin()`` declares ``@bound(2)`` for a loop that never ends: every
#: item carrying ``GO`` into ``Idle`` or ``Done`` escalates
BOUND_OVERRUN = (pathlib.Path(__file__).resolve().parent / "fixtures"
                 / "run_errors" / "bound_overrun")


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


@pytest.fixture(scope="module")
def overrun_system():
    chart = parse_chart((BOUND_OVERRUN / "chart.sc").read_text())
    routines = (BOUND_OVERRUN / "routines.c").read_text()
    return build_system(chart, routines,
                        select_initial_architecture(chart, routines))


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


#: the same ladder for both transports; small checkpoint spacing so the
#: restores land on checkpoints past the anchor
OVERRUN_CONFIG = FarmConfig(checkpoint_every=2)
OVERRUN_POLICY = RestartPolicy(max_restarts=4)


def ladder(report, rows, restarts):
    return dict(ledger(report, rows), restarts=restarts,
                permanent_failures=report.permanent_failures,
                states=[row["state"] for row in rows])


def test_both_transports_climb_one_restart_ladder(overrun_system):
    stream = generate_event_stream(overrun_system.chart.events, 40, seed=1)
    in_process = Supervisor.for_system(
        overrun_system, n_workers=2, config=OVERRUN_CONFIG,
        policy=OVERRUN_POLICY).run(stream)
    sharded = ShardSupervisor(overrun_system, n_shards=2,
                              config=OVERRUN_CONFIG,
                              policy=OVERRUN_POLICY).run(stream)
    assert in_process.conservation() == [] == sharded.conservation()
    assert in_process.escalations > in_process.restarts > 0
    assert in_process.permanent_failures == 2
    assert ladder(in_process, in_process.workers, in_process.restarts) == \
        ladder(sharded, sharded.shards,
               sum(row["worker_restarts"] for row in sharded.shards))
    assert [row["restarts"] for row in in_process.workers] == \
        [row["worker_restarts"] for row in sharded.shards]


def test_standby_follows_in_place_restarts(overrun_system):
    stream = generate_event_stream(overrun_system.chart.events, 40, seed=1)

    def run(kill_plan=()):
        return ShardSupervisor(overrun_system, n_shards=2, standby=True,
                               config=OVERRUN_CONFIG, policy=OVERRUN_POLICY,
                               kill_plan=kill_plan).run(stream)

    report = run()
    assert report.conservation() == []
    assert report.submitted == 40
    assert sum(row["worker_restarts"] for row in report.shards) > 0
    for row in report.shards:
        # every checkpoint past the anchor replayed to the same fingerprint
        assert row["checkpoints"] > 1
        assert row["standby_verified"] == row["checkpoints"] - 1
        assert row["standby_divergences"] == 0
    # shard0's primary, killed between two of its restarts, is promoted
    # over; the promoted standby carries on the same ledger
    killed = run([ProcessKill(tick=8, shard=0, after_items=1)])
    assert killed.kills_fired == killed.promotions == 1
    assert killed.conservation() == []
    assert dict(ledger(killed, killed.shards), checkpoints=None) == \
        dict(ledger(report, report.shards), checkpoints=None)
