"""Distributed farm: transport, delta snapshots, standby failover, chaos.

Covers the shard-process layer end to end: framed transport edge cases
(oversized frames, partial reads, timeouts, attributed close), delta
snapshot byte-identical reconstruction and compaction, hot-standby
promotion under SIGKILL chaos, double-kill permanent failure with the
conservation ledger intact, two-run determinism, and the robustness
satellites (bounded timeline ring, seeded backoff jitter, atomic
forensics/snapshot writes with attributed torn-file errors).
"""

import json
import os
import socket
import struct

import pytest

from repro.fault.model import (
    ALL_FAULT_KINDS,
    FaultError,
    PROCESS_KILL,
    ProcessKill,
    generate_kill_plan,
)
from repro.flow import build_system
from repro.isa import MD16_TEP
from repro.obs import (
    FORENSICS_VERSION,
    ShardAggregator,
    load_forensics_bundle,
    merged_chrome_trace,
    write_forensics_bundle,
)
from repro.resil import (
    Channel,
    DeltaChain,
    FarmConfig,
    FarmLedger,
    FrameTooLarge,
    MachineSnapshot,
    RestartPolicy,
    ShardSupervisor,
    SnapshotError,
    TransportClosed,
    TransportTimeout,
    apply_delta,
    diff_snapshots,
    encode_frame,
    generate_event_stream,
    read_snapshot,
    snapshot_fingerprint,
    snapshot_machine,
    write_snapshot,
)
from repro.resil import shardfarm
from repro.resil.standby import StandbyLog
from repro.statechart import ChartBuilder


def pingpong_chart():
    b = ChartBuilder("pingpong")
    b.event("GO", period=500).event("BACK")
    b.condition("FLAG")
    with b.or_state("Top", default="A"):
        b.basic("A").transition("B", label="GO/Work()")
        b.basic("B").transition("A", label="BACK/SetTrue(FLAG)")
    return b.build()


PINGPONG_ROUTINES = """
int:16 total;
void Work() { total = total + 3; }
"""


@pytest.fixture(scope="module")
def system():
    return build_system(pingpong_chart(), PINGPONG_ROUTINES, MD16_TEP)


# ---------------------------------------------------------------------------
# transport edge cases
# ---------------------------------------------------------------------------

class TestTransport:
    def _pair(self, **kwargs):
        a, b = socket.socketpair()
        return Channel(a, **kwargs), b

    def test_roundtrip_and_counters(self):
        channel, peer = self._pair()
        other = Channel(peer)
        channel.send({"op": "ping", "token": 7})
        assert other.recv(1.0) == {"op": "ping", "token": 7}
        assert channel.frames_sent == 1
        assert other.frames_received == 1
        channel.close()
        other.close()

    def test_partial_read_reassembly(self):
        """A frame delivered one byte at a time still decodes whole."""
        channel, peer = self._pair()
        frame = encode_frame({"op": "result", "items": list(range(50))})
        for i in range(len(frame)):
            peer.sendall(frame[i:i + 1])
        message = channel.recv(5.0)
        assert message["items"] == list(range(50))
        channel.close()
        peer.close()

    def test_oversized_frame_rejected_before_payload(self):
        """A hostile header is refused without reading the payload."""
        channel, peer = self._pair(max_frame=1024)
        peer.sendall(struct.pack(">I", 1 << 30))
        with pytest.raises(FrameTooLarge) as err:
            channel.recv(1.0)
        assert "1073741824" in str(err.value)
        channel.close()
        peer.close()

    def test_oversized_frame_rejected_on_send(self):
        channel, peer = self._pair(max_frame=16)
        with pytest.raises(FrameTooLarge):
            channel.send({"blob": "x" * 64})
        channel.close()
        peer.close()

    def test_timeout_is_not_a_hang(self):
        channel, peer = self._pair()
        with pytest.raises(TransportTimeout):
            channel.recv(0.05)
        channel.close()
        peer.close()

    def test_death_mid_frame_is_attributed(self):
        """A peer dying mid-frame names how much of what was lost."""
        channel, peer = self._pair()
        frame = encode_frame({"op": "result"})
        peer.sendall(frame[:7])  # header + 3 payload bytes, then death
        peer.close()
        with pytest.raises(TransportClosed) as err:
            channel.recv(1.0)
        assert "3 of" in str(err.value)
        channel.close()


# ---------------------------------------------------------------------------
# delta snapshots
# ---------------------------------------------------------------------------

def _snapshots_apart(system, first_steps, more_steps):
    machine = system.make_machine()
    events = sorted(system.chart.events)
    for i in range(first_steps):
        machine.step([events[i % len(events)]])
    base = snapshot_machine(machine, include_attachments=False)
    for i in range(more_steps):
        machine.step([events[i % len(events)]])
    target = snapshot_machine(machine, include_attachments=False)
    return base, target


class TestDeltaSnapshots:
    def test_reconstruction_is_byte_identical(self, system):
        base, target = _snapshots_apart(system, 5, 7)
        delta = diff_snapshots(base, target)
        rebuilt = apply_delta(base, delta)
        assert rebuilt.to_json_str() == target.to_json_str()

    def test_delta_is_smaller_than_full(self, system):
        base, target = _snapshots_apart(system, 5, 2)
        delta = diff_snapshots(base, target)
        assert delta.encoded_bytes < len(target.to_json_str())

    def test_wrong_base_is_refused(self, system):
        base, target = _snapshots_apart(system, 5, 7)
        delta = diff_snapshots(base, target)
        with pytest.raises(SnapshotError) as err:
            apply_delta(target, delta)
        assert "base" in str(err.value)

    def test_roundtrip_through_wire_document(self, system):
        from repro.resil import DeltaSnapshot

        base, target = _snapshots_apart(system, 3, 4)
        delta = diff_snapshots(base, target)
        wire = json.loads(delta.to_json_str())
        decoded = DeltaSnapshot.from_json(wire)
        rebuilt = apply_delta(base, decoded)
        assert rebuilt.to_json_str() == target.to_json_str()

    def test_malformed_document_is_attributed(self):
        from repro.resil import DeltaSnapshot

        with pytest.raises(SnapshotError):
            DeltaSnapshot.from_json({"not": "a delta"})
        with pytest.raises(SnapshotError):
            DeltaSnapshot.from_json({"version": 999})

    def test_chain_emits_full_then_deltas_and_compacts(self, system):
        machine = system.make_machine()
        events = sorted(system.chart.events)
        chain = DeltaChain(compact_ratio=1.0, max_deltas=3)
        kinds = []
        for i in range(10):
            machine.step([events[i % len(events)]])
            kind, _doc = chain.record(
                snapshot_machine(machine, include_attachments=False))
            kinds.append(kind)
        assert kinds[0] == "full"
        assert "delta" in kinds
        # max_deltas=3 forces a compaction full within any 4-step window
        for i in range(len(kinds) - 4):
            assert "full" in kinds[i:i + 5]
        assert chain.compactions >= 1

    def test_chain_deltas_always_target_last_full(self, system):
        machine = system.make_machine()
        events = sorted(system.chart.events)
        chain = DeltaChain(compact_ratio=1.0, max_deltas=100)
        last_full = None
        for i in range(8):
            machine.step([events[i % len(events)]])
            snapshot = snapshot_machine(machine,
                                        include_attachments=False)
            kind, doc = chain.record(snapshot)
            if kind == "full":
                last_full = MachineSnapshot.from_json(doc)
            else:
                from repro.resil import DeltaSnapshot

                rebuilt = apply_delta(last_full,
                                      DeltaSnapshot.from_json(doc))
                assert rebuilt.to_json_str() == snapshot.to_json_str()


# ---------------------------------------------------------------------------
# process-kill fault model
# ---------------------------------------------------------------------------

class TestProcessKillModel:
    def test_kind_stays_out_of_machine_taxonomy(self):
        assert PROCESS_KILL not in ALL_FAULT_KINDS

    def test_validation(self):
        with pytest.raises(FaultError):
            ProcessKill(tick=0, shard=0)
        with pytest.raises(FaultError):
            ProcessKill(tick=1, shard=-1)
        with pytest.raises(FaultError):
            ProcessKill(tick=1, shard=0, target="bystander")

    def test_plan_is_seeded_and_deterministic(self):
        one = generate_kill_plan(3, 4, seed=11, max_tick=30)
        two = generate_kill_plan(3, 4, seed=11, max_tick=30)
        assert one == two
        assert len(one) == 4
        assert len({(k.tick, k.shard) for k in one}) == 4
        assert generate_kill_plan(3, 4, seed=12, max_tick=30) != one


# ---------------------------------------------------------------------------
# standby log
# ---------------------------------------------------------------------------

class TestStandbyLog:
    def test_take_through_watermark(self):
        log = StandbyLog()
        log.append([{"seq": i} for i in range(6)])
        assert [d["seq"] for d in log.take_through(4)] == [0, 1, 2, 3]
        assert log.replayed == 4
        # already at the watermark: nothing more to replay
        assert log.take_through(4) == []
        assert [d["seq"] for d in log.drain()] == [4, 5]
        assert log.replayed == 6


# ---------------------------------------------------------------------------
# the distributed farm
# ---------------------------------------------------------------------------

def _run_farm(system, *, n_shards=3, standby=False, kill_plan=(),
              policy=None, items=48, seed=3, config=None,
              aggregator=None):
    supervisor = ShardSupervisor(
        system, n_shards=n_shards, standby=standby,
        config=config or FarmConfig(queue_capacity=16, checkpoint_every=4,
                                    batch=2, arrivals_per_tick=5),
        policy=policy, kill_plan=list(kill_plan), aggregator=aggregator)
    stream = generate_event_stream(system.chart.events, items, seed=seed)
    return supervisor.run(stream)


class TestShardFarm:
    def test_clean_run_conserves_and_drains(self, system):
        aggregator = ShardAggregator()
        report = _run_farm(system, aggregator=aggregator)
        assert report.submitted == 48
        assert report.processed == 48
        assert report.conservation() == []
        assert aggregator.conservation() == []
        assert report.in_flight == 0
        assert all(s["state"] == "running" for s in report.shards)

    def test_kill_without_standby_respawns_from_checkpoint(self, system):
        report = _run_farm(
            system, kill_plan=[ProcessKill(tick=4, shard=1,
                                           after_items=1)])
        assert report.kills_fired == 1
        assert report.respawns == 1
        assert report.promotions == 0
        assert report.processed == report.submitted
        assert report.conservation() == []
        # traffic rerouted away while the shard was down
        assert report.rerouted >= 1

    def test_kill_with_standby_promotes(self, system):
        report = _run_farm(
            system, standby=True,
            kill_plan=[ProcessKill(tick=4, shard=1, after_items=1)])
        assert report.kills_fired == 1
        assert report.promotions == 1
        assert report.respawns == 0
        assert report.processed == report.submitted
        assert report.conservation() == []
        kinds = [e["kind"] for e in report.timeline]
        assert "process-kill" in kinds
        assert "promotion" in kinds

    def test_standby_verifies_delta_synced_checkpoints(self, system):
        report = _run_farm(system, standby=True, items=60)
        verified = sum(s["standby_verified"] for s in report.shards)
        divergences = sum(s["standby_divergences"] for s in report.shards)
        assert verified > 0
        assert divergences == 0

    def test_double_kill_fails_permanently_with_attribution(self, system):
        report = _run_farm(
            system, n_shards=2, standby=True,
            policy=RestartPolicy(max_restarts=0),
            kill_plan=[ProcessKill(tick=4, shard=1, target="standby"),
                       ProcessKill(tick=5, shard=1, after_items=0)])
        assert report.permanent_failures == 1
        assert report.shards[1]["state"] == "failed"
        # every in-flight item on the lost shard is attributed
        assert report.shed.get("shard-lost", 0) \
            + report.rejected.get("shard-lost", 0) > 0
        assert report.conservation() == []
        kinds = [e["kind"] for e in report.timeline]
        assert "standby-lost" in kinds
        assert "permanent-failure" in kinds

    def test_hung_worker_is_detected_and_promoted(self, system,
                                                  monkeypatch):
        monkeypatch.setattr(shardfarm, "REQUEST_TIMEOUT", 0.3)
        monkeypatch.setattr(shardfarm, "MISS_THRESHOLD", 2)
        supervisor = ShardSupervisor(
            system, n_shards=2, standby=True,
            config=FarmConfig(queue_capacity=16, checkpoint_every=4,
                              batch=2, arrivals_per_tick=5))
        supervisor.start()
        try:
            # wedge shard0's primary: alive but silent
            supervisor.shards[0].channel.send({"op": "hang",
                                               "seconds": 30.0})
            stream = generate_event_stream(system.chart.events, 30,
                                           seed=3)
            report = supervisor.run(stream)
        finally:
            supervisor.shutdown()
        assert report.promotions == 1
        assert report.conservation() == []
        kinds = [e["kind"] for e in report.timeline]
        assert "missed-heartbeat" in kinds
        assert "worker-lost" in kinds

    def test_two_runs_same_seed_are_byte_identical(self, system):
        def once():
            report = _run_farm(
                system, standby=True,
                kill_plan=generate_kill_plan(3, 2, seed=5, max_tick=8))
            return json.dumps(report.to_json(), sort_keys=True)

        assert once() == once()


# ---------------------------------------------------------------------------
# satellites: timeline ring, backoff jitter, atomic writes
# ---------------------------------------------------------------------------

class TestTimelineRing:
    def test_ring_bounds_and_counts_drops(self):
        ledger = FarmLedger(timeline_limit=5)
        for tick in range(8):
            ledger.note(tick, "shed", "worker0")
        assert len(ledger.timeline) == 5
        assert ledger.timeline_dropped == 3
        assert [e["tick"] for e in ledger.timeline] == [3, 4, 5, 6, 7]

    def test_unlimited_when_disabled(self):
        ledger = FarmLedger(timeline_limit=None)
        for tick in range(100):
            ledger.note(tick, "shed")
        assert len(ledger.timeline) == 100
        assert ledger.timeline_dropped == 0

    def test_consumers_report_truncation(self):
        ledger = FarmLedger(timeline_limit=2)
        for tick in range(5):
            ledger.note(tick, "restart", "worker0")
        trace = merged_chrome_trace(
            {}, supervisor_events=ledger.timeline,
            dropped_events=ledger.timeline_dropped)
        assert trace["otherData"]["supervisor_timeline_dropped"] == 3
        names = [e["name"] for e in trace["traceEvents"]]
        assert "timeline-truncated" in names


class TestBackoffJitter:
    def test_default_schedule_is_unchanged(self):
        policy = RestartPolicy()
        assert [policy.backoff(n) for n in range(5)] == [2, 4, 8, 16, 32]

    def test_jitter_is_seeded_and_bounded(self):
        policy = RestartPolicy(jitter_ticks=4, jitter_seed=7)
        first = [policy.backoff(n, key="shard0") for n in range(5)]
        again = [policy.backoff(n, key="shard0") for n in range(5)]
        assert first == again
        for n, jittered in enumerate(first):
            base = RestartPolicy().backoff(n)
            assert base <= jittered <= base + 4

    def test_jitter_desynchronizes_workers(self):
        policy = RestartPolicy(jitter_ticks=16, jitter_seed=7)
        schedules = {name: tuple(policy.backoff(n, key=name)
                                 for n in range(4))
                     for name in ("w0", "w1", "w2", "w3")}
        assert len(set(schedules.values())) > 1


class TestAtomicWrites:
    def test_forensics_write_is_atomic(self, tmp_path):
        bundle = {"version": FORENSICS_VERSION, "cause": {"kind": "test"},
                  "ring": [], "recorded": 0, "dropped": 0, "capacity": 8}
        path = tmp_path / "bundle.json"
        write_forensics_bundle(bundle, str(path))
        assert load_forensics_bundle(str(path))["capacity"] == 8
        assert [p.name for p in tmp_path.iterdir()] == ["bundle.json"]

    def test_truncated_bundle_error_is_attributed(self, tmp_path):
        bundle = {"version": FORENSICS_VERSION, "cause": {"kind": "test"},
                  "ring": [], "recorded": 0, "dropped": 0, "capacity": 8}
        path = tmp_path / "bundle.json"
        write_forensics_bundle(bundle, str(path))
        torn = path.read_text()[:len(path.read_text()) // 2]
        path.write_text(torn)
        with pytest.raises(ValueError) as err:
            load_forensics_bundle(str(path))
        assert not isinstance(err.value, json.JSONDecodeError)
        assert "truncated or corrupt" in str(err.value)
        assert "bundle.json" in str(err.value)

    def test_snapshot_file_roundtrip_and_torn_file(self, system,
                                                   tmp_path):
        machine = system.make_machine()
        machine.step([sorted(system.chart.events)[0]])
        snapshot = snapshot_machine(machine, include_attachments=False)
        path = tmp_path / "ckpt.json"
        write_snapshot(snapshot, str(path))
        loaded = read_snapshot(str(path))
        assert loaded.to_json_str() == snapshot.to_json_str()
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]
        path.write_text(path.read_text()[:40])
        with pytest.raises(SnapshotError) as err:
            read_snapshot(str(path))
        assert "truncated or corrupt" in str(err.value)


class TestShardAggregator:
    def test_conservation_checked_per_sample(self):
        aggregator = ShardAggregator()
        aggregator.on_tick(1, {"submitted": 10, "accepted": 7,
                               "rejected": 2, "in_dispatch": 1,
                               "processed": 4, "shed": 1, "queued": 2},
                           {"shard0": {"queue_depth": 2}})
        assert aggregator.conservation() == []
        aggregator.on_tick(2, {"submitted": 10, "accepted": 6,
                               "rejected": 2, "in_dispatch": 1,
                               "processed": 4, "shed": 1, "queued": 2},
                           {})
        problems = aggregator.conservation()
        assert len(problems) == 2
        assert "tick 2" in problems[0]

    def test_ring_limit(self):
        aggregator = ShardAggregator(limit=2)
        row = {"submitted": 0, "accepted": 0, "rejected": 0,
               "in_dispatch": 0, "processed": 0, "shed": 0, "queued": 0}
        for tick in range(5):
            aggregator.on_tick(tick, row, {})
        assert len(aggregator) == 2
        assert aggregator.dropped == 3
