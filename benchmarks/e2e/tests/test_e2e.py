"""Self-tests of the end-to-end benchmark, at sizes shrunk here.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests
"""

import json
import os
import shutil
import signal
import subprocess
import sys

import pytest

from benchmarks.e2e import run, spans, workloads

#: no digests are recorded for this seed, so reps are checked against
#: each other and the invariants
SEED = 7


@pytest.fixture(autouse=True)
def small_sizes(monkeypatch):
    monkeypatch.setattr(workloads.Elevator, "CYCLES", 200)
    monkeypatch.setattr(workloads.Farm, "ITEMS", 40)
    monkeypatch.setattr(workloads.Fuzz, "CHARTS", 1)


def _last_line(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_names_every_metric_the_code_prints():
    declared = _benchmark_json()
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} \
        == spans.LAYER_UNITS
    assert [w["name"] for w in declared["workloads"]] \
        == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, units", [(0, run.END_TO_END_UNITS),
                                          (1, spans.LAYER_UNITS)])
def test_every_metric_is_printed_with_its_unit(capsys, trace, units):
    code = run.main(["--workload", "elevator", "--seed", str(SEED),
                     "--seconds", "0", "--trace", str(trace)])
    line = _last_line(capsys)
    assert code == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= run.MIN_REPS
    assert {name: entry["unit"] for name, entry in line["metrics"].items()} \
        == units
    if not trace:
        assert all(entry["value"] > 0 for entry in line["metrics"].values())


@pytest.mark.parametrize("name", ["elevator", "farm-distributed"])
def test_host_probe_samples_every_rep_and_leaves_no_timer(name):
    run.load_program()
    document = run.measure(name, SEED, 0, trace=False)
    for rep in document["reps"]:
        for part in ("setup_probe", "work_probe"):
            assert rep[part]["slices"] > 0 and rep[part]["mean_s"] > 0
        # the shard workers are probed too
        assert (rep["work_probe"]["child_slices"] > 0) \
            == (name == "farm-distributed")
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) == signal.SIG_DFL
    assert run.HostProbe.running is None


def test_planted_digest_mismatch_fails_every_operation(capsys, monkeypatch,
                                                       tmp_path):
    monkeypatch.setattr(run, "load_expected",
                        lambda seed: {"check": {"planted": True}})
    out = tmp_path / "doc.json"
    code = run.main(["--workload", "check", "--seed", "1", "--seconds", "0",
                     "--trace", "0", "--out", str(out)])
    line = _last_line(capsys)
    document = json.loads(out.read_text())
    assert code == 1
    assert line["correct"] is False
    assert line["failed"] == line["attempted"] > 0
    assert document["error_rate"] == 1.0


def _program_bindings():
    """Every callable bound in a loaded program module or class."""
    bindings = {}
    for module in spans._program_modules():
        for name, value in vars(module).items():
            if callable(value) or isinstance(value, property):
                bindings[(module.__name__, name)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attribute, member in vars(value).items():
                    bindings[(module.__name__, name, attribute)] = member
    return bindings


@pytest.mark.parametrize("name", ["elevator", "farm-distributed"])
def test_traced_run_keeps_digests_and_restores_attributes(name):
    run.load_program()
    for probe in spans.PROBES:
        spans._resolve(probe.target)  # import every probed module first
    before = _program_bindings()
    untraced = run.measure(name, SEED, 0, trace=False)
    traced = run.measure(name, SEED, 0, trace=True)
    after = _program_bindings()

    assert untraced["correct"] and traced["correct"], traced["problems"]
    assert traced["digest"] == untraced["digest"]
    assert any(rep["traced"] for rep in traced["reps"])
    assert all(rep["ok"] for rep in traced["reps"])
    changed = [key for key, value in before.items()
               if after.get(key) is not value]
    assert changed == []
    assert traced["per_layer"]["machine.step.calls"]["value"] > 0
    if name == "farm-distributed":
        # worker-side spans arrive through the flushed worker files
        assert traced["per_layer"]["worker.dispatch.self_s"]["value"] > 0
        assert not [f for f in os.listdir(run.OUT_DIR)
                    if f.startswith("worker-")]


def test_absent_callable_does_not_crash_the_trace(monkeypatch):
    missing = (spans.Probe("gone.module", "repro.no_such_module:run"),
               spans.Probe("gone.method",
                           "repro.pscp.machine:PscpMachine.no_such_method"),
               spans.Probe("gone.class", "repro.pscp.machine:NoSuchClass.step"))
    renamed_counter = spans.Probe(
        "gone.counter", "repro.pscp.trace:DeadlineMonitor.observe",
        after=lambda store, args, result, token, span:
        args[0].no_such_counter)
    monkeypatch.setattr(spans, "PROBES",
                        spans.PROBES + missing + (renamed_counter,))
    document = run.measure("elevator", SEED, 0, trace=True)
    assert document["correct"]
    assert document["absent"] == [probe.target for probe in missing] + [
        f"{renamed_counter.target} (boundary count)"]
    assert document["per_layer"]["machine.step.calls"]["value"] > 0


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    child = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "smd",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={key: value for key, value in os.environ.items()
             if key != "PYTHONPATH"})
    assert child.returncode != 0
    assert child.stdout.strip() == ""
