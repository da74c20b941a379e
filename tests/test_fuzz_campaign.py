"""Campaign determinism, canary end-to-end, and corpus replay (tier-1)."""

import io
import json
import os
import shutil
import subprocess
import sys

from repro.cli import run_fuzz
from repro.fuzz import (
    FUZZ_REPORT_VERSION,
    FuzzCampaign,
    GeneratorConfig,
    replay_corpus,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(REPO, "tests", "fixtures", "fuzz")

SMALL = GeneratorConfig(max_states=8, max_extra_transitions=2)


class TestCampaignDeterminism:
    def test_same_seed_byte_identical_reports(self):
        """The CI smoke job's contract: two same-seed runs serialize to
        the same bytes."""
        kwargs = dict(seed=5, charts=4, cycles=15, config=SMALL,
                      max_rungs=2)
        first = FuzzCampaign(**kwargs).run().dumps()
        second = FuzzCampaign(**kwargs).run().dumps()
        assert first == second

    def test_different_seeds_differ(self):
        a = FuzzCampaign(seed=5, charts=2, cycles=10, config=SMALL,
                         max_rungs=1).run().dumps()
        b = FuzzCampaign(seed=6, charts=2, cycles=10, config=SMALL,
                         max_rungs=1).run().dumps()
        assert a != b

    def test_report_shape(self):
        report = FuzzCampaign(seed=5, charts=3, cycles=10, config=SMALL,
                              max_rungs=1).run()
        doc = json.loads(report.dumps())
        assert doc["version"] == FUZZ_REPORT_VERSION
        assert doc["seed"] == 5
        assert len(doc["outcomes"]) == 3
        assert report.clean
        assert report.counts() == {"clean": 3}
        # derived per-chart seeds follow the FaultCampaign convention
        assert [o["chart_seed"] for o in doc["outcomes"]] == [
            5 * 7919 + i for i in range(3)]

    def test_render_is_a_table(self):
        report = FuzzCampaign(seed=5, charts=2, cycles=10, config=SMALL,
                              max_rungs=1).run()
        text = report.render()
        assert "Fuzz campaign" in text
        assert "Guilty stage" in text

    def test_default_report_has_no_bmc_key(self):
        # the bmc field only serializes under --bmc: goldens stay stable
        report = FuzzCampaign(seed=5, charts=1, cycles=10, config=SMALL,
                              max_rungs=1).run()
        doc = json.loads(report.dumps())
        assert all("bmc" not in o for o in doc["outcomes"])


class TestBmcStage:
    def test_bmc_cross_check_passes_on_clean_charts(self):
        report = FuzzCampaign(seed=5, charts=3, cycles=12, config=SMALL,
                              max_rungs=1, bmc=True).run()
        assert report.clean
        for outcome in report.outcomes:
            assert outcome.bmc is not None
            assert outcome.bmc["implied_violations"] == []
            assert outcome.bmc["agreement_misses"] == []
            # the canary: a property over states we watched co-occupy
            # must come back violated with a machine-replaying witness
            assert outcome.bmc["canary"] in ("violated-replayed",
                                             "bound-exhausted", "no-pair")
        assert any(o.bmc["canary"] == "violated-replayed"
                   for o in report.outcomes)

    def test_bmc_reports_are_deterministic(self):
        kwargs = dict(seed=7, charts=2, cycles=10, config=SMALL,
                      max_rungs=1, bmc=True)
        first = FuzzCampaign(**kwargs).run().dumps()
        second = FuzzCampaign(**kwargs).run().dumps()
        assert first == second
        assert '"bmc"' in first


class TestCanaryCampaign:
    def test_canary_caught_bisected_and_shrunk(self):
        """End-to-end acceptance shape: planted mutations are detected,
        attributed to the planted stage (verified) and shrunk small."""
        report = FuzzCampaign(seed=1, charts=4, cycles=20,
                              canary_stage="promote-internal").run()
        caught = [o for o in report.outcomes if o.status == "diverged"]
        others = [o for o in report.outcomes
                  if o.status not in ("diverged", "canary-unplantable")]
        assert caught, "no chart caught the canary"
        assert not others, [o.status for o in others]
        for outcome in caught:
            assert outcome.guilty_stage == "promote-internal"
            assert outcome.bisect_verified is True
            assert outcome.shrunk_states is not None
            assert outcome.shrunk_states <= 8
            assert outcome.shrunk_chart  # Fig. 2a textual reproducer
            assert outcome.shrunk_spec is not None

    def test_no_shrink_flag_skips_minimization(self):
        report = FuzzCampaign(seed=1, charts=4, cycles=20,
                              canary_stage="promote-internal",
                              shrink=False).run()
        caught = [o for o in report.outcomes if o.status == "diverged"]
        assert caught
        assert all(o.shrunk_states is None for o in caught)


class TestCorpusReplay:
    def test_regression_corpus_replays_clean(self):
        """Tier-1 corpus replay: every minimized regression chart under
        tests/fixtures/fuzz still behaves as recorded."""
        results = replay_corpus(CORPUS)
        assert results, "regression corpus is empty"
        failed = [r for r in results if not r.ok]
        assert not failed, [(r.name, r.detail) for r in failed]

    def test_bad_entries_fail_by_file_name(self, tmp_path, capsys):
        """An entry that is not JSON or has no ``spec`` is a FAIL line
        naming its file, in text and JSON; the good entry still runs."""
        good = "canary_promote_internal_min.json"
        shutil.copy(os.path.join(CORPUS, good), tmp_path / good)
        (tmp_path / "broken.json").write_text("{not json")
        (tmp_path / "nospec.json").write_text('{"version": 1}')
        text, listing = io.StringIO(), io.StringIO()
        assert run_fuzz(["--replay", str(tmp_path)], out=text) == 1
        assert run_fuzz(["--replay", str(tmp_path), "--json"],
                        out=listing) == 1
        assert capsys.readouterr().err == ""
        fails = [line for line in text.getvalue().splitlines()
                 if line.lstrip().startswith("FAIL")]
        assert fails == [
            "  FAIL broken.json: JSONDecodeError: Expecting property name "
            "enclosed in double quotes: line 1 column 2 (char 1)",
            '  FAIL nospec.json: ValueError: not a corpus entry: no "spec"']
        results = json.loads(listing.getvalue())
        assert [(r["name"], r["ok"]) for r in results] == [
            ("broken.json", False),
            ("minimized canary at promote-internal", True),
            ("nospec.json", False)]

    def test_corpus_entries_are_versioned(self):
        for filename in sorted(os.listdir(CORPUS)):
            if not filename.endswith(".json"):
                continue
            with open(os.path.join(CORPUS, filename)) as handle:
                doc = json.load(handle)
            assert doc["version"] == FUZZ_REPORT_VERSION, filename
            assert "spec" in doc and "expect" in doc, filename


class TestDeterminismAudit:
    def test_library_is_free_of_ambient_randomness(self):
        """Satellite 4: no global-RNG or wall-clock calls in src/repro."""
        script = os.path.join(REPO, "scripts", "check_determinism.py")
        proc = subprocess.run(
            [sys.executable, script, os.path.join(REPO, "src", "repro")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_audit_flags_global_rng(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.randint(0, 9)\n"
                       "import time\nt = time.time()\n")
        sys.path.insert(0, os.path.join(REPO, "scripts"))
        try:
            from check_determinism import audit
        finally:
            sys.path.pop(0)
        findings = audit(str(tmp_path))
        assert len(findings) == 2
        assert "global-RNG" in findings[0]
        assert "wall-clock" in findings[1]

    def test_audit_allows_seeded_random(self, tmp_path):
        good = tmp_path / "good.py"
        good.write_text("import random\nrng = random.Random(7)\n"
                        "x = rng.randint(0, 9)\n"
                        "import time\nt = time.perf_counter()\n")
        sys.path.insert(0, os.path.join(REPO, "scripts"))
        try:
            from check_determinism import audit
        finally:
            sys.path.pop(0)
        findings = audit(str(tmp_path))
        assert findings == []
