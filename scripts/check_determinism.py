#!/usr/bin/env python
"""Determinism audit: no ambient randomness or wall-clock in src/repro.

Every stochastic feature in this repo (fault campaigns, fuzz campaigns,
chaos tests, event traces) must flow through an explicitly seeded
``random.Random(seed)`` instance so that same-seed runs are byte-identical
— the CI smoke jobs ``cmp`` their reports.  This script greps the library
for the constructs that silently break that contract:

* module-level ``random.<fn>(...)`` calls (the shared global RNG) —
  ``random.Random(...)`` construction is the one allowed use;
* ``time.time()`` / ``datetime.now()`` / ``datetime.utcnow()`` — wall
  clock reads that leak into reports (``time.perf_counter`` and friends
  are fine: they measure durations, never serialized timestamps).

Exit status 0 when clean, 1 with one ``path:line`` finding per line.
"""

from __future__ import annotations

import os
import re
import sys
from typing import List

#: constructs that break seeded determinism, with human-readable reasons
FORBIDDEN = [
    (re.compile(r"\brandom\.(?!Random\b)[a-z_]+\s*\("),
     "global-RNG call (use an explicitly seeded random.Random instance)"),
    (re.compile(r"\btime\.time\s*\("),
     "wall-clock read (use time.perf_counter for durations)"),
    (re.compile(r"\bdatetime\.(?:now|utcnow)\s*\("),
     "wall-clock read (pass timestamps in explicitly)"),
]


def audit(root: str) -> List[str]:
    """All violations under *root* as ``path:line: reason`` strings."""
    findings: List[str] = []
    for dirpath, _dirnames, filenames in sorted(os.walk(root)):
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            with open(path) as handle:
                for number, line in enumerate(handle, start=1):
                    stripped = line.lstrip()
                    if stripped.startswith("#"):
                        continue
                    for pattern, reason in FORBIDDEN:
                        if pattern.search(line):
                            findings.append(
                                f"{path}:{number}: {reason}\n"
                                f"    {line.rstrip()}")
    return findings


def main(argv: List[str]) -> int:
    root = argv[1] if len(argv) > 1 else os.path.join("src", "repro")
    if not os.path.isdir(root):
        print(f"error: {root!r} is not a directory", file=sys.stderr)
        return 2
    findings = audit(root)
    if findings:
        print(f"{len(findings)} determinism violation(s):")
        for finding in findings:
            print(finding)
        return 1
    print(f"determinism audit clean under {root}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
