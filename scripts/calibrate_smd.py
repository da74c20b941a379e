"""Calibration helper: measured vs target transition costs for the SMD
workload on the reference architecture (16-bit M/D, unoptimized, 1 TEP).

Run while tuning the routine bodies in repro/workloads/smd.py.
"""
from repro.workloads.smd import smd_chart, SMD_ROUTINES, TABLE3_PAPER
from repro.flow import build_system
from repro.isa import MD16_TEP

TARGETS = {
    "GetByte": 105, "DecodeOpcode": 207, "PrepareMove": 50,
    "RequestData": 182, "PhiParameters": 33, "AbortMove": 251,
    "StartMove": 338, "LoadNext": 207, "InitializeAll": 130, "Stop": 50,
    "DeltaT": 180, "StartMotor": 160,
}

chart = smd_chart()
system = build_system(chart, SMD_ROUTINES, MD16_TEP)

seen = {}
for t in chart.transitions:
    if t.call is not None:
        seen.setdefault(t.call.routine, system.transition_costs[t.index])

print(f"{'routine':16s} {'measured':>8s} {'target':>8s} {'diff':>6s}")
for name, target in TARGETS.items():
    measured = seen.get(name, -1)
    print(f"{name:16s} {measured:8d} {target:8d} {measured - target:6d}")

print("\npaper cycles vs measured:")
cycles = {c.states: c.length for c in system.validator.all_cycles()}
bytrans = {}
for c in system.validator.all_cycles():
    key = tuple(c.states)
    bytrans[key] = max(bytrans.get(key, 0), c.length)
for states, paper in TABLE3_PAPER:
    measured = bytrans.get(states)
    if measured is None:
        # find closest by endpoints
        cands = [l for s, l in bytrans.items()
                 if s[0] == states[0] and s[-1] == states[-1]
                 and len(s) == len(states)]
        measured = max(cands) if cands else -1
    print(f"  {str(states):58s} paper {paper:5d}  measured {measured:5d}")
