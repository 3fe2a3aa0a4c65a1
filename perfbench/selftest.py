#!/usr/bin/env python3
"""Fast self-test of the benchmark at reduced sizes (about ten seconds).

    python3 perfbench/selftest.py

Checks that:

* every workload, untraced and traced, emits exactly the metrics that
  ``BENCHMARK.json`` names, and passes its own checks;
* a corrupted cell result (a wrong value in simulated memory, a missing
  sample, a lost lock release, a second lock holder) trips the cell's
  correctness check and counts as failed operations;
* the reference cross-check accepts the checked-in CSVs and rejects a
  simulated value that differs from them at their printed precision;
* the command line, at full size on ``locks``, prints a passing JSON
  result as its last line.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_program()

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}

failures = []


def expect(ok: bool, what: str) -> None:
    print(f"[{'ok' if ok else 'FAIL'}] {what}")
    if not ok:
        failures.append(what)


def small(name: str):
    return workloads.build(name, workloads.network(7), small=True)


def check_metrics() -> None:
    for name in workloads.WORKLOADS:
        for trace, wanted in ((False, END_TO_END), (True, PER_LAYER)):
            attempted, failed, problems, metrics, _ = run.measure(
                small(name), 0.0, trace
            )
            expect(attempted > 0 and failed == 0 and not problems,
                   f"{name} trace={int(trace)}: all checks pass {problems[:2]}")
            expect(set(metrics) == wanted,
                   f"{name} trace={int(trace)}: emits the BENCHMARK.json metrics "
                   f"(missing {sorted(wanted - set(metrics))}, "
                   f"extra {sorted(set(metrics) - wanted)})")


def corrupted(cell, corrupt):
    """``cell`` whose first simulation is corrupted before it is checked."""
    sim = cell.sims[0]

    def check(runtime, results, probe):
        corrupt(runtime, results, probe)
        return sim.check(runtime, results, probe)

    return dataclasses.replace(
        cell, sims=[dataclasses.replace(sim, check=check)] + cell.sims[1:]
    )


def _poke(key: str, rank: int, value: float):
    def corrupt(runtime, _results, _probe):
        region = runtime.regions[rank]
        region.write(region.alloc_named(key, 1), value)

    return corrupt


def _drop_sample(_runtime, results, _probe):
    results[1].pop()


def _lost_release(_runtime, _results, probe):
    probe.handles[0].stats.releases -= 1


def _two_holders(_runtime, _results, probe):
    probe.overlaps += 1


def check_corruption() -> None:
    cases = [
        ("fig7", 2, _poke("ga:fig7", 1, -1.0), "wrong value in a strip"),
        ("fig7", 2, _drop_sample, "missing GA_Sync sample"),
        ("barrier-scale", 0, _poke("scalebench", 1, 99.0), "wrong ring-neighbor cell"),
        ("barrier-scale", 6, _poke("scalebench", 3, 99.0), "wrong coalesced ring cell"),
        ("locks", 1, _lost_release, "acquires != releases"),
        ("locks", 2, _two_holders, "two holders at once"),
    ]
    for name, index, corrupt, what in cases:
        workload = small(name)
        clean = workloads.run_cell(workload.cells[index])
        bad = workloads.run_cell(corrupted(workload.cells[index], corrupt))
        sweeps = [[clean], [bad]]
        workload.cells = [workload.cells[index]]
        workload.reference = None
        _attempted, failed, _problems = run.judge(workload, sweeps)
        expect(not clean.problems and bad.problems and failed == bad.ops,
               f"{name} {bad.name}: {what} is caught ({bad.problems[:1]})")


def check_reference() -> None:
    fig7 = {}
    for row in workloads._read_csv("fig7_ga_sync.csv"):
        if row["variant"] != "factor":
            fig7[f"{row['variant']}@{row['nprocs']}"] = {"us": float(row["microseconds"])}
    locks = {}
    for row in workloads._read_csv("figs8_9_10_locks.csv"):
        locks[f"{row['kind']}@{row['nprocs']}"] = {
            "us": float(row["roundtrip_us"]),
            "acquire_us": float(row["acquire_us"]),
            "release_us": float(row["release_us"]),
        }
    # Factors recomputed from the CSV's rounded times may miss its
    # 4-decimal factor rows; every time row must match.
    accepted = workloads._fig7_reference(fig7)
    expect(all(p.startswith("factor@") for _c, p in accepted), "fig7 CSV times accepted")
    expect(not workloads._lock_reference(locks), "lock CSV accepted")
    fig7["new@8"]["us"] += 0.001
    expect(any(c == "new@8" and p.startswith("new@8:")
               for c, p in workloads._fig7_reference(fig7)),
           "fig7 drift of 0.001 us caught")
    locks["mcs@4"]["release_us"] += 0.001
    expect([c for c, _p in workloads._lock_reference(locks)] == ["mcs@4"],
           "lock drift of 0.001 us caught")


def check_cli() -> None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "locks",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=ROOT,
    )
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(proc.returncode == 0 and last["correct"] and last["failed"] == 0
           and set(last["metrics"]) == END_TO_END,
           "run.py --workload locks: full size passes, reference CSV matches")


if __name__ == "__main__":
    check_metrics()
    check_corruption()
    check_reference()
    check_cli()
    print(f"selftest: {'FAILED ' + str(len(failures)) if failures else 'ok'}")
    sys.exit(1 if failures else 0)
