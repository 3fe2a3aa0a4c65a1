#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as a JSON line.

    python3 perfbench/run.py --workload fig7 --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

* ``fig7``          the paper's Figure 7 GA_Sync sweep (current vs new);
* ``barrier-scale`` combined fence+barrier at N=1024 per rank under a
                    hierarchical topology, six algorithms, plus a coalesced
                    N=16384 cell;
* ``locks``         the paper's §4.2 lock series (hybrid vs MCS).

With ``--trace 0`` the workload is swept repeatedly, untraced, until
``--seconds`` have passed; host times are per-cell medians over the
sweeps.  With ``--trace 1`` one untraced and one profiled sweep run, and
the per-layer metrics come from the profiled one.  Every sweep checks
every cell (memory contents, operation counts, mutual exclusion) and
compares the simulated results with the checked-in ``results/`` CSVs
where those hold the same configuration.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and import from it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the simulator from {src}: {exc}")
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}, not {src}")


def sweep(workload, calibrate: bool):
    from workloads import run_cell

    return [run_cell(cell, calibrate) for cell in workload.cells]


def judge(workload, sweeps):
    """Attempted and failed operations, plus the problems found.

    A cell's operations fail when the cell raised, failed its check,
    produced simulated output different from the first sweep's, or
    disagrees with the checked-in reference CSV.
    """
    first = {run.name: run.sim for run in sweeps[0]}
    reference = []
    if workload.reference is not None:
        try:
            reference = workload.reference(first)
        except (KeyError, OSError, ValueError) as exc:
            reference = [(name, f"reference check: {exc!r}") for name in first]
    problems = [problem for _cell, problem in reference]
    mismatched = {cell for cell, _problem in reference}
    attempted = failed = 0
    for runs in sweeps:
        for run in runs:
            attempted += run.ops
            bad = list(run.problems)
            if run.sim != first[run.name]:
                bad.append("simulated output differs between sweeps")
            if bad or run.name in mismatched:
                failed += run.ops
            problems += [f"{run.name}: {p}" for p in bad]
    return attempted, failed, problems


def _total(sweeps, key: str) -> float:
    """Sum over cells of the cell's median ``key`` across sweeps."""
    return sum(
        statistics.median(getattr(runs[i], key) for runs in sweeps)
        for i in range(len(sweeps[0]))
    )


def _counters(runs):
    totals = {}
    for run in runs:
        for key, value in run.counters.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def end_to_end(workload, sweeps):
    from workloads import geometric_mean

    sim = {run.name: run.sim for run in sweeps[0]}
    return {
        "wall_s": (_total(sweeps, "run_s"), "s"),
        "setup_s": (_total(sweeps, "setup_s"), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "sim_op_us": (geometric_mean([c["us"] for c in sim.values()]), "sim_us"),
        "factor": (workload.factor(sim), "x"),
        "model_err_pct": (workload.model_err(sim), "%"),
    }


def per_layer(untraced, traced, profile, wrapped):
    from layers import call_counts, self_times

    counters = _counters(traced)
    for key, value in {**wrapped, **call_counts(profile)}.items():
        counters[key] = counters.get(key, 0) + value
    untraced_wall = sum(run.run_s for run in untraced)
    metrics = {
        f"{layer}.self_s": (seconds, "s")
        for layer, seconds in self_times(profile).items()
    }
    span = counters["server_span_us"]
    metrics.update({
        "sim.events": (counters["events"], "count"),
        "sim.ns_per_event": (1e9 * untraced_wall / counters["events"], "ns"),
        "net.posts": (counters["net_posts"], "count"),
        "net.messages": (counters["messages"], "count"),
        "net.bytes": (counters["bytes"], "B"),
        "mp.sends": (counters["mp_sends"], "count"),
        "mp.allreduce_calls": (counters["mp_allreduce_calls"], "count"),
        "topo.sync_calls": (counters["topo_sync_calls"], "count"),
        "nic.doorbells": (counters["nic_doorbells"], "count"),
        "armci.puts": (counters["armci_puts"], "count"),
        "armci.barrier_calls": (counters["armci_barriers"], "count"),
        "ga.syncs": (counters.get("ga_syncs", 0), "count"),
        "runtime.server_requests": (counters["server_requests"], "count"),
        "runtime.server_wakes": (counters["server_wakes"], "count"),
        "runtime.server_busy_frac": (
            counters["server_busy_us"] / span if span else 0.0, "ratio"
        ),
        "locks.acquires": (counters.get("lock_acquires", 0), "count"),
        "locks.handoffs": (counters.get("lock_handoffs", 0), "count"),
        "trace.overhead": (
            sum(run.run_s for run in traced) / untraced_wall, "ratio"
        ),
    })
    return metrics


def measure(workload, seconds: float, trace: bool):
    """Run ``workload``; returns (attempted, failed, problems, metrics, sweeps)."""
    if not trace:
        deadline = time.perf_counter() + seconds
        sweeps = [sweep(workload, calibrate=True)]
        while time.perf_counter() < deadline:
            sweeps.append(sweep(workload, calibrate=True))
        attempted, failed, problems = judge(workload, sweeps)
        metrics = end_to_end(workload, sweeps) if not failed else {}
        return attempted, failed, problems, metrics, sweeps

    from layers import counted_calls

    untraced = sweep(workload, calibrate=False)
    wrapped = {}
    profile = cProfile.Profile()
    with counted_calls(wrapped):
        profile.enable()
        try:
            traced = sweep(workload, calibrate=False)
        finally:
            profile.disable()
    sweeps = [untraced, traced]
    attempted, failed, problems = judge(workload, sweeps)
    metrics = per_layer(untraced, traced, profile, wrapped) if not failed else {}
    return attempted, failed, problems, metrics, sweeps


def _report(sweeps) -> None:
    """Human-readable lines: each cell's simulated output and host times."""
    print(f"{'cell':>26} {'sim_us':>12} {'events':>8} {'messages':>8} "
          f"{'bytes':>10} {'srv_req':>8} {'setup_s':>8} {'run_s':>8} {'raw_s':>8}")
    for i, run in enumerate(sweeps[0]):
        sim = run.sim
        print(f"{run.name:>26} {sim.get('us', float('nan')):12.3f} "
              f"{sim.get('events', 0):8d} {sim.get('messages', 0):8d} "
              f"{sim.get('bytes', 0):10d} {sim.get('server_requests', 0):8d} "
              f"{statistics.median(s[i].setup_s for s in sweeps):8.4f} "
              f"{statistics.median(s[i].run_s for s in sweeps):8.4f} "
              f"{statistics.median(s[i].raw_run_s for s in sweeps):8.4f}")
    totals = _counters(sweeps[0])
    counts = {k: totals.get(k, 0) for k in
              ("events", "messages", "bytes", "server_requests")}
    print(f"deterministic counts: {json.dumps(counts)}  sweeps: {len(sweeps)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fig7", "barrier-scale", "locks"))
    parser.add_argument("--seed", type=int, default=1,
                        help="NetworkParams.seed of every simulation")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="untraced: keep sweeping until this many seconds pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one profiled sweep for the per-layer metrics")
    args = parser.parse_args(argv)

    _import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import build, network

    workload = build(args.workload, network(args.seed))
    print(f"workload {args.workload}: {len(workload.cells)} cells, "
          f"seed {args.seed}, trace {args.trace}")
    attempted, failed, problems, metrics, sweeps = measure(
        workload, args.seconds, bool(args.trace)
    )
    _report(sweeps)
    for problem in problems:
        print(f"FAILED {problem}")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
