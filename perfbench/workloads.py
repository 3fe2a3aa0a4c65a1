"""The benchmark's workloads: cells, correctness checks and references.

A *workload* is a list of *cells*; a cell is one point of a figure (one
mode or algorithm at one process count).  A cell runs one or more
simulations, each a :class:`ClusterRuntime` with an SPMD program spawned
on it, exactly as the repository's own experiments drive them.  After
each simulation the cell's correctness check reads the runtime's memory
regions and the counters the layers expose; a cell that raises,
deadlocks or fails its check is a failed cell.

Every simulated quantity here is deterministic: the simulations run
jitter-free, so the seed (passed to ``NetworkParams.seed``) does not
change them.  Host times are measured around the calls, never inside
the program.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import math
import time
from heapq import heappop, heappush
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.armci import barrier as armci_barrier
from repro.experiments import lockbench
from repro.experiments.fig7_sync import Fig7Config, sync_workload
from repro.experiments.lockbench import LockBenchConfig, lock_workload
from repro.experiments.scalebench import (
    COALESCE_VARIANTS,
    ScaleBenchConfig,
    scale_workload,
)
from repro.ga.distribution import BlockDistribution, default_pgrid
from repro.net.params import NetworkParams, myrinet2000
from repro.runtime.cluster import ClusterRuntime
from repro.topo import parse_topo_spec
from repro.topo.coalesce import coalesced_scale_workload

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "results"

#: The paper's Figure 7 GA_Sync times at 16 processes (µs).
PAPER_FIG7_US = {"current": 1724.3, "new": 190.3}
#: The paper's Figure 8 factor: hybrid/MCS request+release at 8 nodes.
PAPER_LOCK_FACTOR = 1.25

#: barrier-scale variants: GA_Sync mode and parameter overrides, as
#: ``repro scalebench`` maps them.
SCALE_VARIANTS: Dict[str, Tuple[str, dict]] = {
    "host-exchange": ("new", {}),
    "dissemination": ("dissemination", {}),
    "kary": ("kary", {}),
    "twolevel": ("twolevel", {}),
    "nic-exchange": ("nic", {"nic_algorithm": "exchange"}),
    "nic-tree": ("nic", {"nic_algorithm": "tree"}),
}

#: The calibrated analytic estimate of each barrier-scale variant's sync.
_ESTIMATES = {
    "host-exchange": armci_barrier.estimate_exchange_us,
    "dissemination": armci_barrier.estimate_dissemination_us,
    "kary": armci_barrier.estimate_kary_us,
    "twolevel": armci_barrier.estimate_twolevel_us,
}


# -- host-speed calibration ---------------------------------------------------

#: Operations per anchor pass.  Pinned: changing it (or the loop body of
#: :func:`anchor_seconds`) changes what a calibrated second means.
ANCHOR_OPS = 20_000
#: Seconds one anchor pass takes on the reference machine: a 2-core
#: x86-64 box with Python 3.11, where the median of 1000 passes read
#: 0.028-0.033 s on repeats.
ANCHOR_REF_S = 0.030


def anchor_seconds(n: int = ANCHOR_OPS) -> float:
    """Host seconds of one pass of a fixed pure-Python loop.

    The loop mixes what the simulator's hot path does (generator resume,
    dict store, heap push and pop on a 1024-entry heap), so a shared host
    that slows one slows the other.  The simulator's code is not
    involved, so no change to the program moves it.
    """

    def spin():
        acc = 0
        while True:
            acc = (yield acc) + 1

    start = time.perf_counter()
    gen = spin()
    next(gen)
    heap: list = []
    table: dict = {}
    acc = 0
    for i in range(n):
        acc = gen.send(acc) & 0xFFFFFF
        heappush(heap, ((i * 2654435761) & 0xFFFF, acc))
        table[i & 1023] = acc
        if len(heap) > 1024:
            acc ^= heappop(heap)[1]
    gen.close()
    return time.perf_counter() - start


# -- cells --------------------------------------------------------------------


@dataclass
class Sim:
    """One simulated run: a runtime shape, the program and its check."""

    nprocs: int
    ppn: int
    params: NetworkParams
    program: Callable
    args: tuple
    #: ``check(runtime, results, probe) -> [problem, ...]``.
    check: Callable
    #: Timed operations the run performs across its ranks.
    ops: int
    #: Layer counter the run's timed operations add to, if any.
    counter: str = ""
    #: Optional probe installed around setup and run (see LockProbe).
    probe: Optional[Callable] = None


@dataclass
class Cell:
    name: str
    sims: List[Sim]
    #: ``summarize([results of each sim]) -> {"us": ..., ...}`` (simulated).
    summarize: Callable


@dataclass
class CellRun:
    """What one execution of a cell produced."""

    name: str
    ops: int
    #: Host seconds, calibrated to the reference speed when run_cell was
    #: asked to calibrate (see anchor_seconds), else as measured.
    setup_s: float = 0.0
    run_s: float = 0.0
    #: Host seconds of the runs as measured.
    raw_run_s: float = 0.0
    #: Simulated outputs; must be identical on every execution.
    sim: Dict[str, float] = field(default_factory=dict)
    #: Layer counters read from the runtimes after the run.
    counters: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


def _runtime_counters(runtime: ClusterRuntime) -> Dict[str, float]:
    servers = runtime.servers.values()
    fabric = runtime.fabric.stats
    armcis = runtime.armcis.values()
    return {
        "events": runtime.env.events_processed,
        "messages": fabric.messages,
        "bytes": fabric.bytes,
        "server_requests": sum(s.stats.requests for s in servers),
        "server_wakes": sum(s.stats.wakes for s in servers),
        "server_busy_us": sum(s.stats.busy_us for s in servers),
        "server_span_us": len(runtime.servers) * runtime.env.now,
        "mp_sends": sum(c.sent for c in runtime.comms.values()),
        "armci_puts": sum(
            a.stats["puts_local"] + a.stats["puts_remote"] for a in armcis
        ),
        "armci_barriers": sum(a.stats["barriers"] for a in armcis),
    }


def _collect(runtime: ClusterRuntime, procs) -> list:
    """Per-rank return values, as ``ClusterRuntime.run_spmd`` returns them."""
    results = []
    for rank in range(runtime.nprocs):
        proc = procs[rank]
        if not proc.ok:
            raise proc.value
        results.append(proc.value)
    return results


def run_cell(cell: Cell, calibrate: bool = False) -> CellRun:
    """Set up and run every simulation of ``cell``; time and check each.

    With ``calibrate``, an anchor pass runs just before and just after
    each simulation, and the simulation's host times are scaled by
    ``ANCHOR_REF_S`` over the mean of the two anchor times.  On a shared
    host whose speed drifts with its neighbours' load, this keeps the
    times of one program comparable between runs made minutes apart.
    """
    out = CellRun(cell.name, ops=sum(s.ops for s in cell.sims))
    per_sim = []
    counters: Dict[str, float] = {}
    try:
        for sim in cell.sims:
            gc.collect()
            anchor = anchor_seconds() if calibrate else 0.0
            probe = sim.probe() if sim.probe is not None else None
            with probe if probe is not None else contextlib.nullcontext():
                start = time.perf_counter()
                runtime = ClusterRuntime(
                    sim.nprocs, procs_per_node=sim.ppn, params=sim.params
                )
                procs = runtime.spawn(sim.program, *sim.args)
                ready = time.perf_counter()
                runtime.run()
                done = time.perf_counter()
            scale = 1.0
            if calibrate:
                scale = ANCHOR_REF_S / ((anchor + anchor_seconds()) / 2)
            out.setup_s += (ready - start) * scale
            out.run_s += (done - ready) * scale
            out.raw_run_s += done - ready
            results = _collect(runtime, procs)
            out.problems += sim.check(runtime, results, probe)
            per_sim.append(results)
            found = _runtime_counters(runtime)
            if probe is not None:
                found.update(probe.counters())
            if sim.counter:
                found[sim.counter] = sim.ops
            for key, value in found.items():
                counters[key] = counters.get(key, 0) + value
            del runtime, procs
        out.sim = cell.summarize(per_sim)
        for key in ("events", "messages", "bytes", "server_requests"):
            out.sim[key] = counters[key]
    except Exception as exc:  # a cell that raises or deadlocks is a failure
        out.problems.append(f"{type(exc).__name__}: {exc}")
    out.counters = counters
    return out


def _pooled_mean(results: Sequence[Optional[list]]) -> float:
    pooled = [s for samples in results if samples for s in samples]
    return sum(pooled) / len(pooled)


def _sync_summary(per_sim) -> Dict[str, float]:
    return {"us": _pooled_mean(per_sim[0])}


def _samples_problems(results, iterations: int) -> List[str]:
    bad = [r for r, s in enumerate(results) if len(s) != iterations]
    if bad:
        return [f"ranks {bad[:4]} did not record {iterations} GA_Sync samples"]
    return []


# -- fig7 ----------------------------------------------------------------------


def _check_fig7(cfg: Fig7Config):
    def check(runtime, results, _probe) -> List[str]:
        problems = _samples_problems(results, cfg.iterations)
        nprocs = runtime.nprocs
        dist = BlockDistribution(cfg.shape, default_pgrid(nprocs))
        for owner in range(nprocs):
            blk = dist.block(owner)
            region = runtime.regions[owner]
            base = region.alloc_named("ga:fig7", max(blk.cells, 1))
            cells = region.read_many(base, blk.cells)
            strip = min(cfg.strip_rows, blk.nrows) * blk.ncols
            writer = cells[0]
            if not (
                writer == int(writer)
                and 0 <= writer < nprocs
                and writer != owner
                and all(c == writer for c in cells[:strip])
            ):
                problems.append(
                    f"block {owner}: strip does not hold one remote writer's rank"
                )
            if any(c != 0.0 for c in cells[strip:]):
                problems.append(f"block {owner}: cells outside the strip written")
        return problems

    return check


def fig7_cells(
    params: NetworkParams,
    nprocs: Sequence[int] = (2, 4, 8, 16),
    iterations: int = 100,
) -> List[Cell]:
    """Figure 7: GA_Sync current vs new, the config of results/fig7_ga_sync.csv."""
    cfg = Fig7Config(nprocs_list=tuple(nprocs), iterations=iterations, params=params)
    return [
        Cell(
            f"{mode}@{n}",
            [Sim(n, 1, params, sync_workload, (mode, cfg), _check_fig7(cfg),
                 ops=n * iterations, counter="ga_syncs")],
            _sync_summary,
        )
        for mode in ("current", "new")
        for n in nprocs
    ]


# -- barrier-scale ---------------------------------------------------------------


def _check_ring(cfg: ScaleBenchConfig):
    """Every rank's put landed in its ring neighbor's cells."""

    def check(runtime, results, _probe) -> List[str]:
        problems = _samples_problems(results, cfg.iterations)
        nprocs = runtime.nprocs
        wrong = []
        for writer in range(nprocs):
            region = runtime.regions[(writer + 1) % nprocs]
            base = region.alloc_named("scalebench", max(cfg.put_cells, 1))
            if region.read_many(base, cfg.put_cells) != [float(writer)] * cfg.put_cells:
                wrong.append(writer)
        if wrong:
            problems.append(f"ring puts of ranks {wrong[:4]} not in place")
        return problems

    return check


def hier_params(params: NetworkParams) -> NetworkParams:
    """``--topo switch:16:26::2.0 --radix 8``: 16-way switches, 2x contention."""
    return params.with_(hierarchy=parse_topo_spec("switch:16:26::2.0"), tree_radix=8)


def barrier_scale_cells(
    params: NetworkParams,
    nprocs: int = 1024,
    coalesced_nprocs: int = 16384,
    ppn: int = 16,
    iterations: int = 1,
) -> List[Cell]:
    """Combined fence+barrier at N=1024 per rank, plus coalesced N=16384."""
    base = hier_params(params)
    cfg = ScaleBenchConfig(
        nprocs_list=(nprocs,), iterations=iterations, procs_per_node=ppn,
        params=base,
    )
    cells = []
    for variant, (mode, overrides) in SCALE_VARIANTS.items():
        vparams = base.with_(**overrides) if overrides else base
        cells.append(Cell(
            f"{variant}@{nprocs}",
            [Sim(nprocs, ppn, vparams, scale_workload, (mode, cfg),
                 _check_ring(cfg), ops=nprocs * iterations, counter="ga_syncs")],
            _sync_summary,
        ))
    nnodes = coalesced_nprocs // ppn
    ccfg = ScaleBenchConfig(
        nprocs_list=(coalesced_nprocs,), iterations=iterations,
        procs_per_node=ppn, params=base, coalesce=True,
    )
    cells.append(Cell(
        f"coalesced-twolevel@{coalesced_nprocs}",
        [Sim(nnodes, 1, base, coalesced_scale_workload,
             (COALESCE_VARIANTS["twolevel"], ccfg, ppn),
             _check_ring(ccfg), ops=nnodes * iterations,
             counter="topo_sync_calls")],
        _sync_summary,
    ))
    return cells


# -- locks -----------------------------------------------------------------------


class LockProbe:
    """Observe the lock handles ``lock_workload`` builds during one run.

    While active it wraps ``lockbench.make_lock`` to keep each handle and
    to hook the two instants a hold begins and ends (the handle's
    acquire stopwatch stopping, its release stopwatch starting), counting
    any moment at which two handles hold the lock at once.
    """

    def __init__(self) -> None:
        self.handles: list = []
        self.holders = 0
        self.overlaps = 0

    def __enter__(self) -> "LockProbe":
        self._real = lockbench.make_lock

        def make_lock(*args, **kwargs):
            lock = self._real(*args, **kwargs)
            self.handles.append(lock)
            stop, start = lock.acquire_sw.stop, lock.release_sw.start

            def acquired():
                self.holders += 1
                if self.holders > 1:
                    self.overlaps += 1
                return stop()

            def releasing():
                self.holders -= 1
                return start()

            lock.acquire_sw.stop = acquired
            lock.release_sw.start = releasing
            return lock

        lockbench.make_lock = make_lock
        return self

    def __exit__(self, *exc) -> None:
        lockbench.make_lock = self._real

    def counters(self) -> Dict[str, int]:
        return {
            "lock_acquires": sum(h.stats.acquires for h in self.handles),
            "lock_handoffs": sum(h.stats.handoffs for h in self.handles),
        }


def _check_locks(cfg: LockBenchConfig, active: Optional[set]):
    def check(runtime, results, probe: LockProbe) -> List[str]:
        problems = []
        expected = cfg.warmup + cfg.iterations
        for lock in probe.handles:
            rank = lock.ctx.rank
            want = expected if active is None or rank in active else 0
            if not (lock.stats.acquires == lock.stats.releases == want):
                problems.append(
                    f"rank {rank}: {lock.stats.acquires} acquires, "
                    f"{lock.stats.releases} releases, expected {want}"
                )
            sample = results[rank]
            if want and (sample is None or len(sample[0]) != cfg.iterations
                         or len(sample[1]) != cfg.iterations):
                problems.append(f"rank {rank}: missing lock samples")
        if len(probe.handles) != runtime.nprocs:
            problems.append(f"{len(probe.handles)} lock handles built")
        if probe.overlaps:
            problems.append(f"{probe.overlaps} moments with two lock holders")
        return problems

    return check


def _lock_summary(per_sim) -> Dict[str, float]:
    """Pooled acquire and release means, averaged over the cell's runs."""
    acquire = sum(
        _pooled_mean([r[0] for r in results if r]) for results in per_sim
    ) / len(per_sim)
    release = sum(
        _pooled_mean([r[1] for r in results if r]) for results in per_sim
    ) / len(per_sim)
    return {"us": acquire + release, "acquire_us": acquire, "release_us": release}


def lock_cells(
    params: NetworkParams,
    nprocs: Sequence[int] = (1, 2, 4, 8, 16),
    iterations: int = 400,
) -> List[Cell]:
    """§4.2 lock series, the config of results/figs8_9_10_locks.csv.

    N=1 follows the paper: the mean of a local-lock and a remote-lock case.
    """
    cfg = LockBenchConfig(
        nprocs_list=tuple(nprocs), iterations=iterations, params=params
    )
    ops_per_rank = cfg.warmup + cfg.iterations
    cells = []
    for kind in ("hybrid", "mcs"):
        for n in nprocs:
            if n == 1:
                sims = [
                    Sim(2, 1, params, lock_workload, (kind, home, cfg, {0}, None),
                        _check_locks(cfg, {0}), ops=ops_per_rank, probe=LockProbe)
                    for home in (0, 1)
                ]
            else:
                sims = [Sim(n, 1, params, lock_workload, (kind, 0, cfg, None, None),
                            _check_locks(cfg, None), ops=n * ops_per_rank,
                            probe=LockProbe)]
            cells.append(Cell(f"{kind}@{n}", sims, _lock_summary))
    return cells


# -- workload-level results ------------------------------------------------------


def geometric_mean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _read_csv(name: str) -> List[dict]:
    with open(RESULTS / name, newline="") as fh:
        return list(csv.DictReader(fh))


def _same(value: float, printed: str) -> bool:
    """``value`` rounds to ``printed`` at the CSV's printed precision."""
    decimals = len(printed.split(".")[1]) if "." in printed else 0
    return f"{value:.{decimals}f}" == printed


@dataclass
class Workload:
    name: str
    cells: List[Cell]
    #: ``factor(sim) -> float``: the figure's factor of improvement.
    factor: Callable
    #: ``model_err(sim) -> percent`` against the workload's reference.
    model_err: Callable
    #: ``reference(sim) -> [(cell, problem), ...]``; None when not comparable.
    reference: Optional[Callable] = None


def _fig7_reference(sim) -> List[Tuple[str, str]]:
    problems = []
    for row in _read_csv("fig7_ga_sync.csv"):
        variant, n, printed = row["variant"], row["nprocs"], row["microseconds"]
        if variant == "factor":
            cell = f"new@{n}"
            value = sim[f"current@{n}"]["us"] / sim[cell]["us"]
        else:
            cell = f"{variant}@{n}"
            value = sim[cell]["us"]
        if not _same(value, printed):
            problems.append(
                (cell, f"{variant}@{n}: {value} != fig7_ga_sync.csv {printed}")
            )
    return problems


def _lock_reference(sim) -> List[Tuple[str, str]]:
    problems = []
    for row in _read_csv("figs8_9_10_locks.csv"):
        cell = f"{row['kind']}@{row['nprocs']}"
        values = {
            "acquire_us": sim[cell]["acquire_us"],
            "release_us": sim[cell]["release_us"],
            "roundtrip_us": sim[cell]["us"],
        }
        for column, value in values.items():
            if not _same(value, row[column]):
                problems.append((cell, (
                    f"{cell} {column}: {value} != figs8_9_10_locks.csv {row[column]}"
                )))
    return problems


def _fig7_err(sim) -> float:
    errs = [
        abs(sim[f"{mode}@16"]["us"] - paper) / paper
        for mode, paper in PAPER_FIG7_US.items()
    ]
    return 100.0 * sum(errs) / len(errs)


def _lock_factor(sim) -> float:
    return sim["hybrid@8"]["us"] / sim["mcs@8"]["us"]


def _scale_err(params: NetworkParams, nprocs: int, ppn: int):
    """Mean error of the host variants against their analytic estimates."""
    base = hier_params(params)

    def err(sim) -> float:
        errs = []
        for variant, estimate in _ESTIMATES.items():
            predicted = estimate(base, nprocs, ppn)
            errs.append(abs(sim[f"{variant}@{nprocs}"]["us"] - predicted) / predicted)
        return 100.0 * sum(errs) / len(errs)

    return err


#: Reduced sizes for the self-test; the reference check is skipped there.
SMALL = {
    "fig7": {"nprocs": (2, 4, 8, 16), "iterations": 3},
    "barrier-scale": {"nprocs": 64, "coalesced_nprocs": 256, "iterations": 1},
    "locks": {"nprocs": (1, 2, 8), "iterations": 8},
}


def build(name: str, params: NetworkParams, small: bool = False) -> Workload:
    """The named workload at full size (or at the self-test's SMALL size)."""
    sizes = SMALL[name] if small else {}
    if name == "fig7":
        return Workload(
            name,
            fig7_cells(params, **sizes),
            factor=lambda sim: sim["current@16"]["us"] / sim["new@16"]["us"],
            model_err=_fig7_err,
            reference=None if small else _fig7_reference,
        )
    if name == "barrier-scale":
        nprocs = sizes.get("nprocs", 1024)
        return Workload(
            name,
            barrier_scale_cells(params, **sizes),
            factor=lambda sim: (
                sim[f"host-exchange@{nprocs}"]["us"] / sim[f"twolevel@{nprocs}"]["us"]
            ),
            model_err=_scale_err(params, nprocs, 16),
        )
    if name == "locks":
        return Workload(
            name,
            lock_cells(params, **sizes),
            factor=_lock_factor,
            model_err=lambda sim: 100.0 * abs(_lock_factor(sim) - PAPER_LOCK_FACTOR)
            / PAPER_LOCK_FACTOR,
            reference=None if small else _lock_reference,
        )
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("fig7", "barrier-scale", "locks")


def network(seed: int) -> NetworkParams:
    """The paper's Myrinet-2000 preset, jitter-free, carrying ``seed``."""
    return myrinet2000(seed=seed)
