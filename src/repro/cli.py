"""Command-line entry point: regenerate any of the paper's figures.

Usage (installed as ``armci-repro``, or ``python -m repro``)::

    armci-repro fig7                # GA_Sync time + factor (Figure 7)
    armci-repro fig8                # lock request+release (Figure 8)
    armci-repro fig9                # lock acquire (Figure 9)
    armci-repro fig10               # lock release (Figure 10)
    armci-repro locks               # Figures 8-10 from one run
    armci-repro ablations           # all five ablation studies
    armci-repro faults              # sync cost + retry volume vs drop rate
    armci-repro chaos               # crash-stop kills + membership recovery
    armci-repro nic                 # host vs NIC-offloaded barrier ablation
    armci-repro scalebench          # barrier scaling to 1024 processes
    armci-repro all                 # everything above
    armci-repro fuzz                # randomized fault/crash scenario fuzzing
    armci-repro fig7 --iterations 100 --network gige
    armci-repro fig7 --jobs 4       # shard sweep cells over 4 workers
    armci-repro faults --drop-rate 0.05 --fault-seed 7 --retry-timeout 40
    armci-repro chaos --kill 5:60 --kill 6:900 --lock mcs --kill-seed 7
    armci-repro fuzz --seeds 200 --json-out fuzz.json
    armci-repro fuzz --replay 20    # deterministic re-run of one seed
    armci-repro fuzz --self-test    # validate the oracle on seeded mutants
    armci-repro mc                  # RMCheck: explore every named target
    armci-repro mc nic-barrier --budget 2000 --window 3
    armci-repro mc --scenario 7     # explore a fuzzer-generated scenario
    armci-repro mc --schedule ce.json   # replay a counterexample
    armci-repro mc --self-test      # find the seeded mutants by exploration

Each experiment takes exactly the options it reads; any other option, and
any malformed value, is a one-line ``armci-repro: error: ...`` with exit
status 2.  ``armci-repro EXPERIMENT --help`` lists them::

    fig7 nic all           sweep, --jobs, --csv, network, faults, topology
    scalebench             as fig7, plus --coalesce --time-budget --json-out
    fig8 fig9 fig10 locks  sweep, --csv, network, faults, topology
    app                    sweep, network, faults, topology
    ablations microbench   network, faults, topology
    fairness               --procs N --iterations, network, faults, topology
    faults                 --procs N --ppn, network, faults
    chaos                  --procs N --ppn --lock --kill --kill-seed
                           --partition --stall, network
    fuzz                   --seeds --start-seed --time-budget --replay
                           --no-shrink --self-test --self-test-budget
                           --corpus --json-out
    mc [TARGET]            --budget --window --cap --scenario --schedule
                           --ce-out --self-test --json-out
    check [TARGET]         --lint --strict
    validate               (none)

    sweep    = --procs N [N ...] --iterations --ppn
    network  = --network --retry-timeout
    faults   = --drop-rate --fault-seed
    topology = --topo --radix
    every experiment also takes --trace-out PATH
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .analysis.sanitize import TARGETS as CHECK_TARGETS
from .experiments import (
    ChaosBenchConfig,
    FaultBenchConfig,
    Fig7Config,
    LockBenchConfig,
    NicBenchConfig,
    ScaleBenchConfig,
    run_chaosbench,
    run_faultbench,
    run_fig7,
    run_lock_series,
    run_nicbench,
    run_scalebench,
)
from .experiments.ablations import (
    render_release_opt,
    run_crossover,
    run_fence_modes,
    run_release_opt,
    run_smp_handoff,
    run_wake_cost,
)
from .experiments.lockbench import comparison_from_series
from .locks import LOCK_KINDS
from .mc import TARGETS as MC_TARGETS
from .mc import load_counterexample
from .net.params import _preset
from .topo import parse_topo_spec

__all__ = ["main"]


class _CliError(Exception):
    """A user-input problem: reported as one line on stderr, exit 2."""


class _Parser(argparse.ArgumentParser):
    """Turns argparse's usage-plus-message exit into a :class:`_CliError`."""

    def error(self, message):
        raise _CliError(message)


# ``type=`` callables check each value as it is parsed.  A bad value raises
# _CliError, which argparse lets through unwrapped, so the message reads as
# written instead of behind argparse's "argument --flag: " prefix.  A value
# of the wrong kind raises ValueError, which argparse reports as "invalid
# int value" / "invalid float value".


def _checked(flag: str, kind, rule: str, ok):
    def convert(text: str):
        value = kind(text)
        if not ok(value):
            raise _CliError(f"{flag} must be {rule}, got {value!r}")
        return value

    convert.__name__ = kind.__name__
    return convert


def _at_least(flag: str, low: int):
    return _checked(flag, int, f">= {low}", lambda value: value >= low)


def _one_of(what: str, names):
    def convert(text: str) -> str:
        if text not in names:
            raise _CliError(
                f"unknown {what} {text!r}; choose from {', '.join(sorted(names))}"
            )
        return text

    return convert


def _via(lookup):
    """Resolve a value through LOOKUP; its error message is the CLI error."""

    def convert(text: str):
        try:
            return lookup(text)
        except (ValueError, OSError) as exc:
            raise _CliError(str(exc)) from None

    return convert


def _parse_kill(spec: str):
    """Parse one ``--kill RANK:AT_US`` spec or raise :class:`_CliError`."""
    try:
        rank_s, at_s = spec.split(":", 1)
        rank, at_us = int(rank_s), float(at_s)
    except ValueError:
        raise _CliError(f"bad --kill spec {spec!r}: expected RANK:AT_US")
    if rank < 0:
        raise _CliError(f"bad --kill spec {spec!r}: RANK must be >= 0")
    if not at_us > 0.0:
        raise _CliError(
            f"bad --kill spec {spec!r}: AT_US must be > 0 (a process "
            "cannot crash before the run starts)"
        )
    return rank, at_us


def _parse_window(spec: str, flag: str, what: str):
    """Split ``HEAD:FROM_US:UNTIL_US`` and validate the time window."""
    try:
        head, from_s, until_s = spec.rsplit(":", 2)
        from_us, until_us = float(from_s), float(until_s)
    except ValueError:
        raise _CliError(
            f"bad {flag} spec {spec!r}: expected {what}:FROM_US:UNTIL_US"
        )
    if not 0.0 <= from_us < until_us:
        raise _CliError(
            f"bad {flag} spec {spec!r}: need 0 <= FROM_US < UNTIL_US"
        )
    return head, from_us, until_us


def _parse_partition(spec: str):
    """Parse one ``--partition NODES:FROM_US:UNTIL_US`` spec.

    ``NODES`` is a comma-separated group of node ids cut off the fabric
    for the window; legality against the topology (node 0 stays in the
    majority, the group is a strict minority) is checked by chaosbench.
    """
    head, from_us, until_us = _parse_window(spec, "--partition", "NODES")
    try:
        nodes = tuple(sorted({int(n) for n in head.split(",") if n.strip()}))
    except ValueError:
        raise _CliError(
            f"bad --partition spec {spec!r}: NODES must be comma-separated ints"
        )
    if not nodes:
        raise _CliError(f"bad --partition spec {spec!r}: empty node group")
    if any(n < 0 for n in nodes):
        raise _CliError(f"bad --partition spec {spec!r}: node ids must be >= 0")
    return nodes, from_us, until_us


def _parse_stall(spec: str):
    """Parse one ``--stall RANK:FROM_US:UNTIL_US`` spec."""
    head, from_us, until_us = _parse_window(spec, "--stall", "RANK")
    try:
        rank = int(head)
    except ValueError:
        raise _CliError(f"bad --stall spec {spec!r}: RANK must be an int")
    if rank < 0:
        raise _CliError(f"bad --stall spec {spec!r}: RANK must be >= 0")
    return rank, from_us, until_us


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="armci-repro",
        description=(
            "Reproduce the figures of 'Optimizing Synchronization Operations "
            "for Remote Memory Communication Systems' (IPPS 2003) on a "
            "simulated Myrinet cluster."
        ),
    )
    experiments = parser.add_subparsers(
        dest="experiment", metavar="EXPERIMENT", required=True
    )

    def parent(title: str):
        group_parser = _Parser(add_help=False)
        return group_parser, group_parser.add_argument_group(title)

    network, group = parent("network options")
    group.add_argument(
        "--network", type=_via(_preset), default="myrinet2000",
        metavar="PRESET", help="network preset: myrinet2000 (default), gige, quadrics",
    )
    group.add_argument(
        "--retry-timeout", metavar="US",
        type=_checked("--retry-timeout", float, "> 0 us", lambda us: us > 0),
        help="reliable layer: first retransmission timeout in simulated us",
    )
    faults, group = parent("link-fault options")
    group.add_argument(
        "--drop-rate", metavar="P",
        type=_checked("--drop-rate", float, "a probability in [0, 1)",
                      lambda p: 0.0 <= p < 1.0),
        help="inject seeded link faults: drop each inter-node transmission "
        "with probability P (reliable delivery layer enabled); for the "
        "'faults' experiment this picks the sweep's non-zero point",
    )
    group.add_argument(
        "--fault-seed", type=int, metavar="SEED",
        help="seed for the fault-injection RNG stream (independent of jitter)",
    )
    topology, group = parent("topology options")
    group.add_argument(
        "--topo", type=_via(parse_topo_spec), metavar="SPEC",
        help="hierarchical network topology, innermost level first: "
        "comma-separated NAME:ARITY[:LATENCY_US[:PER_BYTE_US[:CONTENTION]]] "
        "(empty numeric field = inherit the preset's flat figure), e.g. "
        "'switch:8:26,spine:512:48::2.0'; enables the topology-aware "
        "barrier algorithms",
    )
    group.add_argument(
        "--radix", type=_at_least("--radix", 2), metavar="K",
        help="k-ary combining-tree radix for the 'kary' barrier (default 4)",
    )
    # Options shared by several experiments outside a group, each defined
    # once.  An unset option is None: the experiment's config default holds.
    shared = {
        "--procs": dict(
            type=_at_least("--procs", 1), metavar="N",
            help="process count (default: the experiment's)",
        ),
        "--iterations": dict(
            type=_at_least("--iterations", 1), metavar="N",
            help="timed iterations per configuration (default: the "
            "experiment's)",
        ),
        "--ppn": dict(
            type=_at_least("--ppn", 1), default=1, metavar="N",
            help="processes per SMP node (default 1, as in the paper's runs)",
        ),
        "--jobs": dict(
            type=_checked("--jobs", int, ">= 0", lambda n: n >= 0), default=1,
            metavar="N",
            help="shard independent sweep cells over N worker processes "
            "(0 = one per core); results are identical to a serial run",
        ),
        "--csv": dict(
            metavar="DIR", help="also write tidy CSV series for plotting into DIR"
        ),
        "--json-out": dict(
            metavar="PATH", help="also write the result as JSON to PATH"
        ),
        "--time-budget": dict(
            type=float, metavar="S",
            help="stop starting new seeds (fuzz) or cells (scalebench) after "
            "S wall-clock seconds",
        ),
        "--self-test": dict(
            action="store_true",
            help="plant the three seeded bug mutants and require the oracle "
            "to catch each (fuzz: within the seed budget; mc: by "
            "exploration at minimal N)",
        ),
    }
    sweep, group = parent("sweep options")
    group.add_argument(
        "--procs", **{**shared["--procs"], "nargs": "+",
                      "help": "process counts to sweep (default: the paper's)"}
    )
    group.add_argument("--iterations", **shared["--iterations"])
    group.add_argument("--ppn", **shared["--ppn"])

    def experiment(name, func, summary, *parents, options=()):
        sub = experiments.add_parser(
            name, help=summary, description=summary, parents=list(parents)
        )
        for flag in options:
            sub.add_argument(flag, **shared[flag])
        sub.add_argument(
            "--trace-out", metavar="PATH",
            help="dump the RMCSan protocol-event trace of every simulated "
            "run to PATH as JSON lines (enables event collection)",
        )
        sub.set_defaults(func=func)
        return sub

    net = (network, faults, topology)
    figs = ("--jobs", "--csv")
    experiment("fig7", _fig7, "GA_Sync time + factor (Figure 7)", sweep, *net,
               options=figs)
    for fig, summary in (
        ("fig8", "lock request+release (Figure 8)"),
        ("fig9", "lock acquire (Figure 9)"),
        ("fig10", "lock release (Figure 10)"),
        ("locks", "Figures 8-10 from one run"),
    ):
        experiment(fig, _locks, summary, sweep, *net, options=("--csv",))
    experiment("ablations", _ablations, "all ablation studies", *net)
    experiment("app", _app, "application-level scalability impact", sweep, *net)
    experiment("microbench", _microbench, "substrate calibration table", *net)
    experiment("fairness", _fairness, "per-rank lock fairness profile", *net,
               options=("--procs", "--iterations"))
    experiment("faults", _faults, "sync cost + retry volume vs drop rate",
               network, faults, options=("--procs", "--ppn"))
    sub = experiment("chaos", _chaos, "crash-stop kills + membership recovery",
                     network, options=("--procs", "--ppn"))
    group = sub.add_argument_group("chaos options")
    group.add_argument(
        "--kill", type=_parse_kill, action="append", metavar="RANK:AT_US",
        help="kill RANK at AT_US simulated microseconds (repeatable); kills "
        "before the barrier hold point hit the barrier exchange, later ones "
        "hit the lock holder",
    )
    group.add_argument(
        "--kill-seed", type=int, metavar="SEED",
        help="seed for the heartbeat/failure-detector RNG stream",
    )
    group.add_argument(
        "--partition", type=_parse_partition, action="append",
        metavar="NODES:FROM_US:UNTIL_US",
        help="cut the comma-separated node group off the fabric for the "
        "simulated-time window (repeatable); the minority freezes on quorum "
        "loss and rejoins with a state resync at the heal",
    )
    group.add_argument(
        "--stall", type=_parse_stall, action="append",
        metavar="RANK:FROM_US:UNTIL_US",
        help="pause RANK for the window, then resume it (no crash)",
    )
    group.add_argument(
        "--lock", type=_one_of("lock kind", LOCK_KINDS), metavar="KIND",
        help=f"lock algorithm to recover ({', '.join(LOCK_KINDS)}; "
        "default hybrid)",
    )
    experiment("nic", _nic, "host vs NIC-offloaded barrier ablation", sweep,
               *net, options=figs)
    sub = experiment("scalebench", _scalebench, "barrier scaling study", sweep,
                     *net, options=figs + ("--time-budget", "--json-out"))
    sub.add_argument(
        "--coalesce", action="store_true",
        help="one simulator actor per node instead of per rank (requires "
        "--ppn > 1); intra-node phases are charged analytically, inter-node "
        "phases simulated — what makes N=16384 tractable",
    )
    experiment("all", _all, "everything above (faults runs at the first "
               "--procs value, chaos at its stock kill schedule)", sweep, *net,
               options=figs)

    sub = experiment("fuzz", _fuzz, "randomized fault/crash scenario fuzzing",
                     options=("--time-budget", "--self-test", "--json-out"))
    group = sub.add_argument_group("fuzz options")
    group.add_argument(
        "--seeds", type=_at_least("--seeds", 1), metavar="N",
        help="number of consecutive seeds to run (default 50, or unlimited "
        "when --time-budget is given)",
    )
    group.add_argument(
        "--start-seed", type=int, default=0, metavar="SEED",
        help="first seed of the campaign (default 0)",
    )
    group.add_argument(
        "--replay", type=int, metavar="SEED",
        help="re-expand and run one seed (byte-identical, nonzero exit iff "
        "it reports violations)",
    )
    group.add_argument(
        "--no-shrink", action="store_true",
        help="report the first failure without shrinking it",
    )
    group.add_argument(
        "--self-test-budget", type=_at_least("--self-test-budget", 1),
        default=12, metavar="N",
        help="seeds tried per mutant in --self-test (default 12)",
    )
    group.add_argument(
        "--corpus", metavar="DIR",
        help="replay every corpus schedule in DIR instead of generating "
        "seeds (nonzero exit iff any entry fails)",
    )

    sub = experiment("mc", _mc, "RMCheck schedule exploration",
                     options=("--self-test", "--json-out"))
    sub.add_argument(
        "target", nargs="?", type=_one_of("mc target", MC_TARGETS),
        help="which model-checking target to explore (default all: "
        f"{', '.join(sorted(MC_TARGETS))})",
    )
    group = sub.add_argument_group("mc options")
    group.add_argument(
        "--budget", type=_at_least("--budget", 1), metavar="N",
        help="max complete schedules per exploration (default: the target's "
        "tuned budget)",
    )
    group.add_argument(
        "--window", type=float, metavar="US",
        help="commutation window in simulated us — deliveries within it of "
        "the queue head count as co-enabled (default: the target's)",
    )
    group.add_argument(
        "--cap", type=float, metavar="US",
        help="simulated-time cap per explored run (default: the target's)",
    )
    group.add_argument(
        "--scenario", type=int, metavar="SEED",
        help="explore the fuzzer-generated scenario for SEED instead of a "
        "named target",
    )
    group.add_argument(
        "--schedule", type=_via(load_counterexample), metavar="PATH",
        help="replay a serialized counterexample (nonzero exit iff it still "
        "fails)",
    )
    group.add_argument(
        "--ce-out", metavar="DIR",
        help="write any counterexample found to DIR as JSON",
    )

    experiment("validate", _validate, "quick reproduction self-check")
    sub = experiment("check", _check, "RMCSan sanitized runs")
    sub.add_argument(
        "target", nargs="?", default="all",
        type=_one_of("check target", CHECK_TARGETS + ("all",)),
        help=f"which workload to sanitize ({', '.join(CHECK_TARGETS)}; "
        "default all)",
    )
    sub.add_argument(
        "--lint", action="store_true",
        help="run the static lint pass instead of the dynamic happens-before "
        "checker",
    )
    sub.add_argument(
        "--strict", action="store_true",
        help="with --lint: exit nonzero when there are findings (CI mode; "
        "the default is report-only)",
    )
    return parser


def _given(factory, **fields):
    """``factory(**fields)`` minus the unset (None) fields, which keep the
    factory's own defaults — the one home of every experiment default."""
    return factory(**{k: v for k, v in fields.items() if v is not None})


def _network_params(args, transient: bool = False):
    """The ``--network`` preset with the fault, retry and topology options.

    Injected faults (``--drop-rate``; TRANSIENT for chaos's kills, cuts and
    stalls) make the reliable layer estimate its retransmission timeout
    adaptively (Jacobson/Karn) unless ``--retry-timeout`` pins it fixed.
    """
    from .net.faults import FaultPlan

    options = vars(args)
    drop = options.get("drop_rate")
    overrides = {}
    if options.get("topo") is not None:
        overrides["hierarchy"] = args.topo
    if options.get("radix") is not None:
        overrides["tree_radix"] = args.radix
    if args.retry_timeout is not None:
        overrides["retry_timeout_us"] = args.retry_timeout
    elif drop or transient:
        overrides["adaptive_retry"] = True
    if drop:
        overrides["faults"] = FaultPlan.uniform(
            drop_rate=drop, dup_rate=drop / 2.0, seed=args.fault_seed
        )
    return args.network.with_(**overrides) if overrides else args.network


def _sweep_cfg(cls, args, **fields):
    """A sweep experiment's config from ``--procs/--iterations/--ppn``."""
    return _given(
        cls,
        nprocs_list=args.procs and tuple(args.procs),
        iterations=args.iterations,
        procs_per_node=args.ppn,
        params=_network_params(args),
        **fields,
    )


def _write_csv(rows, args, name: str) -> None:
    from .experiments.report import write_csv

    if args.csv:
        print(f"csv written: {write_csv(rows, args.csv, name)}")


def _write_json(text: str, args) -> None:
    if args.json_out:
        Path(args.json_out).write_text(text + "\n")
        print(f"json written: {args.json_out}")


def _fig7(args) -> None:
    from .experiments.report import comparison_to_csv

    comparison = run_fig7(_sweep_cfg(Fig7Config, args), jobs=args.jobs)
    print(comparison.render())
    _write_csv(comparison_to_csv(comparison), args, "fig7_ga_sync")


def _locks(args) -> None:
    """fig8/fig9/fig10 print their figure; locks and all print all three."""
    from .experiments.report import lock_series_to_csv

    series = run_lock_series(_sweep_cfg(LockBenchConfig, args))
    figs = {
        "fig8": ("roundtrip", "Figure 8: time to request and release a lock"),
        "fig9": ("acquire", "Figure 9: time to request and acquire a lock"),
        "fig10": ("release", "Figure 10: time to release a lock"),
    }
    selected = [args.experiment] if args.experiment in figs else list(figs)
    for key in selected:
        metric, title = figs[key]
        print(comparison_from_series(series, metric, title).render())
        print()
    _write_csv(lock_series_to_csv(series), args, "figs8_9_10_locks")


def _ablations(args) -> None:
    from .experiments.ablations import render_lock_algorithms, run_lock_algorithms

    params = _network_params(args)
    print(run_crossover(params=params).render())
    print()
    print(run_fence_modes(params=params).render())
    print()
    print(run_smp_handoff(params=params).render())
    print()
    print(run_wake_cost().render())
    print()
    print(render_release_opt(run_release_opt()))
    print()
    print(render_lock_algorithms(run_lock_algorithms()))


def _microbench(args) -> None:
    from .experiments.microbench import run_microbench

    print(run_microbench(params=_network_params(args)).render())


def _fairness(args) -> None:
    from .experiments.ablations import render_lock_fairness, run_lock_fairness

    data = _given(
        run_lock_fairness,
        nprocs=args.procs,
        iterations=args.iterations,
        params=_network_params(args),
    )
    print(render_lock_fairness(data))


def _app(args) -> None:
    from .experiments.app_scaling import AppScalingConfig, run_app_scaling

    print(run_app_scaling(_sweep_cfg(AppScalingConfig, args)).render())


def _faults(args) -> None:
    # faultbench sweeps its own fault plans: --drop-rate picks the one
    # non-zero point and the bare preset is the fault-free baseline.
    cfg = _given(
        FaultBenchConfig,
        nprocs=args.procs,
        procs_per_node=args.ppn,
        drop_rates=(0.0, args.drop_rate) if args.drop_rate else None,
        fault_seed=args.fault_seed,
        retry_timeout_us=args.retry_timeout,
        params=args.network,
    )
    print(run_faultbench(cfg).render())


def _chaos(args) -> int:
    overrides = {}
    if args.kill:
        hold_us = ChaosBenchConfig.barrier_hold_us
        overrides["barrier_kills"] = tuple(k for k in args.kill if k[1] < hold_us)
        overrides["lock_kills"] = tuple(k for k in args.kill if k[1] >= hold_us)
    elif args.partition or args.stall:
        # A transient-only run: measure freeze/heal/rejoin without the
        # stock crash schedule (which assumes the default process count).
        overrides["barrier_kills"] = overrides["lock_kills"] = ()
    injected = bool(args.kill or args.partition or args.stall)
    try:
        result = run_chaosbench(
            _given(
                ChaosBenchConfig,
                nprocs=args.procs,
                procs_per_node=args.ppn,
                lock_kind=args.lock,
                kill_seed=args.kill_seed,
                partitions=args.partition and tuple(args.partition),
                stalls=args.stall and tuple(args.stall),
                params=_network_params(args, transient=injected),
                **overrides,
            )
        )
    except ValueError as exc:
        # Topology-level legality (node 0 stays, strict majority, rank 0
        # never stalled) is checked by chaosbench against --procs/--ppn.
        raise _CliError(str(exc))
    print(result.render())
    return 0 if result.all_ok() else 1


def _nic(args) -> None:
    from .experiments.report import nicbench_to_csv

    result = run_nicbench(_sweep_cfg(NicBenchConfig, args), jobs=args.jobs)
    print(result.render())
    _write_csv(nicbench_to_csv(result), args, "ablation_nic")


def _scalebench(args) -> None:
    from .experiments.report import scalebench_to_csv

    if args.coalesce and args.ppn < 2:
        raise _CliError("--coalesce requires --ppn > 1")
    cfg = _sweep_cfg(
        ScaleBenchConfig,
        args,
        coalesce=args.coalesce,
        wall_budget_s=args.time_budget,
    )
    try:
        result = run_scalebench(cfg, jobs=args.jobs)
    except ValueError as exc:
        # Variant/coalesce legality (divisibility, coalescible variants)
        # is checked by scalebench against --procs/--ppn.
        raise _CliError(str(exc))
    print(result.render())
    _write_csv(scalebench_to_csv(result), args, "scalebench")
    _write_json(json.dumps(result.to_json(), indent=2), args)


def _all(args) -> int:
    _fig7(args)
    print()
    _locks(args)
    _ablations(args)
    print()
    _app(args)
    print()
    # faults runs at a single process count: the sweep's first.
    _faults(argparse.Namespace(**{**vars(args), "procs": args.procs and args.procs[0]}))
    print()
    # The stock kill schedule assumes the default process count, so the
    # sweep flags that resize the other experiments do not apply here.
    chaos = run_chaosbench(ChaosBenchConfig(params=args.network))
    print(chaos.render())
    print()
    _nic(args)
    return 0 if chaos.all_ok() else 1


def _fuzz(args) -> int:
    """``repro fuzz``: campaigns, replay, corpus replay, oracle self-test."""
    from .fuzz import replay_corpus, replay_seed, run_campaign
    from .fuzz.selftest import run_self_test

    if args.self_test:
        result = run_self_test(budget=args.self_test_budget)
        print(result.render())
        return 0 if result.all_caught() else 1

    if args.corpus is not None:
        corpus_dir = Path(args.corpus)
        if not corpus_dir.is_dir():
            raise _CliError(f"--corpus {args.corpus!r} is not a directory")
        results = replay_corpus(corpus_dir)
        if not results:
            raise _CliError(f"--corpus {args.corpus!r} holds no *.json entries")
        failed = False
        for name, outcome in results:
            print(f"[{'ok' if outcome.ok() else 'FAIL'}] {name}")
            if not outcome.ok():
                print(outcome.render())
                failed = True
        return 1 if failed else 0

    if args.replay is not None:
        outcome = replay_seed(args.replay)
        print(outcome.render())
        _write_json(outcome.to_json(), args)
        return 0 if outcome.ok() else 1

    num_seeds = args.seeds
    if num_seeds is None and args.time_budget is None:
        num_seeds = 50
    campaign = run_campaign(
        start_seed=args.start_seed,
        num_seeds=num_seeds,
        time_budget_s=args.time_budget,
        do_shrink=not args.no_shrink,
    )
    print(campaign.render())
    _write_json(campaign.to_json(), args)
    return 0 if campaign.ok() else 1


def _mc(args) -> int:
    """``repro mc``: RMCheck schedule exploration over named targets."""
    from .mc import explore, replay_counterexample
    from .mc.explore import MC_SIM_CAP_US

    if args.self_test:
        from .mc.selftest import run_mc_self_test

        result = run_mc_self_test()
        print(result.render())
        return 0 if result.all_caught() else 1

    if args.schedule is not None:
        outcome = replay_counterexample(args.schedule)
        print(outcome.render())
        return 0 if outcome.ok() else 1

    # (name, scenario, window, budget, cap, expect_exhaustive) per job.
    jobs = []
    if args.scenario is not None:
        from .fuzz.scenario import generate

        jobs.append((None, generate(args.scenario), 0.0, 2000, MC_SIM_CAP_US,
                     False))
    else:
        for name in [args.target] if args.target else sorted(MC_TARGETS):
            t = MC_TARGETS[name]
            jobs.append((t.name, t.scenario, t.window, t.budget, t.sim_cap_us,
                         t.expect_exhaustive))

    rc = 0
    results = []
    for name, scenario, window, budget, cap, expect_exhaustive in jobs:
        window = args.window if args.window is not None else window
        budget = args.budget if args.budget is not None else budget
        cap = args.cap if args.cap is not None else cap
        result = explore(
            scenario, window=window, budget=budget, sim_cap_us=cap, target=name
        )
        results.append(result)
        print(result.render())
        if not result.ok():
            rc = 1
            if args.ce_out:
                out_dir = Path(args.ce_out)
                out_dir.mkdir(parents=True, exist_ok=True)
                label = name or f"seed{scenario.seed}"
                path = out_dir / f"counterexample-{label}.json"
                path.write_text(
                    json.dumps(result.counterexample, indent=2) + "\n"
                )
                print(f"counterexample written: {path}")
        elif expect_exhaustive and not result.exhausted:
            rc = 1
            print(
                f"armci-repro: mc: {name} no longer exhausts within its "
                f"budget ({budget}) — schedule space regression",
                file=sys.stderr,
            )
    _write_json(
        json.dumps([json.loads(r.to_json()) for r in results], indent=2), args
    )
    return rc


def _validate(args) -> int:
    from .experiments.validate import run_validation

    checks, report = run_validation(quick=True)
    print(report)
    return 0 if all(c.passed for c in checks) else 1


def _check(args) -> int:
    """``repro check [target]``: RMCSan over representative workloads."""
    if args.lint:
        from .analysis import run_lint
        from .analysis.lint import render_findings

        findings = run_lint()
        print(render_findings(findings))
        return 1 if findings and args.strict else 0

    from .analysis import run_sanitized_target

    failed = False
    for label, report in run_sanitized_target(args.target):
        total = sum(report.counts.values())
        print(
            f"[{'ok' if report.ok() else 'FAIL'}] {label}: "
            f"{report.events_analyzed} events, {total} violation(s)"
        )
        if not report.ok():
            print(report.render())
            failed = True
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.trace_out:
            from .analysis import capture

            capture.enable(args.trace_out)
        try:
            return args.func(args) or 0
        finally:
            if args.trace_out:
                flushed = capture.flush()
                if flushed is not None:
                    path, runs, events = flushed
                    print(
                        f"trace written: {path} ({runs} run(s), {events} event(s))"
                    )
    except _CliError as exc:
        print(f"armci-repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
