"""CLI smoke tests."""

import argparse

import pytest

from repro.cli import main


def assert_one_line_error(capsys, phrase):
    """The CLI's user-input error shape: one stderr line, no traceback."""
    err = capsys.readouterr().err
    assert err.startswith("armci-repro: error: ")
    assert err.count("\n") == 1 and phrase in err
    assert "Traceback" not in err


class TestCli:
    def test_fig7_small(self, capsys):
        assert main(["fig7", "--iterations", "3", "--procs", "2", "4"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out and "factor" in out

    def test_fig8_small(self, capsys):
        assert main(["fig8", "--iterations", "25", "--procs", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out

    def test_fig9_and_fig10(self, capsys):
        assert main(["fig9", "--iterations", "25", "--procs", "2"]) == 0
        assert "Figure 9" in capsys.readouterr().out
        assert main(["fig10", "--iterations", "25", "--procs", "2"]) == 0
        assert "Figure 10" in capsys.readouterr().out

    def test_locks_bundle(self, capsys):
        assert main(["locks", "--iterations", "25", "--procs", "2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out and "Figure 9" in out and "Figure 10" in out

    def test_network_preset(self, capsys):
        assert main(["fig7", "--iterations", "2", "--procs", "2",
                     "--network", "quadrics"]) == 0
        assert "Figure 7" in capsys.readouterr().out

    def test_bad_network_preset(self, capsys):
        assert main(["fig7", "--iterations", "2", "--procs", "2",
                     "--network", "carrier-pigeon"]) == 2
        assert_one_line_error(capsys, "unknown network preset")

    def test_bad_experiment_rejected(self, capsys):
        assert main(["fig99"]) == 2
        assert_one_line_error(capsys, "invalid choice")

    def test_ppn_option(self, capsys):
        assert main(["fig8", "--iterations", "20", "--procs", "2",
                     "--ppn", "2"]) == 0
        assert "Figure 8" in capsys.readouterr().out

    def test_csv_export(self, capsys, tmp_path):
        assert main(["fig7", "--iterations", "2", "--procs", "2",
                     "--csv", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "csv written" in out
        assert (tmp_path / "fig7_ga_sync.csv").exists()

    def test_locks_csv_export(self, capsys, tmp_path):
        assert main(["locks", "--iterations", "20", "--procs", "2",
                     "--csv", str(tmp_path)]) == 0
        assert (tmp_path / "figs8_9_10_locks.csv").exists()
        capsys.readouterr()

    def test_app_experiment(self, capsys):
        assert main(["app", "--iterations", "2", "--procs", "2"]) == 0
        assert "Application impact" in capsys.readouterr().out

    def test_microbench_experiment(self, capsys):
        from repro.net.params import quadrics_like  # noqa: F401 - preset sanity
        assert main(["microbench", "--network", "quadrics"]) == 0
        out = capsys.readouterr().out
        assert "microbenchmarks" in out and "barrier" in out

    def test_fairness_experiment(self, capsys):
        assert main(["fairness", "--iterations", "30", "--procs", "2"]) == 0
        out = capsys.readouterr().out
        assert "fairness" in out and "max/min" in out

    def test_validate_experiment(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "ALL CHECKS PASSED" in out


class TestCheckCommand:
    def test_check_single_target(self, capsys):
        assert main(["check", "fig7"]) == 0
        out = capsys.readouterr().out
        assert "[ok] fig7[current]" in out and "[ok] fig7[new]" in out
        assert "FAIL" not in out

    def test_check_unknown_target(self, capsys):
        assert main(["check", "fig99"]) == 2
        assert_one_line_error(capsys, "unknown check target")

    def test_check_lint_mode(self, capsys):
        assert main(["check", "--lint"]) == 0
        assert "lint: no findings" in capsys.readouterr().out

    def test_trace_out_writes_jsonl(self, capsys, tmp_path):
        import json

        path = tmp_path / "trace.jsonl"
        assert main(["fig7", "--iterations", "2", "--procs", "2",
                     "--trace-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "trace written" in out
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert any("run" in line for line in lines)
        assert any(line.get("kind") == "barrier_enter" for line in lines)


class TestChaosCommand:
    def test_chaos_default_scenario(self, capsys):
        assert main(["chaos"]) == 0
        out = capsys.readouterr().out
        assert "Chaos: crash-stop failures" in out
        assert "ALL CHECKS PASSED" in out

    def test_chaos_custom_kills_and_lock(self, capsys):
        assert main(["chaos", "--procs", "6", "--lock", "mcs",
                     "--kill", "4:60", "--kill", "5:900",
                     "--kill-seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "mcs lock" in out and "kill seed 7" in out
        assert "dead: [4, 5]" in out

    def test_chaos_bad_kill_spec(self, capsys):
        assert main(["chaos", "--kill", "banana"]) == 2
        assert "bad --kill spec" in capsys.readouterr().err

    def test_check_chaos_target(self, capsys):
        assert main(["check", "chaos"]) == 0
        out = capsys.readouterr().out
        assert "[ok] chaos[hybrid]" in out and "[ok] chaos[mcs]" in out
        assert "FAIL" not in out

    def test_chaos_partition_mode(self, capsys):
        assert main(["chaos", "--procs", "6",
                     "--partition", "4,5:200:1400"]) == 0
        out = capsys.readouterr().out
        assert "ALL CHECKS PASSED" in out
        assert "check partition healed: ok" in out
        assert "freeze duration" in out
        assert "heal: cut [4, 5]" in out and "rejoined ranks [4, 5]" in out
        # Transient-only runs drop the stock kill schedule.
        assert "dead: []" in out

    def test_chaos_stall_mode(self, capsys):
        assert main(["chaos", "--procs", "6", "--stall", "3:300:900"]) == 0
        out = capsys.readouterr().out
        assert "ALL CHECKS PASSED" in out
        assert "rejoin: rank 3" in out

    def test_chaos_partition_composes_with_kills(self, capsys):
        assert main(["chaos", "--procs", "6", "--lock", "naimi",
                     "--kill", "3:900", "--partition", "5:200:1400"]) == 0
        out = capsys.readouterr().out
        assert "ALL CHECKS PASSED" in out
        assert "dead: [3]" in out
        assert "check partition healed: ok" in out

    def test_chaos_partition_byte_identical(self, capsys):
        argv = ["chaos", "--procs", "6", "--partition", "4:250:1200",
                "--stall", "2:300:700"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_chaos_same_kill_seed_byte_identical(self, capsys):
        argv = ["chaos", "--kill-seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "ALL CHECKS PASSED" in first


class TestNicCommand:
    def test_nic_small(self, capsys):
        assert main(["nic", "--iterations", "3", "--procs", "2", "4"]) == 0
        out = capsys.readouterr().out
        assert "NIC ablation" in out
        for column in ("host-exchange", "nic-exchange", "nic-tree"):
            assert column in out

    def test_check_nic_target(self, capsys):
        assert main(["check", "nic"]) == 0
        out = capsys.readouterr().out
        assert "[ok] nic[exchange]" in out and "[ok] nic[tree]" in out
        assert "FAIL" not in out


class TestCrashPathsConstructFree:
    """Guard: with no crash plan, the crash-stop machinery must not even
    be constructed, and experiment output must be byte-identical run to
    run (the crash subsystem contributes nothing when disabled)."""

    @pytest.fixture
    def membership_forbidden(self, monkeypatch):
        from repro.runtime import membership as m

        def boom(*_a, **_k):  # pragma: no cover - triggers only on a bug
            raise AssertionError(
                "MembershipService constructed without a crash plan"
            )

        monkeypatch.setattr(m.MembershipService, "__init__", boom)

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig7", "--iterations", "2", "--procs", "2"],
            ["fig8", "--iterations", "20", "--procs", "2"],
            ["fig9", "--iterations", "20", "--procs", "2"],
            ["fig10", "--iterations", "20", "--procs", "2"],
            ["locks", "--iterations", "20", "--procs", "2"],
            ["faults", "--procs", "4"],
            ["nic", "--iterations", "2", "--procs", "2", "4"],
        ],
        ids=["fig7", "fig8", "fig9", "fig10", "locks", "faults", "nic"],
    )
    def test_output_identical_and_membership_never_built(
        self, capsys, membership_forbidden, argv
    ):
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second


class TestCliRobustness:
    """Satellite: malformed fault/kill options exit 2 with one stderr line."""

    @pytest.mark.parametrize(
        "spec, phrase",
        [
            ("banana", "expected RANK:AT_US"),
            ("3", "expected RANK:AT_US"),
            ("3:abc", "expected RANK:AT_US"),
            ("-1:50", "RANK must be >= 0"),
            ("3:0", "AT_US must be > 0"),
            ("3:-5", "AT_US must be > 0"),
        ],
        ids=["word", "no-colon", "bad-time", "neg-rank", "zero-time",
             "neg-time"],
    )
    def test_bad_kill_specs(self, capsys, spec, phrase):
        # --kill=SPEC form so argparse does not mistake "-1:50" for a flag.
        assert main(["chaos", f"--kill={spec}"]) == 2
        captured = capsys.readouterr()
        assert phrase in captured.err
        # One line, no traceback.
        assert captured.err.strip().count("\n") == 0
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "spec, phrase",
        [
            ("banana", "expected NODES:FROM_US:UNTIL_US"),
            ("1:50", "expected NODES:FROM_US:UNTIL_US"),
            ("1:abc:50", "expected NODES:FROM_US:UNTIL_US"),
            ("1:50:50", "need 0 <= FROM_US < UNTIL_US"),
            ("1:-5:50", "need 0 <= FROM_US < UNTIL_US"),
            ("x,y:10:50", "NODES must be comma-separated ints"),
            (",:10:50", "empty node group"),
            ("0:10:50", "node 0"),
            ("1,2,3,4:10:50", "majority"),
        ],
        ids=["word", "two-fields", "bad-time", "empty-window", "neg-start",
             "bad-nodes", "empty-group", "cuts-node0", "no-majority"],
    )
    def test_bad_partition_specs(self, capsys, spec, phrase):
        assert main(["chaos", f"--partition={spec}"]) == 2
        captured = capsys.readouterr()
        assert phrase in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "spec, phrase",
        [
            ("banana", "expected RANK:FROM_US:UNTIL_US"),
            ("1.5:10:50", "RANK must be an int"),
            ("-1:10:50", "RANK must be >= 0"),
            ("0:10:50", "rank 0"),
        ],
        ids=["word", "float-rank", "neg-rank", "stalls-rank0"],
    )
    def test_bad_stall_specs(self, capsys, spec, phrase):
        assert main(["chaos", f"--stall={spec}"]) == 2
        captured = capsys.readouterr()
        assert phrase in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("experiment", ["faults", "fig7"])
    @pytest.mark.parametrize("rate", ["15", "1.0", "-0.1"])
    def test_drop_rate_out_of_range(self, capsys, experiment, rate):
        assert main([experiment, "--drop-rate", rate]) == 2
        captured = capsys.readouterr()
        assert "--drop-rate must be a probability" in captured.err
        assert "Traceback" not in captured.err

    def test_retry_timeout_nonpositive(self, capsys):
        assert main(["faults", "--retry-timeout", "0"]) == 2
        assert "--retry-timeout must be > 0" in capsys.readouterr().err

    def test_fault_seed_non_integer_is_argparse_error(self, capsys):
        assert main(["faults", "--fault-seed", "seven"]) == 2
        assert_one_line_error(capsys, "invalid int value")

    def test_drop_rate_non_float_is_argparse_error(self, capsys):
        assert main(["faults", "--drop-rate", "lossy"]) == 2
        assert_one_line_error(capsys, "invalid float value")


class TestFuzzCommand:
    def test_small_campaign_clean(self, capsys):
        assert main(["fuzz", "--seeds", "3"]) == 0
        out = capsys.readouterr().out
        assert "Fuzz campaign: 3 seed(s)" in out
        assert "no invariant violations found" in out

    def test_replay_deterministic(self, capsys):
        assert main(["fuzz", "--replay", "20"]) == 0
        first = capsys.readouterr().out
        assert main(["fuzz", "--replay", "20"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_self_test_catches_all_mutants(self, capsys):
        assert main(["fuzz", "--self-test", "--self-test-budget", "6"]) == 0
        out = capsys.readouterr().out
        assert "ORACLE VALIDATED" in out
        assert "MISSED" not in out

    def test_corpus_replay(self, capsys):
        import pathlib

        corpus = pathlib.Path(__file__).parent / "fuzz" / "corpus"
        assert main(["fuzz", "--corpus", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert "[ok]" in out and "FAIL" not in out

    def test_corpus_missing_dir(self, capsys):
        assert main(["fuzz", "--corpus", "/does/not/exist"]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_json_out(self, capsys, tmp_path):
        out_path = tmp_path / "campaign.json"
        assert main(["fuzz", "--seeds", "2", "--json-out", str(out_path)]) == 0
        import json

        data = json.loads(out_path.read_text())
        assert data["ok"] is True and data["seeds_run"] == 2


class TestLintStrict:
    def test_clean_repo_passes_strict(self, capsys):
        assert main(["check", "--lint", "--strict"]) == 0
        assert "lint: no findings" in capsys.readouterr().out

    def test_findings_are_report_only_without_strict(self, capsys, monkeypatch):
        import repro.analysis
        from repro.analysis.lint import LintFinding

        finding = LintFinding("x.py", 1, "op-done-mutation", "planted")
        monkeypatch.setattr(
            repro.analysis, "run_lint", lambda root=None: [finding]
        )
        assert main(["check", "--lint"]) == 0
        assert "planted" in capsys.readouterr().out
        assert main(["check", "--lint", "--strict"]) == 1


class TestMcCommand:
    def test_named_target(self, capsys):
        assert main(["mc", "ticket-handoff"]) == 0
        out = capsys.readouterr().out
        assert "RMCheck ticket-handoff" in out
        assert "OK: every explored schedule satisfies the oracle" in out

    def test_unknown_target_is_cli_error(self, capsys):
        assert main(["mc", "no-such-target"]) == 2
        assert "unknown mc target" in capsys.readouterr().err

    def test_json_out(self, capsys, tmp_path):
        import json

        path = tmp_path / "mc.json"
        assert main(
            ["mc", "ticket-handoff", "--json-out", str(path)]
        ) == 0
        [entry] = json.loads(path.read_text())
        assert entry["target"] == "ticket-handoff"
        assert entry["ok"] is True and entry["exhausted"] is True

    def test_schedule_replay_of_clean_counterexample(self, capsys, tmp_path):
        import json

        from repro.fuzz.scenario import scenario_to_json
        from repro.mc import get_target
        from repro.mc.explore import COUNTEREXAMPLE_FORMAT

        ce = {
            "format": COUNTEREXAMPLE_FORMAT,
            "scenario": json.loads(
                scenario_to_json(get_target("ticket-handoff").scenario)
            ),
            "window": 0.0,
            "sim_cap_us": 20_000.0,
            "schedule": [],
            "violation_kinds": [],
        }
        path = tmp_path / "ce.json"
        path.write_text(json.dumps(ce))
        assert main(["mc", "--schedule", str(path)]) == 0
        assert "[ok]" in capsys.readouterr().out

    def test_schedule_rejects_foreign_json(self, capsys, tmp_path):
        import json

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "nope"}))
        assert main(["mc", "--schedule", str(path)]) == 2
        assert_one_line_error(capsys, "not an RMCheck counterexample")

    def test_scenario_seed_exploration(self, capsys):
        assert main(
            ["mc", "--scenario", "0", "--budget", "5", "--cap", "20000"]
        ) == 0
        assert "RMCheck seed 0" in capsys.readouterr().out


class TestScalebenchCommand:
    def test_flat_run(self, capsys):
        assert main(["scalebench", "--procs", "8", "--iterations", "1"]) == 0
        out = capsys.readouterr().out
        assert "Barrier scaling" in out and "host-exchange" in out

    def test_topo_run_selects_topology_variants(self, capsys):
        assert main(["scalebench", "--procs", "8", "--iterations", "1",
                     "--ppn", "4", "--topo", "switch:2"]) == 0
        out = capsys.readouterr().out
        assert "hierarchical topology" in out
        assert "twolevel" in out and "dissemination" in out

    def test_csv_and_json_export(self, capsys, tmp_path):
        import json

        json_path = tmp_path / "sb.json"
        assert main(["scalebench", "--procs", "8", "--iterations", "1",
                     "--ppn", "4", "--topo", "switch:2",
                     "--csv", str(tmp_path), "--json-out", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "csv written" in out and "json written" in out
        csv_text = (tmp_path / "scalebench.csv").read_text()
        assert csv_text.startswith("variant,nprocs,sync_us,events,wall_s")
        data = json.loads(json_path.read_text())
        assert data["nprocs"] == [8]
        assert any(c["variant"] == "twolevel" for c in data["cells"])

    def test_coalesced_run(self, capsys):
        assert main(["scalebench", "--procs", "32", "--iterations", "1",
                     "--ppn", "4", "--topo", "switch:4", "--coalesce"]) == 0
        out = capsys.readouterr().out
        assert "coalesced" in out

    def test_bad_topo_spec_is_cli_error(self, capsys):
        assert main(["scalebench", "--topo", "banana"]) == 2
        err = capsys.readouterr().err
        assert "bad --topo spec" in err and err.count("\n") == 1

    def test_bad_topo_arity_is_cli_error(self, capsys):
        assert main(["scalebench", "--topo", "switch:1"]) == 2
        assert "arity must be >= 2" in capsys.readouterr().err

    def test_coalesce_requires_ppn(self, capsys):
        assert main(["scalebench", "--coalesce"]) == 2
        assert "--coalesce requires --ppn > 1" in capsys.readouterr().err

    def test_coalesce_requires_divisible_procs(self, capsys):
        assert main(["scalebench", "--procs", "10", "--ppn", "4",
                     "--topo", "switch:2", "--coalesce"]) == 2
        assert "divisible" in capsys.readouterr().err

    def test_bad_radix_is_cli_error(self, capsys):
        assert main(["scalebench", "--procs", "8", "--radix", "1"]) == 2
        assert "--radix must be >= 2" in capsys.readouterr().err

    def test_topo_applies_to_other_experiments(self, capsys):
        # --topo flows through _network_params, so fig7 accepts it too.
        assert main(["fig7", "--iterations", "2", "--procs", "4",
                     "--topo", "switch:2", "--ppn", "2"]) == 0
        assert "Figure 7" in capsys.readouterr().out

    def test_time_budget_skips_cells(self, capsys):
        assert main(["scalebench", "--procs", "8", "16", "--iterations", "1",
                     "--time-budget", "0"]) == 0
        assert "wall budget" in capsys.readouterr().out


# The CLI contract: the options each experiment's handler reads, and no
# others.  Every flag appears here, so adding or renaming one shows up.
_SWEEP = {"--procs", "--iterations", "--ppn"}
_NET = {"--network", "--retry-timeout", "--drop-rate", "--fault-seed",
        "--topo", "--radix"}
_FIG7 = _SWEEP | _NET | {"--jobs", "--csv"}
_LOCKS = _SWEEP | _NET | {"--csv"}
ACCEPTS = {
    "fig7": _FIG7,
    "fig8": _LOCKS,
    "fig9": _LOCKS,
    "fig10": _LOCKS,
    "locks": _LOCKS,
    "ablations": _NET,
    "app": _SWEEP | _NET,
    "microbench": _NET,
    "fairness": _NET | {"--procs", "--iterations"},
    "faults": {"--network", "--retry-timeout", "--drop-rate", "--fault-seed",
               "--procs", "--ppn"},
    "chaos": {"--network", "--retry-timeout", "--procs", "--ppn", "--lock",
              "--kill", "--kill-seed", "--partition", "--stall"},
    "nic": _FIG7,
    "scalebench": _FIG7 | {"--coalesce", "--time-budget", "--json-out"},
    "all": _FIG7,
    "fuzz": {"--seeds", "--start-seed", "--time-budget", "--replay",
             "--no-shrink", "--self-test", "--self-test-budget", "--corpus",
             "--json-out"},
    "mc": {"--budget", "--window", "--cap", "--scenario", "--schedule",
           "--ce-out", "--self-test", "--json-out"},
    "validate": set(),
    "check": {"--lint", "--strict"},
}
ALL_FLAGS = set().union(*ACCEPTS.values()) | {"--trace-out"}


def _subparsers():
    from repro.cli import _build_parser

    parser = _build_parser()
    [action] = [a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)]
    return action.choices


class TestCliBoundary:
    """Foreign flags and malformed values: rc 2, one stderr line, no
    simulation run."""

    def test_flag_inventory(self):
        assert len(ALL_FLAGS) == 35
        subparsers = _subparsers()
        assert set(subparsers) == set(ACCEPTS)
        for name, sub in subparsers.items():
            flags = {s for a in sub._actions for s in a.option_strings
                     if s.startswith("--") and s != "--help"}
            assert flags == ACCEPTS[name] | {"--trace-out"}, name
        positionals = {name for name, sub in subparsers.items()
                       if any(not a.option_strings for a in sub._actions)}
        assert positionals == {"check", "mc"}

    def test_every_foreign_flag_rejected(self):
        from repro.cli import _build_parser, _CliError

        parser = _build_parser()  # one parser for ~400 parses keeps this fast
        for name, accepted in ACCEPTS.items():
            for flag in sorted(ALL_FLAGS - accepted - {"--trace-out"}):
                # FLAG=VALUE keeps the value from landing on a positional.
                with pytest.raises(_CliError) as excinfo:
                    parser.parse_args([name, f"{flag}=1"])
                assert str(excinfo.value) == (
                    f"unrecognized arguments: {flag}=1"
                ), (name, flag)

    @pytest.mark.parametrize(
        "argv, phrase",
        [
            (["validate", "--budget", "5", "--seeds", "3", "--radix", "4"],
             "unrecognized arguments: --budget 5 --seeds 3 --radix 4"),
            (["chaos", "--drop-rate", "0.5"], "unrecognized arguments"),
            (["chaos", "--topo", "banana", "--iterations", "3"],
             "unrecognized arguments"),
            (["faults", "--topo", "switch:2"], "unrecognized arguments"),
            (["fairness", "--ppn", "2"], "unrecognized arguments"),
            (["microbench", "--procs", "4"], "unrecognized arguments"),
            (["locks", "--jobs", "2"], "unrecognized arguments"),
            (["fairness", "--procs", "2", "4"], "unrecognized arguments: 4"),
            (["faults", "--procs", "2", "4"], "unrecognized arguments: 4"),
            (["chaos", "--procs", "2", "4", "8"],
             "unrecognized arguments: 4 8"),
            (["fig7", "--network", "bogus"], "unknown network preset"),
            (["fig7", "--iterations", "0"], "--iterations must be >= 1"),
            (["fig7", "--iterations=-1"], "--iterations must be >= 1"),
            (["fig7", "--jobs", "-3"], "--jobs must be >= 0"),
            (["fig7", "--procs", "2", "0"], "--procs must be >= 1"),
            (["nic", "--ppn", "0"], "--ppn must be >= 1"),
            (["fairness", "--procs", "0"], "--procs must be >= 1"),
            (["fig7", "--procs", "two"], "invalid int value"),
            (["fig7", "--radix", "1"], "--radix must be >= 2"),
            (["app", "--topo", "switch:1"], "arity must be >= 2"),
            (["fig7", "--drop-rate", "1.5"], "--drop-rate must be a probability"),
            (["chaos", "--retry-timeout", "0"], "--retry-timeout must be > 0"),
            (["chaos", "--lock", "bogus"], "unknown lock kind"),
            (["chaos", "--kill", "banana"], "bad --kill spec"),
            (["check", "fig99"], "unknown check target"),
            (["check", "--radix", "4"], "unknown check target '4'"),
            (["mc", "no-such-target"], "unknown mc target"),
            (["mc", "--schedule", "/does/not/exist.json"], "No such file"),
            (["fuzz", "--seeds", "0"], "--seeds must be >= 1"),
            (["fig99"], "invalid choice"),
            ([], "required"),
        ],
    )
    def test_bad_value_is_one_line(self, capsys, argv, phrase):
        assert main(argv) == 2
        assert_one_line_error(capsys, phrase)

    def test_documented_invocations_parse(self, tmp_path):
        """Every ``python -m repro ...`` in the CI workflows and the verify
        notes parses as written (parse only: nothing is simulated)."""
        import re
        import shlex
        from pathlib import Path

        from repro.cli import _build_parser

        root = Path(__file__).resolve().parents[1]
        commands = []
        for path in sorted((root / ".github" / "workflows").glob("*.yml")):
            commands += _workflow_commands(path.read_text())
        notes = (root / ".claude" / "skills" / "verify" / "SKILL.md").read_text()
        notes = re.sub(r"```.*?```", "", notes, flags=re.S)
        commands += [" ".join(span.split())
                     for span in re.findall(r"`([^`]+)`", notes)]
        argvs = [shlex.split(cmd.split("python -m repro", 1)[1])
                 for cmd in commands if "python -m repro " in cmd]
        assert len(argvs) >= 30
        for argv in argvs:
            args = _build_parser().parse_args(argv)
            assert callable(args.func), argv


def _workflow_commands(text):
    """The shell commands of a workflow's ``run:`` steps, with the matrix
    and input expressions it uses expanded."""
    import re

    commands, lines = [], text.splitlines()
    for i, line in enumerate(lines):
        match = re.match(r"(\s*)(?:- )?run: (.*)", line)
        if not match:
            continue
        indent, value = len(match.group(1)), match.group(2)
        if value in (">", "|"):
            body = []
            for nxt in lines[i + 1:]:
                if nxt.strip() and len(nxt) - len(nxt.lstrip()) <= indent:
                    break
                body.append(nxt.strip())
            value = " ".join(body) if match.group(2) == ">" else "\n".join(body)
        commands += value.splitlines()
    commands = [re.sub(r"\$\{\{[^}]*\|\|\s*'([^']*)'\s*\}\}", r"\1", c)
                for c in commands]
    matrix = re.findall(r'- args: "([^"]*)"', text)
    return [c.replace("${{ matrix.args }}", args)
            for c in commands
            for args in (matrix if "${{ matrix.args }}" in c else [""])]
