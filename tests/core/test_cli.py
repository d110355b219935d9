"""Tests for the command-line interface."""

import json
import re

import pytest

from repro.api import EngineConfig
from repro.cli import build_parser, engine_config_from_args, main
from repro.dtd import samples
from repro.xmltree.generator import generate_document
from repro.xpath.evaluator import evaluate_xpath
from repro.xpath.parser import parse_xpath

SUBCOMMANDS = [
    "describe", "translate", "answer", "explain", "stats", "experiment",
    "diff", "generate", "fuzz", "mutate", "serve", "loadtest",
]


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["describe", "dept"])
        assert args.command == "describe"
        args = parser.parse_args(["translate", "cross", "a//d", "--dialect", "db2"])
        assert args.dialect == "db2"
        args = parser.parse_args(["answer", "cross", "a//d", "--elements", "500"])
        assert args.elements == 500
        args = parser.parse_args(["experiment", "exp5"])
        assert args.name == "exp5"

    def test_help_lists_exactly_the_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        usage = capsys.readouterr().out
        listed = usage[usage.index("{") + 1 : usage.index("}")].split(",")
        assert listed == SUBCOMMANDS

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["translate", "cross", "a//d", "--strategy", "magic"])


class TestCommands:
    def test_describe_named_dtd(self, capsys):
        assert main(["describe", "dept"]) == 0
        output = capsys.readouterr().out
        assert "dept" in output
        assert "recursive=True" in output
        assert "course ->" in output

    def test_describe_dtd_file(self, tmp_path, capsys):
        path = tmp_path / "tiny.dtd"
        path.write_text("root r\nr -> a*\na -> r*\n")
        assert main(["describe", str(path)]) == 0
        assert "recursive=True" in capsys.readouterr().out

    def test_describe_unknown_dtd_exits(self):
        with pytest.raises(SystemExit):
            main(["describe", "no-such-dtd"])

    def test_translate_prints_all_artifacts(self, capsys):
        assert main(["translate", "dept", "dept//project", "--dialect", "db2"]) == 0
        output = capsys.readouterr().out
        assert "extended XPath" in output
        assert "relational program" in output
        assert "SQL (db2)" in output
        assert "LFPs" in output

    def test_translate_show_sql_only(self, capsys):
        assert main(["translate", "cross", "a//d", "--show", "sql"]) == 0
        output = capsys.readouterr().out
        assert "SQL (generic)" in output
        assert "relational program" not in output

    def test_translate_with_push_and_baseline_strategy(self, capsys):
        assert main(
            ["translate", "cross", "a//d", "--strategy", "recursive-union"]
        ) == 0
        assert "SQL'99 recursions" in capsys.readouterr().out
        assert main(["translate", "cross", "a//d", "--push-selections"]) == 0

    def test_answer_prints_matches(self, capsys):
        assert main(
            ["answer", "cross", "a//d", "--elements", "400", "--seed", "3", "--limit", "5"]
        ) == 0
        output = capsys.readouterr().out
        assert "matches:" in output
        assert "a/b" in output  # printed node paths start at the root

    def test_answer_respects_limit(self, capsys):
        main(["answer", "cross", "a//d", "--elements", "600", "--seed", "5", "--limit", "1"])
        output = capsys.readouterr().out
        assert "more" in output or output.count("node ") <= 1

    def test_experiment_quick(self, capsys):
        assert main(["experiment", "exp3", "--quick"]) == 0
        assert "Fig. 14" in capsys.readouterr().out

    def test_explain_prints_plan_summary(self, capsys):
        assert main(["explain", "cross", "a//d", "--optimize-level", "2"]) == 0
        output = capsys.readouterr().out
        assert "query:     a//d" in output
        assert "optimizer: level 2" in output
        assert "LFPs" in output
        assert "RESULT <-" in output

    def test_stats_dumps_one_json_document(self, capsys):
        argv = ["stats", "cross", "a//d", "--elements", "100", "--repeat", "3"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workload"]["query"] == "a//d"
        assert payload["workload"]["repeat"] == 3
        # The first answer misses both caches; the repeats hit the result cache.
        assert payload["plan_cache"]["misses"] == 1
        assert payload["result_cache"]["misses"] == 1
        assert payload["result_cache"]["hits"] == 2
        assert "cache.plan.misses" in payload["metrics"]

    def test_mutate_reports_matches_before_and_after(self, capsys):
        argv = ["mutate", "cross", "a//d", "--elements", "100", "--seed", "0",
                "--x-l", "10", "--x-r", "4", "--mutations", "3", "--limit", "1000"]
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "mutation(s)" in output and "row(s) inserted" in output
        before, after = map(
            int, re.search(r"(\d+) match\(es\) before, (\d+) after", output).groups()
        )
        # The command's document is the seeded generator's; its "before"
        # count is the evaluator's over that same document.
        document = generate_document(
            samples.cross_dtd(), x_l=10, x_r=4, seed=0, max_elements=100
        )
        assert before == len(evaluate_xpath(document, parse_xpath("a//d")))
        assert len(re.findall(r"^  [+ ] node \d+: ", output, re.MULTILINE)) == after


class TestBackendFlags:
    def test_answer_backend_choices_registered(self):
        parser = build_parser()
        args = parser.parse_args(["answer", "cross", "a//d", "--backend", "sqlite"])
        assert args.backend == "sqlite"
        with pytest.raises(SystemExit):
            parser.parse_args(["answer", "cross", "a//d", "--backend", "nope"])

    def test_engine_flags_build_the_config_they_name(self):
        parser = build_parser()
        args = parser.parse_args(["answer", "cross", "a//d"])
        assert engine_config_from_args(args) == EngineConfig()
        args = parser.parse_args([
            "answer", "cross", "a//d", "--backend", "sqlite",
            "--strategy", "cyclee", "--optimize-level", "1",
        ])
        assert engine_config_from_args(args) == EngineConfig(
            backend="sqlite", strategy="cyclee", optimize_level=1
        )

    def test_executor_flag_is_rejected(self):
        # The memory backend has one executor, so no subcommand that takes
        # --backend takes an executor.
        parser = build_parser()
        for argv in (
            ["answer", "cross", "a//d"],
            ["explain", "cross", "a//d"],
            ["stats", "cross", "a//d"],
            ["experiment", "exp3"],
            ["mutate", "cross", "a//d"],
            ["serve", "cross"],
        ):
            assert parser.parse_args(argv + ["--backend", "memory"]).backend == "memory"
            with pytest.raises(SystemExit):
                parser.parse_args(argv + ["--executor", "columnar"])

    def test_answer_on_sqlite_matches_memory(self, capsys):
        argv = ["answer", "cross", "a//d", "--elements", "300", "--seed", "3", "--limit", "3"]
        assert main(argv + ["--backend", "memory"]) == 0
        memory_output = capsys.readouterr().out
        assert main(argv + ["--backend", "sqlite"]) == 0
        sqlite_output = capsys.readouterr().out
        # Same matches, same printed nodes; only the stats line differs.
        assert memory_output.splitlines()[1:] == sqlite_output.splitlines()[1:]
        assert "matches:" in memory_output
        assert "backend: sqlite" in sqlite_output

    def test_translate_sqlite_dialect(self, capsys):
        assert main(["translate", "cross", "a//d", "--dialect", "sqlite", "--show", "sql"]) == 0
        output = capsys.readouterr().out
        assert "SQL (sqlite)" in output
        assert "WITH RECURSIVE" in output

    def test_experiment_backend_flag(self, capsys):
        assert main(["experiment", "exp3", "--quick", "--backend", "sqlite"]) == 0
        assert "Fig. 14" in capsys.readouterr().out

    def test_diff_subcommand(self, narrow_diff_grid, capsys):
        assert main(["diff", "--quick"]) == 0
        output = capsys.readouterr().out
        assert "2/2 workload case(s) agree on 2 engine(s)" in output
        assert "MISMATCH" not in output


@pytest.fixture
def narrow_diff_grid(monkeypatch):
    """Shrink ``repro diff`` to one memory and one SQLite engine and to two
    workload cases, a recursive and a non-recursive one; CI replays every
    case on the full grid."""
    from repro.api.config import EngineConfig
    from repro.fuzz import oracle
    from repro.workloads import cases

    every_case = cases.workload_cases
    monkeypatch.setattr(
        oracle,
        "default_engines",
        lambda: [EngineConfig(backend=backend) for backend in ("memory", "sqlite")],
    )
    monkeypatch.setattr(
        cases,
        "workload_cases",
        lambda max_elements: [
            case
            for case in every_case(max_elements)
            if case.label in ("cross-Qa", "library-NR1")
        ],
    )


class TestDiffExitCodes:
    def test_diff_reports_failure_with_nonzero_exit(
        self, narrow_diff_grid, injected_sqlite_bug, capsys
    ):
        assert main(["diff", "--quick"]) == 1
        output = capsys.readouterr().out
        assert "MISMATCH" in output
        failing = {
            line.strip().split(":", 1)[0]
            for line in output.splitlines()
            if line.startswith("  ")
        }
        assert failing == {"sqlite/cycleex/baseline"}


class TestGenerateCommand:
    def test_stats_report_shape_knobs(self, capsys):
        assert main(
            ["generate", "cross", "--seed", "3", "--elements", "100", "--show", "stats"]
        ) == 0
        output = capsys.readouterr().out
        assert "conforms: True" in output
        assert "seed=3" in output
        assert "labels:" in output

    def test_seed_reproducibility(self, capsys):
        argv = ["generate", "gedml", "--seed", "9", "--elements", "200"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert first == capsys.readouterr().out

    def test_xml_written_to_file(self, tmp_path, capsys):
        out = tmp_path / "doc.xml"
        assert main(
            ["generate", "cross", "--elements", "60", "--show", "xml", "--out", str(out)]
        ) == 0
        assert out.read_text().startswith("<a")

    def test_experiment_seed_and_elements_flags(self, capsys):
        assert main(
            ["experiment", "exp3", "--quick", "--seed", "9", "--elements", "400"]
        ) == 0
        output = capsys.readouterr().out
        assert "Fig. 14" in output
        assert "400 elements" in output

    def test_experiment_exp5_notes_translation_only(self, capsys):
        assert main(["experiment", "exp5", "--seed", "1"]) == 0
        assert "translation-only" in capsys.readouterr().out


class TestFuzzCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["fuzz"])
        assert args.seed == 0 and args.budget == 100
        args = build_parser().parse_args(["fuzz", "--strategies", "cycleex", "--backends", "memory"])
        assert args.strategies == "cycleex"

    def test_clean_sweep_exits_zero(self, capsys):
        assert main(["fuzz", "--seed", "42", "--budget", "10"]) == 0
        output = capsys.readouterr().out
        assert "disagreements=0" in output
        assert "cases=10" in output

    def test_seed_reproducibility(self, capsys):
        argv = ["fuzz", "--seed", "5", "--budget", "6"]
        assert main(argv) == 0
        first = capsys.readouterr().out.splitlines()
        assert main(argv) == 0
        second = capsys.readouterr().out.splitlines()
        # Identical apart from the trailing timing line.
        assert first[:-1] == second[:-1]

    def test_unknown_strategy_and_backend_rejected(self):
        with pytest.raises(SystemExit):
            main(["fuzz", "--strategies", "magic"])
        with pytest.raises(SystemExit):
            main(["fuzz", "--backends", "nope"])

    def test_engine_axes_are_honoured(self, capsys):
        # baseline + opt at the default level, plus the level-0 sentinel.
        assert main(
            ["fuzz", "--seed", "1", "--budget", "4", "--strategies", "cycleex",
             "--backends", "memory"]
        ) == 0
        assert "engines=3" in capsys.readouterr().out

    def test_optimize_level_pin_drops_the_sentinel(self, capsys):
        assert main(
            ["fuzz", "--seed", "1", "--budget", "4", "--strategies", "cycleex",
             "--backends", "memory", "--optimize-level", "0"]
        ) == 0
        assert "engines=2" in capsys.readouterr().out

    def test_failures_saved_and_exit_nonzero(self, injected_sqlite_bug, tmp_path, capsys):
        corpus = tmp_path / "failures"
        assert main(
            ["fuzz", "--seed", "42", "--budget", "8", "--save-failures", str(corpus)]
        ) == 1
        output = capsys.readouterr().out
        assert "MISMATCH" in output
        saved = sorted(corpus.glob("*.json"))
        assert saved
        from repro.fuzz.cases import FuzzCase

        case = FuzzCase.load(saved[0])
        assert case.query  # replayable artifact

    @pytest.mark.parametrize("flags, prefix", [(["--mutations"], "mutfuzz-"), ([], "fuzz-")])
    def test_mutations_flag_attaches_a_script_to_every_case(
        self, monkeypatch, capsys, flags, prefix
    ):
        import repro.fuzz as fuzz

        cases = []
        run_fuzz = fuzz.run_fuzz

        def recording_run_fuzz(config, engines):
            return run_fuzz(config, engines, on_case=lambda outcome: cases.append(outcome.case))

        monkeypatch.setattr(fuzz, "run_fuzz", recording_run_fuzz)
        argv = ["fuzz", *flags, "--seed", "0", "--budget", "1", "--backends", "memory"]
        assert main(argv) == 0
        [case] = cases
        assert case.label.startswith(prefix)
        assert len(case.mutations) == (4 if flags else 0)  # --mutations-per-case default

    def test_replay_corpus_exits_by_verdict(self, tmp_path, capsys, injected_sqlite_bug):
        from repro.dtd import samples
        from repro.fuzz.cases import DocumentSpec, FuzzCase

        case = FuzzCase(
            label="replay-me",
            dtd_text=samples.cross_dtd().to_text(),
            query="a//d",
            document=DocumentSpec(seed=3, max_elements=150),
        )
        case.save(tmp_path / "case.json")
        assert main(["fuzz", "--replay", str(tmp_path)]) == 1  # bug still injected
        assert "MISMATCH" in capsys.readouterr().out

    def test_replay_clean_corpus_exits_zero(self, tmp_path, capsys):
        from repro.dtd import samples
        from repro.fuzz.cases import DocumentSpec, FuzzCase

        case = FuzzCase(
            label="replay-clean",
            dtd_text=samples.cross_dtd().to_text(),
            query="a//d",
            document=DocumentSpec(seed=3, max_elements=150),
        )
        case.save(tmp_path / "case.json")
        assert main(["fuzz", "--replay", str(tmp_path)]) == 0
        assert "1/1 corpus case(s) agree" in capsys.readouterr().out


class TestErrorHandling:
    """Library failures exit non-zero with a one-line message, no traceback."""

    def test_malformed_dtd_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.dtd"
        path.write_text("root r\nr -> ((broken\n")
        assert main(["describe", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err

    def test_malformed_dtd_in_translate_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.dtd"
        path.write_text("this is not a dtd ((((\n")
        assert main(["translate", str(path), "a//d"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_unparseable_xpath_exits_2(self, capsys):
        assert main(["translate", "cross", "a[[["]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_unparseable_xpath_in_answer_exits_2(self, capsys):
        assert main(["answer", "cross", "//", "--elements", "50"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_valid_inputs_still_exit_zero(self, capsys):
        assert main(["translate", "cross", "a//d", "--show", "sql"]) == 0


class TestOptimizerFlags:
    def test_translate_accepts_levels_and_auto(self, capsys):
        for level in ("0", "1", "2"):
            assert main(
                ["translate", "cross", "a//d", "--optimize-level", level,
                 "--show", "program"]
            ) == 0
        assert main(
            ["translate", "cross", "a//d", "--strategy", "auto", "--show", "program"]
        ) == 0
        assert "strategy: auto ->" in capsys.readouterr().out

    def test_translate_rejects_bad_level(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["translate", "cross", "a//d", "--optimize-level", "7"]
            )

    def test_level_0_and_2_answers_agree(self, capsys):
        argv = ["answer", "cross", "a//d", "--elements", "300", "--seed", "3",
                "--limit", "5"]
        assert main(argv + ["--optimize-level", "0"]) == 0
        level0 = capsys.readouterr().out
        assert main(argv + ["--optimize-level", "2"]) == 0
        level2 = capsys.readouterr().out
        # Same matches and node lines; only the timing stats differ.
        assert level0.splitlines()[1:] == level2.splitlines()[1:]

    def test_experiment_forwards_optimize_level(self, capsys):
        assert main(
            ["experiment", "exp3", "--quick", "--optimize-level", "1"]
        ) == 0
        assert "Fig. 14" in capsys.readouterr().out


class TestServiceFlags:
    def test_answer_repeat_prints_cache_stats(self, capsys):
        assert main(
            ["answer", "cross", "a//d", "--elements", "200", "--repeat", "5"]
        ) == 0
        output = capsys.readouterr().out
        assert "matches:" in output
        assert "warm" in output and "cache:" in output
        assert "hits" in output

    def test_answer_no_cache_disables_stats(self, capsys):
        argv = ["answer", "cross", "a//d", "--elements", "200", "--seed", "3",
                "--repeat", "3", "--no-cache"]
        assert main(argv) == 0
        assert "cache: disabled" in capsys.readouterr().out

    def test_answer_repeat_does_not_change_matches(self, capsys):
        argv = ["answer", "cross", "a//d", "--elements", "300", "--seed", "3",
                "--limit", "5"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--repeat", "4"]) == 0
        repeated = capsys.readouterr().out
        # Same match count and same node lines; only the (timing-bearing)
        # stats tail and the new repeat line differ.
        assert plain.splitlines()[0].split("(")[0] == repeated.splitlines()[0].split("(")[0]
        assert plain.splitlines()[1:] == repeated.splitlines()[2:]

    def test_answer_repeat_rejects_zero(self):
        with pytest.raises(SystemExit):
            main(["answer", "cross", "a//d", "--repeat", "0"])


class TestCountValidation:
    @pytest.fixture(autouse=True)
    def _no_work(self, monkeypatch):
        # A check that let its flag through would fail here instead of
        # running a workload, a fuzz sweep, a server or a load test.
        def refuse(*args, **kwargs):
            raise AssertionError("the out-of-range flag was not rejected")

        for target in (
            "repro.service.QueryService",
            "repro.service.ProcessQueryService",
            "repro.service.http.run_loadtest",
            "repro.fuzz.run_fuzz",
        ):
            monkeypatch.setattr(target, refuse)

    @pytest.mark.parametrize(
        "argv",
        [
            ["stats", "cross", "a//d", "--repeat", "0"],
            ["stats", "cross", "a//d", "--workers", "-1"],
            ["mutate", "cross", "a//d", "--mutations", "0"],
            ["fuzz", "--budget", "-1"],
            ["fuzz", "--queries-per-dtd", "0"],
            ["fuzz", "--min-types", "1"],
            ["fuzz", "--min-types", "4", "--max-types", "3"],
            ["fuzz", "--max-cycle-edges", "-1"],
            ["fuzz", "--mutations", "--mutations-per-case", "0"],
            ["serve", "cross", "--documents", "0"],
            ["serve", "cross", "--replicas", "-1"],
            ["loadtest", "--budget", "0"],
            ["loadtest", "--concurrency", "0"],
            ["loadtest", "--query-pool", "0"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[-2]}",
    )
    def test_out_of_range_count_is_rejected(self, argv):
        with pytest.raises(SystemExit, match="must be >= "):
            main(argv)
