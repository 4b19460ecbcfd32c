"""End-to-end tests for the command line interface."""

import csv
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from hexwr import cli, enumeration
from hexwr.enumeration import index_set_member, list_representations
from hexwr.errors import InvariantViolation
from hexwr.optimizer import rank_by_snr


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


class TestCount:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "count", "84")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "N(84) = 2"
        assert any(line.split()[:5] == ["0", "2", "1", "5", "3"] for line in lines[2:])

    def test_trivial(self, capsys):
        code, out, _ = run_cli(capsys, "count", "1")
        assert code == 0
        assert out.splitlines()[0] == "N(1) = 1"

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "count", "84", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert json.dumps(obj, indent=2, sort_keys=True) == out.strip()
        assert obj["count"] == 2
        reps = list_representations(84)
        assert [r["k"] for r in obj["representations"]] == [r.k for r in reps]

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "count", "84", "--format", "csv")
        assert code == 0
        rows = parse_csv(out)
        assert rows[0] == ["u", "j", "d", "m", "n", "k", "minimum"]
        assert len(rows) == 3
        assert rows[1][5:] == ["84", "84"]

    def test_malformed_argument(self, capsys):
        for bad in (["count", "abc"], ["count", "0"], ["count", "-3"], ["count"]):
            code, _, err = run_cli(capsys, *bad)
            assert code == 1
            assert "error" in err

    def test_dot_rejected_outside_tree(self, capsys):
        code, _, err = run_cli(capsys, "count", "84", "--format", "dot")
        assert code == 1
        assert "invalid choice" in err


class TestMaxmin:
    def test_single_index(self, capsys):
        code, out, _ = run_cli(capsys, "maxmin", "8")
        assert code == 0
        assert "7" in out and "Gamma_theta(3,2)" in out

    def test_no_sublattice(self, capsys):
        code, out, _ = run_cli(capsys, "maxmin", "2")
        assert code == 0
        assert "no well-rounded sublattice of index 2" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "maxmin", "45", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["max_minimum"] == 39
        assert obj["witnesses"] == [
            {"k": 3, "lattice": "sqrt(3)*Gamma_theta(4,3)", "m": 4, "n": 3}
        ]

    def test_table1_csv(self, capsys):
        code, out, _ = run_cli(capsys, "maxmin", "--table1", "--format", "csv")
        assert code == 0
        rows = parse_csv(out)
        assert rows[0] == ["J", "max_minimum", "lattice"]
        body = {int(r[0]): (int(r[1]), r[2]) for r in rows[1:]}
        assert len(body) == 11
        assert body[8] == (7, "Gamma_theta(3,2)")
        assert body[24] == (21, "sqrt(3)*Gamma_theta(3,2)")
        assert body[32] == (28, "2*Gamma_theta(3,2)")
        # the exhaustive enumeration puts the scaled copy of the full
        # lattice first at index 21, minimum 21
        assert body[21] == (21, "sqrt(21)*Gamma_theta(1,1)")
        assert body[65] == (61, "Gamma_theta(9,5)")

    def test_flag_combinations(self, capsys):
        code, _, err = run_cli(capsys, "maxmin", "8", "--table1")
        assert code == 1 and "exactly one" in err
        code, _, err = run_cli(capsys, "maxmin")
        assert code == 1


class TestSnr:
    def test_index_84_table(self, capsys):
        code, out, _ = run_cli(capsys, "snr", "84")
        assert code == 0
        lines = out.splitlines()
        assert lines[1].split()[:4] == ["1", "1", "1", "84"]
        assert lines[2].split()[:4] == ["2", "5", "3", "76"]

    def test_empty(self, capsys):
        code, out, _ = run_cli(capsys, "snr", "2")
        assert code == 0
        assert "no well-rounded sublattice" in out

    def test_json_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "snr", "84", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        want = rank_by_snr(84)
        assert [e["snr_db"] for e in obj["ranking"]] == [s.db for _, _, s in want]
        assert [e["minimum"] for e in obj["ranking"]] == [m for _, m, _ in want]

    def test_tol_flag(self, capsys):
        code, out, _ = run_cli(capsys, "snr", "8", "--tol", "1e-6")
        assert code == 0 and "3" in out
        code, _, err = run_cli(capsys, "snr", "8", "--tol", "-1")
        assert code == 1

    def test_tol_below_zeta_floor(self, capsys):
        code, out, err = run_cli(capsys, "snr", "84", "--tol", "1e-15")
        assert code == 1
        assert out == ""
        assert "floor" in err and "Traceback" not in err

    def test_invariant_violation_exit_code(self, capsys, monkeypatch):
        def explode(J, rel_tol=1e-9):
            raise InvariantViolation("boom")

        monkeypatch.setattr(cli, "rank_by_snr", explode)
        code, _, err = run_cli(capsys, "snr", "84")
        assert code == 2
        assert "invariant violation" in err


class TestTree:
    def test_dot_contains_known_edge(self, capsys):
        code, out, _ = run_cli(capsys, "tree", "--cmax", "19", "--format", "dot")
        assert code == 0
        assert '"3,8,7" -> "5,21,19" [label="M1"];' in out
        assert out.startswith("digraph")

    def test_single_node(self, capsys):
        code, out, _ = run_cli(capsys, "tree", "--cmax", "1")
        assert code == 0
        assert "nodes: 1" in out
        assert "0,1,1 -M1-> 0,1,1" in out

    def test_larger_bound_reaches_97(self, capsys):
        code, out, _ = run_cli(capsys, "tree", "--cmax", "97", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert "55,112,97" in obj["nodes"]
        assert json.dumps(obj, indent=2, sort_keys=True) == out.strip()

    def test_csv_edges(self, capsys):
        code, out, _ = run_cli(capsys, "tree", "--cmax", "7", "--format", "csv")
        assert code == 0
        rows = parse_csv(out)
        assert rows[0] == ["from", "label", "to"]
        assert ["0,1,1", "M1", "0,1,1"] in rows

    def test_depth_flag(self, capsys):
        code, out, _ = run_cli(capsys, "tree", "--depth", "1", "--format", "json")
        assert code == 0
        assert len(json.loads(out)["nodes"]) == 3

    def test_requires_bound(self, capsys):
        code, _, err = run_cli(capsys, "tree")
        assert code == 1
        assert "cmax" in err or "depth" in err

    def test_deep_tree_needs_cmax(self, capsys):
        # depth 9 alone would build (5^9 + 1)/2 nodes, so it is refused before building
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "tree", "--depth", "9")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert "--cmax" in err

    def test_depth_with_cmax_is_unbounded(self, capsys):
        _, plain, _ = run_cli(capsys, "tree", "--cmax", "1000")
        code, deep, _ = run_cli(capsys, "tree", "--cmax", "1000", "--depth", "50")
        assert code == 0
        assert deep == plain


class TestOracle:
    def test_small_scan_agrees(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "60")
        assert code == 0
        assert out.strip() == "OK: 60/60 indices agree"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "25", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["agree"] is True
        assert obj["checked"] == 25 and obj["disagreements"] == []

    def test_disagreement_is_fatal(self, capsys, monkeypatch):
        real = cli.list_representations
        # one extra class at index 5, which has none
        monkeypatch.setattr(
            cli, "list_representations", lambda J: real(J) + (real(1) if J == 5 else [])
        )
        code, out, _ = run_cli(capsys, "oracle", "10")
        assert code == 2
        assert "J=5" in out and "DISAGREE" in out

    def test_angle_disagreement_is_fatal(self, capsys, monkeypatch):
        # index 84 has two classes; moving the angle of the smaller one keeps
        # both the class count and the maximal minimum
        real = cli.list_representations
        last = real(84)[-1]
        cos, fake_cos = last.params.cosine, last.params.cosine + Fraction(1, 1000)

        def moved(J):
            reps = real(J)
            if J != 84:
                return reps
            assert len(reps) == 2 and last.minimum < reps[0].minimum
            fake = SimpleNamespace(params=SimpleNamespace(cosine=fake_cos), minimum=last.minimum)
            return reps[:-1] + [fake]

        monkeypatch.setattr(cli, "list_representations", moved)
        code, out, _ = run_cli(capsys, "oracle", "84")
        assert code == 2
        assert "J=84: classes 2 vs 2, max minimum 84 vs 84" in out
        assert f"  only enumerated: cos {cos}, minimum {last.minimum}\n" in out
        assert f"  only parameterized: cos {fake_cos}, minimum {last.minimum}\n" in out
        assert "DISAGREE: 1/84 indices differ" in out

        code, out, _ = run_cli(capsys, "oracle", "84", "--format", "json")
        assert code == 2
        (row,) = json.loads(out)["disagreements"]
        assert row["J"] == 84
        assert row["only_enumerated"] == [
            {"cos_den": cos.denominator, "cos_num": cos.numerator, "minimum": last.minimum}
        ]
        assert row["only_parameterized"] == [
            {"cos_den": fake_cos.denominator, "cos_num": fake_cos.numerator,
             "minimum": last.minimum}
        ]


class TestServingPath:
    COMMANDS = [
        ["count", "84"],
        ["maxmin", "45"],
        ["snr", "84"],
        ["classes", "--cmax", "50"],
        ["tree", "--cmax", "50"],
        ["index-set", "--jmax", "50"],
    ]

    def test_serving_commands_never_survey(self, capsys, monkeypatch):
        want = [run_cli(capsys, *argv, "--format", "json") for argv in self.COMMANDS]
        enumeration.wr_survey.cache_clear()

        def refuse(J):
            raise RuntimeError(f"brute-force scan of index {J} on a serving path")

        # both brute forces: the per-index survey and the whole-range scan
        monkeypatch.setattr(enumeration, "hnf_sublattices", refuse)
        monkeypatch.setattr(enumeration, "wr_scan", refuse)
        monkeypatch.setattr(cli, "wr_scan", refuse)
        for argv, (code, out, _) in zip(self.COMMANDS, want):
            assert code == 0, argv
            assert run_cli(capsys, *argv, "--format", "json")[:2] == (0, out), argv


class TestClassesAndIndexSet:
    def test_classes_csv(self, capsys):
        code, out, _ = run_cli(capsys, "classes", "--cmax", "40", "--format", "csv")
        assert code == 0
        rows = parse_csv(out)
        assert rows[1] == ["1", "1", "1", "1", "1/2"]
        assert ["5", "3", "19", "21", "11/38"] in rows
        assert len(rows) == 7

    def test_classes_sorted_by_minimum(self, capsys):
        code, out, _ = run_cli(capsys, "classes", "--cmax", "200", "--format", "json")
        assert code == 0
        minima = [c["class_minimum"] for c in json.loads(out)["classes"]]
        assert minima == sorted(minima)

    def test_index_set(self, capsys):
        code, out, _ = run_cli(capsys, "index-set", "--jmax", "20")
        assert code == 0
        assert out.splitlines()[1] == "1 3 4 7 8 9 12 13 15 16 19"

    def test_index_set_json(self, capsys):
        code, out, _ = run_cli(capsys, "index-set", "--jmax", "120", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        want = [J for J in range(1, 121) if index_set_member(J)]
        assert obj["members"] == want and obj["count"] == len(want)

    @pytest.mark.parametrize("X", [1, 2, 3, 50, 120, 2000])
    def test_index_set_matches_per_index_test(self, capsys, X):
        # the sieve behind index-set against one index_set_member call per J
        want = [J for J in range(1, X + 1) if index_set_member(J)]
        expected = {
            "table": f"realizable indices up to {X}: {len(want)}\n{' '.join(map(str, want))}\n",
            "csv": "J\n" + "".join(f"{J}\n" for J in want),
            "json": json.dumps({"count": len(want), "j_max": X, "members": want},
                               indent=2, sort_keys=True) + "\n",
        }
        for fmt, text in expected.items():
            assert run_cli(capsys, "index-set", "--jmax", str(X), "--format", fmt) == (0, text, "")

    def test_index_set_bound(self, capsys, monkeypatch):
        # refused by argparse, before the sieve allocates anything
        def refuse(X):
            raise AssertionError(f"sieve up to {X} started above the bound")

        monkeypatch.setattr(enumeration, "counts_up_to", refuse)
        monkeypatch.setattr(cli, "counts_up_to", refuse)
        assert cli._index_set_jmax(str(cli.MAX_INDEX_SET_JMAX)) == cli.MAX_INDEX_SET_JMAX
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "index-set", "--jmax", str(cli.MAX_INDEX_SET_JMAX + 1))
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert "above the index-set bound" in err and "Traceback" not in err


class TestSizeLimits:
    # (argv before the value, type function, bound, its name, the work refused)
    LIMITS = [
        (["tree", "--cmax"], cli._cmax, cli.MAX_CMAX, "--cmax", "generate_tree"),
        (["classes", "--cmax"], cli._cmax, cli.MAX_CMAX, "--cmax", "admissible_params"),
        (["oracle"], cli._oracle_jmax, cli.MAX_ORACLE_JMAX, "oracle", "wr_scan"),
    ]

    @pytest.mark.parametrize("argv, parse, bound, what, work", LIMITS,
                             ids=["tree", "classes", "oracle"])
    def test_bound(self, capsys, monkeypatch, argv, parse, bound, what, work):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{work} started above the bound")

        monkeypatch.setattr(cli, work, refuse)
        assert parse(str(bound)) == bound
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, str(bound + 1))
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert f"is above the {what} bound {bound}" in err and "Traceback" not in err


class TestDeferredImports:
    # mpmath and the process pool are about a third of start-up; only `snr`
    # may load them
    HEAVY = ("mpmath", "concurrent.futures", "multiprocessing")
    PROBE = (
        "import json, sys\n"
        "from hexwr.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "sys.stdout.flush()\n"
        "print(json.dumps([code, sorted(sys.modules)]), file=sys.stderr)\n"
    )

    def fresh(self, *argv):
        """Exit code, stdout and loaded module names of argv in a new interpreter."""
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", self.PROBE, *argv], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": path})
        code, modules = json.loads(proc.stderr.splitlines()[-1])
        return code, proc.stdout, set(modules)

    @pytest.mark.parametrize("argv", [
        ["count", "1"],
        ["maxmin", "45"],
        ["index-set", "--jmax", "100"],
        ["classes", "--cmax", "50"],
        ["tree", "--cmax", "50"],
    ], ids=" ".join)
    def test_exact_commands_load_neither(self, argv):
        code, _, modules = self.fresh(*argv)
        assert code == 0
        assert [name for name in self.HEAVY if name in modules] == []

    def test_oracle_loads_neither(self):
        code, out, modules = self.fresh("oracle", "1000")
        assert (code, out) == (0, "OK: 1000/1000 indices agree\n")
        assert [name for name in self.HEAVY if name in modules] == []

    def test_snr_loads_mpmath(self, capsys):
        code, out, modules = self.fresh("snr", "84")
        assert code == 0 and "mpmath" in modules
        assert run_cli(capsys, "snr", "84") == (0, out, "")


class TestSharedParser:
    SEQUENCE = [
        ["count", "abc"],
        ["count", "84", "--format", "json"],
        ["--help"],
        ["snr", "84", "--tol", "1e-15"],
    ]

    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        cli._build_parser.cache_clear()
        yield
        cli._build_parser.cache_clear()

    def test_built_once(self, capsys, monkeypatch):
        builds = []

        class Counting(cli._Parser):
            def __init__(self, **kwargs):
                if kwargs["prog"] == "hexwr":  # the top level, not a subcommand
                    builds.append(kwargs)
                super().__init__(**kwargs)

        monkeypatch.setattr(cli, "_Parser", Counting)
        for argv in self.SEQUENCE * 10 + [["index-set", "--jmax", "50"], ["maxmin"]]:
            run_cli(capsys, *argv)
        assert len(builds) == 1

    def test_later_calls_match_a_fresh_process(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the terminal width
        fresh = [
            subprocess.run([sys.executable, "-m", "hexwr.cli", *argv],
                           capture_output=True, text=True)
            for argv in self.SEQUENCE
        ]
        for _ in range(2):
            for argv, proc in zip(self.SEQUENCE, fresh):
                assert run_cli(capsys, *argv) == (proc.returncode, proc.stdout, proc.stderr), argv

    def test_patched_library_after_cache(self, capsys, monkeypatch):
        run_cli(capsys, "count", "84")
        monkeypatch.setattr(cli, "list_representations", lambda J: [])
        assert run_cli(capsys, "count", "84") == (0, "N(84) = 0\n", "")


class TestEntryPoints:
    def test_help_exits_cleanly(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "maxmin" in out and "index-set" in out

    def test_no_command(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hexwr.cli", "maxmin", "8"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "7" in proc.stdout

    @pytest.mark.parametrize("argv, lines_read", [
        # over 300 KB: the reader closes while the table is being printed
        (["tree", "--depth", "6"], 1),
        # a few lines: the reader closes first, so the last flush hits the closed pipe
        (["count", "84"], 0),
    ], ids=["reader-closes-mid-output", "reader-closes-first"])
    def test_broken_pipe_exits_quietly(self, argv, lines_read):
        # block-buffered stdout, as for any pipe unless PYTHONUNBUFFERED is set
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        with subprocess.Popen(
            [sys.executable, "-m", "hexwr.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        ) as proc:
            try:
                for _ in range(lines_read):
                    assert proc.stdout.readline()
                proc.stdout.close()
                code = proc.wait(timeout=60)
            finally:
                proc.kill()
            err = proc.stderr.read()
        assert code == 1
        assert err == ""
