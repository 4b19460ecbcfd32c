"""End-to-end tests for the command line interface."""

import csv
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from hexwr import arith, cli, enumeration, lattice, optimizer, triples
from hexwr.enumeration import (
    ClassParams,
    IndexRepresentation,
    index_set_member,
    list_representations,
)
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

    @pytest.mark.parametrize("tol, reason", [
        ("nan", "is not a finite number"),
        ("inf", "is not a finite number"),
        ("1e300", "is not below 1"),
        ("1", "is not below 1"),
    ])
    def test_tol_without_meaning(self, capsys, tol, reason):
        # no finite relative error bound follows from these, so none is served
        code, out, err = run_cli(capsys, "snr", "84", "--tol", tol)
        assert (code, out) == (1, "")
        assert err.endswith(f"error: argument --tol: {tol!r} {reason}\n")

    def test_invariant_violation_exit_code(self, capsys, monkeypatch):
        def explode(J, rel_tol=1e-9):
            raise InvariantViolation("boom")

        monkeypatch.setattr(optimizer, "rank_by_snr", explode)
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


PINNED = {
    ("count", "84", "table"): """\
N(84) = 2
u  j  d  m  n  k   minimum
1  2  7  1  1  84  84
0  2  1  5  3  4   76
""",
    ("count", "84", "csv"): """\
u,j,d,m,n,k,minimum
1,2,7,1,1,84,84
0,2,1,5,3,4,76
""",
    ("count", "84", "json"): """\
{
  "J": 84,
  "count": 2,
  "representations": [
    {
      "d": 7,
      "j": 2,
      "k": 84,
      "m": 1,
      "minimum": 84,
      "n": 1,
      "u": 1
    },
    {
      "d": 1,
      "j": 2,
      "k": 4,
      "m": 5,
      "minimum": 76,
      "n": 3,
      "u": 0
    }
  ]
}
""",
    ("tree", "--cmax", "7", "table"): """\
nodes: 2
edges: 3
0,1,1 -M1-> 0,1,1
0,1,1 -M4-> 3,8,7
0,1,1 -M5-> 3,8,7
""",
    ("tree", "--cmax", "7", "csv"): """\
from,label,to
"0,1,1",M1,"0,1,1"
"0,1,1",M4,"3,8,7"
"0,1,1",M5,"3,8,7"
""",
    ("tree", "--cmax", "7", "json"): """\
{
  "c_max": 7,
  "edges": [
    {
      "from": "0,1,1",
      "label": "M1",
      "to": "0,1,1"
    },
    {
      "from": "0,1,1",
      "label": "M4",
      "to": "3,8,7"
    },
    {
      "from": "0,1,1",
      "label": "M5",
      "to": "3,8,7"
    }
  ],
  "nodes": [
    "0,1,1",
    "3,8,7"
  ]
}
""",
    ("tree", "--cmax", "7", "dot"): """\
digraph pairs {
  "0,1,1";
  "3,8,7";
  "0,1,1" -> "0,1,1" [label="M1"];
  "0,1,1" -> "3,8,7" [label="M4"];
  "0,1,1" -> "3,8,7" [label="M5"];
}
""",
}


def cells(records, keys):
    return [[str(rec[k]) for k in keys] for rec in records]


def oracle_summary(doc=None, body=None):
    """(j_max, checked, disagreeing indices) from the json document or the csv body.

    Only disagreements in a class count or a maximum show in the csv.
    """
    if doc is not None:
        return doc["j_max"], doc["checked"], [row["J"] for row in doc["disagreements"]]
    return (int(body[-1][0]), len(body),
            [int(row[0]) for row in body if row[1] != row[2] or row[3] != row[4]])


# (argv, whether the table prints the csv rows aligned, the csv body read
# off the json document); oracle compares summaries instead
CROSS_FORMAT = [
    (["count", "84"], True,
     lambda doc: cells(doc["representations"], ["u", "j", "d", "m", "n", "k", "minimum"])),
    (["maxmin", "--table1"], True,
     lambda doc: cells(doc["rows"], ["J", "max_minimum", "lattice"])),
    (["snr", "84"], True,
     lambda doc: [[str(i + 1), str(e["m"]), str(e["n"]), str(e["minimum"]),
                   f"{e['snr_db']:.9f}", f"{e['abs_error_bound']:.2e}"]
                  for i, e in enumerate(doc["ranking"])]),
    (["classes", "--cmax", "97"], True,
     lambda doc: [[str(c["m"]), str(c["n"]), str(c["class_minimum"]), str(c["minimal_index"]),
                   f"{c['cos_num']}/{c['cos_den']}"] for c in doc["classes"]]),
    (["tree", "--cmax", "97"], False, lambda doc: cells(doc["edges"], ["from", "label", "to"])),
    (["index-set", "--jmax", "120"], False, lambda doc: [[str(J)] for J in doc["members"]]),
    (["oracle", "60"], False, None),
]


class TestOutputFormats:
    @pytest.mark.parametrize("key", PINNED, ids=" ".join)
    def test_pinned_output(self, capsys, key):
        *argv, fmt = key
        assert run_cli(capsys, *argv, "--format", fmt) == (0, PINNED[key], "")

    def test_tree_exports(self, capsys):
        obj = json.loads(run_cli(capsys, "tree", "--cmax", "7", "--format", "json")[1])
        assert obj["c_max"] == 7 and "max_depth" not in obj
        assert obj["nodes"] == ["0,1,1", "3,8,7"]
        assert {"from": "0,1,1", "label": "M4", "to": "3,8,7"} in obj["edges"]
        dot = run_cli(capsys, "tree", "--cmax", "7", "--format", "dot")[1]
        assert dot.startswith("digraph")
        assert '"0,1,1" -> "3,8,7" [label="M4"];' in dot
        assert '"0,1,1" -> "0,1,1" [label="M1"];' in dot
        obj = json.loads(run_cli(capsys, "tree", "--depth", "1", "--format", "json")[1])
        assert obj["max_depth"] == 1 and "c_max" not in obj

    def test_count_json_keys(self, capsys):
        obj = json.loads(run_cli(capsys, "count", "84", "--format", "json")[1])
        for rep in obj["representations"]:
            assert set(rep) == {"u", "j", "d", "m", "n", "k", "minimum"}
        assert obj["representations"][1] == {"u": 0, "j": 2, "d": 1, "m": 5, "n": 3,
                                              "k": 4, "minimum": 76}

    @pytest.mark.parametrize("argv, tabular, from_json", CROSS_FORMAT,
                             ids=[" ".join(case[0]) for case in CROSS_FORMAT])
    def test_formats_agree(self, capsys, argv, tabular, from_json):
        outputs = {}
        for fmt in ("table", "csv", "json"):
            code, out, err = run_cli(capsys, *argv, "--format", fmt)
            assert code == 0 and err == "", fmt
            outputs[fmt] = out
        rows = parse_csv(outputs["csv"])
        doc = json.loads(outputs["json"])
        assert rows[1:], "the comparison needs records"
        if from_json is None:
            assert oracle_summary(doc=doc) == oracle_summary(body=rows[1:])
        else:
            assert from_json(doc) == rows[1:]
        if tabular:
            # cells are padded and joined by two spaces; no cell holds two spaces
            lines = outputs["table"].splitlines()[-len(rows):]
            assert [re.split(r" {2,}", line) for line in lines] == rows


class _Discard(io.TextIOBase):
    """A text sink that keeps nothing, so traced memory is the command's own."""

    def write(self, text):
        return len(text)


class TestJsonStream:
    @pytest.mark.parametrize("argv", [
        ["index-set", "--jmax", "20000"],
        ["tree", "--cmax", "20000"],
    ], ids=" ".join)
    def test_blocks_join_to_the_whole_text(self, capsys, argv):
        # each answer is several blocks of encoder chunks long
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"

    @staticmethod
    def traced_peak(monkeypatch, *argv):
        monkeypatch.setattr(sys, "stdout", _Discard())
        tracemalloc.start()
        try:
            assert cli.main(list(argv)) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("argv, ratio", [
        (["index-set", "--jmax", "200000"], 1.3),
        (["tree", "--cmax", "50000"], 2.5),
    ], ids=["index-set", "tree"])
    def test_json_memory_near_csv(self, monkeypatch, argv, ratio):
        # the json text is never held whole: its peak stays near the csv peak
        cli._build_parser()  # built outside the traced runs
        csv_peak = self.traced_peak(monkeypatch, *argv, "--format", "csv")
        json_peak = self.traced_peak(monkeypatch, *argv, "--format", "json")
        assert json_peak <= ratio * csv_peak, (json_peak, csv_peak)

    def test_invariant_violation_in_doc_writes_nothing(self, capsys, monkeypatch):
        node_id, calls = triples.node_id, []

        def counting(pair):
            calls.append(pair)
            return node_id(pair)

        monkeypatch.setattr(triples, "node_id", counting)
        run_cli(capsys, "tree", "--cmax", "97", "--format", "json")
        last = len(calls)
        calls.clear()

        def failing_last(pair):
            # the document's last node id fails, after every other part is built
            if len(calls) == last - 1:
                raise InvariantViolation("boom")
            return counting(pair)

        monkeypatch.setattr(triples, "node_id", failing_last)
        code, out, err = run_cli(capsys, "tree", "--cmax", "97", "--format", "json")
        assert len(calls) == last - 1
        assert (code, out) == (2, "")
        assert err == "invariant violation: boom\n"


class TestSizeLimits:
    # (argv before the value, type function, bound, its name, the module that
    # the command calls the work through, the work refused)
    LIMITS = [
        (["tree", "--cmax"], cli._cmax, cli.MAX_CMAX, "--cmax", triples, "generate_tree"),
        (["classes", "--cmax"], cli._cmax, cli.MAX_CMAX, "--cmax", triples, "admissible_params"),
        (["oracle"], cli._oracle_jmax, cli.MAX_ORACLE_JMAX, "oracle", cli, "wr_scan"),
        (["count"], cli._index, cli.MAX_INDEX, "index", cli, "list_representations"),
        (["maxmin"], cli._index, cli.MAX_INDEX, "index", optimizer, "max_min"),
        (["snr"], cli._index, cli.MAX_INDEX, "index", cli, "count_N"),
    ]

    @pytest.mark.parametrize("argv, parse, bound, what, owner, work", LIMITS,
                             ids=["tree", "classes", "oracle", "count", "maxmin", "snr"])
    def test_bound(self, capsys, monkeypatch, argv, parse, bound, what, owner, work):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{work} started above the bound")

        monkeypatch.setattr(owner, work, refuse)
        assert parse(str(bound)) == bound
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, str(bound + 1))
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert f"is above the {what} bound {bound}" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [["count"], ["snr", "84", "--tol"]], ids=" ".join)
    def test_huge_argument_is_not_echoed(self, capsys, argv):
        text = "9" * 5000
        code, out, err = run_cli(capsys, *argv, text)
        assert (code, out) == (1, "")
        assert f"{'9' * 20!r}... (5000 characters)" in err
        assert len(err) < 300 and err.count("\n") == 2  # usage line and error line

    def test_snr_class_bound(self, capsys, monkeypatch):
        # 4 * 3 * 7 * 13 * 19 * 31 * 37 * 43 * 61 * 67 has 708 classes
        J = 4182276585396

        def refuse(*args, **kwargs):
            raise AssertionError("zeta values started above the class bound")

        monkeypatch.setattr(optimizer, "rank_by_snr", refuse)
        assert enumeration.count_N(J) > cli.MAX_SNR_CLASSES
        code, out, err = run_cli(capsys, "snr", str(J))
        assert code == 1 and out == ""
        assert f"has 708 classes, above the snr bound {cli.MAX_SNR_CLASSES}" in err
        # at the bound itself the ranking runs
        monkeypatch.setattr(cli, "count_N", lambda J: cli.MAX_SNR_CLASSES)
        monkeypatch.setattr(optimizer, "rank_by_snr", lambda J, rel_tol: [])
        assert run_cli(capsys, "snr", str(J))[0] == 0


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

    # a command that only counts needs neither the geometry nor the tree
    GEOMETRY = ("dataclasses", "hexwr.lattice", "hexwr.triples", "hexwr.conic", "hexwr.optimizer")

    @pytest.mark.parametrize("argv, needs", [
        (["count", "1"], []),
        (["index-set", "--jmax", "100"], []),
        (["maxmin", "45"], ["hexwr.optimizer"]),
    ], ids=["count 1", "index-set --jmax 100", "maxmin 45"])
    def test_counting_commands_skip_the_geometry(self, argv, needs):
        code, _, modules = self.fresh(*argv)
        assert code == 0
        assert [name for name in self.GEOMETRY if name in modules] == needs

    def test_moved_names_keep_their_old_paths(self):
        assert lattice.ClassParams is enumeration.ClassParams
        assert triples.is_admissible is arith.is_admissible

    @pytest.mark.parametrize("record, field", [
        (IndexRepresentation(u=1, j=2, d=7, params=ClassParams(1, 1)), "u"),
        (ClassParams(3, 2), "m"),
        (optimizer.MaxMinResult(J=8, best_minimum=7, witnesses=[], exists=True), "best_minimum"),
        (optimizer.ZetaValue(value=7.7, abs_error_bound=1e-9, truncation_radius=4), "value"),
        (optimizer.SnrValue(db=-18.4, abs_error_bound=1e-8), "db"),
    ], ids=["IndexRepresentation", "ClassParams", "MaxMinResult", "ZetaValue", "SnrValue"])
    def test_records_refuse_assignment(self, record, field):
        for name in (field, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)

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
        # the json text is written in blocks, so a block write hits the closed pipe
        (["tree", "--depth", "6", "--format", "json"], 1),
    ], ids=["reader-closes-mid-output", "reader-closes-first", "json-reader-closes-mid-output"])
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
