"""Command line interface: counting, ranking, tree export, oracle checks."""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from fractions import Fraction
from functools import cache
from itertools import compress, islice
from typing import NamedTuple

# optimizer and triples are imported by the commands that use them, so that
# count and index-set load only enumeration, arith and errors
from .enumeration import (
    ClassParams,
    IndexRepresentation,
    WrClassRecord,
    count_N,
    counts_up_to,
    list_representations,
    wr_scan,
)
from .errors import InvariantViolation

# the eleven classical small indices replayed by `maxmin --table1`
TABLE1_INDICES = (8, 15, 21, 24, 32, 35, 40, 45, 55, 60, 65)
# Size limits, each refused (exit 1) before any work starts.
# Every accepted input stays within 10 s and 500 MB peak RSS; figures are for
# a fresh process with stdout to /dev/null on a 2-core host with Python 3.11.
# deepest `tree --depth` served without --cmax: (5^D + 1)/2 nodes, 195,313 at
# D = 8, which takes 4.8-5.1 s and 182 MB in json and 3.4-4.5 s and 119 MB
# in table, csv and dot.
MAX_DEPTH_WITHOUT_CMAX = 8
# largest `index-set --jmax`: the sieve and the output hold O(jmax) memory.
# 10**6 runs in at most 1.2 s and 64 MB in every format; 10**7 takes up
# to 9.8 s (csv) and 489 MB (table, whose one line lists every member).
MAX_INDEX_SET_JMAX = 10**6
# largest `tree --cmax` and `classes --cmax`: nodes and classes grow about
# linearly in cmax. At 10**6 tree takes 7.1-7.9 s and up to 128 MB (json),
# classes 1.7-2.6 s and up to 93 MB (table).
MAX_CMAX = 10**6
# largest `oracle` jmax: one scan of the vectors of norm <= jmax finds about
# 7 jmax reduced bases, then list_representations runs once per index.
# 10**4 takes 1.1-1.2 s and 24 MB in every format; 10**5 takes 11.2-11.6 s
# and 100 MB.
MAX_ORACLE_JMAX = 10**4
# largest J for `count`, `maxmin` and `snr`: trial division takes up to
# sqrt(J) steps, and a prime J = 1 mod 3 is factored twice per listing. At
# the prime 99999999999973 count and maxmin take 1.6-1.9 s and snr 2.9-3.6 s,
# all under 21 MB.
MAX_INDEX = 10**14
# most classes `snr` ranks, counted before any zeta value: each class costs
# one zeta value of about 35 ms. 5298757915948 has 200 classes and takes
# 6.5-7.5 s and 21 MB; 161452242588 has 250 and takes 8.8-8.9 s.
MAX_SNR_CLASSES = 200


class _UsageError(Exception):
    """Bad flag combination detected after argparse ran."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _quote(text: str) -> str:
    """text quoted for a usage error, cut to its first 20 characters and its length."""
    if len(text) <= 20:
        return repr(text)
    return f"{text[:20]!r}... ({len(text)} characters)"


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{_quote(text)} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"{_quote(text)} is not a positive integer")
    return value


def _bounded_int(limit: int, what: str):
    """An argparse type for a positive integer of at most limit."""

    def parse(text: str) -> int:
        value = _positive_int(text)
        if value > limit:
            raise argparse.ArgumentTypeError(f"{_quote(text)} is above the {what} bound {limit}")
        return value

    return parse


_index_set_jmax = _bounded_int(MAX_INDEX_SET_JMAX, "index-set")
_cmax = _bounded_int(MAX_CMAX, "--cmax")
_oracle_jmax = _bounded_int(MAX_ORACLE_JMAX, "oracle")
_index = _bounded_int(MAX_INDEX, "index")


def _zeta_tol(text: str) -> float:
    from .optimizer import REL_TOL_FLOOR

    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{_quote(text)} is not a number")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{_quote(text)} is not a finite number")
    if value < REL_TOL_FLOOR:
        raise argparse.ArgumentTypeError(
            f"{_quote(text)} is below the zeta floor {REL_TOL_FLOOR:.3g}")
    # a relative error of 1 or more leaves the value unbounded, and the
    # ranking would be served with bounds that mean nothing
    if value >= 1:
        raise argparse.ArgumentTypeError(f"{_quote(text)} is not below 1")
    return value


def _emit(fmt: str, header, rows, doc, lead=(), table: bool = True) -> None:
    """Print one answer in fmt, building only what that format shows.

    json prints doc() with sorted keys; csv prints header, then rows (lists
    of strings, possibly a generator); table prints the lead lines, then the
    rows aligned in columns when table is true.
    """
    if fmt == "json":
        # doc() is built before the first write, so a failure leaves stdout empty
        chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(doc())
        # 4096 encoder chunks per write: joining all of them holds the whole
        # text next to the document, and one write per chunk is slower
        while block := "".join(islice(chunks, 4096)):
            sys.stdout.write(block)
        sys.stdout.write("\n")
        return
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return
    for line in lead:
        print(line)
    if table:
        rows = list(rows)
        widths = [len(h) for h in header]
        for row in rows:
            widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
        for row in [header, *rows]:
            print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


def _witness_name(rep: IndexRepresentation) -> str:
    """Human name of the scaled minimal lattice, e.g. 2*sqrt(21)*Gamma_theta(1,1).

    The scale k = 3^u * j^2 * d has d squarefree and prime to 3, so its
    square factor is j and its squarefree part is 3^u * d.
    """
    squarefree = 3**rep.u * rep.d
    parts = []
    if rep.j > 1:
        parts.append(str(rep.j))
    if squarefree > 1:
        parts.append(f"sqrt({squarefree})")
    parts.append(f"Gamma_theta({rep.params.m},{rep.params.n})")
    return "*".join(parts)


def cmd_count(args) -> int:
    reps = list_representations(args.J)
    header = ["u", "j", "d", "m", "n", "k", "minimum"]
    records = [(r.u, r.j, r.d, r.params.m, r.params.n, r.k, r.minimum) for r in reps]
    _emit(args.format, header, ([str(v) for v in rec] for rec in records),
          lambda: {"J": args.J, "count": len(reps),
                   "representations": [dict(zip(header, rec)) for rec in records]},
          lead=[f"N({args.J}) = {len(reps)}"], table=bool(reps))
    return 0


def cmd_maxmin(args) -> int:
    from . import optimizer

    if args.table1 == (args.J is not None):
        raise _UsageError("give exactly one of J or --table1")
    header = ["J", "max_minimum", "lattice"]
    if args.table1:
        records = []
        for J in TABLE1_INDICES:
            res = optimizer.max_min(J)
            records.append((J, res.best_minimum, "; ".join(map(_witness_name, res.witnesses))))
        _emit(args.format, header, ([str(v) for v in rec] for rec in records),
              lambda: {"rows": [dict(zip(header, rec)) for rec in records]})
        return 0
    res = optimizer.max_min(args.J)
    names = [_witness_name(w) for w in res.witnesses]
    if res.exists:
        lead = [f"max minimum of index-{args.J} well-rounded sublattices: {res.best_minimum}",
                f"attained by {'; '.join(names)}"]
    else:
        lead = [f"no well-rounded sublattice of index {args.J}"]
    _emit(args.format, header,
          [[str(args.J), str(res.best_minimum) if res.exists else "", "; ".join(names)]],
          lambda: {"J": args.J, "exists": res.exists, "max_minimum": res.best_minimum,
                   "witnesses": [{"k": w.k, "lattice": name, "m": w.params.m, "n": w.params.n}
                                 for w, name in zip(res.witnesses, names)]},
          lead=lead, table=False)
    return 0


def cmd_snr(args) -> int:
    from . import optimizer

    classes = count_N(args.J)
    if classes > MAX_SNR_CLASSES:
        raise _UsageError(f"index {args.J} has {classes} classes, "
                          f"above the snr bound {MAX_SNR_CLASSES}")
    ranking = optimizer.rank_by_snr(args.J, rel_tol=args.tol)
    _emit(args.format, ["rank", "m", "n", "minimum", "snr_db", "error_bound"],
          ([str(i + 1), str(p.m), str(p.n), str(mini), f"{s.db:.9f}", f"{s.abs_error_bound:.2e}"]
           for i, (p, mini, s) in enumerate(ranking)),
          lambda: {"J": args.J,
                   "ranking": [{"abs_error_bound": s.abs_error_bound, "m": p.m, "minimum": mini,
                                "n": p.n, "snr_db": s.db} for p, mini, s in ranking]},
          lead=[] if ranking else [f"no well-rounded sublattice of index {args.J}"],
          table=bool(ranking))
    return 0


def cmd_tree(args) -> int:
    from . import triples

    if args.cmax is None and args.depth is None:
        raise _UsageError("give at least one of --cmax or --depth")
    if args.cmax is None and args.depth > MAX_DEPTH_WITHOUT_CMAX:
        raise _UsageError(f"--depth above {MAX_DEPTH_WITHOUT_CMAX} needs --cmax")
    tree = triples.generate_tree(c_max=args.cmax, max_depth=args.depth)
    node_id = triples.node_id
    if args.format == "dot":
        print("digraph pairs {")
        for p in tree.nodes:
            print(f'  "{node_id(p)}";')
        for p, label, q in tree.edges:
            print(f'  "{node_id(p)}" -> "{node_id(q)}" [label="{label}"];')
        print("}")
        return 0
    header = ["from", "label", "to"]
    edge_rows = ([node_id(p), label, node_id(q)] for p, label, q in tree.edges)

    def doc():
        obj = {"nodes": [node_id(p) for p in tree.nodes],
               "edges": [dict(zip(header, row)) for row in edge_rows]}
        if args.cmax is not None:
            obj["c_max"] = args.cmax
        if args.depth is not None:
            obj["max_depth"] = args.depth
        return obj

    def lead():
        yield f"nodes: {len(tree.nodes)}"
        yield f"edges: {len(tree.edges)}"
        for src, label, dst in edge_rows:
            yield f"{src} -{label}-> {dst}"

    _emit(args.format, header, edge_rows, doc, lead=lead(), table=False)
    return 0


class _OracleRow(NamedTuple):
    """Scan against parameterization at one index; the field names are the json keys."""

    J: int
    enumerated_classes: int
    parameterized_classes: int
    enumerated_max: int | None
    parameterized_max: int | None
    only_enumerated: list  # (cosine, minimum) entries only the scan found
    only_parameterized: list  # and those only the parameterization found


def _oracle_check(J: int, records: tuple[WrClassRecord, ...]) -> _OracleRow:
    """Compare the scan's records of index J with list_representations(J)."""
    enumerated = {Fraction(rec.cos_num, rec.cos_den): rec.minimum for rec in records}
    parameterized = {rep.params.cosine: rep.minimum for rep in list_representations(J)}
    return _OracleRow(J, len(enumerated), len(parameterized),
                      max(enumerated.values(), default=None),
                      max(parameterized.values(), default=None),
                      sorted(enumerated.items() - parameterized.items()),
                      sorted(parameterized.items() - enumerated.items()))


def cmd_oracle(args) -> int:
    jmax = args.jmax
    results = [_oracle_check(J, records) for J, records in wr_scan(jmax).items()]
    bad = [r for r in results if r.only_enumerated or r.only_parameterized]
    sides = ("enumerated", "parameterized")  # the last two fields are only_<side>
    lines = []
    for r in bad:
        lines.append(f"J={r.J}: classes {r.enumerated_classes} vs {r.parameterized_classes}, "
                     f"max minimum {r.enumerated_max} vs {r.parameterized_max}")
        for side, entries in zip(sides, r[5:]):
            lines.extend(f"  only {side}: cos {cos}, minimum {minimum}" for cos, minimum in entries)
    lines.append(f"DISAGREE: {len(bad)}/{len(results)} indices differ" if bad
                 else f"OK: {len(results)}/{len(results)} indices agree")

    def doc():
        disagreements = []
        for r in bad:
            row = r._asdict()
            for side, entries in zip(sides, r[5:]):
                row[f"only_{side}"] = [
                    {"cos_den": cos.denominator, "cos_num": cos.numerator, "minimum": minimum}
                    for cos, minimum in entries
                ]
            disagreements.append(row)
        return {"agree": not bad, "checked": len(results), "disagreements": disagreements,
                "j_max": jmax}

    # the csv columns are the first five fields: J, the class counts and the maxima
    _emit(args.format, _OracleRow._fields[:5],
          (["" if v is None else str(v) for v in r[:5]] for r in results),
          doc, lead=lines, table=False)
    return 2 if bad else 0


def cmd_classes(args) -> int:
    from . import triples

    found = sorted(
        (ClassParams(m, n) for m, n in triples.admissible_params(args.cmax)),
        key=lambda p: (p.class_minimum, p.m),
    )
    _emit(args.format, ["m", "n", "class_minimum", "minimal_index", "cos"],
          ([str(p.m), str(p.n), str(p.class_minimum), str(p.minimal_index),
            f"{cos.numerator}/{cos.denominator}"] for p in found for cos in [p.cosine]),
          lambda: {"c_max": args.cmax, "count": len(found),
                   "classes": [{"class_minimum": p.class_minimum, "cos_den": cos.denominator,
                                "cos_num": cos.numerator, "m": p.m,
                                "minimal_index": p.minimal_index, "n": p.n}
                               for p in found for cos in [p.cosine]]},
          lead=[f"similarity classes with minimum <= {args.cmax}: {len(found)}"])
    return 0


def cmd_index_set(args) -> int:
    members = list(compress(range(args.jmax + 1), counts_up_to(args.jmax)))

    def lead():
        yield f"realizable indices up to {args.jmax}: {len(members)}"
        yield " ".join(str(J) for J in members)

    _emit(args.format, ["J"], ([str(J)] for J in members),
          lambda: {"count": len(members), "j_max": args.jmax, "members": members},
          lead=lead(), table=False)
    return 0


@cache  # built once per process; parse_args leaves the parser unchanged
def _build_parser() -> _Parser:
    parser = _Parser(prog="hexwr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, formats=("table", "csv", "json")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=formats, default="table")
        p.set_defaults(func=func)
        return p

    p = add("count", cmd_count, "count index-J similarity classes")
    p.add_argument("J", type=_index)

    p = add("maxmin", cmd_maxmin, "maximal minimum at fixed index")
    p.add_argument("J", type=_index, nargs="?")
    p.add_argument("--table1", action="store_true",
                   help="replay the eleven classical small-index rows")

    p = add("snr", cmd_snr, "rank index-J classes by signal-to-noise ratio")
    p.add_argument("J", type=_index)
    p.add_argument("--tol", type=_zeta_tol, default=1e-9,
                   help="relative tolerance for the zeta values")

    p = add("tree", cmd_tree, "generate the pair tree",
            formats=("table", "csv", "json", "dot"))
    p.add_argument("--cmax", type=_cmax)
    p.add_argument("--depth", type=_positive_int)

    p = add("oracle", cmd_oracle, "cross-validate against exhaustive enumeration")
    p.add_argument("jmax", type=_oracle_jmax)

    p = add("classes", cmd_classes, "list admissible classes by minimum")
    p.add_argument("--cmax", type=_cmax, required=True)

    p = add("index-set", cmd_index_set, "list realizable indices")
    p.add_argument("--jmax", type=_index_set_jmax, required=True)

    return parser


def _silence_stdout() -> None:
    """Point a closed pipe's stdout at os.devnull, so the flush at exit cannot fail again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed the pipe early, as `hexwr tree ... | head` does
        _silence_stdout()
        return 1


if __name__ == "__main__":
    sys.exit(main())
