"""Command line interface: counting, ranking, tree export, oracle checks."""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction
from functools import cache
from itertools import compress

from .enumeration import IndexRepresentation, counts_up_to, list_representations, wr_survey
from .errors import InvariantViolation
from .lattice import ClassParams
from .optimizer import REL_TOL_FLOOR, max_min, rank_by_snr
from .triples import admissible_params, generate_tree, node_id

# the eleven classical small indices replayed by `maxmin --table1`
TABLE1_INDICES = (8, 15, 21, 24, 32, 35, 40, 45, 55, 60, 65)
# deepest `tree --depth` served without --cmax: (5^D + 1)/2 nodes, 195,313 at D = 8
MAX_DEPTH_WITHOUT_CMAX = 8
# Size limits, each refused by argparse (exit 1) before any work starts.
# Every accepted input stays within 10 s and 500 MB peak RSS; figures are for
# a fresh process with stdout to /dev/null on a 2-core host with Python 3.11.
# largest `index-set --jmax`: the sieve and the output hold O(jmax) memory.
# 10**6 runs in at most 1.3 s and 100 MB in every format; 10**7 takes up
# to 11.6 s and 783 MB (csv).
MAX_INDEX_SET_JMAX = 10**6
# largest `tree --cmax` and `classes --cmax`: nodes and classes grow about
# linearly in cmax. At 10**6 tree takes 6.9-8.4 s and up to 259 MB (json),
# classes 1.6-3.1 s and up to 274 MB (json).
MAX_CMAX = 10**6
# largest `oracle` jmax: it reduces about 0.82 jmax**2 sublattices. 1000
# takes 4.4 s on 2 workers and 5.6 s on one; 1500 takes 9.3 s on 2 workers,
# so one worker would pass 10 s there. Each process stays under 20 MB.
MAX_ORACLE_JMAX = 1000


class _UsageError(Exception):
    """Bad flag combination detected after argparse ran."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _bounded_int(limit: int, what: str):
    """An argparse type for a positive integer of at most limit."""

    def parse(text: str) -> int:
        value = _positive_int(text)
        if value > limit:
            raise argparse.ArgumentTypeError(f"{text!r} is above the {what} bound {limit}")
        return value

    return parse


_index_set_jmax = _bounded_int(MAX_INDEX_SET_JMAX, "index-set")
_cmax = _bounded_int(MAX_CMAX, "--cmax")
_oracle_jmax = _bounded_int(MAX_ORACLE_JMAX, "oracle")


def _zeta_tol(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not value >= REL_TOL_FLOOR:
        raise argparse.ArgumentTypeError(f"{text!r} is below the zeta floor {REL_TOL_FLOOR:.3g}")
    return value


def _print_table(header: list[str], rows: list[list[str]]) -> None:
    widths = [len(h) for h in header]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


def _print_csv(header: list[str], rows: list[list[str]]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


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
    rows = [
        [str(v) for v in (r.u, r.j, r.d, r.params.m, r.params.n, r.k, r.minimum)]
        for r in reps
    ]
    if args.format == "json":
        _print_json(
            {
                "J": args.J,
                "count": len(reps),
                "representations": [
                    dict(r.to_json_obj(), k=r.k, minimum=r.minimum) for r in reps
                ],
            }
        )
    elif args.format == "csv":
        _print_csv(header, rows)
    else:
        print(f"N({args.J}) = {len(reps)}")
        if rows:
            _print_table(header, rows)
    return 0


def _maxmin_row(J: int):
    res = max_min(J)
    return res, [_witness_name(w) for w in res.witnesses]


def cmd_maxmin(args) -> int:
    if args.table1 == (args.J is not None):
        raise _UsageError("give exactly one of J or --table1")
    if args.table1:
        header = ["J", "max_minimum", "lattice"]
        rows = []
        json_rows = []
        for J in TABLE1_INDICES:
            res, names = _maxmin_row(J)
            lattice = "; ".join(names)
            rows.append([str(J), str(res.best_minimum), lattice])
            json_rows.append({"J": J, "lattice": lattice, "max_minimum": res.best_minimum})
        if args.format == "json":
            _print_json({"rows": json_rows})
        elif args.format == "csv":
            _print_csv(header, rows)
        else:
            _print_table(header, rows)
        return 0
    res, names = _maxmin_row(args.J)
    if args.format == "json":
        _print_json(
            {
                "J": args.J,
                "exists": res.exists,
                "max_minimum": res.best_minimum,
                "witnesses": [
                    {"k": w.k, "lattice": name, "m": w.params.m, "n": w.params.n}
                    for w, name in zip(res.witnesses, names)
                ],
            }
        )
    elif args.format == "csv":
        _print_csv(
            ["J", "max_minimum", "lattice"],
            [[str(args.J), str(res.best_minimum) if res.exists else "", "; ".join(names)]],
        )
    elif res.exists:
        print(f"max minimum of index-{args.J} well-rounded sublattices: {res.best_minimum}")
        print(f"attained by {'; '.join(names)}")
    else:
        print(f"no well-rounded sublattice of index {args.J}")
    return 0


def cmd_snr(args) -> int:
    ranking = rank_by_snr(args.J, rel_tol=args.tol)
    header = ["rank", "m", "n", "minimum", "snr_db", "error_bound"]
    rows = [
        [str(i + 1), str(p.m), str(p.n), str(mini), f"{s.db:.9f}", f"{s.abs_error_bound:.2e}"]
        for i, (p, mini, s) in enumerate(ranking)
    ]
    if args.format == "json":
        _print_json(
            {
                "J": args.J,
                "ranking": [
                    {
                        "abs_error_bound": s.abs_error_bound,
                        "m": p.m,
                        "minimum": mini,
                        "n": p.n,
                        "snr_db": s.db,
                    }
                    for p, mini, s in ranking
                ],
            }
        )
    elif args.format == "csv":
        _print_csv(header, rows)
    elif ranking:
        _print_table(header, rows)
    else:
        print(f"no well-rounded sublattice of index {args.J}")
    return 0


def cmd_tree(args) -> int:
    if args.cmax is None and args.depth is None:
        raise _UsageError("give at least one of --cmax or --depth")
    if args.cmax is None and args.depth > MAX_DEPTH_WITHOUT_CMAX:
        raise _UsageError(f"--depth above {MAX_DEPTH_WITHOUT_CMAX} needs --cmax")
    tree = generate_tree(c_max=args.cmax, max_depth=args.depth)
    if args.format == "dot":
        print(tree.to_dot())
    elif args.format == "json":
        _print_json(tree.to_json_obj())
    else:
        edge_rows = [[node_id(p), label, node_id(q)] for p, label, q in tree.edges]
        if args.format == "csv":
            _print_csv(["from", "label", "to"], edge_rows)
        else:
            print(f"nodes: {len(tree.nodes)}")
            print(f"edges: {len(tree.edges)}")
            for src, label, dst in edge_rows:
                print(f"{src} -{label}-> {dst}")
    return 0


def _oracle_check(J: int) -> tuple[int, int, int, int | None, int | None, list, list]:
    """Class counts and maxima of survey and parameterization at J, and the
    (cosine, minimum) entries that only the survey or only the parameterization found."""
    enumerated = {Fraction(rec.cos_num, rec.cos_den): rec.minimum for rec in wr_survey(J)}
    parameterized = {rep.params.cosine: rep.minimum for rep in list_representations(J)}
    return (J, len(enumerated), len(parameterized), max(enumerated.values(), default=None),
            max(parameterized.values(), default=None),
            sorted(enumerated.items() - parameterized.items()),
            sorted(parameterized.items() - enumerated.items()))


def _class_entry(entry: tuple[Fraction, int]) -> dict:
    cos, minimum = entry
    return {"cos_den": cos.denominator, "cos_num": cos.numerator, "minimum": minimum}


def _oracle_workers(jmax: int) -> int:
    """Worker processes for an oracle scan: HEXWR_THREADS, at most one per CPU and per index."""
    workers = min(max(1, os.cpu_count() or 1), jmax)
    raw = os.environ.get("HEXWR_THREADS", "")
    if raw.strip():
        try:
            threads = int(raw)
        except ValueError:
            raise _UsageError(f"HEXWR_THREADS={raw!r} is not an integer")
        workers = min(workers, max(1, threads))
    return workers


def cmd_oracle(args) -> int:
    jmax = args.jmax
    workers = _oracle_workers(jmax)
    indices = range(1, jmax + 1)
    if workers == 1:
        results = [_oracle_check(J) for J in indices]
    else:
        # loaded here: it pulls in multiprocessing, which no other command needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, jmax // (4 * workers))
            results = list(pool.map(_oracle_check, indices, chunksize=chunk))
    results.sort(key=lambda r: r[0])
    bad = [r for r in results if r[5] or r[6]]
    if args.format == "json":
        _print_json(
            {
                "agree": not bad,
                "checked": len(results),
                "disagreements": [
                    {
                        "J": J,
                        "enumerated_classes": ec,
                        "enumerated_max": em,
                        "only_enumerated": [_class_entry(e) for e in oe],
                        "only_parameterized": [_class_entry(e) for e in op],
                        "parameterized_classes": pc,
                        "parameterized_max": pm,
                    }
                    for J, ec, pc, em, pm, oe, op in bad
                ],
                "j_max": jmax,
            }
        )
    elif args.format == "csv":
        _print_csv(
            ["J", "enumerated_classes", "parameterized_classes",
             "enumerated_max", "parameterized_max"],
            [[str(J), str(ec), str(pc), "" if em is None else str(em),
              "" if pm is None else str(pm)] for J, ec, pc, em, pm, _, _ in results],
        )
    elif bad:
        for J, ec, pc, em, pm, oe, op in bad:
            print(f"J={J}: classes {ec} vs {pc}, max minimum {em} vs {pm}")
            for side, entries in (("enumerated", oe), ("parameterized", op)):
                for cos, minimum in entries:
                    print(f"  only {side}: cos {cos}, minimum {minimum}")
        print(f"DISAGREE: {len(bad)}/{len(results)} indices differ")
    else:
        print(f"OK: {len(results)}/{len(results)} indices agree")
    return 2 if bad else 0


def cmd_classes(args) -> int:
    found = sorted(
        (ClassParams(m, n) for m, n in admissible_params(args.cmax)),
        key=lambda p: (p.class_minimum, p.m),
    )
    cosines = [p.cosine for p in found]
    if args.format == "json":
        _print_json(
            {
                "c_max": args.cmax,
                "classes": [
                    {
                        "class_minimum": p.class_minimum,
                        "cos_den": cos.denominator,
                        "cos_num": cos.numerator,
                        "m": p.m,
                        "minimal_index": p.minimal_index,
                        "n": p.n,
                    }
                    for p, cos in zip(found, cosines)
                ],
                "count": len(found),
            }
        )
    else:
        header = ["m", "n", "class_minimum", "minimal_index", "cos"]
        rows = [
            [str(p.m), str(p.n), str(p.class_minimum), str(p.minimal_index),
             f"{cos.numerator}/{cos.denominator}"]
            for p, cos in zip(found, cosines)
        ]
        if args.format == "csv":
            _print_csv(header, rows)
        else:
            print(f"similarity classes with minimum <= {args.cmax}: {len(found)}")
            _print_table(header, rows)
    return 0


def cmd_index_set(args) -> int:
    members = list(compress(range(args.jmax + 1), counts_up_to(args.jmax)))
    if args.format == "json":
        _print_json({"count": len(members), "j_max": args.jmax, "members": members})
    elif args.format == "csv":
        _print_csv(["J"], [[str(J)] for J in members])
    else:
        print(f"realizable indices up to {args.jmax}: {len(members)}")
        print(" ".join(str(J) for J in members))
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
    p.add_argument("J", type=_positive_int)

    p = add("maxmin", cmd_maxmin, "maximal minimum at fixed index")
    p.add_argument("J", type=_positive_int, nargs="?")
    p.add_argument("--table1", action="store_true",
                   help="replay the eleven classical small-index rows")

    p = add("snr", cmd_snr, "rank index-J classes by signal-to-noise ratio")
    p.add_argument("J", type=_positive_int)
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
