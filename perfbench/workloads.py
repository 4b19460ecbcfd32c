"""Seeded request streams for the hexwr benchmark, and the untimed checks.

A workload is an endless stream of requests drawn from ``random.Random(seed)``,
in blocks with fixed proportions, so a run of any length sees the same mix.
Every input is used once per run: warm-up inputs never recur in the timed
loop, and the unbounded cache on ``wr_survey`` never hits across requests,
just as for a user who runs the CLI once per question.

Most requests call ``hexwr.cli.main`` in-process with ``--format json``; the
conic scan calls a public library function.  Every call
goes through a module attribute looked up at call time, so the tracer's
wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from itertools import islice
from random import Random
from typing import Callable, Iterator

from hexwr import cli, conic, enumeration, triples

# J at or below this is cross-checked against the brute-force survey.
BRUTE_J = 10**4
# index-set members up to this J are cross-checked against the survey.
BRUTE_INDEX_SET = 200


@dataclass(frozen=True)
class Request:
    kind: str
    args: tuple[int, ...]


# ---------------------------------------------------------------------------
# integer helpers, independent of hexwr
# ---------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int, residue3: int | None = None) -> int:
    """Smallest prime >= n, optionally restricted to one residue mod 3."""
    while not (is_prime(n) and (residue3 is None or n % 3 == residue3)):
        n += 1
    return n


def factorize(n: int) -> dict[int, int]:
    """Trial division; meant for n up to about 10^8."""
    fac: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            fac[p] = fac.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        fac[n] = fac.get(n, 0) + 1
    return fac


def sigma(n: int) -> int:
    """Sum of divisors: the number of index-n sublattices in Hermite form."""
    return math.prod((p ** (e + 1) - 1) // (p - 1) for p, e in factorize(n).items())


def admissible(m: int, n: int) -> bool:
    return 1 <= n <= m <= 2 * n and math.gcd(m, n) == 1 and (m + n) % 3 != 0


def index_tables(N: int) -> tuple[list[int], list[int]]:
    """Class count and divisor sum of every J <= N, by sieving.

    A class (m, n) occurs at index J exactly when J = k n(2m - n) with every
    prime = 2 (mod 3) dividing k to an even power.
    """
    ndiv, sig = [0] * (N + 1), [0] * (N + 1)
    for d in range(1, N + 1):
        for J in range(d, N + 1, d):
            ndiv[J] += 1
            sig[J] += d
    valid = [False] + [True] * N
    for p in range(2, N + 1):
        if p % 3 == 2 and ndiv[p] == 2:
            for k in range(p, N + 1, p):
                e, q = 0, k
                while q % p == 0:
                    q //= p
                    e += 1
                valid[k] = valid[k] and e % 2 == 0
    classes = [0] * (N + 1)
    for n in range(1, math.isqrt(N) + 1):
        for m in range(n, 2 * n + 1):
            D = n * (2 * m - n)
            if D <= N and admissible(m, n):
                for k in range(1, N // D + 1):
                    classes[D * k] += valid[k]
    return classes, sig


# ---------------------------------------------------------------------------
# request streams
# ---------------------------------------------------------------------------
#
# A block draws one input from every stratum of each group's input range.
# Inside a block every stratum is sampled at the same relative position u,
# and u steps by the golden ratio from one block to the next, from a start
# the seed picks (systematic sampling).  So the inputs of any run cover every
# stratum evenly, and the spread of request costs, which sets the latency
# percentiles, hardly depends on the seed; the seed still decides every
# input.  Blocks are interleaved in a fixed low-discrepancy order, so that the
# requests a time-bounded run completes are spread over the strata and
# groups too.

_GOLDEN = (math.sqrt(5) - 1) / 2


def _strata(pool: list, strata: int, weight: Callable[[int], float] = lambda x: 1.0):
    """Split ``pool`` into ``strata`` consecutive slices of equal total weight."""
    total = sum(map(weight, pool))
    bounds, acc = [0], 0.0
    for i, x in enumerate(pool):
        acc += weight(x)
        if acc >= total * len(bounds) / strata and len(bounds) < strata:
            bounds.append(i + 1)
    bounds.append(len(pool))
    return [pool[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


class _Draw:
    """The seeded source of one stream's inputs; never repeats an input."""

    def __init__(self, rng: Random, used: set) -> None:
        self.rng, self.used = rng, used
        self.u = rng.random()

    def next_block(self) -> None:
        self.u = (self.u + _GOLDEN) % 1.0

    def at(self, lo: float, hi: float, stratum: int, strata: int,
           log: bool = True, phase: float = 0.0) -> float:
        """The point at position u + phase of stratum ``stratum`` of [lo, hi], log scale or not."""
        t = (stratum + (self.u + phase) % 1.0) / strata
        if not log:
            return lo + (hi - lo) * t
        return math.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * t)

    def fresh(self, make: Callable[[int], object]):
        """The first of ``make(0)``, ``make(1)``, ... that this run has not used yet."""
        for k in range(10_000):
            key = make(k)
            if key not in self.used:
                self.used.add(key)
                return key
        raise RuntimeError("the input range has no unused input left")

    def pick(self, stratum: list):
        """The unused member of the sorted ``stratum`` nearest after position u."""
        i = int(self.u * len(stratum))
        for x in stratum[i:] + stratum[:i]:
            if x not in self.used:
                self.used.add(x)
                return x
        raise RuntimeError("a stratum has no unused input left")


def _bit_reversed(n: int) -> list[int]:
    """0..n-1 in bit-reversed order: every prefix is spread over the range."""
    bits = max(1, (n - 1).bit_length())
    order = (int(format(k, f"0{bits}b")[::-1], 2) for k in range(1 << bits))
    return [i for i in order if i < n]


def _interleave(groups: list[list[Request]]) -> list[Request]:
    """One block from groups ordered by stratum, each group evenly spaced."""
    keyed = []
    for g, group in enumerate(groups):
        for rank, i in enumerate(_bit_reversed(len(group))):
            keyed.append(((rank + 0.5) / len(group), g, group[i]))
    return [req for _key, _g, req in sorted(keyed, key=lambda t: t[:2])]


# primes = 1 (mod 3) that build the smooth tail indices
_SMOOTH_PRIMES = [p for p in range(200, 700) if p % 3 == 1 and is_prime(p)]


# The cost of a tail index is about sqrt(J) times a factor that its shape sets:
# the number of divisors and the residues of its primes mod 3.  Each shape
# below fixes those for a given turn, so that the cost follows J smoothly.


def _tail_prime(rng: Random, target: float, turn: int) -> int:
    return next_prime(math.ceil(target), residue3=1 + turn % 2)


def _tail_semiprime(rng: Random, target: float, turn: int) -> int:
    p = next_prime(int(0.9 * math.sqrt(target)), residue3=1 + turn % 2)
    return p * next_prime(math.ceil(target / p), residue3=2)


def _tail_smooth(rng: Random, target: float, turn: int) -> int:
    head = math.prod(rng.choice(_SMOOTH_PRIMES) for _ in range(3))
    return head * next_prime(math.ceil(target / head), residue3=1)


def _tail_pow2(rng: Random, target: float, turn: int) -> int:
    """2^e times a prime = 1 (mod 3) in [2^14, 2^16), e of the parity of ``turn``."""
    e = int(target).bit_length() - 15
    e -= (e - turn) % 2
    return next_prime(int(target) >> e, residue3=1) << e


_TAIL_SHAPES = (_tail_prime, _tail_semiprime, _tail_smooth, _tail_pow2)


def _count_mixed(draw: _Draw) -> list[Request]:
    """80 requests: 28 count, 28 maxmin, 12 index-set, and 12 in the tail (15 %).

    Small J are log-uniform in [100, 1e6], one per stratum for each command.
    Tail J lie in [1e11, 1e13], one in each twelfth of the log range (aimed 1 %
    short of 1e13, so that rounding up to a prime stays inside); the four
    shapes take turns, each shape once with each command per pair of turns.
    """
    groups = [
        [Request(kind, (draw.fresh(lambda k: int(draw.at(100, 10**6, s, 28, phase=phase)) + k),))
         for s in range(28)]
        for kind, phase in (("count", 0.0), ("maxmin", 0.5))
    ]
    groups.append([
        Request("index-set", (draw.fresh(lambda k: ("X", int(draw.at(100, 1000, s, 12, log=False)) + k))[1],))
        for s in range(12)
    ])
    groups.append([
        Request(("count", "maxmin")[(s + s // 4) % 2],
                (draw.fresh(lambda k: _TAIL_SHAPES[s % 4](
                    draw.rng, draw.at(10**11, 0.99e13, s, 12) * (1 - 1e-4 * k), s // 4)),))
        for s in range(12)
    ])
    return _interleave(groups)


class _SnrRank:
    """50 distinct J in [1e3, 3e4] with at least 2 classes, one per cost stratum.

    J is weighted log-uniformly.  The cost proxy is the survey size sigma(J)
    plus a fixed share per zeta evaluation, one per class.
    """

    def __init__(self) -> None:
        classes, sig = index_tables(3 * 10**4)
        pool = [J for J in range(10**3, 3 * 10**4 + 1) if classes[J] >= 2]
        pool.sort(key=lambda J: (sig[J] + 6000 * classes[J], J))
        self.strata = _strata(pool, 50, lambda J: 1 / J)

    def __call__(self, draw: _Draw) -> list[Request]:
        return _interleave([[Request("snr", (draw.pick(st),)) for st in self.strata]])


class _PairTree:
    """40 requests: 6 tree and 6 classes, C log-uniform in [1e4, 1e5]; 28 conic scans.

    A scan of ``scaled_angle_solutions(d, q_max)`` tries about side^2 lines,
    side = 2 q_max (isqrt(d) + 1) + 1.  The scans with side in [40, 200] and
    d < 1e4 equal to 1 or a squarefree product of primes = 1 (mod 3) fall into
    cost strata of equal total weight 1/side; each holds at least 20 scans,
    enough for a run.
    """

    def __init__(self) -> None:
        scales = [d for d in range(1, 10**4)
                  if all(e == 1 and p % 3 == 1 for p, e in factorize(d).items())]
        side = lambda dq: 2 * dq[1] * (math.isqrt(dq[0]) + 1) + 1  # noqa: E731
        pool = sorted((side((d, q)), d, q) for d in scales for q in range(1, 101)
                      if 40 <= side((d, q)) <= 200)
        self.scans = _strata([(d, q) for _s, d, q in pool], 28, lambda dq: 1 / side(dq))

    def __call__(self, draw: _Draw) -> list[Request]:
        groups = [
            [Request(kind, (draw.fresh(lambda k: int(draw.at(10**4, 10**5, s, 6, phase=phase)) + k),))
             for s in range(6)]
            for kind, phase in (("tree", 0.0), ("classes", 0.5))
        ]
        groups.append([Request("sas", draw.pick(st)) for st in self.scans])
        return _interleave(groups)


_BLOCKS = {
    "count-mixed": lambda: _count_mixed,
    "snr-rank": _SnrRank,
    "pair-tree": _PairTree,
}


def streams(workload: str, seed: int, warmup: int) -> tuple[list[Request], Iterator[Request]]:
    """Warm-up requests and the endless timed stream of one workload.

    Both come from ``seed`` and share one set of used inputs, so the warm-up
    never repeats a timed input.
    """
    make_block = _BLOCKS[workload]()
    used: set = set()

    def blocks(rng: Random) -> Iterator[Request]:
        draw = _Draw(rng, used)
        while True:
            yield from make_block(draw)
            draw.next_block()

    warm = list(islice(blocks(Random(f"warm-up {seed}")), warmup))
    return warm, blocks(Random(seed))


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

_ARGV = {
    "count": lambda J: ["count", str(J)],
    "maxmin": lambda J: ["maxmin", str(J)],
    "index-set": lambda X: ["index-set", "--jmax", str(X)],
    "snr": lambda J: ["snr", str(J)],
    "tree": lambda C: ["tree", "--cmax", str(C)],
    "classes": lambda C: ["classes", "--cmax", str(C)],
}


def execute(req: Request):
    """Run one request; CLI requests return (exit code, stdout, stderr)."""
    if req.kind == "sas":
        return conic.scaled_angle_solutions(*req.args)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(_ARGV[req.kind](*req.args) + ["--format", "json"])
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# checks: each returns None when the answer is right, else a message
# ---------------------------------------------------------------------------


class CheckFailed(Exception):
    pass


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _class_minimum(m: int, n: int) -> int:
    return m * m - m * n + n * n


def _check_member(J: int, m: int, n: int, k: int, minimum: int) -> None:
    _expect(admissible(m, n), f"({m},{n}) is not admissible")
    _expect(k * n * (2 * m - n) == J, f"k={k}, ({m},{n}) does not give index {J}")
    _expect(minimum == k * _class_minimum(m, n), f"minimum {minimum} != k * class minimum")


def _check_count(J: int, obj: dict) -> None:
    reps = obj["representations"]
    _expect(obj["J"] == J and obj["count"] == len(reps), "count header mismatch")
    _expect(len({(r["m"], r["n"]) for r in reps}) == len(reps), "class listed twice")
    for r in reps:
        _expect(r["u"] in (0, 1) and r["j"] >= 1 and r["d"] % 3 == 1, f"bad scale split {r}")
        _expect(r["k"] == 3 ** r["u"] * r["j"] ** 2 * r["d"], f"k != 3^u j^2 d in {r}")
        _check_member(J, r["m"], r["n"], r["k"], r["minimum"])
    if J <= BRUTE_J:
        brute = enumeration.count_classes_bruteforce(J)
        _expect(len(reps) == brute, f"N({J}) = {len(reps)}, survey finds {brute}")


def _check_maxmin(J: int, obj: dict) -> None:
    best, wit = obj["max_minimum"], obj["witnesses"]
    _expect(obj["J"] == J and obj["exists"] == bool(wit), "maxmin header mismatch")
    for w in wit:
        _check_member(J, w["m"], w["n"], w["k"], best)
    if J <= BRUTE_J:
        survey = enumeration.wr_survey(J)
        _expect(best == (survey[0].minimum if survey else None),
                f"max minimum of {J} is {best}, survey disagrees")


def _check_index_set(X: int, obj: dict) -> None:
    members = obj["members"]
    _expect(obj["j_max"] == X and obj["count"] == len(members), "index-set header mismatch")
    _expect(all(1 <= a < b <= X for a, b in zip(members, members[1:])), "members not sorted")
    low = set(J for J in members if J <= BRUTE_INDEX_SET)
    brute = {J for J in range(1, min(X, BRUTE_INDEX_SET) + 1)
             if enumeration.count_classes_bruteforce(J)}
    _expect(low == brute, f"index set below {BRUTE_INDEX_SET} differs from the survey")


def _check_snr(J: int, obj: dict) -> None:
    ranking = obj["ranking"]
    _expect(obj["J"] == J and len(ranking) >= 2, f"snr {J}: fewer than 2 classes")
    _expect(len(ranking) == enumeration.count_N(J),
            f"snr {J}: {len(ranking)} classes, count_N disagrees")
    for r in ranking:
        D = r["n"] * (2 * r["m"] - r["n"])
        _expect(J % D == 0, f"({r['m']},{r['n']}) does not divide index {J}")
        _check_member(J, r["m"], r["n"], J // D, r["minimum"])
    for a, b in zip(ranking, ranking[1:]):
        _expect(a["minimum"] > b["minimum"], f"snr {J}: minima do not strictly decrease")
        _expect(a["snr_db"] > b["snr_db"], f"snr {J}: SNR does not strictly decrease")


def _check_tree(C: int, obj: dict) -> None:
    nodes = obj["nodes"]
    expected = {f"{p.upper.a},{p.upper.b},{p.upper.c}" for p in triples.all_pairs_up_to(C)}
    _expect(obj["c_max"] == C and len(set(nodes)) == len(nodes), "tree lists a node twice")
    _expect(set(nodes) == expected, f"tree {C}: node set differs from all_pairs_up_to")


def _check_classes(C: int, obj: dict) -> None:
    classes = obj["classes"]
    minima = [c["class_minimum"] for c in classes]
    _expect(obj["c_max"] == C and obj["count"] == len(classes), "classes header mismatch")
    _expect(len(classes) == len(triples.all_pairs_up_to(C)),
            f"classes {C}: count differs from all_pairs_up_to")
    _expect(minima == sorted(minima) and all(x <= C for x in minima), "classes out of order")
    for c in classes:
        _expect(admissible(c["m"], c["n"]) and c["class_minimum"] == _class_minimum(c["m"], c["n"]),
                f"bad class {c}")


_CLI_CHECKS = {
    "count": _check_count,
    "maxmin": _check_maxmin,
    "index-set": _check_index_set,
    "snr": _check_snr,
    "tree": _check_tree,
    "classes": _check_classes,
}


def _brute_scaled(d: int, q_max: int) -> list[tuple[int, int, int]]:
    out = []
    for q in range(1, q_max + 1):
        for r in range(math.isqrt(d * q * q // 3) + 1):
            p2 = d * q * q - 3 * r * r
            p = math.isqrt(p2)
            if p * p == p2 and math.gcd(math.gcd(p, r), q) == 1:
                out.append((p, r, q))
    return sorted(out)


def _check_sas(d: int, q_max: int, result) -> None:
    got = [t.as_tuple() for t in result]
    for p, r, q in got:
        _expect(p * p + 3 * r * r == d * q * q, f"({p},{r},{q}) off p^2+3r^2={d}q^2")
        _expect(math.gcd(math.gcd(p, r), q) == 1 and 0 < q <= q_max and p >= 0 and r >= 0,
                f"({p},{r},{q}) not primitive or out of range")
    _expect(sorted(got) == _brute_scaled(d, q_max), f"d={d}, q_max={q_max}: solution set differs")


def check(req: Request, result) -> str | None:
    """None when the answer is right, else what is wrong with it."""
    try:
        if req.kind == "sas":
            _check_sas(*req.args, result)
        else:
            code, out, err = result
            _expect(code == 0, f"exit code {code}: {err.strip()}")
            _CLI_CHECKS[req.kind](*req.args, json.loads(out))
    except (CheckFailed, KeyError, TypeError, ValueError) as exc:
        return f"{req.kind} {req.args}: {type(exc).__name__}: {exc}"
    return None
