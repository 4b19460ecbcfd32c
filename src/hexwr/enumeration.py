"""Counting and enumerating well-rounded sublattices by index.

A similarity class (m, n) contributes a sublattice of index J exactly when
J = k * n(2m - n) where the scale factor k factors as 3^u * j^2 * d with
u in {0, 1} and d a squarefree product of primes congruent to 1 mod 3.
This module lists such representations, counts them, and checks them
against a brute-force survey of all index-J sublattices in Hermite normal
form.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from operator import add
from typing import Iterator, NamedTuple, Optional

from .arith import divisors, factorize, multiplicities, norm_split
from .errors import InvariantViolation
from .lattice import (
    ClassParams,
    HexSublattice,
    angle_data,
    gamma_theta,
    successive_minima,
)
from .triples import is_admissible

__all__ = [
    "IndexRepresentation",
    "decompose_k",
    "list_representations",
    "count_N",
    "counts_up_to",
    "index_set_member",
    "hnf_sublattices",
    "WrClassRecord",
    "wr_survey",
    "count_classes_bruteforce",
]


def decompose_k(k: int) -> Optional[tuple[int, int, int]]:
    """Split a scale factor as k = 3^u * j^2 * d (see arith.norm_split), or None if impossible.

    A valid d is exactly a k that splits as (0, 1, k), which is how
    IndexRepresentation checks its d.
    """
    return norm_split(factorize(k))


@dataclass(frozen=True)
class IndexRepresentation:
    """One way of writing J = 3^u * j^2 * d * n(2m - n) with (m, n) admissible."""

    u: int
    j: int
    d: int
    params: ClassParams

    def __post_init__(self) -> None:
        if self.u not in (0, 1):
            raise ValueError("u must be 0 or 1")
        if self.j < 1:
            raise ValueError("j must be positive")
        if decompose_k(self.d) != (0, 1, self.d):
            raise ValueError(f"d={self.d} is not a squarefree product of primes = 1 mod 3")

    @property
    def k(self) -> int:
        """Scale factor 3^u * j^2 * d relating this member to the minimal one."""
        return 3**self.u * self.j * self.j * self.d

    @property
    def J(self) -> int:
        return self.k * self.params.minimal_index

    @property
    def minimum(self) -> int:
        """Minimum of the index-J member: k times the class minimum."""
        return self.k * self.params.class_minimum

    def to_json_obj(self) -> dict:
        return {
            "u": self.u,
            "j": self.j,
            "d": self.d,
            "m": self.params.m,
            "n": self.params.n,
        }

    def to_sublattice(self) -> HexSublattice:
        """A concrete index-J well-rounded sublattice realizing this entry.

        Multiplies the minimal class representative by an Eisenstein integer
        of norm k, which scales every squared length and the index by k
        while keeping the angle.
        """
        x, y = _norm_representation(self.k)
        g = gamma_theta(self.params)
        # coefficient matrix of multiplication by x + y*omega, times g's
        a = x * g.a - y * g.b
        b = y * g.a + (x - y) * g.b
        c = x * g.c - y * g.d
        d = y * g.c + (x - y) * g.d
        return HexSublattice(a, b, c, d)


def _norm_representation(k: int) -> tuple[int, int]:
    """Some (x, y) with x^2 - xy + y^2 = k; exists whenever k is a valid scale.

    Scanning y up to sqrt(k) is enough: every representable k has a
    solution with 0 <= y <= x, and those have y^2 <= k.
    """
    for y in range(math.isqrt(k) + 2):
        disc = 4 * k - 3 * y * y
        if disc < 0:
            break
        r = math.isqrt(disc)
        if r * r == disc and (y + r) % 2 == 0:
            return ((y + r) // 2, y)
    raise InvariantViolation(f"no Eisenstein integer of norm {k}; invalid scale factor")


def list_representations(J: int) -> list[IndexRepresentation]:
    """All representations of J, one per (class, scale) pair.

    Runs over divisors D of J that can equal n(2m - n) for admissible
    (m, n), keeping those whose cofactor J/D splits as a valid scale.
    J is factored once; each cofactor's exponents and each D's divisors
    are read off J's primes and divisors.
    """
    fac = factorize(J)
    divs = divisors(fac)
    reps = []
    for dv in divs:
        comp = norm_split(multiplicities(J // dv, fac))
        if comp is None:
            continue
        u, j, d = comp
        # dv = n(2m - n) with n <= m <= 2n puts n between sqrt(dv/3) and sqrt(dv)
        for i in range(bisect_left(divs, math.isqrt(dv // 3)), len(divs)):
            n = divs[i]
            if n * n > dv:
                break
            w, r = divmod(dv, n)  # w: candidate value of 2m - n
            m = (w + n) // 2
            if r == 0 and (w + n) % 2 == 0 and is_admissible(m, n):
                reps.append(IndexRepresentation(u=u, j=j, d=d, params=ClassParams(m, n)))
    return reps


def count_N(J: int) -> int:
    """Number of similarity classes of well-rounded sublattices of index J."""
    return len(list_representations(J))


def _valid_scales(X: int) -> bytearray:
    """valid[k] = 1 exactly when 1 <= k <= X is a scale 3^u * j^2 * d (see arith.norm_split).

    That is when every prime = 2 mod 3 divides k to an even power.  A prime
    sieve finds those primes p; each one zeroes its multiples, then restores
    valid(p^2 * i) = valid(i), two powers of p per pass.  Every step is a
    slice assignment, so no Python loop runs over the k.
    """
    is_prime = bytearray([1]) * (X + 1)
    for p in range(2, math.isqrt(X) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = bytes(len(range(p * p, X + 1, p)))
    valid = bytearray([1]) * (X + 1)
    valid[0] = 0
    for p in compress(range(2, X + 1), is_prime[2:]):
        if p % 3 != 2:
            continue
        valid[p::p] = bytes(X // p)
        sq = pe = p * p
        while pe <= X:
            valid[sq::sq] = valid[1 : X // sq + 1]
            pe *= sq
    return valid


def counts_up_to(X: int) -> list[int]:
    """[N(0), N(1), ..., N(X)]: the class count of every index up to X from one sieve.

    Each admissible (m, n) with D = n(2m - n) <= X adds valid[k] at k * D for
    every k <= X / D, which is list_representations(J) counted for all J at
    once, without factoring any J.  Memory is O(X).
    """
    if X < 0:
        raise ValueError(f"X={X} must be non-negative")
    valid = _valid_scales(X)
    counts = [0] * (X + 1)
    for n in range(1, math.isqrt(X) + 1):
        # D <= X bounds 2m - n by X // n
        for m in range(n, min(2 * n, (X // n + n) // 2) + 1):
            if is_admissible(m, n):
                D = n * (2 * m - n)
                counts[D::D] = map(add, counts[D::D], valid[1 : X // D + 1])
    return counts


def index_set_member(J: int) -> bool:
    """True when some well-rounded sublattice has index J."""
    return bool(list_representations(J))


def hnf_sublattices(J: int) -> Iterator[HexSublattice]:
    """Every index-J sublattice exactly once, as [[A,B],[0,D]] with AD = J.

    Upper-triangular Hermite form with 0 <= B < A makes the enumeration
    canonical; there are sigma(J) of them in total.
    """
    for A in divisors(factorize(J)):
        D = J // A
        for B in range(A):
            yield HexSublattice(A, 0, B, D)


class WrClassRecord(NamedTuple):
    """Aggregate of all well-rounded index-J sublattices sharing one angle."""

    cos_num: int
    cos_den: int
    minimum: int
    members: int
    witness: HexSublattice


@lru_cache(maxsize=1024)  # bounded: only the oracle and the tests read it
def wr_survey(J: int) -> tuple[WrClassRecord, ...]:
    """Brute-force scan of index J, grouped by angle, best minimum first.

    Within a fixed index, angle and minimum determine each other, so
    records are strictly ordered by minimum; a tie would falsify that
    correspondence and raises InvariantViolation.
    """
    by_cos: dict[tuple[int, int], list] = {}
    for L in hnf_sublattices(J):
        m1, m2 = successive_minima(L)
        if m1 != m2:
            continue
        data = angle_data(L)
        key = (data.cos_num, data.cos_den)
        rec = by_cos.get(key)
        if rec is None:
            by_cos[key] = [m1, 1, L]
        else:
            if rec[0] != m1:
                raise InvariantViolation(
                    f"index {J}: same angle {key} with different minima {rec[0]}, {m1}"
                )
            rec[1] += 1
    records = sorted(
        (WrClassRecord(k[0], k[1], v[0], v[1], v[2]) for k, v in by_cos.items()),
        key=lambda r: -r.minimum,
    )
    for r1, r2 in zip(records, records[1:]):
        if r1.minimum == r2.minimum:
            raise InvariantViolation(
                f"index {J}: two angles share the minimum {r1.minimum}"
            )
    return tuple(records)


def count_classes_bruteforce(J: int) -> int:
    """Distinct angles among well-rounded index-J sublattices, by brute force."""
    return len(wr_survey(J))
