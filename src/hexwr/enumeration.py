"""Counting and enumerating well-rounded sublattices by index.

A similarity class (m, n) contributes a sublattice of index J exactly when
J = k * n(2m - n) where the scale factor k factors as 3^u * j^2 * d with
u in {0, 1} and d a squarefree product of primes congruent to 1 mod 3.
This module lists such representations and counts them.  Two brute forces,
independent of that parameterization, check them: wr_survey reduces every
index-J sublattice in Hermite normal form, and wr_scan finds the reduced
bases of every well-rounded sublattice of index up to X among the lattice
vectors of norm up to X.  No serving command runs either: `hexwr oracle`
runs wr_scan, and the tests and the benchmark checks call wr_survey.

ClassParams, the name (m, n) of a class, is defined here (lattice
re-exports it), and admissibility is tested in arith (triples re-exports
is_admissible).  Counting needs only arith, so this module imports the
lattice geometry inside the functions that build sublattices, and a
command that only counts never loads lattice, triples or conic.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from operator import add
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional

from .arith import _check_admissible, divisors, factorize, is_admissible, multiplicities, norm_split
from .errors import InvariantViolation

if TYPE_CHECKING:
    from .lattice import HexSublattice

__all__ = [
    "ClassParams",
    "IndexRepresentation",
    "decompose_k",
    "list_representations",
    "count_N",
    "counts_up_to",
    "index_set_member",
    "hnf_sublattices",
    "WrClassRecord",
    "wr_survey",
    "wr_scan",
    "count_classes_bruteforce",
]


def decompose_k(k: int) -> Optional[tuple[int, int, int]]:
    """Split a scale factor as k = 3^u * j^2 * d (see arith.norm_split), or None if impossible.

    A valid d is exactly a k that splits as (0, 1, k), which is how
    IndexRepresentation checks its d.
    """
    return norm_split(factorize(k))


class _ClassParamsFields(NamedTuple):
    m: int
    n: int


class ClassParams(_ClassParamsFields):
    """Canonical name (m, n) of a similarity class of well-rounded sublattices.

    Admissible parameters: positive, coprime, 1 <= m/n <= 2, and m + n not
    divisible by 3.
    """

    __slots__ = ()

    def __new__(cls, m: int, n: int) -> ClassParams:
        _check_admissible(m, n)
        return super().__new__(cls, m, n)

    @property
    def class_minimum(self) -> int:
        """Smallest minimum over all sublattices in this class: m^2 - mn + n^2."""
        m, n = self.m, self.n
        return m * m - m * n + n * n

    @property
    def minimal_index(self) -> int:
        """Index of the minimal representative: n(2m - n)."""
        return self.n * (2 * self.m - self.n)

    @property
    def cosine(self) -> Fraction:
        """cos of the class angle, |n^2 + 2mn - 2m^2| / (2(m^2 - mn + n^2))."""
        m, n = self.m, self.n
        return Fraction(abs(n * n + 2 * m * n - 2 * m * m), 2 * self.class_minimum)

    def as_tuple(self) -> tuple[int, int]:
        return (self.m, self.n)

    def __str__(self) -> str:
        return f"({self.m},{self.n})"


class _IndexRepresentationFields(NamedTuple):
    u: int
    j: int
    d: int
    params: ClassParams


class IndexRepresentation(_IndexRepresentationFields):
    """One way of writing J = 3^u * j^2 * d * n(2m - n) with (m, n) admissible."""

    __slots__ = ()

    def __new__(cls, u: int, j: int, d: int, params: ClassParams) -> IndexRepresentation:
        if u not in (0, 1):
            raise ValueError("u must be 0 or 1")
        if j < 1:
            raise ValueError("j must be positive")
        if decompose_k(d) != (0, 1, d):
            raise ValueError(f"d={d} is not a squarefree product of primes = 1 mod 3")
        return super().__new__(cls, u, j, d, params)

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

    def to_sublattice(self) -> HexSublattice:
        """A concrete index-J well-rounded sublattice realizing this entry.

        Multiplies the minimal class representative by an Eisenstein integer
        of norm k, which scales every squared length and the index by k
        while keeping the angle.
        """
        from .lattice import HexSublattice, gamma_theta

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
    from .lattice import HexSublattice

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


def _ordered_records(
    J: int, found: dict[tuple[int, int, int], list]
) -> tuple[WrClassRecord, ...]:
    """Index-J records from {(cos_num, cos_den, minimum): [members, witness]}, best minimum first.

    Within a fixed index, angle and minimum determine each other (an angle
    theta and minimum M give 3 J^2 = 4 M^2 sin^2 theta), so one angle with
    two minima, or two angles with one minimum, raises InvariantViolation.
    """
    records = sorted(
        (WrClassRecord(*key, *value) for key, value in found.items()),
        key=lambda r: -r.minimum,
    )
    seen: dict[tuple[int, int], int] = {}
    for r in records:
        key = (r.cos_num, r.cos_den)
        if key in seen:
            raise InvariantViolation(
                f"index {J}: same angle {key} with different minima {seen[key]}, {r.minimum}"
            )
        seen[key] = r.minimum
    for r1, r2 in zip(records, records[1:]):
        if r1.minimum == r2.minimum:
            raise InvariantViolation(
                f"index {J}: two angles share the minimum {r1.minimum}"
            )
    return tuple(records)


@lru_cache(maxsize=1024)  # bounded: the tests and the benchmark checks read it
def wr_survey(J: int) -> tuple[WrClassRecord, ...]:
    """Brute-force scan of index J, grouped by angle, best minimum first.

    Reduces each of the sigma(J) sublattices in Hermite normal form.  Records
    are strictly ordered by minimum (see _ordered_records).
    """
    from .lattice import angle_data, successive_minima

    found: dict[tuple[int, int, int], list] = {}
    for L in hnf_sublattices(J):
        m1, m2 = successive_minima(L)
        if m1 != m2:
            continue
        data = angle_data(L)
        rec = found.setdefault((data.cos_num, data.cos_den, m1), [0, L])
        rec[0] += 1
    return _ordered_records(J, found)


def wr_scan(X: int) -> dict[int, tuple[WrClassRecord, ...]]:
    """Brute-force records of every index J <= X from one pass over short vectors.

    A lattice is well-rounded with minimum M exactly when it has a basis
    (v, w) with |v|^2 = |w|^2 = M and 0 <= 2<v, w> <= M, for such a basis is
    Lagrange-reduced.  With J = det(v, w) > 0 and p = 2<v, w>, the angle
    identity p^2 + 3 J^2 = 4 M^2 and 0 < p <= M put the minimum in
    sqrt(3)/2 * J < M <= J, so the vectors of norm <= X hold a basis of
    every well-rounded sublattice of index <= X.  Bucketing them by norm,
    the pairs within a bucket with det in (0, X] and that inner product are
    all such bases, 71,310 at X = 10^4.  A lattice of cosine 1/2 has 6 of
    them (its unit rotations), any other 2 (v, w and -v, -w); a remainder
    raises InvariantViolation.  The witness of a record is the first basis
    found.  Every J in 1..X is a key, () where no sublattice is well-rounded.
    """
    from .lattice import HexSublattice, dot2, norm_form

    if X < 1:
        raise ValueError(f"X={X} must be positive")
    by_norm: dict[int, list[tuple[int, int]]] = {}
    # a^2 - ab + b^2 <= X has real a exactly when 3 b^2 <= 4 X
    for b in range(-math.isqrt(4 * X // 3), math.isqrt(4 * X // 3) + 1):
        r = math.isqrt(4 * X - 3 * b * b)
        for a in range((b - r + 1) // 2, (b + r) // 2 + 1):
            by_norm.setdefault(norm_form(a, b), []).append((a, b))
    del by_norm[0]
    found: dict[int, dict[tuple[int, int, int], list]] = {}
    for M, vectors in by_norm.items():
        for a, b in vectors:
            for c, d in vectors:
                J = a * d - c * b
                if 0 < J <= X:
                    p = dot2(a, b, c, d)
                    if 0 <= p <= M:
                        g = math.gcd(p, 2 * M)
                        key = (p // g, 2 * M // g, M)
                        by_key = found.setdefault(J, {})
                        if key in by_key:
                            by_key[key][0] += 1
                        else:
                            by_key[key] = [1, HexSublattice(a, b, c, d)]
    scan = {}
    for J in range(1, X + 1):
        by_key = found.get(J, {})
        for key, rec in by_key.items():
            bases = 6 if key[:2] == (1, 2) else 2
            if rec[0] % bases:
                raise InvariantViolation(
                    f"index {J}: {rec[0]} bases of cosine {key[0]}/{key[1]}, "
                    f"not a multiple of {bases}"
                )
            rec[0] //= bases
        scan[J] = _ordered_records(J, by_key)
    return scan


def count_classes_bruteforce(J: int) -> int:
    """Distinct angles among well-rounded index-J sublattices, by brute force."""
    return len(wr_survey(J))
