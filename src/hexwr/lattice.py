"""Sublattices of the hexagonal lattice in exact integer coordinates.

A full-rank sublattice is stored as a 2x2 integer coefficient matrix
[[a, c], [b, d]] whose columns give the basis vectors in hexagonal
coordinates, so the squared length of a column (a, b) is the integer
a^2 - ab + b^2 and the index of the sublattice is |ad - cb|.  Everything
here (reduction, minima, well-roundedness, the angle between minimal
vectors) stays in integer or exact rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .conic import ProjectiveTriple
from .errors import InvariantViolation
from .triples import _check_admissible, pair_of_angle_point, params_from_triple

__all__ = [
    "HexSublattice",
    "AngleData",
    "ClassParams",
    "norm_form",
    "dot2",
    "lagrange_reduce",
    "minimum",
    "successive_minima",
    "is_well_rounded",
    "angle_data",
    "gamma_theta",
    "omega_theta",
    "class_of",
]


def norm_form(a: int, b: int) -> int:
    """Squared length of the lattice vector with hexagonal coefficients (a, b)."""
    return a * a - a * b + b * b


def dot2(a: int, b: int, c: int, d: int) -> int:
    """Twice the inner product of coefficient vectors (a, b) and (c, d).

    Doubling keeps it an integer; the factor cancels against 2|x||y| in the
    cosine.
    """
    return 2 * a * c + 2 * b * d - a * d - b * c


@dataclass(frozen=True)
class HexSublattice:
    """Coefficient matrix [[a, c], [b, d]]; columns are the basis vectors."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if self.det == 0:
            raise ValueError("coefficient matrix is singular")

    @property
    def det(self) -> int:
        return self.a * self.d - self.c * self.b

    @property
    def index(self) -> int:
        """Index in the ambient hexagonal lattice."""
        return abs(self.det)

    @property
    def norms(self) -> tuple[int, int]:
        """Squared lengths of the two basis columns as given."""
        return (norm_form(self.a, self.b), norm_form(self.c, self.d))

    @property
    def inner2(self) -> int:
        """Twice the inner product of the two basis columns."""
        return dot2(self.a, self.b, self.c, self.d)

    def __str__(self) -> str:
        return f"[[{self.a},{self.c}],[{self.b},{self.d}]]"


def lagrange_reduce(L: HexSublattice) -> HexSublattice:
    """Basis of the same lattice whose columns realize the successive minima.

    Classical two-dimensional reduction: repeatedly shorten the longer
    column by the best integer multiple of the shorter one.  The result has
    first norm <= second norm and |doubled inner product| <= first norm;
    a basis already in that shape comes back unchanged (in particular the
    boundary case with equality is accepted as reduced).
    """
    v1 = (L.a, L.b)
    v2 = (L.c, L.d)
    if norm_form(*v2) < norm_form(*v1):
        v1, v2 = v2, v1
    while True:
        n1 = norm_form(*v1)
        two_ip = dot2(*v1, *v2)
        t = (two_ip + n1) // (2 * n1)  # nearest integer to the projection
        if t:
            v2 = (v2[0] - t * v1[0], v2[1] - t * v1[1])
        if norm_form(*v2) < n1:
            v1, v2 = v2, v1
        else:
            break
    return HexSublattice(v1[0], v1[1], v2[0], v2[1])


def successive_minima(L: HexSublattice) -> tuple[int, int]:
    """The two successive minima, as exact integers."""
    r = lagrange_reduce(L)
    return (norm_form(r.a, r.b), norm_form(r.c, r.d))


def minimum(L: HexSublattice) -> int:
    """Squared length of a shortest nonzero vector."""
    return successive_minima(L)[0]


def is_well_rounded(L: HexSublattice) -> bool:
    """True when the minimal vectors span, i.e. both successive minima agree."""
    m1, m2 = successive_minima(L)
    return m1 == m2


@dataclass(frozen=True)
class AngleData:
    """Exact angle between minimal basis vectors of a well-rounded sublattice.

    cos theta = cos_num / cos_den in lowest terms, in (0, 1/2]; the triple
    (p, r, q) satisfies p^2 + 3 r^2 = q^2 and carries the same angle with
    sin theta = (r/q) sqrt(3).
    """

    cos_num: int
    cos_den: int
    triple: ProjectiveTriple

    @property
    def cosine(self) -> Fraction:
        return Fraction(self.cos_num, self.cos_den)


def angle_data(L: HexSublattice) -> AngleData:
    """Angle invariant of a well-rounded sublattice.

    Works on the reduced basis, with signs fixed so cosine and orientation
    are both nonnegative (legitimate because equal-norm columns may be
    swapped and either column negated without changing the lattice).
    """
    r = lagrange_reduce(L)
    n1, n2 = r.norms
    if n1 != n2:
        raise ValueError(f"{L} is not well-rounded (minima {n1} != {n2})")
    # negating a column fixes the cosine sign, swapping the equal-norm
    # columns fixes orientation; neither changes the lattice
    if r.inner2 < 0:
        r = HexSublattice(r.a, r.b, -r.c, -r.d)
    if r.det < 0:
        r = HexSublattice(r.c, r.d, r.a, r.b)
    p = r.inner2
    rr = r.det
    q = 2 * n1
    if p <= 0 or p * p + 3 * rr * rr != q * q:
        raise InvariantViolation(
            f"angle identity failed for {L}: ({p}, {rr}, {q})"
        )
    g = math.gcd(p, q)
    return AngleData(p // g, q // g, ProjectiveTriple.from_raw(p, rr, q))


@dataclass(frozen=True)
class ClassParams:
    """Canonical name (m, n) of a similarity class of well-rounded sublattices.

    Admissible parameters: positive, coprime, 1 <= m/n <= 2, and m + n not
    divisible by 3.
    """

    m: int
    n: int

    def __post_init__(self) -> None:
        _check_admissible(self.m, self.n)

    @property
    def class_minimum(self) -> int:
        """Smallest minimum over all sublattices in this class: m^2 - mn + n^2."""
        return norm_form(self.m, self.n)

    @property
    def minimal_index(self) -> int:
        """Index of the minimal representative: n(2m - n)."""
        return self.n * (2 * self.m - self.n)

    @property
    def cosine(self) -> Fraction:
        """cos of the class angle, |n^2 + 2mn - 2m^2| / (2(m^2 - mn + n^2))."""
        m, n = self.m, self.n
        return Fraction(abs(n * n + 2 * m * n - 2 * m * m), 2 * norm_form(m, n))

    def as_tuple(self) -> tuple[int, int]:
        return (self.m, self.n)

    def __str__(self) -> str:
        return f"({self.m},{self.n})"


def gamma_theta(params: ClassParams) -> HexSublattice:
    """The minimal well-rounded sublattice in the class of params.

    Coefficient matrix [[m, m-n], [m-n, m]]; its minimum m^2 - mn + n^2 is
    the smallest possible in the class and its index is n(2m - n).
    """
    m, n = params.m, params.n
    return HexSublattice(m, m - n, m - n, m)


def omega_theta(m: int, n: int) -> HexSublattice:
    """A well-rounded sublattice with cosine (m^2 - 3n^2) / (m^2 + 3n^2).

    Needs coprime m, n with sqrt(3) < m/n <= 3.  Both basis columns have
    norm m^2 + 3n^2 and the index is 4mn; generally not minimal in its
    class, but it realizes every angle directly from the angle-form
    parameters.  Kept as the paper's angle-form family, which the tests
    check against solve_angle_form and class_of.
    """
    if m < 1 or n < 1:
        raise ValueError("parameters must be positive")
    if math.gcd(m, n) != 1:
        raise ValueError(f"parameters {(m, n)} are not coprime")
    if not (3 * n * n < m * m and m <= 3 * n):
        raise ValueError(f"need sqrt(3) < m/n <= 3, got {(m, n)}")
    return HexSublattice(m + n, 2 * n, m - n, -2 * n)


def class_of(L: HexSublattice) -> ClassParams:
    """Similarity-class name of a well-rounded sublattice.

    Route: angle invariant, then the pair of Eisenstein triples with that
    angle point, then the parameters of that pair.  Failure past the
    well-roundedness check cannot happen for genuine sublattices and is
    raised as InvariantViolation.
    """
    data = angle_data(L)
    try:
        pair = pair_of_angle_point(data.triple)
        m, n = params_from_triple(pair.upper)
    except ValueError as exc:
        raise InvariantViolation(
            f"angle point {data.triple} of {L} has no admissible class"
        ) from exc
    return ClassParams(m, n)
