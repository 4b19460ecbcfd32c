"""Rational parameterization of conics alpha x^2 + beta xy + gamma y^2 = delta z^2.

A single integer solution (the seed) turns the conic into a rational curve:
lines of rational slope m/n through the seed point meet the curve in exactly
one further rational point, and clearing denominators produces every integer
solution up to scaling.  Two instances drive everything else in the package:

* the angle form   p^2 + 3 r^2 = q^2   whose solutions encode the angles
  attainable by well-rounded sublattices of the hexagonal lattice, and
* the norm form    a^2 - a b + b^2 = c^2   whose nonnegative solutions are
  the Eisenstein triples.

The scaled angle form p^2 + 3 r^2 = d q^2 needs no seed: its solutions with
bounded q are enumerated directly, by one scan over r for each q.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

from .arith import factorize
from .errors import InvariantViolation, NotRepresentableError

__all__ = [
    "ConicSpec",
    "ProjectiveTriple",
    "ANGLE_FORM",
    "NORM_FORM",
    "parameterize",
    "solve_angle_form",
    "solve_norm_form",
    "scaled_angle_solutions",
    "count_representations",
]


@dataclass(frozen=True)
class ProjectiveTriple:
    """A primitive integer triple with a canonical sign.

    gcd(x, y, z) == 1 and the first nonzero coordinate among (z, y, x) is
    positive, so each projective point has exactly one representative.
    """

    x: int
    y: int
    z: int

    def __post_init__(self) -> None:
        if self.x == self.y == self.z == 0:
            raise ValueError("zero triple is not a projective point")
        if math.gcd(math.gcd(abs(self.x), abs(self.y)), abs(self.z)) != 1:
            raise ValueError(f"triple {(self.x, self.y, self.z)} is not primitive")
        lead = self.z or self.y or self.x
        if lead < 0:
            raise ValueError(f"triple {(self.x, self.y, self.z)} has non-canonical sign")

    @classmethod
    def from_raw(cls, x: int, y: int, z: int) -> "ProjectiveTriple":
        """Reduce an arbitrary nonzero triple to canonical form."""
        g = math.gcd(math.gcd(abs(x), abs(y)), abs(z))
        if g == 0:
            raise ValueError("zero triple is not a projective point")
        x, y, z = x // g, y // g, z // g
        lead = z or y or x
        if lead < 0:
            x, y, z = -x, -y, -z
        return cls(x, y, z)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class ConicSpec:
    """Coefficients (alpha, beta, gamma, delta) and a known solution.

    The seed (a, b, c) must satisfy alpha a^2 + beta a b + gamma b^2 =
    delta c^2 with c != 0, and the form on the left must not degenerate
    into a product of rational lines (beta^2 != 4 alpha gamma).  Kept, with
    parameterize, as the seeded line construction from which the paper's
    angle-form and norm-form formulas follow.
    """

    alpha: int
    beta: int
    gamma: int
    delta: int
    seed: tuple[int, int, int]

    def __post_init__(self) -> None:
        if self.delta == 0:
            raise ValueError("delta must be nonzero")
        if self.beta * self.beta == 4 * self.alpha * self.gamma:
            raise ValueError("degenerate conic: beta^2 == 4*alpha*gamma")
        a, b, c = self.seed
        if c == 0:
            raise ValueError("seed must have nonzero last coordinate")
        if self.alpha * a * a + self.beta * a * b + self.gamma * b * b != self.delta * c * c:
            raise ValueError(f"seed {self.seed} does not satisfy the conic")

    def evaluate(self, x: int, y: int) -> int:
        return self.alpha * x * x + self.beta * x * y + self.gamma * y * y


#: p^2 + 3 r^2 = q^2, seeded at (-1, 0, 1).
ANGLE_FORM = ConicSpec(1, 0, 3, 1, (-1, 0, 1))

#: a^2 - a b + b^2 = c^2, seeded at (-1, -1, 1).
NORM_FORM = ConicSpec(1, -1, 1, 1, (-1, -1, 1))


def parameterize(spec: ConicSpec, m: int, n: int) -> ProjectiveTriple:
    """Solution of the conic cut out by the slope-(m/n) line through the seed.

    Requires gcd(m, n) == 1.  Distinct coprime pairs, normalized so that
    m >= 0 (and n > 0 when m == 0), give distinct projective points, and
    every solution arises this way.  The benchmark tracer wraps it by name,
    so a benchmark change must drop its metrics before it can go.
    """
    if (m, n) == (0, 0):
        raise ValueError("parameter pair (0, 0) is not allowed")
    if math.gcd(abs(m), abs(n)) != 1:
        raise ValueError(f"parameters {(m, n)} are not coprime")
    a, b, c = spec.seed
    al, be, ga = spec.alpha, spec.beta, spec.gamma
    denom = al * m * m + be * m * n + ga * n * n
    if denom == 0:
        raise ValueError(f"parameters {(m, n)} lie on an asymptotic direction of the conic")
    x = ga * n * (a * n - 2 * b * m) - (al * a + be * b) * m * m
    y = al * m * (b * m - 2 * a * n) - (ga * b + be * a) * n * n
    z = c * denom
    if spec.evaluate(x, y) != spec.delta * z * z:
        raise InvariantViolation(f"parameterization produced a non-solution for {(m, n)}")
    return ProjectiveTriple.from_raw(x, y, z)


def solve_angle_form(m: int, n: int) -> ProjectiveTriple:
    """Primitive solution of p^2 + 3 r^2 = q^2 from parameters sqrt(3) < m/n <= 3.

    Returns the canonical representative of (m^2 - 3 n^2, 2 m n, m^2 + 3 n^2).
    The ratio window makes the cosine p/q land in (0, 1/2], the range realized
    by angles of well-rounded sublattices.  Kept as the paper's parameterization
    of the attainable angles, which omega_theta turns into sublattices.
    """
    if m < 1 or n < 1:
        raise ValueError("parameters must be positive")
    if math.gcd(m, n) != 1:
        raise ValueError(f"parameters {(m, n)} are not coprime")
    if not (3 * n * n < m * m):
        raise ValueError(f"need m/n > sqrt(3), got {(m, n)}")
    if m > 3 * n:
        raise ValueError(f"need m/n <= 3, got {(m, n)}")
    t = parameterize(ANGLE_FORM, m, n)
    p, r, q = t.as_tuple()
    if not (q > 0 and 0 < 2 * p <= q):
        raise InvariantViolation(f"angle solution {t} fell outside (0, 1/2] cosine range")
    return t


def solve_norm_form(m: int, n: int) -> tuple[int, int, int]:
    """Eisenstein triple (m(2n-m), n(2m-n), m^2 - mn + n^2) for 1/2 <= m/n <= 2.

    The output is not reduced: its gcd is 3 when 3 | (m + n) and 1 otherwise.
    Swapping m and n swaps the first two entries.
    """
    if m < 1 or n < 1:
        raise ValueError("parameters must be positive")
    if math.gcd(m, n) != 1:
        raise ValueError(f"parameters {(m, n)} are not coprime")
    if not (n <= 2 * m and m <= 2 * n):
        raise ValueError(f"need 1/2 <= m/n <= 2, got {(m, n)}")
    a = m * (2 * n - m)
    b = n * (2 * m - n)
    c = m * m - m * n + n * n
    if a * a - a * b + b * b != c * c:
        raise InvariantViolation(f"norm form triple {(a, b, c)} for {(m, n)} is not a solution")
    return (a, b, c)


def _validate_scale(d: int) -> list[int]:
    """Check d is 1 or a squarefree product of primes = 1 (mod 3); return its primes."""
    fac = factorize(d)
    for p, e in fac.items():
        if e > 1:
            raise NotRepresentableError(f"{d} has squared factor {p}^{e}")
        if p % 3 != 1:
            raise NotRepresentableError(f"{d} has prime factor {p} != 1 (mod 3)")
    return list(fac)


def _primitive_solutions(d: int, q_max: int) -> Iterator[tuple[int, int, int]]:
    """(p, r, q) with p, r >= 0, 1 <= q <= q_max, p^2 + 3 r^2 = d q^2 and gcd 1."""
    for q in range(1, q_max + 1):
        n = d * q * q
        for r in range(math.isqrt(n // 3) + 1):
            rem = n - 3 * r * r
            p = math.isqrt(rem)
            if p * p == rem and math.gcd(p, r, q) == 1:
                yield (p, r, q)


def scaled_angle_solutions(d: int, q_max: int) -> list[ProjectiveTriple]:
    """All nonnegative primitive solutions of p^2 + 3 r^2 = d q^2 with q <= q_max.

    d must be 1 or a squarefree product of primes congruent to 1 mod 3;
    anything else has an empty solution set and raises NotRepresentableError.
    For each q the scan runs over 0 <= r <= sqrt(d q^2 / 3) and keeps r when
    d q^2 - 3 r^2 is a square p^2.  The result is sorted by (p, r, q).
    """
    if q_max < 1:
        raise ValueError("q_max must be at least 1")
    _validate_scale(d)
    return [ProjectiveTriple(*t) for t in sorted(_primitive_solutions(d, q_max))]


def count_representations(d: int) -> int:
    """Number of integer pairs (x, y), signs included, with x^2 + 3 y^2 = d.

    For admissible d (1 or a squarefree product of primes = 1 mod 3) the count
    is 2^(omega(d) + 1), where omega is the number of distinct prime factors.
    The pairs are the q = 1 solutions of the scaled angle form, all primitive,
    with their signs restored; the closed form is checked against that count
    so a disagreement cannot pass silently.
    """
    primes = _validate_scale(d)
    count = sum((2 if x else 1) * (2 if y else 1) for x, y, _ in _primitive_solutions(d, 1))
    expected = 2 ** (len(primes) + 1)
    if count != expected:
        raise InvariantViolation(
            f"representation count of {d} is {count}, closed form predicts {expected}"
        )
    return count
