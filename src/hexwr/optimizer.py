"""Extremal questions at fixed index: largest minimum, zeta values, SNR.

Three layers: a quick nonexistence shortcut (eliminate_test), the exact
maximizer of the minimum over all well-rounded sublattices of a given
index, and numerical evaluation of the Epstein zeta function with
rigorous error bounds, from which signal-to-noise figures and rankings
are derived.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Optional

from .arith import factorize, norm_split
from .enumeration import ClassParams, IndexRepresentation, list_representations
from .errors import InvariantViolation

if TYPE_CHECKING:
    from .lattice import HexSublattice

__all__ = [
    "MaxMinResult",
    "ZetaValue",
    "SnrValue",
    "eliminate_test",
    "max_min",
    "cos_from_index_min",
    "epstein_zeta",
    "epstein_zeta_direct",
    "REL_TOL_FLOOR",
    "DIRECT_REL_TOL_FLOOR",
    "snr",
    "rank_by_snr",
]


def eliminate_test(J: int) -> bool:
    """Quick nonexistence certificate for well-rounded sublattices of index J.

    Only applies to J outside the always-representable factorization shape
    (every prime = 2 mod 3 to an even power); for those J it returns False.
    Otherwise True when J is prime, or twice an odd prime, or a product of
    two odd primes p < q with q > 3p; True guarantees no index-J
    well-rounded sublattice exists.  Kept as the paper's nonexistence
    criterion for such indices, which the tests check against the survey.
    """
    fac = factorize(J)
    if norm_split(fac) is not None:
        return False
    if len(fac) == 1 and sum(fac.values()) == 1:
        return True
    if len(fac) == 2 and all(e == 1 for e in fac.values()):
        p, q = sorted(fac)
        if p == 2 or q > 3 * p:
            return True
    return False


class MaxMinResult(NamedTuple):
    """Outcome of maximizing the minimum over index-J well-rounded sublattices."""

    J: int
    best_minimum: Optional[int]
    witnesses: list[IndexRepresentation]
    exists: bool


def max_min(J: int) -> MaxMinResult:
    """Largest minimum among well-rounded sublattices of index J.

    Scans the representations of J; each contributes minimum k * (class
    minimum) = J * (m^2 - mn + n^2) / (n(2m - n)), always an integer.  The
    witnesses are the representations attaining the maximum, in list order;
    each carries its class and its scale split k = 3^u * j^2 * d.
    """
    reps = list_representations(J)
    best = max((r.minimum for r in reps), default=None)
    witnesses = [r for r in reps if r.minimum == best]
    return MaxMinResult(J=J, best_minimum=best, witnesses=witnesses, exists=bool(reps))


def cos_from_index_min(J: int, M: int) -> Optional[Fraction]:
    """Angle cosine forced by an (index, minimum) pair, if consistent.

    A well-rounded sublattice with index J and minimum M must have
    cos theta = sqrt(4M^2 - 3J^2) / (2M); when that is not a rational in
    [0, 1/2] no such lattice can exist and None is returned.  Kept as the
    paper's relation J = (2/sqrt(3)) M sin(theta) between index, minimum and
    angle, which the tests check against every surveyed class.
    """
    if J < 1 or M < 1:
        raise ValueError("index and minimum must be positive")
    disc = 4 * M * M - 3 * J * J
    if disc < 0:
        raise ValueError(f"no planar lattice has index {J} with minimum {M}")
    r = math.isqrt(disc)
    if r * r != disc:
        return None
    value = Fraction(r, 2 * M)
    if value > Fraction(1, 2):
        return None
    return value


# ---------------------------------------------------------------------------
# Epstein zeta and SNR
# ---------------------------------------------------------------------------


#: relative rounding slop in every epstein_zeta bound: no smaller rel_tol can be met
REL_TOL_FLOOR = 2.0**-48
#: relative float slop of epstein_zeta_direct: with a tail, no rel_tol up to it can be met
DIRECT_REL_TOL_FLOOR = 1e-12


class ZetaValue(NamedTuple):
    """Epstein zeta value with a rigorous two-sided error bound."""

    value: float
    abs_error_bound: float
    truncation_radius: int


class SnrValue(NamedTuple):
    """Signal-to-noise ratio in decibels, with propagated error bound."""

    db: float
    abs_error_bound: float


def _form_points(A: int, B: int, C: int, bound: int):
    """All integer (x, y) != (0, 0) with A x^2 + B xy + C y^2 <= bound."""
    disc = 4 * A * C - B * B
    xmax = math.isqrt(4 * C * bound // disc)
    for x in range(-xmax, xmax + 1):
        b = B * x
        d = b * b - 4 * C * (A * x * x - bound)
        if d < 0:
            continue
        r = math.isqrt(d)
        for y in range((-b - r) // (2 * C) - 1, (-b + r) // (2 * C) + 2):
            if x == 0 and y == 0:
                continue
            q = A * x * x + B * x * y + C * y * y
            if q <= bound:
                yield x, y, q


def _gram(L: HexSublattice) -> tuple[int, int, int]:
    """Integer form coefficients (N1, D, N2) of the squared length on L."""
    from .lattice import lagrange_reduce

    r = lagrange_reduce(L)
    n1, n2 = r.norms
    return n1, r.inner2, n2


def epstein_zeta(
    L: HexSublattice,
    s: float = 2.0,
    rel_tol: float = 1e-9,
    min_truncation_radius: int = 0,
) -> ZetaValue:
    """Sum of (squared length)^-s over the nonzero vectors of L.

    Evaluated by splitting the sum with the theta transform into two
    rapidly convergent sums of incomplete gamma values, one over L and one
    over its dual.  Both truncation tails are bounded rigorously through
    Gaussian theta-series estimates, and the cutoff is doubled until the
    bound drops under rel_tol times the value.  min_truncation_radius
    forces extra doublings past the first acceptable cutoff, which is how
    stability under refinement can be demonstrated from outside.  A
    rel_tol below REL_TOL_FLOOR is rejected at once.
    """
    if not s > 1:
        raise ValueError("the sum only converges for s > 1")
    if not rel_tol >= REL_TOL_FLOOR:
        raise ValueError(f"rel_tol={rel_tol} is below the floor {REL_TOL_FLOOR:.3g}")
    import mpmath as mp  # loaded here, so that commands without zeta values skip it

    n1, dd, n2 = _gram(L)
    disc = 4 * n1 * n2 - dd * dd
    with mp.workdps(30):
        s_mp = mp.mpf(s)
        delta = mp.sqrt(disc) / 2  # real covolume
        alpha = 1 / delta
        lam_primal = mp.mpf(disc) / (4 * (n1 + n2))
        lam_dual = mp.mpf(1) / (n1 + n2)
        front = mp.pi**s_mp / mp.gamma(s_mp)
        # a Gaussian theta sum at c > 0 is at most (1 + e^-c)/(1 - e^-c)
        e_p = mp.e ** -(mp.pi * alpha * lam_primal / 2)
        e_d = mp.e ** -(mp.pi * lam_dual / (2 * alpha))
        theta_p = (1 + e_p) / (1 - e_p)
        theta_d = (1 + e_d) / (1 - e_d)
        t_cut = max(40.0, 4.0 * (s - 1.0))
        for _ in range(12):
            r_primal = int(mp.ceil(t_cut / (mp.pi * alpha)))
            total = alpha ** (s_mp - 1) / (delta * (s_mp - 1)) - alpha**s_mp / s_mp
            for _x, _y, q in _form_points(n1, dd, n2, r_primal):
                total += (mp.pi * q) ** (-s_mp) * mp.gammainc(s_mp, mp.pi * q * alpha)
            # dual form 2(2 n2 x^2 - 2 dd xy + 2 n1 y^2)/disc, cutoff t_cut*alpha/pi
            dual_bound = int(mp.ceil(t_cut * alpha * disc / (2 * mp.pi)))
            for _x, _y, qi in _form_points(2 * n2, -2 * dd, 2 * n1, dual_bound):
                qs = 2 * mp.mpf(qi) / disc
                total += (
                    (mp.pi * qs) ** (s_mp - 1)
                    * mp.gammainc(1 - s_mp, mp.pi * qs / alpha)
                    / delta
                )
            value = front * total
            # excluded terms have exponent above t_cut; bound each tail by
            # e^(-t/2) times a full Gaussian theta sum
            tail = front * mp.e ** (-t_cut / 2) * (
                (2 * alpha**s_mp / t_cut) * (theta_p**2 - 1)
                + (alpha ** (s_mp + 1) / (delta * t_cut)) * (theta_d**2 - 1)
            )
            bound = tail + abs(value) * REL_TOL_FLOOR
            if bound <= rel_tol * abs(value) and r_primal >= min_truncation_radius:
                return ZetaValue(
                    value=float(value),
                    abs_error_bound=float(bound),
                    truncation_radius=r_primal,
                )
            t_cut *= 2
    raise ValueError(f"did not reach rel_tol={rel_tol} for {L} at s={s}")


def epstein_zeta_direct(
    L: HexSublattice, s: float = 2.0, rel_tol: float = 1e-4
) -> ZetaValue:
    """Reference evaluation by plain summation over a growing disk.

    Adds (squared length)^-s over all vectors with squared length at most
    R and bounds the rest by twice the continuum integral,
    4 pi / (covolume (s-1) R^(s-1)), doubling R until the bound is small
    enough.  Slow at tight tolerances; kept as the independent reference
    that the tests compare epstein_zeta against.  A rel_tol at or below
    DIRECT_REL_TOL_FLOOR is rejected at once.
    """
    if not s > 1:
        raise ValueError("the sum only converges for s > 1")
    if not rel_tol > DIRECT_REL_TOL_FLOOR:
        raise ValueError(f"rel_tol={rel_tol} is not above the floor {DIRECT_REL_TOL_FLOOR:.3g}")
    n1, dd, n2 = _gram(L)
    disc = 4 * n1 * n2 - dd * dd
    delta = math.sqrt(disc) / 2
    radius = 64 * n2
    while radius <= 1 << 40:
        value = 0.0
        for _x, _y, q in _form_points(n1, dd, n2, radius):
            value += float(q) ** -s
        tail = 4 * math.pi / (delta * (s - 1) * radius ** (s - 1))
        bound = tail + value * DIRECT_REL_TOL_FLOOR
        if bound <= rel_tol * value:
            return ZetaValue(
                value=value,
                abs_error_bound=bound,
                truncation_radius=radius,
            )
        radius *= 2
    raise ValueError(f"did not reach rel_tol={rel_tol} for {L} at s={s}")


def snr(L: HexSublattice, rel_tol: float = 1e-9) -> SnrValue:
    """Signal-to-noise ratio 10 log10(1 / (9 E(2))) in decibels."""
    z = epstein_zeta(L, 2.0, rel_tol)
    db = -10.0 * math.log10(9.0 * z.value)
    rel = z.abs_error_bound / z.value
    return SnrValue(db=db, abs_error_bound=(10.0 / math.log(10.0)) * rel * 1.01)


def rank_by_snr(
    J: int, rel_tol: float = 1e-9
) -> list[tuple[ClassParams, int, SnrValue]]:
    """All index-J classes with their minima, best SNR first.

    Each class is scored on its own member, rep.to_sublattice(): at a
    fixed index similar sublattices are isometric, so the zeta value does
    not depend on which member is taken.  The resulting order must
    coincide with ranking by minimum, with SNR gaps exceeding the error
    bounds; a violation of either is raised rather than returned.
    """
    entries = [
        (rep.params, rep.minimum, snr(rep.to_sublattice(), rel_tol))
        for rep in list_representations(J)
    ]
    entries.sort(key=lambda e: -e[2].db)
    for (_, m1, s1), (_, m2, s2) in zip(entries, entries[1:]):
        if m1 <= m2:
            raise InvariantViolation(
                f"index {J}: SNR order contradicts minimum order ({m1} vs {m2})"
            )
        if s1.db - s2.db <= s1.abs_error_bound + s2.abs_error_bound:
            raise InvariantViolation(
                f"index {J}: SNR gap {s1.db - s2.db} within error bounds"
            )
    return entries
