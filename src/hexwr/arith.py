"""Integer arithmetic behind the index counts: factorizations, norm splits, admissibility.

Every question the package asks about an integer (its divisors, whether it
is a norm x^2 - xy + y^2, how it splits as a scale factor 3^u * j^2 * d)
is read off one factorization, so each integer is factored once.  The
admissibility test of class parameters (m, n) lives here as well, so that
counting classes needs neither the triple tree nor the lattice geometry;
triples re-exports it.  This module imports nothing from the package.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

__all__ = ["factorize", "divisors", "multiplicities", "norm_split", "is_admissible"]


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of n >= 1 by trial division, primes ascending."""
    if n < 1:
        raise ValueError(f"{n} has no prime factorization: need a positive integer")
    fac: dict[int, int] = {}
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            fac[p] = e
        p += 1 if p == 2 else 2
    if n > 1:  # one leftover prime, multiplicity 1
        fac[n] = 1
    return fac


def divisors(fac: dict[int, int]) -> list[int]:
    """Divisors, ascending, of the integer whose factorization is fac."""
    divs = [1]
    for p, e in fac.items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    divs.sort()
    return divs


def multiplicities(n: int, primes: Iterable[int]) -> dict[int, int]:
    """{p: exponent of p in n} for each p in primes, zero where p does not divide n.

    When primes covers every prime factor of n, for instance when n divides
    an integer already factored over primes, this is the factorization of n
    without any trial division.
    """
    fac = {}
    for p in primes:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        fac[p] = e
    return fac


def norm_split(fac: dict[int, int]) -> Optional[tuple[int, int, int]]:
    """(u, j, d) with 3^u * j^2 * d equal to the integer factored as fac, or None.

    u is the parity of the exponent of 3, j^2 absorbs every even prime
    power (surplus threes included), and d collects the primes congruent
    to 1 mod 3 that occur to odd multiplicity.  A prime congruent to 2
    mod 3 with odd multiplicity admits no such splitting; that is exactly
    when the integer is not a norm x^2 - xy + y^2 of an Eisenstein integer.
    """
    u, j, d = 0, 1, 1
    for p, e in fac.items():
        j *= p ** (e // 2)
        if e % 2:
            if p == 3:
                u = 1
            elif p % 3 == 1:
                d *= p
            else:
                return None
    return (u, j, d)


def is_admissible(m: int, n: int) -> bool:
    """True for class parameters: m, n > 0 coprime, n <= m <= 2n, 3 not dividing m + n."""
    return 1 <= n <= m <= 2 * n and math.gcd(m, n) == 1 and (m + n) % 3 != 0


def _check_admissible(m: int, n: int) -> None:
    if not is_admissible(m, n):
        raise ValueError(
            f"parameters {(m, n)} are not admissible: need coprime 0 < n <= m <= 2n "
            "with 3 not dividing m + n"
        )
