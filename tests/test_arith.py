"""Tests for the integer arithmetic kernel, checked against sympy."""

import math
import random

import pytest
import sympy

from hexwr.arith import divisors, factorize, multiplicities, norm_split
from hexwr.cli import _witness_name
from hexwr.enumeration import IndexRepresentation, list_representations
from hexwr.lattice import ClassParams


def _next_prime(n, residue3=None):
    """Smallest prime >= n, optionally with a fixed residue mod 3."""
    p = sympy.nextprime(n - 1)
    while residue3 is not None and p % 3 != residue3:
        p = sympy.nextprime(p)
    return p


def _seeded_large_values():
    """Primes, semiprimes and 2^e * p up to 1e13, from a fixed seed."""
    rng = random.Random(2010)
    values = [_next_prime(rng.randrange(10**11, 10**13)) for _ in range(3)]
    values += [
        _next_prime(rng.randrange(10**4, 10**6)) * _next_prime(rng.randrange(10**6, 10**7))
        for _ in range(3)
    ]
    for e in (1, 7, 20):
        values.append(2**e * _next_prime(rng.randrange(10**6, 10**13 >> e)))
    return values


def _tail_indices():
    """The benchmark's four tail shapes, each near 3e11 and near 1e13.

    A prime (= 1 and = 2 mod 3), a semiprime whose larger prime is = 2 mod 3,
    three primes = 1 mod 3 below 700 times a large prime, and 2^e times a
    prime = 1 mod 3 in [2^14, 2^16).
    """
    out = []
    for target in (3 * 10**11, 99 * 10**11):
        out += [_next_prime(target, 1), _next_prime(target, 2)]
        p = _next_prime(int(0.9 * math.isqrt(target)), 1)
        out.append(p * _next_prime(target // p + 1, 2))
        head = 211 * 397 * 643
        out.append(head * _next_prime(target // head + 1, 1))
        e = target.bit_length() - 15
        out.append(_next_prime(target >> e, 1) << e)
    return out


def _reference_representations(J):
    """(u, j, d, m, n) for J, built from sympy's factorizations and divisors.

    Runs over the admissible (m, n) with n(2m - n) | J, in increasing
    n(2m - n) and then n, keeping those whose cofactor k has every prime
    = 2 (mod 3) to an even power; k = 3^u j^2 d is read off factorint(k).
    """
    reps = []
    for D in sympy.divisors(J):
        kfac = sympy.factorint(J // D)
        if any(p % 3 == 2 and e % 2 for p, e in kfac.items()):
            continue
        u = kfac.get(3, 0) % 2
        j = math.prod(p ** (e // 2) for p, e in kfac.items())
        d = math.prod(p for p, e in kfac.items() if e % 2 and p != 3)
        for n in sympy.divisors(D):
            w = D // n
            if (w + n) % 2:
                continue
            m = (w + n) // 2
            if n <= m <= 2 * n and math.gcd(m, n) == 1 and (m + n) % 3:
                reps.append((u, j, d, m, n))
    return reps


class TestFactorize:
    def test_matches_sympy_up_to_1e5(self):
        for n in range(1, 10**5 + 1):
            fac = factorize(n)
            assert fac == sympy.factorint(n), n
            assert list(fac) == sorted(fac)

    def test_matches_sympy_on_large_values(self):
        for n in _seeded_large_values():
            assert factorize(n) == sympy.factorint(n), n


class TestDivisors:
    def test_matches_sympy(self):
        values = list(range(1, 3001)) + [2**40, 720720, 2**5 * 3**4 * 7**2 * 13]
        values += _seeded_large_values()
        for n in values:
            assert divisors(factorize(n)) == sympy.divisors(n), n

    def test_multiplicities_of_a_divisor(self):
        J = 2**5 * 3**4 * 7**2 * 13
        fac = factorize(J)
        for D in divisors(fac):
            expected = {p: sympy.factorint(D).get(p, 0) for p in fac}
            assert multiplicities(D, fac) == expected, D


class TestNormSplit:
    """norm_split(factorize(M)) is not None exactly when M = x^2 - xy + y^2."""

    def test_examples(self):
        assert norm_split(factorize(7)) is not None
        assert norm_split(factorize(5)) is None
        assert norm_split(factorize(1)) is not None
        assert norm_split(factorize(21)) is not None

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_against_direct_search(self):
        limit = 10_000
        reachable = set()
        top = math.isqrt(4 * limit // 3) + 1
        for x in range(-top, top + 1):
            for y in range(0, top + 1):
                v = x * x - x * y + y * y
                if 1 <= v <= limit:
                    reachable.add(v)
        for M in range(1, limit + 1):
            assert (norm_split(factorize(M)) is not None) == (M in reachable)


class TestListRepresentationsTail:
    def test_matches_sympy_reference(self):
        for J in _tail_indices():
            assert 10**11 <= J <= 10**13
            got = [(r.u, r.j, r.d, r.params.m, r.params.n) for r in list_representations(J)]
            assert got == _reference_representations(J), J


def _named(params, k):
    """Witness name of the representation of class params scaled by k."""
    u, j, d = norm_split(factorize(k))
    return _witness_name(IndexRepresentation(u=u, j=j, d=d, params=params))


class TestWitnessName:
    def test_prime_scale(self):
        k = _next_prime(10**12, 1)
        assert _named(ClassParams(1, 1), k) == f"sqrt({k})*Gamma_theta(1,1)"

    def test_four_times_prime(self):
        p = _next_prime(10**12, 1)
        assert _named(ClassParams(3, 2), 4 * p) == f"2*sqrt({p})*Gamma_theta(3,2)"

    def test_square_times_squarefree(self):
        j, d = 3 * 5 * 11, 7 * 13
        assert _named(ClassParams(5, 3), j * j * d) == "165*sqrt(91)*Gamma_theta(5,3)"
        assert _named(ClassParams(5, 3), j * j) == "165*Gamma_theta(5,3)"
        assert _named(ClassParams(5, 3), 1) == "Gamma_theta(5,3)"
