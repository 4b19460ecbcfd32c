"""Tests for exact sublattice arithmetic, reduction, and angle invariants."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hexwr.conic import solve_angle_form
from hexwr.lattice import (
    AngleData,
    ClassParams,
    HexSublattice,
    angle_data,
    class_of,
    dot2,
    gamma_theta,
    is_well_rounded,
    lagrange_reduce,
    minimum,
    norm_form,
    omega_theta,
    successive_minima,
)


def brute_force_minimum(L):
    """Exhaustive minimum over a provably sufficient box of coefficients.

    Any vector at least as short as the shorter given column lies within
    |i| <= 2 sqrt(M N2) / (sqrt(3) index) and the matching bound for j,
    because the wedge product with a basis vector is at most the product of
    lengths and the cell area is (sqrt(3)/2) index.
    """
    n1, n2 = L.norms
    cap = min(n1, n2)
    idx = L.index
    bi = math.isqrt(4 * cap * n2 // (3 * idx * idx)) + 1
    bj = math.isqrt(4 * cap * n1 // (3 * idx * idx)) + 1
    i = np.arange(-bi, bi + 1).reshape(-1, 1)
    j = np.arange(-bj, bj + 1).reshape(1, -1)
    x = i * L.a + j * L.c
    y = i * L.b + j * L.d
    norms = x * x - x * y + y * y
    norms[bi, bj] = norms.max() + 1  # mask the origin
    return int(norms.min())


def admissible_params(limit):
    for n in range(1, limit + 1):
        for m in range(n, min(2 * n, limit) + 1):
            if math.gcd(m, n) == 1 and (m + n) % 3 != 0:
                yield ClassParams(m, n)


class TestNormForm:
    def test_examples(self):
        assert norm_form(1, 0) == 1
        assert norm_form(3, 2) == 7
        assert norm_form(-1, 1) == 3

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    def test_positive_definite(self, a, b):
        v = norm_form(a, b)
        assert v > 0 or (v == 0 and a == 0 and b == 0)

    def test_dot2_symmetry_and_diagonal(self):
        assert dot2(1, 2, 3, 4) == dot2(3, 4, 1, 2)
        assert dot2(3, 2, 3, 2) == 2 * norm_form(3, 2)


class TestHexSublattice:
    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            HexSublattice(1, 2, 2, 4)

    def test_matrix_round_trip(self):
        L = HexSublattice(5, 0, 0, 1)
        assert (L.a, L.b, L.c, L.d) == (5, 0, 0, 1)
        assert str(L) == "[[5,0],[0,1]]"

    def test_index_is_absolute_determinant(self):
        assert HexSublattice(1, 0, 0, 1).index == 1
        assert HexSublattice(0, 1, 1, 0).det == -1
        assert HexSublattice(0, 1, 1, 0).index == 1
        assert HexSublattice(2, 0, 1, -3).index == 6


class TestLagrangeReduce:
    def test_identity_unchanged(self):
        L = HexSublattice(1, 0, 0, 1)
        assert lagrange_reduce(L) == L

    def test_boundary_case_both_norms_twelve(self):
        L = HexSublattice(4, 2, 2, -2)
        r = lagrange_reduce(L)
        assert r.norms == (12, 12)
        assert r.index == 12

    def test_skew_basis(self):
        r = lagrange_reduce(HexSublattice(5, 0, 0, 1))
        assert norm_form(r.a, r.b) == 1

    def test_reduced_shape_and_same_lattice(self):
        rng = random.Random(7)
        for _ in range(300):
            a, b, c, d = (rng.randint(-20, 20) for _ in range(4))
            if a * d - c * b == 0:
                continue
            L = HexSublattice(a, b, c, d)
            r = lagrange_reduce(L)
            n1, n2 = r.norms
            assert n1 <= n2
            assert abs(r.inner2) <= n1
            assert r.index == L.index
            # same lattice: each reduced column solves L x = column integrally
            det = L.det
            for col in ((r.a, r.b), (r.c, r.d)):
                x = col[0] * L.d - col[1] * L.c
                y = -col[0] * L.b + col[1] * L.a
                assert x % det == 0 and y % det == 0

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(200):
            a, b, c, d = (rng.randint(-15, 15) for _ in range(4))
            if a * d - c * b == 0:
                continue
            r = lagrange_reduce(HexSublattice(a, b, c, d))
            assert lagrange_reduce(r) == r


class TestMinimum:
    def test_examples(self):
        assert minimum(HexSublattice(1, 0, 0, 1)) == 1
        assert minimum(gamma_theta(ClassParams(3, 2))) == 7
        assert minimum(omega_theta(2, 1)) == 7

    def test_against_exhaustive_search(self):
        rng = random.Random(20260823)
        checked = 0
        while checked < 1000:
            a, b, c, d = (rng.randint(-20, 20) for _ in range(4))
            if a * d - c * b == 0:
                continue
            L = HexSublattice(a, b, c, d)
            assert minimum(L) == brute_force_minimum(L)
            checked += 1

    def test_successive_minima_ordered(self):
        m1, m2 = successive_minima(HexSublattice(1, 0, 0, 2))
        assert (m1, m2) == (1, 3)


class TestWellRounded:
    def test_examples(self):
        assert is_well_rounded(HexSublattice(1, 0, 0, 1))
        assert not is_well_rounded(HexSublattice(1, 0, 0, 2))
        assert is_well_rounded(gamma_theta(ClassParams(5, 3)))


class TestAngleData:
    def test_hexagonal_itself(self):
        data = angle_data(HexSublattice(1, 0, 0, 1))
        assert (data.cos_num, data.cos_den) == (1, 2)
        assert data.triple.as_tuple() == (1, 1, 2)
        assert data.cosine == Fraction(1, 2)

    def test_known_cosines(self):
        assert angle_data(gamma_theta(ClassParams(3, 2))).cosine == Fraction(1, 7)
        assert angle_data(gamma_theta(ClassParams(5, 3))).cosine == Fraction(11, 38)

    def test_not_wr_rejected(self):
        with pytest.raises(ValueError):
            angle_data(HexSublattice(1, 0, 0, 2))

    def test_cosine_in_range(self):
        for params in admissible_params(25):
            data = angle_data(gamma_theta(params))
            assert 0 < Fraction(data.cos_num, data.cos_den) <= Fraction(1, 2)
            p, r, q = data.triple.as_tuple()
            assert p * p + 3 * r * r == q * q


class TestClassParams:
    @pytest.mark.parametrize("m,n", [(2, 1), (4, 2), (5, 2), (1, 2), (0, 1)])
    def test_inadmissible(self, m, n):
        with pytest.raises(ValueError):
            ClassParams(m, n)

    def test_derived_quantities(self):
        p = ClassParams(3, 2)
        assert p.class_minimum == 7
        assert p.minimal_index == 8
        assert p.cosine == Fraction(1, 7)
        assert p.as_tuple() == (3, 2)

    def test_hexagonal_class(self):
        p = ClassParams(1, 1)
        assert p.class_minimum == 1
        assert p.minimal_index == 1
        assert p.cosine == Fraction(1, 2)


class TestGammaTheta:
    def test_examples(self):
        assert gamma_theta(ClassParams(1, 1)) == HexSublattice(1, 0, 0, 1)
        g = gamma_theta(ClassParams(3, 2))
        assert g.index == 8 and minimum(g) == 7
        g = gamma_theta(ClassParams(9, 7))
        assert g.index == 77 and minimum(g) == 67

    def test_all_admissible_up_to_sixty(self):
        for params in admissible_params(60):
            g = gamma_theta(params)
            assert is_well_rounded(g)
            assert minimum(g) == params.class_minimum
            assert g.index == params.minimal_index
            assert angle_data(g).cosine == params.cosine


class TestOmegaTheta:
    def test_examples(self):
        o = omega_theta(3, 1)
        assert o.index == 12 and minimum(o) == 12
        o = omega_theta(2, 1)
        assert o.index == 8 and minimum(o) == 7
        o = omega_theta(5, 2)
        assert o.index == 40 and minimum(o) == 37

    @pytest.mark.parametrize("m,n", [(4, 2), (3, 2), (7, 2), (1, 1), (0, 1)])
    def test_constraints(self, m, n):
        with pytest.raises(ValueError):
            omega_theta(m, n)

    def test_matches_angle_form(self):
        for n in range(1, 30):
            for m in range(n, 3 * n + 1):
                if math.gcd(m, n) != 1 or 3 * n * n >= m * m:
                    continue
                o = omega_theta(m, n)
                assert is_well_rounded(o)
                assert minimum(o) == m * m + 3 * n * n
                assert o.index == 4 * m * n
                p, r, q = solve_angle_form(m, n).as_tuple()
                assert angle_data(o).cosine == Fraction(p, q)


class TestClassOf:
    def test_hexagonal(self):
        assert class_of(HexSublattice(1, 0, 0, 1)) == ClassParams(1, 1)

    def test_scaled_lattice(self):
        g = gamma_theta(ClassParams(5, 3))
        doubled = HexSublattice(2 * g.a, 2 * g.b, 2 * g.c, 2 * g.d)
        assert class_of(doubled) == ClassParams(5, 3)

    def test_index_84_hexagonal_angle(self):
        # a rotated-scaled copy of the full lattice with index 84
        L = HexSublattice(10, 2, -2, 8)
        assert L.index == 84
        assert is_well_rounded(L)
        assert angle_data(L).cosine == Fraction(1, 2)
        assert class_of(L) == ClassParams(1, 1)

    def test_round_trips_via_gamma(self):
        for params in admissible_params(40):
            assert class_of(gamma_theta(params)) == params

    def test_omega_and_gamma_agree(self):
        # both constructions of the same angle land in the same class
        for n in range(1, 15):
            for m in range(n, 3 * n + 1):
                if math.gcd(m, n) != 1 or 3 * n * n >= m * m:
                    continue
                o = omega_theta(m, n)
                params = class_of(o)
                assert angle_data(gamma_theta(params)).cosine == angle_data(o).cosine

    def test_not_wr_rejected(self):
        with pytest.raises(ValueError):
            class_of(HexSublattice(1, 0, 0, 5))


class TestAngleInvariance:
    @given(
        st.tuples(st.integers(1, 30), st.integers(1, 30)),
        st.integers(-4, 4),
        st.integers(-4, 4),
        st.booleans(),
        st.integers(1, 5),
    )
    def test_unimodular_change_and_scaling(self, mn, x, y, flip, k):
        n0 = min(mn)
        m0 = max(mn)
        if math.gcd(m0, n0) != 1 or m0 > 2 * n0 or (m0 + n0) % 3 == 0:
            return
        g = gamma_theta(ClassParams(m0, n0))
        base = angle_data(g)
        # right-multiply by an elementary unimodular matrix: same lattice
        u = ((1, x), (0, 1)) if not flip else ((1, 0), (y, 1))
        a = g.a * u[0][0] + g.c * u[1][0]
        b = g.b * u[0][0] + g.d * u[1][0]
        c = g.a * u[0][1] + g.c * u[1][1]
        d = g.b * u[0][1] + g.d * u[1][1]
        moved = HexSublattice(k * a, k * b, k * c, k * d)
        got = angle_data(moved)
        assert (got.cos_num, got.cos_den) == (base.cos_num, base.cos_den)
        assert got.triple == base.triple
