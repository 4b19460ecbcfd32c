"""Tests for maximization, nonexistence shortcuts, zeta values, and SNR."""

import math
from fractions import Fraction

import pytest

from hexwr import optimizer
from hexwr.arith import factorize, norm_split
from hexwr.enumeration import (
    IndexRepresentation,
    count_classes_bruteforce,
    list_representations,
    wr_survey,
)
from hexwr.lattice import ClassParams, HexSublattice, gamma_theta, omega_theta
from hexwr.optimizer import (
    DIRECT_REL_TOL_FLOOR,
    REL_TOL_FLOOR,
    cos_from_index_min,
    eliminate_test,
    epstein_zeta,
    epstein_zeta_direct,
    max_min,
    rank_by_snr,
    snr,
)

# value of the hexagonal lattice zeta at s=2, frozen from two independent
# evaluations (theta-transform, and direct summation to radius 2^19)
HEX_ZETA_2 = 7.711145732904896

ELIMINATED = [2, 5, 6, 10, 11, 14, 17, 22, 23, 26, 29, 33, 34, 38, 41, 46, 47, 53, 59]


class TestEliminateTest:
    def test_examples(self):
        assert eliminate_test(5)
        assert eliminate_test(10)
        assert not eliminate_test(55)  # 11 < 3*5, inapplicable shape
        assert not eliminate_test(7)  # representable index, filter declines

    def test_published_small_values(self):
        for J in ELIMINATED:
            assert eliminate_test(J)

    def test_soundness_up_to_300(self):
        for J in range(1, 301):
            if eliminate_test(J):
                assert count_classes_bruteforce(J) == 0


class TestMaxMin:
    # truth table for the classical small indices; entry 21 is settled by
    # the exhaustive oracle (21 = 3*7 is representable by the norm form, so
    # the scaled copy of the full lattice with minimum 21 beats the (5,3)
    # member of minimum 19)
    TRUTH = {
        8: 7,
        15: 13,
        21: 21,
        24: 21,
        32: 28,
        35: 31,
        40: 37,
        45: 39,
        55: 49,
        60: 52,
        65: 61,
    }

    def test_small_indices(self):
        for J, want in self.TRUTH.items():
            res = max_min(J)
            assert res.exists
            assert res.best_minimum == want

    def test_named_witnesses(self):
        def named(J):
            return [(w.params, w.k) for w in max_min(J).witnesses]

        assert named(8) == [(ClassParams(3, 2), 1)]
        assert named(65) == [(ClassParams(9, 5), 1)]
        assert named(45) == [(ClassParams(4, 3), 3)]
        assert named(21) == [(ClassParams(1, 1), 21)]

    def test_nonexistent(self):
        res = max_min(2)
        assert not res.exists
        assert res.best_minimum is None and res.witnesses == []

    def test_witness_value_formula(self):
        for J in range(1, 200):
            res = max_min(J)
            for w in res.witnesses:
                params, k = w.params, w.k
                b = params.minimal_index
                assert (J * params.class_minimum) % b == 0
                assert res.best_minimum == J * params.class_minimum // b
                assert k * b == J

    def test_matches_oracle_up_to_300(self):
        for J in range(1, 301):
            res = max_min(J)
            survey = wr_survey(J)
            assert res.exists == bool(survey)
            if survey:
                assert res.best_minimum == survey[0].minimum
                cosines = {w.params.cosine for w in res.witnesses}
                assert Fraction(survey[0].cos_num, survey[0].cos_den) in cosines

    def test_representable_index_favors_ideal_class(self):
        for J in range(1, 200):
            if norm_split(factorize(J)) is None:
                continue
            res = max_min(J)
            assert res.best_minimum == J
            assert ClassParams(1, 1) in {w.params for w in res.witnesses}


class TestCosFromIndexMin:
    def test_examples(self):
        assert cos_from_index_min(8, 7) == Fraction(1, 7)
        assert cos_from_index_min(1, 1) == Fraction(1, 2)
        assert cos_from_index_min(8, 8) == Fraction(1, 2)
        assert cos_from_index_min(8, 9) is None

    def test_impossible_pair(self):
        with pytest.raises(ValueError):
            cos_from_index_min(8, 4)

    def test_consistent_with_survey(self):
        for J in range(1, 121):
            for rec in wr_survey(J):
                got = cos_from_index_min(J, rec.minimum)
                assert got == Fraction(rec.cos_num, rec.cos_den)


class TestEpsteinZeta:
    def test_hexagonal_reference_value(self):
        z = epstein_zeta(HexSublattice(1, 0, 0, 1), 2, 1e-12)
        assert abs(z.value - HEX_ZETA_2) <= z.abs_error_bound + 1e-13
        assert z.abs_error_bound <= 1e-12 * z.value
        assert z.truncation_radius > 0

    def test_agrees_with_direct_summation(self):
        cases = [
            HexSublattice(1, 0, 0, 1),
            gamma_theta(ClassParams(3, 2)),
            omega_theta(3, 1),
            HexSublattice(5, 0, 0, 1),  # skew, not well-rounded
        ]
        for L in cases:
            z = epstein_zeta(L, 2, 1e-9)
            d = epstein_zeta_direct(L, 2, 1e-4)
            assert abs(z.value - d.value) <= z.abs_error_bound + d.abs_error_bound

    @pytest.mark.parametrize("k", [2, 3])
    def test_scaling(self, k):
        L = HexSublattice(1, 0, 0, 1)
        scaled = HexSublattice(k, 0, 0, k)
        z1 = epstein_zeta(L, 2, 1e-11)
        z2 = epstein_zeta(scaled, 2, 1e-11)
        want = z1.value / k**4
        assert abs(z2.value - want) <= z2.abs_error_bound + z1.abs_error_bound / k**4

    def test_same_angle_same_shape_factor(self):
        # two lattices of one class: zeta * minimum^s must agree
        g = gamma_theta(ClassParams(3, 2))
        big = IndexRepresentation(u=0, j=1, d=7, params=ClassParams(3, 2)).to_sublattice()
        z1 = epstein_zeta(g, 2, 1e-10)
        z2 = epstein_zeta(big, 2, 1e-10)
        g1 = z1.value * 7**2
        g2 = z2.value * 49**2
        assert abs(g1 - g2) <= z1.abs_error_bound * 49 + z2.abs_error_bound * 2401

    def test_shape_factor_increases_with_cosine(self):
        # the factor g = zeta * minimum^s depends only on the angle; it grows
        # from the near-rectangular value 4*zeta(2)*beta(2) toward the
        # hexagonal value as the cosine climbs to 1/2
        z43 = epstein_zeta(gamma_theta(ClassParams(4, 3)), 2, 1e-10)
        z53 = epstein_zeta(gamma_theta(ClassParams(5, 3)), 2, 1e-10)
        g43 = z43.value * 13**2  # cos 1/26
        g53 = z53.value * 19**2  # cos 11/38
        g_hex = epstein_zeta(HexSublattice(1, 0, 0, 1), 2, 1e-10).value
        slack = z43.abs_error_bound * 169 + z53.abs_error_bound * 361
        assert g43 + slack < g53 < g_hex
        assert g43 > 4.0 * (math.pi**2 / 6.0) * 0.915965594

    def test_forced_larger_radius_is_stable(self):
        L = HexSublattice(1, 0, 0, 1)
        z1 = epstein_zeta(L, 2, 1e-9)
        z2 = epstein_zeta(L, 2, 1e-9, min_truncation_radius=2 * z1.truncation_radius)
        assert z2.truncation_radius >= 2 * z1.truncation_radius
        assert abs(z2.value - z1.value) <= z1.abs_error_bound + z2.abs_error_bound

    def test_bad_parameters(self):
        L = HexSublattice(1, 0, 0, 1)
        with pytest.raises(ValueError):
            epstein_zeta(L, 1.0)
        with pytest.raises(ValueError):
            epstein_zeta(L, 2.0, 0.0)
        with pytest.raises(ValueError):
            epstein_zeta_direct(L, 0.5)

    def test_tolerance_floors(self, monkeypatch):
        L = HexSublattice(1, 0, 0, 1)
        for tol in (REL_TOL_FLOOR, 1e-14):
            z = epstein_zeta(L, 2, tol)
            assert abs(z.value - HEX_ZETA_2) <= z.abs_error_bound <= tol * z.value

        def no_summation(*args):
            raise AssertionError("a tolerance below the floor must fail before summing")

        monkeypatch.setattr(optimizer, "_form_points", no_summation)
        for tol in (REL_TOL_FLOOR / 2, 1e-15):
            with pytest.raises(ValueError, match="floor"):
                epstein_zeta(L, 2, tol)
        for tol in (DIRECT_REL_TOL_FLOOR, 1e-13):
            with pytest.raises(ValueError, match="floor"):
                epstein_zeta_direct(L, 2, tol)


class TestSnr:
    def test_hexagonal_value(self):
        v = snr(HexSublattice(1, 0, 0, 1))
        want = -10.0 * math.log10(9.0 * HEX_ZETA_2)
        assert abs(v.db - want) <= v.abs_error_bound + 1e-9

    def test_scaling_shift(self):
        base = snr(HexSublattice(1, 0, 0, 1))
        doubled = snr(HexSublattice(2, 0, 0, 2))
        shift = doubled.db - base.db
        assert abs(shift - 40.0 * math.log10(2.0)) <= (
            base.abs_error_bound + doubled.abs_error_bound + 1e-9
        )


class TestRankBySnr:
    def test_single_class_index(self):
        ranking = rank_by_snr(8)
        assert len(ranking) == 1
        params, minimum, _ = ranking[0]
        assert params == ClassParams(3, 2) and minimum == 7

    def test_index_84(self):
        ranking = rank_by_snr(84)
        assert [(p.as_tuple(), m) for p, m, _ in ranking] == [
            ((1, 1), 84),
            ((5, 3), 76),
        ]
        assert ranking[0][2].db > ranking[1][2].db

    def test_index_91(self):
        ranking = rank_by_snr(91)
        assert [(p.as_tuple(), m) for p, m, _ in ranking] == [
            ((1, 1), 91),
            ((10, 7), 79),
        ]

    def test_trivial_and_empty(self):
        only = rank_by_snr(1)
        assert len(only) == 1 and only[0][0] == ClassParams(1, 1) and only[0][1] == 1
        assert rank_by_snr(2) == []

    def test_matches_scoring_the_survey_witnesses(self):
        # the survey-based reference: score the surveyed sublattice whose
        # angle matches each class; the class's own member gives the very
        # same floats
        checked = 0
        for J in range(1, 201):
            reps = list_representations(J)
            if len(reps) < 2:
                continue
            by_cos = {Fraction(rec.cos_num, rec.cos_den): rec for rec in wr_survey(J)}
            want = []
            for rep in reps:
                rec = by_cos[rep.params.cosine]
                want.append((rep.params, rec.minimum, snr(rec.witness)))
            want.sort(key=lambda e: -e[2].db)
            assert rank_by_snr(J) == want, J
            checked += 1
        assert checked >= 10

    def test_order_matches_minima_with_resolved_gaps(self):
        for J in (84, 91, 105, 120):
            ranking = rank_by_snr(J)
            minima = [m for _, m, _ in ranking]
            assert minima == sorted(minima, reverse=True)
            for (_, _, s1), (_, _, s2) in zip(ranking, ranking[1:]):
                assert s1.db - s2.db > s1.abs_error_bound + s2.abs_error_bound
