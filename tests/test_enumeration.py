"""Tests for index representations, counting, and the two brute forces."""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hexwr.enumeration import (
    IndexRepresentation,
    _ordered_records,
    count_N,
    count_classes_bruteforce,
    counts_up_to,
    decompose_k,
    hnf_sublattices,
    index_set_member,
    list_representations,
    wr_scan,
    wr_survey,
)
from hexwr.errors import InvariantViolation
from hexwr.lattice import (
    ClassParams,
    HexSublattice,
    angle_data,
    class_of,
    is_well_rounded,
    minimum,
)


def spf_sieve(limit):
    """Smallest prime factor for every integer up to limit."""
    spf = list(range(limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            for q in range(p * p, limit + 1, p):
                if spf[q] == q:
                    spf[q] = p
    return spf


def reference_decompose(k, spf):
    """Independent k = 3^u j^2 d splitting from a factor table."""
    fac = {}
    while k > 1:
        p = spf[k]
        fac[p] = fac.get(p, 0) + 1
        k //= p
    e3 = fac.pop(3, 0)
    u = e3 & 1
    j = 3 ** ((e3 - u) // 2)
    d = 1
    for p, e in fac.items():
        j *= p ** (e // 2)
        if e % 2:
            if p % 3 != 1:
                return None
            d *= p
    return (u, j, d)


class TestDecomposeK:
    def test_examples(self):
        assert decompose_k(1) == (0, 1, 1)
        assert decompose_k(21) == (1, 1, 7)
        assert decompose_k(10) is None
        assert decompose_k(12) == (1, 2, 1)
        assert decompose_k(45) is None  # 45 = 3^2 * 5 leaves a bare 5

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            decompose_k(0)

    def test_full_range(self):
        spf = spf_sieve(100_000)
        for k in range(1, 100_001):
            got = decompose_k(k)
            assert got == reference_decompose(k, spf)
            if got is not None:
                u, j, d = got
                assert 3**u * j * j * d == k
                assert u in (0, 1)
                assert sympy.factorint(d) == {} or all(
                    p % 3 == 1 and e == 1 for p, e in sympy.factorint(d).items()
                )

    def test_sympy_spot_checks(self):
        rng = random.Random(5)
        for _ in range(300):
            k = rng.randint(1, 10**7)
            got = decompose_k(k)
            fac = sympy.factorint(k)
            bad = any(p % 3 == 2 and e % 2 for p, e in fac.items())
            assert (got is None) == bad


class TestIndexRepresentation:
    def test_value_and_minimum(self):
        rep = IndexRepresentation(u=1, j=2, d=7, params=ClassParams(1, 1))
        assert rep.k == 84
        assert rep.J == 84
        assert rep.minimum == 84

    def test_invalid_fields(self):
        with pytest.raises(ValueError):
            IndexRepresentation(u=2, j=1, d=1, params=ClassParams(1, 1))
        with pytest.raises(ValueError):
            IndexRepresentation(u=0, j=0, d=1, params=ClassParams(1, 1))
        with pytest.raises(ValueError):
            IndexRepresentation(u=0, j=1, d=10, params=ClassParams(1, 1))
        with pytest.raises(ValueError):
            IndexRepresentation(u=0, j=1, d=49, params=ClassParams(1, 1))
        # d is rejected exactly when it is not 1 or a squarefree product of primes = 1 (mod 3)
        for d in range(1, 2001):
            if all(e == 1 and p % 3 == 1 for p, e in sympy.factorint(d).items()):
                IndexRepresentation(u=0, j=1, d=d, params=ClassParams(1, 1))
            else:
                with pytest.raises(ValueError):
                    IndexRepresentation(u=0, j=1, d=d, params=ClassParams(1, 1))

    def test_to_sublattice(self):
        rep = IndexRepresentation(u=0, j=2, d=1, params=ClassParams(5, 3))
        L = rep.to_sublattice()
        assert L.index == rep.J == 84  # k * minimal index = 4 * 21
        assert is_well_rounded(L)
        assert minimum(L) == rep.minimum == 76  # k * class minimum = 4 * 19
        assert class_of(L) == ClassParams(5, 3)

    @settings(deadline=None)
    @given(st.integers(min_value=1, max_value=10**9))
    def test_every_representation_builds_its_member(self, J):
        for rep in list_representations(J):
            L = rep.to_sublattice()
            assert L.index == J
            assert class_of(L) == rep.params
            assert minimum(L) == rep.minimum


class TestListRepresentations:
    def test_index_84(self):
        reps = list_representations(84)
        assert len(reps) == 2
        entries = {(r.u, r.j, r.d, r.params.as_tuple()) for r in reps}
        assert entries == {(1, 2, 7, (1, 1)), (0, 2, 1, (5, 3))}
        by_params = {r.params.as_tuple(): r for r in reps}
        assert by_params[(1, 1)].minimum == 84
        assert by_params[(5, 3)].minimum == 76

    def test_index_1925(self):
        # the three candidate classes (8,5), (6,5), (1,1) would need scale
        # factors 35, 55, 1925, all containing a bare prime = 2 mod 3, so
        # only two representations survive
        reps = list_representations(1925)
        entries = {(r.u, r.j, r.d, r.params.as_tuple()) for r in reps}
        assert entries == {(0, 5, 1, (9, 7)), (0, 1, 7, (18, 11))}

    def test_small_cases(self):
        assert list_representations(2) == []
        assert count_N(1) == 1
        assert count_N(3) == 1
        assert count_N(84) == 2
        assert count_N(8) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            list_representations(0)

    def test_representation_values_consistent(self):
        for J in range(1, 200):
            for rep in list_representations(J):
                assert rep.J == J
                assert J % rep.params.minimal_index == 0
                assert rep.k == J // rep.params.minimal_index


class TestIndexSetMember:
    def test_examples(self):
        assert index_set_member(8)
        assert not index_set_member(47)
        assert index_set_member(3)

    def test_known_absentees(self):
        for J in (2, 5, 6, 10, 11, 14, 46, 47, 53, 59):
            assert not index_set_member(J)

    def test_table_of_small_members(self):
        members = [J for J in range(1, 17) if index_set_member(J)]
        assert members == [1, 3, 4, 7, 8, 9, 12, 13, 15, 16]


class TestCountsUpTo:
    def test_matches_count_N(self):
        # one sieve against one factorization per index; 2 * 10**4 reaches
        # 2**14 and 5**6, so several passes per prime = 2 mod 3 are checked
        X = 2 * 10**4
        assert counts_up_to(X) == [0] + [count_N(J) for J in range(1, X + 1)]

    def test_small_bounds(self):
        assert counts_up_to(0) == [0]
        assert counts_up_to(1) == [0, 1]
        assert counts_up_to(8) == [0, 1, 0, 1, 1, 0, 0, 1, 1]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            counts_up_to(-1)


class TestHnfSublattices:
    def test_counts(self):
        assert len(list(hnf_sublattices(1))) == 1
        assert len(list(hnf_sublattices(4))) == 7
        assert len(list(hnf_sublattices(8))) == 15

    def test_distinct_and_correct_index(self):
        for J in (6, 12, 30):
            seen = set()
            for L in hnf_sublattices(J):
                assert L.index == J
                assert L.b == 0 and 0 <= L.c < L.a
                seen.add(L)
            assert len(seen) == sum(sympy.divisors(J))

    def test_index_8_wr_members(self):
        wr = [L for L in hnf_sublattices(8) if is_well_rounded(L)]
        assert wr
        for L in wr:
            assert minimum(L) == 7
            data = angle_data(L)
            assert (data.cos_num, data.cos_den) == (1, 7)


class TestSurveyAgreement:
    def test_examples(self):
        assert count_classes_bruteforce(84) == 2
        assert count_classes_bruteforce(2) == 0
        assert count_classes_bruteforce(12) == count_N(12) == 1

    def test_oracle_agreement_up_to_150(self):
        for J in range(1, 151):
            assert count_classes_bruteforce(J) == count_N(J)
            assert index_set_member(J) == any(
                is_well_rounded(L) for L in hnf_sublattices(J)
            )

    def test_records_match_representations(self):
        # the survey and the representation list must describe the same
        # classes with the same minima, member for member
        for J in range(1, 151):
            reps = {
                r.params.cosine: r.minimum for r in list_representations(J)
            }
            recs = {
                Fraction(rec.cos_num, rec.cos_den): rec.minimum
                for rec in wr_survey(J)
            }
            assert reps == recs

    def test_survey_sorted_by_minimum(self):
        for J in (84, 120, 144):
            mins = [rec.minimum for rec in wr_survey(J)]
            assert mins == sorted(mins, reverse=True)
            assert len(set(mins)) == len(mins)

    def test_cache_is_bounded(self):
        assert wr_survey.cache_info().maxsize is not None

    def test_witness_classes(self):
        for rec in wr_survey(84):
            params = class_of(rec.witness)
            assert params.cosine == Fraction(rec.cos_num, rec.cos_den)


class TestScan:
    # wr_scan is the whole-range brute force behind `hexwr oracle`; wr_survey
    # reduces every Hermite-normal-form sublattice of one index and is the reference
    X = 2000

    @pytest.fixture(scope="class")
    def scan(self):
        return wr_scan(self.X)

    def test_matches_survey(self, scan):
        def fields(records):
            return [(r.cos_num, r.cos_den, r.minimum, r.members) for r in records]

        for J in range(1, 301):
            assert fields(scan[J]) == fields(wr_survey(J)), J

    def test_witnesses(self, scan):
        for J, records in scan.items():
            for rec in records:
                L = rec.witness
                assert L.det == J
                assert is_well_rounded(L) and minimum(L) == rec.minimum
                data = angle_data(L)
                assert (data.cos_num, data.cos_den) == (rec.cos_num, rec.cos_den)

    def test_minimum_interval(self, scan):
        # sqrt(3)/2 J < M <= J, which is why the vectors of norm <= X suffice
        for J, records in scan.items():
            for rec in records:
                assert 3 * J * J < 4 * rec.minimum**2 and rec.minimum <= J

    def test_class_counts(self, scan):
        counts = counts_up_to(self.X)
        assert list(scan) == list(range(1, self.X + 1))
        assert [len(scan[J]) for J in scan] == counts[1:]

    def test_small_bounds(self):
        (rec,) = wr_scan(1)[1]
        assert (rec.cos_num, rec.cos_den, rec.minimum, rec.members) == (1, 2, 1, 1)
        assert wr_scan(2)[2] == ()
        with pytest.raises(ValueError):
            wr_scan(0)

    def test_ordering_checks(self):
        # the ordering helper shared by wr_survey and wr_scan
        L = HexSublattice(1, 0, 0, 1)
        with pytest.raises(InvariantViolation, match="same angle"):
            _ordered_records(7, {(1, 7, 7): [1, L], (1, 7, 6): [1, L]})
        with pytest.raises(InvariantViolation, match="share the minimum"):
            _ordered_records(7, {(1, 7, 7): [1, L], (1, 2, 7): [1, L]})
        records = _ordered_records(7, {(1, 7, 6): [3, L], (1, 2, 7): [1, L]})
        assert [r.minimum for r in records] == [7, 6]


class TestMinimality:
    def test_gamma_is_minimal_in_class(self):
        # any well-rounded sublattice sharing the angle of a class has
        # minimum at least the class minimum, with equality only at the
        # minimal index itself
        for J in range(1, 151):
            for rec in wr_survey(J):
                params = class_of(rec.witness)
                k = J // params.minimal_index
                assert J % params.minimal_index == 0
                assert decompose_k(k) is not None
                assert rec.minimum == k * params.class_minimum
                assert rec.minimum >= params.class_minimum
                if rec.minimum == params.class_minimum:
                    assert J == params.minimal_index

    def test_realized_members_found_by_oracle(self):
        for J in range(1, 101):
            recs = {(rec.cos_num, rec.cos_den) for rec in wr_survey(J)}
            for rep in list_representations(J):
                L = rep.to_sublattice()
                assert L.index == J
                assert is_well_rounded(L)
                assert minimum(L) == rep.minimum
                data = angle_data(L)
                assert (data.cos_num, data.cos_den) in recs
