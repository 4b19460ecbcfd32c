"""Tests for the conic parameterization layer."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hexwr import conic
from hexwr.conic import (
    ANGLE_FORM,
    NORM_FORM,
    ConicSpec,
    ProjectiveTriple,
    count_representations,
    parameterize,
    scaled_angle_solutions,
    solve_angle_form,
    solve_norm_form,
)
from hexwr.errors import InvariantViolation, NotRepresentableError
from hexwr.triples import _inverse


def brute_force_solutions(spec, z_bound):
    """Every primitive canonical solution with |z| <= z_bound, by raw scan."""
    sols = set()
    # |alpha x^2 + ...| = delta z^2 bounds x, y crudely for the definite forms
    # used here (alpha, gamma > 0, discriminant negative).
    lim = z_bound * (abs(spec.delta) + 3)
    for x in range(-lim, lim + 1):
        for y in range(-lim, lim + 1):
            v = spec.evaluate(x, y)
            if v < 0 or v % spec.delta != 0:
                continue
            z2 = v // spec.delta
            z = math.isqrt(z2)
            if z * z == z2 and 0 < z <= z_bound:
                sols.add(ProjectiveTriple.from_raw(x, y, z).as_tuple())
                sols.add(ProjectiveTriple.from_raw(x, y, -z).as_tuple())
    return sols


def admissible_scales(bound):
    """Every d < bound that is 1 or a squarefree product of primes = 1 (mod 3)."""
    return [
        d for d in range(1, bound)
        if all(e == 1 and p % 3 == 1 for p, e in sympy.factorint(d).items())
    ]


def on_seed_line(spec, t, m, n):
    """Does (x/z, y/z) lie on the slope-(m/n) line through the seed (a/c, b/c)?

    The line is  u - a/c = (m/n) (v - b/c), cleared of denominators.
    """
    a, b, c = spec.seed
    x, y, z = t.as_tuple()
    return n * (x * c - a * z) == m * (y * c - b * z)


class TestParameterize:
    def test_angle_form_basic(self):
        # slope 2/1 hits the smallest nontrivial angle point
        assert parameterize(ANGLE_FORM, 2, 1).as_tuple() == (1, 4, 7)

    def test_angle_form_matches_closed_form(self):
        for m in range(0, 9):
            for n in range(-8, 9):
                if (m, n) == (0, 0) or math.gcd(m, abs(n)) != 1:
                    continue
                t = parameterize(ANGLE_FORM, m, n)
                want = ProjectiveTriple.from_raw(m * m - 3 * n * n, 2 * m * n, m * m + 3 * n * n)
                assert t == want

    def test_degenerate_line_branch(self):
        # (m, n) = (1, 0) is the vertical-line case: (-a*alpha - b*beta, b*alpha, c*alpha)
        t = parameterize(NORM_FORM, 1, 0)
        assert t.as_tuple() == (0, -1, 1)
        a, b, c = NORM_FORM.seed
        al, be = NORM_FORM.alpha, NORM_FORM.beta
        assert t == ProjectiveTriple.from_raw(-a * al - b * be, b * al, c * al)

    def test_norm_form_line_intersection(self):
        # Independently: among all solutions with |z| <= 10, exactly one
        # projective point other than the seed lies on the slope-3/2 line.
        t = parameterize(NORM_FORM, 3, 2)
        sols = brute_force_solutions(NORM_FORM, 10)
        seed_pt = ProjectiveTriple.from_raw(*NORM_FORM.seed).as_tuple()
        on_line = {
            s for s in sols
            if s != seed_pt and on_seed_line(NORM_FORM, ProjectiveTriple(*s), 3, 2)
        }
        assert on_line == {t.as_tuple()}
        assert t.as_tuple() == (8, 3, 7)

    def test_norm_form_swapped_parameters(self):
        # the coordinate swap of the form is realized by swapping m and n
        assert parameterize(NORM_FORM, 2, 3).as_tuple() == (3, 8, 7)

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            parameterize(ANGLE_FORM, 2, 4)

    def test_rejects_zero_pair(self):
        with pytest.raises(ValueError):
            parameterize(ANGLE_FORM, 0, 0)

    def test_all_solutions_covered(self):
        # every projective solution of the norm form with z <= 40 comes from
        # some coprime pair in a small window
        target = {s for s in brute_force_solutions(NORM_FORM, 40) if s[2] > 0}
        got = set()
        for m in range(0, 100):
            for n in range(-99, 100):
                if (m, n) == (0, 0) or math.gcd(m, abs(n)) != 1:
                    continue
                t = parameterize(NORM_FORM, m, n)
                if 0 < t.z <= 40:
                    got.add(t.as_tuple())
        assert target <= got

    @settings(max_examples=80)
    @given(st.integers(0, 60), st.integers(-60, 60))
    def test_output_satisfies_conic(self, m, n):
        if (m, n) == (0, 0) or math.gcd(m, abs(n)) != 1:
            return
        for spec in (ANGLE_FORM, NORM_FORM):
            x, y, z = parameterize(spec, m, n).as_tuple()
            assert spec.evaluate(x, y) == spec.delta * z * z

    def test_distinct_pairs_distinct_points(self):
        seen = {}
        for m in range(0, 40):
            for n in range(-39, 40):
                if math.gcd(m, abs(n)) != 1:
                    continue
                if m == 0 and n < 0:
                    continue  # (0,-1) is the same line as (0,1)
                t = parameterize(ANGLE_FORM, m, n).as_tuple()
                assert t not in seen, f"{(m, n)} and {seen[t]} collide on {t}"
                seen[t] = (m, n)


class TestConicSpecValidation:
    def test_bad_seed(self):
        with pytest.raises(ValueError):
            ConicSpec(1, 0, 3, 1, (1, 1, 1))

    def test_degenerate_form(self):
        with pytest.raises(ValueError):
            ConicSpec(1, 2, 1, 1, (0, 1, 1))

    def test_zero_delta(self):
        with pytest.raises(ValueError):
            ConicSpec(1, 0, 3, 0, (0, 0, 1))


class TestSolveAngleForm:
    def test_examples(self):
        assert solve_angle_form(2, 1).as_tuple() == (1, 4, 7)
        assert solve_angle_form(3, 1).as_tuple() == (1, 1, 2)
        assert solve_angle_form(5, 2).as_tuple() == (13, 20, 37)

    def test_ratio_window_enforced(self):
        with pytest.raises(ValueError):
            solve_angle_form(1, 1)  # ratio 1 < sqrt(3)
        with pytest.raises(ValueError):
            solve_angle_form(7, 2)  # ratio 3.5 > 3
        with pytest.raises(ValueError):
            solve_angle_form(6, 2)  # not coprime

    def test_cosine_range(self):
        for m in range(2, 40):
            for n in range(1, m):
                if math.gcd(m, n) != 1 or not (3 * n * n < m * m and m <= 3 * n):
                    continue
                p, r, q = solve_angle_form(m, n).as_tuple()
                assert p * p + 3 * r * r == q * q
                assert 0 < 2 * p <= q


class TestSolveNormForm:
    def test_examples(self):
        assert solve_norm_form(1, 1) == (1, 1, 1)
        assert solve_norm_form(3, 2) == (3, 8, 7)
        assert solve_norm_form(9, 7) == (45, 77, 67)

    def test_gcd_structure(self):
        # gcd is 3 exactly when 3 divides m + n; non-coprime m, n are rejected
        for m in range(1, 49):
            for n in range(1, 49):
                if not (n <= 2 * m and m <= 2 * n):
                    continue
                if math.gcd(m, n) != 1:
                    with pytest.raises(ValueError):
                        solve_norm_form(m, n)
                    continue
                a, b, c = solve_norm_form(m, n)
                g = math.gcd(math.gcd(a, b), c)
                assert g == (3 if (m + n) % 3 == 0 else 1)

    def test_ratio_enforced(self):
        with pytest.raises(ValueError):
            solve_norm_form(5, 1)

    def test_covers_all_triples(self):
        # every nonnegative primitive solution with a <= b and c <= 60 shows up
        # as an exact divide-by-gcd of some parameterized triple
        want = set()
        for s in brute_force_solutions(NORM_FORM, 60):
            x, y, z = s
            if x >= 0 and y >= 0 and z > 0 and x <= y:
                want.add(s)
        got = set()
        for m in range(1, 130):
            for n in range(1, 130):
                if math.gcd(m, n) != 1 or not (n <= 2 * m and m <= 2 * n):
                    continue
                a, b, c = solve_norm_form(m, n)
                if c > 180:
                    continue
                g = math.gcd(math.gcd(a, b), c)
                a, b, c = a // g, b // g, c // g
                if c <= 60:
                    got.add((a, b, c) if a <= b else (b, a, c))
        assert want <= got


class TestScaledAngleSolutions:
    def test_d1_small(self):
        sols = {t.as_tuple() for t in scaled_angle_solutions(1, 7)}
        assert (1, 1, 2) in sols
        assert (1, 4, 7) in sols

    def test_d7_unit_q(self):
        sols = {t.as_tuple() for t in scaled_angle_solutions(7, 1)}
        assert (2, 1, 1) in sols

    def test_inadmissible_scale(self):
        with pytest.raises(NotRepresentableError):
            scaled_angle_solutions(5, 10)
        with pytest.raises(NotRepresentableError):
            scaled_angle_solutions(49, 10)  # squared factor

    def test_matches_exhaustive_scan(self):
        # a scan over p, independent of the scan over r inside the library
        for d in admissible_scales(300):
            want = []
            for q in range(1, 9):
                for p in range(0, math.isqrt(d * q * q) + 1):
                    rem = d * q * q - p * p
                    if rem % 3 != 0:
                        continue
                    r = math.isqrt(rem // 3)
                    if 3 * r * r == rem and math.gcd(math.gcd(p, r), q) == 1:
                        want.append((p, r, q))
            for q_max in range(1, 9):
                got = [t.as_tuple() for t in scaled_angle_solutions(d, q_max)]
                assert got == sorted(w for w in want if w[2] <= q_max), (d, q_max)

    def test_line_parameterization_reaches_every_solution(self):
        # the line through a q = 1 seed (a, b, 1) and a solution (p, r, q) has
        # slope (p - a q)/(r - b q); parameterize must land on that solution
        for d in admissible_scales(200):
            seed = scaled_angle_solutions(d, 1)[0]
            a, b, _ = seed.as_tuple()
            spec = ConicSpec(1, 0, 3, d, seed.as_tuple())
            for t in scaled_angle_solutions(d, 6):
                if t == seed:
                    continue
                p, r, q = t.as_tuple()
                m, n = p - a * q, r - b * q
                g = math.gcd(m, n)
                assert parameterize(spec, m // g, n // g) == t, (d, t)


class TestCountRepresentations:
    def test_examples(self):
        assert count_representations(7) == 4    # (+-2, +-1)
        assert count_representations(1) == 2    # (+-1, 0)
        assert count_representations(91) == 8   # two orbits of four

    def test_rejects_bad_scale(self):
        with pytest.raises(NotRepresentableError):
            count_representations(10)

    def test_closed_form_small_range(self):
        # the scan inside count_representations asserts the 2^(omega+1) law;
        # run it across every d up to 10^4, and check that it accepts exactly
        # 1 and the squarefree products of primes = 1 (mod 3)
        admissible = []
        for d in range(1, 10**4 + 1):
            try:
                count_representations(d)
                admissible.append(d)
            except NotRepresentableError:
                pass
        assert admissible == admissible_scales(10**4 + 1)
        assert 7 in admissible and 91 in admissible and 5 not in admissible


class TestInvariantViolations:
    """Broken invariants raise InvariantViolation, never a bare assert."""

    def test_parameterize_non_solution(self, monkeypatch):
        monkeypatch.setattr(ConicSpec, "evaluate", lambda self, x, y: -1)
        with pytest.raises(InvariantViolation):
            parameterize(ANGLE_FORM, 2, 1)

    def test_angle_solution_out_of_range(self, monkeypatch):
        monkeypatch.setattr(conic, "parameterize", lambda spec, m, n: ProjectiveTriple(1, 0, 1))
        with pytest.raises(InvariantViolation):
            solve_angle_form(2, 1)

    def test_count_contradicts_closed_form(self, monkeypatch):
        monkeypatch.setattr(conic, "_validate_scale", lambda d: [7, 13])
        with pytest.raises(InvariantViolation):
            count_representations(7)

    def test_singular_generator(self):
        with pytest.raises(InvariantViolation):
            _inverse(((1, 0, 0), (0, 1, 0), (0, 0, 0)))

    def test_checks_survive_python_O(self):
        script = (
            "from hexwr import conic, triples\n"  # triples runs its startup checks on import
            "from hexwr.errors import InvariantViolation\n"
            "conic.ConicSpec.evaluate = lambda self, x, y: -1\n"
            "try:\n"
            "    conic.parameterize(conic.ANGLE_FORM, 2, 1)\n"
            "except InvariantViolation:\n"
            "    print('raised', __debug__)\n"
        )
        src = Path(conic.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "raised False"
