"""Acceptance suite: one test and one summary line per numbered criterion.

Each criterion is checked against the stated reference values and
tolerances.  Criteria 1 and 2 check the published values under the reading
they match; where the enumeration contradicts the literal published value
(the maximal minimum at index 21, the class count at index 1925), the test
carries its own proof of the correct value and asserts the published one as
a proven impossibility.  The proofs use exhaustive searches written here,
not the code under test.
"""

import math
import time
import traceback

from conftest import record_criterion

from hexwr.conic import count_representations, solve_norm_form
from hexwr.enumeration import (
    count_N,
    count_classes_bruteforce,
    list_representations,
    index_set_member,
    wr_survey,
)
from hexwr.lattice import HexSublattice
from hexwr.optimizer import epstein_zeta, max_min, rank_by_snr
from hexwr.triples import (
    GENERATOR_LABELS,
    ROOT_PAIR_UPPER,
    all_pairs_up_to,
    angle_point_of_pair,
    apply_generator,
    associate,
    descend,
    generate_tree,
    node_id,
    pair_of_angle_point,
    params_from_triple,
)

MAX_REPORTED_FAILURES = 20


def _criterion(number, description, body, budget=None):
    start = time.perf_counter()
    failures = []
    note = ""
    try:
        note = body(failures) or ""
    except Exception:
        last = traceback.format_exc().strip().splitlines()[-1]
        failures.append(f"unexpected error: {last}")
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed > budget:
        failures.append(f"runtime {elapsed:.2f}s exceeds the {budget:.0f}s budget")
    detail = failures[0] if failures else note
    record_criterion(number, description, not failures, elapsed, detail)
    assert not failures, f"criterion {number} ({description}):\n" + "\n".join(failures)


def _norm(a, b):
    return a * a - a * b + b * b


def _is_norm(v):
    """True when v = a^2 - ab + b^2 for some integers a, b, by exhaustive search.

    4(a^2 - ab + b^2) = (2a - b)^2 + 3b^2, so |b| <= sqrt(4v/3), and by the
    symmetry of the form |a| obeys the same bound.
    """
    r = math.isqrt(4 * v // 3)
    return any(
        _norm(a, b) == v for a in range(-r, r + 1) for b in range(-r, r + 1)
    )


def _first_minimum(L, radius):
    """Least nonzero norm in L, by direct search up to radius (None if none).

    (x, y) lies in L when both coordinates in the basis of L are integers,
    i.e. when det divides d*x - c*y and a*y - b*x.
    """
    det = L.a * L.d - L.c * L.b
    r = math.isqrt(4 * radius // 3)
    norms = [
        _norm(x, y)
        for x in range(-r, r + 1)
        for y in range(-r, r + 1)
        if (L.d * x - L.c * y) % det == 0 and (L.a * y - L.b * x) % det == 0
    ]
    return min((v for v in norms if 0 < v <= radius), default=None)


def test_criterion_1_small_index_table():
    # The published table of maximal minima.  Every row equals the best
    # minimum among the classes other than the hexagonal class (1,1).  At 21,
    # the one index in the table of the form a^2 - ab + b^2, a member of
    # (1,1) exists and beats it: HexSublattice(5, 1, -1, 4) has columns (5,1)
    # and its 120-degree rotation (-1,4), both of norm 21, so it is
    # sqrt(21) * Gamma_theta(1,1) with minimum 21.  No well-rounded
    # sublattice has minimum M > J: a reduced basis gives p^2 + 3J^2 = 4M^2
    # with 0 < p <= M (see angle_data).  So the maximum at 21 is 21, and the
    # stated 19 is the best non-hexagonal class (5,3).  PAPER.md holds only
    # the abstract, so whether the table meant to leave out sublattices
    # similar to the hexagonal lattice cannot be settled here; both facts
    # are checked and the stated values stay as published.
    stated = {
        8: 7, 15: 13, 21: 19, 24: 21, 32: 28, 35: 31,
        40: 37, 45: 39, 55: 49, 60: 52, 65: 61,
    }
    witness = HexSublattice(5, 1, -1, 4)

    def body(failures):
        # the witness: index 21, spanned by a vector and its rotation by
        # 120 degrees, (a, b) -> (-b, a - b), and no shorter vector
        if witness.a * witness.d - witness.c * witness.b != 21:
            failures.append(f"witness {witness} does not have index 21")
        if (witness.c, witness.d) != (-witness.b, witness.a - witness.b):
            failures.append(f"witness {witness} is not similar to the hexagonal lattice")
        if not (_norm(witness.a, witness.b) == _norm(witness.c, witness.d)
                == _first_minimum(witness, 42) == 21):
            failures.append(f"witness {witness} does not have both minima 21")
        # the bound at 21, over every sublattice of index 21 in Hermite
        # normal form, columns (A, 0) and (B, D) with AD = 21 and 0 <= B < A
        minima = [
            _first_minimum(HexSublattice(A, 0, B, 21 // A), 42)
            for A in (1, 3, 7, 21) for B in range(A)
        ]
        if None in minima or max(minima) > 21:
            failures.append(f"an index-21 sublattice has minimum above 21: {minima}")
        proven = {**stated, 21: 21}
        for J, want in stated.items():
            if _is_norm(J) != (J == 21):
                failures.append(f"index {J}: hexagonal member existence differs")
            got = max_min(J).best_minimum
            if got != proven[J]:
                failures.append(
                    f"index {J}: computed maximal minimum {got}, proven {proven[J]}"
                )
            non_hexagonal = max(
                (r.minimum for r in list_representations(J)
                 if r.params.as_tuple() != (1, 1)),
                default=None,
            )
            if non_hexagonal != want:
                failures.append(
                    f"index {J}: best non-hexagonal minimum {non_hexagonal},"
                    f" stated {want}"
                )
        return (
            f"{len(stated)} rows match as the best non-hexagonal minimum;"
            " index 21 has maximum 21 via sqrt(21)*Gamma_theta(1,1)"
        )

    _criterion(1, "small-index maximal minima", body, budget=1.0)


def test_criterion_2_class_counts():
    # The published count at 1925 is 5, with classes (9,7), (18,11), (8,5),
    # (6,5) and (1,1).  Similar lattices share the ratio
    # J/M = n(2m - n)/(m^2 - mn + n^2), so a class forces the minimum of its
    # index-1925 members: 1715 = 5 * 7^3 for (8,5), 1705 = 5 * 11 * 31 for
    # (6,5) and 1925 = 5^2 * 7 * 11 for (1,1).  Each has a prime = 2 mod 3
    # to an odd power, so it is no value of a^2 - ab + b^2 and no lattice
    # vector has that length.  Only (9,7) with scale 25 and (18,11) with
    # scale 7 remain.  The stated 5 counts every admissible class with
    # n(2m - n) | 1925 and drops the condition that the scale be a norm.
    published = ((9, 7), (18, 11), (8, 5), (6, 5), (1, 1))
    surviving = {(9, 7): 25, (18, 11): 7}

    def body(failures):
        if count_N(84) != 2:
            failures.append(f"count_N(84) = {count_N(84)}, stated 2")
        n, brute = count_N(1925), count_classes_bruteforce(1925)
        if not n == brute == 2:
            failures.append(
                f"count_N(1925) = {n}, enumeration {brute}, proven 2 (stated 5)"
            )
        got = {r.params.as_tuple(): r.k for r in list_representations(1925)}
        if got != surviving:
            failures.append(f"index-1925 classes and scales {got}, proven {surviving}")
        dividing = {
            (m, n)
            for n in range(1, math.isqrt(1925) + 1)
            for m in range(n, 2 * n + 1)
            if math.gcd(m, n) == 1 and (m + n) % 3 and 1925 % (n * (2 * m - n)) == 0
        }
        if dividing != set(published):
            failures.append(
                f"admissible classes with n(2m - n) | 1925: {sorted(dividing)}"
            )
        for m, n in published:
            k = 1925 // (n * (2 * m - n))
            forced = k * _norm(m, n)
            if (m, n) in surviving:
                if surviving[(m, n)] != k or not _is_norm(forced):
                    failures.append(f"class {(m, n)}: scale {k}, minimum {forced}")
            elif _is_norm(forced):
                failures.append(f"class {(m, n)}: forced minimum {forced} is a norm")
        return (
            "N(1925) = 2: (9,7) k=25, (18,11) k=7; (8,5), (6,5), (1,1)"
            " would need minima 1715, 1705, 1925, which are not norms"
        )

    _criterion(2, "class counts at 84 and 1925", body)


def test_criterion_3_eliminated_indices():
    eliminated = [2, 5, 6, 10, 11, 14, 17, 22, 23, 26, 29, 33, 34,
                  38, 41, 46, 47, 53, 59]

    def body(failures):
        for J in eliminated:
            if index_set_member(J):
                failures.append(f"{J} reported as a realizable index")
            if wr_survey(J):
                failures.append(
                    f"enumeration found a well-rounded sublattice of index {J}"
                )
        return f"{len(eliminated)} indices"

    _criterion(3, "eliminated indices", body, budget=5.0)


def test_criterion_4_oracle_equivalence():
    def body(failures):
        for J in range(1, 301):
            if count_classes_bruteforce(J) != count_N(J):
                failures.append(
                    f"index {J}: {count_classes_bruteforce(J)} enumerated classes"
                    f" vs {count_N(J)} parameterized"
                )
            survey = wr_survey(J)
            res = max_min(J)
            if bool(survey) != res.exists:
                failures.append(f"index {J}: existence disagreement")
            elif survey and survey[0].minimum != res.best_minimum:
                failures.append(
                    f"index {J}: enumerated best {survey[0].minimum}"
                    f" vs parameterized {res.best_minimum}"
                )
            if len(failures) > MAX_REPORTED_FAILURES:
                failures.append("... truncated")
                break
        return "300 indices cross-checked"

    _criterion(4, "parameterization matches enumeration", body, budget=120.0)


def test_criterion_5_triple_machinery():
    def body(failures):
        pairs = all_pairs_up_to(10_000)
        if len(pairs) < 1000:
            failures.append(f"only {len(pairs)} pairs with c <= 10^4")
        for pair in pairs:
            up, low = pair.upper, pair.lower
            if associate(up) != low or associate(low) != up:
                failures.append(f"involution broken at {pair}")
            if pair_of_angle_point(angle_point_of_pair(pair)) != pair:
                failures.append(f"angle-point round trip broken at {pair}")
            m, n = params_from_triple(up)
            target = solve_norm_form(m, n)
            hits = sum(
                1 for t in (up, low) if (t.a, t.b, t.c) == target
            )
            if hits != 1:
                failures.append(
                    f"{hits} members of {pair} parameterized by ({m},{n})"
                )
            for label in GENERATOR_LABELS:
                child = apply_generator(label, up)
                if child.c <= up.c and up.c > 1:
                    failures.append(f"{label} did not grow {pair}")
            t = up
            steps = 0
            while (t.a, t.b, t.c) != ROOT_PAIR_UPPER:
                _, parent = descend(t)
                if parent.c >= t.c:
                    failures.append(f"descent stalled at {t}")
                    break
                t = parent
                steps += 1
                if steps > 64:
                    failures.append(f"descent from {pair} did not reach the root")
                    break
            if len(failures) > MAX_REPORTED_FAILURES:
                failures.append("... truncated")
                break
        tree = generate_tree(10_000)
        ids = [node_id(p) for p in tree.nodes]
        if len(ids) != len(set(ids)):
            failures.append("tree generation revisited a pair")
        want = {f"{p.upper.a},{p.upper.b},{p.upper.c}" for p in pairs}
        if set(ids) != want:
            failures.append(
                f"tree visited {len(ids)} pairs, direct enumeration found {len(want)}"
            )
        return f"{len(pairs)} pairs checked"

    _criterion(5, "triple machinery at scale", body, budget=30.0)


def test_criterion_6_snr_equivalence():
    def body(failures):
        indices = [J for J in range(1, 121) if count_N(J) >= 2]
        for J in indices:
            ranking = rank_by_snr(J)
            if len(ranking) != count_N(J):
                failures.append(f"index {J}: ranking dropped a class")
            minima = [m for _, m, _ in ranking]
            if minima != sorted(minima, reverse=True):
                failures.append(f"index {J}: SNR order differs from minimum order")
            for (_, _, s1), (_, _, s2) in zip(ranking, ranking[1:]):
                if s1.db - s2.db <= s1.abs_error_bound + s2.abs_error_bound:
                    failures.append(f"index {J}: SNR gap inside the error bounds")
        return f"{len(indices)} indices with two or more classes"

    _criterion(6, "SNR ranking equals minimum ranking", body)


def test_criterion_7_zeta_scaling_and_stability():
    def body(failures):
        hexagonal = HexSublattice(1, 0, 0, 1)
        z = epstein_zeta(hexagonal, 2, 1e-9)
        for k in (2, 3):
            zk = epstein_zeta(HexSublattice(k, 0, 0, k), 2, 1e-9)
            diff = abs(zk.value * k**4 - z.value)
            allowed = zk.abs_error_bound * k**4 + z.abs_error_bound
            if diff > allowed:
                failures.append(
                    f"scaling by {k}: |{zk.value} * {k}^4 - {z.value}|"
                    f" = {diff:.3e} > {allowed:.3e}"
                )
        refined = epstein_zeta(
            hexagonal, 2, 1e-9, min_truncation_radius=2 * z.truncation_radius
        )
        if refined.truncation_radius < 2 * z.truncation_radius:
            failures.append("truncation radius was not doubled")
        rel = abs(refined.value - z.value) / abs(refined.value)
        if rel > 5e-10:
            failures.append(
                f"hexagonal value moved by {rel:.2e} under radius doubling"
            )
        return f"E = {z.value:.12f}"

    _criterion(7, "zeta scaling and truncation stability", body)


def _scale_profile(d):
    """(admissible, omega) where admissible means squarefree, primes 1 mod 3."""
    omega = 0
    p = 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0 or p % 3 != 1:
                return False, 0
            omega += 1
        p += 1
    if d > 1:
        if d % 3 != 1:
            return False, 0
        omega += 1
    return True, omega


def test_criterion_8_representation_counts():
    def body(failures):
        checked = 0
        for d in range(1, 10_001):
            admissible, omega = _scale_profile(d)
            if not admissible:
                continue
            checked += 1
            count = count_representations(d)
            if count != 2 ** (omega + 1):
                failures.append(
                    f"d = {d}: {count} representations, expected 2^{omega + 1}"
                )
            if len(failures) > MAX_REPORTED_FAILURES:
                failures.append("... truncated")
                break
        return f"{checked} admissible scales"

    _criterion(8, "representation counts", body)
