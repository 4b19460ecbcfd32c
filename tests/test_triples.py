"""Tests for Eisenstein triples, pairs, the monoid action, and the tree."""

import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from hexwr.conic import ProjectiveTriple, solve_norm_form
from hexwr.errors import InvariantViolation
from hexwr.triples import (
    GENERATOR_LABELS,
    AssociatedPair,
    EisensteinTriple,
    all_pairs_up_to,
    angle_point_of_pair,
    apply_generator,
    associate,
    descend,
    generate_tree,
    generator_matrix,
    node_id,
    pair_of_angle_point,
    params_from_triple,
    primitive_pair_from_params,
)


def brute_force_triples(c_max):
    """All primitive triples with c <= c_max by direct search."""
    out = []
    for c in range(1, c_max + 1):
        for a in range(0, c + 1):
            bb = 4 * c * c - 3 * a * a
            r = math.isqrt(bb)
            if r * r != bb:
                continue
            if (a + r) % 2:
                continue
            b = (a + r) // 2
            if b < a:
                continue
            if math.gcd(math.gcd(a, b), c) == 1:
                out.append(EisensteinTriple(a, b, c))
    return out


def admissible_params(limit):
    for n in range(1, limit + 1):
        for m in range(n, 2 * n + 1):
            if math.gcd(m, n) == 1 and (m + n) % 3 != 0:
                yield (m, n)


class TestEisensteinTriple:
    def test_valid(self):
        t = EisensteinTriple(3, 8, 7)
        assert t.as_tuple() == (3, 8, 7)
        assert t.is_primitive and t.is_upper and not t.is_lower

    def test_equation_enforced(self):
        with pytest.raises(ValueError):
            EisensteinTriple(1, 2, 3)
        with pytest.raises(ValueError):
            EisensteinTriple(4, 7, 6)

    def test_zero_and_negative_rejected(self):
        with pytest.raises(ValueError):
            EisensteinTriple(0, 0, 0)
        with pytest.raises(ValueError):
            EisensteinTriple(-3, 8, 7)
        with pytest.raises(ValueError):
            EisensteinTriple(0, 1, -1)

    def test_content_and_primitive(self):
        t = EisensteinTriple(9, 24, 21)
        assert t.content == 3
        assert not t.is_primitive
        assert t.primitive() == EisensteinTriple(3, 8, 7)

    def test_a_bigger_than_b_not_primitive(self):
        # valid as a solution but on the wrong side of the a <= b convention
        t = EisensteinTriple(8, 3, 7)
        assert not t.is_primitive

    def test_middle_case_never_occurs(self):
        # b = 2a forces c^2 = 3a^2, impossible for positive integers
        for t in brute_force_triples(120):
            assert t.is_upper or t.is_lower


class TestClassifyGcd:
    def test_matches_actual_content(self):
        # the triple built from coprime (m, n) has content 3 exactly when 3 | m + n
        for n in range(1, 25):
            for m in range(n, 2 * n + 1):
                if math.gcd(m, n) != 1:
                    continue
                a, b, c = solve_norm_form(m, n)
                g = math.gcd(math.gcd(a, b), c)
                assert EisensteinTriple(a, b, c).content == g
                assert g == (3 if (m + n) % 3 == 0 else 1)


class TestAssociate:
    def test_example(self):
        assert associate(EisensteinTriple(3, 8, 7)) == EisensteinTriple(5, 8, 7)

    def test_involution(self):
        for t in brute_force_triples(150):
            assert associate(associate(t)) == t

    def test_needs_a_le_b(self):
        with pytest.raises(ValueError):
            associate(EisensteinTriple(8, 3, 7))

    def test_swaps_upper_lower(self):
        for t in brute_force_triples(150):
            if t.a == 0:
                continue  # (0,1,1) is its own associate's mirror image
            assert associate(t).is_upper != t.is_upper


class TestAssociatedPair:
    def test_from_member_either_side(self):
        upper = EisensteinTriple(3, 8, 7)
        lower = EisensteinTriple(5, 8, 7)
        p1 = AssociatedPair.from_member(upper)
        p2 = AssociatedPair.from_member(lower)
        assert p1 == p2
        assert p1.upper == upper and p1.lower == lower
        assert p1.c == 7

    def test_from_member_normalizes_content(self):
        p = AssociatedPair.from_member(EisensteinTriple(0, 3, 3))
        assert p.upper == EisensteinTriple(0, 1, 1)

    def test_mislabelled_rejected(self):
        with pytest.raises(ValueError):
            AssociatedPair(EisensteinTriple(5, 8, 7))  # a lower member given as upper
        with pytest.raises(ValueError):
            AssociatedPair(EisensteinTriple(0, 3, 3))  # imprimitive

    def test_root_pair(self):
        p = AssociatedPair.from_member(EisensteinTriple(0, 1, 1))
        assert p.upper == EisensteinTriple(0, 1, 1)
        assert p.lower == EisensteinTriple(1, 1, 1)


class TestParams:
    def test_pair_from_params_example(self):
        p = primitive_pair_from_params(3, 2)
        assert p.upper == EisensteinTriple(3, 8, 7)

    @pytest.mark.parametrize(
        "m,n",
        [
            (2, 1),  # 3 | m + n
            (4, 2),  # not coprime
            (5, 2),  # ratio above 2
            (1, 2),  # ratio below 1
            (0, 1),
        ],
    )
    def test_inadmissible_rejected(self, m, n):
        with pytest.raises(ValueError):
            primitive_pair_from_params(m, n)

    def test_round_trip(self):
        for m, n in admissible_params(12):
            pair = primitive_pair_from_params(m, n)
            assert params_from_triple(pair.upper) == (m, n)
            assert params_from_triple(pair.lower) == (m, n)

    def test_every_primitive_triple_has_params(self):
        for t in brute_force_triples(200):
            m, n = params_from_triple(t)
            pair = primitive_pair_from_params(m, n)
            assert t in (pair.upper, pair.lower)

    def test_exactly_one_member_is_parameterized(self):
        seen_pairs = set()
        for t in brute_force_triples(200):
            pair = AssociatedPair.from_member(t)
            if pair in seen_pairs:
                continue
            seen_pairs.add(pair)
            m, n = params_from_triple(pair.upper)
            hits = [u for u in (pair.upper, pair.lower) if u.as_tuple() == solve_norm_form(m, n)]
            assert len(hits) == 1

    @given(
        st.integers(min_value=1, max_value=400),
        st.integers(min_value=1, max_value=400),
    )
    def test_params_round_trip_property(self, n, k):
        # build an admissible pair from arbitrary integers, then invert
        m = n + k % (n + 1)
        assume(math.gcd(m, n) == 1 and (m + n) % 3 != 0)
        pair = primitive_pair_from_params(m, n)
        assert params_from_triple(pair.lower) == (m, n)


class TestAngleBijection:
    def test_examples(self):
        p = AssociatedPair.from_member(EisensteinTriple(3, 8, 7))
        assert angle_point_of_pair(p).as_tuple() == (1, 4, 7)
        root = AssociatedPair.from_member(EisensteinTriple(0, 1, 1))
        assert angle_point_of_pair(root).as_tuple() == (1, 1, 2)

    def test_round_trip_both_parities(self):
        # (1,1,2) exercises the even-q inverse branch, (1,4,7) the odd one
        for pt in (ProjectiveTriple(1, 1, 2), ProjectiveTriple(1, 4, 7)):
            assert angle_point_of_pair(pair_of_angle_point(pt)).as_tuple() == pt.as_tuple()

    def test_round_trip_all_pairs(self):
        for pair in all_pairs_up_to(500):
            pt = angle_point_of_pair(pair)
            assert pair_of_angle_point(pt) == pair

    def test_injective(self):
        pairs = all_pairs_up_to(500)
        points = {angle_point_of_pair(p).as_tuple() for p in pairs}
        assert len(points) == len(pairs)

    def test_point_validation(self):
        with pytest.raises(ValueError):
            pair_of_angle_point(ProjectiveTriple(1, 1, 3))  # not on the cone
        with pytest.raises(ValueError):
            pair_of_angle_point(ProjectiveTriple(0, 1, 1))  # p must be positive
        with pytest.raises(ValueError):
            pair_of_angle_point(ProjectiveTriple(11, 5, 14))  # cosine above 1/2


class TestGenerators:
    def test_matrices(self):
        assert generator_matrix("M4") == ((-3, -1, 4), (-7, 0, 8), (-6, 0, 7))
        assert generator_matrix("M5") == ((4, -1, 4), (7, 0, 8), (6, 0, 7))
        with pytest.raises(ValueError):
            generator_matrix("M9")

    def test_known_children(self):
        t = EisensteinTriple(3, 8, 7)
        expect = {
            "M1": (5, 21, 19),
            "M2": (40, 91, 79),
            "M3": (55, 112, 97),
            "M4": (11, 35, 31),
            "M5": (32, 77, 67),
        }
        for lab, want in expect.items():
            assert apply_generator(lab, t).as_tuple() == want

        t2 = EisensteinTriple(7, 15, 13)
        expect2 = {
            "M1": (13, 48, 43),
            "M2": (69, 160, 139),
            "M3": (104, 209, 181),
            "M4": (16, 55, 49),
            "M5": (65, 153, 133),
        }
        for lab, want in expect2.items():
            assert apply_generator(lab, t2).as_tuple() == want

    def test_root_collapse(self):
        root = EisensteinTriple(0, 1, 1)
        assert apply_generator("M1", root) == root
        assert apply_generator("M2", root) == apply_generator("M3", root)
        assert apply_generator("M2", root).as_tuple() == (7, 15, 13)
        assert apply_generator("M4", root) == apply_generator("M5", root)
        assert apply_generator("M4", root).as_tuple() == (3, 8, 7)

    def test_children_distinct_and_larger_off_root(self):
        for pair in all_pairs_up_to(1000):
            u = pair.upper
            if u.a == 0:
                continue
            kids = [apply_generator(lab, u) for lab in GENERATOR_LABELS]
            assert len({k.as_tuple() for k in kids}) == 5
            for k in kids:
                assert k.is_primitive and k.is_upper and k.c > u.c

    def test_u_swaps_members(self):
        for pair in all_pairs_up_to(300):
            assert apply_generator("U", pair.upper) == pair.lower
            assert apply_generator("U", pair.lower) == pair.upper


class TestDescend:
    def test_examples(self):
        assert descend(EisensteinTriple(5, 21, 19)) == ("M1", EisensteinTriple(3, 8, 7))
        assert descend(EisensteinTriple(7, 15, 13)) == ("M2", EisensteinTriple(0, 1, 1))
        assert descend(EisensteinTriple(3, 8, 7)) == ("M4", EisensteinTriple(0, 1, 1))

    def test_root_and_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            descend(EisensteinTriple(0, 1, 1))
        with pytest.raises(ValueError):
            descend(EisensteinTriple(5, 8, 7))  # lower member
        with pytest.raises(ValueError):
            descend(EisensteinTriple(0, 3, 3))  # imprimitive

    def test_inverts_every_generator_step(self):
        for pair in all_pairs_up_to(400):
            u = pair.upper
            if u.a == 0:
                continue
            for lab in GENERATOR_LABELS:
                child = apply_generator(lab, u)
                got_lab, got_parent = descend(child)
                assert (got_lab, got_parent) == (lab, u)

    def test_unique_valid_preimage(self):
        # of all (generator, smaller pair) combinations exactly one lands on
        # each non-root pair, and descend finds it
        pairs = all_pairs_up_to(400)
        targets = {p.upper.as_tuple(): [] for p in pairs}
        for cand in pairs:
            v = cand.upper
            for lab in GENERATOR_LABELS:
                child = apply_generator(lab, v)
                if child != v and child.as_tuple() in targets:
                    targets[child.as_tuple()].append((lab, v))
        for pair in pairs:
            u = pair.upper
            hits = targets[u.as_tuple()]
            if u.a == 0:
                assert hits == []  # nothing maps onto the root
                continue
            if u.as_tuple() in ((7, 15, 13), (3, 8, 7)):
                assert len(hits) == 2  # root collapse doubles these
            else:
                assert len(hits) == 1
            assert descend(u) in hits

    def test_chain_reaches_root_and_rebuilds(self):
        for pair in all_pairs_up_to(2000):
            u = pair.upper
            labels = []
            steps = 0
            while u.a != 0:
                lab, u = descend(u)
                labels.append(lab)
                steps += 1
                assert steps < 64
            assert u == EisensteinTriple(0, 1, 1)
            # labels run from the node toward the root, so the rebuild
            # applies the last label first
            for lab in reversed(labels):
                u = apply_generator(lab, u)
            assert u == pair.upper


class TestTree:
    def test_requires_a_bound(self):
        with pytest.raises(ValueError):
            generate_tree()

    def test_small_tree(self):
        tree = generate_tree(c_max=7)
        ids = [node_id(p) for p in tree.nodes]
        assert ids == ["0,1,1", "3,8,7"]
        labels = sorted(lab for p, lab, q in tree.edges)
        # M1 self-loop, M4 plus its duplicate M5; M2/M3 children exceed c_max
        assert labels == ["M1", "M4", "M5"]

    def test_depth_limited(self):
        assert [node_id(p) for p in generate_tree(max_depth=0).nodes] == ["0,1,1"]
        tree = generate_tree(max_depth=1)
        assert {node_id(p) for p in tree.nodes} == {"0,1,1", "7,15,13", "3,8,7"}
        assert len(tree.edges) == 5

    def test_matches_direct_enumeration(self):
        for bound in (50, 200, 1000):
            tree = generate_tree(c_max=bound)
            from_tree = {p.upper.as_tuple() for p in tree.nodes}
            direct = {p.upper.as_tuple() for p in all_pairs_up_to(bound)}
            assert from_tree == direct

    def test_in_degrees(self):
        tree = generate_tree(c_max=600)
        indeg = {}
        for p, lab, q in tree.edges:
            indeg[q] = indeg.get(q, 0) + 1
        root = tree.root
        collapsed = {
            AssociatedPair.from_member(EisensteinTriple(7, 15, 13)),
            AssociatedPair.from_member(EisensteinTriple(3, 8, 7)),
        }
        for node in tree.nodes:
            if node == root:
                assert indeg[node] == 1  # the self-loop
            elif node in collapsed:
                assert indeg[node] == 2
            else:
                assert indeg[node] == 1

    def test_bfs_labels_agree_with_descent(self):
        tree = generate_tree(c_max=600)
        edge_set = {(p.upper.as_tuple(), lab, q.upper.as_tuple()) for p, lab, q in tree.edges}
        for node in tree.nodes:
            if node == tree.root:
                continue
            lab, parent = descend(node.upper)
            assert (parent.as_tuple(), lab, node.upper.as_tuple()) in edge_set


class TestAllPairs:
    def test_counts_match_brute_force(self):
        # 7 and 91 are values of c, so the bound itself must be included
        for bound in (7, 10, 91, 100, 400):
            direct = {
                AssociatedPair.from_member(t) for t in brute_force_triples(bound)
            }
            assert {p for p in all_pairs_up_to(bound)} == direct

    def test_sorted_by_c(self):
        cs = [p.c for p in all_pairs_up_to(500)]
        assert cs == sorted(cs)

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            all_pairs_up_to(0)
