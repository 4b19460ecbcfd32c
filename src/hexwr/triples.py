"""Eisenstein triples, associated pairs, and the monoid acting on them.

An Eisenstein triple is a nonnegative integer solution of a^2 - ab + b^2 = c^2.
It is primitive when gcd(a, b, c) = 1 and a <= b.  Each primitive triple
(a, b, c) travels with its associate (b - a, b, c); the unordered pair is the
object that matters geometrically, because both members describe the same
similarity class of well-rounded sublattices.  Exactly one member of each
pair comes straight from the two-parameter formula of ``solve_norm_form``
at an admissible parameter pair, and five integer matrices generate every
pair from <0, 1, 1> in a unique way, which yields the tree built here.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

from .arith import _check_admissible, is_admissible
from .conic import ProjectiveTriple, solve_norm_form
from .errors import InvariantViolation

__all__ = [
    "EisensteinTriple",
    "AssociatedPair",
    "GENERATOR_LABELS",
    "generator_matrix",
    "associate",
    "is_admissible",
    "admissible_params",
    "primitive_pair_from_params",
    "params_from_triple",
    "angle_point_of_pair",
    "pair_of_angle_point",
    "apply_generator",
    "descend",
    "PairTree",
    "node_id",
    "generate_tree",
    "all_pairs_up_to",
]

Matrix = tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class EisensteinTriple:
    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        if self.a < 0 or self.b < 0 or self.c <= 0:
            raise ValueError(f"triple {(self.a, self.b, self.c)} out of range")
        if self.a * self.a - self.a * self.b + self.b * self.b != self.c * self.c:
            raise ValueError(f"{(self.a, self.b, self.c)} does not solve a^2-ab+b^2=c^2")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    @property
    def content(self) -> int:
        return math.gcd(math.gcd(self.a, self.b), self.c)

    @property
    def is_primitive(self) -> bool:
        return self.content == 1 and self.a <= self.b

    @property
    def is_upper(self) -> bool:
        """b > 2a; the member whose angle point needs no absolute value."""
        return self.b > 2 * self.a

    @property
    def is_lower(self) -> bool:
        return self.b < 2 * self.a

    def primitive(self) -> "EisensteinTriple":
        g = self.content
        if g == 1:
            return self
        return EisensteinTriple(self.a // g, self.b // g, self.c // g)

    def __str__(self) -> str:
        return f"({self.a},{self.b},{self.c})"


def associate(t: EisensteinTriple) -> EisensteinTriple:
    """The partner triple (b - a, b, c).  An involution on primitive triples."""
    if t.a > t.b:
        raise ValueError(f"associate undefined for {t}: needs a <= b")
    return EisensteinTriple(t.b - t.a, t.b, t.c)


@dataclass(frozen=True)
class AssociatedPair:
    """Unordered pair {t, associate(t)} of primitive triples, stored by its upper member.

    ``upper`` has b > 2a and ``lower``, its associate, has b < 2a.  b = 2a
    cannot happen for a nonzero triple (it would force c^2 = 3a^2).
    """

    upper: EisensteinTriple

    def __post_init__(self) -> None:
        if not (self.upper.is_primitive and self.upper.is_upper):
            raise ValueError(f"{self.upper} is not a primitive upper triple")

    @classmethod
    def from_member(cls, t: EisensteinTriple) -> "AssociatedPair":
        t = t.primitive()
        if t.a > t.b:
            raise ValueError(f"{t} is not a pair member: needs a <= b")
        return cls(t if t.is_upper else associate(t))

    @property
    def lower(self) -> EisensteinTriple:
        return associate(self.upper)

    @property
    def c(self) -> int:
        return self.upper.c

    def __str__(self) -> str:
        u = self.upper
        return f"<{u.a},{u.b},{u.c}>"


def primitive_pair_from_params(m: int, n: int) -> AssociatedPair:
    """Associated pair containing solve_norm_form(m, n), for admissible (m, n).

    Admissible means m, n > 0 coprime, 1 <= m/n <= 2 and 3 does not divide
    m + n; under those conditions the raw triple is already primitive.
    """
    _check_admissible(m, n)
    a, b, c = solve_norm_form(m, n)
    return AssociatedPair.from_member(EisensteinTriple(a, b, c))


def admissible_params(c_max: int) -> Iterator[tuple[int, int]]:
    """Every admissible (m, n) with m^2 - mn + n^2 <= c_max, by increasing n then m."""
    for n in range(1, math.isqrt(c_max) + 1):
        for m in range(n, 2 * n + 1):
            if m * m - m * n + n * n <= c_max and is_admissible(m, n):
                yield (m, n)


def _params_of_member(t: EisensteinTriple) -> tuple[int, int] | None:
    """Invert a = m(2n-m), b = n(2m-n), c = m^2 - mn + n^2 if possible.

    Uses a + c = n(m + n), b + c = m(m + n) and a + b + 2c = (m + n)^2.
    """
    s2 = t.a + t.b + 2 * t.c
    s = math.isqrt(s2)
    if s * s != s2 or s == 0:
        return None
    if (t.b + t.c) % s or (t.a + t.c) % s:
        return None
    m, n = (t.b + t.c) // s, (t.a + t.c) // s
    if not is_admissible(m, n):
        return None
    if solve_norm_form(m, n) != t.as_tuple():
        return None
    return (m, n)


def params_from_triple(t: EisensteinTriple) -> tuple[int, int]:
    """Admissible (m, n) whose triple lies in the associated pair of t.

    Exactly one member of each pair is parameterized; this tries t itself
    and then its associate.
    """
    t = t.primitive()
    if t.a > t.b:
        raise ValueError(f"{t} is not a pair member: needs a <= b")
    for cand in (t, associate(t)):
        mn = _params_of_member(cand)
        if mn is not None:
            return mn
    raise InvariantViolation(
        f"no admissible parameters found for {t}; "
        "every primitive triple should belong to a parameterized pair"
    )


def angle_point_of_pair(pair: AssociatedPair) -> ProjectiveTriple:
    """Image (b - 2a, b, 2c) of the upper member, reduced to a primitive point.

    This is the bijection between associated pairs and angle points (p, r, q)
    with p^2 + 3 r^2 = q^2 and 0 < 2p <= q.
    """
    u = pair.upper
    return ProjectiveTriple.from_raw(u.b - 2 * u.a, u.b, 2 * u.c)


def pair_of_angle_point(pt: ProjectiveTriple) -> AssociatedPair:
    """Inverse of angle_point_of_pair.

    The inverse map is ((r - p)/2, r, q/2) applied to the smallest multiple
    of (p, r, q) that keeps both divisions integral; q odd forces doubling.
    """
    p, r, q = pt.as_tuple()
    if not (p > 0 and r > 0 and q > 0):
        raise ValueError(f"{pt} is not an angle point: needs positive entries")
    if p * p + 3 * r * r != q * q:
        raise ValueError(f"{pt} does not satisfy p^2 + 3r^2 = q^2")
    if 2 * p > q:
        raise ValueError(f"{pt} has cosine above 1/2")
    if q % 2 == 0:
        t = EisensteinTriple((r - p) // 2, r, q // 2)  # p and r are both odd here
    else:
        t = EisensteinTriple(r - p, 2 * r, q)
    return AssociatedPair.from_member(t)


# ---------------------------------------------------------------------------
# the monoid of integer matrices acting on triples and pairs
# ---------------------------------------------------------------------------

_U: Matrix = ((-1, 1, 0), (0, 1, 0), (0, 0, 1))
_M1: Matrix = ((3, -4, 4), (7, -7, 8), (6, -6, 7))
_M2: Matrix = ((-4, 3, 4), (-7, 7, 8), (-6, 6, 7))
_M3: Matrix = ((1, 3, 4), (0, 7, 8), (0, 6, 7))


def _matmul(x: Matrix, y: Matrix) -> Matrix:
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def _matvec(x: Matrix, v: tuple[int, int, int]) -> tuple[int, int, int]:
    return tuple(sum(x[i][k] * v[k] for k in range(3)) for i in range(3))


def _inverse(x: Matrix) -> Matrix:
    # cyclic-index cofactors carry the checkerboard sign already
    cof = tuple(
        tuple(
            x[(i + 1) % 3][(j + 1) % 3] * x[(i + 2) % 3][(j + 2) % 3]
            - x[(i + 1) % 3][(j + 2) % 3] * x[(i + 2) % 3][(j + 1) % 3]
            for j in range(3)
        )
        for i in range(3)
    )
    d = sum(x[0][j] * cof[0][j] for j in range(3))  # expansion along the first row
    if abs(d) != 1:
        raise InvariantViolation(f"generator {x} is not unimodular")
    # adjugate = transpose of cofactors; divide by det (+-1)
    return tuple(tuple(d * cof[j][i] for j in range(3)) for i in range(3))


_GENERATORS: dict[str, Matrix] = {
    "U": _U,
    "M1": _M1,
    "M2": _M2,
    "M3": _M3,
    "M4": _matmul(_M1, _U),
    "M5": _matmul(_M2, _U),
}

_INVERSES: dict[str, Matrix] = {k: _inverse(v) for k, v in _GENERATORS.items()}

_IDENTITY: Matrix = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

# startup sanity: the derived generators really are the stated products,
# U is an involution, and every inverse is exact.
if (
    _GENERATORS["M4"] != ((-3, -1, 4), (-7, 0, 8), (-6, 0, 7))
    or _GENERATORS["M5"] != ((4, -1, 4), (7, 0, 8), (6, 0, 7))
    or _matmul(_U, _U) != _IDENTITY
    or any(_matmul(v, _INVERSES[k]) != _IDENTITY for k, v in _GENERATORS.items())
):
    raise InvariantViolation("the generator table contradicts its stated products or inverses")

#: tree generator labels, in the order children are expanded
GENERATOR_LABELS: tuple[str, ...] = ("M1", "M2", "M3", "M4", "M5")


def generator_matrix(label: str) -> Matrix:
    try:
        return _GENERATORS[label]
    except KeyError:
        raise ValueError(f"unknown generator {label!r}") from None


def apply_generator(label: str, t: EisensteinTriple) -> EisensteinTriple:
    """Image of a primitive triple under one generator.

    The five M generators and U all preserve the set of primitive triples;
    a violation would falsify the closure law, so it is raised loudly rather
    than returned.
    """
    mat = generator_matrix(label)
    v = _matvec(mat, t.as_tuple())
    try:
        out = EisensteinTriple(*v)
    except ValueError as exc:
        raise InvariantViolation(f"{label} maps {t} outside the triple set: {v}") from exc
    if t.is_primitive and not out.is_primitive:
        raise InvariantViolation(f"{label} maps primitive {t} to imprimitive {out}")
    return out


def _descent_label(t: EisensteinTriple) -> str:
    """Which generator's inverse undoes the last step that produced t.

    Case split on c/b against 13/15, 7/8 and the two roots of
    143 x^2 - 252 x + 111 (both irrational, so ties cannot occur).
    All comparisons are exact integer arithmetic.
    """
    b, c = t.b, t.c
    if 15 * c < 13 * b:
        return "M3"
    quad = 143 * c * c - 252 * b * c + 111 * b * b  # sign locates c/b between the roots
    if quad > 0 and 143 * c < 126 * b:
        return "M2"
    if 8 * c < 7 * b:
        return "M5"
    if quad < 0:
        return "M4"
    return "M1"


def descend(t: EisensteinTriple) -> tuple[str, EisensteinTriple]:
    """One step toward the root: the unique (label, parent) with label(parent) = t.

    Defined for primitive upper triples other than the root (0, 1, 1).
    The parent is again a primitive upper triple with strictly smaller c;
    any failure of that pattern would refute the unique-path property and
    raises InvariantViolation.
    """
    if not (t.is_primitive and t.is_upper):
        raise ValueError(f"descend needs a primitive upper triple, got {t}")
    if t.a == 0:
        raise ValueError("the root (0,1,1) has no parent")
    label = _descent_label(t)
    v = _matvec(_INVERSES[label], t.as_tuple())
    try:
        parent = EisensteinTriple(*v)
    except ValueError as exc:
        raise InvariantViolation(f"descent of {t} via {label} left the triple set: {v}") from exc
    if not (parent.is_primitive and parent.is_upper and parent.c < t.c):
        raise InvariantViolation(
            f"descent of {t} via {label} produced {parent}, which is not a smaller upper triple"
        )
    return label, parent


# ---------------------------------------------------------------------------
# the pair tree
# ---------------------------------------------------------------------------

ROOT_PAIR_UPPER = (0, 1, 1)


@dataclass
class PairTree:
    """Result of breadth-first generation from the root pair.

    ``nodes`` is in generation order, root first.  Edges are (parent, label,
    child); the root carries its M1 self-loop and, because its upper triple
    has a = 0, the collapsed duplicate labels M3 and M5 pointing at the same
    children as M2 and M4.
    """

    root: AssociatedPair
    nodes: list[AssociatedPair] = field(default_factory=list)
    edges: list[tuple[AssociatedPair, str, AssociatedPair]] = field(default_factory=list)


def node_id(pair: AssociatedPair) -> str:
    u = pair.upper
    return f"{u.a},{u.b},{u.c}"


def generate_tree(c_max: int | None = None, max_depth: int | None = None) -> PairTree:
    """Breadth-first pair tree from <0,1,1> under M1..M5 acting on upper triples.

    Children with c beyond c_max are pruned; max_depth limits generations
    instead (at least one bound is required).  Away from the root the five
    children are always distinct and never previously seen; a repeat would
    exhibit a relation between the generators and raises InvariantViolation.
    """
    if c_max is None and max_depth is None:
        raise ValueError("need c_max or max_depth")
    if c_max is not None and c_max < 1:
        raise ValueError("c_max must be at least 1")
    if max_depth is not None and max_depth < 0:
        raise ValueError("max_depth must be nonnegative")

    root = AssociatedPair.from_member(EisensteinTriple(*ROOT_PAIR_UPPER))
    tree = PairTree(root=root)
    tree.nodes.append(root)
    seen = {root.upper.as_tuple()}
    queue: deque[tuple[AssociatedPair, int]] = deque([(root, 0)])
    while queue:
        pair, depth = queue.popleft()
        if max_depth is not None and depth >= max_depth:
            continue
        at_root = pair.upper.a == 0
        for label in GENERATOR_LABELS:
            child_triple = apply_generator(label, pair.upper)
            if child_triple == pair.upper:
                # M1 fixes the root; keep the loop edge, do not re-enqueue
                tree.edges.append((pair, label, pair))
                continue
            if c_max is not None and child_triple.c > c_max:
                continue
            child = AssociatedPair.from_member(child_triple)
            if child.upper.as_tuple() in seen:
                if at_root:
                    # a = 0 collapses M2/M3 and M4/M5; record the extra label
                    tree.edges.append((pair, label, child))
                    continue
                raise InvariantViolation(
                    f"pair {child} generated twice; the tree property is violated "
                    f"(second arrival via {label} from {pair})"
                )
            seen.add(child.upper.as_tuple())
            tree.nodes.append(child)
            tree.edges.append((pair, label, child))
            queue.append((child, depth + 1))
    return tree


def all_pairs_up_to(c_max: int) -> list[AssociatedPair]:
    """Every associated pair with c <= c_max, via the parameterization.

    Independent of the tree: runs over admissible (m, n) directly.  Sorted
    by (c, upper a).
    """
    if c_max < 1:
        raise ValueError("c_max must be at least 1")
    pairs = [primitive_pair_from_params(m, n) for m, n in admissible_params(c_max)]
    pairs.sort(key=lambda p: (p.c, p.upper.a, p.upper.b))
    return pairs
