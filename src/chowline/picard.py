"""Invariant-level computations for symmetric monoidal groupoids.

A commutative Picard category is classified up to equivalence by the
triple (pi0, pi1, eps): the group of objects up to isomorphism, the
automorphisms of the unit, and the sign homomorphism eps: pi0 -> pi1
induced by the self-symmetries c_{X,X}, which is of order dividing 2.

This module computes that triple for inputs given at the skeleton level:
a finite presentation of the object monoid, and automorphism groups
sampled along a user-declared cofinal chain with translation
homomorphisms between them.  pi0 is the group completion of the monoid;
pi1 is the stabilized value of the chain (the module refuses to
extrapolate: a chain that does not visibly stabilize is an error); eps is
solved from the supplied symmetry elements as an integer linear system,
with the order-2 constraint imposed rather than assumed.

Everything reduces to exact integer linear algebra via the Smith normal
form, reached by one elimination routine.  Each group is reduced once,
when it is built, and keeps its diagonal and row transform U for its
invariants and membership; a solve, for eps or a group's relation
coefficients, forms neither transform (``solve_relations``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import index

from .errors import (
    ChainNotStabilized,
    InvalidSymmetryData,
    NonHomomorphicTranslation,
    NotAHomomorphism,
    UnderdeterminedSign,
)


# ---------------------------------------------------------------------------
# integer linear algebra
# ---------------------------------------------------------------------------

def xgcd(a, b):
    """Extended gcd: returns (x, y, g) with x*a + y*b == g >= 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def identity_matrix(n):
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


def mat_vec(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def _step(a, b):
    """The unimodular 2x2 move (p, q, r, s) with r*a + s*b == 0, a != 0."""
    if b % a == 0:
        return 1, 0, -(b // a), 1
    x, y, g = xgcd(a, b)
    return x, y, -(b // g), a // g


def _rows(A, i, j, a, b, c, d):
    """Set rows i, j of A to a*A_i + b*A_j and c*A_i + d*A_j, in place."""
    if (a, b, c, d) == (0, 1, 1, 0):
        A[i], A[j] = A[j], A[i]
    elif (a, b, d) == (1, 0, 1):
        Aj = A[j]
        for k, s in enumerate(A[i]):
            if s:
                Aj[k] += c * s
    else:
        Ai, Aj = A[i], A[j]
        for k, (s, t) in enumerate(zip(Ai, Aj)):
            if s or t:
                Ai[k], Aj[k] = a * s + b * t, c * s + d * t


def _cols(A, i, j, a, b, c, d):
    """The column twin of ``_rows``: columns i, j of A, row by row."""
    if (a, b, d) == (1, 0, 1):
        for row in A:
            if row[i]:
                row[j] += c * row[i]
    else:
        for row in A:
            s, t = row[i], row[j]
            if s or t:
                row[i], row[j] = a * s + b * t, c * s + d * t


def _eliminate(T, n):
    """Bring the first n columns of the rows T to Smith form in place, and
    return (diagonal, moves).  Entries past column n ride the row moves,
    so they end up multiplied by U; the column moves, the (i, j, a, b, c,
    d) of ``_cols`` in order, multiply to V."""
    m, moves = len(T), []

    def cols(*move):
        _cols(T, *move)
        moves.append(move)

    rank_bound = min(m, n)
    for k in range(rank_bound):
        if not T[k][k]:
            pivot = next(((i, j) for i in range(k, m) for j in range(k, n) if T[i][j]), None)
            if pivot is None:
                break
            _rows(T, k, pivot[0], 0, 1, 1, 0)
            cols(k, pivot[1], 0, 1, 1, 0)
        # Clear column k below the pivot and row k right of it.
        while True:
            for i in range(k + 1, m):
                if T[i][k]:
                    _rows(T, k, i, *_step(T[k][k], T[i][k]))
            if not any(T[k][k + 1:n]):
                break
            for j in range(k + 1, n):
                if T[k][j]:
                    cols(k, j, *_step(T[k][k], T[k][j]))
    # Divisibility: fix diagonal pairs (a, b) by moves on both sides.
    for i in range(rank_bound):
        for j in range(i + 1, rank_bound):
            a, b = T[i][i], T[j][j]
            if b and b % a:  # zeros trail: b != 0 implies a != 0
                # [[x, y], [-b/g, a/g]] @ diag(a, b) @ [[1, -y*b/g], [1, x*a/g]]
                # equals diag(g, a*b/g); both factors are unimodular.
                x, y, r, s = _step(a, b)
                _rows(T, i, j, x, y, r, s)
                cols(i, j, 1, 1, y * r, x * s)
    for i in range(rank_bound):
        if T[i][i] < 0:
            _rows(T, i, i, -1, 0, 0, -1)  # i == j: negate row i
    return [T[i][i] for i in range(rank_bound)], moves


def smith_normal_form(matrix):
    """Smith normal form with transforms: U @ M @ V = D.

    Returns (diagonal, U, V) where ``diagonal`` lists d_1, ..., d_r with
    the divisibility chain d_1 | d_2 | ... (zeros trailing), and U, V are
    unimodular.  The cokernel of M (rows = generators) is
    Z^{rows - #nonzero} (+) sum_i Z/d_i.
    """
    M = [list(map(int, row)) for row in matrix]
    n = len(M[0]) if M else 0
    T = [row + e for row, e in zip(M, identity_matrix(len(M)))]  # I_m -> U
    diagonal, moves = _eliminate(T, n)
    V = identity_matrix(n)
    for move in moves:
        _cols(V, *move)
    return diagonal, [row[n:] for row in T], V


def solve_relations(columns, vector):
    """Integers x with sum_j x_j * columns[j] == vector, or None: R x = v
    through U R V = D, forming neither U nor V.  v rides the reduction of R
    and becomes U v; D y = U v is solved entry by entry; and x = V y, the
    very V @ y of ``smith_normal_form``, is the column moves replayed on y,
    last first."""
    n = len(columns)
    T = [[c[i] for c in columns] + [v] for i, v in enumerate(vector)]
    diagonal, moves = _eliminate(T, n)
    y = [0] * n
    for i, row in enumerate(T):
        c, d = row[n], diagonal[i] if i < len(diagonal) else 0
        if c % d if d else c:
            return None
        if d:
            y[i] = c // d
    for i, j, a, b, c, d in reversed(moves):
        y[i], y[j] = a * y[i] + c * y[j], b * y[i] + d * y[j]
    return y


# ---------------------------------------------------------------------------
# finitely generated abelian groups
# ---------------------------------------------------------------------------

class FGAbelianGroup:
    """Z^g modulo the span of the relation vectors.

    Elements are integer vectors of length g; two vectors represent the
    same element iff their difference lies in the relation lattice.
    Isomorphism type is carried by (free rank, invariant factors).

    The relation matrix R, one column per relation, is put in Smith form
    once, U R V = D, and the group keeps ``(diagonal, U)``: the invariants
    are read from the diagonal and membership from U and the diagonal
    (``element_is_zero``).  ``relation_coefficients`` solves afresh with
    ``solve_relations``, which forms neither U nor V.
    """

    def __init__(self, generators, relations=()):
        # index() refuses what int() would truncate or parse: 1.9, "2".
        self.generators = index(generators)
        if self.generators < 0:
            raise ValueError(
                f"generator count must be non-negative, got {self.generators}")
        self.relations = [list(map(index, r)) for r in relations]
        for r in self.relations:
            if len(r) != self.generators:
                raise ValueError("relation length must equal generator count")
        self.diagonal, self.U, _ = smith_normal_form(
            [[r[i] for r in self.relations] for i in range(self.generators)])
        nonzero = [d for d in self.diagonal if d]
        self.free_rank = self.generators - len(nonzero)
        self.torsion = [d for d in nonzero if d != 1]

    @classmethod
    def free(cls, rank):
        return cls(rank, [])

    @classmethod
    def trivial(cls):
        return cls(0, [])

    @classmethod
    def cyclic(cls, order):
        """Z for order 0, else Z/order."""
        if order == 0:
            return cls.free(1)
        return cls(1, [[order]])

    @classmethod
    def from_invariants(cls, free_rank, torsion):
        if index(free_rank) < 0:
            raise ValueError(
                f"free rank must be non-negative, got {free_rank}")
        g = free_rank + len(torsion)
        relations = []
        for i, d in enumerate(torsion):
            rel = [0] * g
            rel[free_rank + i] = d
            relations.append(rel)
        return cls(g, relations)

    def invariants(self):
        return self.free_rank, tuple(self.torsion)

    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    def isomorphic(self, other):
        return self.invariants() == other.invariants()

    __eq__ = isomorphic

    def __hash__(self):
        return hash(self.invariants())

    def relation_coefficients(self, vector):
        """Integers x with sum_j x_j * relations[j] == vector, or None."""
        if self.element_is_zero(vector):
            return solve_relations(self.relations, vector)

    def element_is_zero(self, vector):
        """Whether the vector lies in the relation lattice, read from U v
        and the diagonal alone: each d_i divides (U v)_i, and (U v)_i
        vanishes past the nonzero d_i."""
        if len(vector) != self.generators:
            raise ValueError("element length must equal generator count")
        for i, c in enumerate(mat_vec(self.U, vector)):
            d = self.diagonal[i] if i < len(self.diagonal) else 0
            if c % d if d else c:
                return False
        return True

    def hom(self, other):
        """Hom(self, other) as an abstract f.g. abelian group.

        Hom distributes over the cyclic decompositions:
        Hom(Z, Z/e) = Z/e, Hom(Z/d, Z/e) = Z/gcd(d, e),
        Hom(Z/d, Z) = 0, Hom(Z, Z) = Z.
        """
        from math import gcd
        free = self.free_rank * other.free_rank
        torsion = []
        torsion.extend(list(other.torsion) * self.free_rank)
        for d in self.torsion:
            for e in other.torsion:
                g = gcd(d, e)
                if g > 1:
                    torsion.append(g)
        return FGAbelianGroup.from_invariants(free, sorted(torsion))

    def order(self):
        """Number of elements (None when infinite)."""
        if self.free_rank:
            return None
        out = 1
        for d in self.torsion:
            out *= d
        return out

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"FGAbelianGroup({self})"


def homomorphism_defined(source, target, matrix):
    """Does ``matrix`` (target-generators x source-generators) send the
    relations of ``source`` into those of ``target``?"""
    if len(matrix) != target.generators:
        raise ValueError("matrix row count must match target generators")
    for row in matrix:
        if len(row) != source.generators:
            raise ValueError("matrix column count must match source generators")
    for rel in source.relations:
        image = mat_vec(matrix, rel)
        if not target.element_is_zero(image):
            return False
    return True


def homomorphism_is_isomorphism(source, target, matrix):
    """Isomorphism test for a map given on presentation generators.

    Surjectivity says the columns of the matrix together with the target
    relations span Z^(target generators).  A surjection between abstractly
    isomorphic finitely generated abelian groups is an isomorphism
    (such groups are Hopfian), so surjectivity plus equal invariants
    suffices.
    """
    if not homomorphism_defined(source, target, matrix):
        raise NotAHomomorphism("matrix does not respect the relations")
    if source.invariants() != target.invariants():
        return False
    images = [list(column) for column in zip(*matrix)]
    return FGAbelianGroup(
        target.generators, images + target.relations).is_trivial()


# ---------------------------------------------------------------------------
# monoids and group completion
# ---------------------------------------------------------------------------

@dataclass
class MonoidPresentation:
    """A finitely presented commutative monoid: N^generators modulo the
    congruence generated by relations u = v."""
    generators: int
    relations: list = field(default_factory=list)

    def __post_init__(self):
        for u, v in self.relations:
            if len(u) != self.generators or len(v) != self.generators:
                raise ValueError("relation vectors must match generator count")


def grothendieck_group(monoid):
    """Group completion: Z^g modulo the differences u - v.

    Formal differences of monoid elements form a group in which each
    congruence u = v becomes the relation u - v = 0.
    """
    relations = [[a - b for a, b in zip(u, v)] for u, v in monoid.relations]
    return FGAbelianGroup(monoid.generators, relations)


# ---------------------------------------------------------------------------
# Picardification invariants
# ---------------------------------------------------------------------------

@dataclass
class GroupoidSkeleton:
    """Skeleton data of a symmetric monoidal groupoid along a cofinal chain.

    ``chain_groups[k]`` is the automorphism group at the chain point
    m_0 + k*s (monoid-element vectors ``chain_start`` and ``chain_step``),
    with ``translations[k]`` the homomorphism from sample k to sample k+1
    given on presentation generators.  ``symmetry[k]`` is the image of the
    self-symmetry c_{m,m} at sample k, written in the colimit, i.e. as an
    element of the last chain group.  Automorphism groups must be supplied
    abelian(ized).
    """
    monoid: MonoidPresentation
    chain_start: list
    chain_step: list
    chain_groups: list
    translations: list
    symmetry: list

    def __post_init__(self):
        g = self.monoid.generators
        if len(self.chain_start) != g or len(self.chain_step) != g:
            raise ValueError("chain vectors must match the generator count")
        if len(self.chain_groups) < 2:
            raise ChainNotStabilized(
                "need at least two chain samples to detect stabilization")
        if len(self.translations) != len(self.chain_groups) - 1:
            raise ValueError("need one translation per consecutive pair")
        if len(self.symmetry) != len(self.chain_groups):
            raise ValueError("need one symmetry element per chain sample")
        last = self.chain_groups[-1].generators
        if any(len(s) != last for s in self.symmetry):
            raise ValueError(
                "symmetry elements must be written in the last chain group")
        for k, matrix in enumerate(self.translations):
            source, target = self.chain_groups[k], self.chain_groups[k + 1]
            if (len(matrix) != target.generators
                    or any(len(row) != source.generators for row in matrix)):
                raise ValueError(
                    f"translation {k} must be a {target.generators} x "
                    f"{source.generators} matrix")


@dataclass
class PicardInvariants:
    """(pi0, pi1, eps): eps is a matrix from pi0 presentation generators to
    pi1 presentation coordinates; 2*eps = 0 in pi1."""
    pi0: FGAbelianGroup
    pi1: FGAbelianGroup
    eps: list
    rational: bool = False

    def eps_is_zero(self):
        if not self.eps or self.pi1.generators == 0:
            return True
        for j in range(self.pi0.generators):
            column = [self.eps[i][j] for i in range(self.pi1.generators)]
            if not self.pi1.element_is_zero(column):
                return False
        return True

    def eps_of(self, element):
        """Value of eps on a pi0 element (vector over pi0 generators)."""
        if self.pi1.generators == 0:
            return []
        return mat_vec(self.eps, list(element))

    def describe(self):
        return {
            "pi0": str(self.pi0),
            "pi1": str(self.pi1),
            "eps_zero": self.eps_is_zero(),
        }


def picardify(skeleton):
    """Compute (pi0, pi1, eps) for a groupoid skeleton.

    pi0 is the group completion of the object monoid.  pi1 is the
    stabilized chain value: the last two samples must have identical
    invariant factors and an isomorphic connecting translation, otherwise
    ChainNotStabilized is raised.  eps is solved exactly from the symmetry
    samples, subject to the monoid relations and 2*eps = 0; inconsistent
    data raises InvalidSymmetryData, and samples whose classes do not
    generate pi0 raise UnderdeterminedSign.
    """
    pi0 = grothendieck_group(skeleton.monoid)

    groups = skeleton.chain_groups
    for k, T in enumerate(skeleton.translations):
        if not homomorphism_defined(groups[k], groups[k + 1], T):
            raise NonHomomorphicTranslation(
                f"translation {k} does not respect the relations")

    last, prev = groups[-1], groups[-2]
    if prev.invariants() != last.invariants():
        raise ChainNotStabilized(
            "the last two chain samples have different invariant factors: "
            f"{prev} vs {last}")
    if not homomorphism_is_isomorphism(prev, last, skeleton.translations[-1]):
        raise ChainNotStabilized(
            "the last translation is not an isomorphism")
    pi1 = last

    eps = _solve_sign_homomorphism(skeleton, pi0, pi1)
    return PicardInvariants(pi0, pi1, eps)


def _solve_sign_homomorphism(skeleton, pi0, pi1):
    g = pi0.generators
    p = pi1.generators
    if p == 0 or g == 0:
        return [[0] * g for _ in range(p)]

    samples = []
    for k in range(len(skeleton.chain_groups)):
        vec = [a + k * b for a, b in zip(skeleton.chain_start,
                                         skeleton.chain_step)]
        samples.append((vec, list(map(index, skeleton.symmetry[k]))))

    # Determinacy: two candidate signs differ by a homomorphism that kills
    # every sample class and is itself of order 2, i.e. an element of
    # Hom(H, pi1[2]) for H = pi0 / <sample classes>.  That group vanishes
    # iff pi1 has no 2-torsion or H/2H = 0.
    span_cols = [vec for vec, _ in samples]
    span_cols += [[a - b for a, b in zip(u, v)]
                  for u, v in skeleton.monoid.relations]
    H = FGAbelianGroup(g, span_cols)
    pi1_has_two_torsion = any(d % 2 == 0 for d in pi1.torsion)
    h_mod_two_nonzero = H.free_rank > 0 or any(d % 2 == 0 for d in H.torsion)
    if pi1_has_two_torsion and h_mod_two_nonzero:
        raise UnderdeterminedSign(
            "the chain classes do not pin down the sign homomorphism: "
            "a nonzero order-2 homomorphism vanishes on all of them")

    # Each constraint (coefficients c over pi0 generators, value t in Z^p)
    # asks eps c = t modulo the pi1 relations: p equations, stacked in
    # constraint order.  The unknowns are the g*p entries of eps, row by
    # row, then one slack per pi1 relation and constraint; each unknown
    # is one column of the system, so that the system is a relation
    # matrix and its solution the coefficients of the right side.
    constraints = samples + [([a - b for a, b in zip(u, v)], [0] * p)
                             for u, v in skeleton.monoid.relations]
    constraints += [([2 if k == i else 0 for k in range(g)], [0] * p)
                    for i in range(g)]
    equations = len(constraints) * p
    columns = []
    for row_i in range(p):
        for col_j in range(g):
            column = [0] * equations
            column[row_i::p] = [coeffs[col_j] for coeffs, _ in constraints]
            columns.append(column)
    for c_index in range(len(constraints)):
        for rel in pi1.relations:
            column = [0] * equations
            column[c_index * p:(c_index + 1) * p] = rel
            columns.append(column)
    rhs = [x for _, target in constraints for x in target]
    solution = solve_relations(columns, rhs)
    if solution is None:
        raise InvalidSymmetryData(
            "no order-2 homomorphism matches the supplied symmetry elements")
    return [[solution[i * g + j] for j in range(g)] for i in range(p)]


def rationalize(invariants):
    """Tensor pi0 and pi1 with Q: torsion dies, eps becomes zero.

    The result is recorded as dimensions of Q-vector spaces (free groups
    with the rational flag set); rationalizing twice is the same as once.
    """
    pi0 = FGAbelianGroup.free(invariants.pi0.free_rank)
    pi1 = FGAbelianGroup.free(invariants.pi1.free_rank)
    eps = [[0] * pi0.generators for _ in range(pi1.generators)]
    return PicardInvariants(pi0, pi1, eps, rational=True)
