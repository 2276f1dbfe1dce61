import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import invariant_factors

from chowline import picard
from chowline.errors import (
    ChainNotStabilized,
    InvalidSymmetryData,
    NonHomomorphicTranslation,
    NotAHomomorphism,
    UnderdeterminedSign,
)
from chowline.picard import (
    FGAbelianGroup,
    GroupoidSkeleton,
    MonoidPresentation,
    PicardInvariants,
    grothendieck_group,
    homomorphism_is_isomorphism,
    mat_vec,
    picardify,
    rationalize,
    smith_normal_form,
    solve_relations,
)


def mat_mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
            for row in A]


def integer_determinant(matrix):
    """Fraction-free determinant (Bareiss)."""
    n = len(matrix)
    if n == 0:
        return 1
    M = [list(map(int, row)) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k] != 0:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[-1][-1]


# --------------------------------------------------------------------- SNF

def test_snf_zero_matrix_presents_free_group():
    diagonal, _, _ = smith_normal_form([[0]])
    assert diagonal == [0]
    group = FGAbelianGroup(1, [[0]])
    assert group.invariants() == (1, ())


def test_snf_diag_2_3_normalizes_to_1_6():
    diagonal, U, V = smith_normal_form([[2, 0], [0, 3]])
    assert diagonal == [1, 6]


def test_snf_identity_gives_trivial_cokernel():
    group = FGAbelianGroup(2, [[1, 0], [0, 1]])
    assert group.is_trivial()


def test_snf_randomized_transform_identity():
    rng = random.Random(2024)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        diagonal, U, V = smith_normal_form(M)
        D = mat_mul(mat_mul(U, M), V)
        for i in range(m):
            for j in range(n):
                expected = diagonal[i] if i == j and i < len(diagonal) else 0
                assert D[i][j] == expected
        assert integer_determinant(U) in (1, -1)
        assert integer_determinant(V) in (1, -1)
        nonzero = [d for d in diagonal if d]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        # zeros trail
        seen_zero = False
        for d in diagonal:
            if d == 0:
                seen_zero = True
            else:
                assert not seen_zero


@st.composite
def integer_matrices(draw):
    """m x n integer matrices, 1 <= m, n <= 4, often of lower rank: the
    product of an m x k and a k x n matrix with k <= min(m, n)."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entries = st.integers(-6, 6)
    if draw(st.booleans()):
        return [[draw(entries) for _ in range(n)] for _ in range(m)]
    k = draw(st.integers(0, min(m, n)))
    A = [[draw(entries) for _ in range(k)] for _ in range(m)]
    B = [[draw(entries) for _ in range(n)] for _ in range(k)]
    return [[sum(A[i][l] * B[l][j] for l in range(k)) for j in range(n)]
            for i in range(m)]


@settings(max_examples=60, deadline=None)
@given(integer_matrices())
def test_snf_properties(M):
    diagonal, U, V = smith_normal_form(M)
    m, n = len(M), len(M[0])
    assert mat_mul(mat_mul(U, M), V) == [
        [diagonal[i] if i == j else 0 for j in range(n)] for i in range(m)]
    assert integer_determinant(U) in (1, -1)
    assert integer_determinant(V) in (1, -1)
    assert all(d >= 0 for d in diagonal)
    for a, b in zip(diagonal, diagonal[1:]):
        assert (b % a == 0) if a else b == 0


@settings(max_examples=60, deadline=None)
@given(integer_matrices())
def test_snf_diagonal_matches_sympy(M):
    diagonal, _, _ = smith_normal_form(M)
    assert diagonal == [int(d) for d in invariant_factors(Matrix(M), domain=ZZ)]


# (diagonal, U, V) exactly: ``relation_coefficients`` returns V @ y, and
# ``chowline picard`` prints that solution as the raw eps, so a different
# but valid U or V changes the report.  One matrix per branch.
PINNED_SNF = [
    # zero pivot: a row swap and a column swap bring the first nonzero
    # entry in row order, 4, to (0, 0)
    ([[0, 0, 0], [0, 0, 4], [0, 6, 0]],
     ([2, 12, 0], [[0, -1, 1], [0, -3, 2], [1, 0, 0]],
      [[0, 0, 1], [1, -2, 0], [1, -3, 0]])),
    # the pivot divides: subtract a multiple
    ([[2, 4], [6, 8]], ([2, 4], [[1, 0], [3, -1]], [[1, -2], [0, 1]])),
    # a negative pivot that divides: still a subtraction
    ([[-2, 4], [6, 8]], ([2, 20], [[-1, 0], [3, 1]], [[1, 2], [0, 1]])),
    # the pivot does not divide: an xgcd step
    ([[3, 5], [7, 2]], ([1, 29], [[-2, 1], [7, -3]], [[1, 8], [0, 1]])),
    # the divisibility fix: diag(2, 3) -> (1, 6)
    ([[2, 0], [0, 3]], ([1, 6], [[-1, 1], [-3, 2]], [[1, -3], [1, -2]])),
    # negative diagonal entries: the sign goes into U
    ([[-2, 0], [0, -4]], ([2, 4], [[-1, 0], [0, -1]], [[1, 0], [0, 1]])),
    # more rows than columns
    ([[2, 4], [6, 9], [10, 15]],
     ([1, 2], [[1, -2, 1], [1, -4, 2], [0, 5, -3]], [[-1, -1], [1, 0]])),
]


@pytest.mark.parametrize("M, expected", PINNED_SNF)
def test_snf_transforms_are_pinned(M, expected):
    assert smith_normal_form(M) == expected


def test_solve_integer_system():
    # 2x + 4y = 6 has integer solutions; = 7 does not.
    group = FGAbelianGroup(1, [[2], [4]])
    assert group.relation_coefficients([6]) is not None
    assert group.relation_coefficients([7]) is None
    x = FGAbelianGroup(1, [[3], [5]]).relation_coefficients([1])
    assert x is not None and 3 * x[0] + 5 * x[1] == 1


def test_lattice_membership():
    group = FGAbelianGroup(2, [[2, 0], [0, 3]])
    assert group.element_is_zero([4, 3])
    assert not group.element_is_zero([1, 0])


def _solve_by_a_fresh_smith_form(relations, vector):
    """The reference solve: the relations transposed into a matrix with
    one column each, reduced afresh, and D y = U v tested entry by
    entry."""
    if not relations:
        return None if any(vector) else []
    matrix = [[r[i] for r in relations] for i in range(len(vector))]
    if not matrix:
        return [0] * len(relations)
    diagonal, U, V = smith_normal_form(matrix)
    y = [0] * len(relations)
    for i, c in enumerate(mat_vec(U, vector)):
        d = diagonal[i] if i < len(diagonal) else 0
        if (d == 0 and c != 0) or (d != 0 and c % d != 0):
            return None
        if d:
            y[i] = c // d
    return mat_vec(V, y)


@st.composite
def presentations(draw):
    """A presentation with 0-4 generators and 0-4 relations, often of
    lower rank, and a vector that is a relation combination about half
    the time."""
    g, count = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    entries = st.integers(-6, 6)
    relations = [[draw(entries) for _ in range(g)] for _ in range(count)]
    if count and draw(st.booleans()):
        relations[-1] = [2 * x for x in relations[0]]
    if draw(st.booleans()):
        x = [draw(entries) for _ in range(count)]
        vector = [sum(c * r[i] for c, r in zip(x, relations)) for i in range(g)]
    else:
        vector = [draw(entries) for _ in range(g)]
    return g, relations, vector


@settings(max_examples=150, deadline=None)
@given(presentations())
def test_one_smith_form_answers_invariants_and_membership(presentation):
    g, relations, vector = presentation
    group = FGAbelianGroup(g, relations)
    if g and relations:
        factors = [int(d) for d in invariant_factors(
            Matrix([[r[i] for r in relations] for i in range(g)]), domain=ZZ)]
    else:
        factors = []
    nonzero = [d for d in factors if d]
    assert group.invariants() == (
        g - len(nonzero), tuple(d for d in nonzero if d != 1))
    x = group.relation_coefficients(vector)
    if x is not None:
        assert len(x) == len(relations)
        assert [sum(c * r[i] for c, r in zip(x, relations))
                for i in range(g)] == vector
    assert (x is None) == (_solve_by_a_fresh_smith_form(relations, vector) is None)
    assert group.element_is_zero(vector) == (x is not None)


@settings(max_examples=200, deadline=None)
@given(presentations())
def test_membership_agrees_with_solving_without_reading_v(presentation):
    g, relations, vector = presentation
    group = FGAbelianGroup(g, relations)
    solvable = group.relation_coefficients(vector) is not None
    assert not hasattr(group, "V")  # a group keeps (diagonal, U) alone
    assert group.element_is_zero(vector) == solvable
    with pytest.raises(ValueError):
        group.element_is_zero(vector + [0])


def test_membership_reads_the_kept_smith_form(monkeypatch):
    group = FGAbelianGroup(3, [[2, 4, 0], [0, 6, 9], [4, 14, 9]])
    pi0 = grothendieck_group(MonoidPresentation(2, [((2, 0), (0, 2))]))

    def recomputed(matrix):
        raise AssertionError("a Smith form was computed again")

    monkeypatch.setattr(picard, "smith_normal_form", recomputed)
    assert group.element_is_zero([2, 10, 9])
    assert not group.element_is_zero([1, 0, 0])
    x = group.relation_coefficients([2, 10, 9])
    assert [sum(c * r[i] for c, r in zip(x, group.relations))
            for i in range(3)] == [2, 10, 9]
    assert group.relation_coefficients([0, 0, 1]) is None
    assert pi0.element_is_zero([2, -2])
    assert not pi0.element_is_zero([1, -1])


@st.composite
def linear_systems(draw):
    """R x = v for R of up to 21 rows and 18 columns, the sizes of the
    sign systems of the benchmark's skeletons: entries in [-6, 6], or,
    half the time, R = A B of lower rank.  v is R x for some x half the
    time; otherwise it is drawn freely, and the system is mostly not
    solvable."""
    m, n = draw(st.integers(1, 21)), draw(st.integers(1, 18))

    def matrix(rows, cols):
        flat = draw(st.lists(st.integers(-6, 6), min_size=rows * cols,
                             max_size=rows * cols))
        return [flat[i * cols:(i + 1) * cols] for i in range(rows)]

    if draw(st.booleans()):
        R = matrix(m, n)
    else:
        k = draw(st.integers(0, min(m, n) - 1))
        A, B = matrix(m, k), matrix(k, n)
        R = [[sum(A[i][l] * B[l][j] for l in range(k)) for j in range(n)]
             for i in range(m)]
    if draw(st.booleans()):
        vector = mat_vec(R, draw(st.lists(st.integers(-6, 6), min_size=n,
                                          max_size=n)))
    else:
        vector = draw(st.lists(st.integers(-6, 6), min_size=m, max_size=m))
    return R, vector


def _largest_systems():
    """A 21 x 18 system of rank 17, solvable and not."""
    rng = random.Random(32)
    A = [[rng.randint(-6, 6) for _ in range(17)] for _ in range(21)]
    B = [[rng.randint(-6, 6) for _ in range(18)] for _ in range(17)]
    R = [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]
    x = [rng.randint(-6, 6) for _ in range(18)]
    return (R, mat_vec(R, x)), (R, [rng.randint(-6, 6) for _ in range(21)])


@settings(max_examples=80, deadline=None)
@given(linear_systems())
@example(_largest_systems()[0])
@example(_largest_systems()[1])
def test_the_solve_returns_exactly_v_times_y(system):
    """``solve_relations`` forms neither U nor V, yet returns the very
    integers V @ y that the transforms of ``smith_normal_form`` give (the
    raw eps that ``chowline picard`` prints), or None with it."""
    R, vector = system
    diagonal, U, V = smith_normal_form(R)
    y = [0] * len(V)
    for i, c in enumerate(mat_vec(U, vector)):
        d = diagonal[i] if i < len(diagonal) else 0
        if c % d if d else c:
            y = None
            break
        if d:
            y[i] = c // d
    expected = None if y is None else mat_vec(V, y)
    columns = [list(column) for column in zip(*R)]
    got = solve_relations(columns, vector)
    assert got == expected
    if got is not None:
        assert mat_vec(R, got) == vector
    group = FGAbelianGroup(len(R), columns)
    assert group.relation_coefficients(vector) == expected
    with pytest.raises(ValueError):
        group.relation_coefficients(vector + [0])


def test_a_negative_generator_count_is_refused():
    # Z^g needs g >= 0: a negative count would give a negative free rank,
    # printed as "0" but not trivial.
    for build in (lambda: FGAbelianGroup(-2), lambda: FGAbelianGroup(-1, []),
                  lambda: FGAbelianGroup.free(-3),
                  lambda: FGAbelianGroup.from_invariants(-2, []),
                  lambda: FGAbelianGroup.from_invariants(-1, [2])):
        with pytest.raises(ValueError, match="non-negative"):
            build()
    assert FGAbelianGroup(0).is_trivial() and str(FGAbelianGroup(0)) == "0"
    assert FGAbelianGroup.from_invariants(0, [2]).invariants() == (0, (2,))


# ------------------------------------------------------- grothendieck_group

def test_completion_of_free_monoid():
    assert grothendieck_group(MonoidPresentation(1)).invariants() == (1, ())
    assert grothendieck_group(MonoidPresentation(2)).invariants() == (2, ())


def test_completion_with_torsion():
    monoid = MonoidPresentation(2, [((2, 0), (0, 2))])
    group = grothendieck_group(monoid)
    assert group.invariants() == (1, (2,))


def test_completion_idempotent_on_groups():
    # A presentation that is already a group: <p, q | p + q = 0> is Z.
    monoid = MonoidPresentation(2, [((1, 1), (0, 0))])
    assert grothendieck_group(monoid).invariants() == (1, ())


# ----------------------------------------------------------------- groups

def test_hom_groups():
    Z = FGAbelianGroup.free(1)
    Z2 = FGAbelianGroup.cyclic(2)
    Z4 = FGAbelianGroup.cyclic(4)
    assert Z.hom(Z4).invariants() == (0, (4,))
    assert Z2.hom(Z4).invariants() == (0, (2,))
    assert Z2.hom(Z).is_trivial()
    assert Z2.hom(Z4).order() == 2


def test_element_equality():
    def elements_equal(group, a, b):
        return group.element_is_zero([x - y for x, y in zip(a, b)])

    group = FGAbelianGroup(1, [[2]])
    assert elements_equal(group, [3], [1])
    assert not elements_equal(group, [1], [0])


# -------------------------------------------------------------- picardify

def line_bundle_skeleton():
    # Objects: Z, presented as <p, q | p + q = 0>; units Z with identity
    # translations and trivial symmetry.
    monoid = MonoidPresentation(2, [((1, 1), (0, 0))])
    Z = FGAbelianGroup.free(1)
    return GroupoidSkeleton(
        monoid=monoid,
        chain_start=[1, 0],
        chain_step=[1, 0],
        chain_groups=[Z, Z, Z],
        translations=[[[1]], [[1]]],
        symmetry=[[0], [0], [0]],
    )


def finite_sets_skeleton():
    # Objects: N; automorphisms S_n abelianized: Z/2 for n >= 2, with
    # identity stabilization maps.  The self-symmetry of an n-element set
    # is the (n, n) shuffle, of sign (-1)^n, so the symmetry samples along
    # n = 2, 3, 4, 5 are the parity classes 0, 1, 0, 1.
    monoid = MonoidPresentation(1)
    Z2 = FGAbelianGroup.cyclic(2)
    return GroupoidSkeleton(
        monoid=monoid,
        chain_start=[2],
        chain_step=[1],
        chain_groups=[Z2, Z2, Z2, Z2],
        translations=[[[1]], [[1]], [[1]]],
        symmetry=[[0], [1], [0], [1]],
    )


def test_picardify_trivial_automorphisms():
    monoid = MonoidPresentation(1)
    T = FGAbelianGroup.trivial()
    skeleton = GroupoidSkeleton(
        monoid=monoid, chain_start=[1], chain_step=[1],
        chain_groups=[T, T], translations=[[]], symmetry=[[], []])
    out = picardify(skeleton)
    assert out.pi0.invariants() == (1, ())
    assert out.pi1.is_trivial()
    assert out.eps_is_zero()


def test_picardify_line_bundle_model():
    out = picardify(line_bundle_skeleton())
    assert out.pi0.invariants() == (1, ())
    assert out.pi1.invariants() == (1, ())
    assert out.eps_is_zero()


def test_picardify_finite_sets_model():
    out = picardify(finite_sets_skeleton())
    assert out.pi0.invariants() == (1, ())
    assert out.pi1.invariants() == (0, (2,))
    assert not out.eps_is_zero()
    # eps(1) is the generator of Z/2.
    value = out.eps_of([1])
    assert not out.pi1.element_is_zero(value)
    # 2 * eps = 0.
    assert out.pi1.element_is_zero([2 * x for x in value])


def test_picardify_constant_chain_returns_sample_group():
    monoid = MonoidPresentation(1)
    G = FGAbelianGroup(2, [[3, 0], [0, 0]])  # Z + Z/3
    ident = [[1, 0], [0, 1]]
    skeleton = GroupoidSkeleton(
        monoid=monoid, chain_start=[1], chain_step=[1],
        chain_groups=[G, G, G], translations=[ident, ident],
        symmetry=[[0, 0]] * 3)
    out = picardify(skeleton)
    assert out.pi1.invariants() == G.invariants()


def test_picardify_rejects_unstable_chain():
    monoid = MonoidPresentation(1)
    Z2 = FGAbelianGroup.cyclic(2)
    Z4 = FGAbelianGroup.cyclic(4)
    skeleton = GroupoidSkeleton(
        monoid=monoid, chain_start=[1], chain_step=[1],
        chain_groups=[Z2, Z4], translations=[[[2]]],
        symmetry=[[0], [0]])
    with pytest.raises(ChainNotStabilized):
        picardify(skeleton)


def test_picardify_rejects_non_bijective_final_map():
    monoid = MonoidPresentation(1)
    Z2 = FGAbelianGroup.cyclic(2)
    skeleton = GroupoidSkeleton(
        monoid=monoid, chain_start=[1], chain_step=[1],
        chain_groups=[Z2, Z2], translations=[[[2]]],  # the zero map
        symmetry=[[0], [0]])
    with pytest.raises(ChainNotStabilized):
        picardify(skeleton)


def test_picardify_rejects_bad_translation():
    monoid = MonoidPresentation(1)
    Z2 = FGAbelianGroup.cyclic(2)
    Z3 = FGAbelianGroup.cyclic(3)
    skeleton = GroupoidSkeleton(
        monoid=monoid, chain_start=[1], chain_step=[1],
        chain_groups=[Z2, Z3, Z3],
        translations=[[[1]], [[1]]],  # Z/2 -> Z/3 by 1 is not a homomorphism
        symmetry=[[0], [0], [0]])
    with pytest.raises(NonHomomorphicTranslation):
        picardify(skeleton)


def test_picardify_rejects_sign_of_infinite_order():
    # pi1 = Z with a nonzero symmetry sample: no order-2 homomorphism fits.
    monoid = MonoidPresentation(1)
    Z = FGAbelianGroup.free(1)
    skeleton = GroupoidSkeleton(
        monoid=monoid, chain_start=[1], chain_step=[1],
        chain_groups=[Z, Z], translations=[[[1]]],
        symmetry=[[1], [1]])
    with pytest.raises(InvalidSymmetryData):
        picardify(skeleton)


def test_picardify_rejects_underdetermined_chain():
    # Chain classes 2, 4 only generate 2Z inside pi0 = Z: with pi1 = Z/4
    # the data does not pin eps down.
    monoid = MonoidPresentation(1)
    Z4 = FGAbelianGroup.cyclic(4)
    skeleton = GroupoidSkeleton(
        monoid=monoid, chain_start=[2], chain_step=[2],
        chain_groups=[Z4, Z4], translations=[[[1]]],
        symmetry=[[2], [2]])
    with pytest.raises(UnderdeterminedSign):
        picardify(skeleton)


def test_picardify_odd_torsion_needs_no_generation():
    # With pi1 = Z/3 the order-2 constraint forces eps = 0 on its own, so
    # a chain along even classes is still determined.
    monoid = MonoidPresentation(1)
    Z3 = FGAbelianGroup.cyclic(3)
    skeleton = GroupoidSkeleton(
        monoid=monoid, chain_start=[2], chain_step=[2],
        chain_groups=[Z3, Z3], translations=[[[1]]],
        symmetry=[[0], [0]])
    out = picardify(skeleton)
    assert out.eps_is_zero()


def test_picardify_inconsistent_samples_rejected():
    # Samples eps(2) = 1, eps(3) = 0 force eps(1) = -1 = 1 in Z/2, but
    # then eps(2) = 2*eps(1) = 0, a contradiction.
    monoid = MonoidPresentation(1)
    Z2 = FGAbelianGroup.cyclic(2)
    skeleton = GroupoidSkeleton(
        monoid=monoid, chain_start=[2], chain_step=[1],
        chain_groups=[Z2, Z2], translations=[[[1]]],
        symmetry=[[1], [0]])
    with pytest.raises(InvalidSymmetryData):
        picardify(skeleton)


# ------------------------------------------------------------- rationalize

def test_picardify_reduces_no_matrix_larger_than_its_chain_groups(monkeypatch):
    """The sign system (here 14 equations in 18 unknowns) is solved without
    a Smith form, so each matrix that one picardify call reduces presents
    pi0, the sample classes in pi0, or a chain group with a translation's
    images.  The skeleton is the benchmark's picard#398: pi0 = Z + Z/6,
    pi1 = Z/2 + Z/2, four samples."""
    G = FGAbelianGroup(2, [[-38, -16], [24, 10]])
    skeleton = GroupoidSkeleton(
        monoid=MonoidPresentation(2, [((0, 0), (12, 18))]),
        chain_start=[2, 1], chain_step=[1, 1], chain_groups=[G] * 4,
        translations=[[[1, 0], [0, 1]]] * 3,
        symmetry=[[43, 18], [38, 16], [81, 34], [152, 64]])
    shapes = []
    reduce = picard.smith_normal_form

    def spy(matrix):
        shapes.append((len(matrix), len(matrix[0]) if matrix else 0))
        return reduce(matrix)

    monkeypatch.setattr(picard, "smith_normal_form", spy)
    out = picardify(skeleton)
    assert (str(out.pi0), str(out.pi1)) == ("Z + Z/6", "Z/2 + Z/2")
    rows = max(skeleton.monoid.generators, G.generators)
    columns = max(len(skeleton.symmetry) + len(skeleton.monoid.relations),
                  G.generators + len(G.relations))
    assert shapes and all(m <= rows and n <= columns for m, n in shapes), shapes


def test_rationalize_kills_torsion_and_eps():
    out = picardify(finite_sets_skeleton())
    rat = rationalize(out)
    assert rat.pi0.invariants() == (1, ())
    assert rat.pi1.is_trivial()
    assert rat.eps_is_zero()
    assert rat.rational


def test_rationalize_examples():
    inv = PicardInvariants(FGAbelianGroup.free(2), FGAbelianGroup.free(1),
                           [[0, 0]])
    rat = rationalize(inv)
    assert rat.pi0.invariants() == (2, ())
    assert rat.pi1.invariants() == (1, ())

    torsion_only = PicardInvariants(
        FGAbelianGroup.cyclic(6), FGAbelianGroup.cyclic(4), [[0]])
    rat2 = rationalize(torsion_only)
    assert rat2.pi0.is_trivial() and rat2.pi1.is_trivial()


def test_rationalize_idempotent():
    out = picardify(finite_sets_skeleton())
    once = rationalize(out)
    twice = rationalize(once)
    assert once.pi0 == twice.pi0
    assert once.pi1 == twice.pi1


# -------------------------------------------------------------- the torsor
# Natural transformations between parallel functors of Picard categories
# form a torsor under Hom(pi0(source), pi1(target)).

def test_nat_transform_torsor_sizes():
    Z = FGAbelianGroup.free(1)
    Z2 = FGAbelianGroup.cyclic(2)
    Z4 = FGAbelianGroup.cyclic(4)
    P = PicardInvariants(Z, Z2, [[0]])
    P_prime = PicardInvariants(Z2, Z4, [[0]])
    assert P.pi0.hom(P_prime.pi1).invariants() == (0, (4,))

    Q = PicardInvariants(Z2, Z4, [[0]])
    assert Q.pi0.hom(Q.pi1).order() == 2

    R = PicardInvariants(Z2, Z, [[0]])
    assert R.pi0.hom(R.pi1).is_trivial()


# ------------------------------------------------------------- equivalence
# A functor of Picard categories is an equivalence iff it induces
# isomorphisms on pi0 and on pi1.

def is_equivalence(pi0_map, pi1_map, source, target):
    return (homomorphism_is_isomorphism(source.pi0, target.pi0, pi0_map)
            and homomorphism_is_isomorphism(source.pi1, target.pi1, pi1_map))


def test_equivalence_identity():
    Z = FGAbelianGroup.free(1)
    Z2 = FGAbelianGroup.cyclic(2)
    P = PicardInvariants(Z, Z2, [[0]])
    assert is_equivalence([[1]], [[1]], P, P)


def test_equivalence_multiplication_by_two_fails():
    Z = FGAbelianGroup.free(1)
    P = PicardInvariants(Z, Z, [[0]])
    assert not is_equivalence([[2]], [[1]], P, P)


def test_equivalence_sign_flip_passes():
    Z = FGAbelianGroup.free(1)
    Z2 = FGAbelianGroup.cyclic(2)
    P = PicardInvariants(Z2, Z, [[0]])
    assert is_equivalence([[1]], [[-1]], P, P)


def test_equivalence_rejects_non_homomorphism():
    Z2 = FGAbelianGroup.cyclic(2)
    Z3 = FGAbelianGroup.cyclic(3)
    with pytest.raises(NotAHomomorphism):
        homomorphism_is_isomorphism(Z2, Z3, [[1]])
