import inspect
import itertools
import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowline.charclass import VirtualBundle
from chowline.chern_ring import TRUNCATION_LIMIT, ChernSeries, Setup
from chowline.dcoh import (
    FamilyDescriptor,
    MultidegreeLineBundle,
    chi_projective_space,
    pairing_tower,
)
from chowline.errors import (
    TruncationTooHigh,
    UnequalBundles,
    UnknownBundle,
    WrongBundleCount,
)
from chowline.poly import Poly
from chowline.pushforward import (
    Tower,
    TowerClass,
    euler_characteristic,
    grr_codim1_report,
    integrate,
    push_level,
    symmetry_sign,
    tangent_todd,
)


def segre_pushforward(tower, exponent):
    """pi_*(xi^{r-1+k}) computed through the reduction: the Segre class
    s_k(E) of the top bundle in the 1/c convention."""
    return push_level(tower.xi(len(tower.ranks)) ** exponent)


def p1():
    return Tower.projective_space(1)


def p2():
    return Tower.projective_space(2)


def p1xp1():
    return Tower.product_of_projective_spaces([1, 1])


# ------------------------------------------------------------- push_level

def test_push_below_fiber_dimension_is_zero():
    t = p2()  # rank 3, so pi_* xi^k = 0 for k < 2
    assert push_level(t.xi(1) ** 1).is_zero()
    assert push_level(t.const(1)).is_zero()


def test_push_at_fiber_dimension_is_one():
    t = p2()
    assert push_level(t.xi(1) ** 2) == 1


def test_push_above_fiber_dimension_gives_segre():
    # P(E) with E = O + O(d) over P^1: s_1(E) = -c_1(E) = -d h.
    t = Tower([[[], []], [[0], [3]]])
    r = 2
    pushed = segre_pushforward(t, r)  # xi^r = xi^{r-1+1}
    below = p1()
    assert pushed.poly == (below.xi(1) * (-3)).poly


def test_grothendieck_relation_closure():
    # pi_*(xi^{r-1+k}) must equal the degree-k part of 1/c(E) for the top
    # bundle, for every level of a nontrivial two-level tower.
    t = Tower([[[], [], []], [[1], [2]]])
    # Top level: E = O(xi_1) + O(2 xi_1) on P^2, c_1 = 3h, c_2 = 2h^2.
    h = p2().xi(1)
    c1, c2 = 3, 2
    r = 2
    # 1/c(E) = 1 - c1 h - c2 h^2 + (c1 h)^2 + ... degreewise:
    s0, s1, s2 = 1, -c1, c1 * c1 - c2
    assert segre_pushforward(t, r - 1) == 1
    assert segre_pushforward(t, r).poly == (h * s1).poly
    assert segre_pushforward(t, r + 1).poly == (h * h * s2).poly


# -------------------------------------------------------------- integrate

def test_integrate_p2_hyperplane_square():
    t = p2()
    assert integrate(t.xi(1) ** 2) == 1


def test_integrate_p1xp1_mixed_class():
    t = p1xp1()
    v, h = t.xi(1), t.xi(2)
    assert integrate(h * v) == 1
    assert integrate(h * h) == 0
    assert integrate(v * v) == 0


def test_integrate_tangent_degree_p1():
    t = p1()
    # c_1(T_{P^1}) = 2h: the degree-1 part of the Euler-sequence tangent.
    td = tangent_todd(t)
    c1_t = td.graded_part(1) * 2  # td_1 = c_1/2
    assert integrate(c1_t) == 2


def _tangent_todd_by_product(tower):
    """prod over levels j and line classes l of td(l + xi_j), reduced once
    at the end: the Euler-sequence product written out."""
    from chowline.symfun import todd_series
    series = todd_series(tower.bound)
    total = Poly.const(1, tower.grades, tower.bound)
    for j, lines in enumerate(tower._line_polys):
        xi = tower.xi(j + 1).poly
        for line in lines:
            total = total * series.apply_to(line + xi)
    return tower.from_poly(total)


TODD_TOWERS = pytest.mark.parametrize("levels", [
    [[[], []]], [[[], [], []]], [[[], []], [[0], [0]]],
    [[[], []], [[0], [2]]],
    [[[], [], []], [[1], [-1], [0]]],
], ids=["P1", "P2", "P1xP1", "F2", "P(O(1)+O(-1)+O)-over-P2"])


@TODD_TOWERS
def test_tangent_todd_is_the_euler_sequence_product(levels):
    tower = Tower(levels)
    assert tangent_todd(tower).poly == _tangent_todd_by_product(tower).poly


@TODD_TOWERS
def test_tangent_todd_is_built_once_per_tower(levels):
    t = Tower(levels)
    td = tangent_todd(t)
    poly = td.poly
    nums, den = dict(poly.nums), poly.den
    td * t.xi(1) + td
    lines = [VirtualBundle.line_class(
                 t.line_class([d] + [1] * (len(levels) - 1)).poly)
             for d in range(-3, 4)]
    first = [euler_characteristic(t, v) for v in lines]
    assert [euler_characteristic(t, v) for v in lines] == first
    # The kept class is shared, and arithmetic with it leaves it as built.
    assert tangent_todd(t) is td and td.poly is poly
    assert (dict(poly.nums), poly.den) == (nums, den)
    assert poly == _tangent_todd_by_product(t).poly
    assert tangent_todd(Tower(levels)) is not td


@TODD_TOWERS
def test_tangent_todd_is_kept_for_each_base_level(levels):
    t = Tower(levels)
    kept = [tangent_todd(t, b) for b in range(len(levels) + 1)]
    assert [tangent_todd(t, b) for b in range(len(levels) + 1)] == kept
    assert all(tangent_todd(t, b) is td for b, td in enumerate(kept))
    assert tangent_todd(t) is kept[0]
    # Over the whole tower the relative tangent bundle is zero.
    assert kept[-1] == t.const(1)
    fresh = Tower(levels)
    assert ([tangent_todd(fresh, b).poly for b in range(len(levels) + 1)]
            == [td.poly for td in kept])


def test_a_linear_form_takes_at_most_one_coefficient_per_level():
    t = p1xp1()
    assert t.linear_form([2]) == (t.xi(1) * 2).poly
    assert t.line_class((2, -1)).poly == t.linear_form([2, -1])
    for build in (t.linear_form, t.line_class):
        with pytest.raises(ValueError, match="more coefficients"):
            build([1, 2, 3])


def test_tower_classes_take_no_named_bundle():
    from chowline.charclass import evaluate_class_in_ring, todd_spec
    t = p2()
    with pytest.raises(UnknownBundle):
        t.roots("E")
    with pytest.raises(UnknownBundle):
        evaluate_class_in_ring(todd_spec(t.bound), VirtualBundle.bundle("E"), t)


def test_integrate_wrong_degree_vanishes():
    t = p2()
    assert integrate(t.xi(1)) == 0
    assert integrate(t.const(1)) == 0


def test_projection_formula_coherence():
    # pi_*(pi^* a . c) = a . pi_*(c): pulled-back classes slide out.
    t = Tower([[[], []], [[0], [1]]])
    a = t.xi(1)        # pulled back from the base P^1
    c = t.xi(2)        # class on the total space
    lhs = push_level(a * c)
    rhs_below = push_level(c)
    rhs = rhs_below.ring.xi(1) * rhs_below
    assert lhs == rhs


def test_two_level_integration_composes():
    t = p1xp1()
    cls = (t.xi(1) + t.xi(2)) ** 2
    once = integrate(cls)
    stepped = push_level(push_level(cls)).poly.constant_term()
    assert once == stepped == 2


# ---------------------------------------------------- euler_characteristic

def test_chi_p1_twists():
    t = p1()
    for d in range(-6, 7):
        v = VirtualBundle.line_class((t.xi(1) * d).poly)
        assert euler_characteristic(t, v) == d + 1


def test_chi_p2_twists():
    t = p2()
    for d in range(-6, 7):
        v = VirtualBundle.line_class((t.xi(1) * d).poly)
        expected = Fraction((d + 1) * (d + 2), 2)
        assert euler_characteristic(t, v) == expected


def test_chi_structure_sheaf():
    for t in (p1(), p2(), p1xp1()):
        assert euler_characteristic(t, VirtualBundle.trivial()) == 1


def test_hirzebruch_surface_noether_numbers():
    # On P(O + O(d)) over P^1 the tangent bundle satisfies the Noether
    # relations: chi(O) = 1 and c_1(T)^2 = 8, independently of d.
    from chowline.charclass import chern_character_spec, evaluate_class_in_ring
    from chowline.pushforward import relative_tangent
    for d in range(0, 4):
        t = Tower([[[], []], [[0], [d]]])
        assert euler_characteristic(t, VirtualBundle.trivial()) == 1
        tangent = relative_tangent(t, base_levels=0)
        c1 = evaluate_class_in_ring(
            chern_character_spec(t.bound), tangent, t).graded_part(1)
        assert integrate(c1 * c1) == 8, d


def test_chi_integrality_on_bundles():
    # Sums of line bundles on small towers always give integer chi.
    rng = random.Random(12)
    towers = [p1(), p2(), p1xp1(), Tower.projective_space(3),
              Tower([[[], []], [[1], [0]]])]
    for t in towers:
        for _ in range(8):
            v = VirtualBundle.zero()
            for _ in range(rng.randint(1, 3)):
                coeffs = [rng.randint(-2, 2) for _ in t.ranks]
                v = v + VirtualBundle.line_class(t.line_class(coeffs).poly)
            chi = euler_characteristic(t, v)
            assert chi.denominator == 1, (t.line_coeffs, chi)


# --------------------------------------------------------- symmetry_sign

def test_symmetry_sign_degree_one_twist():
    t = p1()
    assert symmetry_sign(t, [[1], [1]], 0, 1) == -1


def test_symmetry_sign_with_trivial_entry():
    t = p1()
    assert symmetry_sign(t, [[0], [0]], 0, 1) == 1


def test_symmetry_sign_degree_two_twist():
    t = p1()
    assert symmetry_sign(t, [[2], [2]], 0, 1) == 1


def test_symmetry_sign_requires_equal_classes():
    t = p1()
    with pytest.raises(UnequalBundles):
        symmetry_sign(t, [[1], [2]], 0, 1)


def test_symmetry_sign_refuses_a_wrong_line_count():
    # Over P^1 x P^1 a pairing takes exactly three lines.
    t = Tower.product_of_projective_spaces([1, 1])
    for lines in ([[1, 0], [1, 0]], [[1, 0]] * 4):
        with pytest.raises(WrongBundleCount):
            symmetry_sign(t, lines, 0, 1)
    assert symmetry_sign(t, [[1, 0], [1, 0], [0, 1]], 0, 1) == -1


def test_symmetry_sign_p2_fiber():
    t = p2()
    # Swap slots 1 and 2 with L_1 = L_2 = O(a): kappa is the integral of
    # c_1(L_0) c_1(L_2) = b*a over P^2.
    for a in range(-2, 3):
        for b in range(-2, 3):
            kappa = b * a
            assert symmetry_sign(t, [[b], [a], [a]], 1, 2) == (-1) ** kappa


def _symmetry_sign_by_reduced_lines(tower, lines, i, j):
    """The sign as it was first computed: each line reduced through
    ``line_class`` before the comparison and before it multiplies."""
    if tower.line_class(lines[i]).poly != tower.line_class(lines[j]).poly:
        raise UnequalBundles("unequal")
    product = tower.const(1)
    for k, coeffs in enumerate(lines):
        if k != i:
            product = product * tower.line_class(coeffs)
    return -1 if int(integrate(product)) % 2 else 1


def _random_sign_towers(rng):
    """Product towers and twisted towers of one to three levels; the
    twisted ones may have rank-1 levels, where unequal coefficient
    vectors can give equal classes."""
    for _ in range(12):
        dims = [rng.randint(1, 2) for _ in range(rng.randint(1, 3))]
        yield Tower.product_of_projective_spaces(dims)
    for _ in range(24):
        yield Tower([[[rng.randint(-2, 2) for _ in range(j)]
                      for _ in range(rng.randint(1, 3))]
                     for j in range(rng.randint(1, 3))])


def test_symmetry_sign_matches_the_reduced_line_loop():
    # A pairing over an n-dimensional tower takes n+1 lines, so a tower
    # of dimension 0 has no two slots to swap.
    rng = random.Random(29)
    refused = rewritten = 0
    signs = {1: 0, -1: 0}
    for tower in _random_sign_towers(rng):
        if not tower.dimension:
            continue
        J = len(tower.ranks)
        for _ in range(6):
            lines = [[rng.randint(-3, 3) for _ in range(J)]
                     for _ in range(tower.dimension + 1)]
            i, j = rng.sample(range(len(lines)), 2)
            if rng.random() < 0.8:
                lines[j] = list(lines[i])
                if J > 1 and tower.ranks[-1] == 1:
                    # A rank-1 top level with line l has xi_J + l = 0.
                    lines[j][-1] += 1
                    lines[j][:-1] = [a + b for a, b in zip(
                        lines[j][:-1], tower.line_coeffs[-1][0])]
            try:
                expected = _symmetry_sign_by_reduced_lines(tower, lines, i, j)
            except UnequalBundles:
                refused += 1
                with pytest.raises(UnequalBundles):
                    symmetry_sign(tower, lines, i, j)
            else:
                assert symmetry_sign(tower, lines, i, j) == expected
                rewritten += lines[i] != lines[j]
                signs[expected] += 1
    assert 0 < refused < 36 * 6 and rewritten > 0
    assert signs[1] and signs[-1], signs


# ------------------------------------------------------------------- GRR

def test_grr_p1xp1_line_bundles():
    fam = FamilyDescriptor((1,), 1)
    for a in range(-3, 4):
        for b in range(-3, 4):
            report = grr_codim1_report(fam, MultidegreeLineBundle((a,), b))
            assert report["equal"], report
            assert report["lhs_degree"] == (a + 1) * b


def test_grr_trivial_bundle():
    fam = FamilyDescriptor((1,), 1)
    report = grr_codim1_report(fam, MultidegreeLineBundle((0,), 0))
    assert report["lhs_degree"] == report["rhs_degree"] == 0


def test_grr_acyclic_fiber_twist():
    fam = FamilyDescriptor((1,), 1)
    for b in range(-3, 4):
        report = grr_codim1_report(fam, MultidegreeLineBundle((-1,), b))
        assert report["lhs_degree"] == report["rhs_degree"] == 0


def test_grr_two_factor_fiber():
    # chi is multiplicative over the fiber factors; negative twists route
    # through h^1 with the alternating determinant sign squaring away.
    fam = FamilyDescriptor((1, 1), 1)
    cases = {
        ((1, 2), 3): 18,    # 2 * 3 * 3
        ((0, 0), 5): 5,
        ((-1, 2), 3): 0,    # acyclic first factor
        ((2, -3), 1): -6,   # 3 * (-2) * 1
        ((-2, -2), -1): -1,  # h^1 x h^1: chi = (-1)^2
    }
    for (fiber, twist), expected in cases.items():
        out = grr_codim1_report(fam, MultidegreeLineBundle(fiber, twist))
        assert out["equal"] and out["lhs_degree"] == expected, out


def test_grr_over_bases_two_and_three():
    # deg det Rf_* O(d; e) = e * chi(fiber, O(d)) over any P^m; the right
    # side reads c_1 against xi_1^{m-1} on the base.
    rng = random.Random(31)
    for fiber in [(1,), (2,), (1, 1), (3,)]:
        for base in (2, 3):
            fam = FamilyDescriptor(fiber, base)
            for _ in range(4):
                degrees = tuple(rng.randint(-4, 4) for _ in fiber)
                twist = rng.randint(-4, 4)
                chi = prod(chi_projective_space(n, d)
                           for n, d in zip(fiber, degrees))
                out = grr_codim1_report(
                    fam, MultidegreeLineBundle(degrees, twist))
                assert out["equal"] and out["lhs_degree"] == twist * chi, out


# ------------------------------------------------------------ tower model

def test_tower_dimension_and_basis_bounds():
    t = Tower([[[], [], []], [[1], [2]]])
    assert t.dimension == 3
    # xi_2^2 reduces: no monomial keeps an exponent >= rank.
    cls = t.xi(2) ** 5
    for mono, _ in cls.poly.terms.items():
        exps = dict(mono)
        assert exps.get("xi1", 0) <= 2
        assert exps.get("xi2", 0) <= 1


def test_from_poly_truncates_to_the_tower_bound():
    t = Tower.projective_space(1)
    finer = Poly.var("xi1", {"xi1": 1}, 5)
    assert t.from_poly(finer ** 3).is_zero()
    assert t.from_poly(finer) == t.xi(1)


def test_truncation_is_the_dimension():
    # No constructor takes a truncation: a low one gave wrong integrals
    # (integrate(xi^2) was 0 on P^2 at truncation 1).
    for make in (Tower, Tower.projective_space,
                 Tower.product_of_projective_spaces, pairing_tower):
        assert "bound" not in inspect.signature(make).parameters
    for t in (p2(), p1xp1(), Tower([[[], []], [[3]]]), Tower([[[]]])):
        assert t.bound == t.dimension


def test_push_level_reuses_the_tower_below():
    t = p1xp1()
    first = push_level(t.xi(2))
    second = push_level(t.xi(1) * t.xi(2))
    assert first.ring is second.ring is t.drop_top()
    assert first == first.ring.const(1)
    assert second == first.ring.xi(1)
    # The cofactors are keyed in the table of the tower below.
    assert first.poly.grades is second.poly.grades is t.drop_top().grades


def test_tower_dimension_is_capped():
    # Refused before the levels' relations are built.
    with pytest.raises(TruncationTooHigh):
        Tower.projective_space(TRUNCATION_LIMIT + 1)
    with pytest.raises(TruncationTooHigh):
        Tower.product_of_projective_spaces([1, TRUNCATION_LIMIT])
    # A family is refused before its cohomology is summed.
    with pytest.raises(TruncationTooHigh):
        FamilyDescriptor((TRUNCATION_LIMIT - 2, 2), 1)
    assert Tower.projective_space(TRUNCATION_LIMIT).dimension == TRUNCATION_LIMIT


def test_number_minus_class():
    h = p2().xi(1)
    assert 1 - h == h.ring.const(1) - h
    assert integrate((1 - h) ** 3) == 3


def test_a_class_with_a_foreign_variable_is_refused():
    # Kept in a union table and read in the tower's layout, the sum
    # would multiply to 0 and integrate to 0.
    t = p1xp1()
    y = Poly.var("y", {"y": 1}, 2)
    with pytest.raises(TypeError):
        (t.xi(2) + y) * t.xi(1)


def test_a_polynomial_sum_is_reduced_as_it_enters():
    # xi2 = -xi1 on the rank-1 level; an unreduced xi2 would be unequal
    # to the line class and integrate to 0.
    t = Tower([[[], []], [[1]]])
    total = t.zero() + t.linear_form([0, 1])
    assert total == t.line_class([0, 1]) == -t.xi(1)
    assert integrate(total) == -1


def test_tower_and_chern_classes_do_not_mix():
    h = p2().xi(1)
    series = Setup([("E", 2)], 0, 2).const(1)
    with pytest.raises(TypeError):
        series + h
    with pytest.raises(TypeError):
        h * series


def test_classes_of_two_towers_do_not_mix():
    # Unwrapping the other tower's class would truncate the product to
    # P^1's bound and integrate xi^2 over P^2 to 0.
    a, b = Tower.projective_space(2), Tower.projective_space(1)
    twin = Tower.projective_space(2)
    for mix in (lambda: a.xi(1) * b.xi(1), lambda: a.xi(1) + b.xi(1),
                lambda: b.xi(1) - a.xi(1), lambda: a.xi(1) * twin.xi(1)):
        with pytest.raises(TypeError):
            mix()
    assert integrate(a.xi(1) * a.xi(1)) == 1


def test_ring_classes_keep_only_their_own_operations():
    def own(cls):
        return {name for name, value in vars(cls).items()
                if callable(value) or isinstance(value, property)}

    assert own(TowerClass) == {"__mul__", "__rmul__"}
    assert vars(TowerClass)["__mul__"] is vars(TowerClass)["__rmul__"]
    assert own(ChernSeries) == {"alternate_signs", "inverse", "chern_basis",
                                "__str__"}


# --------------------------------------------------------- rank-1 levels
# P(L) is isomorphic to its base: xi = -c_1(L), so the class of a rank-1
# level must be rewritten as soon as it is built.

def rank_one_over_p1():
    return Tower([[[], []], [[3]]])  # P(O(3)) over P^1, xi_2 = -3 xi_1


def test_rank_one_level_integrates_its_tautological_class():
    t = rank_one_over_p1()
    assert integrate(t.xi(2)) == -3
    assert integrate(t.xi(2) * 1) == -3


def test_rank_one_level_class_equals_its_base_image():
    t = rank_one_over_p1()
    assert t.xi(2) == t.xi(1) * (-3)


def test_rank_one_level_symmetry_sign():
    t = rank_one_over_p1()
    assert symmetry_sign(t, [[0, 1], [-3, 0]], 0, 1) == -1


# ------------------------------------------------- normal form, properties

@st.composite
def split_towers(draw):
    """Two- or three-level split towers, ranks 1-3, twists in [-2, 2]."""
    levels = []
    for j in range(draw(st.integers(2, 3))):
        rank = draw(st.integers(1, 3))
        levels.append([[draw(st.integers(-2, 2)) for _ in range(j)]
                       for _ in range(rank)])
    return Tower(levels)


@st.composite
def towers_with_products(draw):
    t = draw(split_towers())
    coeffs = st.lists(st.integers(-2, 2), min_size=len(t.ranks),
                      max_size=len(t.ranks))
    factors = draw(st.lists(coeffs, max_size=t.dimension + 1))
    product = t.const(1)
    for c in factors:
        product = product * t.line_class(c)
    return t, product


@settings(max_examples=40, deadline=None)
@given(towers_with_products())
def test_reduced_monomials_stay_in_the_basis(case):
    t, product = case
    for mono in product.poly.terms:
        exps = dict(mono)
        for j, r in enumerate(t.ranks):
            assert exps.get(f"xi{j + 1}", 0) < r, (t.line_coeffs, mono)


@settings(max_examples=40, deadline=None)
@given(towers_with_products())
def test_integrate_matches_the_push_level_chain(case):
    t, product = case
    pushed = product
    for _ in t.ranks:
        pushed = push_level(pushed)
    assert integrate(product) == pushed.poly.constant_term()


@settings(max_examples=60, deadline=None)
@given(towers_with_products(),
       st.fractions(min_value=-3, max_value=3, max_denominator=6))
def test_push_level_reads_the_top_cofactor(case, scale):
    # Tuple reference: the terms whose top exponent is r - 1, with the top
    # variable removed, in the tower below.
    t, product = case
    x = product * scale
    top = f"xi{len(t.ranks)}"
    expected = {}
    for mono, c in x.poly.terms.items():
        exps = dict(mono)
        if exps.get(top, 0) == t.ranks[-1] - 1:
            expected[tuple(p for p in mono if p[0] != top)] = c
    pushed = push_level(x)
    assert dict(pushed.poly.terms) == expected
    assert pushed.ring is t.drop_top()
    assert pushed.poly.grades is t.drop_top().grades
    assert pushed.poly.bound == t.drop_top().bound
    assert pushed.poly == Poly.make(expected, t.drop_top().grades,
                                    t.drop_top().bound)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 2),
       twists=st.lists(st.integers(-2, 2), min_size=1, max_size=3),
       k=st.integers(0, 2), m=st.integers(-2, 2))
def test_twisted_tower_chi_matches_symmetric_powers(n, twists, k, m):
    # chi(P(+O(a_i)), O(k) (x) pi^*O(m)) = sum over monomials mu of degree
    # k of chi(P^n, O(m - mu.a)): pi_* O(k) is Sym^k of the dual sum.
    t = Tower([[[] for _ in range(n + 1)], [[a] for a in twists]])
    line = VirtualBundle.line_class(t.line_class([m, k]).poly)
    expected = sum(
        chi_projective_space(n, m - sum(x * a for x, a in zip(mu, twists)))
        for mu in itertools.product(range(k + 1), repeat=len(twists))
        if sum(mu) == k)
    assert euler_characteristic(t, line) == expected


@pytest.mark.parametrize("coeff", [1.7, 1.0, "2", Fraction(2), None])
def test_line_coefficients_must_be_integers(coeff):
    # int() would read 1.7 as 1, so that integrate(xi2) gave 0, and "2"
    # from a family file as 2.
    with pytest.raises(TypeError):
        Tower([[[], []], [[coeff], [0]]])

