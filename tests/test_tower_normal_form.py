"""Differential tests of the tower kernel: the normal-form table behind
``Tower.from_poly``, the reduced product ``TowerClass.__mul__``, the
power every ring class shares (``RingClass.__pow__``) and
``Tower.divisor_product``, against sympy's multivariate division and
against each other."""

import sys
from fractions import Fraction
from functools import reduce

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from chowline import cli, pushforward
from chowline.charclass import evaluate_class_in_ring, todd_star_spec
from chowline.chern_ring import TRUNCATION_LIMIT, Setup
from chowline.errors import TowerTooLarge
from chowline.poly import Poly
from chowline.pushforward import (
    Tower,
    integrate,
    relative_tangent,
    tangent_todd,
    xi_name,
)


@st.composite
def tower_levels(draw):
    """One to three levels, ranks 1-3, twists in [-2, 2]."""
    levels = []
    for j in range(draw(st.integers(1, 3))):
        rank = draw(st.integers(1, 3))
        levels.append([[draw(st.integers(-2, 2)) for _ in range(j)]
                       for _ in range(rank)])
    return levels


coefficients = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


@st.composite
def polys_on(draw, ring):
    """A polynomial in the ring's variables within its bound, with
    exponents up to the bound, so that most monomials of a tower are
    outside the basis."""
    bound = ring.zero().poly.bound
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        exps = []
        room = bound
        for _ in ring.grades:
            e = draw(st.integers(0, room))
            exps.append(e)
            room -= e
        mono = tuple(sorted((v, e) for v, e in zip(ring.grades, exps) if e))
        terms[mono] = draw(coefficients)
    return Poly.make(terms, ring.grades, bound)


@st.composite
def rings(draw):
    """A tower of ``tower_levels``, or a setup of one or two bundles of
    ranks 1-3 at truncation 1-4."""
    if draw(st.booleans()):
        return Tower(draw(tower_levels()))
    ranks = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    return Setup([(f"E{i}", r) for i, r in enumerate(ranks)], 0,
                 draw(st.integers(1, 4)))


def _symbols(tower):
    return [sympy.Symbol(xi_name(j + 1)) for j in range(len(tower.ranks))]


def _to_sympy(poly, xs):
    by_name = {str(x): x for x in xs}
    total = sympy.Integer(0)
    for mono, c in poly.terms.items():
        total += (sympy.Rational(c.numerator, c.denominator)
                  * sympy.Mul(*(by_name[v] ** e for v, e in mono)))
    return total


def _sympy_remainder(tower, poly):
    """The remainder of lex division by the relations prod_l (xi_j + l),
    with xi_J > ... > xi_1.  Their leading terms xi_j^{r_j} are pairwise
    coprime, so they form a Groebner basis and the remainder is the normal
    form."""
    xs = _symbols(tower)
    relations = []
    for j, lines in enumerate(tower.line_coeffs):
        rel = sympy.Integer(1)
        for coeffs in lines:
            rel *= xs[j] + sum(c * x for c, x in zip(coeffs, xs))
        relations.append(sympy.expand(rel))
    gens = xs[::-1]
    _, rem = sympy.reduced(_to_sympy(poly, xs), relations[::-1], *gens,
                           order="lex")
    return sympy.expand(rem)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_from_poly_is_the_lex_remainder_of_the_relations(data):
    tower = Tower(data.draw(tower_levels()))
    poly = data.draw(polys_on(tower))
    reduced = tower.from_poly(poly)
    xs = _symbols(tower)
    assert sympy.expand(_to_sympy(reduced.poly, xs)
                        - _sympy_remainder(tower, poly)) == 0
    for mono in reduced.poly.terms:
        for v, e in mono:
            assert e < tower.ranks[int(v[2:]) - 1]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_reduced_product_equals_reducing_the_product(data):
    tower = Tower(data.draw(tower_levels()))
    a = tower.from_poly(data.draw(polys_on(tower)))
    b = tower.from_poly(data.draw(polys_on(tower)))
    assert (a * b).poly == tower.from_poly(a.poly * b.poly).poly
    # An unreduced polynomial factor is reduced as it multiplies.
    raw = data.draw(polys_on(tower))
    assert (a * raw).poly == tower.from_poly(a.poly * raw).poly


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_raw_linear_form_multiplies_as_its_reduced_class(data):
    # NF(a v) = NF(a NF(v)): the pairing route multiplies by unreduced
    # linear forms.
    tower = Tower(data.draw(tower_levels()))
    a = tower.from_poly(data.draw(polys_on(tower)))
    v = data.draw(st.lists(st.integers(-3, 3), min_size=len(tower.ranks),
                           max_size=len(tower.ranks)))
    assert (a * tower.linear_form(v)).poly == (a * tower.line_class(v)).poly


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_polynomial_enters_the_tower_only_reduced(data):
    # One door: a sum, the class of a polynomial and a product by 1 all
    # reduce a polynomial of the tower's own table alike.
    tower = Tower(data.draw(tower_levels()))
    p = data.draw(polys_on(tower))
    entered = tower.from_poly(p).poly
    assert (tower.zero() + p).poly == entered == (tower.const(1) * p).poly
    assert (tower.zero() - p).poly == -entered
    J = len(tower.ranks)

    def entered_form(v):
        return tower.from_poly(tower.linear_form(v)).poly

    for j in range(1, J + 1):
        assert tower.xi(j).poly == entered_form([0] * (j - 1) + [1])
    v = data.draw(st.lists(st.integers(-3, 3), min_size=J, max_size=J))
    assert tower.line_class(v).poly == entered_form(v)


def _product_of_linear_forms(tower, vectors):
    """The product of the divisors one ``TowerClass`` product at a time."""
    product = tower.const(1)
    for v in vectors:
        product = product * tower.linear_form(v)
    return product


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_divisor_product_is_the_product_of_linear_forms(data):
    levels = data.draw(tower_levels())
    one_pass, stepwise = Tower(levels), Tower(levels)
    # Up to two factors past the dimension, where the product vanishes;
    # a vector may be shorter than the tower.
    vectors = data.draw(st.lists(
        st.lists(st.integers(-3, 3), max_size=len(levels)),
        max_size=one_pass.bound + 2))
    product = one_pass.divisor_product(vectors)
    assert product.ring is one_pass
    assert product.poly == _product_of_linear_forms(stepwise, vectors).poly
    # The same monomials reach the table, so TOWER_TABLE_LIMIT refuses
    # (and a warm kept tower retries) exactly as for the stepwise loop.
    assert one_pass._normal.keys() == stepwise._normal.keys()


def test_divisor_product_of_no_vectors_and_on_the_point():
    t = Tower.product_of_projective_spaces([1, 2])
    assert t.divisor_product([]) == t.const(1)
    assert t.divisor_product(iter([(1, 2), [0, 1]])) == (
        t.line_class([1, 2]) * t.line_class([0, 1]))
    for point in (Tower([]), Tower.projective_space(0)):
        assert point.divisor_product([]) == point.const(1)
        assert point.divisor_product([[]]).is_zero()
    assert Tower.projective_space(0).divisor_product([[5]]).is_zero()
    assert Tower.projective_space(0).linear_form([5]).is_zero()


def test_divisor_product_refuses_a_vector_longer_than_the_tower():
    t = Tower.product_of_projective_spaces([1, 1])
    for vectors in ([[1, 2, 3]], [[1, 0], [0, 1, 1]]):
        with pytest.raises(ValueError, match="more coefficients"):
            t.divisor_product(vectors)
    with pytest.raises(ValueError, match="more coefficients"):
        Tower([]).divisor_product([[1]])
    with pytest.raises(TypeError):
        t.divisor_product([[1.5, 0]])


def test_divisor_product_is_refused_where_the_stepwise_loop_is(monkeypatch):
    levels = [[[0] * j, [1] * j] for j in range(4)]
    vectors = [[1, 1, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 1, 1]]
    full = Tower(levels)
    expected = integrate(_product_of_linear_forms(full, vectors))
    needed = len(full._normal)
    monkeypatch.setattr(pushforward, "TOWER_TABLE_LIMIT", needed)
    assert integrate(Tower(levels).divisor_product(vectors)) == expected
    monkeypatch.setattr(pushforward, "TOWER_TABLE_LIMIT", needed - 1)
    with pytest.raises(TowerTooLarge):
        Tower(levels).divisor_product(vectors)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_powers_equal_repeated_products(data):
    ring = data.draw(rings())
    x = ring.from_poly(data.draw(polys_on(ring)))
    for n in range(ring.zero().poly.bound + 3):
        assert (x ** n).poly == reduce(lambda p, _: p * x, range(n),
                                       ring.const(1)).poly


def test_power_of_a_unit_keeps_every_binomial_term():
    t = Tower.projective_space(3)
    x = 1 + t.xi(1) * Fraction(1, 2)
    h = t.xi(1)
    assert x ** 10 == (1 + h * 5 + h ** 2 * Fraction(45, 4)
                       + h ** 3 * 15)
    with pytest.raises(ValueError):
        x ** -1


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_towers_with_equal_levels_agree_and_do_not_mix(data):
    levels = data.draw(tower_levels())
    first, second = Tower(levels), Tower(levels)
    p, q = data.draw(polys_on(first)), data.draw(polys_on(first))
    a, b = first.from_poly(p), first.from_poly(q)
    c, d = second.from_poly(p), second.from_poly(q)
    assert (a * b).poly == (c * d).poly
    assert (a ** 3).poly == (c ** 3).poly
    with pytest.raises(TypeError):
        a * d


def _frames():
    frame, n = sys._getframe(), 0
    while frame is not None:
        frame, n = frame.f_back, n + 1
    return n


def test_deep_rewriting_needs_no_interpreter_stack():
    # The deepest tower the limit allows, with level j twisted by level
    # j-1 only: xi_j^2 = -xi_{j-1} xi_j.  Reducing xi_16^16 rewrites one
    # monomial into the next along a chain of 120 monomials, so a
    # recursive normal form would need that many frames.  By induction
    # xi_j^k = (-xi_{j-1})^{k-1} xi_j, which gives xi_16^16 =
    # (-1)^(1 + ... + 15) xi_1 ... xi_16, integral 1.
    levels = [[[0] * j, [0] * (j - 1) + [1]] if j else [[], []]
              for j in range(TRUNCATION_LIMIT)]
    t = Tower(levels)
    assert t.dimension == TRUNCATION_LIMIT
    top = Poly.var(xi_name(TRUNCATION_LIMIT), t.grades, t.bound)
    headroom = 30
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frames() + headroom)
    try:
        reduced = t.from_poly(top ** TRUNCATION_LIMIT)
    finally:
        sys.setrecursionlimit(limit)
    assert integrate(reduced) == 1
    assert len(t._normal) > 3 * headroom


def test_a_table_past_the_limit_is_refused(monkeypatch):
    levels = [[[0] * j, [1] * j] for j in range(4)]
    full = Tower(levels)
    expected = integrate(full.xi(4) ** 4)
    needed = len(full._normal)
    assert needed > 10

    # A table may reach the limit but never pass it.
    monkeypatch.setattr(pushforward, "TOWER_TABLE_LIMIT", needed)
    at_limit = Tower(levels)
    assert integrate(at_limit.xi(4) ** 4) == expected
    assert len(at_limit._normal) == needed

    monkeypatch.setattr(pushforward, "TOWER_TABLE_LIMIT", needed - 1)
    below = Tower(levels)
    with pytest.raises(TowerTooLarge):
        below.xi(4) ** 4
    assert len(below._normal) == needed - 1

    monkeypatch.setattr(pushforward, "TOWER_TABLE_LIMIT", 10)
    argv = ["deligne", "--fiber", "1,1", "--base", "1",
            "--bundles", "[[1,0,1],[0,1,1],[1,1,0]]"]
    assert cli.main(argv) == 2
    monkeypatch.undo()
    assert cli.main(argv) == 0


@settings(max_examples=60, deadline=None)
@given(tower_levels(), st.data())
def test_the_relative_todd_class_is_the_dual_todd_of_the_cotangent(levels,
                                                                   data):
    # td^v(V) = td(V^v), and the relative cotangent bundle is the dual of
    # the relative tangent bundle: the grr integrand's two forms agree.
    tower = Tower(levels)
    base = data.draw(st.integers(0, len(levels)))
    omega = relative_tangent(tower, base).dual()
    dual_todd = evaluate_class_in_ring(todd_star_spec(tower.bound), omega,
                                       tower)
    assert dual_todd.poly == tangent_todd(tower, base).poly
