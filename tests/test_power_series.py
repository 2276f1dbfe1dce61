"""Differential tests of ``PowerSeries``: the fraction-free ``apply_to``
against the loop over Fraction coefficients it replaced, in plain graded
rings, a Setup's ring and a Tower's ring; and the standard series, built
once per order and shared."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowline.chern_ring import Setup
from chowline.poly import Poly, PowerSeries, VarTable
from chowline.pushforward import Tower
from chowline.symfun import exp_series, todd_series, todd_star_series


def reference_apply_to(coeffs, root):
    """The substitution as it was written over Fraction coefficients: one
    product per power and one scaling and one sum per coefficient."""
    out = Poly.const(coeffs[0], root.grades, root.bound)
    power = Poly.const(1, root.grades, root.bound)
    for c in coeffs[1:]:
        power = power * root
        if power.is_zero():
            break
        if c:
            out = out + power * c
    return out


def assert_matches_reference(series, root):
    got = series.apply_to(root)
    want = reference_apply_to(series.coeffs, root)
    assert got.grades is root.grades and got.bound == root.bound
    # One table on both sides, so this compares the stored canonical
    # form: the denominator and every integer numerator.
    assert (got.den, got.nums) == (want.den, want.nums)


fractions = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
nonzero_fractions = fractions.filter(bool)
# Zero coefficients are common, trailing ones included.
series_coefficients = st.one_of(st.just(Fraction(0)), fractions)


@st.composite
def power_series(draw, bound):
    """Series shorter than, as long as, and longer than bound + 1."""
    length = draw(st.integers(1, bound + 4))
    return PowerSeries(draw(st.lists(series_coefficients,
                                     min_size=length, max_size=length)))


# A plain graded ring: variables of grades 1 to 3.
GRADED = {"x": 1, "y": 1, "z": 2, "w": 3}


def graded_ring(bound):
    return VarTable(GRADED, bound), bound


def setup_ring(bound):
    s = Setup([("E", 2), ("F", 1)], 0, bound)
    return s.grades, bound


def tower_ring(bound):
    t = Tower.product_of_projective_spaces([1, 2, 1])
    return t.grades, t.bound  # a tower's dimension is its bound


RINGS = {"graded": graded_ring, "setup": setup_ring, "tower": tower_ring}


@st.composite
def monomials(draw, table, bound):
    """A monomial of positive degree at most the bound."""
    names = [v for v in table if table[v] <= bound]
    mono, room = {}, bound
    for v in draw(st.lists(st.sampled_from(names), min_size=1, max_size=4)):
        if table[v] <= room:
            mono[v] = mono.get(v, 0) + 1
            room -= table[v]
    return tuple(sorted(mono.items()))


@st.composite
def roots(draw, terms):
    """A root with the given number of terms, in a graded ring, a Setup's
    ring or a Tower's ring."""
    kind = draw(st.sampled_from(sorted(RINGS)))
    table, bound = RINGS[kind](draw(st.integers(1, 8)))
    count = draw(terms)
    spec = {}
    while len(spec) < count:
        spec[draw(monomials(table, bound))] = draw(nonzero_fractions)
    return Poly.make(spec, table, bound)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_one_term_roots_match_the_reference(data):
    # Every declared Chern root, its negation and xi_j is one term; here
    # with any nonzero rational coefficient and grades 1 to 3.
    root = data.draw(roots(st.just(1)))
    assert_matches_reference(data.draw(power_series(root.bound)), root)


def test_one_term_root_of_grade_two_with_a_long_series():
    # (-3/2) x^2 at bound 9: the powers stop at k = 4, well before the
    # series does.
    table, _ = graded_ring(9)
    root = Poly.make({(("x", 2),): Fraction(-3, 2)}, table, 9)
    assert_matches_reference(todd_series(12), root)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_multi_term_roots_match_the_reference(data):
    # Tensor roots and line classes: 2 to 4 terms.
    root = data.draw(roots(st.integers(2, 4)))
    assert_matches_reference(data.draw(power_series(root.bound)), root)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_zero_and_constant_roots_match_the_reference(data):
    bound = data.draw(st.integers(1, 8))
    table, _ = graded_ring(bound)
    series = data.draw(power_series(bound))
    assert_matches_reference(series, Poly.zero(table, bound))
    c = data.draw(fractions)
    assert_matches_reference(series, Poly.const(c, table, bound))
    x = Poly.var("x", table, bound)
    assert_matches_reference(series, x + Poly.const(c, table, bound))


# Lambda^p subset sums of a rank-6 bundle: linear forms in 5 or 6 of its
# roots, here with any nonzero rational coefficients.
SUBSET_SUMS = Setup([("E", 6), ("F", 1)], 0, 8)


@st.composite
def subset_sums(draw):
    bound = draw(st.integers(1, 6))
    names = draw(st.lists(st.sampled_from(sorted(SUBSET_SUMS.grades)),
                          min_size=5, max_size=6, unique=True))
    spec = {((v, 1),): draw(nonzero_fractions) for v in names}
    return Poly.make(spec, SUBSET_SUMS.grades, bound)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_roots_of_five_and_six_terms_match_the_reference(data):
    root = data.draw(subset_sums())
    assert_matches_reference(data.draw(power_series(root.bound)), root)


# Terms whose exponent vectors collide: x^2 is both the square of x and a
# term of its own, x*y both a term and the product of x and y; the
# constant term stands for a degree-0 term.
COLLIDING = ((), (("x", 1),), (("x", 2),), (("y", 1),), (("x", 1), ("y", 1)),
             (("z", 1),), (("x", 1), ("z", 1)))


@st.composite
def colliding_roots(draw):
    table, bound = graded_ring(draw(st.integers(1, 8)))
    monos = draw(st.lists(st.sampled_from(COLLIDING), min_size=2,
                          max_size=len(COLLIDING), unique=True))
    return Poly.make({m: draw(nonzero_fractions) for m in monos}, table, bound)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_roots_whose_terms_collide_match_the_reference(data):
    root = data.draw(colliding_roots())
    assert_matches_reference(data.draw(power_series(root.bound)), root)


@pytest.mark.parametrize("terms", [
    {(("x", 1),): 1, (("x", 2),): 1},
    {(("x", 1),): Fraction(-2, 3), (("x", 2),): Fraction(4, 9)},
    {(("x", 1), ("y", 1)): 1, (("x", 1),): 1, (("y", 1),): 1},
    {(("x", 1), ("y", 1)): -1, (("x", 1),): Fraction(1, 2),
     (("y", 1),): Fraction(-5, 2)},
    {(): Fraction(3, 2), (("x", 1),): -1, (("y", 1),): Fraction(2, 7),
     (("z", 1),): 5},
    {(): -1, (("x", 1),): 1},  # 1 + (x - 1): f(x) read around -1
], ids=["x+x2", "rational-x+x2", "xy+x+y", "signed-xy+x+y",
        "const+three", "const-cancels"])
@pytest.mark.parametrize("series", [
    exp_series(9), todd_series(9), todd_star_series(9),
    PowerSeries([0, Fraction(-1, 3), 0, Fraction(7, 5), 0, 0]),
], ids=["exp", "td", "td*", "sparse"])
def test_colliding_and_constant_terms_match_the_reference(terms, series):
    table, _ = graded_ring(7)
    assert_matches_reference(series, Poly.make(terms, table, 7))


def test_terms_that_cancel_leave_no_zero_numerator():
    # T + T^2 at x - x^2 is x - 2x^3 + x^4: the x^2 of the root and the
    # x^2 of its square cancel.
    table, _ = graded_ring(6)
    root = Poly.make({(("x", 1),): 1, (("x", 2),): -1}, table, 6)
    got = PowerSeries([0, 1, 1]).apply_to(root)
    assert dict(got.terms) == {(("x", 1),): 1, (("x", 3),): -2, (("x", 4),): 1}
    assert_matches_reference(PowerSeries([0, 1, 1]), root)


def test_one_term_root_of_every_grade_stops_at_the_bound():
    table, _ = graded_ring(7)
    ones = PowerSeries([1] * 10)
    for name, grade in GRADED.items():
        got = ones.apply_to(Poly.var(name, table, 7))
        assert sorted(dict(got.terms)) == sorted(
            ((name, k),) if k else () for k in range(7 // grade + 1))


# --------------------------------------------------------- standard series

def test_standard_series_are_built_once_per_order():
    for build in (exp_series, todd_series, todd_star_series):
        assert build(7) is build(7)
        assert build(7) is not build(8)


def test_cached_todd_series_equals_a_fresh_inverse():
    for order in range(0, 17):
        fresh = PowerSeries([Fraction((-1) ** n, factorial(n + 1))
                             for n in range(order + 1)]).inverse()
        assert todd_series(order) == fresh
        assert todd_series(order).coeffs == fresh.coeffs
        assert todd_star_series(order) == fresh.alternate()


def test_cached_series_cannot_be_changed_through_coeffs():
    td = todd_series(6)
    before = td.coeffs
    coeffs = td.coeffs
    coeffs[1] = Fraction(99)
    coeffs.append(Fraction(1))
    assert td.coeffs == before and td.order == 6
    assert todd_series(6).coeffs[1] == Fraction(1, 2)


@pytest.mark.parametrize("name", ["nums", "den", "coeffs"])
def test_power_series_is_immutable(name):
    s = PowerSeries([1, Fraction(1, 2)])
    with pytest.raises(AttributeError):
        setattr(s, name, None)
    assert s.coeffs == [1, Fraction(1, 2)]


@settings(max_examples=100, deadline=None)
@given(st.lists(fractions, min_size=1, max_size=8),
       st.lists(fractions, min_size=1, max_size=8), fractions)
def test_series_arithmetic_matches_fractions(a, b, scalar):
    s, t = PowerSeries(a), PowerSeries(b)
    n = max(len(a), len(b))
    pad = [Fraction(0)] * n
    assert (s + t).coeffs == [x + y for x, y in
                              zip((a + pad)[:n], (b + pad)[:n])]
    m = min(len(a), len(b))
    assert (s * t).coeffs == [sum(a[i] * b[k - i] for i in range(k + 1))
                              for k in range(m)]
    assert (s * scalar).coeffs == [x * scalar for x in a]
    assert s.alternate().coeffs == [-x if k % 2 else x for k, x in enumerate(a)]
    if a[0]:
        inv = s.inverse()
        assert (s * inv).coeffs == [1] + [0] * (len(a) - 1)
    # The stored form is canonical: lowest terms, so equal values compare
    # equal however they were built.
    assert PowerSeries(s.coeffs) == s
