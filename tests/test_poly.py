"""The polynomial kernel: truncation across bounds, ring axioms and a
differential check of products against sympy."""

from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from chowline.poly import Poly, weighted_degree

VARS = ("x", "y", "z")
GRADES = {"x": 1, "y": 1, "z": 2}


@st.composite
def polys(draw):
    """Up to five terms in x, y (grade 1) and z (grade 2), bound 0-5."""
    bound = draw(st.integers(0, 5))
    exponents = st.tuples(*[st.integers(0, 3)] * len(VARS))
    coeffs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
    raw = draw(st.dictionaries(exponents, coeffs, max_size=5))
    terms = {tuple((v, e) for v, e in zip(VARS, exps) if e): c
             for exps, c in raw.items()}
    return Poly.make(terms, GRADES, bound)


def same(a, b):
    return a == b and a.bound == b.bound


def test_sum_truncates_both_operands_to_the_lower_bound():
    coarse = Poly.zero({"x": 1}, 1)
    cube = Poly.var("x", {"x": 1}, 5) ** 3
    assert (coarse + cube).is_zero()
    assert (cube + coarse).is_zero()
    assert (coarse - cube).is_zero()
    assert (cube - coarse).is_zero()


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms_across_bounds(a, b, c):
    assert same(a + b, b + a)
    assert same(a * b, b * a)
    assert same((a + b) + c, a + (b + c))
    assert same((a * b) * c, a * (b * c))
    assert same(a * (b + c), a * b + a * c)
    for m in (a + b, a * b):
        assert all(weighted_degree(mono, GRADES) <= m.bound for mono in m.terms)


def to_sympy(p):
    symbols = sympy.symbols(VARS)
    total = sympy.Integer(0)
    for mono, coeff in p.terms.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for v, e in mono:
            term *= symbols[VARS.index(v)] ** e
        total += term
    return total


def from_sympy(expr, bound):
    """Terms of a sympy expression, dropping those beyond the bound."""
    terms = {}
    for exps, coeff in sympy.Poly(expr, *sympy.symbols(VARS)).terms():
        mono = tuple((v, e) for v, e in zip(VARS, exps) if e)
        if coeff and weighted_degree(mono, GRADES) <= bound:
            terms[mono] = Fraction(int(coeff.p), int(coeff.q))
    return terms


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_products_match_sympy(a, b):
    expected = from_sympy(sympy.expand(to_sympy(a) * to_sympy(b)),
                          min(a.bound, b.bound))
    assert (a * b).terms == expected


@settings(max_examples=30, deadline=None)
@given(polys(), st.integers(0, 4))
def test_powers_match_sympy(a, n):
    expected = from_sympy(sympy.expand(to_sympy(a) ** n), a.bound)
    assert (a ** n).terms == expected
