"""Differential tests of the kernels that sum products in one pass:
``Poly.substitute`` against the term-by-term algorithm it replaced,
``sum_of_products`` against the chained ``+`` and ``*`` it replaces, and
the orbit grouping of ``symfun`` against keys built from sorted exponent
tuples."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chowline.errors import NotSymmetric
from chowline.poly import Poly, _union, sum_of_products
from chowline.symfun import _orbits


def reference_substitute(p, mapping):
    """The substitution as it was written: one polynomial per term, each
    image raised to its power again for every term, summed by ``+``."""
    table = p.grades
    for img in mapping.values():
        table = _union(table, img.grades)
    out = Poly.zero(table, p.bound)
    for mono, coeff in p.terms.items():
        term = Poly.const(coeff, table, p.bound)
        for v, e in mono:
            if v in mapping:
                term = term * (mapping[v] ** e)
            else:
                term = term * (Poly.var(v, table, p.bound) ** e)
        out = out + term
    return out


def reference_sum_of_products(terms, grades, bound):
    total = Poly.zero(grades, bound)
    for c, a, b in terms:
        total = total + c * a * b
    return total


def assert_same(got, want):
    """Equal values, bounds, denominators and variables with their grades."""
    assert got == want
    assert got.bound == want.bound
    assert got.den == want.den
    assert dict(got.grades.items()) == dict(want.grades.items())


fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def polys_over(draw, grades, bound, max_terms=5):
    """Up to ``max_terms`` terms over ``grades``, exponents up to 3, with
    Fraction coefficients; some terms land beyond the bound."""
    names = sorted(grades)
    exponents = st.tuples(*[st.integers(0, 3)] * len(names))
    raw = draw(st.dictionaries(exponents, fractions, max_size=max_terms))
    terms = {tuple((v, e) for v, e in zip(names, exps) if e): c
             for exps, c in raw.items()}
    return Poly.make(terms, grades, bound)


EXTRA = {"u": 1, "w": 2}  # variables that only images use


@st.composite
def substitutions(draw):
    """A polynomial in 1-4 variables of grades 1-2 and a mapping of some of
    them (and at times of a variable it lacks) to images over extra
    variables and its own, with bounds below and above its bound; some
    images are zero, some variables stay unmapped."""
    n = draw(st.integers(1, 4))
    grades = {f"x{i}": draw(st.integers(1, 2)) for i in range(n)}
    bound = draw(st.integers(0, 6))
    p = draw(polys_over(grades, bound))
    mapping = {}
    for v in grades:
        kind = draw(st.sampled_from(["unmapped", "image", "image", "zero"]))
        if kind == "unmapped":
            continue
        own = draw(st.lists(st.sampled_from(sorted(grades)), max_size=2))
        img_grades = {**EXTRA, **{x: grades[x] for x in own}}
        img_bound = max(0, bound + draw(st.integers(-2, 3)))
        mapping[v] = (Poly.zero(img_grades, img_bound) if kind == "zero"
                      else draw(polys_over(img_grades, img_bound, 3)))
    if draw(st.booleans()):
        mapping["absent"] = draw(polys_over({"absent": 1, **EXTRA}, bound, 2))
    return p, mapping


@settings(max_examples=300, deadline=None)
@given(substitutions())
def test_substitute_matches_the_term_by_term_algorithm(case):
    p, mapping = case
    assert_same(p.substitute(mapping), reference_substitute(p, mapping))


def test_substitute_bound_counts_only_the_images_of_variables_that_occur():
    grades = {"x": 1, "y": 1}
    p = Poly.make({(("x", 2),): Fraction(1, 3)}, grades, 6)
    low = Poly.var("y", grades, 2)
    high = Poly.make({(("x", 1),): 1, (("y", 1),): Fraction(1, 2)}, grades, 8)
    # y does not occur in p, so its image's bound 2 does not count.
    got = p.substitute({"x": high, "y": low})
    assert got.bound == 6
    assert_same(got, reference_substitute(p, {"x": high, "y": low}))
    assert p.substitute({"x": low}).bound == 2


def test_substitute_pinned_example():
    grades = {"x": 1, "y": 1}
    x, y = Poly.var("x", grades, 8), Poly.var("y", grades, 8)
    got = (x * x * y).substitute({"x": x + 2 * y})
    assert got == x * x * y + 4 * x * y * y + 4 * y * y * y
    assert dict(got.terms) == {(("x", 2), ("y", 1)): 1,
                               (("x", 1), ("y", 2)): 4, (("y", 3),): 4}


GRADES = {"x": 1, "y": 1, "z": 2}
OTHER = {"y": 1, "t": 1}  # a second table, sharing y


@st.composite
def product_terms(draw):
    """A list of up to four triples (c, a, b): c an int or Fraction (zero
    included), a and b over GRADES or OTHER at bounds 2-5.  At times a
    triple is followed by its negation, so that the pair cancels."""
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        c = draw(st.one_of(st.integers(-3, 3), fractions))
        a = draw(polys_over(draw(st.sampled_from([GRADES, OTHER])),
                            draw(st.integers(2, 5)), 4))
        b = draw(polys_over(draw(st.sampled_from([GRADES, OTHER])),
                            draw(st.integers(2, 5)), 4))
        terms.append((c, a, b))
        if draw(st.booleans()):
            terms.append((-c, a, b))
    return terms


@settings(max_examples=200, deadline=None)
@given(product_terms(), st.integers(1, 6))
@example([], 4)
def test_sum_of_products_matches_the_chained_sum(terms, bound):
    assert_same(sum_of_products(terms, GRADES, bound),
                reference_sum_of_products(terms, GRADES, bound))


def test_sum_of_products_over_fraction_denominators():
    x = Poly.var("x", GRADES, 4)
    half = Poly.make({(("x", 1),): Fraction(1, 2), (): Fraction(1, 3)},
                     GRADES, 4)
    terms = [(Fraction(2, 5), half, x), (Fraction(-1, 7), half, half),
             (3, x, x)]
    got = sum_of_products(terms, GRADES, 4)
    assert_same(got, reference_sum_of_products(terms, GRADES, 4))
    assert got.den == 1260


def test_sum_of_products_that_cancel_is_the_canonical_zero():
    x = Poly.var("x", GRADES, 4)
    third = Poly.make({(("y", 1),): Fraction(1, 3)}, GRADES, 4)
    got = sum_of_products([(1, x, third), (Fraction(-1), third, x)],
                          GRADES, 4)
    assert got.is_zero() and got.den == 1 and got.nums == {}


def test_an_empty_sum_of_products_is_the_zero_of_the_ring():
    got = sum_of_products([], GRADES, 3)
    assert got.is_zero() and got.bound == 3 and dict(got.grades) == GRADES


# -- orbits ---------------------------------------------------------------

def reference_orbits(p, blocks):
    """Each term keyed by one decreasingly sorted exponent tuple per block,
    read from the decoded terms; None when some orbit is not whole or its
    coefficients differ."""
    orbits = {}
    for mono, c in p.terms.items():
        exps = dict(mono)
        key = tuple(tuple(sorted((exps.get(v, 0) for v in vs), reverse=True))
                    for _, vs in blocks)
        orbits.setdefault(key, []).append((mono, c))
    for key, members in orbits.items():
        size = 1
        for lam in key:
            size *= len(set(itertools.permutations(lam)))
        if len(members) != size or len({c for _, c in members}) != 1:
            return None
    return {key: members[0][1] for key, members in orbits.items()}


# A table whose order interleaves the blocks: neither block's variables
# are adjacent, and the blocks are listed in another order than the table's.
TABLE = {"a1": 1, "b1": 1, "a2": 1, "c1": 1, "b2": 1, "a3": 1}
BLOCKS = [("b", ["b2", "b1"]), ("c", ["c1"]), ("a", ["a3", "a1", "a2"])]


def symmetrize(exponents, coeff):
    """The terms of the orbit of one exponent tuple per block."""
    per_block = [set(itertools.permutations(e)) for e in exponents]
    terms = {}
    for choice in itertools.product(*per_block):
        mono = tuple(sorted((v, e) for (_, vs), es in zip(BLOCKS, choice)
                            for v, e in zip(vs, es) if e))
        terms[mono] = coeff
    return terms


block_exponents = st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                            st.tuples(st.integers(0, 2)),
                            st.tuples(*[st.integers(0, 2)] * 3))


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(block_exponents, fractions.filter(bool), max_size=4))
def test_orbits_match_keys_from_sorted_exponents(raw):
    terms = {}
    for exponents, c in raw.items():
        for mono, coeff in symmetrize(exponents, c).items():
            terms[mono] = terms.get(mono, 0) + coeff
    p = Poly.make(terms, TABLE, 12)
    want = reference_orbits(p, BLOCKS)
    assert want is not None
    got = _orbits(p, BLOCKS)
    assert {k: Fraction(n, p.den) for k, n in got.items()} == want


def test_a_missing_orbit_member_is_not_symmetric():
    terms = symmetrize(((2, 1), (1,), (1, 0, 0)), 1)
    terms.pop(next(iter(terms)))
    p = Poly.make(terms, TABLE, 12)
    assert reference_orbits(p, BLOCKS) is None
    with pytest.raises(NotSymmetric, match="monomials"):
        _orbits(p, BLOCKS)


def test_an_unequal_coefficient_is_not_symmetric():
    terms = symmetrize(((1, 0), (0,), (2, 1, 0)), Fraction(1, 2))
    terms[next(iter(terms))] = Fraction(3, 2)
    p = Poly.make(terms, TABLE, 12)
    assert reference_orbits(p, BLOCKS) is None
    with pytest.raises(NotSymmetric, match="unequal coefficients"):
        _orbits(p, BLOCKS)
