"""The polynomial kernel: truncation across bounds, ring axioms, a
differential check of products against sympy, and the canonical
fraction-free form (integer numerators over one reduced denominator)."""

from fractions import Fraction
from math import factorial, gcd, prod

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chowline.poly import Poly, VarTable

from poly_helpers import rename

VARS = ("x", "y", "z")
GRADES = {"x": 1, "y": 1, "z": 2}


def weighted_degree(mono, grades):
    return sum(grades[v] * e for v, e in mono)


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


# -- the stored form -------------------------------------------------------

# Coefficients whose denominators cancel in sums (k/6), the Taylor
# coefficients of exp up to 1/10!, small fractions and integers.
COEFFS = st.one_of(
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
    st.builds(lambda k: Fraction(k, 6), st.integers(-12, 12)),
    st.builds(lambda n, s: Fraction(s, factorial(n)),
              st.integers(0, 10), st.sampled_from([1, -1])),
    st.integers(-5, 5))


@st.composite
def rich_polys(draw, bound=None):
    """Up to six terms with coefficients from COEFFS."""
    if bound is None:
        bound = draw(st.integers(0, 5))
    exponents = st.tuples(*[st.integers(0, 3)] * len(VARS))
    raw = draw(st.dictionaries(exponents, COEFFS, max_size=6))
    terms = {tuple((v, e) for v, e in zip(VARS, exps) if e): c
             for exps, c in raw.items()}
    return Poly.make(terms, GRADES, bound)


@st.composite
def same_bound_pairs(draw):
    """Two polynomials of one bound; the second is often the first plus a
    polynomial whose coefficients may cancel it."""
    bound = draw(st.integers(0, 5))
    a = draw(rich_polys(bound))
    b = draw(st.one_of(rich_polys(bound),
                       st.builds(lambda c: a + c, rich_polys(bound)),
                       st.just(Poly.make(dict(a.terms), GRADES, bound))))
    return a, b


def assert_canonical(p):
    assert isinstance(p.den, int) and p.den > 0
    assert all(isinstance(n, int) and n != 0 for n in p.nums.values())
    assert gcd(p.den, *p.nums.values()) == 1
    if not p.nums:
        assert p.den == 1
    # Each key is the packed form of its monomial, whose weighted degree,
    # read from the top field, is within the bound the table can hold.
    table = p.grades
    assert isinstance(table, VarTable) and p.bound <= table.mask
    for m in p.nums:
        mono = table.decode(m)
        assert table.encode(mono) == m
        assert weighted_degree(mono, table) == m >> table.dshift <= p.bound


@settings(max_examples=80, deadline=None)
@given(rich_polys(), rich_polys(), COEFFS, st.integers(0, 6))
def test_every_operation_returns_the_canonical_form(a, b, scalar, k):
    results = [a, a + b, a - b, -a, a * b, a * scalar, scalar * a, a + scalar,
               a * 0, a ** 2, a.graded_part(k), a.truncate(k),
               a.alternate_signs(), rename(a, {"x": "w"}),
               *a.graded_parts().values()]
    for p in results:
        assert_canonical(p)


def test_denominators_that_cancel_leave_an_integral_polynomial():
    x = Poly.var("x", GRADES, 3)
    total = Poly.zero(GRADES, 3)
    for k in (1, 5, 2, 4, 3, 3):  # sixths summing to 3
        total = total + x * Fraction(k, 6)
        assert_canonical(total)
    assert total == x * 3 and total.den == 1
    sixth = Poly.make({(("x", 1),): Fraction(1, 6), (("y", 1),): Fraction(5, 6)},
                      GRADES, 3)
    assert sixth.den == 6
    assert (sixth + sixth + sixth).den == 2
    assert (sixth * 6).den == 1


def test_exponential_coefficients_up_to_ten_factorial():
    def exp(sign):
        return Poly.make({(("x", n),) if n else (): Fraction(sign ** n, factorial(n))
                          for n in range(11)}, {"x": 1}, 10)

    assert_canonical(exp(1))
    assert exp(1).den == factorial(10)
    assert exp(1).coefficient((("x", 10),)) == Fraction(1, factorial(10))
    assert exp(1).coefficient((("x", 1),)) == 1
    product = exp(1) * exp(-1)
    assert_canonical(product)
    assert product == 1 and product.den == 1


def test_terms_show_integral_coefficients_as_integers():
    p = Poly.make({(("x", 1),): Fraction(4, 2), (("y", 1),): Fraction(1, 2)},
                  GRADES, 3)
    assert p.den == 2
    assert dict(p.terms) == {(("x", 1),): 2, (("y", 1),): Fraction(1, 2)}
    assert type(p.terms[(("x", 1),)]) is int
    assert type(p.coefficient(())) is int and p.constant_term() == 0
    assert len(p.terms) == 2


@settings(max_examples=80, deadline=None)
@given(same_bound_pairs())
def test_equality_is_a_zero_difference(pair):
    a, b = pair
    assert (a == b) == (a - b).is_zero()
    assert (a != b) == (not (a - b).is_zero())


def test_equality_ignores_bound_and_grades():
    narrow = Poly.var("x", {"x": 1}, 2)
    wide = Poly.var("x", {"x": 1, "y": 1}, 7)
    assert narrow == wide and narrow.bound != wide.bound
    assert Poly.zero({"x": 1}, 1) == Poly.zero({"z": 2}, 9) == 0
    assert Poly.const(Fraction(3, 2), {}, 0) == Fraction(3, 2)
    assert narrow != Poly.var("x", {"x": 1}, 2) * 2


def reference_str(p):
    """The rendering of ``Poly.__str__``, rebuilt from Fraction
    coefficients: terms by degree then monomial, signs between terms."""
    items = sorted(((m, Fraction(c)) for m, c in p.terms.items()),
                   key=lambda t: (weighted_degree(t[0], p.grades), t[0]))
    if not items:
        return "0"
    out = []
    for i, (mono, c) in enumerate(items):
        body = "*".join(v if e == 1 else f"{v}^{e}" for v, e in mono)
        size = abs(c)
        text = str(size) if not body else body if size == 1 else f"{size}*{body}"
        if i == 0:
            out.append(text if c > 0 else f"-{text}")
        else:
            out.append(f" {'+' if c > 0 else '-'} {text}")
    return "".join(out)


UNIT_SIGNS = Poly.make({(): -1, (("x", 1),): 1, (("y", 1),): -1,
                        (("x", 2),): Fraction(-3, 2), (("z", 1),): 4}, GRADES, 3)


@settings(max_examples=80, deadline=None)
@given(rich_polys(), rich_polys())
@example(UNIT_SIGNS, -UNIT_SIGNS)
@example(Poly.zero(GRADES, 2), Poly.const(Fraction(-1, 6), GRADES, 2))
def test_printing_matches_a_fraction_reference(a, b):
    for p in (a, a * b, a - b):
        assert str(p) == reference_str(p)


# -- evaluation -------------------------------------------------------------

# Values at a point: zero, negative and integral values, over unequal
# denominators.
VALUES = st.one_of(st.integers(-4, 4),
                   st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)))


def reference_value(p, values):
    """p at the point, term by term in Fraction arithmetic."""
    total = Fraction(0)
    for mono, coeff in p.terms.items():
        term = Fraction(coeff)
        for v, e in mono:
            term *= Fraction(values[v]) ** e
        total += term
    return total


@settings(max_examples=80, deadline=None)
@given(rich_polys(), st.fixed_dictionaries({v: VALUES for v in VARS}))
@example(Poly.zero(GRADES, 3), {"x": Fraction(1, 2), "y": 0, "z": -3})
@example(Poly.const(Fraction(-7, 6), GRADES, 3), {"x": 5, "y": 0, "z": 0})
@example(UNIT_SIGNS, {"x": Fraction(-2, 3), "y": 0, "z": Fraction(5, 4)})
@example(UNIT_SIGNS, {"x": Fraction(1, 6), "y": Fraction(-3, 4), "z": 2})
def test_evaluation_matches_fraction_arithmetic(p, values):
    value = p.evaluate(values)
    assert type(value) is Fraction
    assert value == reference_value(p, values)


def test_evaluation_needs_every_variable_of_the_polynomial():
    p = Poly.var("x", GRADES, 3) * Poly.var("y", GRADES, 3) + 1
    assert p.evaluate({"x": 2, "y": Fraction(1, 2)}) == 2
    with pytest.raises(KeyError):
        p.evaluate({"x": 2})
    with pytest.raises(TypeError):
        p.evaluate({"x": 2, "y": 0.5})


def sorted_terms_value(p, values):
    """p at the point, a Fraction sum over ``sorted_terms``."""
    return sum((Fraction(c) * prod(Fraction(values[v]) ** e for v, e in mono)
                for mono, c in p.sorted_terms()), Fraction(0))


@settings(max_examples=150, deadline=None)
@given(rich_polys(), st.fixed_dictionaries({v: VALUES for v in VARS}))
@example(Poly.make({(("z", 2),): Fraction(5, 6), (("x", 1), ("y", 1)):
                    Fraction(-1, 4), (("x", 3),): 2}, GRADES, 4),
         {"x": Fraction(-2, 3), "y": Fraction(5, 7), "z": Fraction(3, 4)})
def test_evaluation_matches_a_sum_over_sorted_terms(p, values):
    value = p.evaluate(values)
    assert type(value) is Fraction and value == sorted_terms_value(p, values)
    occurring = {v for mono, _ in p.sorted_terms() for v, _ in mono}
    # A variable that does not occur needs no value.
    assert p.evaluate({v: values[v] for v in occurring}) == value
    for v in occurring:
        with pytest.raises(KeyError):
            p.evaluate({w: x for w, x in values.items() if w != v})
        with pytest.raises(TypeError):
            p.evaluate({**values, v: float(values[v])})


# -- the packed kernel against tuple monomials --------------------------------

# Two tables of grades 1-3 that share u and w, in different orders.
TABLE_A = {"u": 1, "v": 2, "w": 3}
TABLE_B = {"s": 1, "w": 3, "u": 1}
# Bounds on both sides of every field width: 2**k - 1 fills a field of k
# bits, 2**k needs one more.
EDGE_BOUNDS = (0, 1, 2, 3, 5, 8, 15, 16, 31, 32, 63, 64)


def ref_canonical(pairs):
    exps = {}
    for v, e in pairs:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in exps.items() if e))


def ref_terms(terms, grades, bound):
    """Tuple terms with nonzero Fraction coefficients, within the bound."""
    return {m: Fraction(c) for m, c in terms.items()
            if c and weighted_degree(m, grades) <= bound}


def ref_mul(a, b, grades, bound):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = ref_canonical(m1 + m2)
            if weighted_degree(m, grades) <= bound:
                out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def ref_add(a, b, grades, bound):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return ref_terms(out, grades, bound)


@st.composite
def table_terms(draw, grades, bound, edge):
    """Up to five terms of a few variables of ``grades`` with exponents up
    to the bound (some land beyond it), plus ``edge``, one variable's
    power, with coefficient 1."""
    names = sorted(grades)
    factor = st.tuples(st.sampled_from(names), st.integers(1, max(bound, 1) + 1))
    monos = st.lists(factor, max_size=3).map(ref_canonical)
    coeffs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    terms = draw(st.dictionaries(monos, coeffs, max_size=5))
    terms[edge] = Fraction(1)
    return terms


@st.composite
def packed_cases(draw):
    """Two operands whose product has a term exactly at the bound in which
    one variable, u or w, carries the whole degree: u^k times
    u^(bound - k), or the same in w when 3 divides the bound.  The second
    operand is in the first one's table, in another table object of the
    same grades, or in table B; its bound is the same or higher."""
    bound = draw(st.sampled_from(EDGE_BOUNDS))
    name, grade = draw(st.sampled_from(
        [("u", 1)] + ([("w", 3)] if bound % 3 == 0 else [])))
    k = draw(st.integers(0, bound // grade))
    a_edge = ((name, k),) if k else ()
    b_edge = ((name, bound // grade - k),) if bound // grade - k else ()
    b_bound = draw(st.sampled_from([bound, bound + 1, 2 * bound + 1]))
    which = draw(st.sampled_from(["same", "twin", "other"]))
    b_grades = TABLE_B if which == "other" else TABLE_A
    ta = draw(table_terms(TABLE_A, bound, a_edge))
    tb = draw(table_terms(b_grades, b_bound, b_edge))
    a = Poly.make(ta, TABLE_A, bound)
    b_table = VarTable(TABLE_A, b_bound) if which == "twin" else b_grades
    b = Poly.make(tb, b_table, b_bound)
    return a, ref_terms(ta, TABLE_A, bound), b, ref_terms(tb, b_grades, b_bound)


@settings(max_examples=150, deadline=None)
@given(packed_cases(),
       st.fixed_dictionaries({v: VALUES for v in ("s", "u", "v", "w")}))
def test_packed_kernel_matches_tuple_reference(case, point):
    a, ra, b, rb = case
    both = {**TABLE_A, **TABLE_B}
    bound = min(a.bound, b.bound)
    assert dict(a.terms) == ra and dict(b.terms) == rb

    product = ref_mul(ra, rb, both, bound)
    assert dict((a * b).terms) == product and (a * b).bound == bound
    assert dict((a + b).terms) == ref_add(ra, rb, both, bound)
    assert dict((b - a).terms) == ref_add(rb, {m: -c for m, c in ra.items()},
                                          both, bound)
    for p in (a * b, a + b):
        assert_canonical(p)
        if a.grades is b.grades:  # one table: no re-encoding
            assert p.grades is a.grades

    parts = (a * b).graded_parts()
    assert {k: dict(p.terms) for k, p in parts.items()} == {
        k: {m: c for m, c in product.items() if weighted_degree(m, both) == k}
        for k in {weighted_degree(m, both) for m in product}}
    for k in range(bound + 2):
        assert (a * b).graded_part(k) == parts.get(k, 0)

    assert (a * b).evaluate(point) == sum(
        (c * reference_value(Poly.make({m: 1}, both, bound), point)
         for m, c in product.items()), Fraction(0))


def test_grades_are_a_shared_read_only_table():
    x = Poly.var("x", GRADES, 4)
    y = Poly.var("y", dict(GRADES), 4)
    assert x.grades is y.grades  # equal grade dicts share one table
    assert (x * y).grades is x.grades and (x + y).grades is x.grades
    table = x.grades
    assert table["z"] == 2 and table.get("w") is None and "y" in table
    assert dict(table.items()) == GRADES and list(table) == list(GRADES)
    with pytest.raises(TypeError):
        table["x"] = 5
    # A table too narrow for a bound is replaced by a wider one.
    assert Poly.var("x", table, 1 << 8).grades is not table


def test_two_tables_combine_in_their_union():
    x = Poly.var("x", {"x": 1, "y": 1}, 4)
    t = Poly.var("t", {"t": 3, "x": 1}, 6)
    total = x * t + x
    assert dict(total.grades) == {"x": 1, "y": 1, "t": 3}
    assert dict(total.terms) == {(("t", 1), ("x", 1)): 1, (("x", 1),): 1}
    assert total.bound == 4
    with pytest.raises(ValueError):
        x + Poly.var("x", {"x": 2}, 4)


def test_term_count_decodes_nothing(monkeypatch):
    p = Poly.make({(("x", 1),): Fraction(1, 3), (("y", 2),): 1}, GRADES, 4)

    def refuse(self, m):
        raise AssertionError("decoded")

    monkeypatch.setattr(VarTable, "decode", refuse)
    assert len(p.terms) == 2 and len(p.terms.keys()) == 2


def test_tuple_spellings_of_one_monomial_add_up():
    # Unsorted and zero-exponent spellings pack to the same monomial.
    p = Poly.make({(("y", 1), ("x", 1)): 1, (("x", 1), ("y", 1)): 2,
                   (("x", 0),): 5, (): Fraction(1, 2)}, GRADES, 4)
    assert dict(p.terms) == {(("x", 1), ("y", 1)): 3, (): Fraction(11, 2)}
    assert p.coefficient((("y", 1), ("x", 1))) == 3
    assert p.coefficient((("q", 1),)) == 0 and p.coefficient((("x", 9),)) == 0
