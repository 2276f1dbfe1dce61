import collections
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chowline.charclass import (
    CharClassSpec,
    VirtualBundle,
    evaluate_class_in_ring,
)
from chowline.chern_ring import Setup
from chowline.errors import (
    ConstantTermNotOne,
    NotSymmetric,
    UnitPartNotOne,
)
from chowline.poly import Poly, PowerSeries
from chowline import symfun
from chowline.symfun import (
    chern_var,
    elem_sym,
    exp_series,
    series_invert,
    to_chern_basis,
    todd_series,
    todd_star_series,
)

from poly_helpers import rename


def exp_minus_one_series(order):
    """exp(T) - 1, the additive series of the Chern character's positive part."""
    return PowerSeries([0] + exp_series(order).coeffs[1:])


def one_plus_t_series(order):
    """1 + T: the multiplicative series of the total Chern class."""
    return PowerSeries([1, 1][:order + 1] + [0] * (order - 1))


def ring(*names, bound=8):
    grades = {n: 1 for n in names}
    return grades, bound


def var(name, grades, bound=8):
    return Poly.var(name, grades, bound)


# ---------------------------------------------------------------- elem_sym

def test_elem_sym_degree_one():
    grades, bound = ring("x", "y")
    x, y = var("x", grades), var("y", grades)
    assert elem_sym(1, ["x", "y"], grades, bound) == x + y


def test_elem_sym_above_variable_count_is_zero():
    grades, bound = ring("x", "y")
    assert elem_sym(3, ["x", "y"], grades, bound).is_zero()


def test_elem_sym_three_variables_degree_two():
    grades, bound = ring("x", "y", "z")
    x, y, z = (var(n, grades) for n in "xyz")
    assert elem_sym(2, ["x", "y", "z"], grades, bound) == x * y + x * z + y * z


def test_elem_sym_zero_is_one():
    grades, bound = ring("x")
    assert elem_sym(0, ["x"], grades, bound) == 1


def elem_sym_by_make(k, variables, grades, bound):
    """e_k as ``Poly.make`` of the tuple monomials of the k-subsets, each
    subset counted, so a repeated variable's monomials add."""
    subsets = itertools.combinations(sorted(variables), k)
    return Poly.make(collections.Counter(tuple((v, 1) for v in subset)
                                         for subset in subsets),
                     grades, bound)


ELEM_GRADES = {"u": 1, "v": 1, "w": 2, "x": 1, "y": 3}


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 7), st.lists(st.sampled_from(sorted(ELEM_GRADES)),
                                   max_size=6),
       st.integers(0, 9))
@example(2, ["x", "x", "u"], 8)  # x^2 + 2 u x: repeated variables add
@example(3, ["u", "v", "x"], 2)  # k above the bound
@example(2, ["w", "y"], 4)  # grades above 1: w y has degree 5
@example(4, ["u", "v"], 8)  # k above the variable count
def test_elem_sym_matches_make_over_combinations(k, variables, bound):
    got = elem_sym(k, variables, ELEM_GRADES, bound)
    want = elem_sym_by_make(k, variables, ELEM_GRADES, bound)
    assert got == want and got.bound == want.bound == bound
    assert got.grades is want.grades


def test_elem_sym_refuses_negative_degree_and_unknown_variables():
    with pytest.raises(ValueError):
        elem_sym(-1, ["u"], ELEM_GRADES, 4)
    with pytest.raises(KeyError):
        elem_sym(1, ["u", "z"], ELEM_GRADES, 4)


# ---------------------------------------------------------- to_chern_basis

def test_e1_rewrites_to_c1():
    grades, bound = ring("x", "y")
    p = var("x", grades) + var("y", grades)
    out = to_chern_basis(p, [("", ["x", "y"])])
    assert out == Poly.var("c1", {"c1": 1, "c2": 2}, bound)


def test_power_sum_two_newton_identity():
    # x^2 + y^2 = e1^2 - 2 e2, verified by substituting e1 = x+y, e2 = xy.
    grades, bound = ring("x", "y")
    x, y = var("x", grades), var("y", grades)
    lhs = x * x + y * y
    assert lhs == (x + y) ** 2 - 2 * (x * y)
    out = to_chern_basis(lhs, [("", ["x", "y"])])
    cg = {"c1": 1, "c2": 2}
    c1, c2 = Poly.var("c1", cg, bound), Poly.var("c2", cg, bound)
    assert out == c1 * c1 - 2 * c2


def test_two_blocks():
    grades, bound = ring("x", "y", "z")
    x, y, z = (var(n, grades) for n in "xyz")
    out = to_chern_basis(x * y + z, [("1", ["x", "y"]), ("2", ["z"])])
    og = {"c1(1)": 1, "c2(1)": 2, "c1(2)": 1}
    assert out == Poly.var("c2(1)", og, bound) + Poly.var("c1(2)", og, bound)


def test_not_symmetric_rejected():
    grades, bound = ring("x", "y")
    with pytest.raises(NotSymmetric):
        to_chern_basis(var("x", grades), [("", ["x", "y"])])


def test_not_symmetric_in_one_of_two_blocks():
    grades, bound = ring("x", "y", "z", "w")
    x, y, z = var("x", grades), var("y", grades), var("z", grades)
    # Symmetric in {x, y} but not in {z, w}.
    p = (x + y) * z
    with pytest.raises(NotSymmetric):
        to_chern_basis(p, [("1", ["x", "y"]), ("2", ["z", "w"])])


def test_not_symmetric_in_a_non_dominant_term_only():
    # The dominant terms x^2 + x*y alone read as c1^2 - c2; only the
    # non-dominant terms (2*y^2, and x*y^2 without x^2*y) break symmetry.
    grades, bound = ring("x", "y")
    x, y = var("x", grades), var("y", grades)
    with pytest.raises(NotSymmetric):
        to_chern_basis(x * x + 2 * (y * y) + x * y, [("", ["x", "y"])])
    with pytest.raises(NotSymmetric):
        to_chern_basis(x * x + y * y + x * (y * y), [("", ["x", "y"])])


def test_block_variables_must_have_grade_one():
    # c_i(block) gets grade i, the degree of e_i in grade-1 roots.
    grades = {"x": 1, "y": 2}
    p = Poly.var("x", grades, 4) + Poly.var("y", grades, 4)
    with pytest.raises(ValueError, match="grade"):
        to_chern_basis(p, [("", ["x", "y"])])


def test_round_trip_random_symmetric_inputs():
    # Random polynomials in e_1..e_r expand to symmetric polynomials in the
    # roots; converting back must reproduce them exactly.
    rng = random.Random(7)
    names = ["x", "y", "z", "w"]
    grades, bound = ring(*names, bound=6)
    es = [elem_sym(i, names, grades, bound) for i in range(5)]
    for _ in range(25):
        p = Poly.zero(grades, bound)
        for _ in range(4):
            coeff = Fraction(rng.randint(-10, 10), rng.randint(1, 4))
            term = Poly.const(coeff, grades, bound)
            for i in range(1, 5):
                term = term * es[i] ** rng.randint(0, 1)
            p = p + term
        out = to_chern_basis(p, [("", names)])
        back = out.substitute({f"c{i}": es[i] for i in range(1, 5)})
        assert back == p


def test_round_trip_two_blocks():
    rng = random.Random(8)
    a_vars = ["a1", "a2", "a3"]
    b_vars = ["b1", "b2"]
    grades = {n: 1 for n in a_vars + b_vars}
    bound = 6
    ea = [elem_sym(i, a_vars, grades, bound) for i in range(4)]
    eb = [elem_sym(i, b_vars, grades, bound) for i in range(3)]
    for _ in range(15):
        p = Poly.zero(grades, bound)
        for _ in range(4):
            coeff = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
            term = Poly.const(coeff, grades, bound)
            term = term * ea[rng.randint(0, 3)] * eb[rng.randint(0, 2)]
            p = p + term
        out = to_chern_basis(p, [("A", a_vars), ("B", b_vars)])
        back = out.substitute({
            "c1(A)": ea[1], "c2(A)": ea[2], "c3(A)": ea[3],
            "c1(B)": eb[1], "c2(B)": eb[2],
        })
        assert back == p


def _blocks(sizes):
    return [(f"B{i}", [f"b{i}.{j}" for j in range(1, n + 1)])
            for i, n in enumerate(sizes)]


def _chern_case(blocks, terms, bound):
    """(q, q with e_k(block) substituted for c_k(block), blocks) for the
    polynomial q with the given terms in the class symbols."""
    grades = {v: 1 for _, roots in blocks for v in roots}
    symbols = {chern_var(k, label): k
               for label, roots in blocks for k in range(1, len(roots) + 1)}
    q = Poly.make(terms, symbols, bound)
    images = {chern_var(k, label): elem_sym(k, roots, grades, bound)
              for label, roots in blocks for k in range(1, len(roots) + 1)}
    return q, q.substitute(images), blocks


@st.composite
def chern_polynomials(draw):
    """One to three blocks of 1-4 roots and a random polynomial in their
    class symbols c_k(block), truncated at a bound of 1-8: the shapes of
    the benchmarked rank-4 classes at truncation 8."""
    blocks = _blocks(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    grade = {chern_var(k, label): k
             for label, roots in blocks for k in range(1, len(roots) + 1)}
    bound = draw(st.integers(1, 8))
    terms = {}
    for _ in range(draw(st.integers(1, 5))):
        # A product of up to five symbols, skipping any that would take
        # it beyond the bound, with a nonzero coefficient.
        exps, degree = {}, 0
        for c in draw(st.lists(st.sampled_from(sorted(grade)),
                               min_size=1, max_size=5)):
            if degree + grade[c] <= bound:
                exps[c] = exps.get(c, 0) + 1
                degree += grade[c]
        terms[tuple(sorted(exps.items()))] = Fraction(
            draw(st.integers(1, 9)) * draw(st.sampled_from([1, -1])),
            draw(st.integers(1, 4)))
    return _chern_case(blocks, terms, bound)


# Three rank-4 blocks at truncation 8, every term of degree 8 or less.
RANK4_CASE = _chern_case(_blocks([4, 4, 4]), {
    (("c1(B0)", 4), ("c2(B1)", 1), ("c2(B2)", 1)): Fraction(-1, 720),
    (("c1(B0)", 1), ("c1(B1)", 1), ("c3(B2)", 2)): 3,
    (("c2(B0)", 2), ("c4(B1)", 1)): Fraction(1, 240),
    (("c4(B0)", 1), ("c4(B2)", 1)): Fraction(5, 2),
    (("c1(B1)", 3), ("c3(B1)", 1)): -7,
    (): 1}, 8)


@settings(max_examples=100, deadline=None)
@given(chern_polynomials())
@example(RANK4_CASE)
def test_chern_basis_round_trip_property(case):
    # The e_k of distinct blocks are algebraically independent, so the
    # Chern-basis presentation of the expanded polynomial is the original.
    q, roots_poly, blocks = case
    assert to_chern_basis(roots_poly, blocks) == q


@st.composite
def block_symmetric_polynomials(draw):
    """A polynomial symmetric in each of one to three blocks of 1-5 roots,
    the blocks drawn in random order, at a truncation of 1-8: a random
    combination of products of the blocks' e_k, expanded in the roots."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    blocks = draw(st.permutations(_blocks(sizes)))
    grade = {chern_var(k, label): k
             for label, roots in blocks for k in range(1, len(roots) + 1)}
    bound = draw(st.integers(1, 8))
    terms = {}
    for _ in range(draw(st.integers(1, 6))):
        exps, degree = {}, 0
        for c in draw(st.lists(st.sampled_from(sorted(grade)), max_size=6)):
            if degree + grade[c] <= bound:
                exps[c] = exps.get(c, 0) + 1
                degree += grade[c]
        terms[tuple(sorted(exps.items()))] = Fraction(
            draw(st.integers(-9, 9)), draw(st.integers(1, 4)))
    _, p, _ = _chern_case(blocks, terms, bound)
    return p, blocks


@settings(max_examples=100, deadline=None)
@given(block_symmetric_polynomials())
def test_kept_e_product_tables_give_what_empty_ones_give(case):
    # The tables of e-products are kept per block size across calls (and
    # across examples here); emptied, they are built again and must give
    # the same presentation, which expands back to the input.
    p, blocks = case
    warm = to_chern_basis(p, blocks)
    symfun._e_products.cache_clear()
    symfun._m_rows.cache_clear()
    cold = to_chern_basis(p, blocks)
    assert warm.sorted_terms() == cold.sorted_terms()
    assert str(warm) == str(cold)
    images = {chern_var(k, label): elem_sym(k, roots, p.grades, p.bound)
              for label, roots in blocks for k in range(1, len(roots) + 1)}
    assert warm.substitute(images) == p


@st.composite
def chern_polynomials_of_some_blocks(draw):
    """One to three blocks of 1-4 roots, a bound of 1-8, and a random
    polynomial in the e_k of some of the blocks, expanded in the roots:
    (polynomial, blocks, the e_k of every block by class symbol).  The
    other blocks are declared but absent from the polynomial."""
    blocks = _blocks(draw(st.lists(st.integers(1, 4), min_size=1,
                                   max_size=3)))
    present = draw(st.lists(st.sampled_from(range(len(blocks))),
                            unique=True))
    grade = {chern_var(k, blocks[b][0]): k
             for b in present for k in range(1, len(blocks[b][1]) + 1)}
    bound = draw(st.integers(1, 8))
    terms = {}
    for _ in range(draw(st.integers(1, 5))):
        exps, degree = {}, 0
        for c in draw(st.lists(st.sampled_from(sorted(grade)), max_size=5)
                      if grade else st.just([])):
            if degree + grade[c] <= bound:
                exps[c] = exps.get(c, 0) + 1
                degree += grade[c]
        terms[tuple(sorted(exps.items()))] = Fraction(
            draw(st.integers(-9, 9)), draw(st.integers(1, 4)))
    grades = {v: 1 for _, roots in blocks for v in roots}
    images = {chern_var(k, label): elem_sym(k, roots, grades, bound)
              for label, roots in blocks for k in range(1, len(roots) + 1)}
    q = Poly.make(terms, grade, bound)
    return q.substitute(images), blocks, images


@settings(max_examples=100, deadline=None)
@given(chern_polynomials_of_some_blocks())
def test_kept_transition_rows_rewrite_and_refuse_as_fresh_ones(case):
    # Substituting e_k(block) for c_k(block) gives the polynomial back;
    # the presentation is the same with the kept rows of the transition
    # matrix warm and with them cleared; and one more root monomial
    # breaks the symmetry of a block of two or more roots.
    p, blocks, images = case
    warm = to_chern_basis(p, blocks)
    assert warm.substitute(images) == p
    symfun._m_rows.cache_clear()
    symfun._e_products.cache_clear()
    cold = to_chern_basis(p, blocks)
    assert cold.sorted_terms() == warm.sorted_terms()
    for _, roots in blocks:
        if len(roots) > 1:
            x = Poly.var(roots[0], p.grades, p.bound)
            with pytest.raises(NotSymmetric):
                to_chern_basis(p + x, blocks)


def _monomial_symmetric(exponents, variables, grades, bound):
    """m_lambda: the sum of the distinct monomials whose exponent vector is
    a permutation of ``exponents`` (padded with zeros to the block)."""
    exponents = list(exponents) + [0] * (len(variables) - len(exponents))
    terms = {}
    for perm in set(itertools.permutations(exponents)):
        mono = tuple(sorted((v, e) for v, e in zip(variables, perm) if e))
        terms[mono] = Fraction(1)
    return Poly.make(terms, grades, bound)


def _random_block_symmetric(rng, variables, grades, bound):
    """A rational combination of monomial symmetric polynomials of degree
    at most ``bound``, built without elementary symmetric polynomials."""
    p = Poly.zero(grades, bound)
    for _ in range(rng.randint(1, 4)):
        degree = rng.randint(0, bound)
        parts = []
        while sum(parts) < degree and len(parts) < len(variables):
            parts.append(rng.randint(1, degree - sum(parts)))
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        p = p + _monomial_symmetric(sorted(parts, reverse=True), variables,
                                    grades, bound) * coeff
    return p


def _swap_invariant(p, blocks):
    """Invariance under each adjacent transposition within a block, which
    generate the permutations of the block."""
    return all(rename(p, {a: b, b: a}) == p
               for _, variables in blocks
               for a, b in zip(variables, variables[1:]))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from(["symmetric", "term", "random"]))
def test_block_symmetry_check_matches_adjacent_swaps(seed, kind):
    # Symmetric products, the same plus one term (symmetric again only
    # when the term is alone in its orbit), and unstructured polynomials.
    rng = random.Random(seed)
    blocks = [("A", ["a1", "a2", "a3"]), ("B", ["b1", "b2"])]
    names = [v for _, vs in blocks for v in vs]
    grades, bound = ring(*names, bound=5)

    def term():
        mono = tuple(sorted((v, rng.randint(1, 2))
                            for v in rng.sample(names, rng.randint(0, 3))))
        return Poly.make({mono: rng.randint(-3, 3)}, grades, bound)

    if kind == "random":
        p = Poly.zero(grades, bound)
        for _ in range(rng.randint(0, 6)):
            p = p + term()
    else:
        p = (_random_block_symmetric(rng, blocks[0][1], grades, bound)
             * _random_block_symmetric(rng, blocks[1][1], grades, bound))
        if kind == "term":
            p = p + term()
    try:
        to_chern_basis(p, blocks)
    except NotSymmetric:
        assert not _swap_invariant(p, blocks)
    else:
        assert _swap_invariant(p, blocks)


def _to_sympy(p, names=None):
    """A Poly as a sympy expression; ``names`` renames variables."""
    import sympy
    names = names or {}
    expr = sympy.Integer(0)
    for mono, coeff in p.terms.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for v, e in mono:
            term *= sympy.Symbol(names.get(v, v)) ** e
        expr += term
    return expr


def test_to_chern_basis_matches_sympy_symmetrize():
    # One block: sympy's fundamental-theorem rewrite, with its s_i standing
    # for our c_i, must agree and leave no remainder.
    import sympy
    from sympy.polys.polyfuncs import symmetrize
    rng = random.Random(11)
    for size in range(1, 5):
        names = [f"x{i}" for i in range(1, size + 1)]
        grades, bound = ring(*names, bound=5)
        rename = {chern_var(i): f"s{i}" for i in range(1, size + 1)}
        for _ in range(6):
            p = _random_block_symmetric(rng, names, grades, bound)
            ours = _to_sympy(to_chern_basis(p, [("", names)]), rename)
            theirs, remainder, _ = symmetrize(
                _to_sympy(p), *sympy.symbols(names), formal=True)
            assert remainder == 0
            assert sympy.expand(ours - theirs) == 0, p


def test_to_chern_basis_two_blocks_expand_back_in_sympy():
    # Two blocks: substituting each block's e_i for c_i(block) in sympy and
    # expanding gives back the input.
    import sympy
    rng = random.Random(12)
    blocks = [("A", ["a1", "a2", "a3"]), ("B", ["b1", "b2"])]
    grades, bound = ring(*(v for _, vs in blocks for v in vs), bound=5)
    images = {}
    for label, variables in blocks:
        roots = sympy.symbols(variables)
        for i in range(1, len(variables) + 1):
            images[sympy.Symbol(chern_var(i, label))] = sum(
                sympy.Mul(*c) for c in itertools.combinations(roots, i))
    for _ in range(12):
        a = _random_block_symmetric(rng, blocks[0][1], grades, bound)
        b = _random_block_symmetric(rng, blocks[1][1], grades, bound)
        p = a * b + a + b
        back = _to_sympy(to_chern_basis(p, blocks)).subs(images)
        assert sympy.expand(back - _to_sympy(p)) == 0, p


# ------------------------------------------------ universal polynomials
# The degree-k universal polynomial of an additive class, Phi_k with
# sum_j phi(T_j) = Phi_k(e_1..e_k), or of a multiplicative class, the
# degree-k part of prod_j psi(T_j), read as the class of a bundle E in
# the Chern basis.

def universal(kind, series, k, rank=None):
    """The degree-k part of the class on a bundle E of the given rank (k
    by default, the fewest roots that reach degree k), in c1(E)..ck(E)."""
    setup = Setup([("E", rank or k)], 0, k)
    value = evaluate_class_in_ring(CharClassSpec(kind, series),
                                   VirtualBundle.bundle("E"), setup)
    return value.chern_basis().graded_part(k)


def chern_symbols(k):
    """c1(E)..ck(E) as polynomials, of grades 1..k, at bound k."""
    grades = {chern_var(i, "E"): i for i in range(1, k + 1)}
    return [Poly.var(chern_var(i, "E"), grades, k) for i in range(1, k + 1)]


def test_phi_exp_components():
    # Oracle (frozen): expand sum_j exp(T_j) - 1 over r = k roots and
    # rewrite by Newton's identities:
    #   k=1: sum T_j                        = e1
    #   k=2: sum T_j^2 / 2   = (e1^2-2e2)/2
    #   k=3: sum T_j^3 / 6   = (e1^3 - 3 e1 e2 + 3 e3)/6
    phi = exp_minus_one_series(8)
    c1, c2, c3 = chern_symbols(3)
    assert universal("additive", phi, 1) == chern_symbols(1)[0]
    assert (universal("additive", phi, 2)
            == (c1 * c1 - 2 * c2) * Fraction(1, 2))
    expected3 = (c1 ** 3 - 3 * c1 * c2 + 3 * c3) * Fraction(1, 6)
    assert universal("additive", phi, 3) == expected3


def test_phi_independent_of_root_count():
    phi = exp_minus_one_series(8)
    for k in range(1, 5):
        assert (universal("additive", phi, k)
                == universal("additive", phi, k, rank=k + 2))


def test_phi_additivity():
    # Substituting c_i -> sum_{m+n=i} c'_m c''_n turns Phi_k into
    # Phi_k(c') + Phi_k(c''), for random additive series.
    rng = random.Random(11)
    for trial in range(3):
        coeffs = [Fraction(0)] + [
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(6)]
        phi = PowerSeries(coeffs)
        for k in range(1, 7):
            comp = universal("additive", phi, k)
            bound = k
            merged = {}
            for i in range(1, k + 1):
                merged[f"a{i}"] = i
                merged[f"b{i}"] = i

            def whitney_sum(i):
                total = Poly.zero(merged, bound)
                for m in range(i + 1):
                    n = i - m
                    if m == 0:
                        left = Poly.const(1, merged, bound)
                    else:
                        left = Poly.var(f"a{m}", merged, bound)
                    if n == 0:
                        right = Poly.const(1, merged, bound)
                    else:
                        right = Poly.var(f"b{n}", merged, bound)
                    total = total + left * right
                return total

            c = [chern_var(i, "E") for i in range(1, k + 1)]
            substituted = comp.substitute(
                {c[i - 1]: whitney_sum(i) for i in range(1, k + 1)})
            prime = rename(comp, {c[i - 1]: f"a{i}" for i in range(1, k + 1)})
            second = rename(comp, {c[i - 1]: f"b{i}" for i in range(1, k + 1)})
            assert substituted == prime + second


def test_psi_todd_components():
    # Oracle (frozen): td(T) = 1 + T/2 + T^2/12 + ...
    #   k=1, one root:   T/2                       -> c1/2
    #   k=2, two roots:  (T1^2+T2^2)/12 + T1T2/4   -> (e1^2-2e2)/12 + e2/4
    #                                               = (c1^2 + c2)/12
    td = todd_series(8)
    assert td.coeffs[:3] == [Fraction(1), Fraction(1, 2), Fraction(1, 12)]
    c1, c2 = chern_symbols(2)
    assert (universal("multiplicative", td, 1)
            == chern_symbols(1)[0] * Fraction(1, 2))
    assert (universal("multiplicative", td, 2)
            == (c1 * c1 + c2) * Fraction(1, 12))


def test_psi_total_chern_class():
    # prod (1 + T_j) has degree-k part e_k.
    assert (universal("multiplicative", one_plus_t_series(4), 2)
            == chern_symbols(2)[1])


def test_psi_requires_unit_constant_term():
    with pytest.raises(ConstantTermNotOne):
        universal("multiplicative", exp_minus_one_series(4), 2)


def test_psi_independent_of_root_count():
    td = todd_series(8)
    for k in range(1, 5):
        assert (universal("multiplicative", td, k)
                == universal("multiplicative", td, k, rank=k + 2))


def test_todd_series_higher_coefficients():
    # Bernoulli pattern: odd coefficients beyond T vanish and the first
    # nonzero corrections are T^2/12, -T^4/720, T^6/30240.
    td = todd_series(6)
    assert td.coeffs[3] == 0
    assert td.coeffs[4] == Fraction(-1, 720)
    assert td.coeffs[5] == 0
    assert td.coeffs[6] == Fraction(1, 30240)


def test_todd_star_alternates_todd():
    td = todd_series(6)
    tds = todd_star_series(6)
    assert tds.coeffs == [c if i % 2 == 0 else -c
                          for i, c in enumerate(td.coeffs)]


# ----------------------------------------------------------- series_invert

def test_series_invert_identity():
    grades = {"c1": 1}
    one = Poly.const(1, grades, 4)
    assert series_invert(one) == one


def test_series_invert_geometric():
    grades = {"c1": 1}
    c1 = Poly.var("c1", grades, 2)
    one = Poly.const(1, grades, 2)
    assert series_invert(one + c1) == one - c1 + c1 * c1


def test_series_invert_todd_round_trip():
    td = todd_series(4)
    grades = {"x": 1}
    x = Poly.var("x", grades, 2)
    td_x = td.apply_to(x)
    inv = series_invert(td_x)
    assert (inv * td_x).truncate(2) == Poly.const(1, grades, 2)


def test_series_invert_rejects_non_units():
    grades = {"c1": 1}
    with pytest.raises(UnitPartNotOne):
        series_invert(Poly.var("c1", grades, 3))
    with pytest.raises(UnitPartNotOne):
        series_invert(Poly.const(2, grades, 3))


# ----------------------------------------------------------- ring axioms

def test_ring_axioms_randomized():
    rng = random.Random(20260808)
    names = ["u", "v", "w", "x", "y", "z"]
    grades = {n: 1 for n in names}
    bound = 8

    def random_poly():
        p = Poly.zero(grades, bound)
        for _ in range(rng.randint(1, 5)):
            mono = []
            for n in rng.sample(names, rng.randint(0, 3)):
                mono.append((n, rng.randint(1, 2)))
            coeff = rng.randint(-10, 10)
            p = p + Poly.make({tuple(sorted(mono)): Fraction(coeff)}, grades, bound)
        return p

    for _ in range(40):
        a, b, c = random_poly(), random_poly(), random_poly()
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == Poly.zero(grades, bound)
        assert a * Poly.const(1, grades, bound) == a


def test_power_series_inverse_round_trip():
    rng = random.Random(5)
    for _ in range(10):
        coeffs = [Fraction(1)] + [
            Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(6)]
        s = PowerSeries(coeffs)
        prod = s * s.inverse()
        assert prod.coeffs[0] == 1
        assert all(c == 0 for c in prod.coeffs[1:])
