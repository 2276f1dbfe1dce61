import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import pytest

from chowline.charclass import VirtualBundle, ch
from chowline.chern_ring import (
    ROOT_MONOMIAL_LIMIT,
    TRUNCATION_LIMIT,
    Setup,
    chern_class,
    chern_from_segre,
    dual_class,
    elementary_classes,
    segre_class,
    tensor_line,
    whitney_expand,
)
from chowline.errors import (
    SetupTooLarge,
    TruncationTooHigh,
    UnknownBundle,
)
from chowline.poly import MIN_FIELD_BITS, Poly, PowerSeries
from chowline.pushforward import Tower


def total_chern_class(setup, name):
    total = setup.const(1)
    for k in range(1, setup.rank(name) + 1):
        total = total + chern_class(setup, name, k)
    return total


def make_setup(**ranks):
    return Setup([(n, r) for n, r in ranks.items()], 0, 8)


def shifted_roots(setup):
    """The roots x_j + c_1(L) of E (x) L."""
    ell = chern_class(setup, "L", 1).poly
    return [root + ell for root in setup.roots("E")]


def random_root_values(setup, rng):
    return {v: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            for v in setup.grades}


# ------------------------------------------------------------- chern_class

def test_chern_class_rank_two():
    s = make_setup(E=2)
    x1 = Poly.var("E.1", s.grades, 8)
    x2 = Poly.var("E.2", s.grades, 8)
    assert chern_class(s, "E", 1).poly == x1 + x2
    assert chern_class(s, "E", 0).poly == 1


def test_rank_triviality_is_structural():
    s = make_setup(E=2)
    assert chern_class(s, "E", 3).poly.is_zero()


def test_chern_class_top_of_rank_three():
    s = make_setup(E=3)
    x1, x2, x3 = (Poly.var(f"E.{i}", s.grades, 8) for i in (1, 2, 3))
    assert chern_class(s, "E", 3).poly == x1 * x2 * x3


def test_unknown_bundle():
    s = make_setup(E=2)
    with pytest.raises(UnknownBundle):
        chern_class(s, "F", 1)


# ----------------------------------------------------------------- Whitney

def test_whitney_degree_one():
    s = make_setup(E1=2, E2=3)
    assert whitney_expand(s, "E1", "E2", 1) == (
        chern_class(s, "E1", 1) + chern_class(s, "E2", 1))


def test_whitney_lines():
    s = make_setup(L=1, M=1)
    assert whitney_expand(s, "L", "M", 2) == (
        chern_class(s, "L", 1) * chern_class(s, "M", 1))


def test_whitney_two_two():
    s = make_setup(A=2, B=2)
    expected = (chern_class(s, "A", 2)
                + chern_class(s, "A", 1) * chern_class(s, "B", 1)
                + chern_class(s, "B", 2))
    assert whitney_expand(s, "A", "B", 2) == expected


def test_whitney_equals_elementary_of_concatenated_roots():
    # e_k of the four concatenated roots, via the rank-4 bundle F with the
    # same root values.
    from chowline.symfun import elem_sym
    s = make_setup(A=2, B=2)
    for k in range(5):
        combined = elem_sym(
            k, s.root_vars("A") + s.root_vars("B"), s.grades, s.truncation)
        assert whitney_expand(s, "A", "B", k).poly == combined


def test_whitney_three_step_associativity():
    s = make_setup(A=2, B=1, C=2)
    for k in range(6):
        # ((A + B) + C) developed as sum over i+j+l = k, grouped two ways.
        left = s.zero()
        for i in range(k + 1):
            left = left + whitney_expand(s, "A", "B", i) * chern_class(s, "C", k - i)
        right = s.zero()
        for i in range(k + 1):
            right = right + chern_class(s, "A", i) * whitney_expand(s, "B", "C", k - i)
        assert left == right


def test_whitney_random_root_evaluation():
    rng = random.Random(99)
    from chowline.symfun import elem_sym
    for (r1, r2) in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]:
        s = Setup([("A", r1), ("B", r2)], 0, 8)
        combined_vars = s.root_vars("A") + s.root_vars("B")
        for k in range(r1 + r2 + 1):
            rhs = whitney_expand(s, "A", "B", k)
            lhs = elem_sym(k, combined_vars, s.grades, s.truncation)
            for _ in range(10):
                values = random_root_values(s, rng)
                assert lhs.evaluate(values) == rhs.poly.evaluate(values)


# ------------------------------------------------------------------- duals

def test_dual_class_examples():
    s = make_setup(E=3)
    assert dual_class(s, "E", 0) == s.const(1)
    s2 = make_setup(E=2)
    assert dual_class(s2, "E", 1) == -chern_class(s2, "E", 1)
    # (-1)^2 e_2(x) = e_2(-x): substitute negated roots.
    e2 = chern_class(s, "E", 2).poly
    negated = e2.substitute(
        {v: -Poly.var(v, s.grades, 8) for v in s.root_vars("E")})
    assert dual_class(s, "E", 2).poly == negated


def test_dual_class_negated_roots_all_degrees():
    s = make_setup(E=5)
    sub = {v: -Poly.var(v, s.grades, 8) for v in s.root_vars("E")}
    for k in range(6):
        ck = chern_class(s, "E", k).poly
        assert dual_class(s, "E", k).poly == ck.substitute(sub)


# ------------------------------------------------------------- tensor_line

def test_tensor_line_degree_one():
    s = make_setup(E=3, L=1)
    expected = chern_class(s, "E", 1) + 3 * chern_class(s, "L", 1)
    assert tensor_line(s, "E", "L", 1) == expected


def test_tensor_line_rank_two_degree_two():
    s = make_setup(E=2, L=1)
    c1, c2 = chern_class(s, "E", 1), chern_class(s, "E", 2)
    ell = chern_class(s, "L", 1)
    assert tensor_line(s, "E", "L", 2) == c2 + c1 * ell + ell * ell


def test_tensor_line_line_by_line():
    s = make_setup(E=1, L=1)
    assert tensor_line(s, "E", "L", 1) == (
        chern_class(s, "E", 1) + chern_class(s, "L", 1))


def test_tensor_line_matches_shifted_root_oracle():
    for r in range(1, 6):
        s = Setup([("E", r), ("L", 1)], 0, 8)
        for k in range(6):
            assert tensor_line(s, "E", "L", k) == elementary_classes(
                s, shifted_roots(s), k)[k]


def test_tensor_line_printed_variant_fails_at_rank_two():
    # The variant coefficient binom(r-k+1, i) disagrees with the splitting
    # principle at r = 2, k = 2: the difference is exactly c_1(L)^2.
    s = make_setup(E=2, L=1)
    r, k = 2, 2
    variant = s.zero()
    for i in range(k + 1):
        coeff = comb(r - k + 1, i)
        if coeff:
            variant = variant + chern_class(s, "E", k - i) * (
                chern_class(s, "L", 1) ** i) * coeff
    oracle = elementary_classes(s, shifted_roots(s), k)[k]
    diff = oracle - variant
    ell = chern_class(s, "L", 1)
    assert diff == ell * ell


# ------------------------------------------------------------------- Segre

def complete_homogeneous(setup, name, k):
    """h_k of E's roots: 1/prod_j (1 - x_j) in degree k."""
    total = setup.zero()
    for combo in combinations_with_replacement(setup.roots(name), k):
        term = setup.const(1)
        for root in combo:
            term = term * setup.from_poly(root)
        total = total + term
    return total


def test_segre_low_degrees():
    s = make_setup(E=3)
    assert segre_class(s, "E", 0) == s.const(1)
    assert segre_class(s, "E", 1) == chern_class(s, "E", 1)
    c1, c2 = chern_class(s, "E", 1), chern_class(s, "E", 2)
    assert segre_class(s, "E", 2) == c1 * c1 - c2
    # In every degree: s_k = h_k(roots), and s_k^F = (-1)^k h_k(roots).
    for r in range(1, 6):
        s = Setup([("E", r)], 0, 8)
        for k in range(9):
            h = complete_homogeneous(s, "E", k)
            assert segre_class(s, "E", k) == h, (r, k)
            assert segre_class(s, "E", k, fulton=True) == h * ((-1) ** k), (r, k)


def test_segre_recurrence_all_ranks():
    # sum_i (-1)^i s_i c_{k-i} = 0 for k >= 1.
    for r in range(1, 6):
        s = Setup([("E", r)], 0, 8)
        for k in range(1, 9):
            acc = s.zero()
            for i in range(k + 1):
                term = segre_class(s, "E", i) * chern_class(s, "E", k - i)
                acc = acc + term * ((-1) ** i)
            assert acc.is_zero()


def test_chern_recovered_from_segre():
    for r in range(1, 6):
        s = Setup([("E", r)], 0, 8)
        for k in range(9):
            assert chern_from_segre(s, "E", k) == chern_class(
                s, "E", k), (r, k)


def test_chern_from_segre_refuses_negative_degrees():
    # As segre_class and chern_class do.
    s = make_setup(E=3)
    with pytest.raises(ValueError):
        chern_class(s, "E", -1)
    for fulton in (False, True):
        with pytest.raises(ValueError):
            segre_class(s, "E", -1, fulton=fulton)
    with pytest.raises(ValueError):
        chern_from_segre(s, "E", -1)


def test_identity_root_evaluation_oracle():
    # Every identity-producing operation agrees with its splitting-principle
    # counterpart on random rational root values: >= 100 instances each.
    rng = random.Random(424242)
    from chowline.symfun import elem_sym

    def sample(setup):
        return {v: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                for v in setup.grades}

    for _ in range(100):
        r1, r2 = rng.randint(1, 5), rng.randint(1, 5)
        s = Setup([("A", r1), ("B", r2)], 0, 8)
        k = rng.randint(0, min(8, r1 + r2))
        values = sample(s)
        combined = elem_sym(k, s.root_vars("A") + s.root_vars("B"),
                            s.grades, 8)
        assert combined.evaluate(values) == whitney_expand(
            s, "A", "B", k).poly.evaluate(values)

    for _ in range(100):
        r = rng.randint(1, 5)
        s = Setup([("E", r)], 0, 8)
        k = rng.randint(0, min(8, r))
        values = sample(s)
        negated = {v: -x for v, x in values.items()}
        assert chern_class(s, "E", k).poly.evaluate(negated) == dual_class(
            s, "E", k).poly.evaluate(values)

    for _ in range(100):
        r = rng.randint(1, 5)
        s = Setup([("E", r), ("L", 1)], 0, 8)
        k = rng.randint(0, min(8, r + 1))
        values = sample(s)
        lhs = tensor_line(s, "E", "L", k).poly.evaluate(values)
        rhs = elementary_classes(
            s, shifted_roots(s), k)[k].poly.evaluate(values)
        assert lhs == rhs

    for _ in range(100):
        r = rng.randint(1, 5)
        s = Setup([("E", r)], 0, 8)
        k = rng.randint(1, 8)
        values = sample(s)
        acc = Fraction(0)
        for i in range(k + 1):
            acc += ((-1) ** i
                    * segre_class(s, "E", i).poly.evaluate(values)
                    * chern_class(s, "E", k - i).poly.evaluate(values))
        assert acc == 0


def test_segre_fulton_convention_translation():
    # s_k (default) = (-1)^k s_k^F, and s^F is the inverse total Chern class.
    s = make_setup(E=3)
    total_inverse = total_chern_class(s, "E").inverse()
    for k in range(7):
        sf = segre_class(s, "E", k, fulton=True)
        assert sf == total_inverse.graded_part(k)
        assert segre_class(s, "E", k) == sf * ((-1) ** k)


# ------------------------------------------------------------- c_1(det V)
# c_1(det V) is the degree-1 part of ch(det V): det V is a line, whose ch
# is e^{c_1}.

def c1_det(setup, virtual):
    return ch(virtual.det(), setup).graded_part(1)


def test_first_chern_det_of_determinant():
    s = make_setup(E=2)
    E = VirtualBundle.bundle("E")
    assert c1_det(s, E) == chern_class(s, "E", 1)


def test_first_chern_det_additive():
    s = make_setup(E=2, F=3)
    E, F = VirtualBundle.bundle("E"), VirtualBundle.bundle("F")
    c1E, c1F = chern_class(s, "E", 1), chern_class(s, "F", 1)
    assert c1_det(s, E + F) == c1E + c1F
    assert c1_det(s, E - F) == c1E - c1F


def test_first_chern_det_counts_the_trivial_line_as_zero():
    s = make_setup(E=2)
    E, O = VirtualBundle.bundle("E"), VirtualBundle.trivial()
    assert c1_det(s, E + O) == chern_class(s, "E", 1)
    assert c1_det(s, O.det()).is_zero()
    assert c1_det(s, (E + O).det()) == chern_class(s, "E", 1)


def test_first_chern_det_rejects_malformed_input():
    from chowline.errors import MalformedVirtualBundle
    s = make_setup(E=2, F=3)
    virtual = VirtualBundle.bundle("E") - VirtualBundle.bundle("F")
    with pytest.raises(MalformedVirtualBundle):
        c1_det(s, virtual.lam(2))
    with pytest.raises(UnknownBundle):
        c1_det(s, VirtualBundle.bundle("G"))


# ------------------------------------------------------- homogeneous parts

def test_integrate_formal_degree_parts():
    s = make_setup(E=2)
    series = s.const(1) + chern_class(s, "E", 1) + chern_class(s, "E", 2)
    assert series.graded_part(0) == s.const(1)
    assert series.graded_part(2) == chern_class(s, "E", 2)
    assert series.graded_part(3).is_zero()


# ------------------------------------------------------------ presentation

def test_chern_basis_presentation():
    s = make_setup(E=2)
    c2 = chern_class(s, "E", 2)
    assert str(c2.chern_basis()) == "c2(E)"


def test_setup_requires_headroom_over_relative_dimension():
    with pytest.raises(ValueError):
        Setup([("E", 2)], relative_dimension=3, truncation=3)


@pytest.mark.parametrize("declared", [
    ([("E", True)], 0, 4),
    ([("E", 2.0)], 0, 4),
    ([(5, 2)], 0, 4),
    ([("E", 2)], 0.5, 4),
    ([("E", 2)], True, 4),
    ([("E", 2)], 0, True),
    ([("E", 2)], 0, 4.0),
    ([("E", 2, 1)], 0, 4),
    (["E"], 0, 4),
], ids=["boolean-rank", "float-rank", "numeric-name",
        "fractional-relative-dimension", "boolean-relative-dimension",
        "boolean-truncation", "float-truncation", "triple", "bare-name"])
def test_setup_refuses_what_is_not_a_plain_declaration(declared):
    # A bool or a float is not read as an integer, nor anything but a
    # string as a name: each is refused as the command line refuses it.
    with pytest.raises(ValueError):
        Setup(*declared)


def test_setup_maps_each_name_to_its_rank():
    s = Setup([("E", 3), ["L", 1]], 1, 4)
    assert s.bundles == {"E": 3, "L": 1}
    assert (s.rank("E"), s.relative_dimension, s.truncation) == (3, 1, 4)


def test_setup_truncation_is_capped():
    # Refused before any class is built; the limit itself is accepted.
    with pytest.raises(TruncationTooHigh):
        Setup([("E", 2)], truncation=TRUNCATION_LIMIT + 1)
    s = Setup([("E", 2)], truncation=TRUNCATION_LIMIT)
    assert s.truncation == TRUNCATION_LIMIT
    # Every ring within the limit has fields of one width.
    assert TRUNCATION_LIMIT < 1 << MIN_FIELD_BITS
    assert s.grades.width == MIN_FIELD_BITS


def test_setup_root_monomials_are_capped(monkeypatch):
    # 5 roots at truncation 4 have comb(9, 4) = 126 monomials of degree
    # <= 4; with the cap lowered to that count they are accepted, and one
    # more root, or one more degree, is refused before any class is built.
    from chowline import chern_ring
    monkeypatch.setattr(chern_ring, "ROOT_MONOMIAL_LIMIT", comb(9, 4))
    Setup([("E", 3), ("F", 2)], truncation=4)
    with pytest.raises(SetupTooLarge):
        Setup([("E", 3), ("F", 3)], truncation=4)
    with pytest.raises(SetupTooLarge):
        Setup([("E", 5)], truncation=5)


def test_setup_root_monomial_cap_admits_the_largest_shipped_setup():
    assert comb(10 + 8, 8) <= ROOT_MONOMIAL_LIMIT < comb(16 + 8, 8)


def test_classes_of_a_setup_share_its_table():
    s = make_setup(E=2, L=1)
    c = chern_class(s, "E", 2) * chern_class(s, "L", 1) + s.const(3)
    assert c.poly.grades is s.grades
    assert dict(s.grades) == {"E.1": 1, "E.2": 1, "L.1": 1}
    assert list(s.grades) == s.root_vars("E") + s.root_vars("L")


# ------------------------------------------------------------ equality

def test_classes_of_different_rings_are_never_equal():
    from chowline.pushforward import Tower

    s, twin = make_setup(E=2), make_setup(E=2)
    assert chern_class(s, "E", 1) == chern_class(s, "E", 1)
    assert chern_class(s, "E", 1) != chern_class(twin, "E", 1)
    assert s.const(1) != twin.const(1)
    assert s.const(1) == 1 and twin.const(1) == 1
    assert s.const(1) != Tower.projective_space(2).const(1)
    assert Tower.projective_space(2).const(1) != s.const(1)


def test_arithmetic_refuses_classes_of_another_setup():
    s, twin = make_setup(E=2), make_setup(E=2)
    a, b = chern_class(s, "E", 1), chern_class(twin, "E", 1)
    for mix in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: b + a):
        with pytest.raises(TypeError):
            mix()
    assert (a + chern_class(s, "E", 1)).ring is s


@pytest.mark.parametrize("make, name", [
    (lambda: Setup([("E", 2)], 0, 3), "E.1"),
    (lambda: Tower.product_of_projective_spaces([1, 2]), "xi1"),
], ids=["setup", "tower"])
def test_a_polynomial_outside_the_ring_is_refused(make, name):
    """One door per ring: a polynomial over a variable the ring lacks or
    grades otherwise, or truncated below the ring's bound (3 for both
    rings), is refused by every operation."""
    ring = make()
    x = ring.from_poly(Poly.var(name, ring.grades, 3))
    for p in (Poly.var("y", {"y": 1}, 3), Poly.var(name, {name: 2}, 3),
              Poly.var(name, ring.grades, 2)):
        for op in (lambda: x + p, lambda: x - p, lambda: x * p,
                   lambda: x == p, lambda: ring.from_poly(p)):
            with pytest.raises(TypeError):
                op()
    # A polynomial of a finer truncation is truncated as it enters.
    assert x == Poly.var(name, ring.grades, 5) and x * 1 == x


@pytest.mark.parametrize("make, name", [
    (lambda: Setup([("E", 2)], 0, 3), "E.1"),
    (lambda: Tower.projective_space(2), "xi1"),
], ids=["setup", "tower"])
def test_a_class_on_the_right_of_a_polynomial_takes_the_operation(make, name):
    """``Poly`` returns NotImplemented for an operand it does not know, so
    ``p + x``, ``p - x`` and ``p * x`` reach the class's reflected
    operation and agree with the class on the left."""
    ring = make()
    p = Poly.var(name, ring.grades, 3)
    x = ring.from_poly(p) * 3 + 1
    lifted = ring.from_poly(p)
    for got, want in ((p + x, lifted + x), (x + p, lifted + x),
                      (p - x, lifted - x), (x - p, x - lifted),
                      (p * x, lifted * x), (x * p, lifted * x)):
        assert type(got) is type(x) and got.ring is ring and got == want
    # The reflected operation goes through the ring's one door too.
    foreign = Poly.var("y", {"y": 1}, 3)
    for op in (lambda: foreign + x, lambda: foreign - x, lambda: foreign * x):
        with pytest.raises(TypeError):
            op()


def test_a_polynomial_with_an_operand_it_does_not_know_raises():
    p = Poly.var("x", {"x": 1}, 3)
    for op in (lambda: p + "x", lambda: "x" + p, lambda: p - "x",
               lambda: "x" - p, lambda: p * "x", lambda: p * 1.5,
               lambda: 1.5 + p, lambda: p * PowerSeries([1, 2]),
               lambda: PowerSeries([1, 2]) * p):
        with pytest.raises(TypeError):
            op()
    assert p + 1 == 1 + p and p - Fraction(1, 2) == -(Fraction(1, 2) - p)
    assert p * 2 == 2 * p == p + p


def test_a_class_that_is_not_symmetric_prints_its_root_polynomial():
    # It has no Chern-basis presentation, so str and repr, which a failing
    # assertion prints, fall back to the roots instead of raising.
    s = Setup([("E", 2)], 0, 3)
    x = s.from_poly(s.roots("E")[0]) * 2 + 1
    assert str(x) == str(x.poly) == "1 + 2*E.1"
    assert repr(x) == "ChernSeries(1 + 2*E.1)"
    symmetric = chern_class(s, "E", 1) ** 2 - chern_class(s, "E", 2)
    assert str(symmetric) == str(symmetric.chern_basis()) == "c1(E)^2 - c2(E)"
