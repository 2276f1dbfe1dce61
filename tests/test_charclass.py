import inspect
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowline import charclass
from chowline.charclass import (
    CharClassSpec,
    VirtualBundle,
    borel_serre_check,
    ch,
    chern_character_spec,
    ch_lambda_minus_one,
    ch_tensor_check,
    evaluate_class_in_ring,
    lambda_minus_one,
    restriction_normal_bundle_check,
    td,
    td_star,
    todd_spec,
    todd_star_spec,
)
from chowline.chern_ring import Setup, chern_class
from chowline.errors import (
    ConstantTermNotOne,
    MalformedVirtualBundle,
    TruncationTooLow,
)
from chowline.poly import Poly, PowerSeries
from chowline.pushforward import Tower, relative_tangent, xi_name
from chowline.symfun import exp_series, series_invert, todd_series


def make_setup(truncation=6, **ranks):
    return Setup([(n, r) for n, r in ranks.items()], 0, truncation)


O = VirtualBundle.trivial()


def test_one_evaluation_routine_for_every_ring():
    assert not hasattr(charclass, "evaluate_class")
    assert list(inspect.signature(evaluate_class_in_ring).parameters) == [
        "spec", "virtual", "ring"]


# -------------------------------------------------------------------- ch/td

def test_ch_of_trivial_line_is_one():
    s = make_setup(E=2)
    assert ch(O, s) == s.const(1)


def test_ch_of_line_exp_expansion():
    s = make_setup(truncation=2, L=1)
    c1 = chern_class(s, "L", 1)
    expected = s.const(1) + c1 + c1 * c1 * Fraction(1, 2)
    assert ch(VirtualBundle.bundle("L"), s) == expected


def test_td_degree_one():
    s = make_setup(E=3)
    half_c1 = chern_class(s, "E", 1) * Fraction(1, 2)
    assert td(VirtualBundle.bundle("E"), s).graded_part(1) == half_c1


def test_rank_term():
    s = make_setup(E=3)
    assert ch(VirtualBundle.bundle("E"), s).graded_part(0) == s.const(3)


# ----------------------------------------------------------------- td_star

def test_td_star_degree_one_sign():
    s = make_setup(E=2)
    E = VirtualBundle.bundle("E")
    assert td_star(E, s).graded_part(1) == -chern_class(s, "E", 1) * Fraction(1, 2)


def test_td_star_of_trivial():
    s = make_setup(E=1)
    assert td_star(O, s) == s.const(1)


def test_td_star_equals_td_of_dual():
    s = make_setup(E=3)
    E = VirtualBundle.bundle("E")
    assert td_star(E, s) == td(E.dual(), s)
    assert td_star(E, s) == td(E, s).alternate_signs()


# ------------------------------------------------------------- lambda_{-1}

def test_ch_lambda_minus_one_rank_one():
    s = make_setup(truncation=4, L=1)
    got = ch_lambda_minus_one(s, "L")
    x = chern_class(s, "L", 1)
    # 1 - e^x = -x - x^2/2 - x^3/6 - x^4/24
    expected = (-x - x ** 2 * Fraction(1, 2) - x ** 3 * Fraction(1, 6)
                - x ** 4 * Fraction(1, 24))
    assert got == expected


def test_ch_lambda_minus_one_agrees_with_virtual_sum():
    for r in (1, 2, 3):
        s = make_setup(truncation=6, E=r)
        assert ch_lambda_minus_one(s, "E") == ch(lambda_minus_one(s, "E"), s)


def test_ch_lambda_minus_one_lowest_term_is_top_chern():
    s = make_setup(truncation=6, E=2)
    got = ch_lambda_minus_one(s, "E")
    assert got.graded_part(0).is_zero()
    assert got.graded_part(1).is_zero()
    assert got.graded_part(2) == chern_class(s, "E", 2)


# -------------------------------------------------------------- Borel-Serre

def test_borel_serre_small_ranks():
    for r in (1, 2):
        s = make_setup(truncation=6, E=r)
        ok, residual = borel_serre_check(s, "E")
        assert ok, str(residual)


def test_borel_serre_zero_bundle():
    # lambda_{-1}(0) = Lambda^0(0) = O; both sides are the constant 1.
    s = make_setup(truncation=6, E=1)
    zero = VirtualBundle.zero()
    assert ch(zero.lam(0), s) == s.const(1)
    assert td(zero.dual(), s) == s.const(1)


def test_borel_serre_rank_one_termwise():
    s = make_setup(truncation=4, L=1)
    ok, residual = borel_serre_check(s, "L")
    assert ok, str(residual)


def test_borel_serre_truncation_too_low():
    s = Setup([("E", 3)], 0, 2)
    with pytest.raises(TruncationTooLow):
        borel_serre_check(s, "E")


def test_restriction_normal_bundle_small_ranks():
    for r in (1, 2):
        s = make_setup(truncation=6, E=r)
        assert restriction_normal_bundle_check(s, "E")


# ---------------------------------------------------------- multiplicativity

def test_ch_tensor_trivial():
    s = make_setup(E=2)
    assert ch_tensor_check(s, O, O)


def test_ch_tensor_lines():
    s = make_setup(truncation=6, L=1, M=1)
    assert ch_tensor_check(s, VirtualBundle.bundle("L"), VirtualBundle.bundle("M"))


def test_ch_tensor_rank_two_by_line():
    s = make_setup(truncation=4, E=2, L=1)
    assert ch_tensor_check(s, VirtualBundle.bundle("E"), VirtualBundle.bundle("L"))


# ------------------------------------------------------ structural properties

def random_virtual_tree(rng, names, depth, scales=(-1, 2)):
    if depth == 0 or rng.random() < 0.3:
        return VirtualBundle.bundle(rng.choice(names))
    op = rng.choice(["sum", "tensor", "dual", "scale"])
    if op == "sum":
        return (random_virtual_tree(rng, names, depth - 1, scales)
                + random_virtual_tree(rng, names, depth - 1, scales))
    if op == "tensor":
        return (random_virtual_tree(rng, names, depth - 1, scales)
                * random_virtual_tree(rng, names, depth - 1, scales))
    if op == "dual":
        return random_virtual_tree(rng, names, depth - 1, scales).dual()
    return rng.choice(scales) * random_virtual_tree(rng, names, depth - 1,
                                                     scales)


def test_additive_classes_are_additive():
    rng = random.Random(3)
    s = make_setup(truncation=4, A=1, B=2)
    spec = CharClassSpec("additive", exp_series(4))
    for _ in range(15):
        v = random_virtual_tree(rng, ["A", "B"], 2)
        w = random_virtual_tree(rng, ["A", "B"], 2)
        assert evaluate_class_in_ring(spec, v + w, s) == (
            evaluate_class_in_ring(spec, v, s)
            + evaluate_class_in_ring(spec, w, s))


def test_multiplicative_classes_multiply_and_invert():
    rng = random.Random(4)
    s = make_setup(truncation=4, A=1, B=2)
    spec = CharClassSpec(
        "multiplicative", PowerSeries([1, Fraction(1, 2), Fraction(1, 3),
                                       Fraction(-1, 5), 1]))
    for _ in range(15):
        v = random_virtual_tree(rng, ["A", "B"], 2)
        w = random_virtual_tree(rng, ["A", "B"], 2)
        assert evaluate_class_in_ring(spec, v + w, s) == (
            evaluate_class_in_ring(spec, v, s)
            * evaluate_class_in_ring(spec, w, s))
        assert evaluate_class_in_ring(spec, -v, s).poly == series_invert(
            evaluate_class_in_ring(spec, v, s).poly)


@pytest.mark.parametrize("series", [
    todd_series(5),
    PowerSeries([1, Fraction(1, 2), Fraction(1, 3), Fraction(-1, 5), 1]),
    PowerSeries([1, 1]),  # shorter than the truncation: c(V)
], ids=["td", "quartic", "total-chern"])
def test_negative_multiplicities_invert_per_root(series):
    # A summand of multiplicity -m evaluates to the m-th power of the
    # multivariate inverse (series_invert) of its positive evaluation.
    s = make_setup(truncation=5, E=2, F=2, L=1)
    spec = CharClassSpec("multiplicative", series)
    E, F, L = (VirtualBundle.bundle(n) for n in "EFL")

    def inverted(v):
        return series_invert(evaluate_class_in_ring(spec, v, s).poly)

    assert evaluate_class_in_ring(spec, -E, s).poly == inverted(E)
    assert evaluate_class_in_ring(spec, -2 * E, s).poly == inverted(E) ** 2
    assert evaluate_class_in_ring(spec, (F - L.dual()) * E, s).poly == (
        evaluate_class_in_ring(spec, F * E, s).poly
        * inverted(L.dual() * E))


def test_lambda_filtration_shadow():
    # ch(Lambda^k (A + B)) = sum_i ch(Lambda^i A) ch(Lambda^{k-i} B).
    s = make_setup(truncation=5, A=2, B=2)
    A, B = VirtualBundle.bundle("A"), VirtualBundle.bundle("B")
    for k in range(5):
        lhs = ch((A + B).lam(k), s)
        rhs = s.zero()
        for i in range(k + 1):
            rhs = rhs + ch(A.lam(i), s) * ch(B.lam(k - i), s)
        assert lhs == rhs


def test_duality_flips_signs_degreewise():
    s = make_setup(truncation=5, E=3)
    E = VirtualBundle.bundle("E")
    chE = ch(E, s)
    chdual = ch(E.dual(), s)
    for k in range(6):
        assert chdual.graded_part(k) == chE.graded_part(k) * ((-1) ** k)


def test_lambda_of_virtual_difference_rejected():
    s = make_setup(truncation=4, A=1, B=1)
    v = VirtualBundle.bundle("A") - VirtualBundle.bundle("B")
    with pytest.raises(MalformedVirtualBundle):
        ch(v.lam(2), s)


def test_lambda_rank_limit():
    s = make_setup(truncation=4, E=5)
    E = VirtualBundle.bundle("E")
    with pytest.raises(MalformedVirtualBundle):
        ch((E + E).lam(2), s)


def test_lambda_rank_limit_is_checked_before_the_roots_are_listed():
    # At multiplicity 10**6 a listed root multiset alone would take 16 MB.
    s = make_setup(truncation=4, E=2)
    huge = (10**6 * VirtualBundle.bundle("E")).lam(2)
    tracemalloc.start()
    try:
        with pytest.raises(MalformedVirtualBundle, match="limited to rank"):
            ch(huge, s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_tensor_root_limit_is_checked_at_each_product(monkeypatch):
    # Probed at a cap of 6: a rank-2 by rank-3 product lists 6 roots, and
    # one more factor would list 12.
    monkeypatch.setattr(charclass, "TENSOR_ROOT_LIMIT", 6)
    s = make_setup(truncation=3, E=2, F=3)
    E, F = VirtualBundle.bundle("E"), VirtualBundle.bundle("F")
    assert ch(E * F, s) == ch(E, s) * ch(F, s)
    assert ch(E * E.dual(), s).graded_part(0) == 4
    for too_many in (E * F * E, E * (F + F), (E + F) * (E + F)):
        with pytest.raises(MalformedVirtualBundle, match="exceeds the limit"):
            ch(too_many, s)


def test_tensor_root_limit_is_above_what_rank_two_powers_of_eight_need():
    s = make_setup(truncation=2, E=2)
    E = VirtualBundle.bundle("E")
    power = E
    for _ in range(7):
        power = power * E
    assert ch(power, s).graded_part(0) == 2 ** 8
    with pytest.raises(MalformedVirtualBundle, match="exceeds the limit"):
        ch(power * E, s)


def test_det_of_virtual_sum():
    s = make_setup(truncation=4, E=2, L=1)
    E, L = VirtualBundle.bundle("E"), VirtualBundle.bundle("L")
    v = (E - L).det()
    expected = chern_class(s, "E", 1) - chern_class(s, "L", 1)
    assert ch(v, s).graded_part(1) == expected


def test_rank_function():
    s = make_setup(truncation=4, E=3, L=1)
    E, L = VirtualBundle.bundle("E"), VirtualBundle.bundle("L")
    assert (E * E).rank(s.rank) == 9
    assert (E - L).rank(s.rank) == 2
    assert E.lam(2).rank(s.rank) == 3
    assert E.det().rank(s.rank) == 1
    assert O.rank(s.rank) == 1


# ------------------------------------------------- evaluate_class_in_ring

def stepwise_evaluation(spec, virtual, ring):
    """The evaluation as a loop of ring operations: one ``Poly`` sum per
    root for an additive class, and for a multiplicative one a product
    started from 1, a root of negative multiplicity taking the
    multivariate inverse (``series_invert``) of its value."""
    summands = virtual.summands(ring)
    if spec.kind == "additive":
        coeffs = spec.series.coeffs
        positive = PowerSeries([0] + coeffs[1:])
        rank = sum(m * len(roots) for m, roots in summands)
        total = ring.const(coeffs[0] * rank).poly
        for m, roots in summands:
            for root in roots:
                total = total + positive.apply_to(root) * m
    else:
        total = ring.const(1).poly
        for m, roots in summands:
            for root in roots:
                value = spec.series.apply_to(root)
                if m < 0:
                    value = series_invert(value)
                total = total * value ** abs(m)
    return ring.from_poly(total)


CLASS_SERIES = [
    ("additive", exp_series(5)),
    ("additive", PowerSeries([3, Fraction(-1, 2), 0, Fraction(5, 7)])),
    ("multiplicative", todd_series(5)),
    ("multiplicative", PowerSeries([1, Fraction(1, 2), Fraction(1, 3),
                                    Fraction(-1, 5), 1])),
]


@pytest.mark.parametrize("kind, series", CLASS_SERIES,
                         ids=["ch", "additive", "td", "multiplicative"])
def test_evaluation_matches_the_stepwise_loop(kind, series):
    # Random trees of sums, tensor products (several-term roots), duals
    # and multiplicities -1 and 2, so terms cancel across summands; then
    # trees with multiplicities -3, 3 and -100000 as well, each raising
    # the series once (``_power``) where the loop raises each root's value.
    rng = random.Random(21)
    s = make_setup(truncation=5, A=1, B=2, C=2)
    spec = CharClassSpec(kind, series)
    for scales in ((-1, 2), (-1, 2, -3, 3, -100000)):
        for _ in range(20):
            v = random_virtual_tree(rng, ["A", "B", "C"], 3, scales)
            assert evaluate_class_in_ring(spec, v, s) == stepwise_evaluation(
                spec, v, s)


def tower_line(t, coeffs):
    return VirtualBundle.line_class(t.linear_form(coeffs))


@pytest.mark.parametrize("kind, series", CLASS_SERIES,
                         ids=["ch", "additive", "td", "multiplicative"])
def test_evaluation_on_a_tower_matches_the_stepwise_loop(kind, series):
    t = Tower([[[], []], [[0], [2]], [[1, -1], [0, 1]]])
    spec = CharClassSpec(kind, series)
    L, M = tower_line(t, [1, 2, -1]), tower_line(t, [0, -3, 1])
    O = VirtualBundle.trivial()
    for v in (L, L * M - 2 * M, (L + O) * (M.dual() + L) - L * M,
              -(L * M * L), 2 * (L - O) - (M - L).dual()):
        assert evaluate_class_in_ring(spec, v, t) == stepwise_evaluation(
            spec, v, t)


def test_cancelling_multiplicities():
    s = make_setup(truncation=5, E=2, F=1)
    E, F = VirtualBundle.bundle("E"), VirtualBundle.bundle("F")
    assert ch(E - E, s).is_zero() and ch(E * F - F * E, s).is_zero()
    assert ch(2 * E - E, s) == ch(E, s)
    assert ch(E * (F - F) + O - O, s).is_zero()
    assert td(O, s) == 1 and td(E - E, s) == 1
    assert td(-E, s) * td(E, s) == 1
    assert td(-(E * F), s) * td(E * F, s) == 1
    assert td(-2 * E, s) * td(E, s) ** 2 == 1


def test_cancelling_multiplicities_on_a_tower():
    t = Tower.product_of_projective_spaces([1, 2])
    ch_t = chern_character_spec(t.bound)
    td_t = CharClassSpec("multiplicative", todd_series(t.bound))
    L = tower_line(t, [1, 2])
    assert evaluate_class_in_ring(ch_t, L - L, t).is_zero()
    assert evaluate_class_in_ring(ch_t, 3 * L - 2 * L, t) == (
        evaluate_class_in_ring(ch_t, L, t))
    assert evaluate_class_in_ring(td_t, O, t) == 1
    assert evaluate_class_in_ring(td_t, -L, t) * (
        evaluate_class_in_ring(td_t, L, t)) == 1


@pytest.mark.parametrize("kind, series", CLASS_SERIES,
                         ids=["ch", "additive", "td", "multiplicative"])
def test_a_line_class_outside_the_ring_is_refused(kind, series):
    # A root over a variable the ring lacks, alone or beside one it has,
    # and a root truncated below the ring's bound.
    spec = CharClassSpec(kind, series)
    s = make_setup(truncation=5, E=2)
    t = Tower.product_of_projective_spaces([1, 2])
    E = VirtualBundle.bundle("E")
    y = Poly.var("y", {"y": 1}, 5)
    for ring, inside, x in ((s, E, "E.1"), (t, O, xi_name(1))):
        bound = ring.zero().poly.bound
        own, short = (Poly.var(x, ring.grades, b) for b in (bound, bound - 1))
        for root in (y, own + y, short, short * Fraction(1, 2) + 1):
            foreign = VirtualBundle.line_class(root)
            for v in (foreign, inside + foreign, -foreign, foreign * inside,
                      3 * foreign + inside):
                with pytest.raises(TypeError):
                    evaluate_class_in_ring(spec, v, ring)


# ------------------------------------------- the folded additive branch

def test_specs_are_built_once_per_order():
    assert chern_character_spec(6) is chern_character_spec(6)
    assert todd_spec(6) is todd_spec(6)
    assert todd_star_spec(6) is todd_star_spec(6)
    assert chern_character_spec(6) is not chern_character_spec(5)
    with pytest.raises(ConstantTermNotOne):
        CharClassSpec("multiplicative", PowerSeries([2, 1, Fraction(1, 2)]))


# Multiples as the command line can write them, and some that make the
# accumulator's numerators long.
SCALES = (-1, 2, -3, -100000, 2 ** 20)
FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=6)
ADDITIVE_SERIES = [exp_series(5), PowerSeries([3, Fraction(-1, 2), 0,
                                               Fraction(5, 7)])]


@st.composite
def line_roots(draw, ring, generators):
    """A polynomial of degree at most 1 in the ring: a combination of
    ``generators`` with Fraction coefficients and a constant term, each
    possibly zero, so roots with den > 1 and constant roots both occur."""
    root = Poly.const(draw(FRACTIONS), ring.grades, ring.zero().poly.bound)
    for g in generators:
        root = root + g * draw(FRACTIONS)
    return root


@st.composite
def virtual_trees(draw, leaves, depth=3):
    """Sums, tensors, duals, multiples, exterior powers and determinants
    over the leaf strategy; an exterior power takes a sum of at most two
    leaves, so its roots stay few."""
    if depth == 0 or draw(st.integers(0, 9)) < 3:
        return draw(leaves)
    op = draw(st.sampled_from(["sum", "tensor", "dual", "scale", "lam",
                               "det"]))
    child = draw(virtual_trees(leaves, depth - 1))
    if op == "sum":
        return child + draw(virtual_trees(leaves, depth - 1))
    if op == "tensor":
        return child * draw(virtual_trees(leaves, depth - 1))
    if op == "dual":
        return child.dual()
    if op == "scale":
        return draw(st.sampled_from(SCALES)) * child
    if op == "det":
        return child.det()
    base = draw(leaves)
    if draw(st.booleans()):
        base = base + draw(leaves)
    return base.lam(draw(st.integers(0, 3)))


def assert_fold_matches_the_reference(spec, virtual, ring):
    """The folded additive branch against ``stepwise_evaluation``, whose
    additive loop sums the rank term and m * positive.apply_to(root) with
    ``Poly.__add__``; a tree past the tensor limit is refused by both."""
    try:
        want = stepwise_evaluation(spec, virtual, ring)
    except MalformedVirtualBundle:
        with pytest.raises(MalformedVirtualBundle):
            evaluate_class_in_ring(spec, virtual, ring)
        return
    assert evaluate_class_in_ring(spec, virtual, ring) == want


FOLD_SETUP = make_setup(truncation=5, A=1, B=2, C=2)


def setup_leaves():
    s = FOLD_SETUP
    generators = [r for name in ("A", "B", "C") for r in s.roots(name)]
    return st.one_of(
        st.sampled_from([VirtualBundle.bundle(n) for n in ("A", "B", "C")]
                        + [O]),
        line_roots(s, generators).map(VirtualBundle.line_class))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(ADDITIVE_SERIES), virtual_trees(setup_leaves()))
def test_folded_additive_branch_matches_the_stepwise_sum(series, virtual):
    assert_fold_matches_the_reference(
        CharClassSpec("additive", series), virtual, FOLD_SETUP)


FOLD_TOWER = Tower([[[], []], [[0], [2]], [[1, -1], [0, 1]]])


def tower_leaves():
    t = FOLD_TOWER
    generators = [Poly.var(xi_name(j), t.grades, t.bound) for j in (1, 2, 3)]
    return st.one_of(
        st.sampled_from([O, relative_tangent(t, 0), relative_tangent(t, 1),
                         tower_line(t, [1, 2, -1]), tower_line(t, [0, -3, 1])]),
        line_roots(t, generators).map(VirtualBundle.line_class))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ADDITIVE_SERIES), virtual_trees(tower_leaves()))
def test_folded_additive_branch_matches_the_stepwise_sum_on_a_tower(
        series, virtual):
    assert_fold_matches_the_reference(
        CharClassSpec("additive", series), virtual, FOLD_TOWER)


def test_apply_to_values_with_fraction_roots():
    # As ``apply_to`` printed them while it had a walk of its own.
    g = {"x": 1, "y": 1, "z": 2}
    x, y, z = (Poly.var(v, g, 4) for v in "xyz")
    psi = PowerSeries([3, Fraction(-1, 2), 0, Fraction(5, 7)])
    half = Poly.const(Fraction(1, 2), g, 4)
    assert str(exp_series(4).apply_to(x * Fraction(1, 2))) == (
        "1 + 1/2*x + 1/8*x^2 + 1/48*x^3 + 1/384*x^4")
    assert str(todd_series(4).apply_to(-x * Fraction(2, 3))) == (
        "1 - 1/3*x + 1/27*x^2 - 1/3645*x^4")
    assert str(psi.apply_to(z * Fraction(3, 4))) == "3 - 3/8*z"
    assert str(exp_series(4).apply_to(x * Fraction(1, 2) + y * Fraction(1, 3))) == (
        "1 + 1/2*x + 1/3*y + 1/6*x*y + 1/8*x^2 + 1/18*y^2 + 1/36*x*y^2 "
        "+ 1/24*x^2*y + 1/48*x^3 + 1/162*y^3 + 1/324*x*y^3 + 1/144*x^2*y^2 "
        "+ 1/144*x^3*y + 1/384*x^4 + 1/1944*y^4")
    assert str(todd_series(4).apply_to(
        x * Fraction(1, 2) - y * Fraction(1, 3) + z * Fraction(1, 4))) == (
        "1 + 1/4*x - 1/6*y - 1/36*x*y + 1/48*x^2 + 1/108*y^2 + 1/8*z "
        "+ 1/48*x*z - 1/72*y*z + 1/9720*x*y^3 - 1/4320*x^2*y^2 "
        "+ 1/4320*x^3*y - 1/11520*x^4 - 1/58320*y^4 + 1/192*z^2")
    assert str(psi.apply_to(x * Fraction(2, 3) + half)) == (
        "159/56 + 1/42*x + 10/21*x^2 + 40/189*x^3")


def test_zero_roots_and_empty_summands_give_the_rank_term():
    s = make_setup(truncation=5, E=2)
    t = Tower.product_of_projective_spaces([1, 2])
    spec = CharClassSpec("additive", ADDITIVE_SERIES[1])  # phi_0 = 3
    E = VirtualBundle.bundle("E")
    for ring in (s, t):
        for v, rank in ((O, 1), (2 * O - 5 * O, -3), (VirtualBundle.zero(), 0),
                        (0 * O, 0), (O.lam(0), 1), (O.lam(2), 0),
                        (O.det(), 1)):
            assert evaluate_class_in_ring(spec, v, ring) == ring.const(3 * rank)
    assert evaluate_class_in_ring(spec, E.lam(3), s) == 0
    assert evaluate_class_in_ring(spec, 0 * E + E.lam(0), s) == 3


def test_setup_roots_are_kept_and_unchanged_by_evaluation():
    s = make_setup(truncation=6, E=3, F=2)
    E, F = VirtualBundle.bundle("E"), VirtualBundle.bundle("F")
    kept = s.roots("E")
    assert s.roots("E") is kept and s.roots("F") is s.roots("F")
    ch(E * F - 2 * F.dual() + E.lam(2), s)
    td(E * F - 2 * F.dual(), s)
    td_star(E, s)
    fresh = tuple(Poly.var(v, s.grades, s.truncation)
                  for v in s.root_vars("E"))
    assert s.roots("E") is kept
    assert [(r.nums, r.den, r.bound) for r in kept] == [
        (r.nums, r.den, r.bound) for r in fresh]


# ------------------------------------------------ folded, kept blocks

def test_equal_specs_hash_alike_and_key_a_dict():
    spec = todd_spec(8)
    again = CharClassSpec("multiplicative", todd_series(8))
    assert spec is not again and spec == again
    assert hash(spec) == hash(again)
    assert hash(todd_series(8)) == hash(PowerSeries(todd_series(8).coeffs))
    assert {spec: 1}[again] == 1
    assert len({spec, again, todd_star_spec(8), chern_character_spec(8)}) == 3


def reference_evaluation(spec, virtual, ring):
    """``stepwise_evaluation`` in the setup's roots, rewritten once in a
    ``ChernBasis``."""
    if isinstance(ring, Setup):
        return stepwise_evaluation(spec, virtual, ring)
    return ring.from_roots(stepwise_evaluation(spec, virtual, ring.setup))


def assert_kept_classes_answer_as_fresh_ones(specs, virtual, declared):
    """Each class twice on one setup, in its roots and its Chern basis,
    and once on a new setup of the same declaration, against the
    reference; a tree past the tensor limit is refused by all."""
    setup = Setup(*declared)
    for spec in specs:
        for ring_of in (lambda s: s, lambda s: s.basis):
            ring = ring_of(setup)
            try:
                want = reference_evaluation(spec, virtual, ring)
            except MalformedVirtualBundle:
                with pytest.raises(MalformedVirtualBundle):
                    evaluate_class_in_ring(spec, virtual, ring)
                continue
            first = evaluate_class_in_ring(spec, virtual, ring)
            second = evaluate_class_in_ring(spec, virtual, ring)
            fresh = evaluate_class_in_ring(spec, virtual,
                                           ring_of(Setup(*declared)))
            assert first == want and second == want
            assert fresh.poly == want.poly


@st.composite
def class_specs(draw, order):
    """ch, td, td* or a random additive or multiplicative class, the
    random series with denominators above 1."""
    kind = draw(st.sampled_from(["ch", "td", "tdstar", "phi", "psi"]))
    if kind in ("ch", "td", "tdstar"):
        return {"ch": chern_character_spec, "td": todd_spec,
                "tdstar": todd_star_spec}[kind](order)
    den = draw(st.integers(2, 7))
    coeffs = [Fraction(draw(st.integers(-6, 6)), den)
              for _ in range(draw(st.integers(0, order)))]
    # A numerator 1 mod den keeps the series' denominator above 1.
    first = Fraction(draw(st.integers(-3, 3)) * den + 1, den)
    if kind == "phi":
        return CharClassSpec("additive", PowerSeries(
            [Fraction(draw(st.integers(-6, 6)), den), first, *coeffs]))
    return CharClassSpec("multiplicative", PowerSeries([1, first, *coeffs]))


# Multiples of the fold: zero, negative, and a power of two.
FOLD_SCALES = (0, -1, 2, -3, 2 ** 5)


@st.composite
def folded_trees(draw, names, depth=3):
    """Sums, duals, multiples and tensor products over declared bundles
    and the trivial line, one bundle often named more than once."""
    leaves = st.sampled_from([VirtualBundle.bundle(n) for n in names] + [O])
    if depth == 0 or draw(st.integers(0, 9)) < 3:
        return draw(leaves)
    op = draw(st.sampled_from(["sum", "sum", "dual", "scale", "tensor"]))
    child = draw(folded_trees(names, depth - 1))
    if op == "dual":
        return child.dual()
    if op == "scale":
        return draw(st.sampled_from(FOLD_SCALES)) * child
    other = draw(folded_trees(names, depth - 1))
    return child + other if op == "sum" else child * other


@st.composite
def declarations(draw):
    names = ["E", "F", "L"][:draw(st.integers(1, 3))]
    ranks = [draw(st.integers(1, 3)) for _ in names]
    return list(zip(names, ranks)), 0, draw(st.integers(1, 5))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_folded_kept_classes_match_the_stepwise_reference(data):
    declared = data.draw(declarations())
    names = [name for name, _ in declared[0]]
    specs = data.draw(st.lists(class_specs(declared[2]), min_size=1,
                               max_size=3))
    virtual = data.draw(folded_trees(names))
    assert_kept_classes_answer_as_fresh_ones(specs, virtual, declared)


E_, F_ = VirtualBundle.bundle("E"), VirtualBundle.bundle("F")


@pytest.mark.parametrize("virtual", [
    O, E_ - E_, 0 * E_, 0 * E_ + O, -3 * E_, 2 ** 5 * E_, (-3 * E_).dual(),
    (2 * F_).dual() - E_, E_ + F_ + E_, E_ + E_.dual() - 2 * E_,
    E_ * F_ - 2 * E_, (E_ + O) * F_.dual(),
], ids=["O", "E-E", "0E", "0E+O", "-3E", "32E", "dual(-3E)", "dual(2F)-E",
        "E+F+E", "E+dual(E)-2E", "tensor-minus-2E", "tensor-dual"])
def test_folded_classes_on_named_inputs(virtual):
    specs = [chern_character_spec(5), todd_spec(5), todd_star_spec(5),
             CharClassSpec("additive", PowerSeries(
                 [Fraction(1, 2), Fraction(-1, 3), 0, Fraction(5, 7)])),
             CharClassSpec("multiplicative", PowerSeries(
                 [1, Fraction(1, 2), Fraction(1, 3), Fraction(-1, 5)]))]
    assert_kept_classes_answer_as_fresh_ones(
        specs, virtual, ([("E", 2), ("F", 3)], 0, 5))


def block_keys(setup):
    return {key for key in setup._tables if key[0] in ("roots", "basis")}


def test_tensor_trees_take_the_root_route_and_keep_no_block():
    s = make_setup(truncation=5, E=2, F=1)
    for ring in (s, s.basis):
        evaluate_class_in_ring(chern_character_spec(5), E_ * F_ - E_, ring)
        evaluate_class_in_ring(todd_spec(5), E_.lam(2) + E_.det(), ring)
    assert block_keys(s) == set()


def test_td_and_td_star_of_the_dual_read_one_block():
    s = make_setup(truncation=6, E=3, F=2)
    entries = s.table_entries()
    first = td(E_, s)
    [key] = block_keys(s)
    assert key[:3] == ("roots", "E", "multiplicative")
    assert s.table_entries() == entries + len(s._tables[key].nums)
    assert td_star(E_.dual(), s) == first
    assert block_keys(s) == {key}
    assert s.table_entries() == entries + len(s._tables[key].nums)
    # The same in the Chern basis, whose block is kept beside the first.
    basis = evaluate_class_in_ring(todd_spec(6), E_, s.basis)
    assert evaluate_class_in_ring(todd_star_spec(6), E_.dual(),
                                  s.basis) == basis
    assert len(block_keys(s)) == 2
    assert block_keys(Setup([("E", 3), ("F", 2)], 0, 6)) == set()
    assert Setup([("E", 3), ("F", 2)], 0, 6).table_entries() == 0
