import inspect
import random
import tracemalloc
from fractions import Fraction

import pytest

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
)
from chowline.chern_ring import Setup, chern_class
from chowline.errors import MalformedVirtualBundle, TruncationTooLow
from chowline.poly import Poly, PowerSeries
from chowline.pushforward import Tower
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
    spec = CharClassSpec(kind, series)
    s = make_setup(truncation=5, E=2)
    t = Tower.product_of_projective_spaces([1, 2])
    E = VirtualBundle.bundle("E")
    for ring, inside in ((s, E), (t, O)):
        foreign = VirtualBundle.line_class(Poly.var("y", {"y": 1}, 5))
        for v in (foreign, inside + foreign, -foreign, foreign * inside):
            with pytest.raises(TypeError):
                evaluate_class_in_ring(spec, v, ring)
