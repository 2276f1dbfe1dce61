"""The Chern-basis ring of a setup: classes of sums, duals and multiples of
declared bundles summed over partitions, against the root route."""

import hashlib
import json
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowline import chern_ring, symfun
from chowline.charclass import (
    CharClassSpec,
    VirtualBundle,
    ch,
    chern_character_spec,
    evaluate_class_in_ring,
    td,
    td_star,
    todd_spec,
    todd_star_spec,
)
from chowline.chern_ring import Setup, chern_class, segre_class
from chowline.cli import Evaluator, main, parse
from chowline.poly import PowerSeries

NAMES = ("A", "B", "C")
O = VirtualBundle.trivial()
# Keeps each root-route example within a fraction of a second: 3,003
# monomials is six roots at truncation 8 or eight at truncation 6.
ROOT_MONOMIALS = 3003


@st.composite
def setups(draw):
    ranks = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    top = max(t for t in range(1, 9)
              if comb(sum(ranks) + t, t) <= ROOT_MONOMIALS)
    return Setup(list(zip(NAMES, ranks)), 0, draw(st.integers(1, top)))


def virtual_bundles(names):
    leaves = st.sampled_from(names + ("O",)).map(
        lambda n: O if n == "O" else VirtualBundle.bundle(n))
    multiples = st.one_of(st.integers(-3, 3),
                          st.sampled_from([-1000003, 999999, 1 << 20]))
    return st.recursive(leaves, lambda kids: st.one_of(
        st.tuples(kids, kids).map(lambda p: p[0] + p[1]),
        kids.map(VirtualBundle.dual),
        st.tuples(multiples, kids).map(lambda p: p[0] * p[1])),
        max_leaves=5)


@st.composite
def specs(draw, truncation):
    kind = draw(st.sampled_from(["ch", "td", "tdstar", "phi", "psi"]))
    if kind == "ch":
        return chern_character_spec(truncation)
    if kind == "td":
        return todd_spec(truncation)
    if kind == "tdstar":
        return todd_star_spec(truncation)
    coeffs = draw(st.lists(st.fractions(min_value=-5, max_value=5,
                                        max_denominator=7),
                           min_size=1, max_size=truncation + 3))
    if kind == "psi":
        return CharClassSpec("multiplicative", PowerSeries([1] + coeffs))
    return CharClassSpec("additive", PowerSeries(coeffs))


@st.composite
def classes(draw):
    setup = draw(setups())
    virtual = draw(virtual_bundles(tuple(setup.bundles)))
    return draw(specs(setup.truncation)), virtual, setup


@settings(max_examples=120, deadline=None)
@given(classes())
def test_partition_sums_equal_the_root_route(case):
    spec, virtual, setup = case
    fast = evaluate_class_in_ring(spec, virtual, setup.basis)
    slow = evaluate_class_in_ring(spec, virtual, setup).chern_basis()
    assert fast.ring is setup.basis
    assert fast.poly.grades is slow.grades
    assert (fast.poly.den, fast.poly.nums) == (slow.den, slow.nums)


E, F = VirtualBundle.bundle("E"), VirtualBundle.bundle("F")

# Expressions mixing both routes, each with its value by the root route
# alone: every class evaluated in the roots, then rewritten.
MIXED = [
    ("ch(E*F)*td(E - 2*F)", lambda s: ch(E * F, s) * td(E - 2 * F, s)),
    ("td(dual(E))^3 - ch(det(E + F))",
     lambda s: td(E.dual(), s) ** 3 - ch((E + F).det(), s)),
    ("class(psi, [1, 1/2, 1/3], E + dual(F))*s(2,E) + c(1,F)",
     lambda s: evaluate_class_in_ring(
         CharClassSpec("multiplicative", PowerSeries(
             [1, Fraction(1, 2), Fraction(1, 3)] + [0] * 4)),
         E + F.dual(), s) * segre_class(s, "E", 2) + chern_class(s, "F", 1)),
    ("ch(lam(2, E))*tdstar(-3*F + O) + rk(E*F)",
     lambda s: ch(E.lam(2), s) * td_star(-3 * F + O, s) + 6),
    ("c(3,E)*c(2,F) - 1/2*c(0,E) + c(4,E)",
     lambda s: chern_class(s, "E", 3) * chern_class(s, "F", 2)
     - Fraction(1, 2)),
]


@pytest.mark.parametrize("text, roots", MIXED, ids=[t for t, _ in MIXED])
def test_mixed_expressions_equal_the_root_route(text, roots):
    setup = Setup([("E", 3), ("F", 2)], 0, 6)
    got = Evaluator(setup).class_value(parse(text))
    want = roots(setup).chern_basis()
    assert got.ring is setup.basis
    assert got.poly.grades is want.grades
    assert (got.poly.den, got.poly.nums) == (want.den, want.nums)
    assert str(got) == str(want)


@pytest.fixture()
def setup32(tmp_path):
    path = tmp_path / "setup.json"
    path.write_text(json.dumps({"bundles": [{"name": "E", "rank": 3},
                                            {"name": "F", "rank": 2}],
                                "truncation": 6}))
    return str(path)


@pytest.fixture()
def no_roots(monkeypatch):
    """The root route refused: a declared bundle's roots and the rewrite
    into the Chern basis, at every binding."""
    def refuse(*args, **kwargs):
        raise AssertionError("the root route was taken")
    monkeypatch.setattr(Setup, "roots", refuse)
    monkeypatch.setattr(symfun, "to_chern_basis", refuse)
    monkeypatch.setattr(chern_ring, "to_chern_basis", refuse)


def test_sums_duals_and_multiples_never_reach_the_roots(
        setup32, no_roots, capsys):
    assert main(["eval", "td(E - 2*F)", "--setup", setup32, "--json"]) == 0
    text = json.loads(capsys.readouterr().out)["result"]["text"]
    # The text the root route printed, pinned by its SHA-256.
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "53b8063325f70836c506ad1985b024602f4992f459bdf75f87634192e592901f")
    with pytest.raises(AssertionError, match="root route"):
        main(["eval", "ch(E*F)", "--setup", setup32, "--json"])


def test_a_multiple_is_powered_by_squaring(setup32, no_roots, capsys,
                                           monkeypatch):
    products = []
    multiply = PowerSeries.__mul__

    def counted(a, b):
        products.append(1)
        return multiply(a, b)

    monkeypatch.setattr(PowerSeries, "__mul__", counted)
    start = time.perf_counter()
    assert main(["eval", "td(1000000*E)", "--setup", setup32, "--json"]) == 0
    assert time.perf_counter() - start < 1
    assert len(products) <= 2 * (1000000).bit_length()
    by_degree = json.loads(capsys.readouterr().out)["result"]["by_degree"]
    # td(mE) = 1 + m c1/2 + ...: m times the rank-one coefficient.
    assert by_degree["1"] == {"c1(E)": "500000"}
