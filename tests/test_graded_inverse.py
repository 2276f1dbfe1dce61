"""The one graded-inverse recurrence of ``symfun``, through its three users.

``series_invert``, ``segre_class`` and ``chern_from_segre`` are checked
against test-local copies of the routines they replaced: the geometric sum
1 + u + u^2 + ... for ``series_invert``, and the separate Segre and
Chern-from-Segre recurrences of ``chern_ring``, with their own sign
bookkeeping.
"""

import sys
import threading
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chowline import chern_ring, symfun
from chowline.chern_ring import (
    ROOT_MONOMIAL_LIMIT,
    Setup,
    chern_class,
    chern_from_segre,
    segre_class,
)
from chowline.errors import UnitPartNotOne, UnknownBundle
from chowline.poly import Poly
from chowline.symfun import series_invert

GRADES = {"a": 1, "b": 1, "c": 2, "d": 3}


# -- references ----------------------------------------------------------------

def geometric_invert(s, bound=None):
    """The inverse as the geometric sum 1 + u + u^2 + ..., s = 1 - u."""
    if bound is None:
        bound = s.bound
    s = s.truncate(bound)
    if s.graded_part(0) != 1:
        raise UnitPartNotOne("graded element must have degree-0 part equal to 1")
    u = Poly.const(1, s.grades, bound) - s
    out = Poly.const(1, s.grades, bound)
    power = Poly.const(1, s.grades, bound)
    while True:
        power = power * u
        if power.is_zero():
            break
        out = out + power
    return out


def reference_segre_classes(setup, name, k, fulton):
    """s_0..s_k from s_m = -sum_{j>=1} c_j s_{m-j}, signed by (-1)^m
    unless ``fulton``."""
    c = [chern_class(setup, name, j)
         for j in range(1, min(k, setup.rank(name)) + 1)]
    s = [setup.const(1)]
    for m in range(1, k + 1):
        acc = setup.zero()
        for j in range(1, min(m, len(c)) + 1):
            acc = acc - c[j - 1] * s[m - j]
        s.append(acc)
    if fulton:
        return s
    return [s_m if m % 2 == 0 else -s_m for m, s_m in enumerate(s)]


def reference_chern_from_segre(setup, name, k, fulton):
    """c_0..c_k from c_m = sum_{i=1}^m (-1)^{i+1} s_i c_{m-i} (default
    convention) or c_m = -sum_i s_i c_{m-i} (Fulton's)."""
    s = reference_segre_classes(setup, name, k, fulton)
    c = [setup.const(1)]
    for m in range(1, k + 1):
        total = setup.zero()
        for i in range(1, m + 1):
            term = s[i] * c[m - i]
            if fulton or i % 2 == 0:
                total = total - term
            else:
                total = total + term
        c.append(total)
    return c


# -- series_invert -------------------------------------------------------------

COEFFS = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def graded_elements(draw, constant):
    """A constant term plus up to five terms of positive degree in
    variables of grades 1-3, at bound 0-7, and a bound to truncate it to
    before inverting: none, or one below, at or above the element's own."""
    bound = draw(st.integers(0, 7))
    exponents = st.tuples(*[st.integers(0, 3)] * len(GRADES))
    raw = draw(st.dictionaries(exponents, COEFFS, max_size=5))
    terms = {tuple((v, e) for v, e in zip(GRADES, exps) if e): c
             for exps, c in raw.items() if any(exps)}
    terms[()] = constant
    argument = draw(st.sampled_from(
        [None, bound, bound + 1, bound + 3] + ([bound - 1, 0] if bound else [])))
    return Poly.make(terms, GRADES, bound), argument


@settings(max_examples=120, deadline=None)
@given(graded_elements(1))
@example((Poly.make({(): 1, (("a", 1),): 1, (("b", 1),): -1}, GRADES, 7), None))
@example((Poly.make({(): 1, (("c", 1),): 3}, GRADES, 5), 6))
def test_series_invert_matches_the_geometric_series(case):
    s, bound = case
    inverse = series_invert(s if bound is None else s.truncate(bound))
    expected = geometric_invert(s, bound)
    assert inverse == expected
    top = s.bound if bound is None else bound
    assert inverse.bound == top == expected.bound
    assert inverse * s.truncate(top) == 1


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([0, 2]).flatmap(graded_elements))
def test_series_invert_refuses_a_constant_term_other_than_one(case):
    s, bound = case
    with pytest.raises(UnitPartNotOne):
        series_invert(s if bound is None else s.truncate(bound))
    with pytest.raises(UnitPartNotOne):
        geometric_invert(s, bound)


# -- Segre classes and Chern classes from them --------------------------------

@st.composite
def bundles_in_setups(draw):
    """One to three bundles of ranks 1-4 at truncation 1-10, within the
    setup size limit, and the name of one of them."""
    ranks = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    truncation = draw(st.integers(1, 10).filter(
        lambda t: comb(sum(ranks) + t, t) <= ROOT_MONOMIAL_LIMIT))
    setup = Setup([(f"E{i}", r) for i, r in enumerate(ranks)],
                  truncation=truncation)
    return setup, draw(st.sampled_from(sorted(setup.bundles)))


@settings(max_examples=30, deadline=None)
@given(bundles_in_setups())
@example((Setup([("E0", 4)], truncation=10), "E0"))
@example((Setup([("E0", 1), ("E1", 3)], truncation=1), "E1"))
def test_segre_and_chern_from_segre_match_the_old_recurrences(case):
    setup, name = case
    top = setup.truncation + 2
    for fulton in (False, True):
        segre = reference_segre_classes(setup, name, top, fulton)
        chern = reference_chern_from_segre(setup, name, top, fulton)
        for k in range(top + 1):
            s_k = segre_class(setup, name, k, fulton=fulton)
            c_k = chern_from_segre(setup, name, k)
            assert s_k == segre[k], (fulton, k)
            assert c_k == chern[k] == chern_class(setup, name, k), (fulton, k)
            for value in (s_k, c_k):
                assert value.ring is setup
                assert value.poly.bound == setup.truncation
            if k > setup.truncation:
                assert s_k.is_zero() and c_k.is_zero()


def test_all_three_go_through_one_recurrence(monkeypatch):
    """Each recurrence call extends a table past what it holds: a repeated
    query, or one of lower degree, is a table read."""
    calls, heads = [], []
    real = symfun._inverse_components

    def counting(parts, head, top):
        calls.append(top)
        heads.append(len(head))
        before = list(head)
        out = real(parts, head, top)
        assert head == before, "a table was edited in place"
        return out

    monkeypatch.setattr(symfun, "_inverse_components", counting)
    monkeypatch.setattr(chern_ring, "_inverse_components", counting)
    setup = Setup([("E", 3)], truncation=5)
    series_invert(chern_class(setup, "E", 1).poly + 1)
    assert calls == [5]
    segre_class(setup, "E", 4)
    assert calls == [5, 4]
    chern_from_segre(setup, "E", 3)
    assert calls == [5, 4, 3]
    for fulton in (False, True):
        for k in range(5):
            segre_class(setup, "E", k, fulton=fulton)
    for k in range(4):
        chern_from_segre(setup, "E", k)
    assert calls == [5, 4, 3]
    segre_class(setup, "E", 5)
    assert calls == [5, 4, 3, 5]
    # Components 0..4 were handed over, so only component 5 was formed.
    assert heads == [1, 1, 1, 5]


def test_chern_table_stops_at_the_truncation(monkeypatch):
    """A bundle of high rank at a low truncation builds only the classes
    c_0..c_truncation, not the 2^rank subsets of e_0..e_rank."""
    degrees = []
    real = symfun.elem_sym

    def counting(k, variables, grades, bound):
        degrees.append(k)
        # e_k of 40 roots above degree 2 would enumerate comb(40, k) subsets
        assert k <= bound, f"e_{k} built at truncation {bound}"
        return real(k, variables, grades, bound)

    monkeypatch.setattr(chern_ring, "elem_sym", counting)
    rank, top = 40, 2
    setup = Setup([("E", rank)], truncation=top)
    roots = setup.roots("E")
    assert chern_class(setup, "E", 1).poly == sum(roots[1:], roots[0])
    h2 = sum((x * y for i, x in enumerate(roots) for y in roots[i:]),
             Poly.zero(setup.grades, top))
    assert segre_class(setup, "E", 2).poly == h2
    assert chern_from_segre(setup, "E", 2).poly == chern_class(setup, "E", 2).poly
    for k in (top + 1, rank, rank + 1):
        assert chern_class(setup, "E", k).is_zero()
    assert degrees == list(range(top + 1))


# -- the per-setup tables -------------------------------------------------------

QUERIES = {
    "chern_class": lambda setup, name, k, fulton: chern_class(setup, name, k),
    "segre_class": segre_class,
    "chern_from_segre":
        lambda setup, name, k, fulton: chern_from_segre(setup, name, k),
}


@st.composite
def query_sequences(draw):
    """A setup of one to three bundles of ranks 1-4 at truncation 1-10,
    within the setup size limit, and a sequence of class queries on it:
    a kind, a declared name or the undeclared ``F``, a degree in
    -1..truncation+2 and a Segre convention."""
    setup, _ = draw(bundles_in_setups())
    query = st.tuples(st.sampled_from(sorted(QUERIES)),
                      st.sampled_from(sorted(setup.bundles) + ["F"]),
                      st.integers(-1, setup.truncation + 2),
                      st.booleans())
    return setup, draw(st.lists(query, min_size=1, max_size=25))


def answer(setup, query):
    """The polynomial a query returns, or the type of what it raises."""
    kind, name, k, fulton = query
    try:
        value = QUERIES[kind](setup, name, k, fulton)
    except Exception as exc:  # noqa: BLE001 - the type is the answer
        return type(exc), None
    assert value.ring is setup
    return None, value


@settings(max_examples=60, deadline=None)
@given(query_sequences())
@example((Setup([("E0", 4)], truncation=8),
          [("segre_class", "E0", 4, False), ("chern_from_segre", "E0", 8, True),
           ("segre_class", "E0", 9, True), ("chern_class", "F", 10, False),
           ("segre_class", "E0", 2, True), ("chern_from_segre", "E0", 3, False)]))
def test_tables_answer_as_a_fresh_setup_does(case):
    setup, queries = case
    for query in queries:
        error, value = answer(setup, query)
        fresh_error, fresh = answer(
            Setup(list(setup.bundles.items()), setup.relative_dimension,
                  setup.truncation), query)
        _, name, k, _ = query
        assert error is fresh_error is (
            ValueError if k < 0 else
            UnknownBundle if name not in setup.bundles else None), query
        if error is not None:
            continue
        assert value.poly == fresh.poly, query
        assert value.poly.bound == setup.truncation
        # Arithmetic on an answer, and rebinding its representative, must
        # not reach the tables behind later answers.
        value.poly = (value * value + value - 1).poly


def test_threads_sharing_a_setup_read_the_values_of_a_fresh_one():
    """Threads extending one setup's tables at once, one degree at a time
    and with a short switch interval, each read what a fresh setup gives,
    and so does every read after they are done."""
    shape = [("E", 3), ("L", 1)]
    fresh = Setup(shape, truncation=8)
    sweep = [(kind, k) for k in range(10) for kind in sorted(QUERIES)]
    expected = {(kind, k): QUERIES[kind](fresh, "E", k, True).poly
                for kind, k in sweep}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            shared = Setup(shape, truncation=8)
            start = threading.Barrier(6)
            wrong = []

            def work():
                for kind, k in sweep:
                    value = QUERIES[kind](shared, "E", k, True).poly
                    if value != expected[kind, k]:
                        wrong.append((kind, k))

            def run():
                start.wait(timeout=60)
                work()

            threads = [threading.Thread(target=run) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            work()
            assert wrong == []
    finally:
        sys.setswitchinterval(interval)
