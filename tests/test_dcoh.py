import ast
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chowline
from chowline import chern_ring, cli, dcoh, pushforward
from chowline.charclass import VirtualBundle, td
from chowline.chern_ring import Setup, chern_from_segre, segre_class
from chowline.dcoh import (
    _fiber_chi,
    FamilyDescriptor,
    MultidegreeLineBundle,
    c1_pairing_check,
    chi_projective_space,
    cohomology_dims,
    deligne_pairing_degree,
    det_Rf_degree,
    pairing_degree_by_pushforward,
    pairing_tower,
)
from chowline.errors import TowerTooLarge, UnsupportedFamily, WrongBundleCount
from chowline.pushforward import Tower
from chowline.symfun import elem_sym


def _kunneth_dims(fiber, degrees):
    """[h^0, ..., h^n] of O(d) on the fiber: the convolution of the
    per-factor ``cohomology_dims`` (the Kunneth formula)."""
    total = [1]
    for n, d in zip(fiber, degrees, strict=True):
        factor = cohomology_dims(n, d)
        merged = [0] * (len(total) + len(factor) - 1)
        for i, a in enumerate(total):
            for j, b in enumerate(factor):
                merged[i + j] += a * b
        total = merged
    return total


def fiber_cohomology_dims(fam, bundle):
    """Graded dimensions of H^*(fiber, O(d)) by the Kunneth formula."""
    return _kunneth_dims(fam.fiber, bundle.fiber_degrees)


def L(*args):
    *fiber, base = args
    return MultidegreeLineBundle(tuple(fiber), base)


# --------------------------------------------------------- cohomology_dims

def test_sections_on_p1():
    assert cohomology_dims(1, 3) == [4, 0]


def test_acyclic_twist_on_p1():
    assert cohomology_dims(1, -1) == [0, 0]


def test_serre_dual_on_p2():
    # h^2(O(-4)) = h^0(O(1)) = 3.
    assert cohomology_dims(2, -4) == [0, 0, 3]


def test_chi_consistency_with_binomial():
    for n in range(1, 9):
        for d in range(-12, 13):
            dims = cohomology_dims(n, d)
            chi = sum((-1) ** k * h for k, h in enumerate(dims))
            assert chi == chi_projective_space(n, d)
            assert type(chi_projective_space(n, d)) is int
    assert all(chi_projective_space(0, d) == 1 for d in range(-12, 13))


# ---------------------------------------------------------- det_Rf_degree

def test_det_degree_sections_family():
    fam = FamilyDescriptor((1,), 1)
    for a in range(0, 5):
        for b in range(-3, 4):
            degree, rank = det_Rf_degree(fam, L(a, b))
            assert rank == a + 1
            assert degree == (a + 1) * b


def test_det_degree_acyclic_fiber():
    fam = FamilyDescriptor((1,), 1)
    for b in range(-3, 4):
        degree, rank = det_Rf_degree(fam, L(-1, b))
        assert (rank, degree) == (0, 0)


def test_det_degree_kunneth_product_fiber():
    fam = FamilyDescriptor((1, 1), 1)
    degree, rank = det_Rf_degree(fam, L(1, 1, 2))
    assert (rank, degree) == (4, 8)


def test_det_degree_negative_chi():
    # On P^1, chi(O(-3)) = -2: the determinant sits in odd cohomology.
    fam = FamilyDescriptor((1,), 1)
    degree, rank = det_Rf_degree(fam, L(-3, 5))
    assert rank == -2
    assert degree == -10


def test_kunneth_dims():
    fam = FamilyDescriptor((1, 1), 1)
    assert fiber_cohomology_dims(fam, L(1, 1, 0)) == [4, 0, 0]
    assert fiber_cohomology_dims(fam, L(-2, -2, 0)) == [0, 0, 1]
    assert fiber_cohomology_dims(fam, L(1, -2, 0)) == [0, 2, 0]


@st.composite
def fibers_and_degrees(draw):
    """One to four factors of dimension 1-4, degrees in [-8, 8] (so every
    factor's vanishing window -n..-1 is reached)."""
    fiber = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    degrees = [draw(st.integers(-8, 8)) for _ in fiber]
    return tuple(fiber), tuple(degrees)


@settings(max_examples=300, deadline=None)
@given(fibers_and_degrees())
@example(((2, 3), (3, -2)))  # inside the vanishing window of P^3
@example(((1, 1, 4, 2), (-2, 5, -5, -1)))
def test_fiber_chi_is_the_alternating_sum_of_the_kunneth_dims(case):
    fiber, degrees = case
    dims = _kunneth_dims(fiber, degrees)
    assert _fiber_chi(fiber, degrees) == sum(
        (-1) ** k * h for k, h in enumerate(dims))


def test_fiber_chi_refuses_a_multidegree_of_the_wrong_length():
    with pytest.raises(ValueError):
        _fiber_chi((1, 1), (2,))
    with pytest.raises(ValueError):
        _fiber_chi((1,), (2, 3))


POINT_NAMES = ("u", "v", "w", "x", "y")
POINT_VALUES = st.one_of(
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 7), st.lists(st.sampled_from(POINT_NAMES), max_size=6),
       st.fixed_dictionaries({v: POINT_VALUES for v in POINT_NAMES}))
@example(2, ["x", "x", "y"], {"u": 0, "v": 0, "w": 0, "x": Fraction(-2, 3),
                              "y": Fraction(5, 4)})  # a repeated coordinate
@example(3, ["u", "v"], dict.fromkeys(POINT_NAMES, 1))  # k above the length
@example(0, [], dict.fromkeys(POINT_NAMES, 1))
def test_elementary_symmetric_value_is_elem_sym_at_the_point(k, names, point):
    grades = dict.fromkeys(POINT_NAMES, 1)
    want = elem_sym(k, names, grades, 8).evaluate(point)
    got = dcoh.elementary_symmetric_values(k, [point[v] for v in names])[k]
    assert type(got) is Fraction and got == want


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 7), st.lists(st.sampled_from(POINT_NAMES), max_size=6),
       st.fixed_dictionaries({v: POINT_VALUES for v in POINT_NAMES}))
@example(3, ["u", "v"], dict.fromkeys(POINT_NAMES, 1))  # k above the length
def test_one_pass_gives_every_degree_at_the_point(k, names, point):
    grades = dict.fromkeys(POINT_NAMES, 1)
    values = [point[v] for v in names]
    got = dcoh.elementary_symmetric_values(k, values)
    assert all(type(e) is Fraction for e in got)
    assert got == [dcoh.elementary_symmetric_values(j, values)[j]
                   for j in range(k + 1)]
    assert got == [elem_sym(j, names, grades, 8).evaluate(point)
                   for j in range(k + 1)]


def test_elementary_symmetric_value_refuses_a_negative_degree():
    with pytest.raises(ValueError):
        dcoh.elementary_symmetric_values(-1, [Fraction(1, 2)])


def test_kunneth_rank_is_product_of_chis():
    # The alternating sum over the Kunneth dimensions must agree with the
    # product of the per-factor Euler characteristics.
    fam = FamilyDescriptor((1, 2), 1)
    for d1 in range(-4, 5):
        for d2 in range(-4, 5):
            _, rank = det_Rf_degree(fam, L(d1, d2, 0))
            expected = chi_projective_space(1, d1) * chi_projective_space(2, d2)
            assert rank == expected, (d1, d2)


# ------------------------------------------------- deligne_pairing_degree

def test_pairing_degree_p1_closed_form():
    # Fiber P^1: degree = a0*b1 + a1*b0.
    fam = FamilyDescriptor((1,), 1)
    for a0, b0, a1, b1 in product(range(-2, 3), repeat=4):
        degree, rank_sum = deligne_pairing_degree(fam, [L(a0, b0), L(a1, b1)])
        assert rank_sum == 0
        assert degree == a0 * b1 + a1 * b0


def test_pairing_degree_p2_closed_form():
    # Fiber P^2: degree = sum_j b_j * prod_{k != j} a_k.
    fam = FamilyDescriptor((2,), 1)
    for a0, a1, a2 in product(range(0, 3), repeat=3):
        for b0, b1, b2 in product(range(-2, 3), repeat=3):
            bundles = [L(a0, b0), L(a1, b1), L(a2, b2)]
            degree, rank_sum = deligne_pairing_degree(fam, bundles)
            assert rank_sum == 0
            expected = b0 * a1 * a2 + b1 * a0 * a2 + b2 * a0 * a1
            assert degree == expected


def test_pairing_degree_wrong_count():
    fam = FamilyDescriptor((1,), 1)
    with pytest.raises(WrongBundleCount):
        deligne_pairing_degree(fam, [L(1, 0)])


def test_pairing_multilinearity():
    import random
    rng = random.Random(17)
    fam = FamilyDescriptor((1,), 1)
    for _ in range(200):
        a0, b0, a1, b1, a2, b2 = (rng.randint(-3, 3) for _ in range(6))
        base = [L(a1, b1)]
        left, _ = deligne_pairing_degree(fam, [L(a0, b0)] + base)
        right, _ = deligne_pairing_degree(fam, [L(a2, b2)] + base)
        both, _ = deligne_pairing_degree(fam, [L(a0 + a2, b0 + b2)] + base)
        assert both == left + right


def test_pairing_symmetry():
    fam = FamilyDescriptor((2,), 1)
    bundles = [L(1, 2), L(3, -1), L(0, 4)]
    reference, _ = deligne_pairing_degree(fam, bundles)
    import itertools
    for perm in itertools.permutations(bundles):
        degree, _ = deligne_pairing_degree(fam, list(perm))
        assert degree == reference


def test_untwisted_trivial_entry():
    # A (0; 0) slot with all other base twists zero gives degree 0.
    fam = FamilyDescriptor((1,), 1)
    degree, rank_sum = deligne_pairing_degree(fam, [L(0, 0), L(2, 0)])
    assert degree == 0 and rank_sum == 0


def _pairing_by_subsets(fam, bundles):
    """The pairing degree as the oracle first computed it: one
    ``combinations`` loop per subset size, summing the bundles of each
    subset one bundle at a time."""
    import itertools
    n = fam.fiber_dimension
    degree = rank_sum = 0
    for size in range(n + 2):
        sign = (-1) ** (n + 1 - size)
        for subset in itertools.combinations(range(n + 1), size):
            total = MultidegreeLineBundle((0,) * len(fam.fiber), 0)
            for i in subset:
                total = MultidegreeLineBundle(
                    tuple(a + b for a, b in zip(total.fiber_degrees,
                                                bundles[i].fiber_degrees)),
                    total.base_twist + bundles[i].base_twist)
            det_degree, det_rank = det_Rf_degree(fam, total)
            degree += sign * det_degree
            rank_sum += sign * det_rank
    return degree, rank_sum


# The eight family shapes of the benchmark's towers-pairing workload.
FAMILY_SHAPES = [((1,), 1), ((2,), 1), ((1, 1), 1), ((3,), 1),
                 ((1,), 2), ((2,), 2), ((1, 1), 2), ((3,), 2)]


@pytest.mark.parametrize("fiber,base", FAMILY_SHAPES)
def test_pairing_degree_matches_the_subset_loop(fiber, base):
    import random
    rng = random.Random(str((fiber, base)))
    fam = FamilyDescriptor(fiber, base)
    for _ in range(25):
        bundles = [L(*(rng.randint(-4, 4) for _ in range(len(fiber) + 1)))
                   for _ in range(fam.fiber_dimension + 1)]
        assert (deligne_pairing_degree(fam, bundles)
                == _pairing_by_subsets(fam, bundles))


@pytest.mark.parametrize("make", [
    lambda: FamilyDescriptor((1.5,), 1),
    lambda: FamilyDescriptor((1,), 1.5),
    lambda: MultidegreeLineBundle((1.9,), 0),
    lambda: MultidegreeLineBundle((1,), 0.5),
], ids=["fiber", "base", "degrees", "twist"])
def test_family_inputs_are_integers_not_truncated_floats(make):
    # Refused, not cut by int(): a degree 1 kept from 1.9 with a twist of
    # 0.5 would give the oracle a pairing degree of 1.5.
    with pytest.raises(TypeError):
        make()


def test_pairing_degree_refuses_a_multidegree_of_the_wrong_length():
    fam = FamilyDescriptor((1, 1), 1)
    with pytest.raises(ValueError):
        deligne_pairing_degree(fam, [L(1, 0, 1), L(0, 1, 0), L(2, 1)])
    with pytest.raises(ValueError):
        deligne_pairing_degree(fam, [L(1, 1), L(0, 1), L(2, 1)])


def _pairing_subset_by_subset(fam, bundles):
    """The pairing degree by its definition, one subset I at a time: the
    multidegree of the tensor product of the L_i in I, its fiber chi as
    the alternating sum of the Kunneth dimensions, and the exponent
    (-1)^{n+1-|I|} of det Rf_* = chi copies of O(e)."""
    n = fam.fiber_dimension
    degree = rank_sum = 0
    for mask in range(2 ** (n + 1)):
        chosen = [b for i, b in enumerate(bundles) if mask >> i & 1]
        degrees = [sum(b.fiber_degrees[k] for b in chosen)
                   for k in range(len(fam.fiber))]
        twist = sum(b.base_twist for b in chosen)
        dims = _kunneth_dims(fam.fiber, degrees)
        chi = (-1) ** (n + 1 - len(chosen)) * sum(
            (-1) ** k * h for k, h in enumerate(dims))
        degree += chi * twist
        rank_sum += chi
    return degree, rank_sum


@st.composite
def families_and_bundles(draw):
    """One to three fiber factors of dimension 1-3, base 1-2, and n+1
    bundles with degrees in [-6, 6]."""
    fiber = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    fam = FamilyDescriptor(fiber, draw(st.integers(1, 2)))
    degrees = st.lists(st.integers(-6, 6), min_size=len(fiber) + 1,
                       max_size=len(fiber) + 1)
    bundles = [L(*draw(degrees)) for _ in range(fam.fiber_dimension + 1)]
    return fam, bundles


@settings(max_examples=150, deadline=None)
@given(families_and_bundles())
# Subsets of one, two and three bundles land at -1, -2 and -3 on P^2 and
# P^3, inside and at the edge of each vanishing window -n..-1.
@example((FamilyDescriptor((2,), 1), [L(-1, 1), L(-1, 2), L(-1, -1)]))
@example((FamilyDescriptor((3, 1), 2),
          [L(-1, 0, 2), L(-1, -1, 1), L(-2, 1, -3), L(0, -2, 1),
           L(-1, 1, 1)]))
def test_column_oracle_matches_the_subset_definition(case):
    fam, bundles = case
    assert (deligne_pairing_degree(fam, bundles)
            == _pairing_subset_by_subset(fam, bundles))


def _pushforward_by_reduced_lines(fam, bundles):
    """The pushforward degree as it was first computed: each first Chern
    class reduced through ``line_class`` before it multiplies, and the
    base hyperplane power multiplied in last."""
    tower = pairing_tower(fam)
    product = tower.const(1)
    for bundle in bundles:
        coeffs = [bundle.base_twist] + list(bundle.fiber_degrees)
        product = product * tower.line_class(coeffs)
    product = product * tower.xi(1) ** (fam.base - 1)
    return int(dcoh.integrate(product))


@pytest.mark.parametrize("fiber,base", FAMILY_SHAPES)
def test_pushforward_degree_matches_the_reduced_line_loop(fiber, base):
    import random
    rng = random.Random(str(("pushforward", fiber, base)))
    fam = FamilyDescriptor(fiber, base)
    tower = pairing_tower(fam)
    for _ in range(25):
        bundles = [L(*(rng.randint(-4, 4) for _ in range(len(fiber) + 1)))
                   for _ in range(fam.fiber_dimension + 1)]
        expected = _pushforward_by_reduced_lines(fam, bundles)
        assert pairing_degree_by_pushforward(fam, bundles, tower) == expected
        assert pairing_degree_by_pushforward(fam, bundles) == expected


def test_pushforward_degree_refuses_a_wrong_bundle_count():
    fam = FamilyDescriptor((1,), 1)
    for bundles in ([L(1, 0)], [L(1, 0), L(0, 1), L(2, 2)]):
        with pytest.raises(WrongBundleCount):
            pairing_degree_by_pushforward(fam, bundles)


def test_pushforward_degree_refuses_a_multidegree_of_the_wrong_length():
    fam = FamilyDescriptor((1, 1), 1)
    with pytest.raises(ValueError):
        pairing_degree_by_pushforward(fam, [L(1, 0, 1), L(0, 1, 0), L(2, 1)])
    with pytest.raises(ValueError):
        pairing_degree_by_pushforward(fam, [L(1, 1), L(0, 1), L(2, 1)])
    with pytest.raises(ValueError):
        pairing_degree_by_pushforward(
            fam, [L(1, 0, 1), L(0, 1, 0), L(2, 1, 1, 1)])


# --------------------------------------------------------- c1_pairing_check

def test_c1_pairing_unit_example():
    fam = FamilyDescriptor((1,), 1)
    out = c1_pairing_check(fam, [L(1, 0), L(0, 1)])
    assert out["degree"] == 1 and out["match"]


def test_c1_pairing_two_three_five_seven():
    fam = FamilyDescriptor((1,), 1)
    out = c1_pairing_check(fam, [L(2, 3), L(5, 7)])
    assert out["degree"] == 2 * 7 + 5 * 3 == 29
    assert out["match"]


def test_c1_pairing_no_base_direction():
    fam = FamilyDescriptor((1,), 1)
    out = c1_pairing_check(fam, [L(2, 0), L(5, 0)])
    assert out["degree"] == 0 and out["match"]


def test_c1_pairing_small_grid_product_fiber():
    fam = FamilyDescriptor((1, 1), 1)
    for a0, a1 in product(range(-1, 2), repeat=2):
        bundles = [L(a0, 1, 0), L(1, a1, 1), L(0, 1, -1)]
        out = c1_pairing_check(fam, bundles)
        assert out["match"], out


def test_c1_pairing_over_p2_base():
    # The degree of a divisor class on a higher-dimensional base is read
    # off against the complementary hyperplane power.
    fam = FamilyDescriptor((1,), 2)
    for a0, b0, a1, b1 in [(1, 0, 0, 1), (2, 3, 5, 7), (-1, 2, 3, -2)]:
        out = c1_pairing_check(fam, [L(a0, b0), L(a1, b1)])
        assert out["degree"] == a0 * b1 + a1 * b0
        assert out["match"], out


def test_family_validation():
    with pytest.raises(UnsupportedFamily):
        FamilyDescriptor((0,), 1)
    fam = FamilyDescriptor((1,), 1)
    with pytest.raises(UnsupportedFamily):
        det_Rf_degree(fam, L(1, 2, 3))


def test_a_non_integral_pairing_degree_raises(monkeypatch):
    # The integrality check is an explicit raise, so it holds under -O.
    monkeypatch.setattr(dcoh, "integrate", lambda product: Fraction(1, 2))
    with pytest.raises(AssertionError, match="integer"):
        pairing_degree_by_pushforward(FamilyDescriptor((1,), 1), [L(1, 0), L(0, 1)])


def test_package_has_no_assert_statements():
    # ``python -O`` strips assert statements, so no check of the package
    # may be one.
    package = Path(chowline.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


# ------------------------------------------------------------ kept towers

def _kept_entries():
    return sum(ring.table_entries() for ring in dcoh._rings.values())


def _key(fam):
    """The registry key of the family's kept tower."""
    return (Tower, dcoh._frozen((dcoh._family_levels(fam),)),
            chern_ring.TRUNCATION_LIMIT, chern_ring.ROOT_MONOMIAL_LIMIT)


def _forget(*keys):
    """Drop the kept rings of ``keys``, every kept ring without any."""
    with dcoh._lock:
        for key in keys or list(dcoh._rings):
            if key in dcoh._rings:
                dcoh._drop(key)


def test_a_family_keeps_one_tower():
    fam = FamilyDescriptor((1, 1), 1)
    assert pairing_tower(fam) is pairing_tower(FamilyDescriptor((1, 1), 1))
    assert pairing_tower(fam) is not pairing_tower(FamilyDescriptor((1, 1), 2))


def test_the_kept_tables_stay_within_the_limit(monkeypatch):
    # Each family alone fits in 30 entries, all six of them do not.
    _forget()
    monkeypatch.setattr(pushforward, "TOWER_TABLE_LIMIT", 30)
    families = [FamilyDescriptor(fiber, base)
                for fiber in [(1,), (2,), (1, 1)] for base in (1, 2)]
    for _ in range(3):
        for fam in families:
            bundles = [L(*[1] * (len(fam.fiber) + 1))
                       for _ in range(fam.fiber_dimension + 1)]
            assert c1_pairing_check(fam, bundles)["match"]
            assert _kept_entries() <= 30
            if fam.base == 1:
                twist = L(*[2] * (len(fam.fiber) + 1))
                assert pushforward.grr_codim1_report(fam, twist)["equal"]
                assert _kept_entries() <= 30
            pairing_tower(fam)
            assert _kept_entries() <= 30
    assert len(dcoh._rings) < len(families)


def test_pairings_on_a_handed_out_tower_are_counted():
    # ``pairing_tower`` hands its tower out without a ``with`` block; the
    # entries that pairings on it add must still count against the limit.
    _forget()
    fam = FamilyDescriptor((1, 1), 1)
    tower = pairing_tower(fam)
    for k in range(5):
        bundles = [L(k % 3 - 1, 1, k), L(1, k, 0), L(0, 1, 1 - k)]
        pairing_degree_by_pushforward(fam, bundles, tower)
    assert tower.table_entries() > 0
    assert dcoh._held == sum(dcoh._counted.values()) == _kept_entries()


def test_a_warm_family_still_refuses_under_a_lowered_limit(monkeypatch):
    argv = ["deligne", "--fiber", "1,1", "--base", "1",
            "--bundles", "[[1,0,1],[0,1,1],[1,1,0]]"]
    assert cli.main(argv) == 0
    fam = FamilyDescriptor((1, 1), 1)
    assert len(pairing_tower(fam)._normal) > 10
    monkeypatch.setattr(pushforward, "TOWER_TABLE_LIMIT", 10)
    assert cli.main(argv) == 2
    assert cli.main(["grr", "--fiber", "1,1", "--bundle", "[1,2,3]"]) == 2
    monkeypatch.undo()
    assert cli.main(argv) == 0


def test_a_warm_family_accepts_what_a_fresh_one_accepts(monkeypatch):
    # Each pairing alone meets two monomials of P^1 x P^1 x P^1, and the
    # two pairings meet different ones.
    fam = FamilyDescriptor((1, 1), 1)
    first = [L(1, 0, 0)] * 3
    second = [L(0, 1, 0)] * 3
    _forget(_key(fam))
    monkeypatch.setattr(pushforward, "TOWER_TABLE_LIMIT", 2)
    assert pairing_degree_by_pushforward(fam, first) == 0
    warm = pairing_tower(fam)
    assert dcoh._rings[_key(fam)] is warm and len(warm._normal) == 2
    fresh = Tower.product_of_projective_spaces([1, 1, 1])
    assert pairing_degree_by_pushforward(fam, second, fresh) == 0
    # The warm table fills up, so the pairing runs again on a fresh tower.
    assert pairing_degree_by_pushforward(fam, second) == 0
    assert pairing_tower(fam) is not warm
    # A fresh tower that fills up refuses at once.
    _forget(_key(fam))
    with pytest.raises(TowerTooLarge):
        pairing_degree_by_pushforward(fam, [L(1, 1, 1)] * 3)
    assert _key(fam) not in dcoh._rings


def test_threads_share_the_kept_towers(monkeypatch):
    # A limit of 30 entries keeps trimming the kept towers while four
    # threads run pairings and grr on six families at once.
    import sys
    import threading
    monkeypatch.setattr(pushforward, "TOWER_TABLE_LIMIT", 30)
    families = [FamilyDescriptor(fiber, base)
                for fiber in [(1,), (2,), (1, 1)] for base in (1, 2)]
    wrong = []

    def work(seed):
        try:
            for k in range(300):
                fam = families[(seed + k) % len(families)]
                bundles = [L(*[(seed + k + i) % 3 - 1] * (len(fam.fiber) + 1))
                           for i in range(fam.fiber_dimension + 1)]
                if not c1_pairing_check(fam, bundles)["match"]:
                    wrong.append((fam, bundles))
                if fam.base == 1:
                    twist = L(*[k % 4 - 1] * (len(fam.fiber) + 1))
                    if not pushforward.grr_codim1_report(fam, twist)["equal"]:
                        wrong.append((fam, twist))
                for other in families:
                    pairing_tower(other)
        except Exception as err:  # a thread's exception is otherwise lost
            wrong.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,))
                   for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    pairing_tower(families[0])
    assert _kept_entries() <= 30


def _setup_classes(setup):
    """Printed classes that fill all three class tables of the first
    bundle of a setup, and the Chern-basis tables of its block sizes."""
    name = next(iter(setup.bundles))
    top = setup.truncation
    return [str(td(VirtualBundle.bundle(name), setup)),
            str(segre_class(setup, name, top)),
            str(chern_from_segre(setup, name, top) * segre_class(setup, name, 1))]


def test_threads_share_the_kept_setups_and_towers(monkeypatch):
    # A limit of 60 entries keeps dropping kept setups and towers while
    # four threads evaluate classes on three setups and run pairings and
    # grr on three families at once.
    import sys
    import threading
    declarations = [([("E", 2), ("L", 1)], 0, 5), ([("E", 3)], 0, 4),
                    ([("A", 1), ("B", 2)], 1, 6)]
    expected = [_setup_classes(Setup(*declared)) for declared in declarations]
    _forget()
    monkeypatch.setattr(pushforward, "TOWER_TABLE_LIMIT", 60)
    families = [FamilyDescriptor(fiber, 1) for fiber in [(1,), (2,), (1, 1)]]
    wrong = []

    def work(seed):
        try:
            for k in range(150):
                i = (seed + k) % len(declarations)
                with dcoh.kept(Setup, *declarations[i]) as setup:
                    if _setup_classes(setup) != expected[i]:
                        wrong.append(declarations[i])
                fam = families[(seed + 2 * k) % len(families)]
                bundles = [L(*[(seed + k + j) % 3 - 1] * (len(fam.fiber) + 1))
                           for j in range(fam.fiber_dimension + 1)]
                if not c1_pairing_check(fam, bundles)["match"]:
                    wrong.append((fam, bundles))
                twist = L(*[k % 4 - 1] * (len(fam.fiber) + 1))
                if not pushforward.grr_codim1_report(fam, twist)["equal"]:
                    wrong.append((fam, twist))
        except Exception as err:  # a thread's exception is otherwise lost
            wrong.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,))
                   for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    with dcoh.kept(Setup, *declarations[0]):
        pass
    assert _kept_entries() <= 60
    # The counts the registry keeps are those of the kept tables.
    assert dcoh._held == sum(dcoh._counted.values()) == _kept_entries()


def test_a_kept_tower_refuses_non_integer_line_coefficients():
    levels = [[[], []], [[1], [0]]]
    with dcoh.kept(Tower, levels) as tower:
        assert tower.line_coeffs[1] == [[1], [0]]
    for coeff in (1.7, "2"):
        with pytest.raises(TypeError):
            with dcoh.kept(Tower, [[[], []], [[coeff], [0]]]):
                pass
    with dcoh.kept(Tower, levels) as again:
        assert again is tower


def test_a_repeated_declaration_is_found_by_its_key_unchecked(monkeypatch):
    # A fetch of a kept ring's raw declaration, as a list or a tuple,
    # under the same limits skips the checks; any other declaration, a
    # float or bool equal to a kept int included, and any changed limit
    # runs them.
    _forget()
    with dcoh.kept(Setup, [("E", 2), ("L", 1)], 0, 5) as setup:
        pass
    with dcoh.kept(Tower, [[[], []], [[1], [0]]]) as tower:
        pass

    def checked(self, *declared):
        raise AssertionError("checked")

    monkeypatch.setattr(Setup, "__init__", checked)
    monkeypatch.setattr(Tower, "__init__", checked)
    for bundles in ([("E", 2), ("L", 1)], (("E", 2), ("L", 1))):
        with dcoh.kept(Setup, bundles, 0, 5) as again:
            assert again is setup
    with dcoh.kept(Tower, (((), ()), ((1,), (0,)))) as again:
        assert again is tower
    for cls, declared in [
            (Setup, ([("E", 2), ("L", 1)], 0, 6)),
            (Setup, ([("E", 2), ("L", 1)], 0, 5.0)),
            (Setup, ([("E", 2), ("L", True)], 0, 5)),
            (Tower, ([[[], []], [[1.0], [0]]],))]:
        with pytest.raises(AssertionError, match="checked"):
            with dcoh.kept(cls, *declared):
                pass
    for name in ("TRUNCATION_LIMIT", "ROOT_MONOMIAL_LIMIT"):
        with monkeypatch.context() as patch:
            patch.setattr(chern_ring, name, getattr(chern_ring, name) + 1)
            for cls, declared in [(Setup, ([("E", 2), ("L", 1)], 0, 5)),
                                  (Tower, ([[[], []], [[1], [0]]],))]:
                with pytest.raises(AssertionError, match="checked"):
                    with dcoh.kept(cls, *declared):
                        pass


def test_an_equal_declaration_of_another_type_is_refused_as_a_fresh_one():
    _forget()
    with dcoh.kept(Setup, [("E", 2)], 0, 5):
        pass
    with pytest.raises(ValueError):
        Setup([("E", 2)], 0, 5.0)
    with pytest.raises(ValueError):
        with dcoh.kept(Setup, [("E", 2)], 0, 5.0):
            pass


def test_a_refused_declaration_keeps_nothing():
    _forget()
    with dcoh.kept(Setup, [("E", 2)], 0, 4):
        pass
    before = dict(dcoh._rings)
    for declared in ([("E", True)], 0, 4), ([("E", [2])], 0, 4):
        with pytest.raises(ValueError):
            with dcoh.kept(Setup, *declared):
                pass
        assert dcoh._rings == before


def test_one_ring_per_key_and_none_for_an_unfrozen_declaration(monkeypatch):
    # A declaration the checks accept but ``_frozen`` refuses is built
    # fresh on every fetch and never kept; the rest are kept one per key,
    # a list and a tuple of the same items sharing one, and dropped with
    # their counts by the table bound.
    _forget()
    levels = [[[], []], [[True], [0]]]
    with dcoh.kept(Tower, levels) as tower:
        assert tower.line_coeffs[1] == [[1], [0]]
    with dcoh.kept(Tower, levels) as again:
        assert again is not tower
    assert dcoh._rings == {} == dcoh._counted
    for truncation in (4, 5, 6):
        with dcoh.kept(Setup, [("E", 2)], 0, truncation):
            pass
    with dcoh.kept(Setup, (("E", 2),), 0, 6):
        pass
    assert [key[1][2] for key in dcoh._rings] == [4, 5, 6]
    assert set(dcoh._counted) == set(dcoh._rings)
    monkeypatch.setattr(pushforward, "TOWER_TABLE_LIMIT", 0)
    with dcoh.kept(Setup, [("E", 3)], 0, 4) as setup:
        chern_ring.chern_class(setup, "E", 2)
    assert dcoh._rings == {} == dcoh._counted and dcoh._held == 0
