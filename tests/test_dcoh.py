import ast
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chowline
from chowline import cli, dcoh, pushforward
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
            out = det_Rf_degree(fam, L(a, b))
            assert out.rank == a + 1
            assert out.degree == (a + 1) * b


def test_det_degree_acyclic_fiber():
    fam = FamilyDescriptor((1,), 1)
    for b in range(-3, 4):
        out = det_Rf_degree(fam, L(-1, b))
        assert (out.rank, out.degree) == (0, 0)


def test_det_degree_kunneth_product_fiber():
    fam = FamilyDescriptor((1, 1), 1)
    out = det_Rf_degree(fam, L(1, 1, 2))
    assert (out.rank, out.degree) == (4, 8)


def test_det_degree_negative_chi():
    # On P^1, chi(O(-3)) = -2: the determinant sits in odd cohomology.
    fam = FamilyDescriptor((1,), 1)
    out = det_Rf_degree(fam, L(-3, 5))
    assert out.rank == -2
    assert out.degree == -10


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


def test_kunneth_rank_is_product_of_chis():
    # The alternating sum over the Kunneth dimensions must agree with the
    # product of the per-factor Euler characteristics.
    fam = FamilyDescriptor((1, 2), 1)
    for d1 in range(-4, 5):
        for d2 in range(-4, 5):
            out = det_Rf_degree(fam, L(d1, d2, 0))
            expected = chi_projective_space(1, d1) * chi_projective_space(2, d2)
            assert out.rank == expected, (d1, d2)


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
            data = det_Rf_degree(fam, total)
            degree += sign * data.degree
            rank_sum += sign * data.rank
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
    tower = pairing_tower(fam)
    for a0, a1 in product(range(-1, 2), repeat=2):
        bundles = [L(a0, 1, 0), L(1, a1, 1), L(0, 1, -1)]
        out = c1_pairing_check(fam, bundles, tower=tower)
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
    return sum(map(dcoh._entries, dcoh._towers.values()))


def test_a_family_keeps_one_tower():
    fam = FamilyDescriptor((1, 1), 1)
    assert pairing_tower(fam) is pairing_tower(FamilyDescriptor((1, 1), 1))
    assert pairing_tower(fam) is not pairing_tower(FamilyDescriptor((1, 1), 2))


def test_the_kept_tables_stay_within_the_limit(monkeypatch):
    # Each family alone fits in 30 entries, all six of them do not.
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
    assert len(dcoh._towers) < len(families)


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
    dcoh._towers.pop(fam, None)
    monkeypatch.setattr(pushforward, "TOWER_TABLE_LIMIT", 2)
    assert pairing_degree_by_pushforward(fam, first) == 0
    warm = pairing_tower(fam)
    assert len(warm._normal) == 2
    fresh = Tower.product_of_projective_spaces([1, 1, 1])
    assert pairing_degree_by_pushforward(fam, second, fresh) == 0
    # The warm table fills up, so the pairing runs again on a fresh tower.
    assert pairing_degree_by_pushforward(fam, second) == 0
    assert pairing_tower(fam) is not warm
    # A fresh tower that fills up refuses at once.
    dcoh._towers.pop(fam, None)
    with pytest.raises(TowerTooLarge):
        pairing_degree_by_pushforward(fam, [L(1, 1, 1)] * 3)
    assert fam not in dcoh._towers


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
