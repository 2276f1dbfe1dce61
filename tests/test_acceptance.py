"""Acceptance suite: one test per criterion, every check exact.

Each test prints a PASS line once its assertions hold (run with -s to see
them); any assertion failure marks the criterion FAIL via pytest.
"""

import random
import time
from fractions import Fraction
from itertools import product
from math import comb

from chowline import charclass, dcoh, picard, pushforward
from chowline.chern_ring import (
    Setup,
    chern_class,
    dual_class,
    elementary_classes,
    segre_class,
    tensor_line,
    whitney_expand,
)
from chowline.charclass import VirtualBundle
from chowline.poly import Poly
from chowline.symfun import elem_sym


def report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def shifted_roots(setup):
    """The roots x_j + c_1(L) of E (x) L."""
    ell = chern_class(setup, "L", 1).poly
    return [root + ell for root in setup.roots("E")]


def test_criterion_1_borel_serre_ranks_up_to_four():
    start = time.monotonic()
    # Rank 0: lambda_{-1} of the zero bundle is Lambda^0 = O, the top Chern
    # class is c_0 = 1 and td of the zero bundle is 1; both sides evaluate
    # to the constant 1 through the same machinery as the positive ranks.
    s = Setup([("X", 1)], 0, 8)
    zero = VirtualBundle.zero()
    lhs = charclass.ch(zero.lam(0), s)
    rhs = charclass.td(zero.dual(), s).inverse()
    assert lhs == rhs == s.const(1)
    for r in range(1, 5):
        s = Setup([("E", r)], 0, 8)
        ok, residual = charclass.borel_serre_check(s, "E")
        assert ok, f"rank {r} residual: {residual}"
        assert residual.is_zero()
    elapsed = time.monotonic() - start
    assert elapsed < 30, f"took {elapsed:.1f}s"
    report(1, f"ch(lambda_-1 E) = c_r(E*) td(E*)^-1 for r <= 4 at D = 8 "
              f"({elapsed:.1f}s)")


def test_criterion_2_whitney_and_filtrations():
    rng = random.Random(20260808)
    failures = 0
    pairs = [(r1, r2) for r1 in range(1, 4) for r2 in range(r1, 4)]
    for r1, r2 in pairs:
        s = Setup([("A", r1), ("B", r2)], 0, 8)
        combined_vars = s.root_vars("A") + s.root_vars("B")
        for _ in range(100):
            k = rng.randint(0, r1 + r2)
            lhs = elem_sym(k, combined_vars, s.grades, s.truncation)
            rhs = whitney_expand(s, "A", "B", k)
            values = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                      for v in s.grades}
            if lhs.evaluate(values) != rhs.poly.evaluate(values):
                failures += 1
    assert failures == 0

    # Three-step filtration: both association orders of a triple sum give
    # the same expansion, exactly.
    s = Setup([("A", 2), ("B", 2), ("C", 2)],
              0, 8)
    for k in range(7):
        left = s.zero()
        right = s.zero()
        for i in range(k + 1):
            left = left + whitney_expand(s, "A", "B", i) * chern_class(s, "C", k - i)
            right = right + chern_class(s, "A", i) * whitney_expand(s, "B", "C", k - i)
        assert left == right
        combined = elem_sym(
            k, s.root_vars("A") + s.root_vars("B") + s.root_vars("C"),
            s.grades, s.truncation)
        assert left.poly == combined
    report(2, "Whitney identity (100 random evaluations per rank pair up to "
              "(3,3)) and three-step filtration associativity")


def test_criterion_3_duality():
    for r in range(1, 6):
        s = Setup([("E", r)], 0, 8)
        negate = {v: -Poly.var(v, s.grades, s.truncation)
                  for v in s.root_vars("E")}
        for k in range(6):
            oracle = chern_class(s, "E", k).poly.substitute(negate)
            assert dual_class(s, "E", k).poly == oracle
    report(3, "c_k(dual E) = (-1)^k c_k(E) exactly for r <= 5, k <= 5")


def test_criterion_4_tensor_by_line():
    for r in range(1, 6):
        s = Setup([("E", r), ("L", 1)], 0, 8)
        for k in range(6):
            assert tensor_line(s, "E", "L", k) == elementary_classes(
                s, shifted_roots(s), k)[k]

    # Documented discrepancy: the variant coefficient binom(r-k+1, i) is
    # wrong at r = 2, k = 2; the shifted-root oracle exceeds it by exactly
    # c_1(L)^2.
    s = Setup([("E", 2), ("L", 1)], 0, 8)
    r = k = 2
    variant = s.zero()
    for i in range(k + 1):
        coeff = comb(r - k + 1, i)
        if coeff:
            variant = variant + chern_class(s, "E", k - i) * (
                chern_class(s, "L", 1) ** i) * coeff
    ell = chern_class(s, "L", 1)
    assert elementary_classes(s, shifted_roots(s), k)[k] - variant == ell * ell
    report(4, "c_k(E (x) L) matches the shifted-root oracle for r <= 5, "
              "k <= 5; the binom(r-k+1, i) variant fails at r=2, k=2 by "
              "c_1(L)^2 exactly")


def test_criterion_5_segre_recurrence_both_conventions():
    for r in range(1, 6):
        s = Setup([("E", r)], 0, 8)
        for k in range(1, 9):
            default = s.zero()
            fulton = s.zero()
            for i in range(k + 1):
                ck = chern_class(s, "E", k - i)
                default = default + segre_class(s, "E", i) * ck * ((-1) ** i)
                fulton = fulton + segre_class(s, "E", i, fulton=True) * ck
            assert default.is_zero()
            assert fulton.is_zero()
            # Convention translation: s_k = (-1)^k s_k^Fulton.
            assert segre_class(s, "E", k) == segre_class(
                s, "E", k, fulton=True) * ((-1) ** k)
    report(5, "Segre recurrence sum (-1)^i s_i c_{k-i} = 0 for k <= 8, "
              "r <= 5, in both sign conventions")


def test_criterion_6_deligne_pairing_exhaustive():
    start = time.monotonic()

    fam1 = dcoh.FamilyDescriptor((1,), 1)
    tower1 = dcoh.pairing_tower(fam1)
    for a0, b0, a1, b1 in product(range(-3, 4), repeat=4):
        bundles = [dcoh.MultidegreeLineBundle((a0,), b0),
                   dcoh.MultidegreeLineBundle((a1,), b1)]
        degree, rank_sum = dcoh.deligne_pairing_degree(fam1, bundles)
        assert rank_sum == 0, (a0, b0, a1, b1)
        pushed = dcoh.pairing_degree_by_pushforward(fam1, bundles, tower1)
        assert degree == pushed == a0 * b1 + a1 * b0, (a0, b0, a1, b1)

    fam2 = dcoh.FamilyDescriptor((2,), 1)
    tower2 = dcoh.pairing_tower(fam2)
    for a0, a1, a2 in product(range(0, 4), repeat=3):
        for b0, b1, b2 in product(range(-3, 4), repeat=3):
            bundles = [dcoh.MultidegreeLineBundle((a0,), b0),
                       dcoh.MultidegreeLineBundle((a1,), b1),
                       dcoh.MultidegreeLineBundle((a2,), b2)]
            degree, rank_sum = dcoh.deligne_pairing_degree(fam2, bundles)
            assert rank_sum == 0
            pushed = dcoh.pairing_degree_by_pushforward(fam2, bundles, tower2)
            assert degree == pushed
    elapsed = time.monotonic() - start
    assert elapsed < 120, f"took {elapsed:.1f}s"
    report(6, "pairing degree = pushforward degree exhaustively on fiber "
              f"P^1 and P^2 over P^1, |a|,|b| <= 3 ({elapsed:.1f}s)")


def test_criterion_7_codimension_one_grr():
    fam = dcoh.FamilyDescriptor((1,), 1)
    for a in range(-3, 4):
        for b in range(-3, 4):
            out = pushforward.grr_codim1_report(
                fam, dcoh.MultidegreeLineBundle((a,), b))
            assert out["equal"], (a, b, out)
            assert out["lhs_degree"] == (a + 1) * b
    report(7, "det Rf_* O(a,b) degree = f_*(ch td*)^(1) degree on "
              "P^1 x P^1 -> P^1 for -3 <= a, b <= 3")


def test_criterion_8_hrr_integrality():
    for n in range(1, 4):
        tower = pushforward.Tower.projective_space(n)
        for d in range(-6, 7):
            v = VirtualBundle.line_class((tower.xi(1) * d).poly)
            chi = pushforward.euler_characteristic(tower, v)
            expected = dcoh.chi_projective_space(n, d)
            assert chi == expected, (n, d, chi)
            dims = dcoh.cohomology_dims(n, d)
            assert expected == sum((-1) ** k * h for k, h in enumerate(dims))
    report(8, "chi(P^n, O(d)) = C(n+d, n) for n <= 3, |d| <= 6, against "
              "both the Euler-sequence integral and cohomology dimensions")


def test_criterion_9_symmetry_sign():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.choice([1, 2])
        tower = pushforward.Tower.projective_space(n)
        degrees = [rng.randint(-3, 3) for _ in range(n + 1)]
        i = rng.randrange(n + 1)
        j = rng.randrange(n + 1)
        while j == i:
            j = rng.randrange(n + 1)
        degrees[j] = degrees[i]
        lines = [[a] for a in degrees]
        # Independent kappa: on P^n the integral of prod (a_k h) is the
        # product of the degrees.
        kappa = 1
        for k, a in enumerate(degrees):
            if k != i:
                kappa *= a
        got = pushforward.symmetry_sign(tower, lines, i, j)
        assert got == (-1) ** kappa, (degrees, i, j)
    report(9, "symmetry sign equals (-1)^kappa with kappa computed "
              "independently, 20 random P^1/P^2 instances")


def test_criterion_10_picardification():
    # Group completions.
    assert picard.grothendieck_group(
        picard.MonoidPresentation(1)).invariants() == (1, ())
    two_torsion = picard.grothendieck_group(
        picard.MonoidPresentation(2, [((2, 0), (0, 2))]))
    assert two_torsion.invariants() == (1, (2,))

    # Finite-sets skeleton: the sign of the (n, n) shuffle is (-1)^n.
    Z2 = picard.FGAbelianGroup.cyclic(2)
    skeleton = picard.GroupoidSkeleton(
        monoid=picard.MonoidPresentation(1),
        chain_start=[2], chain_step=[1],
        chain_groups=[Z2, Z2, Z2, Z2],
        translations=[[[1]], [[1]], [[1]]],
        symmetry=[[0], [1], [0], [1]])
    invariants = picard.picardify(skeleton)
    assert invariants.pi0.invariants() == (1, ())
    assert invariants.pi1.invariants() == (0, (2,))
    assert not invariants.eps_is_zero()
    value = picard.mat_vec(invariants.eps, [1])
    assert invariants.pi1.element_is_zero([2 * x for x in value])

    # Rationalization kills torsion and the sign.
    rational = picard.rationalize(invariants)
    assert rational.pi1.is_trivial()
    assert rational.eps_is_zero()

    # Hom torsor size.
    hom = picard.FGAbelianGroup.cyclic(2).hom(picard.FGAbelianGroup.cyclic(4))
    assert hom.order() == 2
    report(10, "K(N) = Z; <a,b | 2a=2b> completes to Z + Z/2; finite-sets "
               "chain gives (Z, Z/2, eps != 0) with 2 eps = 0; "
               "rationalization kills both; |Hom(Z/2, Z/4)| = 2")


def test_criterion_11_ch_multiplicativity_random_trees():
    rng = random.Random(5150)
    setup = Setup([("A", 1), ("B", 2), ("C", 3)],
                  0, 6)
    names = ["A", "B", "C"]

    def tree(depth):
        if depth == 0 or rng.random() < 0.35:
            return VirtualBundle.bundle(rng.choice(names))
        op = rng.choice(["sum", "tensor", "dual", "scale"])
        if op == "sum":
            return tree(depth - 1) + tree(depth - 1)
        if op == "tensor":
            return tree(depth - 1) * tree(depth - 1)
        if op == "dual":
            return tree(depth - 1).dual()
        return rng.choice([-1, 2]) * tree(depth - 1)

    for _ in range(50):
        v, w = tree(2), tree(2)
        assert charclass.ch_tensor_check(setup, v, w)
    report(11, "ch(V (x) W) = ch(V) ch(W) exactly for 50 random virtual "
               "trees at D = 6")
