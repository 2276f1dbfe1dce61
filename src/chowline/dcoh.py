"""Cohomological oracle for product families of projective spaces.

For the constant family X = (P^{n_1} x ... x P^{n_t}) x P^m -> P^m and a
line bundle O(d_1, ..., d_t; e), the derived direct image splits by the
Kunneth formula into copies of O(e) indexed by fiber cohomology, so the
determinant of cohomology is computable exactly from the classical
cohomology of O(d) on projective space:

    h^0(P^n, O(d)) = C(n+d, n) for d >= 0,
    h^n(P^n, O(d)) = C(-d-1, n) for d <= -n-1,

all other groups vanishing.  This gives an oracle for pairing degrees that
is entirely independent of the symbolic pushforward machinery: the pairing
of n+1 line bundles is the alternating tensor product of determinants of
cohomology over subsets of the bundles, and its degree must match the
direct image of the product of first Chern classes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from math import comb, factorial, prod
from operator import index

from . import pushforward
from .chern_ring import TRUNCATION_LIMIT
from .errors import (
    TowerTooLarge,
    TruncationTooHigh,
    UnsupportedFamily,
    WrongBundleCount,
)
from .pushforward import Tower, integrate


@dataclass(frozen=True)
class FamilyDescriptor:
    """X = (prod_i P^{fiber[i]}) x P^base -> P^base."""
    fiber: tuple
    base: int

    def __post_init__(self):
        object.__setattr__(self, "fiber", tuple(map(index, self.fiber)))
        object.__setattr__(self, "base", index(self.base))
        if any(n < 1 for n in self.fiber) or self.base < 1:
            raise UnsupportedFamily("all projective-space factors need dimension >= 1")
        if self.fiber_dimension + self.base > TRUNCATION_LIMIT:
            raise TruncationTooHigh(
                f"the family's total space has dimension "
                f"{self.fiber_dimension + self.base}, above the limit of "
                f"{TRUNCATION_LIMIT}")

    @property
    def fiber_dimension(self):
        return sum(self.fiber)


@dataclass(frozen=True)
class MultidegreeLineBundle:
    """O(d_1, ..., d_t; e): fiber multidegree d, base twist e."""
    fiber_degrees: tuple
    base_twist: int

    def __post_init__(self):
        object.__setattr__(
            self, "fiber_degrees", tuple(map(index, self.fiber_degrees)))
        object.__setattr__(self, "base_twist", index(self.base_twist))


@dataclass(frozen=True)
class GradedLineDegree:
    """Isomorphism data of a graded line bundle on P^m: its grading (the
    Euler characteristic of the pushed-forward bundle) and the degree of
    the underlying line bundle."""
    rank: int
    degree: int


def cohomology_dims(n, d):
    """[h^0, ..., h^n] for O(d) on P^n.

    Cohomology is concentrated at the ends: global sections for d >= 0 and,
    by Serre duality, top cohomology for d <= -n-1.
    """
    if n < 1:
        raise ValueError("projective space dimension must be >= 1")
    dims = [0] * (n + 1)
    if d >= 0:
        dims[0] = comb(n + d, n)
    if d <= -n - 1:
        dims[n] = comb(-d - 1, n)
    return dims


def chi_projective_space(n, d):
    """chi(P^n, O(d)) = C(n+d, n) as a polynomial in d (may be negative):
    (d+1)...(d+n) / n!, exact since n! divides any product of n
    consecutive integers."""
    return prod(range(d + 1, d + n + 1)) // factorial(n)


def _chi(n, d):
    """chi(P^n, O(d)) as h^0 + (-1)^n h^n of ``cohomology_dims``, its only
    nonzero entries."""
    dims = cohomology_dims(n, d)
    return dims[0] + (-1) ** n * dims[n]


def _fiber_chi(fiber, degrees):
    """chi(fiber, O(d)) = prod_i chi(P^{n_i}, O(d_i)), the Euler
    characteristic being multiplicative over Kunneth factors; a
    multidegree of the wrong length raises ``ValueError``."""
    return prod(_chi(n, d) for n, d in zip(fiber, degrees, strict=True))


def det_Rf_degree(fam, bundle):
    """Determinant of cohomology of O(d; e) along the product family.

    Rf_* O(d; e) = H^*(fiber, O(d)) (x) O(e); each H^k contributes h^k
    copies of O(e) with alternating exponent (-1)^k, so the rank is the
    fiber Euler characteristic and the degree is e times that.
    """
    if len(bundle.fiber_degrees) != len(fam.fiber):
        raise UnsupportedFamily(
            "bundle multidegree does not match the number of fiber factors")
    chi = _fiber_chi(fam.fiber, bundle.fiber_degrees)
    return GradedLineDegree(rank=chi, degree=bundle.base_twist * chi)


def _check_bundles(fam, bundles):
    """Refuse anything but n+1 bundles, n the fiber dimension, each with
    one degree per fiber factor."""
    n = fam.fiber_dimension
    if len(bundles) != n + 1:
        raise WrongBundleCount(
            f"a fiber of dimension {n} pairs exactly {n + 1} line bundles, "
            f"got {len(bundles)}")
    if any(len(b.fiber_degrees) != len(fam.fiber) for b in bundles):
        raise ValueError("multidegree length mismatch")


def deligne_pairing_degree(fam, bundles):
    """Degree of the pairing of n+1 line bundles, with its rank check.

    The pairing is the alternating tensor product over subsets I of
    {0..n} of det Rf_*(tensor of the L_i, i in I), with exponent
    (-1)^{n+1-|I|}.  Returns (degree, alternating_rank_sum); the rank sum
    must vanish, the pairing being an honest ungraded line bundle.

    The subsets are kept as columns, one per fiber factor plus one of
    base twists and one of signs, each listing its value on all 2^(n+1)
    subsets.  One doubling step per bundle builds them: entry
    ``mask | 1 << i`` is entry ``mask`` plus L_i's degree, and its sign
    the opposite of entry ``mask``'s.  The fiber Euler characteristic of
    a subset is then the product of its factors' chi(P^{n_i}, O(d)),
    each read from a table over the distinct degrees of factor i's
    column.
    """
    _check_bundles(fam, bundles)
    columns = [[0] for _ in range(len(fam.fiber) + 1)]
    chis = [(-1) ** (fam.fiber_dimension + 1)]
    for bundle in bundles:
        degrees = bundle.fiber_degrees + (bundle.base_twist,)
        for column, d in zip(columns, degrees):
            column += [s + d for s in column]
        chis += [-sign for sign in chis]
    *fiber_columns, twists = columns
    for n, column in zip(fam.fiber, fiber_columns):
        table = {d: _chi(n, d) for d in set(column)}
        chis = [chi * table[d] for chi, d in zip(chis, column)]
    degree = sum(chi * e for chi, e in zip(chis, twists))
    return degree, sum(chis)


# The product families' towers, least recently used first, and the lock
# under which they are swapped.
_towers = {}
_lock = threading.Lock()


def _entries(tower):
    """Normal-form entries held by a tower and the towers kept below it."""
    below = tower._below
    return len(tower._normal) + (_entries(below) if below else 0)


def _trim():
    """Drop the least recently used towers until the kept tables hold at
    most ``TOWER_TABLE_LIMIT`` entries together."""
    with _lock:
        while (sum(map(_entries, _towers.values()))
               > pushforward.TOWER_TABLE_LIMIT):
            del _towers[next(iter(_towers))]


def pairing_tower(fam):
    """The total space of the family as a tower: base level first, then
    the fiber factors.

    One tower is kept per family, so its normal-form table, the towers
    below it and its Todd classes serve every later call.  The kept
    tables hold at most ``TOWER_TABLE_LIMIT`` entries together, counted
    at each call; the least recently used tower is dropped first.  A kept
    table already past the current limit is replaced by a fresh tower, so
    that a lowered limit refuses as it would on a fresh tower.
    """
    with _lock:
        tower = _towers.pop(fam, None)
        if tower is None or _entries(tower) > pushforward.TOWER_TABLE_LIMIT:
            tower = Tower.product_of_projective_spaces(
                [fam.base] + list(fam.fiber))
        _towers[fam] = tower
    _trim()
    return tower


def with_pairing_tower(fam, compute):
    """``compute(tower)`` on the family's kept tower.

    A kept table holds entries of earlier calls, so it can reach
    ``TOWER_TABLE_LIMIT`` where a fresh table would not: on
    ``TowerTooLarge`` the tower is dropped, and ``compute`` runs once
    more on a fresh tower unless the refused one was fresh already.
    """
    while True:
        tower = pairing_tower(fam)
        warm = bool(tower._normal)
        try:
            return compute(tower)
        except TowerTooLarge:
            _towers.pop(fam, None)
            if not warm:
                raise
        finally:
            _trim()


def pairing_degree_by_pushforward(fam, bundles, tower=None):
    """The direct-image degree: integral over the total space of the
    product of the first Chern classes, against the base hyperplane power
    that reads off a divisor's degree.

    The product is one ``Tower.divisor_product`` of coefficient vectors:
    xi_1 (the base hyperplane) base - 1 times, then each bundle's first
    Chern class.  It keeps integer numerators, normalizes every monomial
    product as it forms (NF(a b) = NF(NF(a) b)) and builds one class at
    the end, which ``integrate`` reads.  The bundles are
    checked as ``deligne_pairing_degree`` checks them.  Without a
    ``tower`` the family's kept tower serves (``with_pairing_tower``).
    """
    _check_bundles(fam, bundles)
    forms = [(1,)] * (fam.base - 1) + [
        (bundle.base_twist,) + bundle.fiber_degrees for bundle in bundles]

    def degree(tower):
        return integrate(tower.divisor_product(forms))

    if tower is None:
        value = with_pairing_tower(fam, degree)
    else:
        value = degree(tower)
    if value.denominator != 1:
        raise AssertionError("pairing degree must be an integer")
    return int(value)


def c1_pairing_check(fam, bundles, tower=None):
    """Exact agreement of the alternating-chi degree with the symbolic
    pushforward degree, plus the vanishing of the alternating rank sum."""
    degree, rank_sum = deligne_pairing_degree(fam, bundles)
    pushed = pairing_degree_by_pushforward(fam, bundles, tower=tower)
    return {
        "degree": degree,
        "rank_sum": rank_sum,
        "pushforward_degree": pushed,
        "match": degree == pushed and rank_sum == 0,
    }
