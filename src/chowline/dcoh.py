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

The symbolic side runs on kept rings: the module keeps one ``Setup`` or
``Tower`` per declaration, its raw constructor arguments, and per value
of the limits the constructor reads (``kept``, ``with_kept``): the
families' towers and the command line's setups alike, under one key
each, one bound and one lock.  The oracle itself builds no ring.

``elementary_symmetric_values`` is a second oracle, for ``verify
whitney``: e_0..e_k of rational numbers by one integer recurrence, with
nothing from the polynomial kernel.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm, prod
from operator import index

from . import chern_ring, pushforward
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
        if self.fiber_dimension + self.base > chern_ring.TRUNCATION_LIMIT:
            raise TruncationTooHigh(
                f"the family's total space has dimension "
                f"{self.fiber_dimension + self.base}, above the limit of "
                f"{chern_ring.TRUNCATION_LIMIT}")

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


def elementary_symmetric_values(k, values):
    """[e_0, ..., e_k] of a list of rationals (ints or Fractions): e_j is
    the sum over its j-element sublists of their products, so e_0 = 1 and
    e_j = 0 for j above the list's length.

    The point route of ``verify whitney``, which builds no polynomial:
    with the values written a_i / q over their common denominator q, the
    integers e_j(a_1..a_i) = e_j(a_1..a_{i-1}) + a_i e_{j-1}(a_1..a_{i-1})
    are summed for j <= k, and e_j of the values is e_j(a) / q^j.
    """
    if k < 0:
        raise ValueError("elementary symmetric degree must be >= 0")
    q = lcm(*[x.denominator for x in values])
    e = [1] + [0] * k
    for i, x in enumerate(values, 1):
        a = x.numerator * (q // x.denominator)
        for j in range(min(i, k), 0, -1):
            e[j] += a * e[j - 1]
    return [Fraction(n, q ** j) for j, n in enumerate(e)]


def elementary_symmetric_value(k, values):
    """e_k of a list of rationals, read from ``elementary_symmetric_values``."""
    return elementary_symmetric_values(k, values)[k]


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
    fiber Euler characteristic and the degree is e times that.  Returns
    (degree, rank), the isomorphism data of a graded line bundle on P^m.
    """
    if len(bundle.fiber_degrees) != len(fam.fiber):
        raise UnsupportedFamily(
            "bundle multidegree does not match the number of fiber factors")
    chi = _fiber_chi(fam.fiber, bundle.fiber_degrees)
    return bundle.base_twist * chi, chi


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


# The kept rings: a ``Setup`` or ``Tower`` per key (``_fetch``), least
# recently used first; and the table entries each held when last counted,
# and their sum.  All of them change only under the lock.
_rings = {}
_counted = {}
_held = 0
_lock = threading.Lock()


def _count(key, entries):
    """Record ``entries`` for the ring kept under ``key``, then drop the
    least recently used rings until the kept tables hold at most
    ``TOWER_TABLE_LIMIT`` entries together.  Called under the lock; its
    work does not grow with the number of rings."""
    global _held
    _held += entries - _counted.get(key, 0)
    _counted[key] = entries
    while _held > pushforward.TOWER_TABLE_LIMIT:
        _drop(next(iter(_rings)))


def _drop(key):
    global _held
    del _rings[key]
    _held -= _counted.pop(key)


def _frozen(value):
    """``value`` with its lists made tuples; ``TypeError`` unless it is
    built of lists and tuples of ints and strs alone, so that two equal
    results come from values that the constructor's checks read alike.  A
    tuple of ints and strs is returned as it is."""
    kind = type(value)
    if kind is tuple:
        for item in value:
            kind = type(item)
            if kind is not int and kind is not str:
                return tuple([_frozen(item) for item in value])
        return value
    if kind is list:
        return tuple([_frozen(item) for item in value])
    if kind is int or kind is str:
        return value
    raise TypeError(kind)


def _key(cls, declared):
    """The key of a declaration: the constructor's arguments made
    hashable (``_frozen``) with the current value of every limit that the
    ``Setup`` and ``Tower`` constructors read."""
    return (cls, _frozen(declared), chern_ring.TRUNCATION_LIMIT,
            chern_ring.ROOT_MONOMIAL_LIMIT)


def _fetch(cls, declared):
    """The key of a declaration, its kept ring and the entries the ring
    holds, fetched as ``kept`` describes.  On a miss the ring is built,
    every check of its constructor with it, and on a hit none runs, the
    same declaration under the same limits passing the same checks.  A
    declaration that ``_frozen`` refuses is built fresh and never kept,
    under the key None."""
    try:
        key = _key(cls, declared)
    except TypeError:
        return None, cls(*declared), 0
    with _lock:
        ring = _rings.get(key)
        entries = 0 if ring is None else ring.table_entries()
        if ring is None or entries > pushforward.TOWER_TABLE_LIMIT:
            ring, entries = cls(*declared), 0
        _rings.pop(key, None)
        _rings[key] = ring  # the most recently used
        _count(key, entries)
    return key, ring, entries


def _release(key, ring):
    """Count a ring's entries again once a computation on it is over,
    unless it was dropped meanwhile."""
    with _lock:
        if _rings.get(key) is ring:
            _count(key, ring.table_entries())


@contextmanager
def kept(cls, *declared):
    """The ring ``cls(*declared)``, a ``Setup`` or a ``Tower``, kept for
    its declaration, for the length of a ``with`` block.

    A ring depends only on its constructor's arguments, so one is kept
    per declaration and its tables serve every later block: ``eval``'s
    setup file, the ``verify`` setups, ``verify hrr``'s P^n and the
    product families, keyed by their levels.  It is kept under its raw
    arguments together with the limits the constructor reads (``_key``),
    and built, every check of the constructor with it, only under a new
    key; so a kept ring refuses what a new one refuses, and a kept ring
    whose tables are already past ``TOWER_TABLE_LIMIT`` is replaced by a
    new one.  The entries of the kept tables (normal forms of a tower and
    the towers below it, terms of a setup's class tables) are counted
    when a ring is fetched and when its block ends, and together stay
    within ``TOWER_TABLE_LIMIT``: the least recently used ring is dropped
    first.  The registry changes under a lock, so threads share its
    rings; a ring's tables only gain entries, each the one any thread
    would compute.
    """
    key, ring, _ = _fetch(cls, declared)
    try:
        yield ring
    finally:
        _release(key, ring)


def with_kept(compute, cls, *declared):
    """``compute(ring)`` on the kept ring of a declaration (``kept``).

    A kept table holds entries of earlier calls, so it can reach
    ``TOWER_TABLE_LIMIT`` where a fresh table would not: on
    ``TowerTooLarge`` the ring is dropped, and ``compute`` runs once more
    on a fresh ring unless the refused one was fresh already.
    """
    while True:
        key, ring, entries = _fetch(cls, declared)
        try:
            return compute(ring)
        except TowerTooLarge:
            with _lock:
                if _rings.get(key) is ring:
                    _drop(key)
            if not entries:
                raise
        finally:
            _release(key, ring)


def _family_levels(fam):
    """The levels of the family's total space: base level first, then
    the fiber factors."""
    return Tower.product_levels([fam.base, *fam.fiber])


def pairing_tower(fam):
    """The total space of the family as its kept tower (``kept``), whose
    normal-form table, towers below and Todd classes serve every later
    call.  ``pairing_degree_by_pushforward`` on it counts its table again
    when the table grew."""
    _, tower, _ = _fetch(Tower, [_family_levels(fam)])
    return tower


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
    ``tower`` the family's kept tower serves (``with_kept``); a given
    tower whose table grew is counted again if it is kept under the
    family's key.
    """
    _check_bundles(fam, bundles)
    forms = [(1,)] * (fam.base - 1) + [
        (bundle.base_twist,) + bundle.fiber_degrees for bundle in bundles]

    def degree(tower):
        return integrate(tower.divisor_product(forms))

    if tower is None:
        value = with_kept(degree, Tower, _family_levels(fam))
    else:
        entries = tower.table_entries()
        value = degree(tower)
        if tower.table_entries() != entries:
            _release(_key(Tower, [_family_levels(fam)]), tower)
    if value.denominator != 1:
        raise AssertionError("pairing degree must be an integer")
    return int(value)


def c1_pairing_check(fam, bundles):
    """Exact agreement of the alternating-chi degree with the symbolic
    pushforward degree, plus the vanishing of the alternating rank sum."""
    degree, rank_sum = deligne_pairing_degree(fam, bundles)
    pushed = pairing_degree_by_pushforward(fam, bundles)
    return {
        "degree": degree,
        "rank_sum": rank_sum,
        "pushforward_degree": pushed,
        "match": degree == pushed and rank_sum == 0,
    }
