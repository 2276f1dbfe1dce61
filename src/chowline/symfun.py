"""Symmetric-function machinery on top of the sparse polynomial kernel.

``to_chern_basis`` is the fundamental theorem of symmetric polynomials,
per root block: a polynomial symmetric in each block is rewritten
uniquely in the elementary symmetric polynomials of the blocks.  It
reads the polynomial as a sum of products of monomial symmetric
functions m_lambda, one per block, and sums the outer products of their
rows in the monomial-to-elementary transition matrix (Macdonald,
*Symmetric Functions and Hall Polynomials*, I.2 and I.6).  A row depends
on the block size and the partition alone, so it is kept across calls;
it is filled on first use by the lexicographic reduction run in
partition space on its one orbit, with integer coefficients, from the
dominant parts of the products of the e_i, which are also built once per
block size, one factor at a time.  No polynomial product is formed.
The same sum over orbits (``_orbit_sum``) serves the Chern-basis ring of
a setup (``chern_ring.ChernBasis``), where ``charclass`` sums a class of
a declared bundle over the partitions (``_partitions``) without roots.

Graded units are inverted by one degree-by-degree recurrence,
``_inverse_components``, which continues from any prefix of components it
is given: ``series_invert`` sums its components, and ``chern_ring``
extends with it the per-setup tables of Segre classes (s = 1/c) and of
the Chern classes recovered from them (c = 1/s).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import mul

from .errors import NotSymmetric, UnitPartNotOne
from .poly import Poly, PowerSeries, _lowest, sum_of_products, var_table


def elem_sym(k, variables, grades, bound):
    """Elementary symmetric polynomial e_k of the given variables.

    e_0 = 1 and e_k = 0 for k > #variables.  Each k-subset of the list
    is one monomial, the sum of its variables' packed units, so a variable
    listed twice is counted twice (e_2(x, x, y) = x^2 + 2xy); monomials
    of weighted degree above the bound are dropped.
    """
    if k < 0:
        raise ValueError("elementary symmetric degree must be >= 0")
    if k == 0:
        return Poly.const(1, grades, bound)
    if k > len(variables):
        return Poly.zero(grades, bound)
    table = var_table(grades, bound)
    units = [table.unit[v] for v in sorted(variables)]
    top, nums = (bound + 1) << table.dshift, {}
    for subset in combinations(units, k):
        m = sum(subset)
        if m < top:  # weighted degree at most the bound
            nums[m] = nums.get(m, 0) + 1
    return Poly(nums, 1, table, bound)


def chern_var(index, label=""):
    """Name of the formal class symbol of degree ``index`` for a block."""
    return f"c{index}({label})" if label else f"c{index}"


def _block_fields(p, blocks):
    """For each block, the bit positions of its variables' exponent fields
    in p's packed monomials.  A variable missing from p's table gets a
    position above the degree field, where every monomial reads 0."""
    table = p.grades
    nowhere = table.dshift + table.width
    return [[table.shift.get(v, nowhere) for v in variables]
            for _, variables in blocks]


@lru_cache(maxsize=2048)
def _orbit_size(lam):
    """The number of monomials in the orbit of one block's exponent
    tuple under the permutations of the block, kept per tuple."""
    size = math.factorial(len(lam))
    for e in set(lam):
        size //= math.factorial(lam.count(e))
    return size


def _orbits(p, blocks):
    """The terms of p grouped by orbit: one exponent tuple per block,
    sorted decreasingly (the orbit's dominant monomial) -> the orbit's
    common numerator.  Raises NotSymmetric unless every orbit met holds
    all its monomials with one coefficient, which is invariance under the
    permutations within each block.  Each block of a monomial is keyed by
    its bit pattern, whose exponents are sorted once per call; a block
    none of whose variables occur in p reads as the zero partition, with
    no masking."""
    mask = p.grades.mask
    occurring = 0
    for m in p.nums:
        occurring |= m
    zero = []
    patterns = []
    for b, shifts in enumerate(_block_fields(p, blocks)):
        zero.append((0,) * len(shifts))
        bits = sum(mask << s for s in set(shifts))
        if bits & occurring:
            patterns.append((b, bits, shifts, {}))
    orbits = {}
    for m, n in p.nums.items():
        key = list(zero)
        for b, bits, shifts, lams in patterns:
            pattern = m & bits
            lam = lams.get(pattern)
            if lam is None:
                lam = lams[pattern] = tuple(sorted(
                    [pattern >> s & mask for s in shifts], reverse=True))
            key[b] = lam
        key = tuple(key)
        seen = orbits.get(key)
        if seen is None:
            orbits[key] = [n, 1]
        elif seen[0] != n:
            raise NotSymmetric(
                f"unequal coefficients on the orbit of exponents {key}")
        else:
            seen[1] += 1
    for key, (_, count) in orbits.items():
        size = math.prod(map(_orbit_size, key))
        if count != size:
            raise NotSymmetric(
                f"the orbit of exponents {key} has {count} of its "
                f"{size} monomials")
    return {key: n for key, (n, _) in orbits.items()}


def _times_e(f, i, r):
    """The dominant part of f * e_i over r roots, for f symmetric and given
    by its dominant part (partition -> coefficient).

    coef_mu(f e_i) is the sum of coef_{mu - 1_S}(f) over the i-subsets S of
    the support of mu; f is symmetric, so each of those is read at the
    sorted exponent tuple.  Every mu with a nonzero coefficient is a sorted
    nu + 1_T with nu a partition of f."""
    subsets = list(combinations(range(r), i))
    out = {}
    for nu in f:
        for t in subsets:
            mu = list(nu)
            for j in t:
                mu[j] += 1
            mu = tuple(sorted(mu, reverse=True))
            if mu in out:
                continue
            total = 0
            for s in combinations(range(r - mu.count(0)), i):
                lower = list(mu)
                for j in s:
                    lower[j] -= 1
                total += f.get(tuple(sorted(lower, reverse=True)), 0)
            out[mu] = total
    return {mu: c for mu, c in out.items() if c}


@lru_cache(maxsize=32)
def _e_products(r):
    """The table of ``_e_product`` for blocks of r roots, exponent tuple
    -> dominant part, kept across calls: the products of the e_i over r
    roots depend on r alone.  It holds e^0 = 1 at first; entries are only
    added, each the one any caller would compute, so threads share it."""
    return {(0,) * r: {(0,) * r: 1}}


def _e_product(table, k):
    """The dominant part of e_1^k_1 ... e_r^k_r of one block, memoized in
    ``table`` (``_e_products``): built from the product with one fewer
    factor."""
    chain = []
    while k not in table:
        i = next(j for j, kj in enumerate(k) if kj)
        chain.append((k, i))
        k = k[:i] + (k[i] - 1,) + k[i + 1:]
    f = table[k]
    for key, i in reversed(chain):
        f = table[key] = _times_e(f, i + 1, len(key))
    return f


@lru_cache(maxsize=32)
def _m_rows(r):
    """The kept rows of ``_m_row`` for blocks of r roots, partition ->
    row, kept across calls like ``_e_products``: m_lambda over r roots
    depends on r alone.  Only partitions of degree at most
    ``chern_ring.TRUNCATION_LIMIT`` (16) are kept, so a block size keeps
    at most 915 rows (the partitions of 0..16), each of at most 231 terms
    (the partitions of 16); 32 block sizes are kept, the least recently
    used dropped first.  Entries are only added, each the one any caller
    would compute, so threads share it."""
    return {}


def _m_row(r, lam):
    """The row of the monomial-to-elementary transition matrix at lam:
    m_lam over r roots as a list of (k, a_k), with m_lam the sum of
    a_k e_1^k_1 ... e_r^k_r, the a_k nonzero integers (Macdonald, I.2
    and I.6).  It is the lexicographic reduction run on the one orbit:
    subtracting the dominant part of the e-product matching the lead l,
    e_1^{l_1 - l_2} ... e_r^{l_r} (``_e_product``), strictly lowers it.
    Kept in ``_m_rows``."""
    rows = _m_rows(r)
    row = rows.get(lam)
    if row is not None:
        return row
    table, rem, row = _e_products(r), {lam: 1}, []
    while rem:
        lead = max(rem)
        c = rem[lead]
        k = tuple(a - b for a, b in zip(lead, lead[1:] + (0,)))
        for mu, coeff in _e_product(table, k).items():
            left = rem.get(mu, 0) - c * coeff
            if left:
                rem[mu] = left
            else:
                del rem[mu]
        row.append((k, c))
    from .chern_ring import TRUNCATION_LIMIT  # chern_ring imports symfun
    if sum(lam) <= TRUNCATION_LIMIT:
        rows[lam] = row
    return row


def to_chern_basis(p, blocks):
    """Rewrite a block-symmetric polynomial in elementary symmetric classes.

    ``blocks`` is a list of (label, variables) pairs; every variable of p
    must belong to exactly one block and have grade 1.  The image lives in
    variables ``c1(label), c2(label), ...`` of grades 1, 2, ... (label
    omitted when empty); those grades are right only because the roots
    have grade 1, so a block variable of another grade raises
    ``ValueError``.  Substituting e_i(block) back for each class symbol
    recovers p exactly.

    A polynomial symmetric within each block is a sum, over its orbits,
    of the orbit's coefficient times the product over the blocks of the
    monomial symmetric functions m_lambda, one partition per block.  So
    the terms are grouped by orbit in one pass, which also checks the
    symmetry (``_orbits``), and the image is the sum over the orbits of
    the outer products of the blocks' rows of the monomial-to-elementary
    transition matrix (``_m_row``, summed by ``_orbit_sum``).  A row
    depends only on the block size and the partition: it is computed
    once by the lexicographic reduction and kept across calls
    (``_m_rows``).
    """
    seen = set()
    for _, variables in blocks:
        for v in variables:
            if v in seen:
                raise ValueError(f"variable {v!r} appears in two blocks")
            if p.grades.get(v, 1) != 1:
                raise ValueError(
                    f"block variable {v!r} has grade {p.grades[v]}, not 1")
            seen.add(v)
    stray = p.variables() - seen
    if stray:
        raise ValueError(f"variables {sorted(stray)} belong to no block")

    sizes = [(label, len(variables)) for label, variables in blocks]
    return _orbit_sum(_orbits(p, blocks), p.den, sizes,
                      chern_table(sizes, p.bound), p.bound)


def chern_table(blocks, bound):
    """The table of the Chern-basis ring of blocks given as (label, size)
    pairs: ``c1(label), ..., c<size>(label)`` of grades 1, ..., size."""
    return var_table({chern_var(i, label): i for label, r in blocks
                      for i in range(1, r + 1)}, bound)


def _orbit_sum(orbits, den, blocks, table, bound):
    """The polynomial in ``table`` of the sum over ``orbits`` (one
    partition per block of ``blocks``, (label, size) pairs -> numerator
    over ``den``) of the numerator times the outer product of the blocks'
    rows (``_m_row``), each row packed in the table once per call."""
    # Per block: its size, the packed units of its class symbols, and the
    # rows met so far with their e-monomials packed in the table.
    packed = [(r, [table.unit[chern_var(i, label)] for i in range(1, r + 1)],
               {}) for label, r in blocks]
    nums = {}
    for key, n in orbits.items():
        terms = [(0, n)]
        for lam, (r, units, rows) in zip(key, packed):
            if not lam or not lam[0]:
                continue  # m of the zero partition is 1
            row = rows.get(lam)
            if row is None:
                row = rows[lam] = [(sum(map(mul, k, units)), a)
                                   for k, a in _m_row(r, lam)]
            terms = [(m + m2, c * a) for m, c in terms for m2, a in row]
        for m, c in terms:
            nums[m] = nums.get(m, 0) + c
    return _lowest({m: c for m, c in nums.items() if c}, den, table, bound)


@lru_cache(maxsize=64)
def _partitions(r, bound):
    """The partitions of 0..bound into at most r parts, each a decreasing
    tuple of r parts, zeros last: the dominant monomials of the symmetric
    polynomials in r roots truncated at ``bound``."""
    parts = [((), bound, bound)]  # (parts so far, degree left, last part)
    for _ in range(r):
        parts = [(lam + (k,), left - k, k) for lam, left, last in parts
                 for k in range(min(left, last) + 1)]
    return tuple(lam for lam, _, _ in parts)


def _inverse_components(parts, head, top):
    """The components t_0..t_top of the inverse of a graded unit,
    continued from the known components ``head`` = [t_0, ..., t_{n-1}].

    ``parts`` maps j >= 1 to the homogeneous part s_j of the unit
    1 + sum_j s_j, and ``head`` holds at least t_0 = 1, the unit of their
    ring.  Then t_m = sum_{1 <= j <= m} (-s_j) t_{m-j}: degree m of the
    identity (1 + sum_j s_j)(sum_m t_m) = 1.  Only t_n..t_top are
    computed, each as one ``sum_of_products`` of homogeneous parts, over
    one denominator and reduced once.  Returns a new list; ``head`` is
    left as it was.
    """
    t = list(head)
    parts = [(j, s_j) for j, s_j in sorted(parts.items()) if j <= top]
    for m in range(len(t), top + 1):
        t.append(sum_of_products([(-1, s_j, t[m - j]) for j, s_j in parts
                                  if j <= m], t[0].grades, t[0].bound))
    return t


def series_invert(s: Poly):
    """Inverse of a graded element with degree-0 part 1, at its bound.

    Its homogeneous parts run through the degree-by-degree recurrence of
    ``_inverse_components``, up to the truncation bound; to invert at a
    lower bound, truncate first.
    """
    parts = s.graded_parts()
    if parts.pop(0, None) != 1:
        raise UnitPartNotOne("graded element must have degree-0 part equal to 1")
    one, *rest = _inverse_components(
        parts, [Poly.const(1, s.grades, s.bound)], s.bound)
    return sum(rest, one)


# -- standard series -------------------------------------------------------
#
# Each is built once per order and shared, which is safe because a
# PowerSeries is immutable.  The orders asked for are truncations, at most
# chern_ring.TRUNCATION_LIMIT, so the caches stay small; they fill on
# first use, never at import.

@lru_cache(maxsize=32)
def exp_series(order):
    """exp(T) = sum T^n / n!."""
    return PowerSeries.from_function(
        lambda n: Fraction(1, math.factorial(n)), order)


@lru_cache(maxsize=32)
def todd_series(order):
    """T / (1 - e^{-T}) = 1 + T/2 + T^2/12 - T^4/720 + ...

    Computed as the inverse of (1 - e^{-T})/T = sum (-1)^n T^n/(n+1)!.
    """
    denom = PowerSeries.from_function(
        lambda n: Fraction((-1) ** n, math.factorial(n + 1)), order)
    return denom.inverse()


@lru_cache(maxsize=32)
def todd_star_series(order):
    """The Todd series with its degree-k coefficient scaled by (-1)^k,
    i.e. T/(e^T - 1)."""
    return todd_series(order).alternate()
