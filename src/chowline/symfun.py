"""Symmetric-function machinery on top of the sparse polynomial kernel.

The two workhorses are:

* ``to_chern_basis`` -- the fundamental theorem of symmetric polynomials,
  per root block: a polynomial symmetric in each block is rewritten
  uniquely in the elementary symmetric polynomials of the blocks.

* ``phi_components`` / ``psi_components`` -- the universal polynomials
  expressing sum_j phi(T_j) (additive case) and prod_j psi(T_j)
  (multiplicative case) in the elementary symmetric polynomials c_1..c_k.
  The degree-k component is computed with exactly k internal roots, the
  minimum valid count; independence of the root count is a theorem and is
  asserted by the test suite rather than re-derived here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from .errors import (
    ConstantTermNotOne,
    NonzeroConstantTerm,
    NotSymmetric,
    UnitPartNotOne,
)
from .poly import Poly, PowerSeries


def elem_sym(k, variables, grades, bound):
    """Elementary symmetric polynomial e_k of the given variables.

    e_0 = 1 and e_k = 0 for k > #variables.
    """
    if k < 0:
        raise ValueError("elementary symmetric degree must be >= 0")
    if k == 0:
        return Poly.const(1, grades, bound)
    if k > len(variables):
        return Poly.zero(grades, bound)
    return Poly.make({tuple((v, 1) for v in subset): 1
                      for subset in combinations(sorted(variables), k)},
                     grades, bound)


def chern_var(index, label=""):
    """Name of the formal class symbol of degree ``index`` for a block."""
    return f"c{index}({label})" if label else f"c{index}"


def _swap_adjacent(p, a, b):
    return p.rename({a: b, b: a})


def check_block_symmetry(p, blocks):
    """Raise NotSymmetric unless p is invariant under permutations within
    each block.  Invariance under adjacent transpositions generates the
    full symmetric group, so checking those suffices."""
    for _, variables in blocks:
        for a, b in zip(variables, variables[1:]):
            if _swap_adjacent(p, a, b) != p:
                raise NotSymmetric(
                    f"not invariant under swapping {a!r} and {b!r}")


def to_chern_basis(p, blocks):
    """Rewrite a block-symmetric polynomial in elementary symmetric classes.

    ``blocks`` is a list of (label, variables) pairs; every variable of p
    must belong to exactly one block.  The image lives in variables
    ``c1(label), c2(label), ...`` of grades 1, 2, ... (label omitted when
    empty).  Substituting e_i(block) back for each class symbol recovers p
    exactly.

    The rewriting is the classical lexicographic reduction: the leading
    monomial of a symmetric polynomial has weakly decreasing exponents
    along each block, and subtracting the matching product of elementary
    symmetric polynomials strictly lowers the lead.
    """
    block_vars = []
    seen = {}
    for label, variables in blocks:
        for v in variables:
            if v in seen:
                raise ValueError(f"variable {v!r} appears in two blocks")
            seen[v] = label
        block_vars.extend(variables)
    stray = p.variables() - seen.keys()
    if stray:
        raise ValueError(f"variables {sorted(stray)} belong to no block")

    check_block_symmetry(p, blocks)

    out_grades = {}
    for label, variables in blocks:
        for i in range(1, len(variables) + 1):
            out_grades[chern_var(i, label)] = i

    # Position of each variable in the global lex order.
    position = {v: i for i, v in enumerate(block_vars)}
    nvars = len(block_vars)

    def lex_key(mono):
        exps = [0] * nvars
        for v, e in mono:
            exps[position[v]] = e
        return tuple(exps)

    result = Poly.zero(out_grades, p.bound)
    work = p
    while not work.is_zero():
        lead_mono = max(work.monomials(), key=lex_key)
        lead_coeff = work.coefficient(lead_mono)
        exps = dict(lead_mono)
        expansion = Poly.const(lead_coeff, p.grades, p.bound)
        image_mono = {}
        for label, variables in blocks:
            lam = [exps.get(v, 0) for v in variables]
            if any(a < b for a, b in zip(lam, lam[1:])):
                raise NotSymmetric(
                    "leading exponents not weakly decreasing within a block")
            lam.append(0)
            for i in range(1, len(variables) + 1):
                power = lam[i - 1] - lam[i]
                if power:
                    expansion = expansion * (
                        elem_sym(i, variables, p.grades, p.bound) ** power)
                    image_mono[chern_var(i, label)] = power
        work = work - expansion
        key = tuple(sorted(image_mono.items()))
        result = result + Poly.make({key: lead_coeff}, out_grades, p.bound)
    return result


def _internal_roots(r, bound):
    grades = {f"t{j}": 1 for j in range(1, r + 1)}
    return [Poly.var(f"t{j}", grades, bound) for j in range(1, r + 1)], grades


def phi_components(phi: PowerSeries, k, roots=None):
    """Degree-k universal polynomial of an additive series.

    For phi with phi(0) = 0, returns the unique polynomial Phi_k in
    c_1..c_k of weighted degree k with sum_j phi(T_j) = Phi_k(e_1..e_k)
    for any number of roots >= k.  ``roots`` overrides the internal root
    count (used by tests to confirm the r-independence).
    """
    if k < 1:
        raise ValueError("component degree must be >= 1")
    if phi.coeffs[0] != 0:
        raise NonzeroConstantTerm("additive series must satisfy phi(0) = 0")
    r = roots if roots is not None else k
    if r < k:
        raise ValueError(f"need at least {k} roots for the degree-{k} component")
    vars_, grades = _internal_roots(r, k)
    total = Poly.zero(grades, k)
    for t in vars_:
        total = total + phi.apply_to(t)
    block = [("", [f"t{j}" for j in range(1, r + 1)])]
    rewritten = to_chern_basis(total, block)
    return rewritten.graded_part(k)


def psi_components(psi: PowerSeries, k, roots=None):
    """Degree-k part of the multiplicative class prod_j psi(T_j), in c_1..c_k."""
    if k < 0:
        raise ValueError("component degree must be >= 0")
    if psi.coeffs[0] != 1:
        raise ConstantTermNotOne("multiplicative series must satisfy psi(0) = 1")
    r = roots if roots is not None else max(k, 1)
    if k and r < k:
        raise ValueError(f"need at least {k} roots for the degree-{k} component")
    vars_, grades = _internal_roots(r, max(k, 0))
    product = Poly.const(1, grades, k)
    for t in vars_:
        product = product * psi.apply_to(t)
    block = [("", [f"t{j}" for j in range(1, r + 1)])]
    rewritten = to_chern_basis(product, block)
    return rewritten.graded_part(k)


def series_invert(s: Poly, bound=None):
    """Inverse of a graded element with degree-0 part 1.

    Writing s = 1 - u with u of positive degree, the inverse is the
    geometric sum 1 + u + u^2 + ..., which terminates at the truncation
    bound.
    """
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


# -- standard series -------------------------------------------------------

def exp_series(order):
    """exp(T) = sum T^n / n!."""
    return PowerSeries.from_function(
        lambda n: Fraction(1, math.factorial(n)), order)


def exp_minus_one_series(order):
    """exp(T) - 1, the additive series of the Chern character's positive part."""
    s = exp_series(order)
    return PowerSeries([Fraction(0)] + s.coeffs[1:])


def todd_series(order):
    """T / (1 - e^{-T}) = 1 + T/2 + T^2/12 - T^4/720 + ...

    Computed as the inverse of (1 - e^{-T})/T = sum (-1)^n T^n/(n+1)!.
    """
    denom = PowerSeries.from_function(
        lambda n: Fraction((-1) ** n, math.factorial(n + 1)), order)
    return denom.inverse()


def todd_star_series(order):
    """The Todd series with its degree-k coefficient scaled by (-1)^k,
    i.e. T/(e^T - 1)."""
    return todd_series(order).alternate()


def one_plus_t_series(order):
    """1 + T: the multiplicative series of the total Chern class."""
    coeffs = [Fraction(0)] * (order + 1)
    coeffs[0] = Fraction(1)
    if order >= 1:
        coeffs[1] = Fraction(1)
    return PowerSeries(coeffs)
