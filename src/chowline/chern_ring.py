"""The graded ring of formal Chern classes of a declared set of bundles.

A setup declares finitely many constant-rank bundles.  Each rank-r bundle
contributes r Chern-root variables of degree 1, and every class is stored
internally as a polynomial in the roots, symmetric within each bundle's
block.  This makes the splitting principle a tautology: the Whitney
formula, duality, twisting by a line bundle and the Segre recurrence all
become literal polynomial identities, checkable by exact equality, and
rank triviality (c_k(E) = 0 for k > rk E) is structural rather than an
imposed relation.  Segre classes s = 1/c, the Chern classes recovered
from them, and ``ChernSeries.inverse`` all invert a graded unit, and all
go through the one degree-by-degree recurrence of ``symfun``.

A setup is fixed once built, so its Chern classes, its Segre classes and
the Chern classes recovered from those are ring constants: each is
computed once per setup and bundle, on first use, into a table that the
recurrence extends only as far as the degree asked.  Every call still
returns a new ``ChernSeries`` over the shared, immutable polynomial.

The Chern-monomial presentation (polynomials in symbols c_k(E)) is a
display layer produced by ``to_chern_basis``; the root representation
remains the canonical form.

``RingClass`` is the one element type of every truncated graded ring in
the package: a ring object and a polynomial representative in that ring's
normal form.  It carries the arithmetic; ``ChernSeries`` (this module)
adds the Chern-ring operations, and ``pushforward.TowerClass`` adds the
reducing product of a tower's ring.  One bound per ring: every element
is truncated at its ring's bound.  One door per ring: a polynomial enters
only through ``ring.from_poly``, which reduces it in a tower.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb

from .errors import SetupTooLarge, Truncated, TruncationTooHigh, UnknownBundle
from .poly import Poly, VarTable
from .symfun import (
    _inverse_components,
    elem_sym,
    series_invert,
    to_chern_basis,
)


# The work of a class grows steeply with the truncation: the rank-4
# Borel-Serre check takes about 0.007 s at truncation 8, 0.07 s at 12 and
# 0.43 s at 16 (one call in process, 2-vCPU VM).  Every shipped workload
# uses 4 to 8.  A setup of higher truncation, and a tower or family of
# higher dimension, is refused.
TRUNCATION_LIMIT = 16

# Within that truncation the rank is bounded too: a setup whose Chern roots
# have more monomials of degree at most the truncation than this,
# comb(roots + truncation, truncation), is refused before any work, for
# that count bounds the terms of every element of its ring.  ``eval
# "td(E)"`` and ``eval "td(E)*ch(E)"`` on one bundle at truncation 8, time
# and peak RSS of one process each (2-vCPU VM):
#
#   rank  monomials  td(E)            td(E)*ch(E)
#     8      12,870  0.02 s   19 MB   0.04 s   21 MB
#    10      43,758  0.06 s   25 MB   0.15 s   29 MB
#    12     125,970  0.20 s   38 MB   0.48 s   55 MB
#    14     319,770  0.63 s   85 MB   1.4 s   109 MB
#    16     735,471  1.7 s   170 MB   4.0 s   279 MB
#
# and ``td(E)`` at rank 24 runs out of memory under a 1 GB ``ulimit -v``.
# The largest setup of the tests and the benchmark catalogue has 10 roots
# at truncation 8.
ROOT_MONOMIAL_LIMIT = 65_536


@dataclass(frozen=True)
class BundleDecl:
    """A named vector bundle of constant positive rank."""
    name: str
    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(
                f"bundle {self.name!r} must have rank >= 1; model rank-0 "
                "summands as the empty virtual sum")


class Setup:
    """A geometric setup: named bundles, relative dimension and truncation.

    The truncation bound D must be at least n+1 so that the degree used for
    pairing computations is representable.

    A setup is not modified after construction, so its classes are ring
    constants: each bundle's Chern classes, its Fulton Segre classes and
    the Chern classes recovered from those are kept in three tables, empty
    at first and filled on first use.  None goes past the truncation: the
    Chern table holds c_0..c_m, m = min(r, truncation), and the other two
    are extended only up to the degree asked, so a bundle holds at most
    3 (truncation + 1) polynomials.  A table is replaced, never edited in
    place, by a longer list of the same values.
    """

    def __init__(self, bundles, relative_dimension=0, truncation=8):
        decls = []
        for b in bundles:
            if isinstance(b, BundleDecl):
                decls.append(b)
            else:
                decls.append(BundleDecl(*b))
        names = [b.name for b in decls]
        if len(set(names)) != len(names):
            raise ValueError("bundle names must be unique within a setup")
        if relative_dimension < 0:
            raise ValueError("relative dimension must be >= 0")
        if truncation < relative_dimension + 1:
            raise ValueError(
                "truncation must be at least relative_dimension + 1")
        if truncation > TRUNCATION_LIMIT:
            raise TruncationTooHigh(
                f"truncation {truncation} exceeds the limit of "
                f"{TRUNCATION_LIMIT}")
        roots = sum(b.rank for b in decls)
        monomials = comb(roots + truncation, truncation)
        if monomials > ROOT_MONOMIAL_LIMIT:
            raise SetupTooLarge(
                f"{roots} Chern roots at truncation {truncation} span "
                f"{monomials} monomials, above the limit of "
                f"{ROOT_MONOMIAL_LIMIT}")
        self.bundles = {b.name: b for b in decls}
        self.relative_dimension = relative_dimension
        self.truncation = truncation
        self.grades = VarTable({self._root_name(b.name, i): 1
                                for b in decls for i in range(1, b.rank + 1)},
                               truncation)
        self._chern = {}      # name -> [c_0, ..., c_m], m = min(r, truncation)
        self._segre = {}      # name -> [s_0, ..., s_m], s = 1/c
        self._recovered = {}  # name -> [c_0, ..., c_m], from 1/s

    @staticmethod
    def _root_name(bundle, index):
        return f"{bundle}.{index}"

    def rank(self, name):
        if name not in self.bundles:
            raise UnknownBundle(f"bundle {name!r} is not declared")
        return self.bundles[name].rank

    def root_vars(self, name):
        rank = self.rank(name)
        return [self._root_name(name, i) for i in range(1, rank + 1)]

    def roots(self, name):
        return tuple(Poly.var(v, self.grades, self.truncation)
                     for v in self.root_vars(name))

    def zero(self):
        return ChernSeries(self, Poly.zero(self.grades, self.truncation))

    # -- class tables ------------------------------------------------------

    def _chern_classes(self, name):
        """[c_0, ..., c_m] of a declared bundle, as polynomials, with
        m = min(rank, truncation): every higher class is 0 here."""
        table = self._chern.get(name)
        if table is None:
            vars_ = self.root_vars(name)
            table = self._chern[name] = [
                elem_sym(k, vars_, self.grades, self.truncation)
                for k in range(min(len(vars_), self.truncation) + 1)]
        return table

    def _inverted(self, tables, name, unit, top):
        """Components 0..top (top <= truncation) of the inverse of the
        unit whose homogeneous parts are ``unit``, kept in
        ``tables[name]``; only the components it lacks are computed."""
        table = tables.get(name) or [
            Poly.const(1, self.grades, self.truncation)]
        if len(table) <= top:
            parts = dict(enumerate(unit[1:top + 1], 1))
            table = tables[name] = _inverse_components(parts, table, top)
        return table

    def _segre_classes(self, name, top):
        """[s_0, ..., s_m], m >= top, the Fulton Segre classes s = 1/c."""
        return self._inverted(self._segre, name, self._chern_classes(name),
                              top)

    def _recovered_classes(self, name, top):
        """[c_0, ..., c_m], m >= top, the inverse of the Segre series."""
        return self._inverted(self._recovered, name,
                              self._segre_classes(name, top), top)

    def const(self, value):
        return ChernSeries(self, Poly.const(value, self.grades, self.truncation))

    def from_poly(self, poly):
        """The class of a polynomial in the roots (``Poly.recode``):
        ``TypeError`` for a foreign variable or a lower bound."""
        return ChernSeries(self, poly.recode(self.grades, self.truncation))

    # -- serialization -----------------------------------------------------

    @classmethod
    def from_dict(cls, data):
        """The setup ``to_dict`` describes.  Ranks, the relative dimension
        and the truncation must be integers: 2.7 or ``true`` is refused
        with ``ValueError``, not read as 2 or 1."""
        def integer(key, value):
            if type(value) is not int:
                raise ValueError(f"{key} must be an integer, got {value!r}")
            return value

        bundles = [BundleDecl(b["name"], integer("rank", b["rank"]))
                   for b in data.get("bundles", [])]
        return cls(bundles,
                   relative_dimension=integer(
                       "relative_dimension", data.get("relative_dimension", 0)),
                   truncation=integer("truncation", data.get("truncation", 8)))

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))

    def to_dict(self):
        return {
            "bundles": [{"name": b.name, "rank": b.rank}
                        for b in self.bundles.values()],
            "relative_dimension": self.relative_dimension,
            "truncation": self.truncation,
        }


class RingClass:
    """An element of a truncated graded ring, kept in the ring's normal form.

    ``ring`` is the object that made the element (a ``Setup`` or a
    ``Tower``) and ``poly`` its representative, at the ring's bound.
    Arithmetic with an element of the same ring object, a rational number
    or a polynomial (through ``ring.from_poly``) stays in the ring; an
    element of any other ring object, even one of the same class and
    declarations, is refused with ``TypeError``.  Elements of two different
    ring objects are never equal; within one ring, equality is that of the
    representatives.
    """

    __slots__ = ("ring", "poly")

    def __init__(self, ring, poly):
        self.ring = ring
        self.poly = poly

    def _coerce(self, other):
        if isinstance(other, RingClass):
            if other.ring is not self.ring:
                raise TypeError(
                    "cannot combine elements of two different rings")
            return other.poly
        if isinstance(other, Poly):
            return self.ring.from_poly(other).poly
        return other

    def __add__(self, other):
        return type(self)(self.ring, self.poly + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return type(self)(self.ring, self.poly - self._coerce(other))

    def __rsub__(self, other):
        return type(self)(self.ring, self._coerce(other) - self.poly)

    def __mul__(self, other):
        return type(self)(self.ring, self.poly * self._coerce(other))

    __rmul__ = __mul__

    def __pow__(self, n):
        return type(self)(self.ring, self.poly ** n)

    def __neg__(self):
        return type(self)(self.ring, -self.poly)

    def __eq__(self, other):
        if isinstance(other, RingClass) and other.ring is not self.ring:
            return False
        return self.poly == self._coerce(other)

    def is_zero(self):
        return self.poly.is_zero()

    def graded_part(self, k):
        return type(self)(self.ring, self.poly.graded_part(k))

    def __str__(self):
        return str(self.poly)

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class ChernSeries(RingClass):
    """A truncated graded element of the formal intersection ring of a
    ``Setup``."""

    __slots__ = ()

    @property
    def setup(self):
        return self.ring

    def alternate_signs(self):
        return ChernSeries(self.ring, self.poly.alternate_signs())

    def inverse(self):
        return ChernSeries(self.ring, series_invert(self.poly))

    def evaluate(self, values):
        return self.poly.evaluate(values)

    def chern_basis(self):
        """Presentation in the Chern-monomial symbols c_k(bundle)."""
        blocks = [(name, self.ring.root_vars(name))
                  for name in self.ring.bundles]
        return to_chern_basis(self.poly, blocks)

    def __str__(self):
        return str(self.chern_basis())


# -- operations --------------------------------------------------------------


def chern_class(setup, name, k):
    """c_k(E): the k-th elementary symmetric polynomial of E's roots.

    c_0 = 1, and c_k = 0 identically for k > rk E.
    """
    if k < 0:
        raise ValueError("Chern class degree must be >= 0")
    table = setup._chern_classes(name)
    return setup.zero() if k >= len(table) else ChernSeries(setup, table[k])


def whitney_expand(setup, first, second, k):
    """The Whitney expansion sum_i c_i(first) * c_{k-i}(second).

    Evaluated on the concatenation of the two root blocks this equals
    c_k(first + second), i.e. e_k of the combined roots.
    """
    total = setup.zero()
    for i in range(k + 1):
        total = total + chern_class(setup, first, i) * chern_class(setup, second, k - i)
    return total


def dual_class(setup, name, k):
    """c_k of the dual bundle: (-1)^k c_k(E), equal to e_k of the negated roots."""
    sign = 1 if k % 2 == 0 else -1
    return chern_class(setup, name, k) * sign


def tensor_line(setup, name, line, k):
    """c_k(E (x) L) for a line bundle L, expanded in c_i(E) and c_1(L).

    The coefficient of c_{k-i}(E) c_1(L)^i is binom(r-k+i, i), which is
    what expanding e_k over the shifted roots x_j + l yields (cf. Fulton,
    Intersection Theory, Remark 3.2.3(b)).
    """
    r = setup.rank(name)
    if setup.rank(line) != 1:
        raise UnknownBundle(f"{line!r} must be a declared line bundle")
    c1L = chern_class(setup, line, 1)
    total = setup.zero()
    for i in range(k + 1):
        coeff = comb(r - k + i, i) if r - k + i >= 0 else 0
        if coeff:
            total = total + chern_class(setup, name, k - i) * (c1L ** i) * coeff
    return total


def tensor_line_oracle(setup, name, line, k):
    """e_k of the shifted roots {x_j + l}: the splitting-principle value of
    c_k(E (x) L).  Kept separate so the closed formula has an independent
    check."""
    ell = chern_class(setup, line, 1)
    shifted = [setup.from_poly(root) + ell for root in setup.roots(name)]
    # e_k of explicit ring elements, by dynamic programming over
    # prod_j (1 + t x_j): coefficient of t^k.
    layers = [setup.const(1)] + [setup.zero()] * k
    for x in shifted:
        for i in range(min(k, len(shifted)), 0, -1):
            layers[i] = layers[i] + layers[i - 1] * x
    return layers[k]


def segre_class(setup, name, k, fulton=False):
    """Segre class s_k(E).

    In the Fulton convention s(E) = 1/c(E): s_k is component k of the
    inverse of c(E), s_k = -sum_{j>=1} c_j s_{k-j}.  The default convention
    carries an extra (-1)^k per degree, so that the recurrence
    sum_{i=0}^k (-1)^i s_i c_{k-i} = 0 holds for k >= 1 and c_1 = s_1.
    Beyond the truncation s_k is 0.
    """
    if k < 0:
        raise ValueError("Segre class degree must be >= 0")
    setup.rank(name)  # UnknownBundle at every degree
    if k > setup.truncation:
        return setup.zero()
    s_k = setup._segre_classes(name, k)[k]
    return ChernSeries(setup, s_k if fulton or k % 2 == 0 else -s_k)


def chern_from_segre(setup, name, k, fulton=False):
    """c_k recovered from the Segre classes: component k of the inverse
    of s(E) = 1/c(E), c_k = -sum_{i>=1} s_i c_{k-i} with the Fulton s_i.

    In the default convention the recurrence reads
    c_k = sum_{i=1}^{k} (-1)^{i+1} s_i c_{k-i}, and its signs cancel those
    of the s_i, so both values of ``fulton`` give the same class.  Equals
    chern_class(setup, name, k) identically, but is computed from the
    Segre classes alone, never read from the Chern classes.
    """
    if k < 0:
        raise ValueError("Chern class degree must be >= 0")
    setup.rank(name)  # UnknownBundle at every degree
    if k > setup.truncation:
        return setup.zero()
    return ChernSeries(setup, setup._recovered_classes(name, k)[k])


def first_chern_det(setup, virtual):
    """c_1(det V) = c_1(V) for a virtual bundle, additive in every sum.

    Accepts a VirtualBundle expression; the first Chern class is the
    single root of det V, the coefficient-weighted sum of all roots.
    """
    [(_, (root,))] = virtual.det().summands(setup)
    return setup.from_poly(root)


def integrate_formal(series, degree):
    """Extract the homogeneous component of the given degree.

    Components beyond the truncation bound were never computed and cannot
    be recovered, so asking for them raises Truncated.
    """
    if degree > series.setup.truncation:
        raise Truncated(
            f"degree {degree} exceeds the truncation bound "
            f"{series.setup.truncation}")
    return series.graded_part(degree)
