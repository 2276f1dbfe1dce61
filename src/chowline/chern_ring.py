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
``elementary_classes``, e_k of explicit roots by a recursion of its own,
is the one oracle of duality (negated roots) and twisting (roots shifted
by c_1(L)), as the splitting principle states them.

A setup is fixed once built, so its Chern classes, its Segre classes and
the Chern classes recovered from those are ring constants: each is
computed once per setup and bundle, on first use, into a table that the
recurrence extends only as far as the degree asked.  So are the blocks
of characteristic classes that ``charclass`` folds per bundle
(``Setup.block``).  Every call still
returns a new ``ChernSeries`` over the shared, immutable polynomial.

The Chern-monomial presentation (polynomials in symbols c_k(E)) is a
display layer produced by ``to_chern_basis``; the root representation
remains the canonical form.  A characteristic class's universal
polynomial is the ``chern_basis`` of its value on a declared bundle.
``Setup.basis`` is the setup's Chern-basis ring (``ChernBasis``), whose
elements are ``ChernSeries`` over polynomials in the c_k(E) themselves;
``eval`` computes there.

``RingClass`` is the one element type of every truncated graded ring in
the package: a ring object and a polynomial representative in that ring's
normal form.  It carries the arithmetic, the binomial power included;
``ChernSeries`` (this module) adds the Chern-ring operations, and
``pushforward.TowerClass`` adds the reducing product of a tower's ring,
which its powers then go through.  One bound per ring: every element
is truncated at its ring's bound.  One door per ring: a polynomial enters
only through ``ring.from_poly``, which reduces it in a tower.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate
from math import comb

from .errors import (
    NotSymmetric,
    SetupTooLarge,
    TruncationTooHigh,
    UnknownBundle,
)
from .poly import Poly, VarTable, sum_of_products
from .symfun import (
    _inverse_components,
    chern_table,
    chern_var,
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


def _plain_int(what, value, least):
    """``value`` if it is an ``int`` of at least ``least``: a bool, a float
    or anything else is refused with ``ValueError``, not read as a number."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{what} must be >= {least}, got {value}")
    return value


class Setup:
    """A geometric setup: named bundles, relative dimension and truncation.

    The declaration is a list of ``(name, rank)`` pairs, a string name and
    an ``int`` rank of at least 1 each (rank-0 summands are the empty
    virtual sum), with no name twice; ``bundles`` maps each name to its
    rank.  The relative dimension n is an ``int`` of at least 0, and only
    sets the least truncation: the truncation bound D is an ``int`` of at
    least n+1.  A bool or a float is refused, not read as a number.  Each
    of these refusals is a ``ValueError``.

    A setup is not modified after construction, so its classes are ring
    constants: each bundle's Chern classes, its Fulton Segre classes and
    the Chern classes recovered from those are kept in three tables, empty
    at first and filled on first use.  None goes past the truncation: the
    Chern table holds c_0..c_m, m = min(r, truncation), and the other two
    are extended only up to the degree asked, so they hold at most
    3 (truncation + 1) polynomials a bundle.  A table is replaced, never
    edited in place, by a longer list of the same values.  The blocks of
    ``charclass`` (sum_i (g(x_i) - g_0) or prod_i g(x_i) of a bundle's
    roots, for a folded class series g) are kept beside them, one
    polynomial per ring, bundle, kind and series (``block``): a bundle
    holds one block per distinct folded series used on it, in the roots
    or in the Chern basis (``basis``).  Each bundle's roots, the
    tuple of its rank ``Poly.var``s, are kept the same way from the first
    ``roots`` call; ``Poly``s are immutable, so every evaluation shares
    them.  They hold one term per root and are not counted as table terms.

    A setup depends only on its constructor's arguments, and every check
    runs in the constructor, limits included.  So the command line keeps
    one per declaration (``dcoh.kept``), under its raw arguments and those
    limits: its tables then serve every later request that declares the
    same bundles, relative dimension and truncation, and their terms
    count against ``TOWER_TABLE_LIMIT``.
    """

    def __init__(self, bundles, relative_dimension=0, truncation=8):
        self.bundles = {}
        for name, rank in bundles:
            if type(name) is not str:
                raise ValueError(
                    f"a bundle name must be a string, got {name!r}")
            if name in self.bundles:
                raise ValueError("bundle names must be unique within a setup")
            self.bundles[name] = _plain_int(f"the rank of {name!r}", rank, 1)
        _plain_int("the relative dimension", relative_dimension, 0)
        _plain_int("the truncation", truncation, relative_dimension + 1)
        if truncation > TRUNCATION_LIMIT:
            raise TruncationTooHigh(
                f"truncation {truncation} exceeds the limit of "
                f"{TRUNCATION_LIMIT}")
        roots = sum(self.bundles.values())
        monomials = comb(roots + truncation, truncation)
        if monomials > ROOT_MONOMIAL_LIMIT:
            raise SetupTooLarge(
                f"{roots} Chern roots at truncation {truncation} span "
                f"{monomials} monomials, above the limit of "
                f"{ROOT_MONOMIAL_LIMIT}")
        self.relative_dimension = relative_dimension
        self.truncation = truncation
        self.grades = VarTable({self._root_name(name, i): 1
                                for name, rank in self.bundles.items()
                                for i in range(1, rank + 1)},
                               truncation)
        # (kind, name) -> the bundle's table of that kind: "chern" holds
        # [c_0, ..., c_m], m = min(r, truncation), "segre" [s_0, ..., s_m]
        # with s = 1/c, "recovered" [c_0, ..., c_m] from 1/s; a block's
        # key (``block``) -> its polynomial; and the terms each holds.
        self._tables = {}
        self._terms = {}
        self._roots = {}  # name -> the bundle's roots (``roots``)

    def table_entries(self):
        """The terms held in the class tables, counted against
        ``pushforward.TOWER_TABLE_LIMIT`` while the setup is kept."""
        return sum(self._terms.values())

    @staticmethod
    def _root_name(bundle, index):
        return f"{bundle}.{index}"

    def rank(self, name):
        if name not in self.bundles:
            raise UnknownBundle(f"bundle {name!r} is not declared")
        return self.bundles[name]

    def root_vars(self, name):
        rank = self.rank(name)
        return [self._root_name(name, i) for i in range(1, rank + 1)]

    def roots(self, name):
        """The bundle's Chern roots, a tuple of ``Poly.var``s, built on
        the first call and kept."""
        roots = self._roots.get(name)
        if roots is None:
            roots = self._roots[name] = tuple(
                Poly.var(v, self.grades, self.truncation)
                for v in self.root_vars(name))
        return roots

    def zero(self):
        return ChernSeries(self, Poly.zero(self.grades, self.truncation))

    # -- class tables ------------------------------------------------------

    def _chern_classes(self, name):
        """[c_0, ..., c_m] of a declared bundle, as polynomials, with
        m = min(rank, truncation): every higher class is 0 here."""
        table = self._tables.get(("chern", name))
        if table is None:
            vars_ = self.root_vars(name)
            table = self._store("chern", name, [
                elem_sym(k, vars_, self.grades, self.truncation)
                for k in range(min(len(vars_), self.truncation) + 1)])
        return table

    def _inverted(self, kind, name, unit, top):
        """Components 0..top (top <= truncation) of the inverse of the
        unit whose homogeneous parts are ``unit``, kept in the table
        ``kind`` of the bundle; only the components it lacks are
        computed."""
        table = self._tables.get((kind, name)) or [
            Poly.const(1, self.grades, self.truncation)]
        if len(table) <= top:
            parts = dict(enumerate(unit[1:top + 1], 1))
            table = self._store(kind, name,
                                _inverse_components(parts, table, top))
        return table

    def _store(self, kind, name, table):
        """Keep ``table`` as the bundle's table ``kind``, with its terms."""
        self._tables[kind, name] = table
        self._terms[kind, name] = sum(len(poly.terms) for poly in table)
        return table

    def block(self, key, build):
        """The polynomial kept under ``key``, a tuple (ring, bundle, kind,
        series numerators, series denominator) with ring ``"roots"`` or
        ``"basis"``: ``build()`` on first use, kept with its terms."""
        poly = self._tables.get(key)
        if poly is None:
            poly = self._tables[key] = build()
            self._terms[key] = len(poly.nums)
        return poly

    def _segre_classes(self, name, top):
        """[s_0, ..., s_m], m >= top, the Fulton Segre classes s = 1/c."""
        return self._inverted("segre", name, self._chern_classes(name), top)

    def _recovered_classes(self, name, top):
        """[c_0, ..., c_m], m >= top, the inverse of the Segre series."""
        return self._inverted("recovered", name,
                              self._segre_classes(name, top), top)

    def const(self, value):
        return ChernSeries(self, Poly.const(value, self.grades, self.truncation))

    def from_poly(self, poly):
        """The class of a polynomial in the roots (``Poly.recode``):
        ``TypeError`` for a foreign variable or a lower bound."""
        return ChernSeries(self, poly.recode(self.grades, self.truncation))

    def chern_basis(self, poly):
        """A polynomial in the roots rewritten in the c_k(bundle)."""
        return to_chern_basis(poly, [(name, self.root_vars(name))
                                     for name in self.bundles])

    @cached_property
    def basis(self):
        """The setup's Chern-basis ring, built on first use."""
        return ChernBasis(self)


class ChernBasis:
    """The Chern-basis ring of a setup: polynomials in the c_k(E), of grade
    k <= rk E for each declared bundle E, truncated at the setup's
    truncation, in the table ``to_chern_basis`` writes the setup's classes
    in.  Its elements are ``ChernSeries`` whose ``chern_basis()`` is their
    polynomial as it is; a class of the setup's roots enters through
    ``from_roots``."""

    def __init__(self, setup):
        self.setup = setup
        self.truncation = setup.truncation
        self.grades = chern_table(setup.bundles.items(), setup.truncation)

    def const(self, value):
        return ChernSeries(self, Poly.const(value, self.grades, self.truncation))

    def from_poly(self, poly):
        return ChernSeries(self, poly.recode(self.grades, self.truncation))

    def from_roots(self, value):
        """A ``ChernSeries`` of the setup, rewritten by ``to_chern_basis``."""
        return self.from_poly(value.chern_basis())

    def chern_basis(self, poly):
        return poly

    def chern_class(self, name, k):
        """c_k(name): 1 at k = 0, and 0 above the rank or the truncation."""
        if k > self.setup.rank(name):
            return self.const(0)
        if k == 0:
            return self.const(1)
        return ChernSeries(self, Poly.var(chern_var(k, name), self.grades,
                                          self.truncation))


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
        """x^n = sum_k C(n, k) c^(n-k) y^k for x = c + y, c the constant
        term: at most ``bound`` products by y, whose powers vanish past the
        bound.  Squaring would multiply two large powers instead: for a
        16-variable linear form on the 16-level rank-2 tower, x^8 * x^8 is
        165M term pairs."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers are defined")
        c = self.poly.constant_term()
        y = self - c
        result = self.ring.const(c ** n)
        power = self.ring.const(1)
        for k in range(1, min(n, self.poly.bound) + 1):
            power = power * y
            if power.is_zero():
                break
            scalar = comb(n, k) * c ** (n - k)
            if scalar:
                result = result + power * scalar
        return result

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

    def alternate_signs(self):
        return ChernSeries(self.ring, self.poly.alternate_signs())

    def inverse(self):
        return ChernSeries(self.ring, series_invert(self.poly))

    def chern_basis(self):
        """Presentation in the Chern-monomial symbols c_k(bundle)."""
        return self.ring.chern_basis(self.poly)

    def __str__(self):
        """The Chern-basis presentation, or the root polynomial for a class
        not symmetric in each bundle's roots, which has none."""
        try:
            return str(self.chern_basis())
        except NotSymmetric:
            return str(self.poly)


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
    """The Whitney expansion sum_i c_i(first) c_{k-i}(second), in one pass.

    Evaluated on the concatenation of the two root blocks this equals
    c_k(first + second), i.e. e_k of the combined roots.
    """
    return ChernSeries(setup, sum_of_products(
        [(1, chern_class(setup, first, i).poly,
          chern_class(setup, second, k - i).poly) for i in range(k + 1)],
        setup.grades, setup.truncation))


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
    # c_1(L)^i, each from the one before; every coefficient is 0 for k > r.
    powers = accumulate([chern_class(setup, line, 1).poly] * k, Poly.__mul__,
                        initial=setup.const(1).poly)
    terms = [(comb(r - k + i, i), chern_class(setup, name, k - i).poly, power)
             for i, power in enumerate(powers)] if k <= r else []
    return ChernSeries(setup, sum_of_products(terms, setup.grades,
                                              setup.truncation))


def elementary_classes(setup, roots, top):
    """[e_0, ..., e_top] of explicit root polynomials, in one pass: the
    oracle of ``verify dual`` (the negated roots of E) and ``verify
    tensor-line`` (the shifted roots x_j + c_1(L)).  Kept separate so the
    closed formulas have an independent check: it reads no Chern class,
    only the roots, and shares with what it checks only the pair loop of
    ``sum_of_products``."""
    one = Poly.const(1, setup.grades, setup.truncation)
    # e_0..e_top of explicit polynomials, by dynamic programming over
    # prod_j (1 + t x_j): layer i is the coefficient of t^i.
    layers = [one] + [setup.zero().poly] * top
    for j, x in enumerate(roots):
        for i in range(min(top, j + 1), 0, -1):
            layers[i] = sum_of_products([(1, layers[i], one),
                                         (1, layers[i - 1], x)],
                                        setup.grades, setup.truncation)
    return [ChernSeries(setup, layer) for layer in layers]


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


def chern_from_segre(setup, name, k):
    """c_k recovered from the Segre classes: component k of the inverse
    of s(E) = 1/c(E), c_k = -sum_{i>=1} s_i c_{k-i} with the Fulton s_i.

    In the default convention the recurrence reads
    c_k = sum_{i=1}^{k} (-1)^{i+1} s_i c_{k-i}, and its signs cancel those
    of the s_i, so the class does not depend on the convention.  Equals
    chern_class(setup, name, k) identically, but is computed from the
    Segre classes alone, never read from the Chern classes.
    """
    if k < 0:
        raise ValueError("Chern class degree must be >= 0")
    setup.rank(name)  # UnknownBundle at every degree
    if k > setup.truncation:
        return setup.zero()
    return ChernSeries(setup, setup._recovered_classes(name, k)[k])
