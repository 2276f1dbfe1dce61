"""Intersection rings of split projective-bundle towers and pushforward.

A tower is built over a point by repeatedly taking P(E) for E a direct sum
of line classes on the previous level.  Writing xi_j for the tautological
first Chern class introduced at level j and r_j for the rank of the j-th
bundle, the intersection ring is

    Q[xi_1, ..., xi_J] / ( prod_{l in lines_j} (xi_j + l) = 0 ),

with the finite monomial basis prod_j xi_j^{a_j}, 0 <= a_j <= r_j - 1.
Every class is kept in this basis.  A tower is given by its levels alone:
its truncation is its dimension, since every class of higher degree
vanishes in the ring.  The relation of level j is stored as a table of
the reduced forms of xi_j^e for r_j <= e <= dimension, so reducing a
polynomial is one substitution pass per level, top level first.  Rank-1
levels (P(L), isomorphic to its base) need nothing special: their table
rewrites xi_j as -l.  Classes are ``TowerClass`` elements: the shared
``RingClass`` arithmetic with a product that reduces.

The pushforward along the top projection sends a reduced class to its
coefficient of xi_J^{r-1}; equivalently pi_*(xi^{r-1+k}) = s_k(E) with
s = 1/c (the sign-free Segre convention, which is what makes the
projection formula coefficient-free here).  Pushing to the point reads one
coordinate: the coefficient of the top basis monomial prod_j xi_j^{r_j-1}.

Splitting to sums of line classes loses no generality for identity
checking (splitting principle) and keeps every ring finite-dimensional.
"""

from __future__ import annotations

from .charclass import (
    VirtualBundle,
    chern_character_spec,
    evaluate_class_in_ring,
    todd_spec,
    todd_star_spec,
)
from .chern_ring import TRUNCATION_LIMIT, RingClass
from .errors import (
    TruncationTooHigh,
    UnequalBundles,
    UnknownBundle,
    UnsupportedFamily,
)
from .poly import Poly, VarTable


def xi_name(level):
    return f"xi{level}"


class Tower:
    """An iterated projective bundle over a point.

    ``levels`` is a list; entry j (0-based) describes the bundle E_j on the
    part of the tower below it, as a list of line classes.  Each line class
    is a coefficient vector over (xi_1, ..., xi_j): level 0 lines have no
    coefficients (lines on a point are trivial).  ``bound``, the
    truncation of every class, equals ``dimension``.
    """

    def __init__(self, levels):
        self.line_coeffs = []
        for j, lines in enumerate(levels):
            if not lines:
                raise ValueError(f"level {j} needs at least one line class")
            for coeffs in lines:
                if len(coeffs) != j:
                    raise ValueError(
                        f"a line class on level {j} takes {j} coefficients, "
                        f"got {len(coeffs)}")
            self.line_coeffs.append([list(map(int, c)) for c in lines])
        self.ranks = [len(lines) for lines in self.line_coeffs]
        self.dimension = sum(r - 1 for r in self.ranks)
        if self.dimension > TRUNCATION_LIMIT:
            raise TruncationTooHigh(
                f"tower dimension {self.dimension} exceeds the limit of "
                f"{TRUNCATION_LIMIT}")
        self.bound = self.dimension
        self._below = None
        # The levels in order: the top level's field is the lowest, so
        # push_level moves a cofactor to the tower below with a shift.
        self.grades = VarTable(
            {xi_name(j + 1): 1 for j in range(len(self.ranks))}, self.bound)
        self._line_polys = [
            [self._linear_form(coeffs) for coeffs in lines]
            for lines in self.line_coeffs
        ]
        self._top_monomial = tuple(sorted(
            (xi_name(j + 1), r - 1) for j, r in enumerate(self.ranks) if r > 1))
        # _powers[j][e - r] is the reduced form of xi_{j+1}^e, built
        # bottom-up: each table only uses the levels below it and its own
        # first entry xi^r - prod_l (xi + l).
        self._powers = []
        for j, lines in enumerate(self._line_polys):
            xi = Poly.var(xi_name(j + 1), self.grades, self.bound)
            relation = Poly.const(1, self.grades, self.bound)
            for line in lines:
                relation = relation * (xi + line)
            powers = [self._reduce_poly(xi ** len(lines) - relation)]
            self._powers.append(powers)
            for _ in range(len(lines), self.bound):
                powers.append(self._reduce_poly(powers[-1] * xi))

    # -- construction helpers ------------------------------------------

    @classmethod
    def projective_space(cls, n):
        """P^n as the projectivization of the trivial rank-(n+1) bundle."""
        return cls([[[] for _ in range(n + 1)]])

    @classmethod
    def product_of_projective_spaces(cls, dims):
        """P^{d_1} x P^{d_2} x ... as a tower of trivial projectivizations."""
        levels = []
        for j, d in enumerate(dims):
            levels.append([[0] * j for _ in range(d + 1)])
        return cls(levels)

    @classmethod
    def from_dict(cls, data):
        return cls([lvl["lines"] for lvl in data["levels"]])

    def to_dict(self):
        return {"levels": [{"lines": [list(c) for c in lines]}
                           for lines in self.line_coeffs]}

    # -- ring elements ---------------------------------------------------

    def _linear_form(self, coeffs):
        p = Poly.zero(self.grades, self.bound)
        for i, c in enumerate(coeffs):
            if c:
                p = p + Poly.var(xi_name(i + 1), self.grades, self.bound) * c
        return p

    def xi(self, level):
        """The tautological class of the given level (1-based)."""
        if not 1 <= level <= len(self.ranks):
            raise ValueError(f"no level {level} in this tower")
        return self.from_poly(Poly.var(xi_name(level), self.grades, self.bound))

    def line_class(self, coeffs):
        """The class sum_i coeffs[i] * xi_{i+1}."""
        coeffs = list(coeffs)
        if len(coeffs) > len(self.ranks):
            raise ValueError("more coefficients than tower levels")
        coeffs = coeffs + [0] * (len(self.ranks) - len(coeffs))
        return self.from_poly(self._linear_form(coeffs))

    def const(self, value):
        return TowerClass(self, Poly.const(value, self.grades, self.bound))

    def zero(self):
        return TowerClass(self, Poly.zero(self.grades, self.bound))

    def from_poly(self, poly):
        if poly.bound > self.bound:  # the power tables stop at self.bound
            poly = poly.truncate(self.bound)
        return TowerClass(self, self._reduce_poly(poly))

    def roots(self, name):
        """A tower declares no named bundles: its virtual bundles are built
        from line classes and the trivial line."""
        raise UnknownBundle(f"bundle {name!r} is not declared on a tower")

    def drop_top(self):
        """The tower below the top level, built on the first call."""
        if not self.line_coeffs:
            raise ValueError("cannot remove a level from the point")
        if self._below is None:
            self._below = Tower(self.line_coeffs[:-1])
        return self._below

    # -- reduction ---------------------------------------------------------

    def _reduce_poly(self, poly):
        """The normal form of a polynomial in the monomial basis.

        One pass per tabulated level, top level first: each monomial
        rest * xi_j^e with e >= r_j becomes rest * (reduced xi_j^e).  The
        table entry involves only xi_1..xi_j, so the pass leaves the
        exponents of the levels above j alone and the passes below finish
        the job.  Substitution keeps degrees, so nothing beyond the bound
        appears.
        """
        for j in range(len(self._powers), 0, -1):
            r, powers = self.ranks[j - 1], self._powers[j - 1]
            poly, excess = poly.split_powers(
                xi_name(j), r, self.grades, self.bound)
            for e, rest in excess.items():
                poly = poly + rest * powers[e - r]
        return poly


class TowerClass(RingClass):
    """A class in a tower's intersection ring, kept in reduced form."""

    __slots__ = ()

    @property
    def tower(self):
        return self.ring

    def __mul__(self, other):
        product = self.poly * self._coerce(other)
        return TowerClass(self.ring, self.ring._reduce_poly(product))

    __rmul__ = __mul__

    def __pow__(self, n):
        return self.ring.from_poly(self.poly ** n)


def push_level(tclass):
    """Pushforward along the projection that forgets the top level.

    For a reduced class sum_k a_k xi^k with xi the top tautological class
    and r the top rank, the image is a_{r-1}: the Segre terms s_{k-r+1}
    vanish for k < r-1 and reduction has already eliminated k >= r.
    """
    tower = tclass.tower
    if not tower.ranks:
        raise ValueError("cannot push forward from the point")
    below = tower.drop_top()
    r = tower.ranks[-1]
    # The class has degree at most the tower's dimension, so each cofactor
    # of xi^{r-1} fits the bound of the tower below.
    _, high = tclass.poly.split_powers(
        xi_name(len(tower.ranks)), r - 1, below.grades, below.bound)
    pushed = high.get(r - 1) or Poly.zero(below.grades, below.bound)
    return TowerClass(below, pushed)


def integrate(tclass):
    """Push down to the point: the coefficient of the top basis monomial
    prod_j xi_j^{r_j-1}, zero unless the class has top degree."""
    return tclass.poly.coefficient(tclass.tower._top_monomial)


def segre_pushforward(tower, exponent):
    """pi_*(xi^{r-1+k}) computed through the reduction: the Segre class
    s_k(E) of the top bundle in the 1/c convention."""
    top = len(tower.ranks)
    return push_level(tower.xi(top) ** exponent)


def tangent_todd(tower):
    """td of the tower's tangent bundle, from the relative Euler sequences.

    Each level contributes T_j = pi^* E_{j-1} (x) O_j(1) - O, whose roots
    are l + xi_j over the line classes l of that level.
    """
    return evaluate_class_in_ring(
        todd_spec(tower.bound), relative_tangent(tower, 0), tower)


def relative_tangent(tower, base_levels):
    """The relative tangent bundle of the projection to the first
    ``base_levels`` levels, as a virtual bundle over the tower."""
    total = VirtualBundle.zero()
    for j in range(base_levels, len(tower.ranks)):
        xi = Poly.var(xi_name(j + 1), tower.grades, tower.bound)
        for line in tower._line_polys[j]:
            total = total + VirtualBundle.line_class(line + xi)
        total = total - VirtualBundle.trivial()
    return total


def euler_characteristic(tower, virtual):
    """chi(X, V) = integral of ch(V) td(T_X), exact rational."""
    chv = evaluate_class_in_ring(
        chern_character_spec(tower.bound), virtual, tower)
    return integrate(chv * tangent_todd(tower))


def symmetry_sign(tower, lines, i, j):
    """Sign of swapping entries i and j of a pairing with L_i = L_j.

    The sign is (-1)^kappa with kappa the degree of the product of the
    other n first Chern classes over the n-dimensional fiber tower.
    """
    if i == j or not (0 <= i < len(lines)) or not (0 <= j < len(lines)):
        raise ValueError("indices must be distinct slots of the pairing")
    li = tower.line_class(lines[i]).poly
    lj = tower.line_class(lines[j]).poly
    if li != lj:
        raise UnequalBundles(
            "the swapped line classes must be equal for the sign formula")
    product = tower.const(1)
    for k, coeffs in enumerate(lines):
        if k == i:
            continue
        product = product * tower.line_class(coeffs)
    kappa = integrate(product)
    if kappa.denominator != 1:
        raise AssertionError("relative degree must be an integer")
    return -1 if int(kappa) % 2 else 1


def grr_codim1_report(fam, bundle):
    """Compare the two sides of the degree-level Riemann-Roch identity for
    a product family X = fiber x P^1 -> P^1.

    The left side is the degree of det Rf_* L from the cohomological
    oracle; the right side is the degree of the codimension-one part of
    f_*(ch(L) td*(Omega_f)) computed symbolically on the tower.  Returns a
    dict with both degrees and the verdict.
    """
    from . import dcoh  # local import: dcoh also consumes this module

    if fam.base != 1:
        raise UnsupportedFamily(
            "degree comparison needs a one-dimensional base")
    lhs = dcoh.det_Rf_degree(fam, bundle).degree

    tower = dcoh.pairing_tower(fam)
    coeffs = [bundle.base_twist] + list(bundle.fiber_degrees)
    line = VirtualBundle.line_class(tower.line_class(coeffs).poly)

    omega = relative_tangent(tower, base_levels=1).dual()
    integrand = (
        evaluate_class_in_ring(chern_character_spec(tower.bound), line, tower)
        * evaluate_class_in_ring(todd_star_spec(tower.bound), omega, tower))

    pushed = integrand
    for _ in range(len(fam.fiber)):
        pushed = push_level(pushed)
    rhs = integrate(pushed.graded_part(1))
    if rhs.denominator != 1:
        raise AssertionError("determinant degree must be an integer")
    return {"lhs_degree": lhs, "rhs_degree": int(rhs), "equal": lhs == int(rhs)}

