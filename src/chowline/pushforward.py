"""Intersection rings of split projective-bundle towers and pushforward.

A tower is built over a point by repeatedly taking P(E) for E a direct sum
of line classes on the previous level.  Writing xi_j for the tautological
first Chern class introduced at level j and r_j for the rank of the j-th
bundle, the intersection ring is

    Q[xi_1, ..., xi_J] / ( prod_{l in lines_j} (xi_j + l) = 0 ),

with the finite monomial basis prod_j xi_j^{a_j}, 0 <= a_j <= r_j - 1.
Every class is kept in this basis.  A tower is given by its levels alone:
its truncation is its dimension, since every class of higher degree
vanishes in the ring.

Each level keeps only its relation, as the rewriting rule
xi_j^{r_j} -> xi_j^{r_j} - prod_l (xi_j + l) with integer coefficients.
Its right side has lower xi_j-degree and otherwise involves only the
levels below, so rewriting the highest level whose exponent reaches its
rank lowers a monomial in the lexicographic order with xi_J > ... > xi_1,
and repeated rewriting ends in the basis (the leading terms xi_j^{r_j}
are pairwise coprime, so the relations are a Groebner basis for that
order and the normal form is unique).  A tower fills one table, packed
monomial -> normal form as (basis monomial, integer) pairs, the first
time it meets each monomial; reducing a polynomial is then one lookup
per term.  The product of two classes looks up each pair's monomial
product as it forms, without building the unreduced product, and powers
go through that product.  A product of divisors, given as coefficient
vectors, runs through the same pair loop on integer numerators and
builds one class at the end.  Rewriting keeps degrees, so a term beyond
the dimension is dropped rather than reduced.  Rank-1 levels (P(L),
isomorphic to its base) need nothing special: their rule rewrites xi_j
as -l.  Classes are ``TowerClass`` elements: the shared ``RingClass``
arithmetic with a product that reduces.

The pushforward along the top projection sends a reduced class to its
coefficient of xi_J^{r-1}; equivalently pi_*(xi^{r-1+k}) = s_k(E) with
s = 1/c (the sign-free Segre convention, which is what makes the
projection formula coefficient-free here).  Pushing to the point reads one
coordinate: the coefficient of the top basis monomial prod_j xi_j^{r_j-1}.

Splitting to sums of line classes loses no generality for identity
checking (splitting principle) and keeps every ring finite-dimensional.
"""

from __future__ import annotations

from math import comb
from operator import index

from .charclass import (
    VirtualBundle,
    chern_character_spec,
    evaluate_class_in_ring,
    todd_spec,
)
from .chern_ring import TRUNCATION_LIMIT, RingClass
from .errors import (
    TowerTooLarge,
    TruncationTooHigh,
    UnequalBundles,
    UnknownBundle,
    WrongBundleCount,
)
from .poly import Poly, VarTable, _degree_groups, _lowest


# A tower memoizes the normal form of every monomial its products meet,
# and in a deep twisted tower that table grows about threefold per level.
# Entries, time and peak RSS of ``xi(J)**J + line_class([1..J])**J`` on
# the J-level rank-2 tower whose level j has the lines
# [(-1)^i (i % 3) for i < j] and [1 + i % 2 for i < j], and of
# ``deligne --fiber 1,...,1 --base 1`` (15 ones, 16 levels) with the 16
# bundles [((i + j) % 3) - 1 for j < 16] (one process each, 2-vCPU VM):
#
#   tower                entries     time    peak RSS
#   twisted, J = 10       50,371    0.7 s      30 MB
#   twisted, J = 11      153,781    2.2 s      57 MB
#   twisted, J = 12      470,938    8.4 s     173 MB
#   twisted, J = 13    1,000,000     21 s     448 MB, refused here
#   product, 16 levels   364,272    3.4 s      73 MB
#
# Unbounded, J = 13 fills 1.44M entries (633 MB) and J = 14 4.4M (1.9 GB).
# A table about to pass this many entries is refused.
TOWER_TABLE_LIMIT = 1_000_000


def xi_name(level):
    return f"xi{level}"


class Tower:
    """An iterated projective bundle over a point.

    ``levels`` is a list; entry j (0-based) describes the bundle E_j on the
    part of the tower below it, as a list of line classes.  Each line class
    is a coefficient vector over (xi_1, ..., xi_j): level 0 lines have no
    coefficients (lines on a point are trivial).  ``bound``, the one
    truncation of every class, equals ``dimension``.  Polynomials enter
    the ring only by ``from_poly``, which reduces them.  A divisor on the
    tower is given the same way, as a coefficient vector over the levels,
    and ``divisor_product`` multiplies any number of them in one pass.
    Every product of the tower, of classes or of divisors, runs through
    one pair loop (``_product``).  The levels are fixed once built, so
    the tower below (``drop_top``) and the Todd classes of the tangent
    bundle and of each relative tangent bundle (``tangent_todd``) are
    built on first use and kept, as is the normal-form table.  A product
    family keeps one tower per process (``dcoh.pairing_tower``), so all
    of these outlive a single call.
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
        self._todd = {}
        # The levels in order: the top level's field is the lowest, so
        # push_level moves a cofactor to the tower below with a shift.
        self.grades = VarTable(
            {xi_name(j + 1): 1 for j in range(len(self.ranks))}, self.bound)
        # The packed monomial xi_{j+1} at index j, so a coefficient vector
        # packs without naming a variable.
        self._units = [self.grades.unit[xi_name(j + 1)]
                       for j in range(len(self.ranks))]
        self._line_polys = [
            [self.linear_form(coeffs) for coeffs in lines]
            for lines in self.line_coeffs
        ]
        self._top_monomial = tuple(sorted(
            (xi_name(j + 1), r - 1) for j, r in enumerate(self.ranks) if r > 1))
        # One rule per level that can fire, top level first:
        # (field shift, rank, packed xi^r, terms of xi^r - prod_l (xi + l)).
        # A rank above the bound never fires: its power has no room.
        self._rules = []
        for j in range(len(self.ranks) - 1, -1, -1):
            r = self.ranks[j]
            if r > self.bound:
                continue
            name = xi_name(j + 1)
            xi = Poly.var(name, self.grades, self.bound)
            relation = Poly.const(1, self.grades, self.bound)
            for line in self._line_polys[j]:
                relation = relation * (xi + line)
            power = r * self.grades.unit[name]
            self._rules.append((self.grades.shift[name], r, power, tuple(
                (m, -n) for m, n in relation.nums.items() if m != power)))
        self._normal = {}

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

    def linear_form(self, coeffs):
        """sum_i coeffs[i] * xi_{i+1} for integer coefficients, as an
        unreduced polynomial that a ``TowerClass`` product reduces; zero
        on the point, whose bound leaves no room for degree 1.  A product
        of several is ``divisor_product``, which builds none of them."""
        return Poly(dict(self._linear_terms(coeffs)), 1, self.grades,
                    self.bound)

    def _linear_terms(self, coeffs):
        """The terms of ``linear_form(coeffs)`` as (packed monomial,
        integer) pairs, packed through the kept units."""
        coeffs = list(coeffs)
        if len(coeffs) > len(self._units):
            raise ValueError("more coefficients than tower levels")
        terms = [(u, c) for u, c in zip(self._units, map(index, coeffs)) if c]
        return terms if self.bound else []

    def divisor_product(self, vectors):
        """The reduced class of the product of the divisors
        sum_i v[i] * xi_{i+1}, one per coefficient vector v: 1 for no
        vectors.

        The running product is kept as integer numerators, and each
        vector's terms, all of degree 1, multiply into it through the
        reduced-product pair loop (``_product``), the loop of every tower
        product; one class is built at the end.  The pairs, and so the
        normal-form table entries, are those of multiplying
        ``linear_form``s into ``const(1)`` one at a time.  A vector longer
        than the tower is refused as ``linear_form`` refuses it.
        """
        nums = {0: 1}
        for coeffs in vectors:
            nums = self._product(nums, [(1, self._linear_terms(coeffs))])
        return self._class(nums, 1)

    def xi(self, level):
        """The tautological class of the given level (1-based)."""
        if not 1 <= level <= len(self.ranks):
            raise ValueError(f"no level {level} in this tower")
        return self.divisor_product([[0] * (level - 1) + [1]])

    def line_class(self, coeffs):
        """The class sum_i coeffs[i] * xi_{i+1}, for integer coefficients."""
        return self.divisor_product([coeffs])

    def const(self, value):
        return TowerClass(self, Poly.const(value, self.grades, self.bound))

    def zero(self):
        return TowerClass(self, Poly.zero(self.grades, self.bound))

    def from_poly(self, poly):
        """The class of a polynomial in the xi (``Poly.recode``), reduced as
        its product with 1: ``TypeError`` for a foreign variable or a bound
        below the tower's."""
        poly = poly.recode(self.grades, self.bound)
        return self._class(self._product(poly.nums, [(0, [(0, 1)])]),
                           poly.den)

    def _class(self, nums, den):
        """The class sum_m nums[m] * m / den of numerators keyed in this
        tower's table, in lowest terms, at the tower's bound."""
        return TowerClass(self, _lowest(nums, den, self.grades, self.bound))

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

    def _normal_form(self, mono):
        """The normal form of a packed monomial, filling the table.

        A monomial is rewritten at the highest level whose exponent
        reaches its rank, rest * xi^r -> sum_t c_t * rest * t, and each
        rest * t is looked up in turn.  A work list stands in for
        recursion: a monomial is resolved once all of its rewrites are,
        so the depth of the rewriting never reaches the interpreter's
        stack.  A table that would pass ``TOWER_TABLE_LIMIT`` entries
        raises ``TowerTooLarge``.
        """
        table, mask, rules = self._normal, self.grades.mask, self._rules
        todo = [mono]
        while todo:
            m = todo[-1]
            if m in table:
                todo.pop()
                continue
            if len(table) >= TOWER_TABLE_LIMIT:
                raise TowerTooLarge(
                    f"the tower's normal-form table reached the limit of "
                    f"{TOWER_TABLE_LIMIT} entries")
            for s, r, power, relation in rules:
                if m >> s & mask >= r:
                    rest = m - power
                    missing = [rest + t for t, _ in relation
                               if rest + t not in table]
                    if missing:
                        todo.extend(missing)
                        break
                    acc = {}
                    for t, c in relation:
                        for b, n in table[rest + t]:
                            acc[b] = acc.get(b, 0) + c * n
                    table[m] = tuple((b, n) for b, n in acc.items() if n)
                    todo.pop()
                    break
            else:  # a basis monomial
                table[m] = ((m, 1),)
                todo.pop()
        return table[mono]

    def _product(self, left, groups):
        """The reduced numerators of left * right, for integer numerators
        keyed in this tower's table, truncated to the tower's bound: the
        one pair loop behind ``TowerClass.__mul__``, ``from_poly`` and
        ``divisor_product``.  ``left`` is a numerator dict and ``groups``
        the right operand grouped by degree (``poly._degree_groups``).
        Each pair of terms within the bound adds the normal form of its
        monomial product as it forms, and each left term stops at the
        first group beyond the bound."""
        bound, dshift = self.bound, self.grades.dshift
        table, normal_form = self._normal, self._normal_form
        out = {}
        get = out.get
        for m1, c1 in left.items():
            room = bound - (m1 >> dshift)
            for d2, group in groups:
                if d2 > room:
                    break
                for m2, c2 in group:
                    form = table.get(m1 + m2)
                    if form is None:
                        form = normal_form(m1 + m2)
                    c = c1 * c2
                    for b, n in form:
                        out[b] = get(b, 0) + c * n
        return {m: n for m, n in out.items() if n}


class TowerClass(RingClass):
    """A class in a tower's intersection ring, kept in reduced form."""

    __slots__ = ()

    @property
    def tower(self):
        return self.ring

    def __mul__(self, other):
        """The product, reduced as it forms (``Tower._product``), which
        also reduces a raw polynomial of the tower's own table and bound."""
        tower = self.ring
        if not (isinstance(other, Poly) and other.grades is tower.grades
                and other.bound == tower.bound):
            other = self._coerce(other)
            if not isinstance(other, Poly):
                return TowerClass(tower, self.poly * other)
        groups = _degree_groups(other.nums, tower.grades.dshift)
        return tower._class(tower._product(self.poly.nums, groups),
                            self.poly.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n):
        """x^n = sum_k C(n, k) c^(n-k) y^k, for x = c + y with c the
        constant term, through the reduced product.

        y has no constant term, so y^k vanishes beyond the bound: at most
        ``bound`` products, each by y alone.  Squaring would multiply two
        large powers instead: for a 16-variable linear form on the
        16-level rank-2 tower, x^8 * x^8 is 165M term pairs.
        """
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers are defined")
        c = self.poly.constant_term()
        y = self - c
        result = self.ring.const(c ** n)
        power = self.ring.const(1)
        for k in range(1, min(n, self.ring.bound) + 1):
            power = power * y
            if power.is_zero():
                break
            scalar = comb(n, k) * c ** (n - k)
            if scalar:
                result = result + power * scalar
        return result


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
    # The top level's field is the lowest, at bit 0, and the tower below
    # has the same fields without it (``poly.MIN_FIELD_BITS``): removing
    # xi^{r-1} and shifting by one field width moves a term there.  The
    # class has degree at most the tower's dimension, so each cofactor
    # fits the bound of the tower below.
    table, poly = tower.grades, tclass.poly
    top = (r - 1) * table.unit[xi_name(len(tower.ranks))]
    width, mask = table.width, table.mask
    nums = {(m - top) >> width: n for m, n in poly.nums.items()
            if m & mask == r - 1}
    return below._class(nums, poly.den)


def integrate(tclass):
    """Push down to the point: the coefficient of the top basis monomial
    prod_j xi_j^{r_j-1}, zero unless the class has top degree."""
    return tclass.poly.coefficient(tclass.tower._top_monomial)


def tangent_todd(tower, base_levels=0):
    """td of the tangent bundle of the tower relative to its first
    ``base_levels`` levels, from the relative Euler sequences: td(T_X)
    for 0, td(T_f) of the family X -> (first levels) otherwise.

    Each level above the base contributes T_j = pi^* E_{j-1} (x) O_j(1) -
    O, whose roots are l + xi_j over the line classes l of that level.
    Built on the first call for each ``base_levels`` and kept on the
    tower; ring operations return new classes, so callers share it
    safely.
    """
    todd = tower._todd.get(base_levels)
    if todd is None:
        todd = tower._todd[base_levels] = evaluate_class_in_ring(
            todd_spec(tower.bound), relative_tangent(tower, base_levels),
            tower)
    return todd


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
    other n first Chern classes over the n-dimensional fiber tower.  As in
    the pairing route, that product is one ``Tower.divisor_product`` of
    the coefficient vectors; the swapped lines are equal when their
    reduced classes are.  A pairing over the n-dimensional tower takes
    exactly n+1 lines, as in ``dcoh``'s pairing routes.
    """
    if len(lines) != tower.dimension + 1:
        raise WrongBundleCount(
            f"a pairing over a tower of dimension {tower.dimension} takes "
            f"exactly {tower.dimension + 1} lines, got {len(lines)}")
    if i == j or not (0 <= i < len(lines)) or not (0 <= j < len(lines)):
        raise ValueError("indices must be distinct slots of the pairing")
    product = tower.divisor_product(
        [coeffs for k, coeffs in enumerate(lines) if k != i])
    if tower.divisor_product([lines[i]]) != tower.divisor_product([lines[j]]):
        raise UnequalBundles(
            "the swapped line classes must be equal for the sign formula")
    kappa = integrate(product)
    if kappa.denominator != 1:
        raise AssertionError("relative degree must be an integer")
    return -1 if int(kappa) % 2 else 1


def grr_codim1_report(fam, bundle):
    """Compare the two sides of the degree-level Riemann-Roch identity for
    a product family X = fiber x P^m -> P^m.

    The left side is the degree of det Rf_* L from the cohomological
    oracle; the right side is the degree of the codimension-one part of
    f_*(ch(L) td^v(Omega_f)) computed symbolically on the family's kept
    tower (``dcoh.with_pairing_tower``), pushed down one fiber level at a
    time and read against xi_1^{m-1} on the base, one
    ``Tower.divisor_product`` of m-1 copies of (1,), as
    ``dcoh.pairing_degree_by_pushforward`` reads a divisor's degree.
    Since td^v(V) = td(V^v) and Omega_f is the dual of T_f,
    td^v(Omega_f) = td(T_f), the kept ``tangent_todd(tower, 1)``.
    Returns a dict with both degrees and the verdict.
    """
    from . import dcoh  # local import: dcoh also consumes this module

    lhs = dcoh.det_Rf_degree(fam, bundle).degree

    coeffs = [bundle.base_twist] + list(bundle.fiber_degrees)

    def pushed_degree(tower):
        line = VirtualBundle.line_class(tower.linear_form(coeffs))
        ch = evaluate_class_in_ring(
            chern_character_spec(tower.bound), line, tower)
        pushed = ch * tangent_todd(tower, base_levels=1)
        for _ in range(len(fam.fiber)):
            pushed = push_level(pushed)
        pushed = pushed.graded_part(1)
        if fam.base > 1:
            pushed = pushed * pushed.tower.divisor_product(
                [(1,)] * (fam.base - 1))
        return integrate(pushed)

    rhs = dcoh.with_pairing_tower(fam, pushed_degree)
    if rhs.denominator != 1:
        raise AssertionError("determinant degree must be an integer")
    return {"lhs_degree": lhs, "rhs_degree": int(rhs), "equal": lhs == int(rhs)}
