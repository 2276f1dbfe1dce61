"""Sparse multivariate polynomials over Q with weighted grading and truncation.

Every variable carries a positive integer grade (Chern roots have grade 1,
a formal class symbol ``c3(E)`` has grade 3).  A polynomial lives in a
truncated graded ring: monomials whose total weighted degree exceeds the
bound are discarded on construction, so all arithmetic is exact modulo
terms of degree > bound.  No floating point is used anywhere.

Coefficients are exact rationals, stored fraction-free: a polynomial holds
integer numerators over one positive common denominator, in lowest terms
(the gcd of the denominator and every numerator is 1, and the zero
polynomial has denominator 1).  Sums, products and scalings therefore do
integer arithmetic only, plus one gcd reduction per result, and
``evaluate`` divides once.  Outside this module only
``symfun.to_chern_basis``, ``symfun.check_block_symmetry``, and the tower
kernel and ``push_level`` of ``pushforward`` read that form, to reduce
integer numerators over ``den`` and to read, add or shift packed
monomials; everything else sees ``Poly.terms``, which presents each
coefficient as an ``int`` when it is integral and a ``Fraction``
otherwise.  ``PowerSeries`` is held the same way, integer numerators over
one denominator, and is immutable; its ``apply_to`` substitutes a
polynomial into it with integer arithmetic only.

Monomials are packed exponent vectors (Monagan and Pearce, *Polynomial
division using dynamic arrays, heaps, and packed exponent vectors*, CASC
2007).  Each ring has one ``VarTable``: its variables and their grades,
and a bit field per variable in which a monomial keeps that exponent,
with the weighted degree in a field above them all.  A monomial is one
``int``, so a product of monomials is one addition and a degree one
shift.  A field holds any exponent up to the bound, and the kernel forms
no product beyond the bound, so fields never overflow.  The elements of
one ring share one table object; combining elements of two tables
re-encodes both into their union.  The rings of one tower have one field
width, so a term moves to the tower below with one shift.  Outside the
kernel, monomials are tuples of (variable, exponent) pairs sorted by
variable name, as ``terms``, ``coefficient`` and ``sorted_terms`` present
them.  With the reduced denominator the stored form is canonical: two
polynomials of one table are equal iff their denominators and numerator
dictionaries are equal.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

# Every field is at least this many bits wide, so that all rings of bound
# below 2**5 (every ring within chern_ring.TRUNCATION_LIMIT) share one
# width: the rings of one tower line up field for field, and
# ``pushforward.push_level`` moves a cofactor to the tower below with a
# shift by that width, which it relies on.
MIN_FIELD_BITS = 5


class VarTable(Mapping):
    """The variables of one ring: a read-only mapping name -> grade, and
    the layout of the ring's packed monomials.

    Each variable owns a field of ``width`` bits, the first variable the
    highest, the last the lowest (at bit 0); the weighted degree sits
    above them all, at ``dshift``.  ``unit[v]`` is the packed monomial v.
    The fields hold exponents up to ``mask``, which is at least the bound
    the table was made for; a polynomial's bound never exceeds its
    table's ``mask``.
    """

    __slots__ = ("_grades", "_items", "width", "mask", "dshift", "shift",
                 "unit", "_fields")

    def __init__(self, grades, bound):
        self._grades = dict(grades)
        for v, g in self._grades.items():
            if not isinstance(g, int) or g < 1:
                raise ValueError(f"variable {v!r} needs a positive integer "
                                 f"grade, got {g!r}")
        self._items = tuple(self._grades.items())
        n = len(self._items)
        self.width = max(bound.bit_length(), MIN_FIELD_BITS)
        self.mask = (1 << self.width) - 1
        self.dshift = n * self.width
        self.shift = {v: (n - 1 - i) * self.width
                      for i, (v, _) in enumerate(self._items)}
        self.unit = {v: (1 << self.shift[v]) + (g << self.dshift)
                     for v, g in self._items}
        self._fields = sorted(self.shift.items())  # name order, for decoding

    def __getitem__(self, name):
        return self._grades[name]

    def __iter__(self):
        return iter(self._grades)

    def __len__(self):
        return len(self._items)

    def __contains__(self, name):
        return name in self._grades

    def get(self, name, default=None):
        return self._grades.get(name, default)

    def items(self):
        return self._grades.items()

    def __repr__(self):
        return f"VarTable({self._grades!r}, width={self.width})"

    def encode(self, mono):
        """The packed form of a tuple monomial; KeyError for a variable
        the table does not hold.  An exponent above ``mask`` carries into
        the fields above it, but only in a monomial of degree above every
        bound the table serves."""
        m = 0
        for v, e in mono:
            if e < 0:
                raise ValueError(f"negative exponent {e} of {v!r}")
            m += e * self.unit[v]
        return m

    def decode(self, m):
        """The tuple monomial of a packed one, sorted by variable name."""
        mask = self.mask
        return tuple((v, e) for v, s in self._fields if (e := m >> s & mask))


@lru_cache(maxsize=256)
def _shared_table(items, width):
    return VarTable(dict(items), (1 << width) - 1)


def var_table(grades, bound):
    """The table of a ring of the given grades and bound: ``grades``
    itself when it is a table wide enough for the bound, else one table
    object per content and width, so that polynomials built from equal
    grade dictionaries share it."""
    # type(), not isinstance(): a Mapping subclass answers isinstance()
    # through the ABC machinery, several times slower.
    if type(grades) is VarTable and bound <= grades.mask:
        return grades
    width = max(bound.bit_length(), MIN_FIELD_BITS)
    return _shared_table(tuple(grades.items()), width)


def _union(t1, t2):
    """One table holding the variables of both; a variable declared in
    both must have the same grade."""
    if t1 is t2:
        return t1
    grades = dict(t1.items())
    for v, g in t2.items():
        if grades.setdefault(v, g) != g:
            raise ValueError(f"conflicting grades for variable {v!r}")
    return _shared_table(tuple(grades.items()), max(t1.width, t2.width))


def _recode(nums, src, dst, bound):
    """Numerators keyed in ``src`` re-keyed in ``dst``, dropping monomials
    of degree above ``bound``; TypeError when a monomial kept has a
    variable ``dst`` lacks or grades otherwise."""
    mask, dshift = src.mask, src.dshift
    if src is dst:
        return {m: n for m, n in nums.items() if m >> dshift <= bound}
    moves = [(v, s, dst.unit.get(v) if dst.get(v) == src[v] else None)
             for v, s in src.shift.items()]
    out = {}
    for m, n in nums.items():
        if m >> dshift <= bound:
            new = 0
            for v, s, unit in moves:
                e = m >> s & mask
                if e:
                    if unit is None:
                        raise TypeError(f"variable {v!r} is not in the ring")
                    new += e * unit
            out[new] = n
    return out


def _degree_groups(nums, dshift):
    """Terms grouped by degree, as (degree, [(monomial, numerator), ...])
    pairs in increasing degree: the right operand of a product (here and
    in ``pushforward.Tower._product``), each of whose left terms stops at
    the first group beyond the bound, so no exponent exceeds the bound."""
    buckets = {}
    for m, n in nums.items():
        buckets.setdefault(m >> dshift, []).append((m, n))
    return sorted(buckets.items())


def _num_den(x):
    """(numerator, denominator) of an integer or Fraction, in lowest terms."""
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    raise TypeError(f"expected an integer or Fraction, got {type(x).__name__}")


def _exact(n, den):
    """The rational n/den as an int when it is integral, else a Fraction."""
    q, r = divmod(n, den)
    return Fraction(n, den) if r else q


def _lowest(nums, den, grades, bound):
    """The polynomial sum nums[m] * m / den, reduced to lowest terms."""
    if den != 1:
        g = gcd(den, *nums.values())  # den itself when nums is empty
        if g != 1:
            nums = {m: n // g for m, n in nums.items()}
            den //= g
    return Poly(nums, den, grades, bound)


class Poly:
    """A sparse polynomial with exact rational coefficients.

    ``grades`` is the ring's ``VarTable`` (a read-only mapping from each
    variable to its weight); ``bound`` is the truncation degree.  ``nums``
    maps each packed monomial to its integer numerator and ``den`` is the
    common denominator, in lowest terms.  Instances are treated as
    immutable: all operations return new polynomials.  Constructors also
    take a plain grade dictionary.

    Equality compares values only: two polynomials with the same terms are
    equal whatever their ``bound`` and ``grades``.
    """

    __slots__ = ("nums", "den", "grades", "bound")

    def __init__(self, nums, den, grades, bound):
        # Internal constructor: assumes nums and den already in lowest
        # terms, without zero numerators or monomials beyond the bound,
        # keyed in the table ``grades``, whose mask is at least ``bound``.
        self.nums = nums
        self.den = den
        self.grades = grades
        self.bound = bound

    # -- construction ------------------------------------------------------

    @classmethod
    def make(cls, terms, grades, bound):
        """Build a polynomial from a mapping tuple monomial -> int or
        Fraction, dropping zero coefficients and monomials beyond the
        truncation bound."""
        table = var_table(grades, bound)
        dshift = table.dshift
        clean = {}
        den = 1
        for mono, coeff in terms.items():
            n, d = _num_den(coeff)
            if n == 0:
                continue
            m = table.encode(mono)
            if m >> dshift > bound:
                continue
            if m in clean:  # a second spelling of one monomial
                n0, d0 = clean[m]
                n, d = n0 * d + n * d0, d0 * d
            clean[m] = n, d
            den = lcm(den, d)
        nums = {m: n * (den // d) for m, (n, d) in clean.items() if n}
        return _lowest(nums, den, table, bound)

    @classmethod
    def zero(cls, grades, bound):
        return cls({}, 1, var_table(grades, bound), bound)

    @classmethod
    def const(cls, value, grades, bound):
        n, d = _num_den(value)
        table = var_table(grades, bound)
        if n == 0:
            return cls({}, 1, table, bound)
        return cls({0: n}, d, table, bound)

    @classmethod
    def var(cls, name, grades, bound):
        table = var_table(grades, bound)
        if name not in table:
            raise KeyError(f"variable {name!r} has no declared grade")
        if table[name] > bound:
            return cls({}, 1, table, bound)
        return cls({table.unit[name]: 1}, 1, table, bound)

    # -- bookkeeping -------------------------------------------------------

    def _merged(self, other):
        """Common table and bound for a binary operation, and both
        operands' numerators keyed in that table.

        Elements of one table and bound combine as they are; otherwise
        both are re-encoded into the union of the tables, in which a
        variable declared on both sides must have the same grade.  The
        bound is the minimum of the two, and terms above it are dropped:
        precision cannot be gained by combining truncated elements.
        """
        bound = min(self.bound, other.bound)
        t1, t2 = self.grades, other.grades
        if t1 is t2 and self.bound == other.bound:
            return t1, bound, self.nums, other.nums
        table = _union(t1, t2)
        return (table, bound, _recode(self.nums, t1, table, bound),
                _recode(other.nums, t2, table, bound))

    @property
    def terms(self):
        """Read-only mapping tuple monomial -> exact coefficient."""
        return _Terms(self)

    def is_zero(self):
        return not self.nums

    def coefficient(self, mono):
        """The exact coefficient of a tuple monomial (0 when absent)."""
        table = self.grades
        try:
            m = table.encode(mono)
        except KeyError:  # a variable the ring does not hold
            return 0
        if m >> table.dshift > self.bound:
            return 0
        return _exact(self.nums.get(m, 0), self.den)

    def constant_term(self):
        return _exact(self.nums.get(0, 0), self.den)

    def monomials(self):
        """The tuple monomials, as a view whose ``len`` decodes nothing."""
        return self.terms.keys()

    def variables(self):
        seen = 0
        for m in self.nums:
            seen |= m
        table = self.grades
        return {v for v, s in table.shift.items() if seen >> s & table.mask}

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other, self.grades, self.bound)
        table, bound, left, right = self._merged(other)
        # Bring both sides over the least common denominator.
        d1, d2 = self.den, other.den
        g = gcd(d1, d2)
        s1, s2 = d2 // g, d1 // g
        if s1 == 1:
            nums = dict(left)
        else:
            nums = {m: n * s1 for m, n in left.items()}
        get = nums.get
        for mono, n in right.items():
            acc = get(mono, 0) + n * s2
            if acc:
                nums[mono] = acc
            else:
                nums.pop(mono, None)
        return _lowest(nums, d1 * s1, table, bound)

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -n for m, n in self.nums.items()}, self.den,
                    self.grades, self.bound)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other, self.grades, self.bound)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            p, q = _num_den(other)
            if p == 0:
                return Poly({}, 1, self.grades, self.bound)
            return _lowest({m: n * p for m, n in self.nums.items()},
                           self.den * q, self.grades, self.bound)
        table, bound, left, right = self._merged(other)
        dshift = table.dshift
        groups = _degree_groups(right, dshift)
        nums = {}
        get = nums.get
        for m1, c1 in left.items():
            room = bound - (m1 >> dshift)
            for d2, group in groups:
                if d2 > room:
                    break
                for m2, c2 in group:
                    mono = m1 + m2
                    acc = get(mono, 0) + c1 * c2
                    if acc:
                        nums[mono] = acc
                    else:
                        nums.pop(mono, None)
        return _lowest(nums, self.den * other.den, table, bound)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers are defined")
        result = Poly.const(1, self.grades, self.bound)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, Poly):
            if self.den != other.den:
                return False
            if self.grades is other.grades:
                return self.nums == other.nums
            return self._by_tuple() == other._by_tuple()
        if isinstance(other, (int, Fraction)):
            n, d = _num_den(other)
            if n == 0:
                return not self.nums
            return self.den == d and self.nums == {0: n}
        return NotImplemented

    def _by_tuple(self):
        decode = self.grades.decode
        return {decode(m): n for m, n in self.nums.items()}

    # -- graded structure --------------------------------------------------

    def graded_part(self, k):
        """The homogeneous component of weighted degree k."""
        dshift = self.grades.dshift
        nums = {m: n for m, n in self.nums.items() if m >> dshift == k}
        return _lowest(nums, self.den, self.grades, self.bound)

    def graded_parts(self):
        """All nonzero homogeneous components, as a dict degree -> Poly."""
        return {k: _lowest(dict(group), self.den, self.grades, self.bound)
                for k, group in _degree_groups(self.nums, self.grades.dshift)}

    def recode(self, table, bound):
        """This polynomial re-keyed in ``table`` and truncated at ``bound``,
        as a ring's ``from_poly`` admits it: ``TypeError`` for one
        truncated below ``bound`` or over a variable the table lacks."""
        if self.bound < bound:
            raise TypeError(f"a polynomial truncated at degree {self.bound} "
                            f"cannot enter a ring truncated at {bound}")
        if self.grades is table and self.bound == bound:
            return self
        return _lowest(_recode(self.nums, self.grades, table, bound),
                       self.den, table, bound)

    def truncate(self, bound):
        table = var_table(self.grades, bound)
        return _lowest(_recode(self.nums, self.grades, table, bound),
                       self.den, table, bound)

    def alternate_signs(self):
        """Scale each degree-k component by (-1)^k.

        This is the ring automorphism induced by negating every grade-1
        generator, hence it commutes with products.
        """
        dshift = self.grades.dshift
        nums = {m: (-n if m >> dshift & 1 else n) for m, n in self.nums.items()}
        return Poly(nums, self.den, self.grades, self.bound)

    # -- substitution and evaluation ----------------------------------------

    def substitute(self, mapping):
        """Replace variables by polynomials.

        ``mapping`` maps variable names to Poly values; variables not listed
        are kept as themselves.  Substitution must not raise degrees above
        the bound in an uncontrolled way: images are truncated like any
        other product.
        """
        table = self.grades
        for img in mapping.values():
            table = _union(table, img.grades)
        out = Poly.zero(table, self.bound)
        for mono, coeff in self.terms.items():
            term = Poly.const(coeff, table, self.bound)
            for v, e in mono:
                if v in mapping:
                    term = term * (mapping[v] ** e)
                else:
                    term = term * (Poly.var(v, table, self.bound) ** e)
            out = out + term
        return out

    def evaluate(self, values):
        """Evaluate at rational points; every variable must be assigned.

        Fraction-free: with the values written a_v / q over their common
        denominator q, a term of total exponent t is n * prod a_v^e over
        q^t.  The integer sums of the terms of each t are brought over
        q^top, for the largest t, and divided once.
        """
        table = self.grades
        point = {v: _num_den(values[v]) for v in self.variables()}
        q = lcm(*(d for _, d in point.values()))
        fields = [(n * (q // d), table.shift[v]) for v, (n, d) in point.items()]
        mask = table.mask
        sums = {}
        for m, n in self.nums.items():
            t = 0
            for a, s in fields:
                e = m >> s & mask
                if e:
                    n *= a ** e
                    t += e
            sums[t] = sums.get(t, 0) + n
        top = max(sums, default=0)
        total = sum(s * q ** (top - t) for t, s in sums.items())
        return Fraction(total, self.den * q ** top)

    # -- display -----------------------------------------------------------

    def sorted_terms(self):
        """(tuple monomial, exact coefficient) pairs in graded-lexicographic
        order (degree, then variable word)."""
        table = self.grades
        dshift, decode = table.dshift, table.decode
        items = sorted((m >> dshift, decode(m), n) for m, n in self.nums.items())
        return [(mono, _exact(n, self.den)) for _, mono, n in items]

    def __str__(self):
        if not self.nums:
            return "0"
        pieces = []
        for mono, coeff in self.sorted_terms():
            factors = []
            for v, e in mono:
                factors.append(v if e == 1 else f"{v}^{e}")
            body = "*".join(factors)
            if not body:
                text = str(coeff)
            elif coeff == 1:
                text = body
            elif coeff == -1:
                text = f"-{body}"
            else:
                text = f"{coeff}*{body}"
            pieces.append(text)
        out = pieces[0]
        for p in pieces[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"Poly({self})"


class _Terms(Mapping):
    """The terms of a Poly as a read-only mapping tuple monomial ->
    coefficient, an int when integral and a Fraction otherwise.  ``len``
    reads the stored form; anything else decodes it once."""

    __slots__ = ("_poly", "_decoded")

    def __init__(self, poly):
        self._poly = poly
        self._decoded = None

    def _dict(self):
        if self._decoded is None:
            p = self._poly
            decode, den = p.grades.decode, p.den
            self._decoded = {decode(m): _exact(n, den) for m, n in p.nums.items()}
        return self._decoded

    def __getitem__(self, mono):
        return self._dict()[mono]

    def __iter__(self):
        return iter(self._dict())

    def __len__(self):
        return len(self._poly.nums)

    def items(self):
        return self._dict().items()

    def __repr__(self):
        return repr(self._dict())


class PowerSeries:
    """A univariate power series truncated at order D, held fraction-free
    like ``Poly``: ``nums`` is the tuple of the D+1 integer numerators
    (index = exponent) and ``den`` their positive common denominator, in
    lowest terms.  Instances are immutable, so one series can be shared by
    every caller (``symfun`` builds each standard series once per order).
    ``coeffs`` presents the coefficients as a new list of Fractions on
    each access."""

    __slots__ = ("nums", "den")

    def __init__(self, coeffs):
        pairs = [_num_den(c) for c in coeffs]
        if not pairs:
            raise ValueError("a power series needs at least its constant term")
        # The lcm of reduced denominators leaves the numerators over it in
        # lowest terms.
        den = lcm(*(d for _, d in pairs))
        object.__setattr__(self, "nums", tuple(n * (den // d) for n, d in pairs))
        object.__setattr__(self, "den", den)

    @classmethod
    def _reduced(cls, nums, den):
        """The series nums[k] / den, for a positive den, in lowest terms."""
        g = gcd(den, *nums)
        if g != 1:
            nums = tuple(n // g for n in nums)
            den //= g
        series = object.__new__(cls)
        object.__setattr__(series, "nums", nums)
        object.__setattr__(series, "den", den)
        return series

    def __setattr__(self, name, value):
        raise AttributeError("PowerSeries is immutable")

    @property
    def order(self):
        return len(self.nums) - 1

    @property
    def coeffs(self):
        return [Fraction(n, self.den) for n in self.nums]

    @classmethod
    def from_function(cls, coefficient_at, order):
        return cls([coefficient_at(n) for n in range(order + 1)])

    def __eq__(self, other):
        return (isinstance(other, PowerSeries) and self.den == other.den
                and self.nums == other.nums)

    def __add__(self, other):
        n = max(len(self.nums), len(other.nums))
        den = lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        a = self.nums + (0,) * (n - len(self.nums))
        b = other.nums + (0,) * (n - len(other.nums))
        return PowerSeries._reduced(
            tuple(x * s + y * t for x, y in zip(a, b)), den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            p, q = _num_den(other)
            return PowerSeries._reduced(tuple(n * p for n in self.nums),
                                        self.den * q)
        n = min(len(self.nums), len(other.nums))
        b = other.nums
        out = [0] * n
        for i, a in enumerate(self.nums[:n]):
            if a:
                for j in range(n - i):
                    out[i + j] += a * b[j]
        return PowerSeries._reduced(tuple(out), self.den * other.den)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse; requires a unit constant term.

        Fraction-free: for the series A_k / D the inverse is
        D C_k / A_0^(k+1), with C_0 = 1 and
        C_k = -sum_{j=1..k} A_j A_0^(j-1) C_(k-j), all integers.
        """
        a = self.nums
        if a[0] == 0:
            raise ZeroDivisionError("series with zero constant term is not invertible")
        n = len(a) - 1
        a0_pow = [1]
        for _ in range(n):
            a0_pow.append(a0_pow[-1] * a[0])
        c = [1]
        for k in range(1, n + 1):
            c.append(-sum(a[j] * a0_pow[j - 1] * c[k - j]
                          for j in range(1, k + 1)))
        den = a0_pow[n] * a[0]
        sign = -1 if den < 0 else 1
        return PowerSeries._reduced(
            tuple(sign * self.den * c[k] * a0_pow[n - k] for k in range(n + 1)),
            sign * den)

    def alternate(self):
        """The series f(-T)."""
        return PowerSeries._reduced(
            tuple(-n if k & 1 else n for k, n in enumerate(self.nums)),
            self.den)

    def apply_to(self, root):
        """Substitute a polynomial for the series variable, in the root's
        ring.

        Truncation of the ring makes the sum finite: powers of a root of
        positive degree vanish once their degree exceeds the bound.  The
        sum is formed fraction-free, over one denominator, and reduced
        once.  A one-term root (n/d) m, m a monomial of degree g > 0,
        needs no product: with the series A_k / den, the result is
        sum_k A_k n^k d^(K-k) (k m) over den d^K, for k g <= bound.  Any
        other root (several terms, a constant or zero) is raised to its
        powers by ``Poly`` products.  Trailing zero coefficients of the
        series are skipped.
        """
        table, bound = root.grades, root.bound
        a = self.nums
        top = len(a) - 1
        while top and not a[top]:
            top -= 1
        if len(root.nums) == 1:
            [(m, n)] = root.nums.items()
            g = m >> table.dshift
            if g:
                top = min(top, bound // g)
                d = root.den
                nums = {}
                n_k, d_rest = 1, d ** top  # n^k and d^(top-k)
                for k in range(top + 1):
                    if a[k]:
                        nums[k * m] = a[k] * n_k * d_rest
                    n_k *= n
                    d_rest //= d
                return _lowest(nums, self.den * d ** top, table, bound)
        powers = []
        power = Poly.const(1, table, bound)
        for k in range(1, top + 1):
            power = power * root
            if power.is_zero():
                break
            if a[k]:
                powers.append((a[k], power))
        e = lcm(*(p.den for _, p in powers))
        nums = {0: a[0] * e} if a[0] else {}
        get = nums.get
        for a_k, p in powers:
            scale = a_k * (e // p.den)
            for mono, c in p.nums.items():
                acc = get(mono, 0) + scale * c
                if acc:
                    nums[mono] = acc
                else:
                    nums.pop(mono, None)
        return _lowest(nums, self.den * e, table, bound)

    def __repr__(self):
        return f"PowerSeries({[str(c) for c in self.coeffs]})"
