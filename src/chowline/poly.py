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
``symfun.to_chern_basis`` reads that form, to reduce integer numerators
over ``den``; everything else sees ``Poly.terms``, which presents each
coefficient as an ``int`` when it is integral and a ``Fraction``
otherwise.  ``PowerSeries`` keeps ``Fraction`` coefficients, since
inversion divides.

Monomials are stored sparsely as tuples of (variable, exponent) pairs
sorted by variable name.  With the reduced denominator this gives a
canonical form: two polynomials are equal iff their denominators and
numerator dictionaries are equal.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType

Monomial = tuple  # tuple[tuple[str, int], ...], sorted by variable name

ONE_MONO: Monomial = ()


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an integer or Fraction, got {type(x).__name__}")


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

    ``grades`` maps each variable to its weight; ``bound`` is the truncation
    degree.  ``nums`` maps each monomial to its integer numerator and
    ``den`` is the common denominator, in lowest terms.  Instances are
    treated as immutable: all operations return new polynomials.

    Equality compares values only: two polynomials with the same terms are
    equal whatever their ``bound`` and ``grades``.
    """

    __slots__ = ("nums", "den", "grades", "bound")

    def __init__(self, nums, den, grades, bound):
        # Internal constructor: assumes nums and den already in lowest
        # terms, without zero numerators or monomials beyond the bound.
        self.nums = nums
        self.den = den
        self.grades = grades
        self.bound = bound

    # -- construction ------------------------------------------------------

    @classmethod
    def make(cls, terms, grades, bound):
        """Build a polynomial from a mapping monomial -> int or Fraction,
        dropping zero coefficients and monomials beyond the truncation
        bound."""
        clean = {}
        den = 1
        for mono, coeff in terms.items():
            n, d = _num_den(coeff)
            if n == 0 or weighted_degree(mono, grades) > bound:
                continue
            clean[mono] = n, d
            den = den // gcd(den, d) * d
        nums = {m: n * (den // d) for m, (n, d) in clean.items()}
        return _lowest(nums, den, grades, bound)

    @classmethod
    def zero(cls, grades, bound):
        return cls({}, 1, grades, bound)

    @classmethod
    def const(cls, value, grades, bound):
        n, d = _num_den(value)
        if n == 0:
            return cls({}, 1, grades, bound)
        return cls({ONE_MONO: n}, d, grades, bound)

    @classmethod
    def var(cls, name, grades, bound):
        if name not in grades:
            raise KeyError(f"variable {name!r} has no declared grade")
        if grades[name] > bound:
            return cls({}, 1, grades, bound)
        return cls({((name, 1),): 1}, 1, grades, bound)

    # -- bookkeeping -------------------------------------------------------

    def _merged(self, other):
        """Common (grades, bound) for a binary operation.

        Grade dictionaries are merged; a variable declared on both sides
        must have the same grade.  The bound is the minimum of the two:
        precision cannot be gained by combining truncated elements.
        """
        if self.grades is other.grades:
            grades = self.grades
        else:
            grades = dict(self.grades)
            for v, g in other.grades.items():
                if grades.setdefault(v, g) != g:
                    raise ValueError(f"conflicting grades for variable {v!r}")
        return grades, min(self.bound, other.bound)

    @property
    def terms(self):
        """Read-only mapping monomial -> exact coefficient."""
        if self.den == 1:  # the numerators are the coefficients: a
            # view without a Python-level len() or lookup
            return MappingProxyType(self.nums)
        return _Terms(self)

    def is_zero(self):
        return not self.nums

    def coefficient(self, mono):
        """The exact coefficient of a monomial (0 when absent)."""
        return _exact(self.nums.get(mono, 0), self.den)

    def constant_term(self):
        return self.coefficient(ONE_MONO)

    def monomials(self):
        return self.nums.keys()

    def variables(self):
        seen = set()
        for mono in self.nums:
            for v, _ in mono:
                seen.add(v)
        return seen

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other, self.grades, self.bound)
        grades, bound = self._merged(other)
        # Bring both sides over the least common denominator.
        d1, d2 = self.den, other.den
        g = gcd(d1, d2)
        s1, s2 = d2 // g, d1 // g
        if s1 == 1:
            nums = dict(self.nums)
        else:
            nums = {m: n * s1 for m, n in self.nums.items()}
        get = nums.get
        for mono, n in other.nums.items():
            acc = get(mono, 0) + n * s2
            if acc:
                nums[mono] = acc
            else:
                nums.pop(mono, None)
        if self.bound != other.bound:  # drop what exceeds the lower bound
            nums = {m: n for m, n in nums.items()
                    if weighted_degree(m, grades) <= bound}
        return _lowest(nums, d1 * s1, grades, bound)

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
        grades, bound = self._merged(other)
        # The right operand's terms grouped by degree, lowest first: each
        # left term stops at the first group that would exceed the bound.
        buckets = {}
        for m2, c2 in other.nums.items():
            buckets.setdefault(weighted_degree(m2, grades), []).append((m2, c2))
        groups = sorted(buckets.items())
        nums = {}
        get = nums.get
        for m1, c1 in self.nums.items():
            room = bound - weighted_degree(m1, grades)
            for d2, group in groups:
                if d2 > room:
                    break
                for m2, c2 in group:
                    mono = mono_mul(m1, m2)
                    acc = get(mono, 0) + c1 * c2
                    if acc:
                        nums[mono] = acc
                    else:
                        nums.pop(mono, None)
        return _lowest(nums, self.den * other.den, grades, bound)

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
            return self.den == other.den and self.nums == other.nums
        if isinstance(other, (int, Fraction)):
            n, d = _num_den(other)
            if n == 0:
                return not self.nums
            return self.den == d and self.nums == {ONE_MONO: n}
        return NotImplemented

    def __ne__(self, other):
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    # -- graded structure --------------------------------------------------

    def graded_part(self, k):
        """The homogeneous component of weighted degree k."""
        nums = {m: n for m, n in self.nums.items()
                if weighted_degree(m, self.grades) == k}
        return _lowest(nums, self.den, self.grades, self.bound)

    def graded_parts(self):
        """All nonzero homogeneous components, as a dict degree -> Poly."""
        buckets = {}
        for m, n in self.nums.items():
            buckets.setdefault(weighted_degree(m, self.grades), {})[m] = n
        return {k: _lowest(t, self.den, self.grades, self.bound)
                for k, t in sorted(buckets.items())}

    def truncate(self, bound):
        if bound >= self.bound:
            return Poly(dict(self.nums), self.den, self.grades, bound)
        nums = {m: n for m, n in self.nums.items()
                if weighted_degree(m, self.grades) <= bound}
        return _lowest(nums, self.den, self.grades, bound)

    def alternate_signs(self):
        """Scale each degree-k component by (-1)^k.

        This is the ring automorphism induced by negating every grade-1
        generator, hence it commutes with products.
        """
        nums = {m: (n if weighted_degree(m, self.grades) % 2 == 0 else -n)
                for m, n in self.nums.items()}
        return Poly(nums, self.den, self.grades, self.bound)

    def split_powers(self, name, r, grades, bound):
        """Split the terms by their exponent e of the variable ``name``.

        Returns ``(low, high)``: ``low`` holds the terms with e < r as they
        are, and ``high`` maps each e >= r to the polynomial of the
        cofactors of name^e (the terms with ``name`` removed).  Both parts
        take ``grades`` and ``bound``; the caller vouches that the terms
        fit that bound.
        """
        low, high = {}, {}
        for mono, n in self.nums.items():
            i = 0
            for v, e in mono:
                if v == name:
                    break
                i += 1
            else:  # no factor of name: e = 0
                e = 0
            if e < r:
                low[mono] = n
            else:
                rest = mono[:i] + mono[i + 1:] if e else mono
                if e in high:
                    high[e][rest] = n
                else:
                    high[e] = {rest: n}
        if not high and grades is self.grades and bound == self.bound:
            return self, high
        return (_lowest(low, self.den, grades, bound),
                {e: _lowest(nums, self.den, grades, bound)
                 for e, nums in high.items()})

    # -- substitution and evaluation ----------------------------------------

    def substitute(self, mapping):
        """Replace variables by polynomials.

        ``mapping`` maps variable names to Poly values; variables not listed
        are kept as themselves.  Substitution must not raise degrees above
        the bound in an uncontrolled way: images are truncated like any
        other product.
        """
        grades = dict(self.grades)
        for img in mapping.values():
            for v, g in img.grades.items():
                if grades.setdefault(v, g) != g:
                    raise ValueError(f"conflicting grades for variable {v!r}")
        out = Poly.zero(grades, self.bound)
        for mono, n in self.nums.items():
            term = Poly.const(_exact(n, self.den), grades, self.bound)
            for v, e in mono:
                if v in mapping:
                    term = term * (mapping[v] ** e)
                else:
                    term = term * (Poly.var(v, grades, self.bound) ** e)
            out = out + term
        return out

    def evaluate(self, values):
        """Evaluate at rational points; every variable must be assigned.

        Fraction-free: with the values written a_v / q over their common
        denominator q, a term of total exponent t is n * prod a_v^e over
        q^t.  The integer sums of the terms of each t are brought over
        q^top, for the largest t, and divided once.
        """
        point = {v: _num_den(values[v]) for v in self.variables()}
        q = lcm(*(d for _, d in point.values()))
        scaled = {v: n * (q // d) for v, (n, d) in point.items()}
        sums = {}
        for mono, n in self.nums.items():
            t = 0
            for v, e in mono:
                n *= scaled[v] ** e
                t += e
            sums[t] = sums.get(t, 0) + n
        top = max(sums, default=0)
        total = sum(s * q ** (top - t) for t, s in sums.items())
        return Fraction(total, self.den * q ** top)

    def rename(self, mapping):
        """Rename variables (grades follow the old names)."""
        grades = {mapping.get(v, v): g for v, g in self.grades.items()}
        nums = {}
        for mono, n in self.nums.items():
            new = tuple(sorted((mapping.get(v, v), e) for v, e in mono))
            nums[new] = n
        return Poly(nums, self.den, grades, self.bound)

    # -- display -----------------------------------------------------------

    def sorted_terms(self):
        """(monomial, exact coefficient) pairs in graded-lexicographic
        order (degree, then variable word)."""
        return [(m, _exact(self.nums[m], self.den))
                for m in sorted(self.nums,
                                key=lambda m: (weighted_degree(m, self.grades), m))]

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
    """The terms of a Poly as a read-only mapping monomial -> coefficient,
    an int when integral and a Fraction otherwise."""

    __slots__ = ("_poly",)

    def __init__(self, poly):
        self._poly = poly

    def __getitem__(self, mono):
        return _exact(self._poly.nums[mono], self._poly.den)

    def __iter__(self):
        return iter(self._poly.nums)

    def __len__(self):
        return len(self._poly.nums)

    def __repr__(self):
        return repr(dict(self.items()))


def weighted_degree(mono, grades):
    # A plain loop: on the one- to three-variable monomials of this
    # package it runs about three times faster than sum() of a generator.
    degree = 0
    for v, e in mono:
        degree += grades[v] * e
    return degree


def mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    exps = dict(m1)
    for v, e in m2:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


class PowerSeries:
    """A univariate power series truncated at order D, held as a coefficient
    list of length D+1 (index = exponent)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = [_as_fraction(c) for c in coeffs]
        if not self.coeffs:
            raise ValueError("a power series needs at least its constant term")

    @property
    def order(self):
        return len(self.coeffs) - 1

    @classmethod
    def from_function(cls, coefficient_at, order):
        return cls([coefficient_at(n) for n in range(order + 1)])

    def __eq__(self, other):
        return isinstance(other, PowerSeries) and self.coeffs == other.coeffs

    def __add__(self, other):
        n = max(self.order, other.order)
        a = self.coeffs + [Fraction(0)] * (n - self.order)
        b = other.coeffs + [Fraction(0)] * (n - other.order)
        return PowerSeries([x + y for x, y in zip(a, b)])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return PowerSeries([c * other for c in self.coeffs])
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs[: n + 1 - i]):
                out[i + j] += a * b
        return PowerSeries(out)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse; requires a unit constant term."""
        if self.coeffs[0] == 0:
            raise ZeroDivisionError("series with zero constant term is not invertible")
        n = self.order
        inv = [Fraction(0)] * (n + 1)
        inv[0] = 1 / self.coeffs[0]
        for k in range(1, n + 1):
            acc = Fraction(0)
            for j in range(1, k + 1):
                if j <= n:
                    acc += self.coeffs[j] * inv[k - j]
            inv[k] = -acc / self.coeffs[0]
        return PowerSeries(inv)

    def alternate(self):
        """The series f(-T)."""
        return PowerSeries([c if i % 2 == 0 else -c
                            for i, c in enumerate(self.coeffs)])

    def apply_to(self, root):
        """Substitute a polynomial of positive degree for the series variable.

        Truncation of the ambient ring makes the sum finite: powers of the
        root vanish once their degree exceeds the bound.
        """
        out = Poly.const(self.coeffs[0], root.grades, root.bound)
        power = Poly.const(1, root.grades, root.bound)
        for c in self.coeffs[1:]:
            power = power * root
            if power.is_zero():
                break
            if c:
                out = out + power * c
        return out

    def __repr__(self):
        return f"PowerSeries({[str(c) for c in self.coeffs]})"
