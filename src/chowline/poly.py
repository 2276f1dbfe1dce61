"""Sparse multivariate polynomials over Q with weighted grading and truncation.

Every variable carries a positive integer grade (Chern roots have grade 1,
a formal class symbol ``c3(E)`` has grade 3).  A polynomial lives in a
truncated graded ring: monomials whose total weighted degree exceeds the
bound are discarded on construction, so all arithmetic is exact modulo
terms of degree > bound.  Coefficients are ``fractions.Fraction``
throughout; no floating point is used anywhere.

Monomials are stored sparsely as tuples of (variable, exponent) pairs
sorted by variable name, which gives a canonical form: two polynomials are
equal iff their term dictionaries are equal.
"""

from __future__ import annotations

from fractions import Fraction

Monomial = tuple  # tuple[tuple[str, int], ...], sorted by variable name

ONE_MONO: Monomial = ()


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an integer or Fraction, got {type(x).__name__}")


class Poly:
    """A sparse polynomial with exact rational coefficients.

    ``grades`` maps each variable to its weight; ``bound`` is the truncation
    degree.  Instances are treated as immutable: all operations return new
    polynomials.
    """

    __slots__ = ("terms", "grades", "bound")

    def __init__(self, terms, grades, bound):
        # Internal constructor: assumes terms already normalized.
        self.terms = terms
        self.grades = grades
        self.bound = bound

    # -- construction ------------------------------------------------------

    @classmethod
    def make(cls, terms, grades, bound):
        """Build a polynomial, dropping zero coefficients and monomials
        beyond the truncation bound."""
        clean = {}
        for mono, coeff in terms.items():
            coeff = _as_fraction(coeff)
            if coeff == 0:
                continue
            if weighted_degree(mono, grades) > bound:
                continue
            clean[mono] = coeff
        return cls(clean, grades, bound)

    @classmethod
    def zero(cls, grades, bound):
        return cls({}, grades, bound)

    @classmethod
    def const(cls, value, grades, bound):
        value = _as_fraction(value)
        if value == 0:
            return cls({}, grades, bound)
        return cls({ONE_MONO: value}, grades, bound)

    @classmethod
    def var(cls, name, grades, bound):
        if name not in grades:
            raise KeyError(f"variable {name!r} has no declared grade")
        mono = ((name, 1),)
        if grades[name] > bound:
            return cls({}, grades, bound)
        return cls({mono: Fraction(1)}, grades, bound)

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

    def is_zero(self):
        return not self.terms

    def constant_term(self):
        return self.terms.get(ONE_MONO, Fraction(0))

    def variables(self):
        seen = set()
        for mono in self.terms:
            for v, _ in mono:
                seen.add(v)
        return seen

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other, self.grades, self.bound)
        grades, bound = self._merged(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = terms.get(mono, 0) + coeff
            if acc:
                terms[mono] = acc
            else:
                terms.pop(mono, None)
        if self.bound != other.bound:  # drop what exceeds the lower bound
            terms = {m: c for m, c in terms.items()
                     if weighted_degree(m, grades) <= bound}
        return Poly(terms, grades, bound)

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()}, self.grades, self.bound)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other, self.grades, self.bound)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            scalar = _as_fraction(other)
            if scalar == 0:
                return Poly({}, self.grades, self.bound)
            return Poly({m: c * scalar for m, c in self.terms.items()},
                        self.grades, self.bound)
        grades, bound = self._merged(other)
        # The right operand's terms grouped by degree, lowest first: each
        # left term stops at the first group that would exceed the bound.
        buckets = {}
        for m2, c2 in other.terms.items():
            buckets.setdefault(weighted_degree(m2, grades), []).append((m2, c2))
        groups = sorted(buckets.items())
        terms = {}
        get = terms.get
        for m1, c1 in self.terms.items():
            room = bound - weighted_degree(m1, grades)
            for d2, group in groups:
                if d2 > room:
                    break
                for m2, c2 in group:
                    mono = mono_mul(m1, m2)
                    acc = get(mono, 0) + c1 * c2
                    if acc:
                        terms[mono] = acc
                    else:
                        terms.pop(mono, None)
        return Poly(terms, grades, bound)

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
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            other = _as_fraction(other)
            if other == 0:
                return not self.terms
            return self.terms == {ONE_MONO: other}
        return NotImplemented

    def __ne__(self, other):
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    # -- graded structure --------------------------------------------------

    def graded_part(self, k):
        """The homogeneous component of weighted degree k."""
        terms = {m: c for m, c in self.terms.items()
                 if weighted_degree(m, self.grades) == k}
        return Poly(terms, self.grades, self.bound)

    def graded_parts(self):
        """All nonzero homogeneous components, as a dict degree -> Poly."""
        buckets = {}
        for m, c in self.terms.items():
            buckets.setdefault(weighted_degree(m, self.grades), {})[m] = c
        return {k: Poly(t, self.grades, self.bound)
                for k, t in sorted(buckets.items())}

    def truncate(self, bound):
        if bound >= self.bound:
            return Poly(dict(self.terms), self.grades, bound)
        terms = {m: c for m, c in self.terms.items()
                 if weighted_degree(m, self.grades) <= bound}
        return Poly(terms, self.grades, bound)

    def alternate_signs(self):
        """Scale each degree-k component by (-1)^k.

        This is the ring automorphism induced by negating every grade-1
        generator, hence it commutes with products.
        """
        terms = {m: (c if weighted_degree(m, self.grades) % 2 == 0 else -c)
                 for m, c in self.terms.items()}
        return Poly(terms, self.grades, self.bound)

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
        for mono, coeff in self.terms.items():
            term = Poly.const(coeff, grades, self.bound)
            for v, e in mono:
                if v in mapping:
                    term = term * (mapping[v] ** e)
                else:
                    term = term * (Poly.var(v, grades, self.bound) ** e)
            out = out + term
        return out

    def evaluate(self, values):
        """Evaluate at rational points; every variable must be assigned."""
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            acc = coeff
            for v, e in mono:
                acc *= _as_fraction(values[v]) ** e
            total += acc
        return total

    def rename(self, mapping):
        """Rename variables (grades follow the old names)."""
        grades = {mapping.get(v, v): g for v, g in self.grades.items()}
        terms = {}
        for mono, coeff in self.terms.items():
            new = tuple(sorted((mapping.get(v, v), e) for v, e in mono))
            terms[new] = coeff
        return Poly(terms, grades, self.bound)

    # -- display -----------------------------------------------------------

    def sorted_terms(self):
        """Terms in graded-lexicographic order (degree, then variable word)."""
        return sorted(self.terms.items(),
                      key=lambda item: (weighted_degree(item[0], self.grades), item[0]))

    def __str__(self):
        if not self.terms:
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
