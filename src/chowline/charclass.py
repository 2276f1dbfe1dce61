"""Characteristic classes of virtual bundles.

A virtual bundle is a formal expression over declared bundles, line
symbols and the trivial line, closed under direct sum, tensor product,
dual, determinant, exterior powers and integer multiples.  Reduction to
Chern roots follows the splitting principle:

* roots of a tensor product are pairwise sums,
* roots of Lambda^p are sums over p-element subsets of distinct roots,
* roots of the dual are negated,
* det contributes the single root c_1 = sum of all roots.

Every class is evaluated in a ring, a ``Setup`` or a ``Tower``, by
``evaluate_class_in_ring(spec, virtual, ring)``: a declared bundle's roots
are ``ring.roots(name)``, the trivial line's root is the ring's zero
polynomial, and the result is ``ring.from_poly`` of the evaluated
polynomial.  In a setup's Chern-basis ring (``chern_ring.ChernBasis``) a
sum, dual or integer multiple of declared bundles and the trivial line
takes no root: each bundle's occurrences fold into one univariate series,
whose value on the bundle is a sum over partitions (``_in_basis``); any
other virtual bundle is evaluated in the setup's roots and rewritten once
by ``symfun.to_chern_basis``.

An additive class phi acts by phi_0 * rank + sum over roots of the
positive part, summed with each root's multiplicity in one accumulator
of integer numerators over one denominator and reduced once; a
multiplicative class psi (psi(0) = 1) acts by the product of psi(root),
started from the first factor; a summand of multiplicity m takes psi^m
at each of its roots, raised once per m as a univariate series by
``_power``, the one routine that raises a class series to a multiplicity,
which the partition route shares.

Every series is a ``PowerSeries``, integer numerators over one
denominator, and every application to a root goes through
``PowerSeries.apply_to``, which takes no polynomial product: a one-term
root (a declared root, its negation, ``xi_j``) has a closed form, and a
root of several terms (a tensor root ``x_i + y_j``, a Lambda^p subset
sum, a line class) is expanded by the multinomial theorem.  The series
of ``ch``, ``td`` and ``td*`` come from ``symfun``, which builds each once
per order and shares it; a series is immutable, so sharing is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm, prod

from .chern_ring import ChernBasis, ChernSeries, chern_class, dual_class
from .errors import (
    ConstantTermNotOne,
    MalformedVirtualBundle,
    TruncationTooLow,
)
from .poly import PowerSeries, _lowest
from .symfun import (
    _orbit_sum,
    _partitions,
    exp_series,
    todd_series,
    todd_star_series,
)
# Unused here since multiplicities raise the univariate series, but still
# bound in this module: perfbench/layers.py traces it at this binding.
from .symfun import series_invert  # noqa: F401

# An exterior power enumerates subsets of the parent's root multiset; this
# cap keeps the combinatorial blowup within desk scale.
LAMBDA_RANK_LIMIT = 8

# A tensor product lists one root per pair of factor roots, so the count
# multiplies with every factor (2^k roots for the k-th tensor power of a
# rank-2 bundle).  A product with more roots than this is refused before
# its roots are listed.
TENSOR_ROOT_LIMIT = 256


class VirtualBundle:
    """Expression tree for a virtual vector bundle.

    Build with the module helpers (``bundle``, ``line_class``, ``trivial``)
    and combine with ``+`` (direct sum), ``*`` (tensor), unary ``-``
    (virtual negation), ``n * V`` (integer multiples), and the methods
    ``dual()``, ``det()``, ``lam(p)``.
    """

    __slots__ = ("kind", "args")

    def __init__(self, kind, args):
        self.kind = kind
        self.args = args

    # -- constructors --------------------------------------------------

    @classmethod
    def bundle(cls, name):
        return cls("bundle", (name,))

    @classmethod
    def trivial(cls):
        """The trivial line O."""
        return cls("trivial", ())

    @classmethod
    def line_class(cls, root):
        """A line with an explicitly given first Chern class (a degree-1
        polynomial), used when realizing bundles on towers."""
        return cls("line_class", (root,))

    @classmethod
    def zero(cls):
        return cls("zero", ())

    # -- algebra ---------------------------------------------------------

    def __add__(self, other):
        return VirtualBundle("sum", (self, _as_vb(other)))

    def __mul__(self, other):
        if isinstance(other, int):
            return VirtualBundle("scale", (other, self))
        return VirtualBundle("tensor", (self, _as_vb(other)))

    def __rmul__(self, other):
        if isinstance(other, int):
            return VirtualBundle("scale", (other, self))
        return NotImplemented

    def __neg__(self):
        return VirtualBundle("scale", (-1, self))

    def __sub__(self, other):
        return self + (-_as_vb(other))

    def dual(self):
        return VirtualBundle("dual", (self,))

    def det(self):
        return VirtualBundle("det", (self,))

    def lam(self, p):
        if p < 0:
            raise MalformedVirtualBundle("exterior power degree must be >= 0")
        return VirtualBundle("lam", (p, self))

    # -- reduction ---------------------------------------------------------

    def rank(self, rank_of=None):
        """Virtual rank; ``rank_of`` resolves declared bundle names."""
        k = self.kind
        if k == "bundle":
            if rank_of is None:
                raise MalformedVirtualBundle(
                    f"cannot resolve rank of bundle {self.args[0]!r}")
            return rank_of(self.args[0])
        if k in ("trivial", "line_class", "det"):
            return 1
        if k == "zero":
            return 0
        if k == "sum":
            return self.args[0].rank(rank_of) + self.args[1].rank(rank_of)
        if k == "tensor":
            return self.args[0].rank(rank_of) * self.args[1].rank(rank_of)
        if k == "dual":
            return self.args[0].rank(rank_of)
        if k == "scale":
            return self.args[0] * self.args[1].rank(rank_of)
        if k == "lam":
            p, child = self.args
            r = child.rank(rank_of)
            if r < 0:
                raise MalformedVirtualBundle(
                    "exterior power of a virtual bundle of negative rank")
            from math import comb
            return comb(r, p)
        raise AssertionError(k)

    def summands(self, ring):
        """Reduce to a list of (multiplicity, roots) pairs in ``ring``.

        A declared bundle takes ``ring.roots(name)`` and the trivial line
        the ring's zero.  Multiplicities are nonzero integers; each roots
        entry is a tuple of polynomials of the ring, of degree 1 or zero.
        """
        k = self.kind
        if k == "bundle":
            return [(1, ring.roots(self.args[0]))]
        if k == "zero":
            return []
        if k == "sum":
            return self.args[0].summands(ring) + self.args[1].summands(ring)
        if k == "scale":
            n, child = self.args
            if n == 0:
                return []
            return [(n * m, roots) for m, roots in child.summands(ring)]
        if k == "dual":
            return [(m, tuple(-r for r in roots))
                    for m, roots in self.args[0].summands(ring)]
        if k == "tensor":
            left = self.args[0].summands(ring)
            right = self.args[1].summands(ring)
            count = (sum(len(roots) for _, roots in left)
                     * sum(len(roots) for _, roots in right))
            if count > TENSOR_ROOT_LIMIT:
                raise MalformedVirtualBundle(
                    f"a tensor product with {count} roots exceeds the limit "
                    f"of {TENSOR_ROOT_LIMIT}")
            out = []
            for m1, roots1 in left:
                for m2, roots2 in right:
                    out.append((m1 * m2,
                                tuple(a + b for a in roots1 for b in roots2)))
            return out
        if k == "trivial":
            return [(1, (ring.zero().poly,))]
        if k == "line_class":
            return [(1, (self.args[0],))]
        if k == "det":
            total = ring.zero().poly
            for m, roots in self.args[0].summands(ring):
                for r in roots:
                    total = total + r * m
            return [(1, (total,))]
        if k == "lam":
            p, child = self.args
            flat = _positive_root_multiset(child.summands(ring))
            if p > len(flat):
                return []
            sums = []
            for subset in combinations(range(len(flat)), p):
                total = ring.zero().poly
                for i in subset:
                    total = total + flat[i]
                sums.append(total)
            return [(1, tuple(sums))]
        raise AssertionError(k)

    def __repr__(self):
        return f"VirtualBundle<{self.kind}>"


def _as_vb(x):
    if isinstance(x, VirtualBundle):
        return x
    raise TypeError(f"expected a VirtualBundle, got {type(x).__name__}")


def _positive_root_multiset(summands):
    """Flatten summands into one root multiset; only defined when every
    multiplicity is positive, and for at most ``LAMBDA_RANK_LIMIT`` roots,
    which is checked before the multiset is built."""
    if any(m < 0 for m, _ in summands):
        raise MalformedVirtualBundle(
            "exterior power of a genuinely virtual bundle is undefined")
    if sum(m * len(roots) for m, roots in summands) > LAMBDA_RANK_LIMIT:
        raise MalformedVirtualBundle(
            f"exterior powers are limited to rank {LAMBDA_RANK_LIMIT}")
    return [root for m, roots in summands for _ in range(m) for root in roots]


@dataclass(frozen=True)
class CharClassSpec:
    """An additive or multiplicative characteristic class given by a
    univariate series."""
    kind: str  # "additive" | "multiplicative"
    series: PowerSeries

    def __post_init__(self):
        if self.kind not in ("additive", "multiplicative"):
            raise ValueError("kind must be 'additive' or 'multiplicative'")
        if (self.kind == "multiplicative"
                and self.series.nums[0] != self.series.den):
            raise ConstantTermNotOne(
                "multiplicative class series must have constant term 1")


def _series_to_bound(series, bound):
    """The series with coefficients 0..bound: the ones a degree-1 root can
    reach, with any not given taken as 0, as ``apply_to`` takes them."""
    nums = series.nums[:bound + 1]
    return PowerSeries._reduced(nums + (0,) * (bound + 1 - len(nums)),
                                series.den)


def evaluate_class_in_ring(spec, virtual, ring):
    """Evaluate a characteristic class on a virtual bundle in ``ring``, a
    ``Setup``, its ``ChernBasis`` or a ``Tower``: the result is an element
    of that ring.  In a ``ChernBasis`` a sum, dual or multiple of declared
    bundles is summed over partitions (``_in_basis``), and any other
    bundle is evaluated in the setup's roots and rewritten once.

    Zero roots are skipped: psi(0) = 1, and the positive part of an
    additive class vanishes at 0.  An additive class sums m * phi(root)
    as integer numerators over the lcm of the parts' denominators, each
    part first re-keyed in the ring's table (``Poly.recode``, which
    refuses a foreign variable), and reduces the sum once.  A
    multiplicative class multiplies its factors, starting from the first.
    """
    if isinstance(ring, ChernBasis):
        multiples = _multiples(virtual)
        if multiples is not None:
            return _in_basis(spec, virtual, multiples, ring)
        return ring.from_roots(
            evaluate_class_in_ring(spec, virtual, ring.setup))
    summands = virtual.summands(ring)
    zero = ring.zero().poly
    table, bound = zero.grades, zero.bound
    if spec.kind == "additive":
        a, den = spec.series.nums, spec.series.den
        positive = PowerSeries._reduced((0,) + a[1:], den)
        parts = [(m, positive.apply_to(root).recode(table, bound))
                 for m, roots in summands for root in roots if root.nums]
        common = lcm(den, *(part.den for _, part in parts))
        rank = sum(m * len(roots) for m, roots in summands)
        nums = {0: a[0] * rank * (common // den)} if a[0] * rank else {}
        get = nums.get
        for m, part in parts:
            scale = m * (common // part.den)
            for mono, n in part.nums.items():
                acc = get(mono, 0) + scale * n
                if acc:
                    nums[mono] = acc
                else:
                    del nums[mono]
        return ring.from_poly(_lowest(nums, common, table, bound))
    f = _series_to_bound(spec.series, bound)
    # psi^m, formed at the first nonzero root of each m: a tower's td has
    # a -O summand whose only root is 0, and it inverts nothing.
    powers = {1: f}
    total = None
    for m, roots in summands:
        for root in roots:
            if not root.nums:
                continue
            if m not in powers:
                powers[m] = _power(f, m)
            value = powers[m].apply_to(root)
            total = value if total is None else total * value
    return ring.const(1) if total is None else ring.from_poly(total)


def _multiples(virtual):
    """{(name, dual): nonzero multiplicity} of a sum, dual or integer
    multiple of declared bundles and the trivial line, or None for a bundle
    with a tensor product, exterior power, determinant or line class."""
    out, stack = {}, [(virtual, 1, False)]
    while stack:
        v, m, dual = stack.pop()
        if v.kind == "sum":
            stack += [(child, m, dual) for child in v.args]
        elif v.kind == "scale":
            stack.append((v.args[1], m * v.args[0], dual))
        elif v.kind == "dual":
            stack.append((v.args[0], m, not dual))
        elif v.kind == "bundle":
            out[v.args[0], dual] = out.get((v.args[0], dual), 0) + m
        elif v.kind not in ("trivial", "zero"):
            return None
    return {key: m for key, m in out.items() if m}


def _power(series, m):
    """series^m for m != 0, by binary powering of series or its inverse."""
    if m < 0:
        series, m = series.inverse(), -m
    result = None
    while m:
        if m & 1:
            result = series if result is None else result * series
        m >>= 1
        if m:
            series = series * series
    return result


def _in_basis(spec, virtual, multiples, basis):
    """The class of ``virtual`` in the Chern-basis ring, summed over
    partitions (Macdonald, I.2 and I.6), for a virtual bundle whose
    ``_multiples`` are given.

    The occurrences of a bundle E fold into one univariate series g:
    f(-x) for a dual, and m f (additive) or f^m (multiplicative) for a
    multiple m.  Then sum_i g(x_i) is g_0 r + sum_k g_k m_(k), and
    prod_i g(x_i) is sum_lambda (prod_j g_lambda_j) m_lambda over the
    partitions of at most r parts and degree at most the truncation, each
    m_lambda read in the c_k(E) from its kept row (``_orbit_sum``).  The
    blocks of distinct bundles add or multiply."""
    setup, bound = basis.setup, basis.truncation
    f = _series_to_bound(spec.series, bound)
    additive = spec.kind == "additive"
    folded = {}
    for (name, dual), m in multiples.items():
        g = f.alternate() if dual else f
        g = g * m if additive else _power(g, m)
        if name in folded:
            g = folded[name] + g if additive else folded[name] * g
        folded[name] = g
    total = basis.const(Fraction(f.nums[0] * virtual.rank(setup.rank),
                                 f.den)) if additive else None
    for name, g in folded.items():
        r, a = setup.rank(name), g.nums
        if additive:
            orbits = {((k,) + (0,) * (r - 1),): a[k]
                      for k in range(1, bound + 1) if a[k]}
        else:  # a[0] = g.den: lambda's coefficient is over g.den^r
            orbits = {(lam,): c for lam in _partitions(r, bound)
                      if (c := prod(a[k] for k in lam))}
        block = ChernSeries(basis, _orbit_sum(
            orbits, g.den if additive else g.den ** r, [(name, r)],
            basis.grades, bound))
        total = (block if total is None
                 else total + block if additive else total * block)
    return basis.const(1) if total is None else total


def chern_character_spec(order):
    return CharClassSpec("additive", exp_series(order))


def todd_spec(order):
    return CharClassSpec("multiplicative", todd_series(order))


def todd_star_spec(order):
    """Todd class with the degree-k piece scaled by (-1)^k; as a series
    this is td(-T) = T/(e^T - 1), and td_star(V) = td(dual V)."""
    return CharClassSpec("multiplicative", todd_star_series(order))


def ch(virtual, setup):
    return evaluate_class_in_ring(
        chern_character_spec(setup.truncation), virtual, setup)


def td(virtual, setup):
    return evaluate_class_in_ring(todd_spec(setup.truncation), virtual, setup)


def td_star(virtual, setup):
    return evaluate_class_in_ring(
        todd_star_spec(setup.truncation), virtual, setup)


def ch_lambda_minus_one(setup, name):
    """ch of the alternating sum of exterior powers of E.

    Equals prod_i (1 - e^{x_i}) over the roots of E: the subset sums in
    ch(Lambda^p E) reassemble into the product.
    """
    expo = exp_series(setup.truncation)
    total = setup.const(1)
    for root in setup.roots(name):
        total = total * (setup.const(1) - ChernSeries(setup, expo.apply_to(root)))
    return total


def lambda_minus_one(setup, name):
    """The virtual bundle sum_p (-1)^p Lambda^p E."""
    rank = setup.rank(name)
    E = VirtualBundle.bundle(name)
    total = VirtualBundle.zero()
    for p in range(rank + 1):
        term = E.lam(p)
        if p % 2 == 1:
            term = -term
        total = total + term
    return total


def borel_serre_check(setup, name):
    """Check ch(lambda_{-1}(E)) = c_r(E^dual) * td(E^dual)^{-1} exactly.

    Returns (verdict, residual); the residual is the difference of the two
    sides, zero on success.
    """
    r = setup.rank(name)
    if setup.truncation < r:
        raise TruncationTooLow(
            f"need truncation >= {r} for a rank-{r} bundle")
    lhs = ch(lambda_minus_one(setup, name), setup)
    dual = VirtualBundle.bundle(name).dual()
    rhs = dual_class(setup, name, r) * td(dual, setup).inverse()
    residual = lhs - rhs
    return residual.is_zero(), residual


def ch_tensor_check(setup, v, w):
    """Check ch(V (x) W) = ch(V) * ch(W) exactly."""
    lhs = ch(v * w, setup)
    rhs = ch(v, setup) * ch(w, setup)
    return (lhs - rhs).is_zero()


def restriction_normal_bundle_check(setup, name):
    """Check ch(lambda_{-1}(E^dual)) = c_r(E) * td(E)^{-1} exactly.

    This is the Koszul-resolution form used for a regular section's zero
    locus: the left side is the class of i_! O_Y.
    """
    r = setup.rank(name)
    if setup.truncation < r:
        raise TruncationTooLow(
            f"need truncation >= {r} for a rank-{r} bundle")
    # prod_i (1 - e^{-x_i}): ch(lambda_{-1}(E)) with x_i -> -x_i, which
    # signs its degree-k part by (-1)^k.
    lhs = ch_lambda_minus_one(setup, name).alternate_signs()
    rhs = chern_class(setup, name, r) * td(VirtualBundle.bundle(name), setup).inverse()
    return (lhs - rhs).is_zero()
