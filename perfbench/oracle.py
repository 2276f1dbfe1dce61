"""Independent answers for the benchmark's correctness gate.

Nothing here imports chowline.  Every class value is recomputed at a
numeric point: Chern roots are set to rational numbers x_j = r_j * t, so a
characteristic class becomes a univariate power series in t whose
coefficient of t^k is the value of the class's degree-k part.  Pairing
degrees, Euler characteristics and Picard invariants come from closed
formulas or from the construction that generated the input.
"""

from fractions import Fraction
from itertools import combinations
from math import factorial

# -- univariate truncated series, as coefficient lists of length D + 1 --------


def series_mul(a, b):
    out = [Fraction(0)] * len(a)
    for i, x in enumerate(a):
        if x:
            for j in range(len(a) - i):
                out[i + j] += x * b[j]
    return out


def series_inv(a):
    inv = [Fraction(0)] * len(a)
    inv[0] = 1 / a[0]
    for k in range(1, len(a)):
        inv[k] = -sum(a[j] * inv[k - j] for j in range(1, k + 1)) / a[0]
    return inv


def series_pow(a, m):
    out = [Fraction(1)] + [Fraction(0)] * (len(a) - 1)
    base = a if m >= 0 else series_inv(a)
    for _ in range(abs(m)):
        out = series_mul(out, base)
    return out


def exp_at(value, D):
    """exp(value * t)."""
    return [Fraction(value) ** k / factorial(k) for k in range(D + 1)]


def todd_at(value, D):
    """td(value * t) with td(x) = x / (1 - e^{-x})."""
    denom = [Fraction((-1) ** k, factorial(k + 1)) for k in range(D + 1)]
    base = series_inv(denom)
    return [c * Fraction(value) ** k for k, c in enumerate(base)]


def elem(values, k):
    if k == 0:
        return Fraction(1)
    return sum((_prod(s) for s in combinations(values, k)), Fraction(0))


def complete(values, k):
    """Complete homogeneous symmetric polynomial h_k."""
    layers = [Fraction(1)] + [Fraction(0)] * k
    for v in values:
        for i in range(1, k + 1):
            layers[i] += layers[i - 1] * v
    return layers[k]


def _prod(xs):
    out = Fraction(1)
    for x in xs:
        out *= x
    return out


# -- virtual bundle trees ------------------------------------------------------
# A tree is a nested list: ["bundle", name], ["sum", a, b], ["tensor", a, b],
# ["dual", a] or ["scale", n, a].


def tree_roots(tree, roots):
    """(multiplicity, root values) summands of a tree at numeric roots."""
    kind = tree[0]
    if kind == "bundle":
        return [(1, list(roots[tree[1]]))]
    if kind == "sum":
        return tree_roots(tree[1], roots) + tree_roots(tree[2], roots)
    if kind == "tensor":
        return [(m1 * m2, [a + b for a in r1 for b in r2])
                for m1, r1 in tree_roots(tree[1], roots)
                for m2, r2 in tree_roots(tree[2], roots)]
    if kind == "dual":
        return [(m, [-a for a in r]) for m, r in tree_roots(tree[1], roots)]
    if kind == "scale":
        return [(tree[1] * m, r) for m, r in tree_roots(tree[2], roots)]
    raise ValueError(kind)


def tree_root_count(tree, ranks):
    """Sum of |multiplicity| * roots over the summands (the cost driver)."""
    unit = {name: [0] * r for name, r in ranks.items()}
    return sum(abs(m) * len(r) for m, r in tree_roots(tree, unit))


def multiplicative_at(summands, factor, D):
    out = [Fraction(1)] + [Fraction(0)] * D
    for m, values in summands:
        block = [Fraction(1)] + [Fraction(0)] * D
        for v in values:
            block = series_mul(block, factor(v, D))
        out = series_mul(out, series_pow(block, m))
    return out


def additive_at(summands, phi, D):
    out = [Fraction(0)] * (D + 1)
    for m, values in summands:
        for v in values:
            out = [x + m * y for x, y in zip(out, phi(v, D))]
    return out


def ch_of_tree(tree, roots, D):
    return additive_at(tree_roots(tree, roots), exp_at, D)


def lambda_minus_one_at(values, D):
    """ch(lambda_{-1}) of a bundle with the given roots: prod_j (1 - e^{x_j})."""
    out = [Fraction(1)] + [Fraction(0)] * D
    for v in values:
        out = series_mul(out, [1 - c if k == 0 else -c
                               for k, c in enumerate(exp_at(v, D))])
    return out


def td_star_of_tree(tree, roots, D):
    return multiplicative_at(tree_roots(tree, roots),
                             lambda v, D: todd_at(-v, D), D)


# -- class expressions for the CLI eval requests --------------------------------


def expression_at(expr, roots, D):
    """Value series of one of the benchmark's eval templates.

    ``expr`` is (template, args) as generated by the workload; ``roots``
    maps a bundle name to its root values.
    """
    template, args = expr[0], expr[1:]
    if template == "ch":
        return additive_at([(1, roots[args[0]])], exp_at, D)
    if template == "td":
        return multiplicative_at([(1, roots[args[0]])], todd_at, D)
    if template == "tdstar":
        return multiplicative_at([(1, roots[args[0]])],
                                 lambda v, D: todd_at(-v, D), D)
    if template == "ch_tensor":
        sums = [a + b for a in roots[args[0]] for b in roots[args[1]]]
        return additive_at([(1, sums)], exp_at, D)
    if template == "ch_dual_td":
        dual = additive_at([(1, [-a for a in roots[args[0]]])], exp_at, D)
        return series_mul(dual, multiplicative_at([(1, roots[args[0]])],
                                                  todd_at, D))
    if template == "td_diff":
        return multiplicative_at([(1, roots[args[0]]), (-1, roots[args[1]])],
                                 todd_at, D)
    if template == "segre":
        k = args[1]
        out = [Fraction(0)] * (D + 1)
        out[k] = complete(roots[args[0]], k)
        return out
    if template == "chern_product":
        k, a, j, b = args
        out = [Fraction(0)] * (D + 1)
        if k + j <= D:
            out[k + j] = elem(roots[a], k) * elem(roots[b], j)
        return out
    if template == "ch_lam2":
        sums = [a + b for a, b in combinations(roots[args[0]], 2)]
        return additive_at([(1, sums)], exp_at, D)
    raise ValueError(template)


def expression_text(expr):
    """The CLI expression for an eval template."""
    template, args = expr[0], expr[1:]
    return {
        "ch": lambda: f"ch({args[0]})",
        "td": lambda: f"td({args[0]})",
        "tdstar": lambda: f"tdstar({args[0]})",
        "ch_tensor": lambda: f"ch({args[0]}*{args[1]})",
        "ch_dual_td": lambda: f"ch(dual({args[0]}))*td({args[0]})",
        "td_diff": lambda: f"td({args[0]} - {args[1]})",
        "segre": lambda: f"s({args[1]}, {args[0]})",
        "chern_product": lambda: f"c({args[0]}, {args[1]})*c({args[2]}, {args[3]})",
        "ch_lam2": lambda: f"ch(lam(2, {args[0]}))",
    }[template]()


def chern_report_at(by_degree, roots, D):
    """Evaluate a CLI ``by_degree`` report (Chern-basis monomials such as
    ``c1(E)^2*c2(F)``) at numeric roots, degree by degree."""
    out = [Fraction(0)] * (D + 1)
    for degree, monomials in by_degree.items():
        total = Fraction(0)
        for key, coeff in monomials.items():
            value = Fraction(coeff)
            if key != "1":
                for factor in key.split("*"):
                    symbol, _, power = factor.partition("^")
                    index, label = symbol[1:].split("(", 1)
                    value *= elem(roots[label[:-1]], int(index)) ** int(power or 1)
            total += value
        out[int(degree)] = total
    return out


# -- pairing degrees and Euler characteristics ------------------------------------


def chi_projective_space(n, d):
    """chi(P^n, O(d)) = C(n + d, n) as a polynomial in d."""
    num = 1
    for i in range(1, n + 1):
        num *= d + i
    return num // factorial(n)


def fiber_degree(fiber, classes):
    """Degree on P^{n_1} x ... x P^{n_t} of a product of n line classes,
    each given by its multidegree: the coefficient of prod_k h_k^{n_k}."""
    poly = {(0,) * len(fiber): 1}
    for degrees in classes:
        nxt = {}
        for exps, c in poly.items():
            for k, d in enumerate(degrees):
                if d and exps[k] < fiber[k]:
                    key = exps[:k] + (exps[k] + 1,) + exps[k + 1:]
                    nxt[key] = nxt.get(key, 0) + c * d
        poly = nxt
    return poly.get(tuple(fiber), 0)


def pairing_degree(fiber, bundles):
    """Degree of the pairing of n + 1 bundles O(d_i; e_i) over the base:
    f_* of prod_i (d_i h + e_i h_base) keeps exactly one base factor, so the
    degree is sum_i e_i times the fiber degree of the other n classes."""
    total = 0
    for i, (_, e) in enumerate(bundles):
        others = [d for j, (d, _) in enumerate(bundles) if j != i]
        total += e * fiber_degree(fiber, others)
    return total


def fiber_chi(fiber, degrees):
    out = 1
    for n, d in zip(fiber, degrees):
        out *= chi_projective_space(n, d)
    return out


def compositions(k, parts):
    if parts == 1:
        yield (k,)
        return
    for i in range(k + 1):
        for rest in compositions(k - i, parts - 1):
            yield (i,) + rest


def twisted_tower_chi(n, twists, k, m):
    """chi(P(+O(a_i)) over P^n, O(k) (x) pi^*O(m)) for k >= 0: the sections
    of Sym^k(+O(a_i)) (x) O(m), summed over the monomials mu of degree k."""
    return sum(chi_projective_space(n, m - sum(x * a for x, a in zip(mu, twists)))
               for mu in compositions(k, len(twists)))


# -- Picard skeletons with a known answer -------------------------------------------


def _unimodular(rng, n, steps):
    """A random unimodular matrix and its inverse, as products of
    elementary operations."""
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    Pinv = [row[:] for row in P]
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        for row in P:  # P <- P (I + c e_ij): column j += c * column i
            row[j] += c * row[i]
        Pinv[i] = [a - c * b for a, b in zip(Pinv[i], Pinv[j])]  # (I - c e_ij) Pinv
    return P, Pinv


def _column(M, j):
    return [row[j] for row in M]


def _mat_vec(M, v):
    return [sum(a * b for a, b in zip(row, v)) for row in M]


def picard_skeleton(rng, pi0, pi1, samples):
    """A skeleton file with known invariants.

    ``pi0`` and ``pi1`` are (free_rank, torsion) with torsion a divisibility
    chain.  The sign homomorphism is drawn at random among those of order 2
    that the chain samples determine.  Returns (payload, expected).
    """
    f0, t0 = pi0
    f1, t1 = pi1
    g, p = f0 + len(t0), f1 + len(t1)
    P, Pinv = _unimodular(rng, g, 2 * g)
    S, Sinv = _unimodular(rng, p, 2 * p)
    # pi0 = Z^g / <d_i P e_i>: torsion generators first, then free ones.
    d0 = list(t0) + [0] * f0
    relations = []
    for i, d in enumerate(d0):
        if d:
            vec = [d * x for x in _column(P, i)]
            relations.append(([max(x, 0) for x in vec], [max(-x, 0) for x in vec]))
    d1 = list(t1) + [0] * f1
    pi1_relations = [[d * x for x in _column(S, j)] for j, d in enumerate(d1) if d]
    two_torsion = [[d // 2 * x for x in _column(S, j)]
                   for j, d in enumerate(d1) if d and d % 2 == 0]
    # eps on the basis f_i = P e_i: zero where d_i is odd, else any
    # element of pi1[2].
    eps_f = []
    for d in d0:
        value = [0] * p
        if d % 2 == 0:
            for vec in two_torsion:
                if rng.random() < 0.6:
                    value = [a + b for a, b in zip(value, vec)]
        eps_f.append(value)
    eps = [[sum(eps_f[k][r] * Pinv[k][i] for k in range(g)) for i in range(g)]
           for r in range(p)]
    while True:
        start = [rng.randint(0, 2) for _ in range(g)]
        step = [rng.randint(0, 2) for _ in range(g)]
        if not two_torsion or _spans_mod_two([start, step], Pinv, d0):
            break
    symmetry = []
    for k in range(samples):
        value = _mat_vec(eps, [a + k * b for a, b in zip(start, step)])
        for rel in pi1_relations:
            c = rng.randint(-1, 1)
            value = [a + c * b for a, b in zip(value, rel)]
        symmetry.append(value)
    group = {"generators": p, "relations": pi1_relations}
    payload = {
        "monoid": {"generators": g, "relations": relations},
        "chain": {
            "start": start, "step": step,
            "groups": [group] * samples,
            "translations": [[[int(i == j) for j in range(p)] for i in range(p)]]
                            * (samples - 1),
            "symmetry": symmetry,
        },
    }
    eps_zero = all(all(x == 0 for x in v) for v in eps_f)
    expected = {"pi0": [f0, sorted(t0)], "pi1": [f1, sorted(t1)],
                "eps": eps, "eps_zero": eps_zero, "Sinv": Sinv, "d1": d1}
    return payload, expected


def _spans_mod_two(vectors, Pinv, d0):
    """Do the vectors span pi0 / 2 pi0 (coordinates in the f basis whose
    d_i is even or zero)?"""
    keep = [i for i, d in enumerate(d0) if d % 2 == 0]
    rows = [[_mat_vec(Pinv, v)[i] % 2 for i in keep] for v in vectors]
    rank = 0
    for col in range(len(keep)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                rows[r] = [(a + b) % 2 for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank == len(keep)


def in_pi1_lattice(vector, expected):
    """Is ``vector`` zero in pi1?  In the basis S e_j the relations are
    d_j e_j, so test divisibility of S^{-1} vector."""
    coords = _mat_vec(expected["Sinv"], vector)
    return all((c % d == 0) if d else c == 0
               for c, d in zip(coords, expected["d1"]))


def picard_report_ok(report, expected):
    if [report["pi0_invariants"]["free_rank"],
            sorted(report["pi0_invariants"]["torsion"])] != expected["pi0"]:
        return False
    if [report["pi1_invariants"]["free_rank"],
            sorted(report["pi1_invariants"]["torsion"])] != expected["pi1"]:
        return False
    if report["eps_zero"] != expected["eps_zero"]:
        return False
    got, want = report["eps"], expected["eps"]
    g = len(want[0]) if want else 0
    for j in range(g):
        diff = [got[r][j] - want[r][j] for r in range(len(want))]
        if not in_pi1_lattice(diff, expected):
            return False
    return True
