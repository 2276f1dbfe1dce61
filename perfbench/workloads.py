"""The benchmark's three workloads: case catalogues, per-pass selection,
set-up and the correctness gate of every case.

A workload's inputs come from a catalogue of candidate cases drawn once
from a fixed generator seed and pinned in ``catalogue/<workload>.json``
together with the digest of each case's exact output and a deterministic
work count (traced spans plus polynomial term pairs) measured when the
catalogue was pinned.  A pass takes, for each kind of case, a fixed
quota: the kind's catalogue entries are sorted by work and cut into as
many bins as the quota, and the run's seed picks one entry per bin.
Every seed therefore gets the same case count, the same request mix and
nearly the same amount of work, while the inputs themselves differ.
"""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
CATALOGUE_DIR = HERE / "catalogue"

# Cases of each kind in one pass.  Kinds with a fixed parameter grid run
# the whole grid in every pass.  Every other kind is drawn at random and
# gets the same share of a pass: SHARE_MS of case time at reference speed
# (see run.REFERENCE_CALIBRATION_S), about what one grid kind takes
# (85-790 ms).  Its quota is SHARE_MS over its mean latency, measured at
# reference speed over two untraced passes (seeds 1 and 2) of a pilot
# catalogue drawn with this generator.  Each kind then weighs the same in
# cases_per_s, whatever its latency.
SHARE_MS = 200
GRIDS = {
    "classes-dense": {"borel-serre": 7, "koszul": 7, "segre": 32,
                      "chern-from-segre": 32},
    "towers-pairing": {},
    "cli-requests": {"eval:rank4": 12, "verify:segre": 6,
                     "verify:borel-serre": 6, "verify:restriction": 6},
}
PILOT_MEAN_MS = {
    "classes-dense": {"tdstar": 1.872, "ch-mult": 4.167},
    "towers-pairing": {
        "pair:1:1": 0.196, "pair:2:1": 0.297, "pair:1,1:1": 0.494,
        "pair:3:1": 0.422, "pair:1:2": 0.243, "pair:2:2": 0.339,
        "pair:1,1:2": 0.599, "pair:3:2": 0.476, "grr": 1.475, "euler": 1.250,
    },
    "cli-requests": {
        "eval": 7.849, "verify:whitney": 2.340, "verify:dual": 1.685,
        "verify:tensor-line": 2.513, "verify:ch-mult": 12.145,
        "verify:hrr": 1.564, "verify:c1-pairing": 1.713, "deligne": 1.698,
        "grr": 2.582, "picard": 1.795,
    },
}
QUOTAS = {
    workload: {**GRIDS[workload],
               **{kind: round(SHARE_MS / mean)
                  for kind, mean in PILOT_MEAN_MS[workload].items()}}
    for workload in GRIDS
}

# Catalogue entries per bin for kinds drawn at random; the spare entry is
# what lets different seeds run different inputs.  Pinning generates
# POOL_PER_BIN candidates per bin and keeps, for each bin, the
# CANDIDATES_PER_BIN candidates nearest the bin's middle quantile of work,
# so that the entries of a bin cost nearly the same and every seed gets
# nearly the same latencies, tail included.
CANDIDATES_PER_BIN = 2
POOL_PER_BIN = 6

# Largest work count of a catalogue entry of a randomly drawn kind, and
# the time after which pinning gives up on a candidate.  The caps keep
# every random case below the slowest fixed-grid cases (the rank-4
# identities in classes-dense, the rank-4 renders in cli-requests), so
# that no random draw dominates a pass.
WORK_CAP = {"classes-dense": 3000, "towers-pairing": None, "cli-requests": 8000}
CANDIDATE_TIMEOUT_S = 2.0

TREE_NAMES = {"A": 1, "B": 2, "C": 3}
FAMILIES = [((1,), 1), ((2,), 1), ((1, 1), 1), ((3,), 1),
            ((1,), 2), ((2,), 2), ((1, 1), 2), ((3,), 2)]
TWISTED_SHAPES = [(1, (0, 1)), (1, (0, 2)), (1, (1, -1)), (1, (0, 1, 2)),
                  (2, (0, 1)), (2, (0, 2)), (2, (1, -1)), (2, (0, 0, 1))]
PI0_SHAPES = [(1, ()), (1, (2,)), (1, (3,)), (0, (2,)), (2, ()), (0, (2, 4)),
              (1, (6,)), (0, (6,))]
PI1_SHAPES = [(0, (2,)), (1, (2,)), (0, (2, 4)), (1, ()), (0, (3,)),
              (0, (2, 6)), (2, (2,)), (0, (2, 2))]


# -- catalogue ------------------------------------------------------------------


def family_kind(fiber, base):
    return "pair:" + ",".join(map(str, fiber)) + f":{base}"


def random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.35:
        return ["bundle", rng.choice(sorted(TREE_NAMES))]
    op = rng.choice(["sum", "tensor", "dual", "scale"])
    if op == "dual":
        return ["dual", random_tree(rng, depth - 1)]
    if op == "scale":
        return ["scale", rng.choice([-1, 2]), random_tree(rng, depth - 1)]
    return [op, random_tree(rng, depth - 1), random_tree(rng, depth - 1)]


def bounded_tree(rng, max_roots):
    """A depth-2 tree with at most ``max_roots`` roots counted with
    multiplicity; unbounded trees make single cases last seconds."""
    while True:
        tree = random_tree(rng, 2)
        if oracle.tree_root_count(tree, TREE_NAMES) <= max_roots:
            return tree


def candidates(workload):
    """Every candidate case of a workload, from a fixed generator seed."""
    rng = random.Random(f"perfbench catalogue {workload}")
    spares = {kind: quota * POOL_PER_BIN
              for kind, quota in QUOTAS[workload].items()}
    out = []

    def add(kind, key, **params):
        # Through JSON, as the pinned catalogue stores it: tuples become lists.
        out.append({"key": f"{kind}#{key}", "kind": kind,
                    "p": json.loads(json.dumps(params))})

    if workload == "classes-dense":
        for D in (6, 8):
            for r in range(1, 5):
                if (r, D) != (4, 8):  # 1.1 s each: would dominate a pass
                    add("borel-serre", f"r{r}D{D}", r=r, D=D)
                    add("koszul", f"r{r}D{D}", r=r, D=D)
        for r in range(1, 5):
            for k in range(1, 9):
                add("segre", f"r{r}k{k}", r=r, k=k, D=8)
                add("chern-from-segre", f"r{r}k{k}", r=r, k=k, D=8)
        for i in range(spares["tdstar"]):
            add("tdstar", i, D=(6, 8)[i % 2], v=bounded_tree(rng, 9),
                point=_point(rng))
        for i in range(spares["ch-mult"]):
            add("ch-mult", i, D=(6, 8)[i % 2], v=bounded_tree(rng, 6),
                w=bounded_tree(rng, 6), point=_point(rng))
    elif workload == "towers-pairing":
        for fiber, base in FAMILIES:
            kind = family_kind(fiber, base)
            for i in range(spares[kind]):
                n = sum(fiber)
                bundles = [[[rng.randint(-3, 3) for _ in fiber], rng.randint(-3, 3)]
                           for _ in range(n + 1)]
                add(kind, i, fiber=list(fiber), base=base, bundles=bundles)
        for i in range(spares["grr"]):
            fiber = [(1,), (2,), (1, 1)][i % 3]
            add("grr", i, fiber=list(fiber),
                bundle=[rng.randint(-3, 3) for _ in range(len(fiber) + 1)])
        for i in range(spares["euler"]):
            n, twists = TWISTED_SHAPES[i % len(TWISTED_SHAPES)]
            add("euler", i, n=n, twists=list(twists), k=rng.randint(0, 3),
                m=rng.randint(-3, 3))
    else:
        _cli_candidates(rng, spares, add)
    return out


def _point(rng):
    """Numeric root values for the oracle, one list per bundle."""
    return {name: [[rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)]
                   for _ in range(rank)]
            for name, rank in TREE_NAMES.items()}


EVAL_TEMPLATES = ["ch", "td", "tdstar", "ch_tensor", "ch_dual_td", "td_diff",
                  "segre", "chern_product", "ch_lam2"]


def _eval_point(rng, r, s):
    return {"E": [[rng.choice([-2, -1, 1, 2, 3]), rng.randint(1, 3)] for _ in range(r)],
            "F": [[rng.choice([-2, -1, 1, 2, 3]), rng.randint(1, 3)] for _ in range(s)],
            "L": [[rng.choice([-2, -1, 1, 2]), 1]]}


def _cli_candidates(rng, spares, add):
    for i in range(spares["eval"]):
        r, s, D = rng.randint(1, 4), rng.randint(1, 3), rng.choice([4, 6, 8])
        template = EVAL_TEMPLATES[i % len(EVAL_TEMPLATES)]
        if template in ("td_diff", "ch_tensor") and r + s > 5:
            r, s = min(r, 3), min(s, 2)
        if template == "segre":
            expr = [template, "E", rng.randint(1, D)]
        elif template == "chern_product":
            expr = [template, rng.randint(1, r), "E", rng.randint(1, s), "F"]
        elif template in ("ch_tensor", "td_diff"):
            expr = [template, "E", "F"]
        else:
            expr = [template, rng.choice(["E", "F"])]
        add("eval", i, r=r, s=s, D=D, expr=expr, point=_eval_point(rng, r, s))
    # Classes of a rank-4 bundle at D = 8, where rendering the Chern basis
    # costs more than computing the class.
    for template in ("ch", "td", "tdstar", "ch_dual_td"):
        for s in (1, 2, 3):
            add("eval:rank4", f"{template}-{s}", r=4, s=s, D=8, expr=[template, "E"],
                point=_eval_point(rng, 4, s))
    for name in ("segre", "borel-serre", "restriction"):
        for r in (1, 2, 3):
            for D in (6, 8):
                add(f"verify:{name}", f"r{r}D{D}",
                    argv=["--rank", str(r), "--truncation", str(D)])
    for i in range(spares["verify:whitney"]):
        add("verify:whitney", i, argv=["--ranks", f"{rng.randint(1, 3)},{rng.randint(1, 3)}",
                                       "--count", "2", "--seed", str(rng.randint(0, 999))])
    for name, ranks in (("dual", (1, 5)), ("tensor-line", (1, 4))):
        kind = f"verify:{name}"
        for i in range(spares[kind]):
            add(kind, i, argv=["--rank", str(rng.randint(*ranks)),
                               "--truncation", str(rng.choice([6, 8]))])
    for i in range(spares["verify:ch-mult"]):
        add("verify:ch-mult", i, argv=["--count", "2", "--seed", str(rng.randint(0, 999)),
                                       "--truncation", "6"])
    for i in range(spares["verify:hrr"]):
        add("verify:hrr", i, n=rng.randint(1, 3), d=rng.randint(-5, 5))
    for kind in ("verify:c1-pairing", "deligne"):
        for i in range(spares[kind]):
            fiber, base = FAMILIES[i % len(FAMILIES)]
            bundles = [[rng.randint(-3, 3) for _ in range(len(fiber) + 1)]
                       for _ in range(sum(fiber) + 1)]
            add(kind, i, fiber=list(fiber), base=base, bundles=bundles)
    for i in range(spares["grr"]):
        fiber = [(1,), (2,), (1, 1)][i % 3]
        add("grr", i, fiber=list(fiber),
            bundle=[rng.randint(-3, 3) for _ in range(len(fiber) + 1)])
    for i in range(spares["picard"]):
        add("picard", i, pi0=PI0_SHAPES[i % len(PI0_SHAPES)],
            pi1=PI1_SHAPES[(i // len(PI0_SHAPES) + i) % len(PI1_SHAPES)],
            samples=rng.randint(2, 4), seed=rng.randint(0, 10 ** 6))


def catalogue_path(workload):
    return CATALOGUE_DIR / f"{workload}.json"


def load_catalogue(workload):
    with open(catalogue_path(workload)) as handle:
        return json.load(handle)


def select(workload, catalogue, seed):
    """The cases of one pass: one entry per work bin of each kind, in an
    order shuffled by the seed."""
    rng = random.Random(f"{workload}:{seed}")
    by_kind = {}
    for entry in catalogue:
        by_kind.setdefault(entry["kind"], []).append(entry)
    chosen = []
    for kind, quota in QUOTAS[workload].items():
        entries = sorted(by_kind[kind], key=lambda e: (e["work"], e["key"]))
        if len(entries) < quota:
            raise ValueError(f"catalogue has {len(entries)} {kind} cases, "
                             f"the quota is {quota}")
        for b in range(quota):
            lo = b * len(entries) // quota
            hi = (b + 1) * len(entries) // quota
            chosen.append(entries[rng.randrange(lo, hi)])
    rng.shuffle(chosen)
    return chosen


# -- cases -------------------------------------------------------------------------


class Case:
    """One timed library verdict or CLI request.

    ``run`` is the timed call; ``check`` takes its result and returns
    (ok, text): the oracle's verdict and the exact output whose digest is
    pinned in the catalogue.
    """

    __slots__ = ("key", "kind", "run", "check")

    def __init__(self, key, kind, run, check):
        self.key = key
        self.kind = kind
        self.run = run
        self.check = check


def _fractions(point):
    return {name: [Fraction(a, b) for a, b in values]
            for name, values in point.items()}


def _values(setup, roots):
    values = {}
    for name, vals in roots.items():
        if name in setup.bundles:
            values.update(zip(setup.root_vars(name), vals))
    return values


def _matches_series(poly, values, expected):
    """Degree by degree, the value of ``poly`` at the point equals the
    oracle's coefficient of t^k."""
    return all(poly.graded_part(k).evaluate(values) == coeff
               for k, coeff in enumerate(expected))


def prepare(workload, specs, workdir):
    """Set up one pass: build setups, towers and input files, and return
    the cases in pass order."""
    if workload == "classes-dense":
        return _classes_cases(specs)
    if workload == "towers-pairing":
        return _tower_cases(specs)
    return _cli_cases(specs, Path(workdir))


def _borel_serre_sides(setup, name):
    from chowline import charclass
    from chowline.chern_ring import dual_class

    dual = charclass.VirtualBundle.bundle(name).dual()
    lhs = charclass.ch(charclass.lambda_minus_one(setup, name), setup)
    rhs = (dual_class(setup, name, setup.rank(name))
           * charclass.td(dual, setup).inverse())
    return lhs, rhs


def _koszul_sides(setup, name):
    from chowline import charclass
    from chowline.chern_ring import ChernSeries, chern_class
    from chowline.symfun import exp_series

    expo = exp_series(setup.truncation)
    lhs = setup.const(1)
    for root in setup.roots(name):
        lhs = lhs * (setup.const(1) - ChernSeries(setup, expo.apply_to(-root)))
    rhs = (chern_class(setup, name, setup.rank(name))
           * charclass.td(charclass.VirtualBundle.bundle(name), setup).inverse())
    return lhs, rhs


def _classes_cases(specs):
    from chowline import charclass, chern_ring
    from chowline.charclass import VirtualBundle

    setups = {}

    def setup_for(key):
        if key not in setups:
            if key[0] == "trees":
                setups[key] = chern_ring.Setup(sorted(TREE_NAMES.items()), 0, key[1])
            else:
                setups[key] = chern_ring.Setup([("E", key[1])], 0, key[2])
        return setups[key]

    def vb(tree):
        kind = tree[0]
        if kind == "bundle":
            return VirtualBundle.bundle(tree[1])
        if kind == "sum":
            return vb(tree[1]) + vb(tree[2])
        if kind == "tensor":
            return vb(tree[1]) * vb(tree[2])
        if kind == "dual":
            return vb(tree[1]).dual()
        return tree[1] * vb(tree[2])

    cases = []
    for spec in specs:
        p, kind = spec["p"], spec["kind"]
        if kind in ("borel-serre", "koszul"):
            s = setup_for(("E", p["r"], p["D"]))
            # chowline's borel_serre_check and restriction_normal_bundle_check,
            # written out so that both sides reach the oracle rather than
            # only the verdict.
            sides = _borel_serre_sides if kind == "borel-serre" else _koszul_sides

            def run(s=s, sides=sides):
                return sides(s, "E")

            def check(out, s=s, p=p, kind=kind):
                lhs, rhs = out
                roots = [Fraction(j + 2, j + 1) for j in range(p["r"])]
                if kind == "koszul":  # ch(lambda_{-1}(E^dual))
                    expected = oracle.lambda_minus_one_at([-x for x in roots], p["D"])
                else:  # ch(lambda_{-1}(E))
                    expected = oracle.lambda_minus_one_at(roots, p["D"])
                values = dict(zip(s.root_vars("E"), roots))
                ok = (lhs == rhs and _matches_series(lhs.poly, values, expected)
                      and _matches_series(rhs.poly, values, expected))
                return ok, str(lhs.poly)
        elif kind == "segre":
            s = setup_for(("E", p["r"], p["D"]))

            def run(s=s, k=p["k"]):
                segre = [chern_ring.segre_class(s, "E", i) for i in range(k + 1)]
                rec = s.zero()
                for i in range(k + 1):
                    rec = rec + segre[i] * chern_ring.chern_class(s, "E", k - i) * ((-1) ** i)
                return segre[k], rec

            def check(out, s=s, p=p):
                sk, rec = out
                roots = [Fraction(j + 2, j + 1) for j in range(p["r"])]
                value = sk.poly.evaluate(dict(zip(s.root_vars("E"), roots)))
                ok = rec.is_zero() and value == oracle.complete(roots, p["k"])
                return ok, str(sk.poly)
        elif kind == "chern-from-segre":
            s = setup_for(("E", p["r"], p["D"]))

            def run(s=s, k=p["k"]):
                return (chern_ring.chern_from_segre(s, "E", k),
                        chern_ring.chern_class(s, "E", k))

            def check(out, s=s, p=p):
                got, direct = out
                roots = [Fraction(j + 2, j + 1) for j in range(p["r"])]
                value = got.poly.evaluate(dict(zip(s.root_vars("E"), roots)))
                ok = got == direct and value == oracle.elem(roots, p["k"])
                return ok, str(got.poly)
        elif kind == "tdstar":
            s = setup_for(("trees", p["D"]))
            v = vb(p["v"])

            def run(s=s, v=v):
                return charclass.td_star(v, s), charclass.td(v.dual(), s)

            def check(out, s=s, p=p):
                star, dual = out
                roots = _fractions(p["point"])
                expected = oracle.td_star_of_tree(p["v"], roots, p["D"])
                ok = star == dual and _matches_series(
                    star.poly, _values(s, roots), expected)
                return ok, str(star.poly)
        elif kind == "ch-mult":
            s = setup_for(("trees", p["D"]))
            v, w = vb(p["v"]), vb(p["w"])

            # chowline's ch_tensor_check, written out to return both sides.
            def run(s=s, v=v, w=w):
                return charclass.ch(v * w, s), charclass.ch(v, s) * charclass.ch(w, s)

            def check(out, s=s, p=p):
                lhs, rhs = out
                roots = _fractions(p["point"])
                ch_v = oracle.ch_of_tree(p["v"], roots, p["D"])
                ch_w = oracle.ch_of_tree(p["w"], roots, p["D"])
                values = _values(s, roots)
                ok = (lhs == rhs and _matches_series(
                    lhs.poly, values, oracle.ch_of_tree(["tensor", p["v"], p["w"]],
                                                        roots, p["D"]))
                      and _matches_series(rhs.poly, values,
                                          oracle.series_mul(ch_v, ch_w)))
                return ok, str(lhs.poly)
        else:
            raise ValueError(kind)
        cases.append(Case(spec["key"], kind, run, check))
    return cases


def _tower_cases(specs):
    from chowline import dcoh, pushforward
    from chowline.charclass import VirtualBundle

    families = {}
    towers = {}
    cases = []
    for spec in specs:
        p, kind = spec["p"], spec["kind"]
        if kind.startswith("pair:"):
            key = (tuple(p["fiber"]), p["base"])
            if key not in families:
                fam = dcoh.FamilyDescriptor(*key)
                families[key] = (fam, dcoh.pairing_tower(fam))
            fam, tower = families[key]
            bundles = [dcoh.MultidegreeLineBundle(tuple(d), e) for d, e in p["bundles"]]

            def run(fam=fam, tower=tower, bundles=bundles):
                return (dcoh.deligne_pairing_degree(fam, bundles),
                        dcoh.pairing_degree_by_pushforward(fam, bundles, tower))

            def check(out, p=p):
                (degree, rank_sum), pushed = out
                closed = oracle.pairing_degree(p["fiber"], p["bundles"])
                return (rank_sum == 0 and degree == pushed == closed,
                        f"{degree}|{rank_sum}|{pushed}")
        elif kind == "grr":
            fam = dcoh.FamilyDescriptor(tuple(p["fiber"]), 1)
            bundle = dcoh.MultidegreeLineBundle(tuple(p["bundle"][:-1]), p["bundle"][-1])

            def run(fam=fam, bundle=bundle):
                return pushforward.grr_codim1_report(fam, bundle)

            def check(out, p=p):
                want = p["bundle"][-1] * oracle.fiber_chi(p["fiber"], p["bundle"][:-1])
                ok = out["equal"] and out["lhs_degree"] == out["rhs_degree"] == want
                return ok, json.dumps(out, sort_keys=True)
        elif kind == "euler":
            key = (p["n"], tuple(p["twists"]))
            if key not in towers:
                towers[key] = pushforward.Tower(
                    [[[] for _ in range(p["n"] + 1)], [[a] for a in p["twists"]]])
            tower = towers[key]
            line = VirtualBundle.line_class(tower.line_class([p["m"], p["k"]]).poly)

            def run(tower=tower, line=line):
                return pushforward.euler_characteristic(tower, line)

            def check(out, p=p):
                want = oracle.twisted_tower_chi(p["n"], p["twists"], p["k"], p["m"])
                return out == want, str(out)
        else:
            raise ValueError(kind)
        cases.append(Case(spec["key"], kind, run, check))
    return cases


def _cli_cases(specs, workdir):
    from chowline import cli

    workdir.mkdir(parents=True, exist_ok=True)
    files = {}

    def setup_file(r, s, D):
        name = f"setup-{r}-{s}-{D}.json"
        if name not in files:
            path = workdir / name
            path.write_text(json.dumps({
                "bundles": [{"name": "E", "rank": r}, {"name": "F", "rank": s},
                            {"name": "L", "rank": 1}],
                "truncation": D}))
            files[name] = str(path)
        return files[name]

    def request(argv):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue()
        return run

    cases = []
    for spec in specs:
        p, kind = spec["p"], spec["kind"]
        if kind in ("eval", "eval:rank4"):
            text = oracle.expression_text(p["expr"])
            argv = ["eval", text, "--setup", setup_file(p["r"], p["s"], p["D"]), "--json"]

            def check(out, p=p):
                code, stdout = out
                report = json.loads(stdout)
                roots = _fractions(p["point"])
                got = oracle.chern_report_at(report["result"]["by_degree"], roots, p["D"])
                want = oracle.expression_at(p["expr"], roots, p["D"])
                return code == 0 and got == want, stdout
        elif kind == "verify:hrr":
            argv = ["verify", "hrr", "--rank", str(p["n"]), "--degree", str(p["d"]), "--json"]

            def check(out, p=p):
                code, stdout = out
                report = json.loads(stdout)
                want = oracle.chi_projective_space(p["n"], p["d"])
                return (code == 0 and report["ok"] is True
                        and report["report"]["chi"] == str(want)), stdout
        elif kind in ("verify:c1-pairing", "deligne"):
            fiber = ",".join(map(str, p["fiber"]))
            head = ["verify", "c1-pairing"] if kind.startswith("verify") else ["deligne"]
            argv = head + ["--fiber", fiber, "--base", str(p["base"]),
                           "--bundles", json.dumps(p["bundles"]), "--json"]

            def check(out, p=p, kind=kind):
                code, stdout = out
                report = json.loads(stdout)
                pairs = [(b[:-1], b[-1]) for b in p["bundles"]]
                want = oracle.pairing_degree(p["fiber"], pairs)
                if kind == "deligne":
                    ok = (report["degree"] == want and report["rank_check"] is True
                          and report["c1_match"] is True)
                else:
                    body = report["report"]
                    ok = (report["ok"] is True and body["rank_sum"] == 0
                          and body["degree"] == body["pushforward_degree"] == want)
                return code == 0 and ok, stdout
        elif kind.startswith("verify:"):
            argv = ["verify", kind.split(":", 1)[1]] + p["argv"] + ["--json"]

            def check(out):
                code, stdout = out
                report = json.loads(stdout)
                body = report["report"]
                ok = report["ok"] is True and body.get("residual", "0") == "0"
                return code == 0 and ok and body.get("failures", 0) == 0, stdout
        elif kind == "grr":
            argv = ["grr", "--fiber", ",".join(map(str, p["fiber"])), "--base", "1",
                    "--bundle", json.dumps(p["bundle"]), "--json"]

            def check(out, p=p):
                code, stdout = out
                report = json.loads(stdout)
                want = p["bundle"][-1] * oracle.fiber_chi(p["fiber"], p["bundle"][:-1])
                return (code == 0 and report["equal"] is True
                        and report["lhs_degree"] == report["rhs_degree"] == want), stdout
        elif kind == "picard":
            payload, expected = oracle.picard_skeleton(
                random.Random(p["seed"]), p["pi0"], p["pi1"], p["samples"])
            path = workdir / f"{spec['key'].replace('#', '-')}.json"
            path.write_text(json.dumps(payload))
            argv = ["picard", str(path), "--json"]

            def check(out, expected=expected):
                code, stdout = out
                return code == 0 and oracle.picard_report_ok(
                    json.loads(stdout), expected), stdout
        else:
            raise ValueError(kind)
        cases.append(Case(spec["key"], kind, request(argv), check))
    return cases
