"""Command-line front end: expression language, verification suites and
machine-readable reports.

The expression grammar is ASCII-only: any other character, a digit of
another script included, is a syntax error.  ``*`` is context-resolved:
between classes it is the ring product, between bundle terms it is the
tensor product; ``tensor(A, B)`` is the explicit escape hatch.  Rationals
are written ``p/q`` (q > 0) and are serialized as strings in JSON reports
so that no downstream tool coerces them to floats.

Exit codes: 0 when every verdict is true, 1 when a verification fails
(the residual is printed), 2 when the request is refused: a usage or
validation error, any other error the library raises on its input, or an
integer of more digits than the interpreter reads or prints.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from collections import namedtuple
from fractions import Fraction

from . import charclass, dcoh, picard, pushforward
from .chern_ring import (
    Setup,
    chern_class,
    dual_class,
    segre_class,
    tensor_line,
    tensor_line_oracle,
    whitney_expand,
)
from .charclass import CharClassSpec, VirtualBundle, evaluate_class
from .errors import (
    ChowlineError,
    ExprSyntaxError,
    ValidationError,
)
from .poly import Poly, PowerSeries
from .symfun import elem_sym

# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------

SYMBOLS = {
    "+": "PLUS", "-": "MINUS", "*": "STAR", "^": "CARET",
    "(": "LPAREN", ")": "RPAREN", "[": "LBRACKET", "]": "RBRACKET",
    ",": "COMMA",
}


def _digit(ch):
    return ch.isascii() and ch.isdigit()


def _name_char(ch):
    return ch.isascii() and (ch.isalnum() or ch == "_")


Token = namedtuple("Token", "kind value line column")


def tokenize(text):
    tokens = []
    line, column = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch.isascii() and ch.isspace():
            i += 1
            column += 1
            continue
        if ch in SYMBOLS:
            tokens.append(Token(SYMBOLS[ch], ch, line, column))
            i += 1
            column += 1
            continue
        if _digit(ch):
            start = i
            while i < n and _digit(text[i]):
                i += 1
            numerator = int(text[start:i])
            if i + 1 < n and text[i] == "/" and _digit(text[i + 1]):
                i += 1
                dstart = i
                while i < n and _digit(text[i]):
                    i += 1
                denominator = int(text[dstart:i])
                if denominator == 0:
                    raise ExprSyntaxError("division by zero", line, column)
                value = Fraction(numerator, denominator)
            else:
                value = Fraction(numerator)
            tokens.append(Token("NUMBER", value, line, column))
            column += i - start
            continue
        if _name_char(ch):  # digits were taken above
            start = i
            while i < n and _name_char(text[i]):
                i += 1
            tokens.append(Token("NAME", text[start:i], line, column))
            column += i - start
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", line, column)
    tokens.append(Token("EOF", None, line, column))
    return tokens


# ---------------------------------------------------------------------------
# parser: expr := term (('+'|'-') term)*; term := unary ('*' unary)*;
# unary := '-' unary | power; power := atom ('^' INT)*
# ---------------------------------------------------------------------------

class Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(
                f"expected {kind}, found {tok.value!r}", tok.line, tok.column)
        return self.next()

    def parse(self):
        tree = self.expr()
        tok = self.peek()
        if tok.kind != "EOF":
            raise ExprSyntaxError(
                f"unexpected trailing input {tok.value!r}", tok.line, tok.column)
        return tree

    def expr(self):
        node = self.term()
        while self.peek().kind in ("PLUS", "MINUS"):
            op = self.next().kind
            right = self.term()
            node = ("add" if op == "PLUS" else "sub", node, right)
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind == "STAR":
            self.next()
            node = ("mul", node, self.unary())
        return node

    def unary(self):
        if self.peek().kind == "MINUS":
            self.next()
            inner = self.unary()
            if inner[0] == "num":
                return ("num", -inner[1])
            return ("neg", inner)
        return self.power()

    def power(self):
        node = self.atom()
        while self.peek().kind == "CARET":
            self.next()
            exp = self.peek()
            if exp.kind != "NUMBER" or exp.value.denominator != 1:
                raise ExprSyntaxError(
                    "exponent must be an integer literal", exp.line, exp.column)
            self.next()
            node = ("pow", node, int(exp.value))
        return node

    def atom(self):
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.next()
            return ("num", tok.value)
        if tok.kind == "LPAREN":
            self.next()
            inner = self.expr()
            self.expect("RPAREN")
            return inner
        if tok.kind == "LBRACKET":
            self.next()
            coeffs = []
            if self.peek().kind != "RBRACKET":
                coeffs.append(self._series_entry())
                while self.peek().kind == "COMMA":
                    self.next()
                    coeffs.append(self._series_entry())
            self.expect("RBRACKET")
            return ("series", tuple(coeffs))
        if tok.kind == "NAME":
            self.next()
            if self.peek().kind == "LPAREN":
                self.next()
                args = [self.expr()]
                while self.peek().kind == "COMMA":
                    self.next()
                    args.append(self.expr())
                self.expect("RPAREN")
                return ("call", tok.value, tuple(args))
            return ("name", tok.value)
        raise ExprSyntaxError(
            f"expected an expression, found {tok.value!r}", tok.line, tok.column)

    def _series_entry(self):
        negative = False
        if self.peek().kind == "MINUS":
            self.next()
            negative = True
        tok = self.expect("NUMBER")
        return -tok.value if negative else tok.value


def parse(text):
    return Parser(tokenize(text)).parse()


def print_expr(tree):
    """Deterministic printer; parse(print_expr(t)) reproduces t."""
    kind = tree[0]
    if kind == "num":
        return str(tree[1])
    if kind == "name":
        return tree[1]
    if kind == "series":
        return "[" + ",".join(str(c) for c in tree[1]) + "]"
    if kind == "call":
        return f"{tree[1]}(" + ",".join(print_expr(a) for a in tree[2]) + ")"
    if kind == "add":
        return f"({print_expr(tree[1])} + {print_expr(tree[2])})"
    if kind == "sub":
        return f"({print_expr(tree[1])} - {print_expr(tree[2])})"
    if kind == "mul":
        return f"({print_expr(tree[1])}*{print_expr(tree[2])})"
    if kind == "pow":
        base = print_expr(tree[1])
        atomic = (tree[1][0] in ("name", "call")
                  or (tree[1][0] == "num" and tree[1][1] >= 0))
        if not atomic:
            base = f"({base})"
        return f"{base}^{tree[2]}"
    if kind == "neg":
        return f"-({print_expr(tree[1])})"
    raise AssertionError(kind)


# ---------------------------------------------------------------------------
# elaboration against a setup
# ---------------------------------------------------------------------------

class Evaluator:
    """Evaluates parsed expressions over a setup.

    Class context produces a ChernSeries; bundle context produces a
    VirtualBundle.  ``*`` means ring product in the former and tensor in
    the latter.
    """

    def __init__(self, setup, fulton=False):
        self.setup = setup
        self.fulton = fulton

    # -- class context ---------------------------------------------------

    def class_value(self, tree):
        kind = tree[0]
        if kind == "num":
            return self.setup.const(tree[1])
        if kind == "add":
            return self.class_value(tree[1]) + self.class_value(tree[2])
        if kind == "sub":
            return self.class_value(tree[1]) - self.class_value(tree[2])
        if kind == "mul":
            return self.class_value(tree[1]) * self.class_value(tree[2])
        if kind == "pow":
            if tree[2] < 0:
                raise ValidationError("negative powers are not defined")
            return self.class_value(tree[1]) ** tree[2]
        if kind == "neg":
            return -self.class_value(tree[1])
        if kind == "call":
            return self.call(tree[1], tree[2], "class")
        if kind == "name":
            raise ValidationError(
                f"bare bundle name {tree[1]!r} in class position; "
                "wrap it in ch(...), td(...) or rk(...)")
        if kind == "series":
            raise ValidationError(
                "series literals are only valid inside class(...)")
        raise AssertionError(kind)

    def _degree_arg(self, tree, func):
        if tree[0] != "num" or tree[1].denominator != 1:
            raise ValidationError(f"{func} takes an integer degree")
        value = int(tree[1])
        if value < 0:
            raise ValidationError(f"{func} degree must be >= 0")
        return value

    def _bundle_name_arg(self, tree, func):
        if tree[0] != "name":
            raise ValidationError(f"{func} takes a declared bundle name")
        name = tree[1]
        if name == "O" or name not in self.setup.bundles:
            raise ValidationError(f"unknown bundle {name!r}")
        return name

    def call(self, func, args, position):
        """``func(args)`` in class or bundle position, by ``FUNCTIONS``."""
        entry = FUNCTIONS.get(func)
        if entry is None or entry[0] != position:
            raise ValidationError(
                f"unknown function {func!r} in {position} position")
        _, usage, kinds, build = entry
        if len(args) != len(kinds):
            raise ValidationError(usage)
        return build(self, *[ARGUMENT_KINDS[kind](self, tree, func)
                             for kind, tree in zip(kinds, args)])

    def characteristic_class(self, which, series, bundle):
        """class(phi|psi, [c0,c1,...], V), from the three argument trees."""
        if which[0] != "name" or which[1] not in ("phi", "psi"):
            raise ValidationError("first argument must be phi or psi")
        if series[0] != "series":
            raise ValidationError(
                "second argument must be a [c0,c1,...] series literal")
        coeffs = list(series[1])
        coeffs += [Fraction(0)] * (self.setup.truncation + 1 - len(coeffs))
        spec_kind = "additive" if which[1] == "phi" else "multiplicative"
        spec = CharClassSpec(spec_kind, PowerSeries(coeffs))
        return evaluate_class(spec, self.bundle_value(bundle), self.setup)

    # -- bundle context -------------------------------------------------

    def bundle_value(self, tree):
        kind = tree[0]
        if kind == "name":
            if tree[1] == "O":
                return VirtualBundle.trivial()
            return VirtualBundle.bundle(self._bundle_name_arg(tree, "bundle"))
        if kind == "add":
            return self.bundle_value(tree[1]) + self.bundle_value(tree[2])
        if kind == "sub":
            return self.bundle_value(tree[1]) - self.bundle_value(tree[2])
        if kind == "neg":
            return -self.bundle_value(tree[1])
        if kind == "mul":
            left, right = tree[1], tree[2]
            if left[0] == "num":
                return self._integer_arg(left) * self.bundle_value(right)
            if right[0] == "num":
                return self._integer_arg(right) * self.bundle_value(left)
            return self.bundle_value(left) * self.bundle_value(right)
        if kind == "call":
            return self.call(tree[1], tree[2], "bundle")
        if kind == "num":
            raise ValidationError(
                "a bare number is not a bundle; use n*V for multiples")
        if kind == "pow":
            raise ValidationError(
                "powers are not defined on bundles; use tensor(...)")
        raise AssertionError(kind)

    def _integer_arg(self, tree):
        if tree[1].denominator != 1:
            raise ValidationError("bundle multiples must be integers")
        return int(tree[1])


# Argument kind -> its reader (evaluator, tree, function name): an integer
# literal >= 0, a declared bundle name, a bundle expression, the tree itself.
ARGUMENT_KINDS = {
    "degree": Evaluator._degree_arg,
    "name": Evaluator._bundle_name_arg,
    "bundle": lambda ev, tree, func: ev.bundle_value(tree),
    "tree": lambda ev, tree, func: tree,
}

# Expression functions: name -> (position, usage, argument kinds, builder).
# Builders name library functions as module globals, read at call time, so
# that rebinding a module attribute reaches every call.
FUNCTIONS = {
    "c": ("class", "c(k, E) takes two arguments", ("degree", "name"),
          lambda ev, k, name: chern_class(ev.setup, name, k)),
    "s": ("class", "s(k, E) takes two arguments", ("degree", "name"),
          lambda ev, k, name: segre_class(ev.setup, name, k, fulton=ev.fulton)),
    "ch": ("class", "ch(V) takes one argument", ("bundle",),
           lambda ev, v: charclass.ch(v, ev.setup)),
    "td": ("class", "td(V) takes one argument", ("bundle",),
           lambda ev, v: charclass.td(v, ev.setup)),
    "tdstar": ("class", "tdstar(V) takes one argument", ("bundle",),
               lambda ev, v: charclass.td_star(v, ev.setup)),
    "rk": ("class", "rk(V) takes one argument", ("bundle",),
           lambda ev, v: ev.setup.const(v.rank(ev.setup.rank))),
    "class": ("class", "class(phi|psi, [coefficients], V) takes three arguments",
              ("tree", "tree", "tree"), Evaluator.characteristic_class),
    "dual": ("bundle", "dual(V) takes one argument", ("bundle",),
             lambda ev, v: v.dual()),
    "det": ("bundle", "det(V) takes one argument", ("bundle",),
            lambda ev, v: v.det()),
    "lam": ("bundle", "lam(p, V) takes two arguments", ("degree", "bundle"),
            lambda ev, p, v: v.lam(p)),
    "tensor": ("bundle", "tensor(A, B) takes two arguments", ("bundle", "bundle"),
               lambda ev, a, b: a * b),
}


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def series_report(series):
    """Chern-basis presentation of a class, with rationals as strings."""
    basis = series.chern_basis()
    by_degree = {}
    for degree, part in basis.graded_parts().items():
        monomials = {}
        for mono, coeff in part.sorted_terms():
            key = "*".join(v if e == 1 else f"{v}^{e}" for v, e in mono) or "1"
            monomials[key] = str(coeff)
        by_degree[str(degree)] = monomials
    return {"text": str(basis), "by_degree": by_degree}


def emit(report, as_json, ok):
    # Rendered whole first, so a value that cannot print leaves no report.
    print(json.dumps(report, indent=2) if as_json
          else "\n".join(_human_lines(report)))
    return 0 if ok else 1


def _human_lines(report, indent=""):
    for key, value in report.items():
        if isinstance(value, dict):
            yield f"{indent}{key}:"
            yield from _human_lines(value, indent + "  ")
        else:
            yield f"{indent}{key}: {value}"


def _load_json(text, what):
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ValidationError(f"{what} is not valid JSON: {err}") from None


def _read_json(path):
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ValidationError(f"cannot read {path}: {err}") from None
    data = _load_json(text, path)
    if not isinstance(data, dict):
        raise ValidationError(f"{path} must hold a JSON object")
    return data


def load_setup(args):
    data = _read_json(args.setup)
    if args.truncation is not None:
        data["truncation"] = args.truncation
    try:
        setup = Setup.from_dict(data)
    except (KeyError, TypeError, ValueError) as err:
        raise ValidationError(f"{args.setup}: bad setup ({err})") from None
    if "O" in setup.bundles:
        raise ValidationError(f"{args.setup}: 'O' names the trivial line")
    return setup


def default_truncation(args, fallback=8):
    if args.truncation is not None:
        return args.truncation
    env = os.environ.get("CHOWLINE_TRUNCATION")
    if env:
        try:
            return _positive_int(env)
        except (ValueError, argparse.ArgumentTypeError):
            raise ValidationError(
                f"CHOWLINE_TRUNCATION must be a positive integer, got {env!r}"
            ) from None
    return fallback


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_eval(args):
    setup = load_setup(args)
    tree = parse(args.expression)
    value = Evaluator(setup, fulton=args.fulton).class_value(tree)
    report = {
        "command": "eval",
        "expression": args.expression,
        "result": series_report(value),
    }
    return emit(report, args.json, ok=True)


def _list_items(text):
    """The comma-separated entries of a list flag; an empty one is refused
    rather than dropped."""
    items = str(text).split(",")
    if "" in items:
        raise argparse.ArgumentTypeError(f"empty entry in {text!r}")
    return items


def _parse_int_list(text):
    return [int(x) for x in _list_items(text)]


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parse_rank_list(text):
    return [_positive_int(x) for x in _list_items(text)]


def _chern_degrees(args, setup, default, low=0):
    """The Chern degrees a verifier checks: those of ``default`` up to the
    truncation without --degree, else [--degree], which must be at least
    ``low`` and at most the truncation.  Above the truncation both sides
    truncate to 0, so such a degree would check nothing."""
    if args.degree is None:
        return [k for k in default if k <= setup.truncation]
    if args.degree < low:
        raise ValidationError(f"--degree must be at least {low}, got {args.degree}")
    if args.degree > setup.truncation:
        raise ValidationError(
            f"--degree {args.degree} exceeds the truncation {setup.truncation}")
    return [args.degree]


def verify_whitney(args, rng):
    ranks = args.ranks or [2, 2]
    if len(ranks) != 2:
        raise ValidationError(f"--ranks takes two ranks, got {len(ranks)}")
    r1, r2 = ranks
    setup = Setup([("A", r1), ("B", r2)], 0, default_truncation(args))
    checks = []
    for k in _chern_degrees(args, setup, range(r1 + r2 + 1)):
        combined = elem_sym(k, setup.root_vars("A") + setup.root_vars("B"),
                            setup.grades, setup.truncation)
        rhs = whitney_expand(setup, "A", "B", k)
        exact = rhs.poly == combined
        points = [{v: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                   for v in setup.grades} for _ in range(args.count or 25)]
        samples = all(combined.evaluate(point) == rhs.poly.evaluate(point)
                      for point in points)
        checks.append({"degree": k, "exact": exact, "samples": samples})
    ok = all(check["exact"] and check["samples"] for check in checks)
    return {"identity": "whitney", "ranks": [r1, r2], "checks": checks}, ok


def verify_dual(args, rng):
    r = args.rank or 3
    setup = Setup([("E", r)], 0, default_truncation(args))
    sub = {v: -Poly.var(v, setup.grades, setup.truncation)
           for v in setup.root_vars("E")}
    checks = [{"degree": k, "exact": dual_class(setup, "E", k).poly
               == chern_class(setup, "E", k).poly.substitute(sub)}
              for k in _chern_degrees(args, setup, range(r + 1))]
    ok = all(check["exact"] for check in checks)
    return {"identity": "dual", "rank": r, "checks": checks}, ok


def verify_tensor_line(args, rng):
    r = args.rank or 2
    setup = Setup([("E", r), ("L", 1)], 0, default_truncation(args))
    checks = [{"degree": k, "exact": tensor_line(setup, "E", "L", k)
               == tensor_line_oracle(setup, "E", "L", k)}
              for k in _chern_degrees(args, setup, range(r + 2))]
    ok = all(check["exact"] for check in checks)
    return {"identity": "tensor-line", "rank": r, "checks": checks}, ok


def verify_segre(args, rng):
    r = args.rank or 3
    setup = Setup([("E", r)], 0, default_truncation(args))
    # The recurrence is checked in degrees 1..top; --degree 0 would check
    # nothing and report success.
    [top] = _chern_degrees(args, setup, [setup.truncation], low=1)
    segre = [segre_class(setup, "E", i) for i in range(top + 1)]
    chern = [chern_class(setup, "E", i) for i in range(top + 1)]
    checks = []
    for k in range(1, top + 1):
        acc = setup.zero()
        for i in range(k + 1):
            acc = acc + segre[i] * chern[k - i] * ((-1) ** i)
        checks.append({"degree": k, "recurrence_zero": acc.is_zero()})
    ok = all(check["recurrence_zero"] for check in checks)
    return {"identity": "segre", "rank": r, "checks": checks}, ok


def verify_borel_serre(args, rng):
    r = args.rank or 2
    setup = Setup([("E", r)], 0, max(default_truncation(args), r))
    good, residual = charclass.borel_serre_check(setup, "E")
    report = {
        "identity": "borel-serre",
        "rank": r,
        "truncation": setup.truncation,
        "residual": str(residual.chern_basis()),
    }
    return report, good


def verify_restriction(args, rng):
    r = args.rank or 2
    setup = Setup([("E", r)], 0, max(default_truncation(args), r))
    good = charclass.restriction_normal_bundle_check(setup, "E")
    return {"identity": "restriction", "rank": r}, good


def _random_tree(rng, names, depth):
    if depth == 0 or rng.random() < 0.35:
        return VirtualBundle.bundle(rng.choice(names))
    op = rng.choice(["sum", "tensor", "dual", "scale"])
    if op == "sum":
        return (_random_tree(rng, names, depth - 1)
                + _random_tree(rng, names, depth - 1))
    if op == "tensor":
        return (_random_tree(rng, names, depth - 1)
                * _random_tree(rng, names, depth - 1))
    if op == "dual":
        return _random_tree(rng, names, depth - 1).dual()
    return rng.choice([-1, 2]) * _random_tree(rng, names, depth - 1)


def verify_ch_mult_suite(args, rng):
    setup = Setup([("A", 1), ("B", 2), ("C", 3)], 0, default_truncation(args, 6))
    names = ["A", "B", "C"]
    count = args.count or 25
    pairs = [(_random_tree(rng, names, 2), _random_tree(rng, names, 2))
             for _ in range(count)]
    failures = sum(not charclass.ch_tensor_check(setup, v, w) for v, w in pairs)
    report = {
        "identity": "ch-mult",
        "count": count,
        "failures": failures,
    }
    return report, failures == 0


def verify_c1_pairing(args, rng):
    _, out = _c1_pairing(args)
    report = {
        "identity": "c1-pairing",
        "degree": out["degree"],
        "pushforward_degree": out["pushforward_degree"],
        "rank_sum": out["rank_sum"],
    }
    return report, out["match"]


def verify_hrr(args, rng):
    n = args.rank or 2
    d = args.degree if args.degree is not None else 3
    tower = pushforward.Tower.projective_space(n)
    v = VirtualBundle.line_class((tower.xi(1) * d).poly)
    chi = pushforward.euler_characteristic(tower, v)
    expected = dcoh.chi_projective_space(n, d)
    report = {
        "identity": "hrr",
        "dimension": n,
        "twist": d,
        "chi": str(chi),
        "expected": expected,
    }
    return report, chi == expected


# Each identity's verifier and the flags it reads (--seed and --json are
# read by all); any other flag given is refused rather than ignored.
VERIFIERS = {
    "whitney": (verify_whitney, {"ranks", "degree", "count", "truncation"}),
    "dual": (verify_dual, {"rank", "degree", "truncation"}),
    "tensor-line": (verify_tensor_line, {"rank", "degree", "truncation"}),
    "segre": (verify_segre, {"rank", "degree", "truncation"}),
    "borel-serre": (verify_borel_serre, {"rank", "truncation"}),
    "restriction": (verify_restriction, {"rank", "truncation"}),
    "ch-mult": (verify_ch_mult_suite, {"count", "truncation"}),
    "c1-pairing": (verify_c1_pairing, {"fiber", "base", "bundles"}),
    "hrr": (verify_hrr, {"rank", "degree"}),
}
VERIFY_FLAGS = sorted(set().union(*(reads for _, reads in VERIFIERS.values())))


def cmd_verify(args):
    rng = random.Random(args.seed)
    if args.name not in VERIFIERS:
        raise ValidationError(
            f"unknown identity {args.name!r}; choose from "
            + ", ".join(sorted(VERIFIERS)))
    verifier, reads = VERIFIERS[args.name]
    ignored = [f"--{flag}" for flag in VERIFY_FLAGS
               if flag not in reads and getattr(args, flag) is not None]
    if ignored:
        raise ValidationError(
            f"verify {args.name} does not read {', '.join(ignored)}")
    body, ok = verifier(args, rng)
    report = {"command": "verify", "name": args.name, "seed": args.seed,
              "report": body, "ok": ok}
    return emit(report, args.json, ok)


def _family(args):
    """The product family of --fiber and --base, P^1 over P^1 by default."""
    return dcoh.FamilyDescriptor(tuple(args.fiber or [1]),
                                 1 if args.base is None else args.base)


def _line_bundle(value, factors, what):
    """O(d_1, ..., d_t; e) from the JSON list [d_1, ..., d_t, e]; ``what``
    names the flag that held it."""
    if not isinstance(value, list) or any(type(x) is not int for x in value):
        raise ValidationError(f"{what} must be a list of integers, got {value!r}")
    if len(value) != factors + 1:
        raise ValidationError(
            f"{what} needs {factors} fiber degrees and one base twist")
    return dcoh.MultidegreeLineBundle(tuple(value[:-1]), value[-1])


def _c1_pairing(args):
    """The family of ``deligne`` and ``verify c1-pairing`` and
    ``dcoh.c1_pairing_check`` on their --bundles."""
    fam = _family(args)
    if args.bundles is None:
        raise ValidationError("--bundles is required")
    entries = _load_json(args.bundles, "--bundles")
    if not isinstance(entries, list):
        raise ValidationError(f"--bundles must be a JSON list, got {entries!r}")
    bundles = [_line_bundle(entry, len(fam.fiber), "each entry of --bundles")
               for entry in entries]
    return fam, dcoh.c1_pairing_check(fam, bundles)


def cmd_deligne(args):
    fam, out = _c1_pairing(args)
    report = {
        "command": "deligne",
        "fiber": list(fam.fiber),
        "base": fam.base,
        "degree": out["degree"],
        "rank_check": out["rank_sum"] == 0,
        "c1_match": out["match"],
    }
    return emit(report, args.json, out["match"])


def cmd_grr(args):
    fam = _family(args)
    entry = _load_json(args.bundle, "--bundle")
    bundle = _line_bundle(entry, len(fam.fiber), "--bundle")
    out = pushforward.grr_codim1_report(fam, bundle)
    report = {
        "command": "grr",
        "fiber": list(fam.fiber),
        "base": fam.base,
        "bundle": entry,
        "lhs_degree": out["lhs_degree"],
        "rhs_degree": out["rhs_degree"],
        "equal": out["equal"],
    }
    return emit(report, args.json, out["equal"])


def _integers(value, depth):
    """``value`` checked to be JSON integers (not booleans) nested in
    ``depth`` levels of lists: 0 for one integer, 1 for a vector, 2 for a
    matrix."""
    if depth == 0:
        if type(value) is not int:
            raise TypeError(f"expected an integer, got {json.dumps(value)}")
        return value
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {json.dumps(value)}")
    return [_integers(x, depth - 1) for x in value]


def _load_skeleton(path):
    data = _read_json(path)
    try:
        monoid = picard.MonoidPresentation(
            _integers(data["monoid"]["generators"], 0),
            _integers(data["monoid"].get("relations", []), 3))
        chain = data["chain"]
        groups = [picard.FGAbelianGroup(_integers(g["generators"], 0),
                                        _integers(g.get("relations", []), 2))
                  for g in chain["groups"]]
        return picard.GroupoidSkeleton(
            monoid=monoid,
            chain_start=_integers(chain["start"], 1),
            chain_step=_integers(chain["step"], 1),
            chain_groups=groups,
            translations=_integers(chain["translations"], 3),
            symmetry=_integers(chain["symmetry"], 2),
        )
    except KeyError as err:
        raise ValidationError(f"{path}: missing key {err}") from None
    except (AttributeError, TypeError, ValueError) as err:
        raise ValidationError(f"{path}: malformed skeleton ({err})") from None


def _group_invariants(group):
    return {"free_rank": group.free_rank, "torsion": list(group.torsion)}


def cmd_picard(args):
    skeleton = _load_skeleton(args.input)
    invariants = picard.picardify(skeleton)
    rational = picard.rationalize(invariants)
    report = {
        "command": "picard",
        "pi0": str(invariants.pi0),
        "pi0_invariants": _group_invariants(invariants.pi0),
        "pi1": str(invariants.pi1),
        "pi1_invariants": _group_invariants(invariants.pi1),
        "eps": [[int(x) for x in row] for row in invariants.eps],
        "eps_zero": invariants.eps_is_zero(),
        "rationalized": rational.describe(),
    }
    return emit(report, args.json, ok=True)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def build_arg_parser():
    """The parser of this process: building it costs more than most
    requests, and ``parse_args`` returns a fresh namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="chowline",
        description="Exact intersection-theory calculator")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="emit a JSON report")

    def truncation(p):
        p.add_argument("--truncation", type=_positive_int, default=None,
                       help="truncation degree (default from "
                            "CHOWLINE_TRUNCATION or 8)")

    def family(p, base=1, bundle="--bundles", required=True):
        p.add_argument("--fiber", type=_parse_int_list, default=None,
                       help="fiber dimensions, comma-separated (default 1)")
        p.add_argument("--base", type=int, default=base,
                       help="base dimension (default 1)")
        p.add_argument(bundle, required=required,
                       help='JSON [fiber degrees..., base twist], e.g. "[2,-1]"; '
                            'a list of them for --bundles')

    p_eval = sub.add_parser("eval", help="evaluate a class expression")
    p_eval.add_argument("expression")
    p_eval.add_argument("--setup", required=True,
                        help="setup JSON file declaring the bundles")
    p_eval.add_argument("--fulton", action="store_true",
                        help="use the 1/c Segre convention for s(k, E)")
    common(p_eval)
    truncation(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="verify a named identity")
    p_verify.add_argument("name")
    # Every flag but --seed defaults to None, so that cmd_verify can tell
    # a given flag from a missing one.  Ranks and counts are >= 1 and lists
    # are nonempty, so a verifier's ``args.rank or <default>`` only fills
    # in a missing flag.
    p_verify.add_argument("--rank", type=_positive_int, default=None)
    p_verify.add_argument("--ranks", type=_parse_rank_list, default=None)
    p_verify.add_argument("--degree", type=int, default=None)
    p_verify.add_argument("--count", type=_positive_int, default=None,
                          help="randomized instances for sampled suites "
                               "(default 25)")
    p_verify.add_argument("--seed", type=int, default=0)
    family(p_verify, base=None, required=False)
    common(p_verify)
    truncation(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_deligne = sub.add_parser("deligne",
                               help="pairing degree via the cohomological oracle")
    family(p_deligne)
    common(p_deligne)
    p_deligne.set_defaults(func=cmd_deligne)

    p_grr = sub.add_parser("grr",
                           help="codimension-one Riemann-Roch degree check")
    family(p_grr, bundle="--bundle")
    common(p_grr)
    p_grr.set_defaults(func=cmd_grr)

    p_picard = sub.add_parser("picard",
                              help="Picardification invariants from a skeleton file")
    p_picard.add_argument("input")
    common(p_picard)
    p_picard.set_defaults(func=cmd_picard)

    return parser


def main(argv=None):
    args = build_arg_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ChowlineError, ValueError) as err:
        # The one ValueError refused here: Python's limit on integer digits.
        if not (isinstance(err, ChowlineError)
                or "integer string conversion" in str(err)):
            raise
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
