"""Command-line front end: expression language, verification suites and
machine-readable reports.

The expression grammar is ASCII-only: any other character, a digit of
another script included, is a syntax error.  ``*`` is context-resolved:
between classes it is the ring product, between bundle terms it is the
tensor product; ``tensor(A, B)`` is the explicit escape hatch.  Rationals
are written ``p/q`` (q > 0) and are serialized as strings in JSON reports
so that no downstream tool coerces them to floats.

Exit codes: 0 when every verdict is true, 1 when a verification fails
(the residual is printed), 2 for usage and validation errors, a family
the checks do not support included.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
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
    UnsupportedFamily,
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


class Token:
    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind, value, line, column):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column

    def __repr__(self):
        return f"Token({self.kind}, {self.value!r})"


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
        if ch.isspace():
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

CALL_FUNCS = {"c", "s", "ch", "td", "tdstar", "rk", "class",
              "dual", "det", "lam", "tensor"}


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
            tok = self.next()
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
            return self._class_call(tree[1], tree[2])
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

    def _class_call(self, func, args):
        if func == "c":
            if len(args) != 2:
                raise ValidationError("c(k, E) takes two arguments")
            k = self._degree_arg(args[0], "c")
            name = self._bundle_name_arg(args[1], "c")
            return chern_class(self.setup, name, k)
        if func == "s":
            if len(args) != 2:
                raise ValidationError("s(k, E) takes two arguments")
            k = self._degree_arg(args[0], "s")
            name = self._bundle_name_arg(args[1], "s")
            return segre_class(self.setup, name, k, fulton=self.fulton)
        if func == "ch":
            if len(args) != 1:
                raise ValidationError("ch(V) takes one argument")
            return charclass.ch(self.bundle_value(args[0]), self.setup)
        if func == "td":
            if len(args) != 1:
                raise ValidationError("td(V) takes one argument")
            return charclass.td(self.bundle_value(args[0]), self.setup)
        if func == "tdstar":
            if len(args) != 1:
                raise ValidationError("tdstar(V) takes one argument")
            return charclass.td_star(self.bundle_value(args[0]), self.setup)
        if func == "rk":
            if len(args) != 1:
                raise ValidationError("rk(V) takes one argument")
            rank = self.bundle_value(args[0]).rank(self.setup.rank)
            return self.setup.const(rank)
        if func == "class":
            if len(args) != 3:
                raise ValidationError(
                    "class(phi|psi, [coefficients], V) takes three arguments")
            if args[0][0] != "name" or args[0][1] not in ("phi", "psi"):
                raise ValidationError("first argument must be phi or psi")
            if args[1][0] != "series":
                raise ValidationError(
                    "second argument must be a [c0,c1,...] series literal")
            coeffs = list(args[1][1])
            coeffs += [Fraction(0)] * (self.setup.truncation + 1 - len(coeffs))
            spec_kind = "additive" if args[0][1] == "phi" else "multiplicative"
            spec = CharClassSpec(spec_kind, PowerSeries(coeffs))
            return evaluate_class(spec, self.bundle_value(args[2]), self.setup)
        raise ValidationError(f"unknown function {func!r} in class position")

    # -- bundle context -------------------------------------------------

    def bundle_value(self, tree):
        kind = tree[0]
        if kind == "name":
            if tree[1] == "O":
                return VirtualBundle.trivial()
            if tree[1] not in self.setup.bundles:
                raise ValidationError(f"unknown bundle {tree[1]!r}")
            return VirtualBundle.bundle(tree[1])
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
            func, args = tree[1], tree[2]
            if func == "dual":
                if len(args) != 1:
                    raise ValidationError("dual(V) takes one argument")
                return self.bundle_value(args[0]).dual()
            if func == "det":
                if len(args) != 1:
                    raise ValidationError("det(V) takes one argument")
                return self.bundle_value(args[0]).det()
            if func == "lam":
                if len(args) != 2:
                    raise ValidationError("lam(p, V) takes two arguments")
                p = self._degree_arg(args[0], "lam")
                return self.bundle_value(args[1]).lam(p)
            if func == "tensor":
                if len(args) != 2:
                    raise ValidationError("tensor(A, B) takes two arguments")
                return self.bundle_value(args[0]) * self.bundle_value(args[1])
            raise ValidationError(
                f"unknown function {func!r} in bundle position")
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
    if as_json:
        print(json.dumps(report, indent=2))
    else:
        _emit_human(report)
    return 0 if ok else 1


def _emit_human(report, indent=""):
    for key, value in report.items():
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _emit_human(value, indent + "  ")
        else:
            print(f"{indent}{key}: {value}")


def _load_json(text, what):
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ValidationError(f"{what} is not valid JSON: {err}") from None


def _read_json(path):
    with open(path) as handle:
        data = _load_json(handle.read(), path)
    if not isinstance(data, dict):
        raise ValidationError(f"{path} must hold a JSON object")
    return data


def load_setup(args):
    if getattr(args, "setup", None):
        data = _read_json(args.setup)
        if getattr(args, "truncation", None) is not None:
            data["truncation"] = args.truncation
        try:
            return Setup.from_dict(data)
        except (KeyError, TypeError, ValueError) as err:
            raise ValidationError(f"{args.setup}: bad setup ({err})") from None
    raise ValidationError("this command needs --setup <file.json>")


def default_truncation(args, fallback=8):
    if getattr(args, "truncation", None) is not None:
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


def _int_list(value, what):
    if not isinstance(value, list) or any(type(x) is not int for x in value):
        raise ValidationError(f"{what} must be a list of integers, got {value!r}")
    return value


def _chern_degree(args, setup, low=0):
    """--degree where it names a Chern degree: absent, or at least ``low``
    and at most the truncation, above which both sides truncate to 0."""
    if args.degree is not None and args.degree < low:
        raise ValidationError(f"--degree must be at least {low}, got {args.degree}")
    if args.degree is not None and args.degree > setup.truncation:
        raise ValidationError(
            f"--degree {args.degree} exceeds the truncation {setup.truncation}")
    return args.degree


def verify_whitney(args, rng):
    ranks = args.ranks or [2, 2]
    if len(ranks) != 2:
        raise ValidationError(f"--ranks takes two ranks, got {len(ranks)}")
    r1, r2 = ranks
    setup = Setup([("A", r1), ("B", r2)], 0, default_truncation(args))
    degree = _chern_degree(args, setup)
    degrees = [degree] if degree is not None else range(r1 + r2 + 1)
    checks = []
    ok = True
    for k in degrees:
        combined = elem_sym(k, setup.root_vars("A") + setup.root_vars("B"),
                            setup.grades, setup.truncation)
        rhs = whitney_expand(setup, "A", "B", k)
        exact = rhs.poly == combined
        samples = True
        for _ in range(args.count or 25):
            values = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                      for v in setup.grades}
            samples = samples and (combined.evaluate(values)
                                   == rhs.poly.evaluate(values))
        checks.append({"degree": k, "exact": exact, "samples": samples})
        ok = ok and exact and samples
    return {"identity": "whitney", "ranks": [r1, r2], "checks": checks}, ok


def verify_dual(args, rng):
    r = args.rank or 3
    setup = Setup([("E", r)], 0, default_truncation(args))
    sub = {v: -Poly.var(v, setup.grades, setup.truncation)
           for v in setup.root_vars("E")}
    checks = []
    ok = True
    degree = _chern_degree(args, setup)
    degrees = [degree] if degree is not None else range(r + 1)
    for k in degrees:
        lhs = chern_class(setup, "E", k).poly.substitute(sub)
        rhs = dual_class(setup, "E", k).poly
        good = lhs == rhs
        checks.append({"degree": k, "exact": good})
        ok = ok and good
    return {"identity": "dual", "rank": r, "checks": checks}, ok


def verify_tensor_line(args, rng):
    r = args.rank or 2
    setup = Setup([("E", r), ("L", 1)], 0, default_truncation(args))
    checks = []
    ok = True
    degree = _chern_degree(args, setup)
    degrees = [degree] if degree is not None else range(r + 2)
    for k in degrees:
        good = tensor_line(setup, "E", "L", k) == tensor_line_oracle(
            setup, "E", "L", k)
        checks.append({"degree": k, "exact": good})
        ok = ok and good
    return {"identity": "tensor-line", "rank": r, "checks": checks}, ok


def verify_segre(args, rng):
    r = args.rank or 3
    setup = Setup([("E", r)], 0, default_truncation(args))
    # The recurrence is checked in degrees 1..top; --degree 0 would check
    # nothing and report success.
    degree = _chern_degree(args, setup, low=1)
    top = degree if degree is not None else setup.truncation
    segre = [segre_class(setup, "E", i) for i in range(top + 1)]
    chern = [chern_class(setup, "E", i) for i in range(top + 1)]
    checks = []
    ok = True
    for k in range(1, top + 1):
        acc = setup.zero()
        for i in range(k + 1):
            acc = acc + segre[i] * chern[k - i] * ((-1) ** i)
        good = acc.is_zero()
        checks.append({"degree": k, "recurrence_zero": good})
        ok = ok and good
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
    truncation = default_truncation(args, 6)
    setup = Setup([("A", 1), ("B", 2), ("C", 3)], 0, truncation)
    names = ["A", "B", "C"]
    count = args.count or 25
    failures = 0
    for _ in range(count):
        v = _random_tree(rng, names, 2)
        w = _random_tree(rng, names, 2)
        if not charclass.ch_tensor_check(setup, v, w):
            failures += 1
    report = {
        "identity": "ch-mult",
        "count": count,
        "failures": failures,
    }
    return report, failures == 0


def verify_c1_pairing(args, rng):
    base = 1 if args.base is None else args.base
    fam = dcoh.FamilyDescriptor(tuple(args.fiber or [1]), base)
    bundles = _parse_bundles(args.bundles, len(fam.fiber))
    out = dcoh.c1_pairing_check(fam, bundles)
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


def _parse_bundles(text, factors):
    if not text:
        raise ValidationError("--bundles is required")
    bundles = []
    for entry in _load_json(text, "--bundles"):
        entry = _int_list(entry, "each entry of --bundles")
        if len(entry) != factors + 1:
            raise ValidationError(
                f"each bundle needs {factors} fiber degrees and one base twist")
        bundles.append(dcoh.MultidegreeLineBundle(
            tuple(entry[:factors]), entry[factors]))
    return bundles


def cmd_deligne(args):
    fam = dcoh.FamilyDescriptor(tuple(args.fiber or [1]), args.base)
    bundles = _parse_bundles(args.bundles, len(fam.fiber))
    out = dcoh.c1_pairing_check(fam, bundles)
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
    fam = dcoh.FamilyDescriptor(tuple(args.fiber or [1]), args.base)
    entry = _int_list(_load_json(args.bundle, "--bundle"), "--bundle")
    if len(entry) != len(fam.fiber) + 1:
        raise ValidationError(
            f"the bundle needs {len(fam.fiber)} fiber degrees and one base twist")
    bundle = dcoh.MultidegreeLineBundle(tuple(entry[:-1]), entry[-1])
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


def _load_skeleton(path):
    data = _read_json(path)
    try:
        monoid = picard.MonoidPresentation(
            int(data["monoid"]["generators"]),
            [(list(u), list(v)) for u, v in data["monoid"].get("relations", [])])
        chain = data["chain"]
        groups = [picard.FGAbelianGroup(int(g["generators"]),
                                        g.get("relations", []))
                  for g in chain["groups"]]
        return picard.GroupoidSkeleton(
            monoid=monoid,
            chain_start=list(chain["start"]),
            chain_step=list(chain["step"]),
            chain_groups=groups,
            translations=[m for m in chain["translations"]],
            symmetry=[list(s) for s in chain["symmetry"]],
        )
    except KeyError as err:
        raise ValidationError(f"{path}: missing key {err}") from None
    except (AttributeError, TypeError, ValueError) as err:
        raise ValidationError(f"{path}: malformed skeleton ({err})") from None


def cmd_picard(args):
    skeleton = _load_skeleton(args.input)
    invariants = picard.picardify(skeleton)
    rational = picard.rationalize(invariants)
    report = {
        "command": "picard",
        "pi0": str(invariants.pi0),
        "pi0_invariants": {
            "free_rank": invariants.pi0.free_rank,
            "torsion": list(invariants.pi0.torsion),
        },
        "pi1": str(invariants.pi1),
        "pi1_invariants": {
            "free_rank": invariants.pi1.free_rank,
            "torsion": list(invariants.pi1.torsion),
        },
        "eps": [[int(x) for x in row] for row in invariants.eps],
        "eps_zero": invariants.eps_is_zero(),
        "rationalized": rational.describe(),
    }
    return emit(report, args.json, ok=True)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_arg_parser():
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
    p_verify.add_argument("--fiber", type=_parse_int_list, default=None)
    p_verify.add_argument("--base", type=int, default=None,
                          help="base dimension for c1-pairing (default 1)")
    p_verify.add_argument("--bundles", default=None)
    common(p_verify)
    truncation(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_deligne = sub.add_parser("deligne",
                               help="pairing degree via the cohomological oracle")
    p_deligne.add_argument("--fiber", type=_parse_int_list, default=None)
    p_deligne.add_argument("--base", type=int, default=1)
    p_deligne.add_argument("--bundles", required=True,
                           help='JSON, e.g. "[[1,0],[0,1]]"')
    common(p_deligne)
    p_deligne.set_defaults(func=cmd_deligne)

    p_grr = sub.add_parser("grr",
                           help="codimension-one Riemann-Roch degree check")
    p_grr.add_argument("--fiber", type=_parse_int_list, default=None)
    p_grr.add_argument("--base", type=int, default=1)
    p_grr.add_argument("--bundle", required=True, help='JSON, e.g. "[2,-1]"')
    common(p_grr)
    p_grr.set_defaults(func=cmd_grr)

    p_picard = sub.add_parser("picard",
                              help="Picardification invariants from a skeleton file")
    p_picard.add_argument("input")
    common(p_picard)
    p_picard.set_defaults(func=cmd_picard)

    return parser


@functools.cache
def _arg_parser():
    """The parser of this process: building it costs more than most
    requests, and ``parse_args`` returns a fresh namespace on every call."""
    return build_arg_parser()


def main(argv=None):
    args = _arg_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ExprSyntaxError, ValidationError, UnsupportedFamily) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ChowlineError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
