"""Command-line front end: expression language, verification suites and
machine-readable reports.

The expression grammar is ASCII-only: any other character, a digit of
another script included, is a syntax error.  ``*`` is context-resolved:
between classes it is the ring product, between bundle terms it is the
tensor product; ``tensor(A, B)`` is the explicit escape hatch.  Rationals
are written ``p/q`` (q > 0) and are serialized as strings in JSON reports
so that no downstream tool coerces them to floats.

Exit codes: 0 when every verdict is true, 1 when a verification fails,
2 when the request is refused: a usage or validation error, any other
error the library raises on its input, or an integer of more digits than
the interpreter reads or prints.  The report of a failed verdict shows
the residual for ``verify borel-serre``; a boolean per degree for
``dual``, ``tensor-line`` and ``segre``, and for ``whitney`` with the
first failing point and its two values; a count of failures
for ``ch-mult``; the two values compared for ``hrr``, ``c1-pairing`` and
``grr``; the degree and two booleans for ``deligne``; and the verdict
alone for ``restriction``.

``eval`` computes in the setup's Chern-basis ring (``Setup.basis``): see
``Evaluator`` for which classes take the partition route of
``charclass.evaluate_class_in_ring`` and which the Chern roots.  Its
report renders the class by ``Poly.rendered_terms``, as ``str`` does.
``verify dual`` and ``verify tensor-line`` check their closed formulas
against one root oracle, ``chern_ring.elementary_classes``, on the
negated and on the shifted roots of E.

A request is read and written without the generic paths of argparse and
json where they are not needed.  ``parse_arguments`` reads a well-formed
argument list with an exact reader built from each subcommand parser's
own actions and leaves anything else, help and usage errors included, to
argparse; ``emit`` writes a ``--json`` report with ``_json_text``, which
matches ``json.dumps(report, indent=2)`` byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from collections import namedtuple
from contextlib import ExitStack
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from . import charclass, dcoh, picard, pushforward
from .chern_ring import (
    Setup,
    chern_class,
    dual_class,
    elementary_classes,
    segre_class,
    tensor_line,
    whitney_expand,
)
from .charclass import CharClassSpec, VirtualBundle, evaluate_class_in_ring
from .errors import (
    ChowlineError,
    ExprSyntaxError,
    ValidationError,
)
from .poly import PowerSeries, sum_of_products, terms_text
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


# ---------------------------------------------------------------------------
# elaboration against a setup
# ---------------------------------------------------------------------------

# A power forms at most truncation products, but its constant term c^n
# grows with n: ``(2+c(1,E))^n`` on a rank-2 setup takes 0.75 s at n = 4e7
# (in process, 2-vCPU Xeon VM) and never returns at 1e12.  A power of
# higher degree in its numbers and calls (nested powers multiply) is
# refused before it is evaluated; 2^16384 already has more digits than
# the interpreter prints by default (4,300).
POWER_LIMIT = 16_384
# The degree bounds the products but not the size of c^n: a 4,000-digit
# constant term to the 4,000th power has about 16M digits.  A power whose
# exponent times the bit length of its base's largest number (a numerator
# or the denominator) passes this is refused before it is formed; 2^16
# bits is about 19,700 digits, over four times what the interpreter
# prints by default.
POWER_BITS_LIMIT = 1 << 16


def _degree(tree):
    """The degree of a class expression in its leaves, numbers and calls."""
    kind = tree[0]
    if kind == "pow":
        return tree[2] * _degree(tree[1])
    if kind in ("add", "sub", "mul"):
        left, right = _degree(tree[1]), _degree(tree[2])
        return left + right if kind == "mul" else max(left, right)
    return _degree(tree[1]) if kind == "neg" else 1


class Evaluator:
    """Evaluates parsed expressions over a setup.

    Class context produces a ChernSeries of the setup's Chern-basis ring
    (``Setup.basis``); bundle context produces a VirtualBundle.  ``*``
    means ring product in the former and tensor in the latter.  ``c(k, E)``
    is the variable c_k(E); ``ch``, ``td``, ``tdstar`` and ``class`` go
    through ``evaluate_class_in_ring`` in that ring, which sums a sum, dual
    or multiple of declared bundles over partitions and evaluates any other
    bundle in the roots; ``s(k, E)`` is evaluated in the roots.  Either
    root class is rewritten once by ``to_chern_basis``, and sums, products
    and powers then run on Chern-basis polynomials.
    """

    def __init__(self, setup, fulton=False):
        self.setup = setup
        self.basis = setup.basis
        self.fulton = fulton

    # -- class context ---------------------------------------------------

    def class_value(self, tree):
        kind = tree[0]
        if kind == "num":
            return self.basis.const(tree[1])
        if kind == "add":
            return self.class_value(tree[1]) + self.class_value(tree[2])
        if kind == "sub":
            return self.class_value(tree[1]) - self.class_value(tree[2])
        if kind == "mul":
            return self.class_value(tree[1]) * self.class_value(tree[2])
        if kind == "pow":
            if tree[2] < 0:
                raise ValidationError("negative powers are not defined")
            degree = _degree(tree)
            if degree > POWER_LIMIT:
                raise ValidationError(f"a power of degree {degree} exceeds "
                                      f"the limit of {POWER_LIMIT}")
            base = self.class_value(tree[1])
            bits = tree[2] * max(n.bit_length() for n in
                                 (base.poly.den, *base.poly.nums.values()))
            if bits > POWER_BITS_LIMIT:
                raise ValidationError(
                    f"a power of about {bits} bits exceeds the limit of "
                    f"{POWER_BITS_LIMIT} bits")
            return base ** tree[2]
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
        return evaluate_class_in_ring(spec, self.bundle_value(bundle),
                                      self.basis)

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
          lambda ev, k, name: ev.basis.chern_class(name, k)),
    "s": ("class", "s(k, E) takes two arguments", ("degree", "name"),
          lambda ev, k, name: ev.basis.from_roots(
              segre_class(ev.setup, name, k, fulton=ev.fulton))),
    "ch": ("class", "ch(V) takes one argument", ("bundle",),
           lambda ev, v: charclass.ch(v, ev.basis)),
    "td": ("class", "td(V) takes one argument", ("bundle",),
           lambda ev, v: charclass.td(v, ev.basis)),
    "tdstar": ("class", "tdstar(V) takes one argument", ("bundle",),
               lambda ev, v: charclass.td_star(v, ev.basis)),
    "rk": ("class", "rk(V) takes one argument", ("bundle",),
           lambda ev, v: ev.basis.const(v.rank(ev.setup.rank))),
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
    """Chern-basis presentation of a class, with rationals as strings:
    ``text`` as ``str`` writes the polynomial, and ``by_degree`` its terms
    by degree, both from one ``Poly.rendered_terms``."""
    terms = series.chern_basis().rendered_terms()
    by_degree = {}
    for degree, body, coeff in terms:
        by_degree.setdefault(str(degree), {})[body or "1"] = coeff
    return {"text": terms_text(terms), "by_degree": by_degree}


def emit(report, as_json, ok):
    # Rendered whole first, so a value that cannot print leaves no report.
    print(_json_text(report) if as_json
          else "\n".join(_human_lines(report)))
    return 0 if ok else 1


def _json_text(value, indent="\n"):
    """``json.dumps(value, indent=2)``, byte for byte, for the types a
    report holds: dicts with str keys, lists, str, int, bool and None.

    ``json.dumps`` serves an indented dump with its pure-Python encoder;
    this writer joins the same text, each string escaped by the C escaper
    and each int written by ``int.__repr__``, so an integer past the
    interpreter's digit limit raises the same ``ValueError``.  ``indent``
    is the newline and spaces that precede the value's closing bracket.
    Any other type, a float, a tuple or a key that is not a str included,
    raises ``TypeError``."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        return ("{" + inner + ("," + inner).join(
            f"{_quote(key)}: {_json_text(item, inner)}"
            for key, item in value.items()) + indent + "}")
    if isinstance(value, list):
        if not value:
            return "[]"
        return ("[" + inner + ("," + inner).join(
            _json_text(item, inner) for item in value) + indent + "]")
    raise TypeError(f"a report holds no {type(value).__name__}")


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


# The keys a setup file may hold, at the top level and per bundle.
SETUP_KEYS = ("bundles", "relative_dimension", "truncation")
BUNDLE_KEYS = ("name", "rank")


def setup_declaration(args):
    """The ``Setup`` arguments the --setup file declares, its truncation
    replaced by --truncation when given.  Only what the command line alone
    knows is checked here: the file's JSON shape, a list of bundle objects,
    no key outside ``SETUP_KEYS`` and ``BUNDLE_KEYS`` (a misspelt key is
    refused, not left to its default), and names an expression can read,
    ASCII identifiers other than 'O', the trivial line's name.  The ranks,
    relative dimension and truncation are ``Setup``'s to check (2.7 and
    ``true`` are refused, not read as 2 and 1), when ``cmd_eval`` builds
    it."""
    data = _read_json(args.setup)

    def bad(why):
        return ValidationError(f"{args.setup}: bad setup ({why})")

    def known(keys, allowed):
        for key in keys:
            if key not in allowed:
                raise bad(f"unknown key {key!r}; the keys are "
                          + ", ".join(allowed))

    known(data, SETUP_KEYS)
    if args.truncation is not None:
        data["truncation"] = args.truncation
    bundles = data.get("bundles", [])
    if type(bundles) is not list:
        raise bad("bundles must be a list")
    declared = []
    for bundle in bundles:
        name = bundle.get("name") if type(bundle) is dict else None
        if not (type(name) is str and name.isascii() and name.isidentifier()):
            raise bad(f"a bundle needs an ASCII identifier as its name, got "
                      f"{bundle!r}")
        known(bundle, BUNDLE_KEYS)
        if name == "O":
            raise ValidationError(f"{args.setup}: 'O' names the trivial line")
        declared.append((name, bundle.get("rank")))
    return (declared, data.get("relative_dimension", 0),
            data.get("truncation", 8))


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
    declared = setup_declaration(args)
    tree = parse(args.expression)
    with ExitStack() as stack:
        try:
            setup = stack.enter_context(dcoh.kept(Setup, *declared))
        except ValueError as err:
            raise ValidationError(f"{args.setup}: bad setup ({err})") from None
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


# --count is bounded: whitney holds a request's points and their e_k at
# once, and its time and memory grow with them.  In process (2-vCPU Xeon
# VM), ``--ranks 3,3`` took 0.11 s at 1,000 points and 2.7 s and 35 MB at
# 20,000; ch-mult took 1.1 s at 1,000 pairs of random bundles.
COUNT_LIMIT = 1_000


def _sampling(args):
    """The --count of a sampled identity (25 when not given), refused
    above ``COUNT_LIMIT`` before anything is drawn, and the generator of
    --seed that draws its samples."""
    count = args.count or 25
    if count > COUNT_LIMIT:
        raise ValidationError(
            f"--count {count} exceeds the limit of {COUNT_LIMIT}")
    return count, random.Random(args.seed)


# The coordinates of whitney's sample points, p/q for -9 <= p <= 9 and
# 1 <= q <= 5, each formed once.
_SAMPLE_VALUES = {(p, q): Fraction(p, q)
                  for p in range(-9, 10) for q in range(1, 6)}


def verify_whitney(args):
    """c_k(A + B) = sum_i c_i(A) c_{k-i}(B) by two routes: ``exact``
    compares e_k of the concatenated roots with the Whitney expansion as
    polynomials, and ``samples`` compares the expansion's value at
    --count random rational points, drawn once per request, with e_k of
    their coordinates, which ``dcoh.elementary_symmetric_values`` forms
    for every degree at once without the polynomial kernel.  A failing
    degree carries its first failing point and the two values as exact
    strings (``counterexample``)."""
    ranks = args.ranks or [2, 2]
    if len(ranks) != 2:
        raise ValidationError(f"--ranks takes two ranks, got {len(ranks)}")
    r1, r2 = ranks
    count, rng = _sampling(args)
    checks = []
    with dcoh.kept(Setup, [("A", r1), ("B", r2)], 0,
                   default_truncation(args)) as setup:
        roots = setup.root_vars("A") + setup.root_vars("B")
        degrees = _chern_degrees(args, setup, range(r1 + r2 + 1))
        points = [{v: _SAMPLE_VALUES[rng.randrange(-9, 10), rng.randrange(1, 6)]
                   for v in roots} for _ in range(count)]
        values = [dcoh.elementary_symmetric_values(max(degrees), point.values())
                  for point in points]
        for k in degrees:
            rhs = whitney_expand(setup, "A", "B", k)
            exact = rhs.poly == elem_sym(k, roots, setup.grades,
                                         setup.truncation)
            check = {"degree": k, "exact": exact, "samples": True}
            for point, e in zip(points, values):
                if (value := rhs.poly.evaluate(point)) != e[k]:
                    check.update(samples=False, counterexample={
                        "point": {v: str(x) for v, x in point.items()},
                        "expansion": str(value), "elementary": str(e[k])})
                    break
            checks.append(check)
    ok = all(check["exact"] and check["samples"] for check in checks)
    return {"identity": "whitney", "ranks": [r1, r2], "checks": checks}, ok


def verify_dual(args):
    r = args.rank or 3
    with dcoh.kept(Setup, [("E", r)], 0, default_truncation(args)) as setup:
        degrees = _chern_degrees(args, setup, range(r + 1))
        oracle = elementary_classes(
            setup, [-root for root in setup.roots("E")], max(degrees))
        checks = [{"degree": k,
                   "exact": dual_class(setup, "E", k) == oracle[k]}
                  for k in degrees]
    ok = all(check["exact"] for check in checks)
    return {"identity": "dual", "rank": r, "checks": checks}, ok


def verify_tensor_line(args):
    r = args.rank or 2
    with dcoh.kept(Setup, [("E", r), ("L", 1)], 0,
                   default_truncation(args)) as setup:
        degrees = _chern_degrees(args, setup, range(r + 2))
        ell = chern_class(setup, "L", 1).poly
        oracle = elementary_classes(
            setup, [root + ell for root in setup.roots("E")], max(degrees))
        checks = [{"degree": k,
                   "exact": tensor_line(setup, "E", "L", k) == oracle[k]}
                  for k in degrees]
    ok = all(check["exact"] for check in checks)
    return {"identity": "tensor-line", "rank": r, "checks": checks}, ok


def verify_segre(args):
    r = args.rank or 3
    checks = []
    with dcoh.kept(Setup, [("E", r)], 0, default_truncation(args)) as setup:
        # The recurrence is checked in degrees 1..top; --degree 0 would
        # check nothing and report success.
        [top] = _chern_degrees(args, setup, [setup.truncation], low=1)
        segre = [segre_class(setup, "E", i) for i in range(top + 1)]
        chern = [chern_class(setup, "E", i) for i in range(top + 1)]
        for k in range(1, top + 1):
            acc = sum_of_products([((-1) ** i, segre[i].poly, chern[k - i].poly)
                                   for i in range(k + 1)],
                                  setup.grades, setup.truncation)
            checks.append({"degree": k, "recurrence_zero": acc.is_zero()})
    ok = all(check["recurrence_zero"] for check in checks)
    return {"identity": "segre", "rank": r, "checks": checks}, ok


def verify_borel_serre(args):
    r = args.rank or 2
    with dcoh.kept(Setup, [("E", r)], 0,
                   default_truncation(args, max(8, r))) as setup:
        good, residual = charclass.borel_serre_check(setup, "E")
    report = {
        "identity": "borel-serre",
        "rank": r,
        "truncation": setup.truncation,
        "residual": str(residual.chern_basis()),
    }
    return report, good


def verify_restriction(args):
    r = args.rank or 2
    with dcoh.kept(Setup, [("E", r)], 0,
                   default_truncation(args, max(8, r))) as setup:
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


def verify_ch_mult_suite(args):
    names = ["A", "B", "C"]
    count, rng = _sampling(args)
    with dcoh.kept(Setup, [("A", 1), ("B", 2), ("C", 3)], 0,
                   default_truncation(args, 6)) as setup:
        pairs = [(_random_tree(rng, names, 2), _random_tree(rng, names, 2))
                 for _ in range(count)]
        failures = sum(not charclass.ch_tensor_check(setup, v, w)
                       for v, w in pairs)
    report = {
        "identity": "ch-mult",
        "count": count,
        "failures": failures,
    }
    return report, failures == 0


def verify_c1_pairing(args):
    _, out = _c1_pairing(args)
    report = {
        "identity": "c1-pairing",
        "degree": out["degree"],
        "pushforward_degree": out["pushforward_degree"],
        "rank_sum": out["rank_sum"],
    }
    return report, out["match"]


def verify_hrr(args):
    n = args.rank or 2
    d = args.degree if args.degree is not None else 3

    def chi_of(tower):
        v = VirtualBundle.line_class((tower.xi(1) * d).poly)
        return pushforward.euler_characteristic(tower, v)

    chi = dcoh.with_kept(chi_of, pushforward.Tower,
                         pushforward.Tower.product_levels([n]))
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
    body, ok = verifier(args)
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
    requests, and ``parse_args`` returns a fresh namespace on every call.
    ``parser.subcommands`` maps each subcommand's name to its parser."""
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

    parser.subcommands = sub.choices
    return parser


# The actions the exact reader reads: a flag that stores True, and an
# option or positional that stores one value, converted by its type.
_FLAG, _STORE = argparse._StoreTrueAction, argparse._StoreAction


@functools.cache
def _exact_reader(parser):
    """(options, positionals, required, start) of a subcommand's parser,
    read off its own actions: each option string's action, the positional
    actions in order, the options that must be given, and the values
    ``parse_args`` starts from (each action's default, then those of
    ``set_defaults``).

    Raises ``TypeError`` for an action the exact reader would not read as
    argparse does: one that is neither ``store_true`` nor a plain
    ``store`` of one value (``choices``, ``nargs`` and other ``const``
    actions), a ``str`` default that argparse would pass through ``type``,
    or an option string argparse could take for a negative number.  The
    help action is left to argparse."""
    if (parser.prefix_chars != "-" or parser.fromfile_prefix_chars
            or parser._mutually_exclusive_groups):
        raise TypeError(f"{parser.prog}: argparse reads it differently")
    options, positionals, required, start = {}, [], set(), {}
    for action in parser._actions:
        if type(action) is argparse._HelpAction:
            continue
        exact = type(action) is _FLAG or (
            type(action) is _STORE and action.nargs is None
            and action.const is None and action.choices is None
            and not (isinstance(action.default, str) and action.type))
        if (not exact or argparse.SUPPRESS in (action.dest, action.default)
                or any(option[1:2].isdigit() or option[1:2] == "."
                       for option in action.option_strings)):
            raise TypeError(f"{parser.prog}: cannot read "
                            f"{action.option_strings or action.dest} exactly")
        for option in action.option_strings:
            options[option] = action
        if not action.option_strings:
            positionals.append(action)
        elif action.required:
            required.add(action)
        start.setdefault(action.dest, action.default)
    for dest, value in parser._defaults.items():
        start.setdefault(dest, value)
    return options, positionals, required, start


def _read_exact(parser, tokens):
    """The values ``parser.parse_known_args(tokens)`` would set, or None.

    Reads exact tokens only: an option string with its value, a negative
    number (as argparse reads one, a value or a positional) and
    positionals.  Anything else is argparse's to answer: an abbreviation,
    ``--opt=value``, ``-h``, ``--``, a value that starts with ``-`` and is
    not a number, a value its type refuses, a missing required option or
    the wrong number of positionals."""
    options, positionals, required, start = _exact_reader(parser)
    number = parser._negative_number_matcher.match
    values, given, filled = dict(start), set(), 0
    tokens = iter(tokens)
    for token in tokens:
        if token[:1] == "-" and not number(token):
            action = options.get(token)
            if action is None:
                return None
            given.add(action)
            if type(action) is _FLAG:
                values[action.dest] = action.const
                continue
            token = next(tokens, None)
            if token is None or token[:1] == "-" and not number(token):
                return None
        elif filled < len(positionals):
            action = positionals[filled]
            filled += 1
        else:
            return None
        try:
            values[action.dest] = action.type(token) if action.type else token
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
    if filled < len(positionals) or not required <= given:
        return None
    return values


def parse_arguments(argv):
    """``build_arg_parser().parse_args(argv)``, for ``argv`` None the
    process's arguments.

    A well-formed request is read by the subcommand's exact reader
    (``_read_exact``), which the subcommand's parser builds from its own
    actions, so there is no second table of flags; anything the reader
    does not read, help and every usage error included, goes to
    argparse, which stays the one source of help, usage and error text.
    """
    parser = build_arg_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = parser.subcommands.get(argv[0]) if argv else None
    values = None if sub is None else _read_exact(sub, argv[1:])
    if values is None:
        return parser.parse_args(argv)
    return argparse.Namespace(subcommand=argv[0], **values)


def main(argv=None):
    """Run one request, ``argv`` or the process's arguments, and return
    its exit code (module docstring); the arguments are parsed once
    (``parse_arguments``)."""
    args = parse_arguments(argv)
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
