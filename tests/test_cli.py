import hashlib
import json
import subprocess
import sys
import time
from fractions import Fraction
from math import comb

import pytest

from chowline import cli, poly
from chowline.chern_ring import ChernSeries, Setup, chern_class
from chowline.cli import (
    POWER_BITS_LIMIT,
    POWER_LIMIT,
    Evaluator,
    main,
    parse,
)
from chowline.errors import ExprSyntaxError, ValidationError
from chowline.poly import Poly
from chowline.symfun import elem_sym
from test_requests import _empty


@pytest.fixture()
def setup_file(tmp_path):
    path = tmp_path / "setup.json"
    path.write_text(json.dumps({
        "bundles": [{"name": "E", "rank": 2}, {"name": "F", "rank": 2},
                    {"name": "L", "rank": 1}],
        "relative_dimension": 0,
        "truncation": 6,
    }))
    return str(path)


@pytest.fixture()
def rank1_file(tmp_path):
    path = tmp_path / "rank1.json"
    path.write_text(json.dumps({
        "bundles": [{"name": "E", "rank": 1}],
        "relative_dimension": 0,
        "truncation": 4,
    }))
    return str(path)


# ------------------------------------------------------------------ parsing

def test_parse_sum_of_chern_atoms():
    tree = parse("c(1,E)+c(1,F)")
    assert tree == ("add",
                    ("call", "c", (("num", Fraction(1)), ("name", "E"))),
                    ("call", "c", (("num", Fraction(1)), ("name", "F"))))


def test_parse_product_with_bundle_tensor():
    tree = parse("ch(E*L)*tdstar(E)")
    assert tree[0] == "mul"
    assert tree[1] == ("call", "ch", (("mul", ("name", "E"), ("name", "L")),))
    assert tree[2] == ("call", "tdstar", (("name", "E"),))


def test_negative_degree_rejected():
    setup = Setup([("E", 2)], 0, 6)
    tree = parse("c(-1,E)")
    with pytest.raises(ValidationError):
        Evaluator(setup).class_value(tree)


def test_syntax_error_carries_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse("c(1,")
    assert "column" in str(err.value)


def test_unknown_name_rejected():
    setup = Setup([("E", 2)], 0, 6)
    with pytest.raises(ValidationError):
        Evaluator(setup).class_value(parse("c(1,G)"))


def test_precedence_power_binds_tightest():
    tree = parse("c(1,E)^2*c(2,E)")
    assert tree[0] == "mul"
    assert tree[1][0] == "pow"


# ------------------------------------------------------------ fixed texts

def test_parse_reads_fixed_texts():
    # Each text and the tree it reads: every node kind, the precedence of
    # ^ over unary minus over * over + and -, left association, a negated
    # number folded into the number, and parentheses that only group.
    E, F, L = ("name", "E"), ("name", "F"), ("name", "L")

    def num(p, q=1):
        return ("num", Fraction(p, q))

    def call(name, *args):
        return ("call", name, args)

    cases = {
        "-3/4": num(-3, 4),
        "c(2,E)": call("c", num(2), E),
        "((c(1,E) + 1/2)*td(E*F))": (
            "mul", ("add", call("c", num(1), E), num(1, 2)),
            call("td", ("mul", E, F))),
        "c(1,E) - c(1,F) - 2": (
            "sub", ("sub", call("c", num(1), E), call("c", num(1), F)),
            num(2)),
        "-(ch(dual(E)))": ("neg", call("ch", call("dual", E))),
        "-c(1,E)^2*td(L)": (
            "mul", ("neg", ("pow", call("c", num(1), E), 2)), call("td", L)),
        "(-1/2)^3^2": ("pow", ("pow", num(-1, 2), 3), 2),
        "class(psi, [1,-1/2,0], E + F)": call(
            "class", ("name", "psi"),
            ("series", (Fraction(1), Fraction(-1, 2), Fraction(0))),
            ("add", E, F)),
        "ch(lam(2, E - O))*tdstar(det(E))": (
            "mul", call("ch", call("lam", num(2), ("sub", E, ("name", "O")))),
            call("tdstar", call("det", E))),
    }
    for text, tree in cases.items():
        assert parse(text) == tree, text


# ------------------------------------------------------------------- eval

def test_eval_rank_triviality(rank1_file, capsys):
    code = main(["eval", "c(2,E)", "--setup", rank1_file, "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["result"]["text"] == "0"


def test_eval_ch_of_line(setup_file, capsys):
    code = main(["eval", "ch(L)", "--setup", setup_file, "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["result"]["by_degree"]["0"] == {"1": "1"}
    assert report["result"]["by_degree"]["1"] == {"c1(L)": "1"}
    assert report["result"]["by_degree"]["2"] == {"c1(L)^2": "1/2"}


def test_eval_rationals_are_strings(setup_file, capsys):
    main(["eval", "td(E)", "--setup", setup_file, "--json"])
    out = capsys.readouterr().out
    assert '"1/2"' in out


def test_eval_class_with_series(setup_file, capsys):
    # class(psi, [1,1], V) is the total Chern class: degree-2 part of E is c2.
    code = main(["eval", "class(psi,[1,1],E)", "--setup", setup_file, "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["result"]["by_degree"]["2"] == {"c2(E)": "1"}


def test_eval_rank_arithmetic_and_escape_hatch(setup_file, capsys):
    # rk(lam(2, E)) = C(2, 2) = 1 and rk(tensor(E, L)) = 2.
    code = main(["eval", "rk(lam(2,E)) + rk(tensor(E,L))",
                 "--setup", setup_file, "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["result"]["text"] == "3"


def test_eval_virtual_difference(setup_file, capsys):
    code = main(["eval", "ch(E - L)", "--setup", setup_file, "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["result"]["by_degree"]["0"] == {"1": "1"}


def test_eval_usage_error_exit_code(rank1_file, capsys):
    assert main(["eval", "c(1,", "--setup", rank1_file]) == 2
    assert main(["eval", "c(1,Z)", "--setup", rank1_file]) == 2


# ------------------------------------------------------------------ verify

def test_verify_borel_serre(capsys):
    code = main(["verify", "borel-serre", "--rank", "3",
                 "--truncation", "8", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["ok"] is True
    assert report["report"]["residual"] == "0"


@pytest.mark.parametrize("name", ["borel-serre", "restriction"])
def test_a_truncation_below_the_rank_is_refused(name, capsys, monkeypatch):
    # Given by --truncation or CHOWLINE_TRUNCATION, it is refused with the
    # library's message rather than raised to the rank; without either,
    # the truncation is 8 or the rank, whichever is larger.
    monkeypatch.delenv("CHOWLINE_TRUNCATION", raising=False)
    err = assert_usage_error(
        ["verify", name, "--rank", "4", "--truncation", "2", "--json"], capsys)
    assert err == "error: need truncation >= 4 for a rank-4 bundle\n"
    monkeypatch.setenv("CHOWLINE_TRUNCATION", "3")
    err = assert_usage_error(["verify", name, "--rank", "4", "--json"], capsys)
    assert err == "error: need truncation >= 4 for a rank-4 bundle\n"
    assert main(["verify", name, "--rank", "3", "--json"]) == 0
    monkeypatch.delenv("CHOWLINE_TRUNCATION")
    err = assert_usage_error(["verify", name, "--rank", "17"], capsys)
    assert err == "error: truncation 17 exceeds the limit of 16\n"


def test_verify_whitney(capsys):
    code = main(["verify", "whitney", "--ranks", "2,3", "--seed", "5", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["ok"]


def test_whitney_samples_catch_a_wrong_class_that_exact_accepts(
        monkeypatch, capsys):
    """Both sides of ``exact`` patched to one wrong class, e_k plus the
    k-th power of a root: ``exact`` holds, and only the point route, which
    forms e_k of the coordinates without the polynomial kernel, sees it."""
    def wrong_elem_sym(k, variables, grades, bound):
        root = Poly.var(variables[0], grades, bound)
        return elem_sym(k, variables, grades, bound) + root ** k

    def wrong_whitney_expand(setup, first, second, k):
        return ChernSeries(setup, wrong_elem_sym(
            k, setup.root_vars(first) + setup.root_vars(second),
            setup.grades, setup.truncation))

    monkeypatch.setattr(cli, "elem_sym", wrong_elem_sym)
    monkeypatch.setattr(cli, "whitney_expand", wrong_whitney_expand)
    code = main(["verify", "whitney", "--ranks", "2,2", "--seed", "7",
                 "--json"])
    report = json.loads(capsys.readouterr().out)
    checks = report["report"]["checks"]
    assert [check["degree"] for check in checks] == [0, 1, 2, 3, 4]
    assert all(check["exact"] is True for check in checks)
    assert all(check["samples"] is False for check in checks)
    assert code == 1 and report["ok"] is False


def test_a_failing_whitney_degree_names_a_point_that_fails(
        monkeypatch, capsys):
    """The expansion patched to e_k plus the k-th power of the first root:
    every degree fails, and names a point at which the patched class and
    e_k of the coordinates take the two values it prints."""
    setup = Setup([("A", 2), ("B", 1)], 0, 3)
    roots = setup.root_vars("A") + setup.root_vars("B")

    def wrong_whitney_expand(setup, first, second, k):
        first_root = Poly.var(roots[0], setup.grades, setup.truncation)
        return ChernSeries(setup, elem_sym(k, roots, setup.grades,
                                           setup.truncation) + first_root ** k)

    monkeypatch.setattr(cli, "whitney_expand", wrong_whitney_expand)
    code = main(["verify", "whitney", "--ranks", "2,1", "--truncation", "3",
                 "--seed", "3", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1 and report["ok"] is False
    checks = report["report"]["checks"]
    assert [check["degree"] for check in checks] == [0, 1, 2, 3]
    for check in checks:
        k, found = check["degree"], check["counterexample"]
        assert check["samples"] is False and list(found["point"]) == roots
        point = {v: Fraction(x) for v, x in found["point"].items()}
        wrong = wrong_whitney_expand(setup, "A", "B", k).poly.evaluate(point)
        right = elem_sym(k, roots, setup.grades, 3).evaluate(point)
        assert (found["expansion"], found["elementary"]) == (str(wrong),
                                                            str(right))
        assert wrong != right


# The bytes ``verify whitney`` printed before its samples had a route of
# their own: one report in full, two by SHA-256.
WHITNEY_1_2 = """\
{
  "command": "verify",
  "name": "whitney",
  "seed": 0,
  "report": {
    "identity": "whitney",
    "ranks": [
      1,
      2
    ],
    "checks": [
      {
        "degree": 0,
        "exact": true,
        "samples": true
      },
      {
        "degree": 1,
        "exact": true,
        "samples": true
      },
      {
        "degree": 2,
        "exact": true,
        "samples": true
      },
      {
        "degree": 3,
        "exact": true,
        "samples": true
      }
    ]
  },
  "ok": true
}
"""
WHITNEY_DIGESTS = [
    (["--ranks", "3,3", "--count", "25", "--seed", "7"],
     "b672d142cfc1f43e04153c714fffa70aa0ad9b217f03b3b66a04136575456437"),
    (["--ranks", "3,1", "--count", "4", "--seed", "999"],
     "e5289329a114acaee001af55f4bb2cf04c050651ea215ab004a968f1fda2d0da"),
]


def test_whitney_report_keeps_its_bytes(monkeypatch, capsys):
    monkeypatch.delenv("CHOWLINE_TRUNCATION", raising=False)
    assert main(["verify", "whitney", "--ranks", "1,2", "--count", "2",
                 "--seed", "0", "--json"]) == 0
    assert capsys.readouterr().out == WHITNEY_1_2


@pytest.mark.parametrize("argv, digest", WHITNEY_DIGESTS)
def test_whitney_reports_keep_their_digests(argv, digest, monkeypatch, capsys):
    monkeypatch.delenv("CHOWLINE_TRUNCATION", raising=False)
    assert main(["verify", "whitney", *argv, "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ------------------------------------------------------- the root oracle

def _verdicts(argv, capsys):
    """(exit code, {degree: exact}) of one ``verify`` request."""
    code = main(["verify", *argv, "--json"])
    checks = json.loads(capsys.readouterr().out)["report"]["checks"]
    return code, {check["degree"]: check["exact"] for check in checks}


def test_dual_fails_closed_without_the_sign(monkeypatch, capsys):
    """c_k(E) in place of (-1)^k c_k(E): e_k of the negated roots tells
    them apart in the odd degrees, and only there."""
    monkeypatch.delenv("CHOWLINE_TRUNCATION", raising=False)
    monkeypatch.setattr(cli, "dual_class", chern_class)
    code, exact = _verdicts(["dual", "--rank", "3"], capsys)
    assert code == 1
    assert exact == {0: True, 1: False, 2: True, 3: False}


def test_tensor_line_fails_closed_on_the_variant_coefficient(
        monkeypatch, capsys):
    """The variant coefficient binom(r-k+1, i) of ``test_chern_ring.py``
    in place of binom(r-k+i, i): e_k of the shifted roots exceeds it by
    c_1(L)^2 in degree 2 of a rank-2 bundle, and agrees elsewhere."""
    def variant(setup, name, line, k):
        r, ell = setup.rank(name), chern_class(setup, line, 1)
        out = setup.zero()
        for i in range(k + 1):
            if coeff := comb(r - k + 1, i):
                out = out + chern_class(setup, name, k - i) * ell ** i * coeff
        return out

    monkeypatch.delenv("CHOWLINE_TRUNCATION", raising=False)
    monkeypatch.setattr(cli, "tensor_line", variant)
    code, exact = _verdicts(["tensor-line", "--rank", "2"], capsys)
    assert code == 1
    assert exact == {0: True, 1: True, 2: False, 3: True}


@pytest.fixture()
def short_pair_loop(monkeypatch):
    """``poly._add_products`` stopping one degree short of the bound, with
    no kept table formed before it or kept after it."""
    add_products = poly._add_products

    def short(nums, left, groups, scale, dshift, bound):
        return add_products(nums, left, groups, scale, dshift, bound - 1)

    _empty()
    monkeypatch.setattr(poly, "_add_products", short)
    yield
    monkeypatch.undo()
    _empty()


@pytest.mark.parametrize("rank", [2, 3])
def test_dual_fails_closed_when_the_pair_loop_stops_short(
        rank, short_pair_loop, capsys):
    """At truncation r the top degree is e_r of the negated roots, which
    the short pair loop never forms."""
    code, _ = _verdicts(["dual", "--rank", str(rank),
                         "--truncation", str(rank)], capsys)
    assert code == 1


def _refuse(*args):
    raise AssertionError("a subcommand reached a retired route")


def test_verify_dual_takes_no_substitution(monkeypatch, capsys):
    monkeypatch.setattr(Poly, "substitute", _refuse)
    for rank in range(1, 6):
        code, exact = _verdicts(["dual", "--rank", str(rank),
                                 "--truncation", "8"], capsys)
        assert code == 0 and all(exact.values())


# Root-route multiplicities, as ``eval --json`` printed them while each
# root's value was raised by ``Poly.__pow__``, by SHA-256.
MULTIPLICITY_DIGESTS = [
    ("td(-100000*E*L)",
     "e0d70bbf583e7da4244cec352448b1bc0628e9b491ab363d2f047909fd126be5"),
    ("td(2*E*F - 3*dual(F)*L)",
     "538cf2f95003a3db76662ed6ce162f3af7478c605945f40710eb966ff3376bb2"),
]


@pytest.mark.parametrize("expr, digest", MULTIPLICITY_DIGESTS)
def test_root_route_multiplicities_take_no_polynomial_power(
        expr, digest, tmp_path, monkeypatch, capsys):
    path = tmp_path / "setup.json"
    path.write_text(json.dumps({
        "bundles": [{"name": "E", "rank": 3}, {"name": "F", "rank": 2},
                    {"name": "L", "rank": 1}],
        "truncation": 6,
    }))
    monkeypatch.setattr(Poly, "__pow__", _refuse)
    assert main(["eval", expr, "--setup", str(path), "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_all_identities_pass(capsys):
    for name in ["dual", "tensor-line", "segre", "restriction", "hrr"]:
        code = main(["verify", name, "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["ok"], name


def test_verify_ch_mult_deterministic(capsys):
    argv = ["verify", "ch-mult", "--count", "10", "--seed", "42", "--json"]
    code1 = main(argv)
    out1 = capsys.readouterr().out
    code2 = main(argv)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_unknown_identity(capsys):
    assert main(["verify", "no-such-identity", "--json"]) == 2


def test_verify_c1_pairing(capsys):
    code = main(["verify", "c1-pairing", "--fiber", "1", "--base", "1",
                 "--bundles", "[[2,3],[5,7]]", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["ok"]
    assert report["report"]["degree"] == 29


# ----------------------------------------------------------------- deligne

def test_deligne_subcommand(capsys):
    code = main(["deligne", "--fiber", "1", "--base", "1",
                 "--bundles", "[[1,0],[0,1]]", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["degree"] == 1
    assert report["rank_check"] is True
    assert report["c1_match"] is True


def test_grr_subcommand(capsys):
    code = main(["grr", "--fiber", "1", "--base", "1",
                 "--bundle", "[2,-1]", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["lhs_degree"] == report["rhs_degree"] == -3
    assert report["equal"] is True


# ------------------------------------------------------------------ picard

PICARD_PAYLOAD = {
    "monoid": {"generators": 1, "relations": []},
    "chain": {
        "start": [2], "step": [1],
        "groups": [{"generators": 1, "relations": [[2]]}] * 4,
        "translations": [[[1]], [[1]], [[1]]],
        "symmetry": [[0], [1], [0], [1]],
    },
}


def test_picard_subcommand(tmp_path, capsys):
    path = tmp_path / "picard.json"
    path.write_text(json.dumps(PICARD_PAYLOAD))
    code = main(["picard", str(path), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["pi0"] == "Z"
    assert report["pi1"] == "Z/2"
    assert report["eps_zero"] is False
    assert report["rationalized"]["pi1"] == "0"


def test_a_repeated_chain_group_takes_one_smith_form(tmp_path, capsys,
                                                    monkeypatch):
    # PICARD_PAYLOAD repeats one group at its four samples; a chain of two
    # presentations builds two groups.  Each build is one Smith form, and
    # picardify adds the same calls in both runs.
    from chowline import picard

    calls = []
    smith = picard.smith_normal_form

    def counted(matrix):
        calls.append(matrix)
        return smith(matrix)

    monkeypatch.setattr(picard, "smith_normal_form", counted)
    two = json.loads(json.dumps(PICARD_PAYLOAD))
    two["chain"]["groups"][0] = {"generators": 1, "relations": [[-2]]}
    counts, reports = [], []
    for payload in (PICARD_PAYLOAD, two):
        path = tmp_path / "skeleton.json"
        path.write_text(json.dumps(payload))
        del calls[:]
        cli._load_skeleton(str(path))
        counts.append(len(calls))
        assert main(["picard", str(path), "--json"]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    assert counts == [1, 2]
    assert reports[0] == reports[1]


def test_picard_failure_exits_nonzero(tmp_path, capsys):
    # A chain whose samples change invariants is refused: exit code 2, as
    # for every input the library refuses (1 is for a false verdict).
    payload = {
        "monoid": {"generators": 1, "relations": []},
        "chain": {
            "start": [1], "step": [1],
            "groups": [{"generators": 1, "relations": [[2]]},
                       {"generators": 1, "relations": [[4]]}],
            "translations": [[[2]]],
            "symmetry": [[0], [0]],
        },
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code = main(["picard", str(path), "--json"])
    err = capsys.readouterr().err
    assert code == 2
    assert "invariant factors" in err


# ------------------------------------------------------- usage errors
# Out-of-range numbers and malformed inputs exit 2 with "error:" on
# stderr: no traceback and no silent fallback to a default.

def assert_usage_error(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exit_:  # argparse rejects the value itself
        code = exit_.code
    err = capsys.readouterr().err
    assert code == 2, err
    assert "error:" in err
    assert "Traceback" not in err
    return err


def test_rank_zero_is_refused(capsys):
    assert_usage_error(["verify", "dual", "--rank", "0", "--json"], capsys)


def test_negative_rank_is_refused(capsys):
    assert_usage_error(["verify", "tensor-line", "--rank", "-1", "--json"], capsys)


def test_zero_in_rank_list_is_refused(capsys):
    assert_usage_error(["verify", "whitney", "--ranks", "0,2", "--json"], capsys)


def test_rank_list_of_one_is_refused(capsys):
    assert_usage_error(["verify", "whitney", "--ranks", "3", "--json"], capsys)


def test_truncation_zero_is_refused(capsys):
    assert_usage_error(
        ["verify", "segre", "--rank", "2", "--truncation", "0", "--json"], capsys)


def test_malformed_bundles_json_is_refused(capsys):
    assert_usage_error(["deligne", "--fiber", "1", "--bundles", "[[1,0],[0,1]",
                        "--json"], capsys)


def test_malformed_bundle_json_is_refused(capsys):
    assert_usage_error(["grr", "--fiber", "1", "--bundle", "[2,", "--json"], capsys)


def test_fractional_bundle_degree_is_refused(capsys):
    # A fractional degree is refused, not rounded to an integer.
    assert_usage_error(["grr", "--fiber", "1", "--bundle", "[2.7,-1]", "--json"],
                       capsys)


digit_limit = pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="the interpreter has no limit on integer digits")


@digit_limit
def test_an_integer_past_the_digit_limit_is_refused_on_input(capsys):
    limit = sys.get_int_max_str_digits()
    too_long = "9" * (limit + 1)
    err = assert_usage_error(
        ["deligne", "--bundles", f"[[{too_long},0],[0,1]]"], capsys)
    assert f"({limit} digits)" in err and err.count("\n") == 1


@digit_limit
def test_an_integer_past_the_digit_limit_is_refused_on_output(
        rank1_file, capsys):
    # The product of two integers of limit / 2 + 1 digits has more than
    # the limit, and either factor alone prints.  (A power of 2 would
    # pass POWER_LIMIT under an interpreter limit above about 4,900.)
    limit = sys.get_int_max_str_digits()
    half = "9" * (limit // 2 + 1)
    err = assert_usage_error(
        ["eval", f"{half}*{half}", "--setup", rank1_file], capsys)
    assert f"({limit} digits)" in err and err.count("\n") == 1
    assert main(["eval", half, "--setup", rank1_file]) == 0
    capsys.readouterr()
    # A degree of about 2 * (limit / 2 + 1) digits from inputs of half as
    # many: the report is refused whole, with no line of it printed.
    d = "9" * (limit // 2 + 1)
    code = main(["deligne", "--bundles", f"[[{d},{d}],[{d},{d}]]"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "") and err.startswith("error:")


@pytest.fixture()
def truncation_limit_3(monkeypatch):
    """TRUNCATION_LIMIT lowered to 3 in ``chern_ring``, its one binding,
    so that requests above it stay small if the cap were not enforced."""
    from chowline import chern_ring
    monkeypatch.setattr(chern_ring, "TRUNCATION_LIMIT", 3)


@pytest.mark.parametrize("argv", [
    ["verify", "segre", "--truncation", "4"],
    ["verify", "borel-serre", "--rank", "4"],
    ["verify", "hrr", "--rank", "4"],
    ["deligne", "--fiber", "3", "--bundles", "[[1,0],[0,1],[1,1],[2,0]]"],
    ["grr", "--fiber", "1,2", "--bundle", "[1,1,0]"],
    ["verify", "c1-pairing", "--fiber", "2", "--base", "2",
     "--bundles", "[[1,0],[0,1],[1,1]]"],
])
def test_requests_above_the_truncation_limit_are_refused(
        argv, truncation_limit_3, capsys):
    assert_usage_error(argv + ["--json"], capsys)


def test_truncation_variable_above_the_limit_is_refused(
        truncation_limit_3, capsys, monkeypatch):
    monkeypatch.setenv("CHOWLINE_TRUNCATION", "4")
    assert_usage_error(["verify", "dual", "--json"], capsys)


def test_setup_file_truncation_above_the_limit_is_refused(
        truncation_limit_3, tmp_path, capsys):
    path = tmp_path / "setup.json"
    path.write_text(json.dumps({"bundles": [{"name": "E", "rank": 2}],
                                "truncation": 4}))
    assert_usage_error(["eval", "c(1,E)", "--setup", str(path)], capsys)
    assert main(["eval", "c(1,E)", "--setup", str(path), "--truncation", "3",
                 "--json"]) == 0


@pytest.fixture()
def root_monomial_limit_35(monkeypatch):
    """ROOT_MONOMIAL_LIMIT lowered to comb(3 + 4, 4) = 35: three roots at
    truncation 4, so that requests above it stay small if the cap were not
    enforced."""
    from chowline import chern_ring
    monkeypatch.setattr(chern_ring, "ROOT_MONOMIAL_LIMIT", 35)


def test_setups_above_the_root_monomial_limit_are_refused(
        root_monomial_limit_35, tmp_path, capsys, monkeypatch):
    path = tmp_path / "setup.json"
    path.write_text(json.dumps({"bundles": [{"name": "E", "rank": 4}],
                                "truncation": 4}))
    assert_usage_error(["eval", "c(1,E)", "--setup", str(path)], capsys)
    assert main(["eval", "c(1,E)", "--setup", str(path), "--truncation", "3",
                 "--json"]) == 0
    assert_usage_error(["verify", "restriction", "--rank", "4",
                        "--truncation", "4", "--json"], capsys)
    assert main(["verify", "restriction", "--rank", "3", "--truncation", "4",
                 "--json"]) == 0
    monkeypatch.setenv("CHOWLINE_TRUNCATION", "5")
    assert_usage_error(["verify", "dual", "--rank", "3", "--json"], capsys)


def test_requests_at_the_truncation_limit_run(truncation_limit_3, capsys):
    assert main(["verify", "segre", "--truncation", "3", "--json"]) == 0
    assert main(["deligne", "--fiber", "2", "--bundles",
                 "[[1,0],[0,1],[1,1]]", "--json"]) == 0


def test_non_integer_truncation_variable_is_refused(capsys, monkeypatch):
    monkeypatch.setenv("CHOWLINE_TRUNCATION", "eight")
    assert_usage_error(["verify", "dual", "--json"], capsys)


def test_setup_file_with_negative_rank_is_refused(tmp_path, capsys):
    path = tmp_path / "bad-setup.json"
    path.write_text(json.dumps({"bundles": [{"name": "E", "rank": -1}]}))
    assert_usage_error(["eval", "c(1,E)", "--setup", str(path)], capsys)


@pytest.mark.parametrize("content", [
    b'{"bundles": [{"name": "E", "rank": 2}], "truncation": 4}\xff',
    b'{"bundles": [{"name": "E", "rank": 2.7}]}',
    b'{"bundles": [{"name": "E", "rank": 2}], "truncation": true}',
    b'{"bundles": [{"name": "E", "rank": 2}], "relative_dimension": 2.5}',
    b'{"bundles": [{"name": "O", "rank": 1}, {"name": "E", "rank": 2}]}',
    b'{"bundles": [{"name": ["E"], "rank": 2}]}',
    b'{"bundles": [{"name": 5, "rank": 1}, {"name": "E", "rank": 2}]}',
    b'{"bundles": [{"name": "E", "rank": 2}, {"name": "E", "rank": 1}]}',
    b'{"bundles": [{"name": "E", "rank": 0}]}',
    b'{"bundles": [{"name": "E", "rank": 2}], "relative_dimension": 2, '
    b'"truncation": 2}',
    b'{"bundles": [{"name": "E", "rank": true}]}',
    b'{"bundles": [{"name": "a b", "rank": 1}, {"name": "E", "rank": 2}]}',
    b'{"bundles": [{"name": "5", "rank": 1}, {"name": "E", "rank": 2}]}',
    b'{"bundles": [{"name": "E-1", "rank": 1}, {"name": "E", "rank": 2}]}',
    b'{"bundles": [{"name": "", "rank": 1}, {"name": "E", "rank": 2}]}',
    b'{"bundles": [{"name": "\\u00c9", "rank": 1}, {"name": "E", "rank": 2}]}',
    b'{"bundles": [{"name": "E", "rank": 2, "rnak": 5}], "trunction": 3}',
    b'{"bundle": [{"name": "E", "rank": 2}]}',
    b'{"bundles": [{"name": "E", "rank": 2, "rnak": 5}]}',
], ids=["not-utf8", "fractional-rank", "boolean-truncation",
        "fractional-relative-dimension", "bundle-named-O", "list-name",
        "numeric-name", "duplicate-names", "rank-0",
        "truncation-at-relative-dimension", "boolean-rank", "name-with-space",
        "digit-name", "name-with-minus", "empty-name", "non-ascii-name",
        "misspelt-keys", "misspelt-bundles", "misspelt-bundle-key"])
def test_bad_setup_files_are_refused(content, tmp_path, capsys):
    # Not UTF-8, a non-integer read strictly (2.7 was read as 2, true as 1),
    # a bundle named like the trivial line or by anything the expression
    # grammar cannot read as a name (no expression names the bundle 5 or
    # "a b"), declarations ``Setup`` refuses, and keys outside the
    # documented set ("trunction" ran at truncation 8, and "bundle"
    # declared no bundle at all).
    path = tmp_path / "setup.json"
    path.write_bytes(content)
    assert_usage_error(["eval", "c(2,E)", "--setup", str(path)], capsys)


@pytest.mark.parametrize("setup, key", [
    ({"bundles": [{"name": "E", "rank": 2}], "trunction": 3}, "trunction"),
    ({"bundle": [{"name": "E", "rank": 2}]}, "bundle"),
    ({"bundles": [{"name": "E", "rank": 2, "rnak": 5}]}, "rnak"),
])
def test_an_unknown_setup_key_is_named(setup, key, tmp_path, capsys):
    path = tmp_path / "setup.json"
    path.write_text(json.dumps(setup))
    err = assert_usage_error(["eval", "1", "--setup", str(path)], capsys)
    assert f"unknown key {key!r}" in err


def test_setup_that_is_a_directory_is_refused(tmp_path, capsys):
    assert_usage_error(["eval", "c(1,E)", "--setup", str(tmp_path)], capsys)


@pytest.mark.parametrize("expression", [
    "ch(lam(2, E - O))",        # exterior power of a virtual bundle
    "ch(lam(2, 1000000*E))",    # above LAMBDA_RANK_LIMIT
    "class(psi, [2,1], E)",     # multiplicative series starting at 2
    "ch(E*E*E*E*E*E*E*E*E)",    # 512 roots, above TENSOR_ROOT_LIMIT
])
def test_expressions_the_library_refuses_are_usage_errors(
        expression, setup_file, capsys):
    assert_usage_error(["eval", expression, "--setup", setup_file], capsys)


@pytest.mark.parametrize("expression", [
    "(2+c(1,E))^40000000",
    "(2+c(1,E))^1000000000000",
    f"(1+c(1,E))^{POWER_LIMIT + 1}",
    "((2+c(1,E))^1000)^1000",         # nested powers multiply
    "((2+c(1,E))^200*c(1,E))^100",    # a power of degree 201 * 100
])
def test_powers_past_the_limit_are_refused_at_once(
        expression, setup_file, capsys):
    # (2+c(1,E))^40000000 ran 13 s before the printer refused its
    # integers, and 10^12 never returned.
    start = time.perf_counter()
    err = assert_usage_error(["eval", expression, "--setup", setup_file],
                             capsys)
    assert time.perf_counter() - start < 1
    assert f"exceeds the limit of {POWER_LIMIT}" in err


def test_a_power_at_the_limit_is_evaluated(setup_file, capsys):
    # (1 + x)^n = sum_k C(n, k) x^k: the exponent reaches only binomials.
    assert main(["eval", f"(1+c(1,L))^{POWER_LIMIT}", "--setup", setup_file,
                 "--json"]) == 0
    by_degree = json.loads(capsys.readouterr().out)["result"]["by_degree"]
    assert by_degree["1"] == {"c1(L)": str(POWER_LIMIT)}
    assert by_degree["6"] == {"c1(L)^6": str(comb(POWER_LIMIT, 6))}


def test_a_power_of_large_numbers_is_refused_at_once(setup_file, capsys):
    # Of degree 4,000, within POWER_LIMIT, but its constant term c^n has
    # about 16M digits: it ran past 30 s before the printer refused it.
    expression = f"({'9' * 4000}+c(1,E))^4000"
    start = time.perf_counter()
    err = assert_usage_error(["eval", expression, "--setup", setup_file],
                             capsys)
    assert time.perf_counter() - start < 1
    assert f"exceeds the limit of {POWER_BITS_LIMIT} bits" in err


@pytest.mark.parametrize("key, value", [
    ("symmetry", [[0], [1, 0], [0], [1]]),
    ("translations", [[[1]], [[1, 0]], [[1]]]),
    ("translations", [[[1]], [[1], [0]], [[1]]]),
])
def test_skeletons_of_the_wrong_shape_are_refused(key, value, tmp_path, capsys):
    payload = json.loads(json.dumps(PICARD_PAYLOAD))
    payload["chain"][key] = value
    path = tmp_path / "skeleton.json"
    path.write_text(json.dumps(payload))
    assert_usage_error(["picard", str(path), "--json"], capsys)


@pytest.mark.parametrize("edit", [
    # A float group was read as Z/2 and exited 0.
    lambda chain, monoid: chain.update(
        groups=[{"generators": 1.9, "relations": [[2.5]]}] * 4),
    # A string in a translation ended in a TypeError traceback.
    lambda chain, monoid: chain.update(translations=[[["a"]]] * 3),
    lambda chain, monoid: chain.update(symmetry=[[False], [True], [0], [1]]),
    lambda chain, monoid: chain.update(start=["2"]),
    lambda chain, monoid: chain.update(step=[1.0]),
    lambda chain, monoid: monoid.update(generators=True),
    lambda chain, monoid: monoid.update(relations=[[[1], [0.5]]]),
], ids=["float-group", "string-translation", "bool-symmetry", "string-start",
        "float-step", "bool-monoid", "float-monoid-relation"])
def test_skeleton_numbers_must_be_json_integers(edit, tmp_path, capsys):
    payload = json.loads(json.dumps(PICARD_PAYLOAD))
    edit(payload["chain"], payload["monoid"])
    path = tmp_path / "skeleton.json"
    path.write_text(json.dumps(payload))
    assert_usage_error(["picard", str(path), "--json"], capsys)


def test_picard_file_missing_a_key_is_refused(tmp_path, capsys):
    path = tmp_path / "no-chain.json"
    path.write_text(json.dumps({"monoid": {"generators": 1, "relations": []}}))
    assert_usage_error(["picard", str(path), "--json"], capsys)


@pytest.mark.parametrize("name", ["whitney", "dual", "tensor-line", "segre"])
def test_negative_chern_degree_is_refused(name, capsys):
    assert_usage_error(["verify", name, "--degree", "-1", "--json"], capsys)


def test_hrr_takes_a_negative_twist(capsys):
    code = main(["verify", "hrr", "--rank", "2", "--degree", "-4", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["report"]["chi"] == "3"


def test_count_below_one_is_refused(capsys):
    assert_usage_error(["verify", "ch-mult", "--count", "-3", "--json"], capsys)


def test_count_at_the_limit_is_drawn_and_above_it_refused(monkeypatch, capsys):
    limit = cli.COUNT_LIMIT
    assert main(["verify", "whitney", "--ranks", "1,1", "--degree", "1",
                 "--count", str(limit), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True

    def no_draws(seed):
        raise AssertionError("a refused count drew from a generator")

    monkeypatch.setattr(cli.random, "Random", no_draws)
    for name in ("whitney", "ch-mult"):
        err = assert_usage_error(
            ["verify", name, "--count", str(limit + 1), "--json"], capsys)
        assert err == (f"error: --count {limit + 1} exceeds the limit of "
                       f"{limit}\n")


@pytest.mark.parametrize("name", ["whitney", "ch-mult"])
def test_a_lowered_count_limit_admits_its_value_and_refuses_the_next(
        name, monkeypatch, capsys):
    monkeypatch.setattr(cli, "COUNT_LIMIT", 3)
    assert main(["verify", name, "--count", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    assert_usage_error(["verify", name, "--count", "4", "--json"], capsys)


@pytest.mark.parametrize("argv", [
    ["dual", "--rank", "3"],
    ["hrr", "--rank", "2", "--degree", "3"],
    ["c1-pairing", "--fiber", "1", "--bundles", "[[1,0],[0,1]]"],
])
def test_identities_that_draw_nothing_build_no_generator(
        argv, monkeypatch, capsys):
    def no_generator(seed):
        raise AssertionError(f"verify {argv[0]} built a generator")

    monkeypatch.setattr(cli.random, "Random", no_generator)
    assert main(["verify", *argv, "--seed", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


@pytest.mark.parametrize("expression, column", [
    ("c(\u00b2,E)", 3),   # superscript two
    ("c(\u0661,E)", 3),   # Arabic-Indic digit one
    ("c(1,E)+1/0", 8),
    ("c(1,\u00a0E)", 5),  # no-break space
    ("1\u3000+2", 2),     # ideographic space
])
def test_non_ascii_digits_and_zero_denominators_are_syntax_errors(
        expression, column, rank1_file, capsys):
    with pytest.raises(ExprSyntaxError) as err:
        parse(expression)
    assert (err.value.line, err.value.column) == (1, column)
    assert_usage_error(["eval", expression, "--setup", rank1_file], capsys)


@pytest.mark.parametrize("argv", [
    ["deligne", "--bundles", "[[1,0],[0,1]]"],
    ["grr", "--bundle", "[2,-1]"],
    ["picard", "skeleton.json"],
])
def test_truncation_is_refused_where_it_is_unused(argv, capsys):
    assert_usage_error(argv + ["--truncation", "3", "--json"], capsys)


@pytest.mark.parametrize("argv", [
    ["deligne", "--base", "0", "--bundles", "[[1,0],[0,1]]"],
    ["deligne", "--fiber", "0", "--bundles", "[[1,0],[0,1]]"],
    ["verify", "c1-pairing", "--fiber", "0", "--bundles", "[[1,0],[0,1]]"],
    ["verify", "c1-pairing", "--base", "-1", "--bundles", "[[1,0],[0,1]]"],
    ["grr", "--base", "0", "--bundle", "[2,-1]"],
    # A pairing over a fiber of dimension 1 takes two bundles, as a list.
    ["deligne", "--fiber", "1", "--bundles", "[[1,0]]"],
    ["verify", "c1-pairing", "--fiber", "1", "--bundles", "[[1,0]]"],
    ["deligne", "--bundles", "5"],
])
def test_unsupported_families_are_usage_errors(argv, capsys):
    assert_usage_error(argv + ["--json"], capsys)


def test_segre_degree_zero_is_refused(capsys):
    # Degree 0 would check no degree of the recurrence and report success.
    assert_usage_error(["verify", "segre", "--degree", "0", "--json"], capsys)


@pytest.mark.parametrize("argv", [
    ["verify", "tensor-line", "--degree", "20", "--rank", "2", "--truncation", "3"],
    ["verify", "segre", "--degree", "3", "--truncation", "2"],
    ["verify", "whitney", "--degree", "4", "--truncation", "3"],
    ["verify", "dual", "--degree", "3", "--truncation", "2"],
])
def test_degree_above_the_truncation_is_refused(argv, capsys):
    # Above the truncation both sides are 0, so nothing would be checked.
    assert_usage_error(argv + ["--json"], capsys)


@pytest.mark.parametrize("argv", [
    ["verify", "whitney", "--ranks", "3,3", "--count", "1"],
    ["verify", "dual", "--rank", "4"],
    ["verify", "tensor-line", "--rank", "3"],
])
def test_default_degrees_stop_at_the_truncation(argv, capsys):
    # Without --degree each identity checks every Chern degree of its
    # bundles, but only up to the truncation: above it both sides are 0.
    assert main(argv + ["--truncation", "2", "--json"]) == 0
    checks = json.loads(capsys.readouterr().out)["report"]["checks"]
    assert [check["degree"] for check in checks] == [0, 1, 2]


def test_degree_at_the_truncation_is_checked(capsys):
    assert main(["verify", "dual", "--degree", "3", "--truncation", "3",
                 "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["checks"] == [
        {"degree": 3, "exact": True}]


@pytest.mark.parametrize("argv", [
    ["verify", "c1-pairing", "--fiber", "", "--bundles", "[[1,0],[0,1]]"],
    ["verify", "c1-pairing", "--fiber", "1,,1", "--bundles", "[[1,0,0],[0,1,0]]"],
    ["deligne", "--fiber", "1,", "--bundles", "[[1,0],[0,1]]"],
    ["verify", "whitney", "--ranks", ","],
])
def test_empty_list_entries_are_refused(argv, capsys):
    assert_usage_error(argv + ["--json"], capsys)


@pytest.mark.parametrize("argv", [
    ["verify", "whitney", "--rank", "5"],
    ["verify", "hrr", "--fiber", "3"],
    ["verify", "hrr", "--truncation", "3"],
    ["verify", "c1-pairing", "--rank", "7", "--bundles", "[[1,0],[0,1]]"],
    ["verify", "borel-serre", "--degree", "2"],
    ["verify", "segre", "--count", "3"],
    # Given with the value a verifier would fill in: still not read.
    ["verify", "hrr", "--base", "1"],
    ["verify", "dual", "--count", "25"],
])
def test_flags_the_identity_does_not_read_are_refused(argv, capsys):
    assert_usage_error(argv + ["--json"], capsys)


def test_count_and_base_fill_in_when_missing(capsys):
    assert main(["verify", "ch-mult", "--truncation", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["count"] == 25
    assert main(["verify", "c1-pairing", "--bundles", "[[1,0],[0,1]]",
                 "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_consecutive_calls_do_not_share_arguments(capsys):
    assert main(["verify", "segre", "--rank", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["rank"] == 2
    assert main(["verify", "segre", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["rank"] == 3
    assert_usage_error(["verify", "segre", "--rank", "0", "--json"], capsys)
    assert main(["verify", "segre", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["rank"] == 3


# ------------------------------------------------------------- entry point

def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "chowline.cli", "verify", "dual", "--json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True
