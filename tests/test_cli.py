import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from chowline.chern_ring import Setup
from chowline.cli import Evaluator, main, parse, print_expr
from chowline.errors import ExprSyntaxError, ValidationError


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


# -------------------------------------------------------------- round trips

def random_class_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        choice = rng.random()
        if choice < 0.35:
            return ("num", Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        if choice < 0.7:
            return ("call", "c", (("num", Fraction(rng.randint(0, 3))),
                                  ("name", rng.choice(["E", "F"]))))
        return ("call", rng.choice(["ch", "td", "tdstar"]),
                (random_bundle_tree(rng, 1),))
    op = rng.choice(["add", "sub", "mul", "pow", "neg"])
    if op == "pow":
        return ("pow", random_class_tree(rng, depth - 1), rng.randint(0, 3))
    if op == "neg":
        inner = random_class_tree(rng, depth - 1)
        if inner[0] == "num":
            return ("num", -inner[1])
        return ("neg", inner)
    return (op, random_class_tree(rng, depth - 1),
            random_class_tree(rng, depth - 1))


def random_bundle_tree(rng, depth):
    if depth == 0 or rng.random() < 0.4:
        return ("name", rng.choice(["E", "F", "L", "O"]))
    op = rng.choice(["add", "mul", "dual", "det"])
    if op in ("dual", "det"):
        return ("call", op, (random_bundle_tree(rng, depth - 1),))
    return (op, random_bundle_tree(rng, depth - 1),
            random_bundle_tree(rng, depth - 1))


def test_print_parse_round_trip():
    rng = random.Random(31)
    for _ in range(200):
        tree = random_class_tree(rng, 5)
        assert parse(print_expr(tree)) == tree


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


def test_verify_whitney(capsys):
    code = main(["verify", "whitney", "--ranks", "2,3", "--seed", "5", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["ok"]


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
    # 2^e has more than e * 0.301 decimal digits.
    limit = sys.get_int_max_str_digits()
    exponent = int(limit / 0.301) + 1
    err = assert_usage_error(
        ["eval", f"2^{exponent}", "--setup", rank1_file], capsys)
    assert f"({limit} digits)" in err and err.count("\n") == 1
    assert main(["eval", f"2^{exponent // 2}", "--setup", rank1_file]) == 0
    capsys.readouterr()
    # A degree of about 2 * (limit / 2 + 1) digits from inputs of half as
    # many: the report is refused whole, with no line of it printed.
    d = "9" * (limit // 2 + 1)
    code = main(["deligne", "--bundles", f"[[{d},{d}],[{d},{d}]]"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "") and err.startswith("error:")


@pytest.fixture()
def truncation_limit_3(monkeypatch):
    """TRUNCATION_LIMIT lowered to 3 wherever it is read, so that requests
    above it stay small if the cap were not enforced."""
    from chowline import chern_ring, dcoh, pushforward
    for module in (chern_ring, pushforward, dcoh):
        monkeypatch.setattr(module, "TRUNCATION_LIMIT", 3)


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
], ids=["not-utf8", "fractional-rank", "boolean-truncation",
        "fractional-relative-dimension", "bundle-named-O"])
def test_bad_setup_files_are_refused(content, tmp_path, capsys):
    # Not UTF-8, a non-integer read strictly (2.7 was read as 2, true as 1)
    # and a bundle named like the trivial line.
    path = tmp_path / "setup.json"
    path.write_bytes(content)
    assert_usage_error(["eval", "c(2,E)", "--setup", str(path)], capsys)


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
