"""Requests on kept rings: the command line keeps one ``Setup`` or
``Tower`` per declaration (``dcoh.kept``) and the Chern-basis tables per
block size, and parses each request's arguments once.  None of that may
show in a request's output, exit code or refusals."""

import argparse
import ast
import contextlib
import io
import json
from pathlib import Path

import pytest

from chowline import chern_ring, cli, dcoh, pushforward, symfun

PICARD_SKELETON = {
    "monoid": {"generators": 2, "relations": []},
    "chain": {"start": [1, 2], "step": [2, 1],
              "groups": [{"generators": 2, "relations": [[10, 14]]},
                         {"generators": 2, "relations": [[10, 14]]}],
              "translations": [[[1, 0], [0, 1]]],
              "symmetry": [[55, 77], [65, 91]]}}


def _empty():
    """Drop every kept ring and every kept table of e-products."""
    with dcoh._lock:
        for key in list(dcoh._rings):
            dcoh._drop(key)
    symfun._e_products.cache_clear()


def _request(argv):
    """(exit code, stdout, stderr) of one request, a refusal by argparse
    included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exit_:
            code = exit_.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def files(tmp_path):
    """Setup files of two declarations and a skeleton, by name."""
    paths = {}
    for name, content in [
            ("setup", {"bundles": [{"name": "E", "rank": 2},
                                   {"name": "F", "rank": 3},
                                   {"name": "L", "rank": 1}],
                       "truncation": 6}),
            ("other", {"bundles": [{"name": "E", "rank": 3},
                                   {"name": "L", "rank": 1}],
                       "truncation": 5}),
            ("skeleton", PICARD_SKELETON)]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(content))
        paths[name] = str(path)
    return paths


def _requests(files):
    """Requests of every subcommand and every identity, some refused."""
    setup, other = files["setup"], files["other"]
    return [
        ["eval", "td(E)*ch(F) - tdstar(dual(F)*L)", "--setup", setup, "--json"],
        ["eval", "s(4,F) + c(2,E)*c(1,L)", "--setup", setup],
        ["eval", "class(psi, [1, 1/2, 1/3], E + F)", "--setup", setup,
         "--truncation", "4", "--json"],
        ["eval", "s(3,E)", "--setup", setup, "--fulton"],
        ["eval", "c(1,", "--setup", setup],
        ["eval", "c(1,G)", "--setup", setup],
        ["verify", "whitney", "--ranks", "2,3", "--count", "3", "--seed", "4",
         "--json"],
        ["verify", "dual", "--rank", "3", "--truncation", "5"],
        ["verify", "tensor-line", "--rank", "2", "--json"],
        ["verify", "segre", "--rank", "2", "--truncation", "6", "--json"],
        ["verify", "segre", "--degree", "0"],
        ["verify", "borel-serre", "--rank", "3", "--truncation", "5"],
        ["verify", "restriction", "--rank", "2", "--json"],
        ["verify", "ch-mult", "--count", "2", "--seed", "9", "--truncation", "4"],
        ["verify", "hrr", "--rank", "3", "--degree", "-2", "--json"],
        ["verify", "hrr", "--rank", "2"],
        ["verify", "c1-pairing", "--fiber", "1,1", "--base", "2",
         "--bundles", "[[1,2,-1],[0,1,3],[2,-1,1]]", "--json"],
        ["deligne", "--fiber", "2", "--bundles", "[[1,2],[2,-1],[3,1]]"],
        ["deligne", "--fiber", "1", "--bundles", "[[1,0]]"],
        ["grr", "--fiber", "1,1", "--bundle", "[1,2,3]", "--json"],
        ["grr", "--fiber", "2", "--base", "2", "--bundle", "[2,3]"],
        ["picard", files["skeleton"], "--json"],
        ["verify", "dual", "--rank", "0"],
    ]


def _others(files):
    """Requests of other declarations, run between the ones compared."""
    return [
        ["eval", "td(E)*ch(L)", "--setup", files["other"], "--json"],
        ["verify", "segre", "--rank", "4", "--truncation", "7", "--json"],
        ["verify", "hrr", "--rank", "4", "--degree", "1", "--json"],
        ["deligne", "--fiber", "1,2", "--bundles",
         "[[1,0,1],[0,1,1],[1,1,0],[2,1,-1]]", "--json"],
        ["grr", "--fiber", "1", "--bundle", "[4,-1]", "--json"],
    ]


def test_warm_requests_answer_as_cold_ones(files):
    requests, others = _requests(files), _others(files)
    cold = []
    for argv in requests:
        _empty()
        cold.append(_request(argv))
    assert {code for code, _, _ in cold} == {0, 2}
    _empty()
    for round_ in range(2):
        for i, argv in enumerate(requests):
            _request(others[(i + round_) % len(others)])
            assert _request(argv) == cold[i], argv


@pytest.mark.parametrize("argv, warmer, module, name, values", [
    (["eval", "td(E)", "--setup", "{setup}"], None, chern_ring,
     "TRUNCATION_LIMIT", [6, 5]),
    (["verify", "segre", "--rank", "2", "--truncation", "4"], None,
     chern_ring, "TRUNCATION_LIMIT", [4, 3]),
    (["verify", "hrr", "--rank", "3"], None, pushforward, "TRUNCATION_LIMIT",
     [3, 2]),
    (["eval", "ch(F)", "--setup", "{setup}"], None, chern_ring,
     "ROOT_MONOMIAL_LIMIT", [924, 923]),
    (["verify", "restriction", "--rank", "4", "--truncation", "4"], None,
     chern_ring, "ROOT_MONOMIAL_LIMIT", [70, 69]),
    (["verify", "hrr", "--rank", "2", "--degree", "3"],
     ["verify", "hrr", "--rank", "2", "--degree", "-1"], pushforward,
     "TOWER_TABLE_LIMIT", range(4, -1, -1)),
    (["grr", "--fiber", "1,1", "--bundle", "[1,2,3]"],
     ["deligne", "--fiber", "1,1", "--bundles", "[[1,0,0],[1,0,0],[1,0,0]]"],
     pushforward, "TOWER_TABLE_LIMIT", range(21, -1, -1)),
    (["deligne", "--fiber", "2", "--bundles", "[[1,2],[2,-1],[3,1]]"],
     ["deligne", "--fiber", "2", "--bundles", "[[0,1],[0,1],[0,1]]"],
     pushforward, "TOWER_TABLE_LIMIT", range(9, -1, -1)),
])
def test_a_warmed_declaration_refuses_what_a_fresh_one_refuses(
        argv, warmer, module, name, values, files, monkeypatch):
    # For each lowered limit, the request on an empty registry and on one
    # that served it, or a request of the same declaration with smaller
    # tables (``warmer``), before the limit was lowered.
    argv = [arg.format(**files) for arg in argv]
    outcomes = []
    for value in values:
        _empty()
        with monkeypatch.context() as patch:
            patch.setattr(module, name, value)
            cold = _request(argv)
        _empty()
        assert _request(warmer or argv)[0] == 0
        with monkeypatch.context() as patch:
            patch.setattr(module, name, value)
            assert _request(argv) == cold, (name, value)
        outcomes.append(cold[0])
    # E, F and L, six roots at truncation 6, span comb(12, 6) = 924
    # monomials, rank 4 at truncation 4 comb(8, 4) = 70, and each limit,
    # lowered far enough, refuses the request.
    assert outcomes[0] == 0 and outcomes[-1] == 2, outcomes


def test_the_setup_limits_are_checked_on_every_fetch(files, monkeypatch):
    # ``eval "td(E)"`` twice around another declaration, then the warmed
    # declaration under a lowered truncation limit.
    argv = ["eval", "td(E)", "--setup", files["setup"], "--json"]
    first = _request(argv)
    _request(_others(files)[0])
    assert _request(argv) == first and first[0] == 0
    monkeypatch.setattr(chern_ring, "TRUNCATION_LIMIT", 5)
    code, out, err = _request(argv)
    assert (code, out) == (2, "")
    assert err == "error: truncation 6 exceeds the limit of 5\n"


# ------------------------------------------------------ argument parsing

def _cli_test_argvs():
    """Every argument list written out in ``test_cli.py`` that starts with
    a subcommand's name, a file name in place of any expression."""
    tree = ast.parse((Path(__file__).parent / "test_cli.py").read_text())
    names = set(cli.build_arg_parser().subcommands)
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.List) and node.elts
                and isinstance(node.elts[0], ast.Constant)
                and node.elts[0].value in names):
            found.append([item.value if isinstance(item, ast.Constant)
                          and isinstance(item.value, str) else "setup.json"
                          for item in node.elts])
    return found


CLI_TEST_ARGVS = _cli_test_argvs()


def _parse_outcome(parse, argv):
    """(namespace or None, exit code, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    args, code = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parse(argv)
        except SystemExit as exit_:
            code = exit_.code
    return args, code, out.getvalue(), err.getvalue()


def test_the_corpus_holds_the_usage_errors_of_the_cli_tests():
    assert len(CLI_TEST_ARGVS) > 60
    assert ["verify", "whitney", "--ranks", "3", "--json"] in CLI_TEST_ARGVS
    assert ["grr", "--fiber", "1", "--bundle", "[2.7,-1]", "--json"] in CLI_TEST_ARGVS


@pytest.mark.parametrize("argv", CLI_TEST_ARGVS + [
    argv + ["--json"] for argv in CLI_TEST_ARGVS] + [
    [name, "-h"] for name in ["eval", "verify", "deligne", "grr", "picard"]] + [
    [], ["-h"], ["--help"], ["nope"], ["nope", "--json"], ["--json", "eval"],
    ["eval", "td(E)", "--setup", "s.json", "--trunc", "3"],
    ["eval", "td(E)", "--setup=s.json", "--truncation=3", "--fulton"],
    ["verify", "dual", "--rank=3", "--json"],
    ["verify", "dual", "--ran", "3"],
    ["verify", "whitney", "--r", "3"],
    ["verify", "dual", "--rank", "3", "extra", "--more"],
    ["deligne", "--bundles", "[[1,0],[0,1]]", "--", "--json"],
    ["grr", "--bundle", "[2,-1]", "-h", "--json"],
    ["picard"],
    ["verify"],
    ["eval", "--setup"],
])
def test_one_parse_per_request_matches_the_two_level_parse(argv):
    direct = _parse_outcome(cli.parse_arguments, argv)
    nested = _parse_outcome(cli.build_arg_parser().parse_args, argv)
    assert direct == nested
    args, code, _, _ = direct
    assert (code is None) == isinstance(args, argparse.Namespace)
