"""Requests on kept rings: the command line keeps one ``Setup`` or
``Tower`` per declaration (``dcoh.kept``) and the Chern-basis tables per
block size, and parses each request's arguments once.  None of that may
show in a request's output, exit code or refusals."""

import argparse
import ast
import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowline import chern_ring, cli, dcoh, pushforward, symfun

PICARD_SKELETON = {
    "monoid": {"generators": 2, "relations": []},
    "chain": {"start": [1, 2], "step": [2, 1],
              "groups": [{"generators": 2, "relations": [[10, 14]]},
                         {"generators": 2, "relations": [[10, 14]]}],
              "translations": [[[1, 0], [0, 1]]],
              "symmetry": [[55, 77], [65, 91]]}}


def _empty():
    """Drop every kept ring, every kept table of e-products and every
    kept row of the monomial-to-elementary transition matrix."""
    with dcoh._lock:
        for key in list(dcoh._rings):
            dcoh._drop(key)
    symfun._e_products.cache_clear()
    symfun._m_rows.cache_clear()


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


def test_a_warm_eval_builds_no_setup(files, monkeypatch):
    # A request on a kept declaration reads only the shape of its setup
    # file: it builds no ``Setup``.
    argv = ["eval", "td(E)*ch(F) + s(2,L)", "--setup", files["setup"],
            "--json"]
    _empty()
    first = _request(argv)
    built = []
    init = chern_ring.Setup.__init__

    def counted_init(self, *declared):
        built.append(declared)
        init(self, *declared)

    monkeypatch.setattr(chern_ring.Setup, "__init__", counted_init)
    assert [_request(argv) for _ in range(3)] == [first] * 3
    assert first[0] == 0 and built == []


@pytest.mark.parametrize("argv, warmer, module, name, values", [
    (["eval", "td(E)", "--setup", "{setup}"], None, chern_ring,
     "TRUNCATION_LIMIT", [6, 5]),
    (["verify", "segre", "--rank", "2", "--truncation", "4"], None,
     chern_ring, "TRUNCATION_LIMIT", [4, 3]),
    (["verify", "hrr", "--rank", "3"], None, chern_ring, "TRUNCATION_LIMIT",
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


SUBPARSERS = cli.build_arg_parser().subcommands
OPTIONS = sorted({option for sub in SUBPARSERS.values()
                  for action in sub._actions for option in action.option_strings})
VALUES = st.one_of(
    st.sampled_from(["-h", "--", "-1", "-.5", "-x", "-x y", "", "-", "dual",
                     "hrr", "setup.json"]),
    st.integers(-20, 20).map(str),
    st.lists(st.integers(-3, 5), min_size=1, max_size=3).map(
        lambda xs: ",".join(map(str, xs))),
    st.lists(st.lists(st.integers(-3, 3), max_size=3), max_size=3).map(json.dumps),
    st.text(max_size=6),
)
# Any option's prefix (an abbreviation, or the option itself), --opt=value,
# or one value alone.
NOISE = st.one_of(
    st.sampled_from(OPTIONS).flatmap(
        lambda option: st.integers(2, len(option)).map(lambda n: (option[:n],))),
    st.tuples(st.sampled_from(OPTIONS), VALUES).map(lambda ov: ("=".join(ov),)),
    st.tuples(VALUES),
)


def _chunk(action):
    """The tokens of one of a subcommand's actions: a flag, an option and
    a value (a positive integer half the time), or a positional."""
    value = st.integers(1, 5).map(str) | VALUES
    if not action.option_strings:
        return st.tuples(value)
    if action.nargs == 0:
        return st.tuples(st.sampled_from(action.option_strings))
    return st.tuples(st.sampled_from(action.option_strings), value)


def _argvs(head):
    """``head``, then chunks of its required actions and some others,
    shuffled with up to two chunks of noise."""
    actions = [action for action in getattr(SUBPARSERS.get(head), "_actions", [])
               if not isinstance(action, argparse._HelpAction)]
    required = [action for action in actions if action.required]
    others = [action for action in actions if not action.required]
    own = st.lists(st.sampled_from(others), unique=True).flatmap(
        lambda chosen: st.tuples(*map(_chunk, required + chosen))
    ) if actions else st.just(())
    return st.tuples(own, st.lists(NOISE, max_size=2)).flatmap(
        lambda both: st.permutations(list(both[0]) + both[1])).map(
        lambda chunks: [head] + [token for c in chunks for token in c])


ARGVS = st.sampled_from(sorted(SUBPARSERS) + ["nope", "-h", "--json", "-1"]).flatmap(_argvs)


@settings(max_examples=400, deadline=None)
@given(ARGVS)
def test_the_exact_reader_parses_as_argparse_does(argv):
    assert (_parse_outcome(cli.parse_arguments, argv)
            == _parse_outcome(cli.build_arg_parser().parse_args, argv))


# One argument list of each request shape the cli-requests workload sends
# (perfbench/workloads.py), with the flags of its catalogue entries.
VERIFY_FLAGS = {
    "whitney": ["--ranks", "1,2", "--count", "2", "--seed", "709"],
    "dual": ["--rank", "1", "--truncation", "6"],
    "tensor-line": ["--rank", "2", "--truncation", "6"],
    "segre": ["--rank", "3", "--truncation", "6"],
    "borel-serre": ["--rank", "1", "--truncation", "6"],
    "restriction": ["--rank", "2", "--truncation", "6"],
    "ch-mult": ["--count", "2", "--seed", "410", "--truncation", "6"],
    "hrr": ["--rank", "2", "--degree", "-3"],
    "c1-pairing": ["--fiber", "1,1", "--base", "2",
                   "--bundles", "[[1, 2, -1], [0, 1, 3], [2, -1, 1]]"],
}
SERVED_ARGVS = [
    ["eval", "ch(E*L) - td(F)", "--setup", "setup.json", "--json"],
    *[["verify", name, *flags, "--json"] for name, flags in VERIFY_FLAGS.items()],
    ["deligne", "--fiber", "1", "--base", "1", "--bundles", "[[-2, 0], [0, 3]]",
     "--json"],
    ["grr", "--fiber", "1,2", "--base", "1", "--bundle", "[0, 1, -1]", "--json"],
    ["picard", "skeleton.json", "--json"],
]


def test_the_exact_reader_serves_every_benchmarked_request_shape(monkeypatch):
    assert set(VERIFY_FLAGS) == set(cli.VERIFIERS)
    expected = [cli.build_arg_parser().parse_args(argv) for argv in SERVED_ARGVS]

    def asked(*args, **kwargs):
        raise AssertionError("argparse was asked")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", asked)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", asked)
    assert [cli.parse_arguments(argv) for argv in SERVED_ARGVS] == expected


@pytest.mark.parametrize("add", [
    lambda p: p.add_argument("--kind", choices=["a", "b"]),
    lambda p: p.add_argument("--ranks", nargs="+", type=int),
    lambda p: p.add_argument("--quiet", action="store_const", const=1),
    lambda p: p.add_argument("--seed", type=int, default="0"),
    lambda p: p.add_argument("-1", dest="one", action="store_true"),
], ids=["choices", "nargs", "store-const", "str-default", "negative-number"])
def test_an_action_the_reader_cannot_read_exactly_fails_its_build(add):
    def probe():
        parser = argparse.ArgumentParser(prog="probe")
        parser.add_argument("input")
        parser.add_argument("--json", action="store_true")
        return parser

    options, positionals, _, start = cli._exact_reader(probe())
    assert set(options) == {"--json"} and len(positionals) == 1
    assert start == {"input": None, "json": False}
    parser = probe()
    add(parser)
    with pytest.raises(TypeError):
        cli._exact_reader(parser)


# ------------------------------------------------------ reports

REPORT_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(),
              st.integers(-(10 ** 60), 10 ** 60),
              st.text(st.characters(exclude_categories=()), max_size=8)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=5), children, max_size=4)),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(REPORT_VALUES)
def test_the_report_writer_matches_json_dumps(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    1.5, (1, 2), {1: "a"}, {"a": [1, 2.0]}, {"a": {"b": (1,)}}, [{None: 1}],
    {"a": {"b": Fraction(1, 2)}},
])
def test_the_report_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        cli._json_text(value)
