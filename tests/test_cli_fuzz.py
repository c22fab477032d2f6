"""Malformed command lines never crash ``cli.main``.

Each example is one argv for a real subcommand with its required flags,
so it gets past argparse's structure, while the values in it are drawn
from bad JSON, floats, bools, strings, ragged and empty matrices, unknown
groups, over-long integers and spec or table paths that are missing, are
directories or hold JSON of the wrong shape.  Whatever the input, ``main``
must answer with exit code 0, 1 or 2 and print no traceback.  A bad ``--j``
or ``--m`` is a parse error like any other integer flag; argparse's own
usage errors raise ``SystemExit(2)``, which is that exit code, not an
escaped error.  Sizes are bounded and examples derandomized, so every run
checks the same inputs in well under two seconds.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugedecomp.cli import main

TESTS = Path(__file__).parent
LONG_INT = "7" * 4301  # one digit past the interpreter's default limit

PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=150)

# Files of the wrong shape or of invalid JSON, written under a temporary
# directory that stands for ``{bad}`` in an argv.
BAD_FILES = {
    "list-of-int.json": "[1]",
    "string.json": '"x"',
    "rank-list.json": json.dumps({"entries": [{
        "space": {"lie": {"family": "SU", "rank": [2]}}, "degree": 3,
        "group": {"torsion": 7}, "citation": None}]}),
    "order-string.json": json.dumps({"connecting_orders": [{
        "lie": {"family": "SU", "rank": 2}, "n": 4, "order": "12", "citation": "c"}]}),
    "deep.json": "[" * 3000,
    "long-int.json": "[" + LONG_INT + "]",
}

# Spec and table paths: missing, a directory, too long a name, a file of the
# wrong kind or shape, and (for tables) a real table file.
paths = st.sampled_from([
    "/does-not-exist/spec.json",
    "does-not-exist.json",
    str(TESTS),
    "p" * 300,
    str(TESTS / "data" / "cli_corpus.json"),
    str(TESTS / "data" / "cli_table.json"),
    *(f"{{bad}}/{name}" for name in BAD_FILES),
])
scalars = st.one_of(
    st.integers(-40, 40),
    st.just(int(LONG_INT[:4000])),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.text("0123456789x", max_size=3),
    st.none(),
)
bad_json = st.one_of(
    st.text("{}[]\":,0123456789.-etrufalsn ", max_size=12),
    st.sampled_from(["[" * 3000, "{" * 3000, "[[" + LONG_INT + "]]", "[1e999]", "NaN"]),
)

specs = st.one_of(
    st.fixed_dictionaries({
        "n": st.one_of(st.integers(-2, 8), scalars),
        "q": st.one_of(st.integers(-2, 8), scalars),
        "xi": st.one_of(st.lists(scalars, max_size=4), scalars),
    }).map(json.dumps),
    st.just('{"n":4,"q":3,"xi":[%s]}' % LONG_INT),
    bad_json.map(lambda t: "{" + t),
    paths,
)
groups = st.sampled_from(
    ["SU2", "SU(2)", "Sp1", "Spin7", "Spin4", "G2", "E8", "SO3", "SU1", "E9", "su2", "", "SU²"]
)
int_lists = st.one_of(
    st.lists(st.integers(-30, 30), min_size=1, max_size=4).map(lambda v: ",".join(map(str, v))),
    st.text("0123456789,-x. ", max_size=8),
    st.just(LONG_INT + ",x"),
)
matrices = st.one_of(
    st.lists(st.lists(scalars, max_size=4), max_size=4).map(json.dumps),
    st.lists(st.lists(st.integers(-99, 99), min_size=2, max_size=2), min_size=1, max_size=4)
    .map(json.dumps),
    bad_json,
)
table_flags = st.one_of(st.just([]), paths.map(lambda p: ["--tables", p]))
json_flag = st.sampled_from([[], ["--json"]])


def _command(name, *parts, tables=True):
    """Argv of subcommand ``name``; ``tables`` if it reads table files."""
    flags = (table_flags,) if tables else ()
    return st.tuples(*parts, *flags, json_flag).map(
        lambda t: [name] + [a for part in t for a in part]
    )


def _flag(flag, values):
    return values.map(lambda v: [flag, v])


argvs = st.one_of(
    _command("classify", _flag("--group", groups), _flag("--spec", specs)),
    _command("decompose", _flag("--group", groups), _flag("--spec", specs),
             st.one_of(_flag("--k", int_lists), st.just(["--pointed"]), st.just([]))),
    _command("equivalent", _flag("--group", groups), _flag("--spec", specs),
             _flag("--k", int_lists), _flag("--k2", int_lists)),
    _command("pi", _flag("--group", groups), _flag("--spec", specs),
             _flag("--j", st.sampled_from(["0", "3", "-1", "x", "1.5"]))),
    _command("orbit-reduce", _flag("--m", st.sampled_from(["12", "0", "-3", "x"])),
             _flag("--x", int_lists), tables=False),
    _command("echelon", matrices.map(lambda m: [m]),
             st.one_of(st.just([]), _flag("--m", int_lists)), tables=False),
    _command("tables", st.one_of(st.just([]), _flag("--lookup", st.sampled_from(
        ["sphere:3,6", "SU2,6", "sphere:x,6", "sphere:0,3", "SO3,6", ",6", "SU2,", "SU2,-1",
         "SU2,\u00b2", "sphere:3,06"]
    )))),
    _command("splitting", _flag("--spec", specs)),
)


@pytest.fixture(scope="session")
def bad_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("bad-files")
    for name, text in BAD_FILES.items():
        (path / name).write_text(text)
    return str(path)


@PROFILE
@given(argv=argvs)
def test_malformed_argv_exits_cleanly(bad_dir, argv):
    argv = [arg.replace("{bad}", bad_dir) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse's usage errors
            code = e.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
