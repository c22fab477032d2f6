"""Replay the recorded CLI corpus and compare every byte of the output.

``tests/data/cli_corpus.json`` lists argv vectors with the stdout, stderr
and exit code that ``cli.main`` produced for them; ``{data}`` stands for
the ``tests/data`` directory in an argv and in the outputs alike, so a
message that names a table file replays on any checkout.  The corpus
covers every subcommand in pretty and ``--json`` form, ``pi`` on wide
sums whose groups fold a hundred and more cyclic orders, the table
listing, a user table with torsion out of chain order, user twist images
in the two-generator targets Z/2 (+) Z/4 and Z/3 (+) Z/24, a user table
whose suspended image cannot be a suspension (refused when loaded, by
every command and whatever the twists), the stable-wedge bundle formula,
and exit codes 1 and 2.

To record a new corpus, run ``python3 tests/test_cli_corpus.py`` with
``src`` on the path: it rewrites the outputs for the listed argv.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from gaugedecomp.cli import main

DATA = Path(__file__).parent / "data"
CORPUS = json.loads((DATA / "cli_corpus.json").read_text())


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.replace("{data}", str(DATA)) for a in argv])
    return {"stdout": out.getvalue().replace(str(DATA), "{data}"),
            "stderr": err.getvalue().replace(str(DATA), "{data}"), "exit": code}


@pytest.mark.parametrize(
    "case", CORPUS, ids=[f"{i:03d}-{c['argv'][0]}" for i, c in enumerate(CORPUS)]
)
def test_replay_is_byte_identical(case):
    got = run(case["argv"])
    for key in ("stdout", "stderr"):
        assert got[key].encode() == case[key].encode(), key
    assert got["exit"] == case["exit"]


if __name__ == "__main__":
    recorded = [{"argv": c["argv"], **run(c["argv"])} for c in CORPUS]
    (DATA / "cli_corpus.json").write_text(json.dumps(recorded, indent=1) + "\n")
