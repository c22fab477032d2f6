"""Let child interpreters that tests start import the package from src,
and count the table's image lookups for the tests that pin them.

The ``pythonpath`` setting in pyproject.toml covers the test process
itself; subprocesses only see the environment.
"""

import os
from pathlib import Path

import pytest

from gaugedecomp.tables import HomotopyTable

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def image_reads(monkeypatch) -> dict:
    """The number of calls of each of the table's two image lookups so far."""
    calls = {"suspended_image": 0, "attaching_image": 0}
    for name in calls:
        def counted(table, n, q, name=name, read=getattr(HomotopyTable, name)):
            calls[name] += 1
            return read(table, n, q)

        monkeypatch.setattr(HomotopyTable, name, counted)
    return calls
