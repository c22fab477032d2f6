"""Let child interpreters that tests start import the package from src.

The ``pythonpath`` setting in pyproject.toml covers the test process
itself; subprocesses only see the environment.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
