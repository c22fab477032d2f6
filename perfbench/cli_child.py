"""One traced ``gaugedecomp`` CLI process.

Usage: python3 cli_child.py SPAWN_NS ARGV...

SPAWN_NS is the parent's ``time.monotonic_ns()`` just before it started this
process, so the gap to this file's first statement is interpreter start-up.
The CLI's stdout is left untouched; the spans go to stderr as the last line,
prefixed with ``PERFBENCH_TRACE``.
"""

import time

START_NS = time.monotonic_ns()

import json  # noqa: E402
import sys  # noqa: E402

import gaugedecomp.cli  # noqa: E402

IMPORTED_NS = time.monotonic_ns()

from spans import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
code = 1
try:
    code = gaugedecomp.cli.main(sys.argv[2:])
except SystemExit as e:
    code = e.code
finally:
    sys.stdout.flush()
    record = {
        "interp_start_ns": START_NS - int(sys.argv[1]),
        "import_ns": IMPORTED_NS - START_NS,
        "spans": tracer.export(),
    }
    print("PERFBENCH_TRACE " + json.dumps(record), file=sys.stderr)
sys.exit(code)
