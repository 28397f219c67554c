"""The suite's one way to call the CLI in process.

``run_cli`` runs ``nlrpb.cli.main`` with stdout and stderr captured and
asserts, on every call, the output contract that each command keeps, so a
test states only what is particular to its case.  It is a plain function,
so ``@given`` tests and cached module-level helpers call it too.  Only the
parser's own cases (usage errors and ``--help``) call ``main`` directly: an
argparse usage error prints several lines, not one ``error: `` line.
"""

import contextlib
import io
import json
import os
from typing import NamedTuple, Optional

from nlrpb.cli import main


class Run(NamedTuple):
    rc: int
    out: str
    err: str
    doc: Optional[dict]  # the JSON report on stdout, parsed; None for text formats and exits 2 and 3


def run_cli(argv, stdout=None) -> Run:
    """``main(argv)``, its output captured and held to the contract: exit 0-3
    and no traceback; exit 2 or 3 writes nothing to stdout and exactly one
    ``error: `` line to stderr; exit 0 or 1 writes nothing to stderr, and a
    JSON report's ``"pass"`` is ``rc == 0``.  ``argv`` may hold paths;
    ``stdout``, if given, is written to in place of a fresh ``io.StringIO``."""
    argv = [os.fspath(arg) for arg in argv]
    out, err = io.StringIO() if stdout is None else stdout, io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    run = Run(rc, out.getvalue(), err.getvalue(), None)
    where = (argv, rc, run.err)
    assert rc in (0, 1, 2, 3), where
    assert "Traceback" not in run.err, where
    if rc >= 2:
        assert run.out == "", where
        assert run.err.startswith("error: ") and run.err.endswith("\n") and run.err.count("\n") == 1, where
        return run
    assert run.err == "", where
    if run.out.startswith("{"):
        run = run._replace(doc=json.loads(run.out))
        assert run.doc["pass"] is (rc == 0), where
    return run
