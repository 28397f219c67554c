"""Replay every benchmark workload command and print one hash line per command.

Usage (from the repository root)::

    python tools/replay_workloads.py [--src DIR] [--seeds 1 7919]

For each seed and each workload of ``perfbench/workloads.py`` (imported, not
changed), the workload's inputs and commands are built in a temporary
directory and the commands run in order through ``nlrpb.cli.main`` in this
process, with BLAS pinned to one thread.  Each command prints one line::

    <seed> <workload> <group> <exit code> <sha256> <argv>

The hash covers stdout (the JSON ``"timestamp"`` and the Markdown
``- timestamp:`` line masked), stderr, and the bytes and permission bits of
the ``-o`` file.  The temporary directory is masked to ``<tmp>`` in all of
them and in argv, so two runs print the same lines whenever the program's
outputs are the same.
``--src`` imports ``nlrpb`` from another tree, so two trees compare with::

    python tools/replay_workloads.py --src ../parent/src > a.txt
    python tools/replay_workloads.py > b.txt
    diff a.txt b.txt

Each command's verdict is judged by ``workloads.check``: its exit code, its
report's pass flag and, where the workload gives one, its spectrum.  A wrong
verdict is printed to stderr, so stdout stays comparable between trees.
Exits 1 if a command raised or gave a wrong verdict.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import re
import stat
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_TIMESTAMP = re.compile(r'^(\s*"timestamp": |- timestamp: ).*$', re.MULTILINE)


def _run(main, argv):
    """(exit code or None if it raised, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except Exception as exc:
            rc = None
            print(f"raised {type(exc).__name__}: {exc}", file=err)
            traceback.print_exc(file=sys.__stderr__)
    return rc, out.getvalue(), err.getvalue()


def _digest(cmd, stdout, stderr, tmp):
    """SHA-256 of the masked stdout, stderr and ``-o`` file bytes and mode."""
    h = hashlib.sha256()
    h.update(_TIMESTAMP.sub(r"\1<masked>", stdout.replace(tmp, "<tmp>")).encode())
    h.update(b"\0" + stderr.replace(tmp, "<tmp>").encode() + b"\0")
    if "-o" in cmd.argv:
        path = Path(cmd.argv[cmd.argv.index("-o") + 1])
        if path.is_file():
            h.update(path.read_bytes().replace(tmp.encode(), b"<tmp>"))
            h.update(b"\0%o" % stat.S_IMODE(path.stat().st_mode))
        else:
            h.update(b"<no file>")
    return h.hexdigest()


def replay(seeds, workloads, main) -> bool:
    """Print one line per command; False if any command raised or gave a wrong verdict."""
    ok = True
    for seed in seeds:
        for name, build in workloads.BUILDERS.items():
            with tempfile.TemporaryDirectory(prefix="nlrpb-replay-") as tmp:
                groups = build(main, seed, tmp)
                for g, group in enumerate(groups):
                    for cmd in group:
                        rc, stdout, stderr = _run(main, cmd.argv)
                        argv = " ".join(cmd.argv).replace(tmp, "<tmp>")
                        wrong = workloads.check(cmd, rc, stdout)
                        if wrong is not None:
                            print(f"wrong verdict: {seed} {name} {g} {argv}: {wrong}", file=sys.stderr)
                        ok &= wrong is None  # a command that raised has exit code None, which is wrong
                        print(f"{seed} {name} {g} {rc} {_digest(cmd, stdout, stderr, tmp)} {argv}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory that holds the nlrpb package")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 7919])
    args = parser.parse_args(argv)
    # before numpy loads: the bits depend on the BLAS thread count
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    os.environ.pop("NLRPB_TOL", None)  # the workloads' verdicts assume the default tolerances
    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT / "perfbench")]
    import workloads
    from nlrpb.cli import main as cli_main

    return 0 if replay(args.seeds, workloads, cli_main) else 1


if __name__ == "__main__":
    sys.exit(main())
