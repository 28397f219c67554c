"""Benchmark for the nlrpb CLI.

Usage (from the repository root)::

    python3 perfbench/run.py --workload roundtrip-dense --seed 1 --seconds 30 --trace 0

Starts one worker process (BLAS pinned to one thread) that generates
the workload's inputs from the seed, times the CLI commands in-process
and, spread over the run, the start-up of fresh interpreters that
import ``nlrpb.cli``.  Prints one line per metric, a details
line, and, as the last line, a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exits 1 when an output is
wrong and 2 when the benchmark cannot run; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TIME_LIMIT_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def _env():
    env = dict(os.environ)
    env.pop("NLRPB_TOL", None)  # verdicts must use the default tolerances
    env.update(PINNED)
    env["PYTHONPATH"] = str(SRC)
    return env


def _spawn(cmd, env, timeout):
    try:
        return subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{' '.join(cmd[:3])} did not finish within {timeout:.0f} s") from None


def run(args):
    if not (SRC / "nlrpb" / "__init__.py").is_file():
        raise BenchError(f"no nlrpb package under {SRC}")
    started = time.perf_counter()
    env = _env()
    load_start = os.getloadavg()

    workdir = HERE / ".work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    spans = HERE / "traces" / f"{args.workload}-seed{args.seed}.json"
    if args.trace:
        spans.parent.mkdir(exist_ok=True)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--src", str(SRC), "--workdir", str(workdir),
        ]
        if args.trace:
            cmd += ["--spans", str(spans)]
        proc = _spawn(cmd, env, TIME_LIMIT_S - (time.perf_counter() - started))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with code {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if args.trace else "end_to_end"]}
    metrics = dict(result["metrics"])
    unmeasured = sorted(set(units) - set(metrics))
    if args.trace:
        # a counter that never moved in this workload, or a name the tracer no longer produces
        metrics.update(dict.fromkeys(unmeasured, 0.0))
    elif unmeasured:
        raise BenchError(f"worker did not measure {', '.join(unmeasured)}")
    samples = result.get("samples", {})
    attempted, failed = result["attempted"], result["failed"]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "groups": result["groups"],
        "wrong_verdict_ratio": failed / attempted,
        "wrong": result["wrong"],
        "samples": samples,
        "environment": result["environment"],
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "unmeasured": unmeasured,
        **{k: result[k] for k in ("eigensolve_baseline", "absent", "spans") if k in result},
    }
    for name, unit in units.items():
        extra = "".join(f" {k}={v:.6g}" for k, v in samples.get(name, {}).items())
        print(f"{name} = {metrics[name]:.6g} {unit}{extra}")
    print(f"wrong_verdict_ratio = {failed / attempted:.6g} ratio (n={attempted})")
    print("details " + json.dumps(details))
    correct = failed == 0
    if not correct:
        sys.stderr.write(proc.stderr[-4000:])  # the tracebacks of commands that raised
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
