"""Benchmark worker: generates one workload's inputs and times its CLI commands.

Started by run.py with BLAS pinned to one thread and ``src`` on the path;
prints one JSON object with the measured metrics as its last line.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import tracer as tracing
import workloads


SETUP_REPEATS = 15

# Eigensolves per successful command at the seed commit (ROADMAP Baseline).
BASELINE_EIGENSOLVES = {
    "model": 3,
    "verify_artifact": 2,
    "verify_system": 2,
    "verify_pair": 4,
    "nlrpb2crypto": 7,
    "crypto2nlrpb": 11,
}


# Scale of every reported time: a time is measured as a multiple of the
# calibration kernel's time next to it, then multiplied by this.  The
# kernel's median on the reference machine is about 2.3 ms; see README.md.
CALIBRATION_S = 2e-3


def _kernel():
    """Fixed interpreter and small-array work, like the rotations of a Jacobi sweep."""
    s = np.eye(12) + 0.5
    for k in range(240):
        c, sn = math.cos(k), math.sin(k)
        p, q = k % 12, (5 * k + 1) % 12
        cp = s[:, p].copy()
        cq = s[:, q].copy()
        s[:, p] = c * cp - sn * cq
        s[:, q] = sn * cp + c * cq
    return s


def calibrate():
    """Wall seconds of one run of the calibration kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def pin_to_current_cpu(cpus):
    """Lets the scheduler place this process on any of ``cpus``, then pins it where it landed.

    The CPUs of the reference machine switch between a fast and a slow
    state each on their own, so a timing and the calibrations next to it
    must run on one CPU; re-placing the process between groups keeps it
    off a CPU that another process has taken.
    """
    os.sched_setaffinity(0, cpus)
    time.sleep(0.001)
    with open("/proc/self/stat", encoding="ascii") as fh:
        cpu = int(fh.read().rsplit(")", 1)[1].split()[36])  # field 39, "processor"
    os.sched_setaffinity(0, {cpu})


def setup_seconds():
    """Wall seconds from spawning an interpreter until ``import nlrpb.cli`` has run and it exited."""
    start = time.perf_counter()
    # no timeout: Popen.wait with a timeout polls at up to 50 ms intervals
    proc = subprocess.Popen([sys.executable, "-c", "import nlrpb.cli"], stdout=subprocess.DEVNULL)
    code = proc.wait()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"import nlrpb.cli exited with code {code}")
    return elapsed


def _environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Run:
    """Runs command groups, checks every output and collects the timings.

    Every timed command and set-up spawn sits between two runs of the
    calibration kernel; its time is recorded as a multiple of their mean.
    A command's metric is the median of those multiples over its
    repetitions (groups are cycled), a kind's the geometric mean over the
    kind's commands, scaled by CALIBRATION_S: see "Noise" in README.md.
    """

    def __init__(self, cli):
        self.cli = cli
        self.cpus = os.sched_getaffinity(0)
        # keyed by argv: a command repeated in several groups pools its repetitions
        self.ratios = {}  # argv -> calibrated time of each timed repetition
        self.times = {}  # argv -> wall seconds of each timed repetition
        self.kinds = {}  # argv -> metric keys of that command
        self.setup = []  # (wall seconds, calibrated time) of each set-up spawn
        self.calibrations = []
        self.attempted = 0
        self.wrong = []
        self.commands = {}  # command id -> Command, for traced groups

    def _calibrate(self):
        seconds = calibrate()
        self.calibrations.append(seconds)
        return seconds

    def time_setup(self):
        before = self._calibrate()
        seconds = setup_seconds()
        self.setup.append((seconds, seconds / (0.5 * (before + self._calibrate()))))

    def group(self, cmds, tracer=None, timed=True):
        """Runs one group; returns the summed wall seconds of its commands.

        Cyclic garbage collection is off while the group runs: its pauses
        land wherever earlier commands left the allocation counters, and
        made 1 ms commands spread 20% within a run.
        """
        results = []
        pin_to_current_cpu(self.cpus)
        gc.collect()
        gc.disable()
        before = self._calibrate() if timed else None
        for cmd in cmds:
            if tracer is not None:
                tracer.command = len(self.commands)
                self.commands[tracer.command] = cmd
            rc, stdout, seconds = workloads.invoke(self.cli.main, cmd.argv)
            ratio = None
            if timed:
                after = self._calibrate()
                ratio = seconds / (0.5 * (before + after))
                before = after
            results.append((rc, stdout, seconds, ratio))
        gc.enable()
        for cmd, (rc, stdout, seconds, ratio) in zip(cmds, results):
            self.attempted += 1
            reason = workloads.check(cmd, rc, stdout)
            if reason is not None:
                self.wrong.append(f"{' '.join(cmd.argv)}: {reason}")
            if timed:
                self.ratios.setdefault(cmd.argv, []).append(ratio)
                self.times.setdefault(cmd.argv, []).append(seconds)
                self.kinds[cmd.argv] = cmd.kinds
        return sum(r[2] for r in results)

    def end_to_end(self):
        """(metrics, details); details give sample counts and uncalibrated wall times."""
        out, details = {}, {}
        median = statistics.median
        for kind in workloads.COMMAND_KINDS + ("reject",):
            keys = [k for k, kinds in self.kinds.items() if kind in kinds]
            out[f"{kind}_ms"] = 1e3 * CALIBRATION_S * _geomean([median(self.ratios[k]) for k in keys])
            details[f"{kind}_ms"] = {
                "commands": len(keys),
                "n": sum(len(self.ratios[k]) for k in keys),
                "wall_ms": 1e3 * _geomean([median(self.times[k]) for k in keys]),
            }
        out["setup_s"] = CALIBRATION_S * median([ratio for _, ratio in self.setup])
        details["setup_s"] = {"n": len(self.setup), "wall_s": median([s for s, _ in self.setup])}
        out["verdicts_per_s"] = len(self.ratios) / (CALIBRATION_S * sum(median(r) for r in self.ratios.values()))
        details["verdicts_per_s"] = {
            "commands": len(self.ratios),
            "wall": len(self.times) / sum(median(t) for t in self.times.values()),
        }
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        details["peak_rss_mb"] = {"n": 1}
        details["calibration_ms"] = {
            "n": len(self.calibrations),
            "median": 1e3 * median(self.calibrations),
            "min": 1e3 * min(self.calibrations),
        }
        return out, details


def _per_layer(tracer, run, traced_groups, traced_wall, untraced_wall):
    """(metrics, baseline check); a counter that never moved is left out and reads 0."""
    out = tracing.layer_metrics(tracer.spans, traced_groups)
    per_cmd = tracing.eigensolves_per_command(tracer.spans)
    happy = {}
    for kind in workloads.COMMAND_KINDS:
        ids = [i for i, cmd in run.commands.items() if kind in cmd.kinds]
        if ids:
            out[f"cmd.{kind}.eigensolves"] = sum(per_cmd.get(i, 0) for i in ids) / len(ids)
        counts = sorted({per_cmd.get(i, 0) for i in ids if run.commands[i].rc == 0})
        if counts:
            happy[kind] = counts
    out["trace.overhead_ratio"] = traced_wall / untraced_wall
    baseline = {
        kind: {"measured": happy.get(kind), "baseline": count, "match": happy.get(kind) == [count]}
        for kind, count in BASELINE_EIGENSOLVES.items()
        if kind in happy
    }
    return out, baseline


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.BUILDERS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    from nlrpb import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(args.src) + os.sep):
        raise SystemExit(f"nlrpb imported from {cli.__file__}, not from {args.src}")

    groups = workloads.BUILDERS[args.workload](cli.main, args.seed, args.workdir)
    run = Run(cli)
    run.group(groups[0], timed=False)  # warm-up pass

    tracer = tracing.Tracer() if args.trace else None
    traced_wall = untraced_wall = 0.0
    count = 0
    setup_due = []
    if tracer is None:
        setup_seconds()  # fills the bytecode cache; not counted
    start = time.perf_counter()
    deadline = start + args.seconds
    if tracer is None:
        # set-up is timed at evenly spaced moments of the run, between groups
        setup_due = [start + (i + 0.5) * args.seconds / SETUP_REPEATS for i in range(SETUP_REPEATS)]
    while True:
        while setup_due and time.perf_counter() >= setup_due[0]:
            setup_due.pop(0)
            run.time_setup()
        cmds = groups[count % len(groups)]
        wall = run.group(cmds)
        if tracer is not None:
            untraced_wall += wall
            tracer.install()
            try:
                traced_wall += run.group(cmds, tracer, timed=False)
            finally:
                tracer.uninstall()
        count += 1
        if time.perf_counter() >= deadline:
            break
    for _ in setup_due:
        run.time_setup()
    os.sched_setaffinity(0, run.cpus)

    result = {
        "attempted": run.attempted,
        "failed": len(run.wrong),
        "wrong": run.wrong[:20],
        "groups": count,
        "environment": _environment(),
    }
    if tracer is None:
        result["metrics"], result["samples"] = run.end_to_end()
    else:
        result["metrics"], result["eigensolve_baseline"] = _per_layer(tracer, run, count, traced_wall, untraced_wall)
        result["absent"] = tracer.absent
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "layer", "start", "end", "parent", "command", "note"],
                           "commands": {i: list(cmd.argv) for i, cmd in run.commands.items()},
                           "spans": tracer.spans}, fh)
            result["spans"] = args.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
