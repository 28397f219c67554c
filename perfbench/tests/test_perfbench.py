"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench/tests -q``."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from nlrpb import cli  # noqa: E402


def _run(cwd, workload, trace, seed=1, seconds=0.5):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170, env=env,
    )


def _copy_checkout(dest, with_src=True):
    """BENCHMARK.json and perfbench/ (and src/ when asked) copied to ``dest``."""
    ignore = shutil.ignore_patterns("__pycache__", ".work", "traces")
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "perfbench", ignore=ignore)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)


def _documents(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(Path(root).rglob("*.json"))}


@pytest.mark.parametrize("workload", ["small-batch", "reject-mix"])
def test_same_seed_gives_identical_documents(workload, tmp_path):
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        (tmp_path / name).mkdir()
        workloads.BUILDERS[workload](cli.main, seed, str(tmp_path / name))
    first, second, other = (_documents(tmp_path / name) for name in "abc")
    assert first and first == second
    assert first != other


@pytest.mark.parametrize("workload", list(workloads.BUILDERS))
def test_expected_outcomes_hold_at_seed(workload, tmp_path):
    groups = workloads.BUILDERS[workload](cli.main, 1, str(tmp_path))
    seen = set()
    for cmd in groups[0]:
        rc, stdout, _ = workloads.invoke(cli.main, cmd.argv)
        assert workloads.check(cmd, rc, stdout) is None, cmd.argv
        seen.update(cmd.kinds)
    assert seen == set(workloads.COMMAND_KINDS) | {"reject"}


def test_reject_mix_exit_codes(tmp_path):
    groups = workloads.reject_mix(cli.main, 1, str(tmp_path))
    codes = [workloads.invoke(cli.main, cmd.argv)[0] for cmd in groups[0]]
    assert codes == [cmd.rc for cmd in groups[0]]
    assert set(codes) == {1, 2, 3}


def test_workloads_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.BUILDERS)


@pytest.mark.parametrize("trace", [0, 1])
def test_output_metrics_match_benchmark_json(trace):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    proc = _run(ROOT, "small-batch", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    details = json.loads(next(line for line in proc.stdout.splitlines() if line.startswith("details "))[8:])
    # small-batch moves every per-layer counter, so none may fall back to 0
    assert details["unmeasured"] == []
    if trace:
        assert details["absent"] == []
        baseline = details["eigensolve_baseline"]
        assert set(baseline) == {"model", "verify_artifact", "verify_system", "verify_pair",
                                 "nlrpb2crypto", "crypto2nlrpb"}
        assert all(check["match"] for check in baseline.values()), baseline


def test_a_command_that_raises_is_a_wrong_verdict(tmp_path):
    _copy_checkout(tmp_path)
    with open(tmp_path / "src" / "nlrpb" / "cli.py", "a", encoding="utf-8") as fh:
        fh.write(
            "\n_main = main\n\n\n"
            "def main(argv=None):\n"
            "    if argv and argv[0] == 'paper-tables':\n"
            "        raise ZeroDivisionError('injected')\n"
            "    return _main(argv)\n"
        )
    proc = _run(tmp_path, "small-batch", 0)
    assert proc.returncode == 1, proc.stderr
    assert "ZeroDivisionError: injected" in proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_self_time_subtracts_children():
    ticks = iter(range(100))
    tr = tracing.Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return None

    traced_leaf = tr.wrap("leaf", "inner", leaf)

    def outer():
        traced_leaf()
        traced_leaf()

    tr.wrap("outer", "top", outer)()
    # outer [0, 5], leaves [1, 2] and [3, 4]
    assert [s[tracing.PARENT] for s in tr.spans] == [None, 0, 0]
    assert tracing.self_times(tr.spans) == [3.0, 1.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [
        ["outer", "top", 0.0, 10.0, None, 0, None],
        ["a", "inner", 1.0, 4.0, 0, 0, None],
        ["b", "inner", 3.0, 6.0, 0, 0, None],
    ]
    assert tracing.self_times(spans) == [5.0, 3.0, 3.0]


def test_tracer_wraps_imported_bindings_and_reports_absent(monkeypatch):
    import nlrpb.linalg

    original = nlrpb.linalg.jacobi_eigh
    monkeypatch.setitem(tracing.LAYERS, "linalg", tracing.LAYERS["linalg"] + ("no_such_function",))
    tr = tracing.Tracer()
    tr.install()
    try:
        assert cli.jacobi_eigh is not original
        assert workloads.invoke(cli.main, ["paper-tables", "n2"])[0] == 0
    finally:
        tr.uninstall()
    assert cli.jacobi_eigh is original and nlrpb.linalg.jacobi_eigh is original
    assert tr.absent == ["linalg.no_such_function"]
    tr.install()
    tr.uninstall()
    assert tr.absent == ["linalg.no_such_function"]
    names = [s[tracing.NAME] for s in tr.spans]
    assert names[0] == "main" and "jacobi_eigh" in names
    assert tracing.layer_metrics(tr.spans, 1)["linalg.eigensolves"] == 1


def test_run_refuses_a_directory_without_the_program(tmp_path):
    _copy_checkout(tmp_path, with_src=False)
    proc = _run(tmp_path, "reject-mix", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
