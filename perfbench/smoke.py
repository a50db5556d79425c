"""Smoke test of the benchmark itself: every workload for one op, both modes.

    python3 perfbench/smoke.py

Checks that each run prints every metric named in BENCHMARK.json with its
unit, ends with a well-formed result line, leaves no tracer wrapper
installed, and that a directory holding only the benchmark (no sources)
exits non-zero without printing a result. Exits 1 on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys

import run
import workloads

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def _run(cwd: str, workload: str, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--max-ops", "1"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)


def check_run(workload: str, trace: int, expected: dict) -> list[str]:
    proc = _run(run.ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result["attempted"] != 1 or result["correct"] is not True:
        problems.append(f"attempted={result['attempted']} correct={result['correct']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(expected))}")
    for name, unit in expected.items():
        if not any(line.split()[:1] == [name] and line.split()[2:3] == [unit] for line in lines):
            problems.append(f"no line prints {name} with unit {unit}")
    if "wrappers installed after the run: 0" not in lines:
        problems.append("a tracer wrapper is still installed after the run")
    return problems


def check_without_sources() -> list[str]:
    bare = os.path.join(run.OUT_DIR, "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(BENCHMARK, bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "lt-default", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"exit code {proc.returncode} and a result printed without sources"]
    return []


def main() -> int:
    with open(BENCHMARK) as fh:
        bench = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    failures = 0
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            problems = check_run(workload, trace, expected[trace])
            failures += bool(problems)
            print(f"{workload} trace={trace}: {'ok' if not problems else '; '.join(problems)}")
    problems = check_without_sources()
    failures += bool(problems)
    print(f"without sources: {'ok' if not problems else '; '.join(problems)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
