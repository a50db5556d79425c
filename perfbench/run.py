"""spherebayes benchmark: one seeded workload, every metric with its unit.

    python3 perfbench/run.py --workload lt-default --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout (the package is imported from
./src). Each workload is a closed loop of one client in one process; an op
is one in-process `spherebayes.cli.main(...)` call (cli-files: one pipeline
of five). With --trace 0 it prints the end-to-end metrics: set-up is timed
in five fresh processes, one of which runs ops for --seconds. With
--trace 1 it prints the per-layer metrics: one untraced and one traced pass
over the same ops, in separate processes, whose throughput difference is
the tracing overhead. The last line of stdout is one JSON object with keys
correct, attempted, failed and metrics. BLAS is pinned to BLAS_THREADS.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

import metrics
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_run")
BLAS_THREADS = 1  # at most nproc; 1 keeps the per-op spread narrow
# Set-up is sampled in fresh processes before and after the measured one, so
# that the samples span the run rather than one phase of the host's load.
SETUP_SAMPLES_AROUND = 2
DEADLINE_S = 170  # the whole run, all workers included, ends within this
_STARTED = time.monotonic()


class BenchError(Exception):
    pass


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_worker(spec: dict) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    timeout = max(1.0, DEADLINE_S - (time.monotonic() - _STARTED))
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker ({spec['mode']}) did not finish within the {DEADLINE_S} s run deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker ({spec['mode']}) exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _mismatches(result: dict) -> list[str]:
    out = [f"golden: {p}" for p in result["golden_problems"]]
    return out + [f"{r['label']}: {r['mismatch']}" for r in result.get("ops", []) if r["mismatch"]]


def run(args) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "spherebayes", "__init__.py")):
        raise BenchError(f"no spherebayes sources under {os.path.join(ROOT, 'src')}")
    run_dir = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    spec = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "max_ops": args.max_ops, "run_dir": run_dir, "trace": False,
            "spans": os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl")}
    try:
        if args.trace:
            untraced = run_worker(dict(spec, mode="pass"))
            measured = run_worker(dict(spec, mode="pass", trace=True))
            values = metrics.per_layer(measured, untraced)
            notes = {}
            checked = [untraced, measured]
        else:
            before = [run_worker(dict(spec, mode="setup")) for _ in range(SETUP_SAMPLES_AROUND)]
            measured = run_worker(dict(spec, mode="measure"))
            after = [run_worker(dict(spec, mode="setup")) for _ in range(SETUP_SAMPLES_AROUND)]
            checked = before + [measured] + after
            values, notes = metrics.end_to_end([r["setup_s"] for r in checked], measured)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    mismatches = [m for result in checked for m in _mismatches(result)]
    ops = measured["ops"]
    failed = [r for r in ops if r["error"] is not None or r["mismatch"] is not None]
    wrappers_left = max(result["wrappers_left"] for result in checked if "wrappers_left" in result)
    env = dict(measured["env"], git_commit=_git_commit(), workload=args.workload, seed=args.seed)
    units = metrics.units()

    print(f"spherebayes benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env: " + json.dumps(env, sort_keys=True))
    for name, value in values.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<44} {value:>14.6g} {units[name]}{note}")
    if args.trace:
        print(f"spans recorded: {measured['span_count']} (written to {os.path.relpath(spec['spans'], ROOT)})")
    print(f"wrappers installed after the run: {wrappers_left}")
    for r in failed:
        print(f"failed op: {r['label']}: {r['error'] or r['mismatch']}")
    for r in measured["probes"]:
        outcome = r["error"] or r["mismatch"] or "passes its output check"
        print(f"known-defect probe (not counted in attempted or failed): {r['label']}: {outcome}")
    repeats = sum(1 for r in ops if r["repeat"])
    print(f"checks: golden op against reference.json, {repeats} repeated inputs compared bitwise, "
          f"{len(mismatches)} mismatches")
    for m in mismatches:
        print(f"mismatch: {m}")
    result = {
        "correct": not mismatches and wrappers_left == 0,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items() if name not in metrics.PRINTED},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, help="stop after this many ops (smoke runs)")
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
