"""Record the golden ops' outputs as reference.json.

    python3 perfbench/record_reference.py

Runs each workload's golden op once, in a fresh set-up worker, and keeps the
fields that the benchmark compares (model hashes are left out: a change may
move the last bits of a fitted parameter without changing any prediction).
Re-record only when a change is meant to alter the program's outputs.
"""

import json
import os
import shutil

import run
import workloads


def main() -> int:
    reference = {}
    for name in workloads.WORKLOADS:
        run_dir = os.path.join(run.OUT_DIR, f"reference-{name}")
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        try:
            result = run.run_worker({"workload": name, "seed": 0, "seconds": 0, "max_ops": None,
                                     "run_dir": run_dir, "trace": False, "spans": None, "mode": "setup"})
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        det = result["golden_det"]
        if det is None:
            raise SystemExit(f"golden op of {name} failed: {result['golden_problems']}")
        det.pop("model_sha256", None)
        reference[name] = det
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
