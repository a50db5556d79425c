"""One benchmark worker process: set up, run ops, print one JSON line.

Started by run.py with a JSON spec as its only argument:
  {"workload", "seed", "seconds", "mode", "trace", "max_ops", "run_dir", "spans"}
mode "setup" stops after set-up; "measure" runs the workload's probes and
then plays the pool over and over until `seconds` have passed, finishing at
least one pass; "pass" runs the probes and one pass over the pool. Each
counted op is preceded by a timed run of the reference kernel.
Set-up time runs from the first line of this file (before numpy, scipy and
spherebayes are imported) to the end of the golden warm-up op.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402
from scipy.special import logsumexp  # noqa: E402

import spherebayes.cli as cli  # noqa: E402  (imports every package module)
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def run_op(op) -> dict:
    """Run one op; the time covers the cli.main calls only, not the checks."""
    for path in op.outputs:
        if os.path.exists(path):
            os.remove(path)
    err = io.StringIO()
    error = None
    code = 0
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            for argv in op.steps:
                code = cli.main(argv)  # looked up per call, so a tracer sees it
                if code != 0:
                    break
    except Exception as exc:  # an op that raises is a failed op, not a dead run
        where = traceback.extract_tb(exc.__traceback__)[-1]
        error = f"{type(exc).__name__}: {exc} (raised at {os.path.basename(where.filename)}:{where.lineno})"
    elapsed = time.perf_counter() - start
    if error is None and code != 0:
        error = f"exit code {code}: {err.getvalue().strip()}"
    det = mismatch = None
    if error is None:
        try:
            det = op.check()
        except workloads.CheckError as exc:
            mismatch = str(exc)
    return {"label": op.label, "key": op.key, "s": elapsed, "error": error, "mismatch": mismatch, "det": det}


class ReferenceKernel:
    """A fixed numpy/scipy workload that uses no spherebayes code.

    It runs before every counted op, so that each op's time can be divided
    by the host's speed at that moment (see metrics.py). It has two parts,
    and each workload names the ones that resemble its own work:
    "steps", small softmax-regression steps (small BLAS calls, scipy
    reductions, Python overhead), and "arrays", passes over an array larger
    than a core's private caches. Its arrays (about 7 MB with "arrays") are
    allocated once and stay in the measuring process's resident set.
    """

    # Typical seconds per part on the 2-vCPU Xeon VM where the benchmark was
    # built; they only scale the normalised op times into seconds.
    NOMINAL_S = {"steps": 0.045, "arrays": 0.05}

    def __init__(self, parts):
        self.parts = parts
        self.nominal_s = sum(self.NOMINAL_S[part] for part in parts)
        rng = numpy.random.default_rng(0)
        self.x, self.w = rng.standard_normal((64, 32)), 0.1 * rng.standard_normal((32, 20))
        if "arrays" in parts:
            self.big_x, self.big_w = rng.standard_normal((4000, 128)), rng.standard_normal((128, 100))
            self.big_z = numpy.empty((4000, 100))

    def steps(self) -> None:
        w = self.w.copy()
        for _ in range(300):
            z = self.x @ w
            lse = logsumexp(z, axis=1)
            w -= 1e-4 * (self.x.T @ numpy.exp(z - lse[:, None]))

    def arrays(self) -> None:
        for _ in range(10):
            z = numpy.matmul(self.big_x, self.big_w, out=self.big_z)
            z -= z.max(axis=1, keepdims=True)
            numpy.exp(z, out=z)
            z.sum(axis=1)

    def seconds(self) -> float:
        start = time.perf_counter()
        for part in self.parts:
            getattr(self, part)()
        return time.perf_counter() - start


def _blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, if it can be asked."""
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    workload = workloads.build(spec["workload"], spec["seed"], spec["run_dir"])
    golden = run_op(workload.golden)
    problems = [golden["error"] or golden["mismatch"]] if golden["det"] is None else \
        workloads.golden_problems(spec["workload"], golden["det"])
    setup_s = time.perf_counter() - _T0
    result = {"setup_s": setup_s, "golden_problems": problems, "golden_det": golden["det"]}
    if spec["mode"] == "setup":
        print(json.dumps(result))
        return 0

    # Probes run untraced, before the counted ops; see workloads.py.
    probes = [run_op(op) for op in workload.probes]
    kernel = ReferenceKernel(workload.kernel)
    tracer = tracing.Tracer() if spec["trace"] else None
    if tracer:
        tracer.install()
    records, first_det, acc = [], {}, {}
    started = time.perf_counter()
    try:
        for i, op in enumerate(workload.sequence()):
            if spec["max_ops"] is not None and i >= spec["max_ops"]:
                break
            past_first = i >= len(workload.pool)
            if past_first and (spec["mode"] == "pass" or time.perf_counter() - started >= spec["seconds"]):
                break
            if tracer:
                tracer.op_id = i + 1
            kernel_s = kernel.seconds()
            rec = run_op(op)
            rec["kernel_s"] = kernel_s
            det = rec.pop("det")
            rec["repeat"] = op.key in first_det
            if det is not None and not rec["repeat"]:
                first_det[op.key] = det
                if op.accuracy:
                    acc[op.key] = op.accuracy(det)
            elif det is not None and det != first_det[op.key]:
                rec["mismatch"] = "outputs differ from the first run of the same inputs"
            records.append(rec)
    finally:
        if tracer:
            tracer.uninstall()
    result.update(
        ops=records,
        probes=[{k: rec[k] for k in ("label", "error", "mismatch")} for rec in probes],
        kernel_ref_s=kernel.nominal_s,
        accuracy=[acc[k] for k in sorted(acc)],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        wrappers_left=tracing.installed_wrappers(),
        env=environment(),
    )
    if tracer:
        tracer.write_spans(spec["spans"])
        result.update(layer_stats=tracer.stats, span_count=len(tracer.spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
