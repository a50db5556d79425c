"""The four benchmark workloads: their inputs, op sequences and output checks.

An op is a short list of in-process `spherebayes.cli.main(argv)` calls. Each
workload draws a pool of data seeds from the workload seed (for lt-default,
plus one gamma=10 op); one run plays the pool over and over until the run
time is used up. Repeats of one pool entry must reproduce the first run's
outputs exactly.

A probe is an op that fails at this commit because of a known defect. It
runs once per measuring process, before the counted ops, and its outcome is
printed, but it is not counted in `attempted` or `failed`: a run's failure
ratio would otherwise depend on how many ops fit in the run time.

Every workload also has a golden op with a fixed seed, run as the warm-up,
whose outputs are compared with `reference.json` to the stated tolerances.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import struct
from dataclasses import dataclass, field
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

ALL_METHODS = ["bape", "bape+adjust", "softmax", "logit_adjusted", "ensemble", "oracle"]
CLOSED_FORM = ["bape", "bape+adjust", "oracle"]
ACC_FIELDS = ("acc_all", "acc_many", "acc_medium", "acc_few", "oracle_accuracy")

# Golden tolerances: a later change may flip a few borderline predictions
# (summation order, BLAS kernels); a larger drift is a wrong answer.
# SGD-trained weight geometry drifts more easily than accuracies.
TOLERANCE = {"minority_collapse": 0.02}
DEFAULT_TOLERANCE = 0.005


class CheckError(Exception):
    """An op's outputs are malformed or disagree with the expected values."""


@dataclass
class Op:
    label: str
    key: str  # equal keys mean equal inputs, so equal deterministic outputs
    steps: list[list[str]]
    outputs: list[str]  # removed before the op runs, so stale files cannot pass
    check: Callable[[], dict]  # deterministic fields; raises CheckError
    accuracy: Callable[[dict], tuple[float, float]] | None  # (all, few) of gamma=100 ops


@dataclass
class Workload:
    golden: Op
    pool: list[Op]
    probes: list[Op] = field(default_factory=list)
    # Parts of the reference kernel (worker.ReferenceKernel) that resemble the
    # ops' work: small steps for the SGD-bound lt-default, large arrays too
    # for workloads whose data outgrows the caches.
    kernel: tuple[str, ...] = ("steps", "arrays")

    def sequence(self):
        while True:
            yield from self.pool


def _unit_interval(value, what: str, optional: bool) -> None:
    if value is None and optional:
        return
    if not isinstance(value, (int, float)) or not math.isfinite(value) or not 0.0 <= value <= 1.0:
        raise CheckError(f"{what} = {value!r} is not an accuracy in [0, 1]")


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckError(f"cannot read {os.path.basename(path)}: {exc}") from None


def _check_report(path: str, methods: list[str], seed: int) -> dict:
    rows = _load_json(path)
    by_method = {row.get("method"): row for row in rows}
    if len(rows) != len(methods) or sorted(by_method) != sorted(methods):
        raise CheckError(f"report rows {sorted(by_method)} do not match methods {sorted(methods)}")
    det = {}
    for method, row in by_method.items():
        if row["seed"] != seed:
            raise CheckError(f"{method}: seed {row['seed']} != {seed}")
        _unit_interval(row["acc_all"], f"{method}.acc_all", optional=False)
        _unit_interval(row["oracle_accuracy"], f"{method}.oracle_accuracy", optional=False)
        for field in ("acc_many", "acc_medium", "acc_few"):
            _unit_interval(row[field], f"{method}.{field}", optional=True)
        collapse = row["minority_collapse"]
        if collapse is not None and not (math.isfinite(collapse) and -1.0 <= collapse <= 1.0):
            raise CheckError(f"{method}.minority_collapse = {collapse!r} is not a cosine")
        if not (math.isfinite(row["wall_time"]) and row["wall_time"] >= 0.0):
            raise CheckError(f"{method}.wall_time = {row['wall_time']!r}")
        det[method] = {f: row[f] for f in ACC_FIELDS + ("minority_collapse",)}
    return det


def _compare_op(run_dir: str, tag: str, label: str, config: dict, accuracy: bool) -> Op:
    config_path = os.path.join(run_dir, f"{tag}.config.json")
    report = os.path.join(run_dir, f"{tag}.report.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh)
    seed, methods = config["seeds"][0], config["methods"]
    return Op(
        label=label,
        key=tag,
        steps=[["compare", "--config", config_path, "--out", report]],
        outputs=[report],
        check=lambda: _check_report(report, methods, seed),
        accuracy=(lambda det: (det["bape+adjust"]["acc_all"], det["bape+adjust"]["acc_few"])) if accuracy else None,
    )


def _check_feature_file(path: str, n: int | None, p: int, k: int) -> int:
    """Header and size of a binary feature file; returns its row count."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(20)
        size = os.path.getsize(path)
    except OSError as exc:
        raise CheckError(f"cannot read {os.path.basename(path)}: {exc}") from None
    if len(head) != 20 or head[:4] != b"BAPF":
        raise CheckError(f"{os.path.basename(path)} has no feature-file header")
    _, rows, dim, classes = struct.unpack("<IIII", head[4:])
    if (dim, classes) != (p, k) or (n is not None and rows != n) or size != 20 + 4 * rows * (dim + 1):
        raise CheckError(f"{os.path.basename(path)}: n={rows} p={dim} K={classes}, {size} bytes")
    return rows


def _count_lines(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def _cli_files_op(run_dir: str, tag: str, label: str, seed: int, shape: dict, accuracy: bool) -> Op:
    k, p, head, test_per_class = shape["classes"], shape["dim"], shape["head_size"], shape["test_per_class"]
    f = {name: os.path.join(run_dir, f"{tag}.{name}") for name in
         ("train.bapf", "test.bapf", "train.csv", "test.csv", "model.json", "eval.json")}
    steps = [
        ["generate", "--classes", str(k), "--dim", str(p), "--head-size", str(head),
         "--gamma", "100", "--kappa-range", "20,200", "--seed", str(seed),
         "--out", f["train.bapf"], "--test-out", f["test.bapf"], "--test-per-class", str(test_per_class)],
        ["dump-embeddings", "--data", f["train.bapf"], "--out", f["train.csv"]],
        ["dump-embeddings", "--data", f["test.bapf"], "--out", f["test.csv"]],
        ["fit", "--model", "bape", "--train", f["train.csv"], "--out", f["model.json"]],
        ["eval", "--classifier", f["model.json"], "--data", f["test.csv"],
         "--adjust-priors", "uniform", "--split-counts-from", f["train.bapf"], "--out", f["eval.json"]],
    ]

    def check() -> dict:
        n_train = _check_feature_file(f["train.bapf"], None, p, k)
        n_test = _check_feature_file(f["test.bapf"], k * test_per_class, p, k)
        for name, rows in (("train.csv", n_train), ("test.csv", n_test)):
            if _count_lines(f[name]) != rows + 1:
                raise CheckError(f"{name} does not hold a header and {rows} rows")
        model = _load_json(f["model.json"])
        if (model.get("K"), model.get("p"), len(model.get("classes", []))) != (k, p, k):
            raise CheckError(f"model.json declares K={model.get('K')} p={model.get('p')}")
        kappas = [c["kappa"] for c in model["classes"]]
        if not all(math.isfinite(x) and x > 0.0 for x in kappas):
            raise CheckError("model.json holds a non-positive or non-finite kappa")
        if abs(sum(model["priors"]) - 1.0) > 1e-9:
            raise CheckError("model.json priors do not sum to 1")
        scores = _load_json(f["eval.json"])
        if sorted(scores) != ["all", "few", "many", "medium"]:
            raise CheckError(f"eval.json keys {sorted(scores)}")
        _unit_interval(scores["all"], "eval.all", optional=False)
        for split in ("many", "medium", "few"):
            _unit_interval(scores[split], f"eval.{split}", optional=True)
        with open(f["model.json"], "rb") as fh:
            model_sha = hashlib.sha256(fh.read()).hexdigest()
        return {"eval": scores, "n_train": n_train, "model_sha256": model_sha}

    return Op(
        label=label,
        key=tag,
        steps=steps,
        outputs=list(f.values()),
        check=check,
        accuracy=(lambda det: (det["eval"]["all"], det["eval"]["few"])) if accuracy else None,
    )


# Workload shapes. Pool sizes are chosen so that one pass fits well inside a
# run and the accuracy means (over the pool) steady across workload seeds.
LT_DEFAULT = dict(methods=ALL_METHODS, n_classes=20, dim=32, head_size=500, gamma=100.0, epochs=30)
LT_SCALE = dict(methods=CLOSED_FORM, n_classes=1000, dim=256, head_size=200, gamma=100.0,
                kappa_range=[50.0, 500.0], test_per_class=20)
LT_EXACT_M0 = dict(methods=CLOSED_FORM, n_classes=100, dim=128, head_size=500, gamma=100.0,
                   kappa_range=[20.0, 200.0], alpha_hat=1.0, beta_hat=0.5,
                   estimation="exact", m0_steps=3)
CLI_FILES = dict(classes=100, dim=128, head_size=500, test_per_class=50)
GOLDEN_SEED = 0


def _compare_workload(run_dir, seed, base, pool, golden_overrides, extremes=(), probes=(), **kw):
    rng = random.Random(seed)
    seeds = [rng.randrange(2**31) for _ in range(pool)]
    golden = _compare_op(run_dir, "golden", f"golden seed={GOLDEN_SEED}",
                         dict(base, seeds=[GOLDEN_SEED], **golden_overrides), accuracy=False)
    ops = [_compare_op(run_dir, f"g100-{i}", f"gamma=100 seed={s}", dict(base, seeds=[s]), accuracy=True)
           for i, s in enumerate(seeds)]

    def at_gamma(g):
        return _compare_op(run_dir, f"g{g:g}", f"gamma={g:g} seed={seeds[0]}",
                           dict(base, seeds=[seeds[0]], gamma=g), accuracy=False)

    ops = ops[:1] + [at_gamma(g) for g in extremes] + ops[1:]
    return Workload(golden=golden, pool=ops, probes=[at_gamma(g) for g in probes], **kw)


def build(name: str, seed: int, run_dir: str) -> Workload:
    """Write the workload's inputs under run_dir and return its ops."""
    if name == "lt-default":
        # The gamma=500 op fails at this commit: its tail class has one
        # sample, and bape raises ConcentrationOverflowError (exit code 1).
        return _compare_workload(run_dir, seed, LT_DEFAULT, 56, {}, extremes=(10.0,), probes=(500.0,),
                                 kernel=("steps",))
    if name == "lt-scale":
        # The golden op is a smaller K so that warm-up stays a small part of set-up.
        return _compare_workload(run_dir, seed, LT_SCALE, 3, {"n_classes": 200})
    if name == "lt-exact-m0":
        return _compare_workload(run_dir, seed, LT_EXACT_M0, 24, {})
    if name == "cli-files":
        rng = random.Random(seed)
        ops = [_cli_files_op(run_dir, f"pass-{i}", f"pipeline seed={s}", s, CLI_FILES, accuracy=True)
               for i, s in enumerate(rng.randrange(2**31) for _ in range(4))]
        golden = _cli_files_op(run_dir, "golden", f"golden seed={GOLDEN_SEED}", GOLDEN_SEED,
                               dict(CLI_FILES, classes=20, dim=32, head_size=200), accuracy=False)
        return Workload(golden=golden, pool=ops)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("lt-default", "lt-scale", "lt-exact-m0", "cli-files")


def compare_to_reference(got, expected, path: str = "") -> list[str]:
    """Differences between an op's outputs and its recorded reference values.

    Only keys present in the reference are compared; floats within the
    tolerance of their field count as equal, everything else must match.
    """
    if isinstance(expected, dict):
        if not isinstance(got, dict):
            return [f"{path or 'output'}: expected an object"]
        out = []
        for key, value in expected.items():
            out += compare_to_reference(got.get(key), value, f"{path}.{key}" if path else key)
        return out
    if isinstance(expected, float) and isinstance(got, (int, float)):
        tol = TOLERANCE.get(path.rpartition(".")[2], DEFAULT_TOLERANCE)
        return [] if abs(got - expected) <= tol else [f"{path}: {got!r} vs reference {expected!r} (tolerance {tol})"]
    return [] if got == expected else [f"{path}: {got!r} vs reference {expected!r}"]


def golden_problems(name: str, det: dict) -> list[str]:
    """Differences between the golden op's outputs and reference.json."""
    try:
        with open(REFERENCE_PATH) as fh:
            expected = json.load(fh)[name]
    except (OSError, ValueError, KeyError):
        return [f"no reference values recorded for {name} in {os.path.basename(REFERENCE_PATH)}"]
    return compare_to_reference(det, expected)
