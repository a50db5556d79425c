"""Span tracer for the spherebayes package, installed by patching module globals.

The package binds names with `from .x import f`, so patching `special.f`
alone would miss the copies held by `classifier`, `vmf`, `harness` and the
rest. `Tracer.install` therefore replaces each traced function in *every*
spherebayes module namespace that holds it (and in its own module, so that
intra-module calls are seen too), and `uninstall` puts the originals back.

Each call becomes one span: (op id, span id, parent id, name, start, end,
self time). Spans stay in memory until `write_spans`. A span's self time is
its duration minus the time of its child spans and of the tracer's own
post-call hooks (row/byte counting, the matmul floor), so the hooks never
show up as time of the enclosing layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

import numpy as np

PACKAGE = "spherebayes"
_MARK = "_perfbench_traced"


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _rows(v) -> int:
    shape = np.shape(v)
    return 1 if len(shape) < 2 else int(shape[0])


# Regime classifiers: the thresholds are those of `spherebayes.special`
# (ascending series for x <= max(50, nu), asymptotic above).
def _bessel_regime(args, kwargs):
    nu, x = float(_arg(args, kwargs, 0, "nu")), float(_arg(args, kwargs, 1, "x"))
    return "series" if x <= max(50.0, nu) else "asymptotic"


def _estimation_regime(args, kwargs):
    return str(_arg(args, kwargs, 1, "mode", "approx"))


def _file_regime(args, kwargs):
    return "csv" if str(_arg(args, kwargs, 0, "path")).endswith(".csv") else "binary"


def _cli_regime(args, kwargs):
    argv = _arg(args, kwargs, 0, "argv") or sys.argv[1:]
    return str(argv[0]) if argv else "none"


# Post-call hooks: extra counters per call, computed outside the span's timing.
def _rows_of_arg(index, name):
    return lambda tracer, args, kwargs, result: {"rows": _rows(_arg(args, kwargs, index, name))}


def _sample_rows(tracer, args, kwargs, result):
    return {"rows": int(_arg(args, kwargs, 1, "n"))}


def _dataset_rows(tracer, args, kwargs, result):
    return {"rows": int(result.n)}


def _train_work(tracer, args, kwargs, result):
    epochs = int(_arg(args, kwargs, 2, "config").epochs)
    return {"rows": _rows(_arg(args, kwargs, 0, "features")) * epochs, "epochs": epochs}


def _file_bytes(tracer, args, kwargs, result):
    return {"bytes": os.path.getsize(str(_arg(args, kwargs, 0, "path")))}


def _cli_errors(tracer, args, kwargs, result):
    return {"errors": int(result != 0)}


def _predict_floor(tracer, args, kwargs, result):
    """Time a raw float64 `Z @ M.T` at this call's shape: predict's floor."""
    z = np.asarray(_arg(args, kwargs, 1, "z"), dtype=float)
    mus = np.asarray(_arg(args, kwargs, 0, "clf").mus, dtype=float)
    if z.ndim == 1:
        z = z[np.newaxis, :]
    start = time.perf_counter()
    z @ mus.T
    return {"rows": z.shape[0], "floor_s": time.perf_counter() - start}


# (module, attribute, span name, regime classifier, post-call hook).
# "BayesClassifier.__post_init__" traces construction, where the per-class
# normalizers are computed; the class itself is never replaced.
TARGETS = (
    ("special", "log_vmf_normalizer", "special.log_vmf_normalizer", None, None),
    ("special", "log_bessel_i", "special.log_bessel_i", _bessel_regime, None),
    ("special", "bessel_ratio", "special.bessel_ratio", None, None),
    ("special", "mean_resultant_ratio", "special.mean_resultant_ratio", None, None),
    ("vmf", "sample", "vmf.sample", None, _sample_rows),
    ("vmf", "as_unit_vector", "vmf.as_unit_vector", None, _rows_of_arg(0, "v")),
    ("vmf", "substream", "vmf.substream", None, None),
    ("estimation", "update_stats", "estimation.update_stats", None, None),
    ("estimation", "posterior", "estimation.posterior", None, None),
    ("estimation", "map_estimate", "estimation.map_estimate", _estimation_regime, None),
    ("priors", "build_etf", "priors.build_etf", None, None),
    ("priors", "grad_step_m0", "priors.grad_step_m0", None, None),
    ("classifier", "fit", "classifier.fit", None, _rows_of_arg(0, "features")),
    ("classifier", "BayesClassifier.__post_init__", "classifier.BayesClassifier", None, None),
    ("classifier", "predict", "classifier.predict", None, _predict_floor),
    ("classifier", "log_posterior", "classifier.log_posterior", None, None),
    ("classifier", "adjust", "classifier.adjust", None, None),
    ("classifier", "to_json", "classifier.to_json", None, None),
    ("classifier", "from_json", "classifier.from_json", None, None),
    ("baselines", "train", "baselines.train", None, _train_work),
    ("baselines", "predict_linear", "baselines.predict_linear", None, None),
    ("datagen", "generate", "datagen.generate", None, None),
    ("datagen", "sample_dataset", "datagen.sample_dataset", None, _dataset_rows),
    ("datagen", "oracle_accuracy", "datagen.oracle_accuracy", None, None),
    ("datagen", "write_features", "datagen.write_features", _file_regime, _file_bytes),
    ("datagen", "read_features", "datagen.read_features", _file_regime, _file_bytes),
    ("harness", "run_experiment", "harness.run_experiment", None, None),
    ("harness", "m0_loss_gradients", "harness.m0_loss_gradients", None, None),
    ("harness", "split_accuracy", "harness.split_accuracy", None, None),
    ("harness", "emit_report", "harness.emit_report", None, None),
    ("cli", "main", "cli.main", _cli_regime, _cli_errors),
)


def _package_modules():
    return [m for n, m in list(sys.modules.items()) if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def installed_wrappers() -> int:
    """Number of tracer wrappers currently reachable from spherebayes namespaces."""
    found = 0
    for mod in _package_modules():
        for value in vars(mod).values():
            if getattr(value, _MARK, False):
                found += 1
            elif isinstance(value, type) and getattr(vars(value).get("__post_init__"), _MARK, False):
                found += 1
    return found


class Tracer:
    """Spans and per-name counters for one traced worker process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stats: dict[str, dict[str, float]] = {}
        self.op_id = 0
        self._stack: list[list] = []  # [span id, time covered by children and hooks]
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for modname, attr, span_name, regime, hook in TARGETS:
            module = importlib.import_module(f"{PACKAGE}.{modname}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self._wrap(getattr(cls, meth), span_name, modname, regime, hook))
                continue
            original = getattr(module, attr)
            for mod in _package_modules():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        site = mod.__name__.rpartition(".")[2]
                        self._patch(mod, name, self._wrap(original, span_name, site, regime, hook))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, fn, span_name, site, regime, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = f"{span_name}.{regime(args, kwargs)}" if regime else span_name
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                extra = hook(tracer, args, kwargs, result) if hook and not failed else {}
                hooked = time.perf_counter() - end
                if parent is not None:
                    parent[1] += (end - start) + hooked
                tracer._record(name, site, span_id, parent, start, end, frame[1], failed, extra)

        setattr(wrapper, _MARK, True)
        return wrapper

    def _record(self, name, site, span_id, parent, start, end, covered, failed, extra):
        duration = end - start
        self_s = duration - covered
        self.spans.append((self.op_id, span_id, parent[0] if parent else 0, name, start, end, self_s))
        s = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "errors": 0})
        s["calls"] += 1
        s["self_s"] += self_s
        s["total_s"] += duration
        s["errors"] += int(failed)
        s[f"calls_from.{site}"] = s.get(f"calls_from.{site}", 0) + 1
        for key, value in extra.items():
            s[key] = s.get(key, 0) + value

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for op, span, parent, name, start, end, self_s in self.spans:
                fh.write(json.dumps({"op": op, "id": span, "parent": parent, "name": name,
                                     "start": start, "end": end, "self_s": self_s}) + "\n")
