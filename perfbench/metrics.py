"""Metric names, units and how each is derived from worker results.

End-to-end metrics come from an untraced run; per-layer metrics from the
span counters of a traced run (see tracer.py). BENCHMARK.json lists the same
names and units; smoke.py checks that they agree.
"""

from __future__ import annotations

import math
import statistics

# Reported in the result line and bounded in BENCHMARK.json: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_s.p50.host_norm": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "acc_all.bape_adjust": ("ratio", "higher"),
    "acc_few.bape_adjust": ("ratio", "higher"),
}
# Printed only. On a small shared VM the host alternates between fast and
# slow phases lasting 10-60 s, so the wall-clock figures spread too much
# across runs to carry a bound, and so does the normalised tail, which rests
# on the few slowest ops (see README.md).
PRINTED = {"ops_per_s": "op/s", "op_s.p50": "s", "op_s.tail": "s", "op_s.tail.host_norm": "s"}


def tail(latencies: list[float]) -> tuple[float, int]:
    """Latency at the highest whole percentile with at least ten ops beyond it
    (p50 at least), and that percentile."""
    q = max(50, math.floor(100.0 * (1.0 - 10.0 / len(latencies))))
    if len(latencies) < 2:
        return latencies[0], q
    return statistics.quantiles(latencies, n=100, method="inclusive")[q - 1], q


def _ok(r: dict) -> bool:
    return r["error"] is None and r["mismatch"] is None


def _ops_per_s(result: dict) -> float:
    """Successful ops per second of time spent inside cli.main (all ops)."""
    busy = sum(r["s"] for r in result["ops"])
    return sum(map(_ok, result["ops"])) / busy if busy else 0.0


def end_to_end(setups: list[float], main: dict) -> tuple[dict, dict]:
    """Metric values (name -> value) and notes for the human-readable lines."""
    ops = main["ops"]
    ok = [r for r in ops if _ok(r)]
    latencies = sorted(r["s"] for r in ok)
    # An op's time over the reference kernel's time just before it, times the
    # kernel's nominal time: the op's time on a host where the kernel takes
    # its nominal time (see worker.ReferenceKernel).
    normed = sorted(main["kernel_ref_s"] * r["s"] / r["kernel_s"] for r in ok)
    kernel = [r["kernel_s"] for r in ok]
    tail_s, q = tail(latencies) if latencies else (0.0, 50)
    acc = main["accuracy"]
    values = {
        "setup_s": statistics.median(setups),
        "op_s.p50.host_norm": statistics.median(normed) if normed else 0.0,
        "peak_rss_mb": main["peak_rss_mb"],
        "acc_all.bape_adjust": statistics.fmean(a for a, _ in acc) if acc else 0.0,
        "acc_few.bape_adjust": statistics.fmean(f for _, f in acc) if acc else 0.0,
        "ops_per_s": _ops_per_s(main),
        "op_s.p50": statistics.median(latencies) if latencies else 0.0,
        "op_s.tail": tail_s,
        "op_s.tail.host_norm": tail(normed)[0] if normed else 0.0,
    }
    busy = sum(r["s"] for r in ops)
    kernel_note = (f"reference kernel before each op: median {statistics.median(kernel):.4f} s, "
                   f"range {min(kernel):.4f}-{max(kernel):.4f} s, nominal {main['kernel_ref_s']} s") if kernel else ""
    notes = {
        "setup_s": "median of %d fresh processes: %s" % (len(setups), ", ".join(f"{s:.3f}" for s in setups)),
        "op_s.p50.host_norm": f"over {len(ok)} ok ops; {kernel_note}",
        "peak_rss_mb": "max resident set of the measuring process",
        "acc_all.bape_adjust": f"mean over {len(acc)} gamma=100 inputs",
        "acc_few.bape_adjust": f"mean over {len(acc)} gamma=100 inputs",
        "ops_per_s": f"{len(ok)} ok of {len(ops)} ops over {busy:.3f} s inside cli.main",
        "op_s.p50": f"over {len(latencies)} ok ops",
        "op_s.tail": f"p{q} over {len(latencies)} ok ops",
        "op_s.tail.host_norm": f"p{q} over {len(latencies)} ok ops",
    }
    return values, notes


# Per-layer metrics: (name, unit, kind, span name, extra key)
#   calls / errors / <extra>: summed counters of the span name;
#   self_s: summed self time; us_per_call: self time per call;
#   per_s: extra counter per second of inclusive span time;
#   per_total: inclusive time per unit of the extra counter.
def _layer_table():
    t = []

    def add(span, stats):
        for stat in stats:
            kind, extra, unit = {
                "calls": ("calls", None, "count"),
                "errors": ("errors", None, "count"),
                "self_s": ("self_s", None, "s"),
                "us_per_call": ("us_per_call", None, "us"),
                "rows": ("counter", "rows", "count"),
                "bytes": ("counter", "bytes", "B"),
                "rows_per_s": ("per_s", "rows", "rows/s"),
                "MB_per_s": ("per_s", "bytes", "MB/s"),
                "s_per_epoch": ("per_total", "epochs", "s"),
                "floor_ratio": ("floor_ratio", None, "ratio"),
            }[stat]
            t.append((f"{span}.{stat}", unit, kind, span, extra))

    add("special.log_vmf_normalizer", ("calls", "self_s"))
    for regime in ("series", "asymptotic"):
        add(f"special.log_bessel_i.{regime}", ("calls", "us_per_call"))
    add("special.bessel_ratio", ("calls", "us_per_call"))
    add("special.mean_resultant_ratio", ("calls", "self_s"))
    add("vmf.sample", ("calls", "self_s", "rows_per_s"))
    add("vmf.as_unit_vector", ("calls", "self_s", "rows"))
    add("vmf.substream", ("calls", "self_s"))
    add("estimation.update_stats", ("calls", "self_s"))
    add("estimation.posterior", ("calls", "self_s"))
    for mode in ("approx", "exact"):
        add(f"estimation.map_estimate.{mode}", ("calls", "self_s"))
    t.append(("estimation.exact.ratio_evals_per_solve", "count", "ratio_evals", None, None))
    add("priors.build_etf", ("calls", "self_s"))
    add("priors.grad_step_m0", ("calls", "self_s"))
    add("classifier.fit", ("calls", "self_s", "rows_per_s"))
    add("classifier.BayesClassifier", ("calls", "self_s"))
    add("classifier.predict", ("calls", "self_s", "rows_per_s", "floor_ratio"))
    for fn in ("log_posterior", "adjust"):
        add(f"classifier.{fn}", ("calls", "self_s"))
    for fn in ("to_json", "from_json"):
        add(f"classifier.{fn}", ("self_s",))
    add("baselines.train", ("calls", "self_s", "s_per_epoch", "rows_per_s"))
    add("baselines.predict_linear", ("calls", "self_s"))
    add("datagen.generate", ("self_s",))
    add("datagen.sample_dataset", ("calls", "self_s", "rows_per_s"))
    add("datagen.oracle_accuracy", ("self_s",))
    for fn in ("write_features", "read_features"):
        for fmt in ("binary", "csv"):
            add(f"datagen.{fn}.{fmt}", ("self_s", "bytes", "MB_per_s"))
    for fn in ("run_experiment", "m0_loss_gradients"):
        add(f"harness.{fn}", ("calls", "self_s"))
    for fn in ("split_accuracy", "emit_report"):
        add(f"harness.{fn}", ("self_s",))
    for sub in ("generate", "fit", "eval", "compare", "dump-embeddings"):
        add(f"cli.main.{sub}", ("calls", "self_s", "errors"))
    return t


PER_LAYER = _layer_table()
TRACE_OVERHEAD = {
    "trace.ops_per_s": "op/s",
    "trace.untraced_ops_per_s": "op/s",
    "trace.overhead_ratio": "ratio",
}


def per_layer(traced: dict, untraced: dict) -> dict:
    """Metric values (name -> value) from a traced and an untraced pass."""
    stats = traced["layer_stats"]

    def get(span, key):
        return stats.get(span, {}).get(key, 0)

    values = {}
    for name, _unit, kind, span, extra in PER_LAYER:
        total = get(span, "total_s")
        if kind in ("calls", "errors", "self_s"):
            v = get(span, kind)
        elif kind == "counter":
            v = get(span, extra)
        elif kind == "us_per_call":
            v = 1e6 * get(span, "self_s") / get(span, "calls") if get(span, "calls") else 0.0
        elif kind == "per_s":
            scale = 1e-6 if extra == "bytes" else 1.0
            v = scale * get(span, extra) / total if total else 0.0
        elif kind == "per_total":
            v = total / get(span, extra) if get(span, extra) else 0.0
        elif kind == "floor_ratio":
            v = total / get(span, "floor_s") if get(span, "floor_s") else 0.0
        else:  # ratio_evals: ratio calls from estimation's namespace per exact solve
            solves = get("estimation.map_estimate.exact", "calls")
            v = get("special.mean_resultant_ratio", "calls_from.estimation") / solves if solves else 0.0
        values[name] = v
    traced_rate, untraced_rate = _ops_per_s(traced), _ops_per_s(untraced)
    values["trace.ops_per_s"] = traced_rate
    values["trace.untraced_ops_per_s"] = untraced_rate
    values["trace.overhead_ratio"] = untraced_rate / traced_rate - 1.0 if traced_rate else 0.0
    return values


def units() -> dict:
    out = {name: unit for name, (unit, _) in END_TO_END.items()}
    out.update(PRINTED)
    out.update({name: unit for name, unit, *_ in PER_LAYER})
    out.update(TRACE_OVERHEAD)
    return out
