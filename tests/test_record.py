"""bench/record.py's BENCH_<pr>.json record, on fixed run results (no benchmark runs)."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_record():
    sys.path.insert(0, str(ROOT / "bench"))  # record imports its runner from pairs
    try:
        spec = importlib.util.spec_from_file_location("bench_record", ROOT / "bench" / "record.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return module


record = _load_record()
OP_S = {"name": "op_s.p50.host_norm", "unit": "s", "better": "lower", "bound": 0.2}
RSS = {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}
ENV = {"blas": "openblas", "blas_threads": 1, "cpu_model": "cpu", "nproc": 2, "numpy": "2", "python": "3.11",
       "scipy": "1"}


def _result(op_s, failed=0, correct=True):
    return {"correct": correct, "attempted": 50, "failed": failed,
            "metrics": {"op_s.p50.host_norm": {"value": op_s, "unit": "s"}}}


def test_a_workload_records_each_metric_its_runs_report():
    s = record.summarize_workload([OP_S, RSS], [_result(0.2), _result(0.4, failed=2), _result(0.3)])
    assert (s["runs"], s["failed"], s["attempted"]) == (3, 2, 150)
    assert list(s["metrics"]) == ["op_s.p50.host_norm"]  # no run reports peak_rss_mb
    m = s["metrics"]["op_s.p50.host_norm"]
    assert (m["unit"], m["better"], m["values"]) == ("s", "lower", [0.2, 0.4, 0.3])
    assert (m["q1"], m["median"], m["q3"]) == pytest.approx((0.25, 0.3, 0.35))


def test_the_environment_drops_the_run_and_keeps_the_commit():
    envs = [dict(ENV, git_commit="abc", workload=w, seed=s) for w, s in (("lt-default", 1), ("lt-scale", 2))]
    assert record.environment(envs) == (ENV, "abc")
    with pytest.raises(ValueError, match="different environments"):
        record.environment(envs + [dict(ENV, nproc=4, git_commit="abc", workload="x", seed=1)])


def test_uncommitted_changes_are_false_outside_git(tmp_path):
    assert record.uncommitted(str(tmp_path)) is False


def _fake_runs(monkeypatch, tmp_path, incorrect=None, dirty=False):
    """Replace the runner with one that returns fixed result lines, correct
    unless the run is `incorrect`'s (workload, seed), and write into tmp_path."""
    calls = []

    def run_once(tree, workload, seed, seconds):
        calls.append((tree, workload, seed, seconds))
        return _result(0.1 * seed, correct=(workload, seed) != incorrect), dict(ENV, git_commit="abc",
                                                                                 workload=workload, seed=seed)

    monkeypatch.setattr(record, "ROOT", str(tmp_path))
    monkeypatch.setattr(record, "end_to_end_metrics", lambda tree: [OP_S, RSS])
    monkeypatch.setitem(record.checked_run.__globals__, "run_once", run_once)  # the runner pairs.py shares
    monkeypatch.setattr(record, "uncommitted", lambda tree: dirty)
    return calls


def test_writes_every_workload_on_the_fixed_seeds(monkeypatch, tmp_path, capsys):
    calls = _fake_runs(monkeypatch, tmp_path)
    assert record.main(["--pr", "7", "--repeats", "2", "--seconds", "5"]) == 0
    assert calls == [(str(tmp_path), w, s, 5.0) for w in record.WORKLOADS for s in (1, 2)]
    got = json.loads((tmp_path / "BENCH_7.json").read_text())
    assert (got["pr"], got["git_commit"], got["seeds"], got["env"]) == (7, "abc", [1, 2], ENV)
    assert list(got["workloads"]) == list(record.WORKLOADS)
    assert got["workloads"]["lt-scale"]["metrics"]["op_s.p50.host_norm"]["median"] == pytest.approx(0.15)
    assert capsys.readouterr().out.splitlines()[0] == "lt-default seed 1: correct=True failed=0/50"


def test_an_uncommitted_tree_names_no_commit(monkeypatch, tmp_path):
    _fake_runs(monkeypatch, tmp_path, dirty=True)
    assert record.main(["--pr", "7", "--repeats", "1"]) == 0
    assert json.loads((tmp_path / "BENCH_7.json").read_text())["git_commit"] is None


def test_an_incorrect_run_exits_1_and_writes_nothing(monkeypatch, tmp_path, capsys):
    _fake_runs(monkeypatch, tmp_path, incorrect=("lt-exact-m0", 2))
    assert record.main(["--pr", "7"]) == 1
    assert capsys.readouterr().err == "error: lt-exact-m0 seed 2 is not correct; nothing is recorded\n"
    assert not (tmp_path / "BENCH_7.json").exists()
