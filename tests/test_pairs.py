"""bench/pairs.py's summary of benchmark pairs, on fixed numbers (no benchmark runs)."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "bench" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pairs = _load_pairs()
OP_S = {"name": "op_s.p50.host_norm", "unit": "s", "better": "lower", "bound": 0.2}
ACC = {"name": "acc_all.bape_adjust", "unit": "ratio", "better": "higher", "bound": 0.1}
PARENT = [0.30, 0.32, 0.31, 0.33, 0.29, 0.34, 0.30, 0.31, 0.32, 0.33]
CHANGE = [0.24, 0.25, 0.23, 0.26, 0.24, 0.25, 0.31, 0.24, 0.23, 0.25]  # worse in the seventh pair only


def test_a_gain_in_nine_of_ten_pairs_beyond_the_parents_spread():
    s = pairs.summarize(OP_S, PARENT, CHANGE)
    assert s["parent"] == pytest.approx((0.3025, 0.315, 0.3275))
    assert s["change"] == pytest.approx((0.24, 0.245, 0.25))
    assert (s["wins"], s["pairs"], s["gain"]) == (9, 10, True)
    assert s["relative"] == pytest.approx(0.245 / 0.315 - 1.0)


def test_eight_wins_in_ten_show_no_gain():
    change = CHANGE[:-1] + [0.40]
    s = pairs.summarize(OP_S, PARENT, change)
    assert (s["wins"], s["gain"]) == (8, False)


def test_a_median_gap_inside_the_parents_spread_shows_no_gain():
    change = [p - 0.001 for p in PARENT]
    s = pairs.summarize(OP_S, PARENT, change)
    assert (s["wins"], s["gain"]) == (10, False)


def test_ties_count_for_neither_and_higher_can_be_better():
    s = pairs.summarize(ACC, [0.6, 0.6, 0.6], [0.6, 0.7, 0.5])
    assert (s["wins"], s["gain"], s["relative"]) == (1, False, 0.0)


def test_report_prints_every_pair_and_the_verdict():
    text = pairs.report(OP_S, list(range(801, 811)), PARENT, CHANGE)
    lines = text.splitlines()
    assert lines[0] == "op_s.p50.host_norm (s, lower is better, bound 0.2)"
    assert lines[1] == "  seed 801: 0.3 -> 0.24"
    assert lines[-3] == "  median 0.315 (quartiles 0.3025-0.3275) -> 0.245 (0.24-0.25), -22.22%"
    assert lines[-2] == "  change better in 9 of 10 pairs; gap beyond the parent's IQR 0.025: yes"
    assert lines[-1] == "  worse by more than the bound 20%, the parent's IQR 7.94% of its median: no regression"


SETUP_S = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}


@pytest.mark.parametrize("metric, parent, change, verdict", [
    # The parent's IQR is 7.9% of its median, inside the 20% bound.
    (OP_S, PARENT, [1.19 * p for p in PARENT], "no regression"),  # 19% slower
    (OP_S, PARENT, [1.21 * p for p in PARENT], "regression"),  # 21% slower
    (OP_S, PARENT, CHANGE, "no regression"),  # faster
    (ACC, [0.60] * 5, [0.55] * 5, "no regression"),  # 8.3% lower, inside the 10% bound
    (ACC, [0.60] * 5, [0.53] * 5, "regression"),  # 11.7% lower: higher is better
    # The parent's IQR, 0.35-0.6 around a median of 0.4, is 62.5% of its median, wider than the
    # 25% bound, as FOUND 28's setup_s spread can be.
    (SETUP_S, [0.3, 0.4, 0.7, 0.35, 0.6], [0.36, 0.38, 0.37, 0.39, 0.35], "unresolved"),  # in its spread
    (SETUP_S, [0.3, 0.4, 0.7, 0.35, 0.6], [0.9, 0.8, 0.85, 0.95, 1.0], "unresolved"),  # even past the bound
    (SETUP_S, [0.3, 0.4, 0.7, 0.35, 0.6], [0.29, 0.2, 0.25, 0.28, 0.1], "no regression"),  # beats every run
    (SETUP_S, [0.3, 0.4, 0.7, 0.35, 0.6], [0.29, 0.2, 0.3, 0.28, 0.1], "unresolved"),  # a tie beats none
])
def test_the_regression_verdict(metric, parent, change, verdict):
    assert pairs.summarize(metric, parent, change)["verdict"] == verdict


def test_reads_the_end_to_end_metrics_of_the_benchmark():
    names = [m["name"] for m in pairs.end_to_end_metrics(str(ROOT))]
    assert names == [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    assert "op_s.p50.host_norm" in names


def test_failed_ops_sum_over_runs_and_compare_as_shares():
    runs = [{"failed": 1, "attempted": 120}, {"failed": 0, "attempted": 80}]
    assert pairs.failed_ops(runs) == (1, 200)
    assert pairs.fails_more((0, 200), (1, 200))
    assert not pairs.fails_more((1, 200), (1, 200))
    assert not pairs.fails_more((2, 400), (1, 200))  # the same share
    assert not pairs.fails_more((1, 100), (0, 50))
    assert pairs.fails_more((1, 300), (1, 200))


def test_more_failed_ops_show_no_gain():
    s = pairs.summarize(OP_S, PARENT, CHANGE, more_failures=True)
    assert (s["wins"], s["pairs"], s["gain"]) == (9, 10, False)
    text = pairs.report(OP_S, list(range(801, 811)), PARENT, CHANGE, more_failures=True)
    assert text.splitlines()[-2] == ("  change better in 9 of 10 pairs; gap beyond the parent's IQR 0.025, "
                                     "more failed ops: no")


def _fake_runs(monkeypatch, failed, correct=None):
    """Replace the runner with one that returns fixed result lines: the op
    time from PARENT or CHANGE, `failed[side]` failed ops of 100, and
    correct unless the run is `correct`'s (side, pair index)."""
    count = {"parent": 0, "change": 0}

    def run_once(tree, workload, seed, seconds):
        side = "parent" if tree == "P" else "change"
        i = count[side]
        count[side] += 1
        value = (PARENT if side == "parent" else CHANGE)[i]
        return {"correct": (side, i) != correct, "attempted": 100, "failed": failed[side],
                "metrics": {OP_S["name"]: {"value": value, "unit": "s"}}}, {}

    monkeypatch.setattr(pairs, "end_to_end_metrics", lambda tree: [OP_S])
    monkeypatch.setattr(pairs, "run_once", run_once)
    return ["--parent", "P", "--change", "C", "--workload", "w", "--first-seed", "801"]


def test_an_incorrect_run_exits_1_naming_it(monkeypatch, capsys):
    argv = _fake_runs(monkeypatch, {"parent": 0, "change": 0}, correct=("change", 1))
    assert pairs.main(argv) == 1
    out, err = capsys.readouterr()
    assert err == "error: pair 2 seed 802 change is not correct; no verdict is given\n"
    assert "median" not in out


def test_failed_ops_are_printed_and_more_of_them_deny_the_gain(monkeypatch, capsys):
    argv = _fake_runs(monkeypatch, {"parent": 0, "change": 1})
    assert pairs.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "failed ops: parent 0/1000, change 10/1000" in lines
    assert lines[-2].endswith(", more failed ops: no")
    argv = _fake_runs(monkeypatch, {"parent": 1, "change": 1})
    assert pairs.main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-2].endswith("0.025: yes")


def _git(tree, *args) -> str:
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args], cwd=tree,
                          check=True, capture_output=True, text=True).stdout.strip()


def test_each_tree_is_named_by_its_head_and_whether_it_differs(tmp_path):
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "a.txt").write_text("1")
    _git(tree, "init", "-q")
    _git(tree, "add", "a.txt")
    _git(tree, "commit", "-q", "-m", "one")
    head = _git(tree, "rev-parse", "HEAD")
    assert pairs.describe_tree(str(tree)) == f"HEAD {head}, tracked files as in HEAD"
    (tree / "b.txt").write_text("untracked files do not count")
    assert pairs.describe_tree(str(tree)) == f"HEAD {head}, tracked files as in HEAD"
    (tree / "a.txt").write_text("2")
    assert pairs.describe_tree(str(tree)) == f"HEAD {head}, tracked files differ from HEAD"
    # A directory inside a checkout, and one in none (as a `git archive` copy), are not checkouts.
    (tree / "sub").mkdir()
    assert pairs.describe_tree(str(tree / "sub")) == "not a git checkout"
    assert pairs.describe_tree(str(tmp_path)) == "not a git checkout"
    assert pairs.describe_tree(str(tmp_path / "missing")) == "not a git checkout"


def test_the_trees_are_named_before_the_first_pair(monkeypatch, capsys):
    argv = _fake_runs(monkeypatch, {"parent": 0, "change": 0})
    assert pairs.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["parent tree P: not a git checkout", "change tree C: not a git checkout",
                         "pair 1 seed 801 parent: correct=True failed=0/100"]
