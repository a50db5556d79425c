"""The README's examples run as written, so the README cannot drift from the code."""

import json
import re
from pathlib import Path

from spherebayes.cli import main
from spherebayes.harness import METHODS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(after: str, language: str) -> str:
    """The first fenced block of `language` that follows the line `after`."""
    match = re.search(rf"^{re.escape(after)}\n\n```{language}\n(.*?)^```$", README, re.M | re.S)
    assert match, f"README has no {language} block after {after!r}"
    return match.group(1)


def test_quick_start_runs():
    namespace = {}
    exec(compile(_block("Quick start:", "python"), "README.md", "exec"), namespace)
    # The rebalanced fit scores 0.668 on the balanced test set.
    assert 0.5 < namespace["accuracy"] < 0.8


def test_minimal_compare_config_runs(tmp_path, capsys):
    config = json.loads(_block("A minimal `compare` config:", "json"))
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(config))
    assert main(["compare", "--config", str(path)]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert sorted((row["method"], row["seed"]) for row in rows) == sorted(
        (method, seed) for method in METHODS for seed in config["seeds"])
