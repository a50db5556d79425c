"""The README's examples run as written, so the README cannot drift from the code."""

import json
import re
import shlex
from dataclasses import fields
from pathlib import Path

from spherebayes.cli import main
from spherebayes.harness import METHODS, ExperimentConfig

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


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    # Each command of the "Command line" block, its continuation lines
    # joined, run in one directory; `compare` reads the minimal config.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "experiment.json").write_text(_block("A minimal `compare` config:", "json"))
    text = _block("Five subcommands; `spherebayes <sub> --help` shows every flag.", "sh").replace("\\\n", " ")
    commands = [shlex.split(line) for line in text.splitlines() if line.strip() and not line.startswith("#")]
    assert [argv[:2] for argv in commands] == [["spherebayes", sub] for sub in
                                              ("generate", "fit", "eval", "compare", "dump-embeddings")]
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    assert capsys.readouterr().err == ""
    for name in ("train.bapf", "test.bapf", "model.json", "report.csv", "train.csv"):
        assert (tmp_path / name).stat().st_size > 0


def test_every_config_key_is_named():
    assert [f.name for f in fields(ExperimentConfig) if f"`{f.name}`" not in README] == []
