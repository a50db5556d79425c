"""End-to-end tests of the command-line interface and its exit codes."""

import json
import struct

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from spherebayes.classifier import from_json
from spherebayes.baselines import linear_from_json
from spherebayes.cli import main
from spherebayes.datagen import Dataset, LongTailSpec, generate, read_features, write_features


@pytest.fixture()
def workspace(tmp_path):
    """A generated train/test pair shared by the command tests."""
    train = tmp_path / "train.bin"
    test = tmp_path / "test.bin"
    code = main(
        [
            "generate",
            "--classes", "4",
            "--dim", "6",
            "--head-size", "60",
            "--gamma", "10",
            "--kappa-range", "8,25",
            "--seed", "1",
            "--out", str(train),
            "--test-out", str(test),
            "--test-per-class", "40",
        ]
    )
    assert code == 0
    return tmp_path, train, test


class TestGenerate:
    def test_writes_readable_files(self, workspace):
        tmp, train, test = workspace
        train_ds = read_features(train)
        test_ds = read_features(test)
        assert train_ds.dim == 6
        assert train_ds.n_classes == 4
        assert train_ds.class_counts[0] == 60
        assert_array_equal(test_ds.class_counts, 40)

    def test_csv_output(self, tmp_path):
        out = tmp_path / "data.csv"
        assert main(["generate", "--classes", "3", "--dim", "4",
                     "--head-size", "10", "--out", str(out)]) == 0
        assert out.read_text().startswith("label,f0,f1,f2,f3\n")
        assert read_features(out).n_classes == 3

    def test_bad_domain_is_exit_1(self, tmp_path, capsys):
        code = main(["generate", "--gamma", "0.5", "--out", str(tmp_path / "x.bin")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unwritable_path_is_exit_2(self, tmp_path):
        out = tmp_path / "missing" / "dir" / "x.bin"
        assert main(["generate", "--out", str(out)]) == 2


class TestFit:
    def test_bape_round_trip(self, workspace):
        tmp, train, test = workspace
        out = tmp / "clf.json"
        code = main(["fit", "--model", "bape", "--train", str(train), "--out", str(out)])
        assert code == 0
        clf = from_json(out.read_text())
        assert clf.n_classes == 4
        assert clf.dim == 6
        assert_allclose(np.linalg.norm(clf.mus, axis=1), 1.0, atol=1e-9)

    def test_bape_with_prior_and_exact_estimation(self, workspace):
        tmp, train, _ = workspace
        out = tmp / "clf.json"
        code = main(
            [
                "fit", "--model", "bape",
                "--alpha-hat", "40", "--beta-hat", "8",
                "--estimation", "exact",
                "--train", str(train), "--out", str(out),
            ]
        )
        assert code == 0
        assert from_json(out.read_text()).n_classes == 4

    def test_linear_models(self, workspace):
        tmp, train, _ = workspace
        for model in ("softmax", "logit_adjusted"):
            out = tmp / f"{model}.json"
            code = main(
                ["fit", "--model", model, "--epochs", "3", "--train", str(train),
                 "--out", str(out)]
            )
            assert code == 0
            clf = linear_from_json(out.read_text())
            assert clf.W.shape == (4, 6)

    def test_missing_train_file_is_exit_2(self, tmp_path):
        code = main(["fit", "--train", str(tmp_path / "nope.bin"),
                     "--out", str(tmp_path / "c.json")])
        assert code == 2

    def test_corrupt_train_file_is_exit_2(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"BAPF" + b"\x01\x00\x00\x00" + b"\xff" * 4)
        code = main(["fit", "--train", str(bad), "--out", str(tmp_path / "c.json")])
        assert code == 2

    def test_invalid_flag_value_is_exit_1(self, workspace):
        tmp, train, _ = workspace
        code = main(["fit", "--model", "softmax", "--lr", "-1",
                     "--train", str(train), "--out", str(tmp / "c.json")])
        assert code == 1


class TestEval:
    def _fit(self, workspace, model="bape", extra=()):
        tmp, train, test = workspace
        out = tmp / f"eval-{model}.json"
        assert main(["fit", "--model", model, *extra,
                     "--train", str(train), "--out", str(out)]) == 0
        return out

    def test_scores_to_stdout(self, workspace, capsys):
        tmp, train, test = workspace
        clf = self._fit(workspace)
        code = main(
            ["eval", "--classifier", str(clf), "--data", str(test),
             "--split-counts-from", str(train)]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"all", "many", "medium", "few"}
        assert 0.0 <= doc["all"] <= 1.0

    def test_adjusted_eval_moves_the_scores(self, workspace, capsys):
        tmp, train, test = workspace
        clf = self._fit(workspace)
        args = ["eval", "--classifier", str(clf), "--data", str(test),
                "--split-counts-from", str(train)]
        assert main(args) == 0
        plain = json.loads(capsys.readouterr().out)
        assert main(args + ["--adjust-priors", "uniform"]) == 0
        adjusted = json.loads(capsys.readouterr().out)
        assert plain != adjusted  # balanced test set: rebalancing matters

    def test_prior_sources(self, workspace, capsys):
        tmp, train, test = workspace
        clf = self._fit(workspace)
        base = ["eval", "--classifier", str(clf), "--data", str(test)]
        assert main(base + ["--adjust-priors", "imbalance:10"]) == 0
        capsys.readouterr()
        priors = tmp / "priors.json"
        priors.write_text(json.dumps([0.4, 0.3, 0.2, 0.1]))
        assert main(base + ["--adjust-priors", f"file:{priors}"]) == 0
        capsys.readouterr()
        assert main(base + ["--adjust-priors", "imbalance:0.5"]) == 1
        assert main(base + ["--adjust-priors", "zipf"]) == 1

    def test_kappa_modes(self, workspace, capsys):
        tmp, train, test = workspace
        clf = self._fit(workspace)
        base = ["eval", "--classifier", str(clf), "--data", str(test),
                "--adjust-priors", "uniform"]
        assert main(base + ["--kappa-mode", "shared-mean"]) == 0
        capsys.readouterr()
        assert main(base + ["--kappa-mode", "fixed:15"]) == 0
        capsys.readouterr()
        assert main(base + ["--kappa-mode", "median"]) == 1

    def test_linear_classifier_eval(self, workspace, capsys):
        tmp, train, test = workspace
        clf = self._fit(workspace, model="softmax", extra=("--epochs", "3"))
        assert main(["eval", "--classifier", str(clf), "--data", str(test)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert 0.0 <= doc["all"] <= 1.0
        # adjustment flags are a bape-only feature
        assert main(["eval", "--classifier", str(clf), "--data", str(test),
                     "--adjust-priors", "uniform"]) == 1

    def test_writes_to_file(self, workspace):
        tmp, train, test = workspace
        clf = self._fit(workspace)
        out = tmp / "scores.json"
        assert main(["eval", "--classifier", str(clf), "--data", str(test),
                     "--out", str(out)]) == 0
        assert set(json.loads(out.read_text())) == {"all", "many", "medium", "few"}

    def test_missing_classifier_is_exit_2(self, workspace):
        tmp, train, test = workspace
        assert main(["eval", "--classifier", str(tmp / "none.json"),
                     "--data", str(test)]) == 2


    def test_split_counts_with_fewer_classes_is_exit_1(self, workspace, capsys):
        tmp, train, test = workspace
        clf = self._fit(workspace)
        ds = read_features(train)
        fewer = tmp / "fewer.bin"
        keep = ds.labels < 3
        write_features(fewer, Dataset(ds.features[keep], ds.labels[keep], ds.class_counts[:3]))
        code = main(["eval", "--classifier", str(clf), "--data", str(test),
                     "--split-counts-from", str(fewer)])
        assert code == 1
        assert "4 classes" in capsys.readouterr().err


def _train_without_last_class(tmp_path, train_name):
    """A six-class mixture: train file without class 5 (named by suffix),
    test file with all six."""
    full, _ = generate(LongTailSpec(6, 40, 5.0), 6, seed=2)
    keep = full.labels < 5
    counts = full.class_counts.copy()
    counts[5] = 0
    train_path, test_path = tmp_path / train_name, tmp_path / "test.bin"
    write_features(train_path, Dataset(full.features[keep], full.labels[keep], counts))
    write_features(test_path, full)
    return train_path, test_path


class TestCompare:
    def test_full_run_to_file(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(
            json.dumps(
                {
                    "seeds": [0],
                    "n_classes": 4,
                    "dim": 6,
                    "head_size": 40,
                    "gamma": 10.0,
                    "kappa_range": [8, 25],
                    "test_per_class": 30,
                    "epochs": 3,
                }
            )
        )
        out = tmp_path / "report.json"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert sorted(r["method"] for r in doc) == sorted(
            ["bape", "bape+adjust", "softmax", "logit_adjusted", "ensemble", "oracle"]
        )

    def test_csv_to_stdout(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "seeds": [0], "n_classes": 3, "dim": 4, "head_size": 20,
            "gamma": 5.0, "test_per_class": 20, "epochs": 2,
            "methods": ["bape", "oracle"],
        }))
        assert main(["compare", "--config", str(cfg), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("method,seed,acc_all")
        assert len(lines) == 3

    def test_bad_config_key_is_exit_1(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"seeds": [0], "optimizer": "adam"}))
        assert main(["compare", "--config", str(cfg)]) == 1

    def test_missing_config_is_exit_2(self, tmp_path):
        assert main(["compare", "--config", str(tmp_path / "none.json")]) == 2

    def test_empty_trailing_class_in_train_file(self, tmp_path):
        # Class 5 is declared by the file header but has no training rows:
        # every method must still score all six classes.
        train_path, test_path = _train_without_last_class(tmp_path, "train.bin")
        methods = ["bape", "bape+adjust", "softmax", "logit_adjusted", "ensemble"]
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "seeds": [0], "methods": methods, "epochs": 2,
            "train_file": str(train_path), "test_file": str(test_path),
        }))
        out = tmp_path / "report.json"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert sorted(r["method"] for r in rows) == sorted(methods)
        assert all(0.0 <= r["acc_all"] <= 1.0 for r in rows)


    def test_train_file_with_fewer_classes_is_exit_1(self, tmp_path, capsys):
        # A CSV file has no class-count field, so it reads back as 5 classes
        # while the binary test file holds 6.
        train_path, test_path = _train_without_last_class(tmp_path, "train.csv")
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "seeds": [0], "methods": ["bape", "softmax"], "epochs": 2,
            "train_file": str(train_path), "test_file": str(test_path),
        }))
        assert main(["compare", "--config", str(cfg)]) == 1
        assert "span 6 classes, the training counts 5" in capsys.readouterr().err

    def test_singleton_tail_class_is_excluded(self, tmp_path, capsys):
        # At gamma=500 the tail class keeps one training sample, whose
        # concentration is unbounded under alpha_hat=0; bape excludes it.
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "seeds": [0], "gamma": 500.0, "methods": ["bape", "bape+adjust"],
        }))
        assert main(["compare", "--config", str(cfg)]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert sorted(r["method"] for r in rows) == ["bape", "bape+adjust"]
        assert all(0.0 < r["acc_all"] < 1.0 for r in rows)


class TestDumpEmbeddings:
    def test_reencodes_binary_as_csv(self, workspace):
        tmp, train, test = workspace
        out = tmp / "dump.csv"
        assert main(["dump-embeddings", "--data", str(train), "--out", str(out)]) == 0
        back = read_features(out)
        orig = read_features(train)
        assert_array_equal(back.features, orig.features)
        assert_array_equal(back.labels, orig.labels)

    def test_oversized_header_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "huge.bin"
        bad.write_bytes(b"BAPF" + struct.pack("<IIII", 1, 0xFFFFFFFF, 0xFFFFFFFF, 3) + b"\0" * 64)
        assert main(["dump-embeddings", "--data", str(bad), "--out", str(tmp_path / "x.csv")]) == 2
        assert "header declares" in capsys.readouterr().err

    def test_requires_csv_suffix(self, workspace):
        tmp, train, test = workspace
        assert main(["dump-embeddings", "--data", str(train),
                     "--out", str(tmp / "dump.bin")]) == 1


class TestUsageErrors:
    def test_unknown_subcommand_is_exit_1(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_missing_required_flag_is_exit_1(self, capsys):
        assert main(["generate"]) == 1
        capsys.readouterr()

    def test_bad_choice_is_exit_1(self, workspace, capsys):
        tmp, train, _ = workspace
        assert main(["fit", "--model", "tree", "--train", str(train),
                     "--out", str(tmp / "c.json")]) == 1
        capsys.readouterr()
