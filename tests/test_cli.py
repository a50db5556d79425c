"""End-to-end tests of the command-line interface and its exit codes."""

import json
import os
import signal
import struct
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from spherebayes.classifier import AdjustmentPolicy, ClassPriors, adjust, from_json, predict, to_json
from spherebayes.baselines import LinearClassifier, linear_from_json, linear_to_json
from spherebayes.cli import main
from spherebayes.harness import _HAND_OFF_VALUES
from spherebayes.datagen import (
    Dataset,
    LongTailSpec,
    class_sizes,
    generate,
    make_truth,
    read_features,
    sample_dataset,
    write_features,
)
from spherebayes.vmf import substream


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

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_empty_test_size_is_exit_1_and_named(self, tmp_path, capsys, size):
        code = main(["generate", "--classes", "3", "--dim", "4", "--head-size", "10", "--out", str(tmp_path / "tr.bin"),
                     "--test-out", str(tmp_path / "te.bin"), "--test-per-class", size])
        assert code == 1
        assert f"--test-per-class must be >= 1, got {size}" in capsys.readouterr().err
        assert not (tmp_path / "tr.bin").exists() and not (tmp_path / "te.bin").exists()


    @pytest.mark.parametrize("flag", ["--head-size", "--test-per-class", "--classes", "--dim"])
    def test_count_flag_past_int64_is_exit_1_and_named(self, tmp_path, capsys, flag):
        # --head-size and --test-per-class of 10**20 escaped as an
        # OverflowError traceback.
        argv = ["generate", "--classes", "3", "--dim", "4", "--head-size", "10", "--out", str(tmp_path / "tr.bin"),
                "--test-out", str(tmp_path / "te.bin")]
        assert main(argv + [flag, str(10**20)]) == 1
        assert f"error: argument {flag}: must be below 2**63, got {10**20}" in capsys.readouterr().err
        assert not (tmp_path / "tr.bin").exists()

    @pytest.mark.parametrize("flags, message", [
        pytest.param(["--head-size", str(2**63 - 513)], "n_classes and head_size give 10237942960908800048 rows",
                     id="head-size-wraps"),
        pytest.param(["--head-size", str(2**63 - 512)], "n_classes and head_size give 10237942960908801216 rows",
                     id="head-size-overflows"),
        pytest.param(["--test-per-class", str(2**62)], "--classes and --test-per-class give 13835058055282163712 rows",
                     id="test-per-class"),
        pytest.param(["--head-size", str(2**62)], "out of memory: 5118971480454400608 rows of 4 float32 features",
                     id="head-size-too-large-to-allocate"),
        pytest.param(["--test-per-class", str(2**61)], "out of memory: 6917529027641081856 rows of 4 float32 features",
                     id="test-per-class-too-large-to-allocate"),
    ])
    def test_row_total_past_int64_is_exit_1_before_any_file(self, tmp_path, capsys, flags, message):
        # numpy wrapped the totals into "negative dimensions are not allowed",
        # failed with an OverflowError traceback, or called the features "too
        # big"; a test size failed only after the training file was written.
        argv = ["generate", "--classes", "3", "--dim", "4", "--head-size", "10", "--out", str(tmp_path / "tr.bin"),
                "--test-out", str(tmp_path / "te.bin")]
        assert main(argv + flags) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "tr.bin").exists() and not (tmp_path / "te.bin").exists()

    @pytest.mark.parametrize("test_out", ["P", "./P", "sub/../P"])
    def test_one_file_for_both_sets_is_exit_1_before_any_draw(self, tmp_path, capsys, monkeypatch, test_out):
        # The test set was written over the training set, and the command
        # exited 0: P read back the 6 test rows, counts [2 2 2].
        import spherebayes.cli as cli

        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        monkeypatch.setattr(cli, "generate", lambda *args: pytest.fail("the training set was drawn"))
        code = main(["generate", "--classes", "3", "--dim", "4", "--head-size", "10", "--seed", "0",
                     "--test-per-class", "2", "--out", "P", "--test-out", test_out])
        assert code == 1
        assert capsys.readouterr().err == ("error: --out and --test-out name the same file, 'P': the test set "
                                           "would overwrite the training set\n")
        assert not (tmp_path / "P").exists()

    def test_negative_seed_is_exit_1_and_named(self, tmp_path, capsys):
        # This failed in the draw, with numpy's "expected non-negative integer".
        out = tmp_path / "x.bin"
        assert main(["generate", "--classes", "3", "--dim", "4", "--head-size", "10", "--seed", "-1",
                     "--out", str(out)]) == 1
        assert "error: argument --seed: must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dim", ["1", "5000"])
    def test_dim_outside_the_supported_range_is_exit_1_before_any_file(self, tmp_path, capsys, dim):
        # 5000 wrote files that fit and compare then rejected; 1 failed in
        # the draw as "unit vectors must have dimension >= 2", naming no flag.
        argv = ["generate", "--classes", "3", "--dim", dim, "--head-size", "10", "--out", str(tmp_path / "tr.bin"),
                "--test-out", str(tmp_path / "te.bin")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: --dim must be in [2, 4096], got {dim}\n"
        assert not (tmp_path / "tr.bin").exists() and not (tmp_path / "te.bin").exists()

    @pytest.mark.parametrize("kappa_range", ["5,inf", "5,2e6", "nan,5", "0,5"])
    def test_kappa_range_outside_the_supported_one_is_exit_1(self, tmp_path, capsys, kappa_range):
        # "5,inf" escaped as an OverflowError traceback from the draw, and
        # "5,2e6" failed or passed by the draw.
        out = tmp_path / "x.bin"
        code = main(["generate", "--classes", "3", "--dim", "4", "--head-size", "10",
                     "--kappa-range", kappa_range, "--out", str(out)])
        assert code == 1
        assert "kappa range must satisfy 0 < lo <= hi <= 1e+06" in capsys.readouterr().err
        assert not out.exists()


class TestFit:
    @pytest.mark.parametrize("model", ["bape", "softmax"])
    def test_negative_seed_is_exit_1_and_named(self, workspace, capsys, model):
        # bape without a prior frame never drew from the seed, so it fitted.
        tmp, train, _ = workspace
        out = tmp / "clf.json"
        assert main(["fit", "--model", model, "--seed", "-2", "--train", str(train), "--out", str(out)]) == 1
        assert "error: argument --seed: must be >= 0, got -2" in capsys.readouterr().err
        assert not out.exists()

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

    def test_prior_frame_is_checked_against_the_training_file(self, tmp_path, capsys):
        # Six classes need five dimensions for the prior frame; the config's
        # own frame rule sees only its generated-data defaults (K 20, p 32).
        train, out = tmp_path / "narrow.bapf", tmp_path / "clf.json"
        assert main(["generate", "--classes", "6", "--dim", "3", "--head-size", "10", "--out", str(train)]) == 0
        code = main(["fit", "--alpha-hat", "1", "--beta-hat", "0.5", "--train", str(train), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert ("error: --beta-hat > 0 builds an equiangular prior frame of 6 directions, which needs "
                "training features of dimension >= 5, got 3") in err
        assert not out.exists()
        # Without the prior, or with a linear head, the file fits.
        assert main(["fit", "--alpha-hat", "1", "--train", str(train), "--out", str(out)]) == 0
        assert main(["fit", "--model", "softmax", "--alpha-hat", "1", "--beta-hat", "0.5", "--epochs", "1",
                     "--train", str(train), "--out", str(out)]) == 0

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

    @pytest.mark.parametrize("model", ["softmax", "logit_adjusted"])
    @pytest.mark.parametrize("flag, value", [("--weight-decay", "nan"), ("--temperature", "inf")])
    def test_non_finite_training_flag_is_exit_1_and_named(self, workspace, capsys, model, flag, value):
        tmp, train, _ = workspace
        out = tmp / "c.json"
        code = main(["fit", "--model", model, flag, value, "--train", str(train), "--out", str(out)])
        assert code == 1
        assert f"{flag[2:].replace('-', '_')} must be " in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize("content", ['{"a": 0.5}', '[0.5, {"x": 1}, 0.2, 0.3]', '[true, 0.4, 0.3, 0.3]',
                                         '["0.25", 0.25, 0.25, 0.25]', '[[0.5], 0.2, 0.2, 0.1]', '0.25'])
    def test_prior_file_that_is_not_a_list_of_numbers_is_exit_1(self, workspace, capsys, content):
        # An object or a non-number escaped as a TypeError traceback.
        tmp, train, test = workspace
        clf = self._fit(workspace)
        priors = tmp / "p.json"
        priors.write_text(content)
        code = main(["eval", "--classifier", str(clf), "--data", str(test), "--adjust-priors", f"file:{priors}"])
        assert code == 1
        assert f"error: prior file {priors} must hold a JSON list of numbers" in capsys.readouterr().err

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
        # An infinite fixed kappa failed only inside the scoring, one above
        # MAX_KAPPA inside the normalizer; both fail as flags now.
        for bad in ("inf", "2e6", "nan", "0"):
            assert main(base + ["--kappa-mode", f"fixed:{bad}"]) == 1
            assert "requires 0 < fixed_kappa <= 1e+06" in capsys.readouterr().err

    def test_linear_classifier_eval(self, workspace, capsys):
        tmp, train, test = workspace
        clf = self._fit(workspace, model="softmax", extra=("--epochs", "3"))
        assert main(["eval", "--classifier", str(clf), "--data", str(test)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert 0.0 <= doc["all"] <= 1.0
        # adjustment flags are a bape-only feature
        assert main(["eval", "--classifier", str(clf), "--data", str(test),
                     "--adjust-priors", "uniform"]) == 1

    def test_linear_model_on_data_of_another_width_is_exit_1(self, workspace, capsys):
        # This exited 1 with numpy's "matmul: Input operand 1 has a mismatch".
        tmp, train, test = workspace
        clf = self._fit(workspace, model="softmax", extra=("--epochs", "2"))
        wide, _ = generate(LongTailSpec(4, 30, 5.0), 7, seed=0)
        write_features(tmp / "wide.bin", wide)
        assert main(["eval", "--classifier", str(clf), "--data", str(tmp / "wide.bin")]) == 1
        err = capsys.readouterr().err
        assert "error: dimension mismatch: expected 6, got 7" in err
        assert "matmul" not in err

    @pytest.mark.parametrize("model", ["bape", "softmax"])
    def test_data_with_more_classes_than_the_model_is_exit_1(self, workspace, capsys, model):
        # A 4-class model on a 6-class file exited 0, counting the rows of
        # classes 4 and 5 as misses.
        tmp, train, test = workspace
        clf = self._fit(workspace, model=model, extra=("--epochs", "2") if model == "softmax" else ())
        more, _ = generate(LongTailSpec(6, 30, 5.0), 6, seed=0)
        write_features(tmp / "more.bin", more)
        out = tmp / "scores.json"
        assert main(["eval", "--classifier", str(clf), "--data", str(tmp / "more.bin"), "--out", str(out)]) == 1
        assert "error: evaluation labels span 6 classes, the classifier 4" in capsys.readouterr().err
        assert not out.exists()

    def test_linear_document_records_normalize_only_when_set(self, workspace):
        plain = json.loads(self._fit(workspace, model="softmax", extra=("--epochs", "2")).read_text())
        assert "normalize" not in plain
        projected = json.loads(self._fit(workspace, model="logit_adjusted",
                                         extra=("--epochs", "2", "--normalize")).read_text())
        assert projected["normalize"] is True

    @pytest.mark.parametrize("bad", ["normalize", "list", "number"])
    def test_malformed_document_is_exit_1(self, workspace, capsys, bad):
        tmp, train, test = workspace
        clf = self._fit(workspace, model="softmax", extra=("--epochs", "2"))
        head = json.loads(clf.read_text())
        clf.write_text({"normalize": json.dumps(dict(head, normalize=1)), "list": "[1, 2]", "number": "5"}[bad])
        assert main(["eval", "--classifier", str(clf), "--data", str(test)]) == 1
        assert "malformed classifier document" in capsys.readouterr().err

    def test_normalized_linear_model_scores_projected_rows(self, tmp_path):
        # Seed-0 files (K=20, p=32) with every row scaled by U[0.2, 5]: the
        # head `fit --normalize` trains must be scored on projected rows, as
        # `compare` with normalize: true scores it (acc_all 0.670, against
        # 0.577 on the rows as given).
        train, test = tmp_path / "tr.bin", tmp_path / "te.bin"
        assert main(["generate", "--seed", "0", "--out", str(train), "--test-out", str(test)]) == 0
        for key, path in enumerate((train, test)):
            ds = read_features(path)
            scale = substream(99, key).uniform(0.2, 5.0, (ds.n, 1))
            write_features(path, Dataset(ds.features * scale, ds.labels, ds.class_counts))
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"seeds": [0], "methods": ["logit_adjusted"], "normalize": True,
                                      "train_file": str(train), "test_file": str(test)}))
        assert main(["compare", "--config", str(config), "--out", str(tmp_path / "r.json")]) == 0
        (row,) = json.loads((tmp_path / "r.json").read_text())
        model, scores = tmp_path / "m.json", tmp_path / "e.json"
        assert main(["fit", "--model", "logit_adjusted", "--normalize", "--seed", "0",
                     "--train", str(train), "--out", str(model)]) == 0
        assert main(["eval", "--classifier", str(model), "--data", str(test),
                     "--split-counts-from", str(train), "--out", str(scores)]) == 0
        got = json.loads(scores.read_text())
        assert {split: got[split] for split in ("all", "many", "medium", "few")} == {
            split: row[f"acc_{split}"] for split in ("all", "many", "medium", "few")}
        assert round(got["all"], 3) == 0.670

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


    def test_split_counts_with_fewer_classes_is_exit_1(self, workspace, capsys, monkeypatch):
        tmp, train, test = workspace
        clf = self._fit(workspace)
        ds = read_features(train)
        fewer = tmp / "fewer.bin"
        keep = ds.labels < 3
        write_features(fewer, Dataset(ds.features[keep], ds.labels[keep], ds.class_counts[:3]))
        # Found before any row is scored.
        monkeypatch.setattr("spherebayes.cli._predictions", lambda *args: pytest.fail("rows were scored"))
        code = main(["eval", "--classifier", str(clf), "--data", str(test),
                     "--split-counts-from", str(fewer)])
        assert code == 1
        assert "4 classes" in capsys.readouterr().err


    def test_empty_data_file_is_exit_1(self, workspace, capsys):
        tmp, train, test = workspace
        clf = self._fit(workspace)
        empty = tmp / "empty.bin"
        write_features(empty, Dataset(np.zeros((0, 6)), np.zeros(0, dtype=int), np.zeros(4, dtype=int)))
        out = tmp / "scores.json"
        assert main(["eval", "--classifier", str(clf), "--data", str(empty), "--out", str(out)]) == 1
        assert "evaluation set is empty" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("corrupt", ["missing", "magic", "version", "truncated", "label", "csv-label"])
    def test_split_counts_file_fails_as_a_data_file_does(self, workspace, capsys, corrupt):
        # The counts are read without the feature block, but every bad file
        # keeps the exit code and message that read_features gives it.
        tmp, train, test = workspace
        clf = self._fit(workspace)
        raw = bytearray(train.read_bytes())
        bad = tmp / f"{corrupt}.bin"
        if corrupt == "magic":
            raw[:4] = b"PNG\x00"
        elif corrupt == "version":
            raw[4:8] = struct.pack("<I", 2)
        elif corrupt == "truncated":
            raw = raw[:-1]
        elif corrupt == "label":
            raw[-4:] = struct.pack("<I", 9)
        elif corrupt == "csv-label":
            bad = tmp / "bad.csv"
            raw = b"label,f0\n0,1.0\n-1,0.5\n"
        if corrupt != "missing":
            bad.write_bytes(bytes(raw))
        as_data = main(["eval", "--classifier", str(clf), "--data", str(bad)])
        data_err = capsys.readouterr().err
        as_counts = main(["eval", "--classifier", str(clf), "--data", str(test), "--split-counts-from", str(bad)])
        assert (as_counts, capsys.readouterr().err) == (as_data, data_err) == (2, data_err)

    def test_split_counts_file_feature_block_is_not_read(self, workspace, capsys):
        # A binary counts file of 4096 rows of p=2048, written sparse: its
        # feature block is 32 MiB, its label block 16 KiB. Reading the block
        # would take the 32 MiB; the whole eval peaks near 70 KB.
        tmp, train, test = workspace
        clf = self._fit(workspace)
        wide, n, p = tmp / "wide.bin", 4096, 2048
        with open(wide, "wb") as fh:
            fh.write(b"BAPF" + struct.pack("<IIII", 1, n, p, 4))
            fh.seek(4 * n * p, os.SEEK_CUR)
            fh.write((np.arange(n) % 4).astype("<u4").tobytes())
        tracemalloc.start()
        try:
            code = main(["eval", "--classifier", str(clf), "--data", str(test), "--split-counts-from", str(wide)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["many"] == doc["all"] and doc["medium"] is None and doc["few"] is None  # 1024 rows a class
        assert peak < 4 * 2**20

    def test_missing_split_counts_file_is_exit_2_before_any_row_is_scored(self, workspace, capsys, monkeypatch):
        # It was found only after every row was scored.
        tmp, train, test = workspace
        clf = self._fit(workspace)
        monkeypatch.setattr("spherebayes.cli._predictions", lambda *args: pytest.fail("rows were scored"))
        assert main(["eval", "--classifier", str(clf), "--data", str(test),
                     "--split-counts-from", str(tmp / "none.bin")]) == 2
        assert "none.bin" in capsys.readouterr().err

    @pytest.mark.parametrize("model, data, message", [
        # A linear head's norms are taken, and a zero row found, before the
        # dimension and label checks.
        ("softmax", "wide-zero", "row 1 has zero norm and cannot be normalized"),
        ("softmax", "more-zero", "row 1 has zero norm and cannot be normalized"),
        # bape's unit norms are checked after both.
        ("bape", "wide-off", "dimension mismatch: expected 6, got 7"),
        ("bape", "more-off", "evaluation labels span 6 classes, the classifier 4"),
    ])
    def test_errors_come_in_order(self, workspace, capsys, model, data, message):
        tmp, train, test = workspace
        clf = self._fit(workspace, model, ("--epochs", "2", "--normalize") if model == "softmax" else ())
        shape, fault = data.split("-")
        ds, _ = generate(LongTailSpec(6, 30, 5.0), 6, seed=0) if shape == "more" else generate(
            LongTailSpec(4, 30, 5.0), 7, seed=0)
        features = ds.features * 2.0
        if fault == "zero":
            features[1] = 0.0
        write_features(tmp / "bad.bin", Dataset(features, ds.labels, ds.class_counts))
        assert main(["eval", "--classifier", str(clf), "--data", str(tmp / "bad.bin")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_scores_in_blocks(self, tmp_path, monkeypatch):
        # K=200, p=64 and 8000 rows: a float64 copy of the rows is 4 MB and
        # the full (n, K) logits 12.8 MB. Scoring them whole peaked at 19.3
        # MiB under tracemalloc; the blocked pass peaks near 4.9 MiB.
        truth = make_truth(200, 64, (20.0, 200.0), "random", 0)
        ds = sample_dataset(truth, np.full(200, 40), 0, stream=3)
        data = tmp_path / "test.bin"
        write_features(data, ds)
        bape = truth.classifier(ClassPriors.from_counts(class_sizes(LongTailSpec(200, 200, 10.0))))
        (tmp_path / "bape.json").write_text(to_json(bape))
        (tmp_path / "linear.json").write_text(linear_to_json(LinearClassifier(bape.W, bape.b), normalize=True))
        scored = []
        monkeypatch.setattr("spherebayes.cli.split_accuracy", lambda preds, *args: scored.append(preds) or {})
        for name, extra in [("bape.json", ()), ("bape.json", ("--adjust-priors", "uniform")), ("linear.json", ())]:
            tracemalloc.start()
            try:
                assert main(["eval", "--classifier", str(tmp_path / name), "--data", str(data), *extra]) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20
        plain, adjusted, linear = scored
        assert_array_equal(plain, predict(bape, ds.features))
        assert_array_equal(adjusted, predict(adjust(bape, AdjustmentPolicy(ClassPriors.uniform(200))), ds.features))
        assert not np.array_equal(adjusted, plain)
        assert_array_equal(linear, plain)  # the same W and b on the projected rows


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

    @pytest.mark.parametrize("command", ["compare", "generate"])
    def test_class_count_past_its_bound_is_exit_1_within_a_second(self, tmp_path, capsys, command):
        # The profile's row total was summed over a Python list of one size
        # per class, so a config or flag of 10**12 classes never loaded.
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"n_classes": 10**12}))
        argv = {"compare": ["compare", "--config", str(cfg)],
                "generate": ["generate", "--classes", str(10**12), "--out", str(tmp_path / "x.bin")]}[command]

        class Late(BaseException):  # not an Exception, so main cannot report it as an error
            pass

        def late(signum, frame):
            raise Late

        previous = signal.signal(signal.SIGALRM, late)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            code = main(argv)
        except Late:
            pytest.fail(f"{command} with 10**12 classes did not return within a second")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 1
        assert "n_classes must be <= 100000, got 1000000000000" in capsys.readouterr().err
        assert not (tmp_path / "x.bin").exists()

    @pytest.mark.parametrize("m0_lr", [1e155, 1e200, 1e300])
    def test_huge_prior_direction_rate_steps_to_unit_frames(self, tmp_path, capsys, m0_lr):
        # Past ~1e154 the squares of a stepped frame row overflowed its plain
        # norm: a RuntimeWarning leaked and the run exited 1 with "frame rows
        # must be unit vectors".
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"seeds": [0], "n_classes": 3, "dim": 4, "head_size": 10, "epochs": 1,
                                   "methods": ["bape"], "alpha_hat": 1.0, "beta_hat": 0.5, "m0_steps": 2,
                                   "m0_lr": m0_lr}))
        assert main(["compare", "--config", str(cfg)]) == 0
        assert capsys.readouterr().err == ""

    def test_temperature_past_the_ensembles_float_range_is_exit_1(self, tmp_path, capsys):
        # The ensemble divided the logit_adjusted scores by 1e-200 past the
        # float range, leaked two RuntimeWarnings, predicted from NaN scores
        # and exited 0.
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"seeds": [0], "n_classes": 3, "dim": 4, "head_size": 10, "epochs": 1,
                                   "temperature": 1e-200}))
        assert main(["compare", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == ("error: method 'ensemble', seed 0: temperature 1e-200 takes the "
                                           "logit_adjusted scores past the float range\n")

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

    @pytest.mark.parametrize("estimation", ["approx", "exact"])
    def test_empty_trailing_class_with_prior_direction_steps(self, tmp_path, estimation):
        # The m0 gradient steps skip class 5 just as the final fit excludes it.
        train_path, test_path = _train_without_last_class(tmp_path, "train.bin")
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "seeds": [0], "methods": ["bape", "bape+adjust"], "alpha_hat": 1.0, "beta_hat": 0.5,
            "m0_steps": 2, "estimation": estimation,
            "train_file": str(train_path), "test_file": str(test_path),
        }))
        out = tmp_path / "report.json"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert sorted(r["method"] for r in rows) == ["bape", "bape+adjust"]
        assert all(0.0 < r["acc_all"] < 1.0 for r in rows)

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

    def test_empty_test_file_is_exit_1(self, workspace, capsys):
        tmp, train, test = workspace
        empty = tmp / "empty.bin"
        write_features(empty, Dataset(np.zeros((0, 6)), np.zeros(0, dtype=int), np.zeros(4, dtype=int)))
        cfg = tmp / "config.json"
        cfg.write_text(json.dumps({
            "seeds": [0], "methods": ["bape", "softmax"], "epochs": 2,
            "train_file": str(train), "test_file": str(empty),
        }))
        out = tmp / "report.json"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 1
        assert "evaluation set is empty" in capsys.readouterr().err
        assert not out.exists()

    def test_test_file_of_another_dimension_is_exit_1(self, tmp_path, capsys):
        # softmax runs first, so the dimensions must be checked before any
        # method scores: one message naming both, not a matmul error.
        train_ds, _ = generate(LongTailSpec(3, 30, 5.0), 8, seed=0)
        test_ds, _ = generate(LongTailSpec(3, 30, 5.0), 6, seed=0)
        train_path, test_path = tmp_path / "train.bin", tmp_path / "test.bin"
        write_features(train_path, train_ds)
        write_features(test_path, test_ds)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "seeds": [0], "methods": ["softmax", "bape"], "epochs": 2,
            "train_file": str(train_path), "test_file": str(test_path),
        }))
        assert main(["compare", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "test features have dimension 6, training features 8" in err
        assert "matmul" not in err

    def test_prior_frame_is_checked_against_the_files(self, tmp_path, capsys):
        # Six classes need five dimensions for bape's prior frame; the
        # config's own frame rule checks generated data only. The error is
        # charged to the first method that fits bape, before softmax trains.
        train_path, test_path = tmp_path / "train.bin", tmp_path / "test.bin"
        assert main(["generate", "--classes", "6", "--dim", "3", "--head-size", "10", "--out", str(train_path),
                     "--test-out", str(test_path), "--test-per-class", "2"]) == 0
        cfg = tmp_path / "config.json"
        doc = {"seeds": [0], "methods": ["softmax", "ensemble", "bape"], "epochs": 1, "alpha_hat": 1.0,
               "beta_hat": 0.5, "train_file": str(train_path), "test_file": str(test_path)}
        cfg.write_text(json.dumps(doc))
        assert main(["compare", "--config", str(cfg)]) == 1
        assert ("error: method 'ensemble', seed 0: beta_hat > 0 builds an equiangular prior frame of 6 "
                "directions, which needs training features of dimension >= 5, got 3") in capsys.readouterr().err
        # Without the prior, or without bape, the files run.
        cfg.write_text(json.dumps({**doc, "beta_hat": 0.0}))
        assert main(["compare", "--config", str(cfg)]) == 0
        cfg.write_text(json.dumps({**doc, "methods": ["softmax"]}))
        assert main(["compare", "--config", str(cfg)]) == 0

    def test_off_sphere_test_file_is_charged_to_bape(self, tmp_path, capsys):
        # softmax scores the rows as given and runs first; only bape needs
        # unit rows, so the error must name bape.
        train_ds, _ = generate(LongTailSpec(3, 30, 5.0), 8, seed=0)
        test_ds, _ = generate(LongTailSpec(3, 30, 5.0), 8, seed=1)
        test_ds = Dataset(2.0 * test_ds.features, test_ds.labels, test_ds.class_counts)
        train_path, test_path = tmp_path / "train.bin", tmp_path / "test.bin"
        write_features(train_path, train_ds)
        write_features(test_path, test_ds)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "seeds": [0], "methods": ["softmax", "bape"], "epochs": 2,
            "train_file": str(train_path), "test_file": str(test_path),
        }))
        assert main(["compare", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "method 'bape', seed 0: vector is off the unit sphere" in err

    @pytest.mark.parametrize("zero_in", ["train", "test"])
    def test_zero_row_under_normalize_is_exit_1(self, tmp_path, capsys, zero_in):
        # The linear heads train and score the projected rows; a zero row has
        # none, and is named as bad input rather than read as a divergence.
        data = {"train": generate(LongTailSpec(3, 30, 5.0), 8, seed=0)[0],
                "test": generate(LongTailSpec(3, 30, 5.0), 8, seed=1)[0]}
        ds = data[zero_in]
        features = ds.features.copy()
        features[3] = 0.0
        data[zero_in] = Dataset(features, ds.labels, ds.class_counts)
        for name, ds in data.items():
            write_features(tmp_path / f"{name}.bin", ds)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "seeds": [0], "methods": ["softmax"], "epochs": 2, "normalize": True,
            "train_file": str(tmp_path / "train.bin"), "test_file": str(tmp_path / "test.bin"),
        }))
        assert main(["compare", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "method 'softmax', seed 0: row 3 has zero norm" in err

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

    # A small generated run; the divergence tests carry no np.errstate
    # wrapper, so a leaked RuntimeWarning fails them.
    SMALL = {"seeds": [0], "n_classes": 4, "dim": 6, "head_size": 40, "gamma": 10.0,
             "test_per_class": 20, "epochs": 2}

    @pytest.mark.parametrize("overrides, culprit", [
        ({"methods": ["ensemble"], "eta": 1e300, "lr": 1e300}, "'ensemble', seed 0: logit_adjusted head"),
        ({"methods": ["softmax", "logit_adjusted"], "eta": 1e300, "lr": 1e300},
         "'logit_adjusted', seed 0: logit_adjusted head"),
        ({"methods": ["ensemble", "softmax"], "eta": 0.0, "lr": 1e308, "epochs": 6},
         "'softmax', seed 0: softmax head"),
    ])
    def test_diverging_head_is_exit_1_and_named(self, tmp_path, capsys, overrides, culprit):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**self.SMALL, **overrides}))
        assert main(["compare", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"error: method {culprit}: non-finite loss" in err
        assert "RuntimeWarning" not in err

    def _compare_in_subprocess(self, tmp_path, config, **env):
        # Outside pytest's warning filter numpy would print a RuntimeWarning
        # line to stderr, so these runs show any warning the CLI leaks.
        import spherebayes

        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        src = os.path.dirname(os.path.dirname(os.path.abspath(spherebayes.__file__)))
        env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-W", "default", "-m", "spherebayes.cli", "compare", "--config", str(cfg)],
                              env=env, capture_output=True, text=True)

    def test_diverging_head_prints_no_warning(self, tmp_path):
        out = self._compare_in_subprocess(tmp_path, {**self.SMALL, "methods": ["ensemble"], "eta": 1e300, "lr": 1e300})
        assert out.returncode == 1
        assert out.stderr == ("error: method 'ensemble', seed 0: logit_adjusted head: non-finite loss "
                              "at epoch 0, sample offset 64 (lr=1e+300)\n")

    def test_overflowing_pseudo_count_is_exit_1_naming_alpha_hat(self, tmp_path):
        out = self._compare_in_subprocess(tmp_path, {**self.SMALL, "methods": ["bape"], "alpha_hat": 1e308,
                                                     "beta_hat": 1e308})
        assert out.returncode == 1
        assert out.stderr == ("error: method 'bape', seed 0: alpha_hat=1e+308 times a class size of 40 "
                              "overflows the pseudo-count\n")

    def test_huge_prior_rates_fit_without_warnings(self, tmp_path):
        # beta_hat * n past ~1e154 overflowed the squares of the posterior
        # norm: two RuntimeWarnings, then every class read as unbounded.
        out = self._compare_in_subprocess(tmp_path, {**self.SMALL, "methods": ["bape"], "alpha_hat": 1e200,
                                                     "beta_hat": 1e160})
        assert out.returncode == 0, out.stderr
        assert out.stderr == ""

    def test_prior_resultant_at_its_pseudo_count_is_exit_1_without_warnings(self, tmp_path):
        # With alpha_hat = beta_hat the prior's resultant equals its
        # pseudo-count, so every kappa is unbounded.
        out = self._compare_in_subprocess(tmp_path, {**self.SMALL, "methods": ["bape"], "alpha_hat": 1e200,
                                                     "beta_hat": 1e200})
        assert out.returncode == 1
        assert out.stderr == ("error: method 'bape', seed 0: every class is degenerate (0 with no samples and no "
                              "directional prior, 4 with an unbounded kappa): no class is left to fit\n")

    def test_report_does_not_depend_on_the_blas_thread_count(self, tmp_path):
        # 148 tail classes of p=256: a Gram-matrix collapse, unit @ unit.T,
        # read -0.0008222274719354902 under one BLAS thread and
        # -0.0008222274719354915 under two. The two m0-step runs, a 665-row
        # training set (a full 512-row block and a partial one) and
        # lt-exact-m0's seed-1 shape, moved their collapse by an ulp while the
        # m0 gradient's transpose product was of a partial block's rows only,
        # and the 665-row run did again under a 431-row block. Four threads
        # split the products differently from two.
        m0 = {"seeds": [1], "methods": ["bape"], "n_classes": 100, "dim": 128, "gamma": 100.0,
              "kappa_range": [20.0, 200.0], "alpha_hat": 1.0, "beta_hat": 0.5, "estimation": "exact",
              "m0_steps": 3, "test_per_class": 5}
        for config in [
            {"seeds": [0], "methods": ["bape"], "n_classes": 300, "dim": 256, "head_size": 200, "gamma": 100.0,
             "kappa_range": [50.0, 500.0], "test_per_class": 5},
            {**m0, "head_size": 30},
            {**m0, "head_size": 500},
        ]:
            reports = []
            for threads in ("1", "2", "4"):
                out = self._compare_in_subprocess(tmp_path, config, OPENBLAS_NUM_THREADS=threads,
                                                  OMP_NUM_THREADS=threads)
                assert out.returncode == 0, out.stderr
                rows = json.loads(out.stdout)
                reports.append([{**row, "wall_time": 0.0} for row in rows])
            assert reports[0] == reports[1] == reports[2], config

    def test_huge_finite_weights_print_nothing(self, tmp_path):
        # lr = 1e300 trains without diverging to weights near 1e300, whose
        # squares overflow in the minority-collapse norms. Rows divided by
        # an infinite norm were zero and read -1/(m - 1) = -0.5 for the m = 3
        # tail classes.
        out = self._compare_in_subprocess(tmp_path, {"methods": ["softmax"], "lr": 1e300, "n_classes": 4, "dim": 6,
                                                     "head_size": 50})
        assert out.returncode == 0
        assert out.stderr == ""
        (row,) = json.loads(out.stdout)
        assert -0.5 < row["minority_collapse"] <= 1.0

    @pytest.mark.parametrize("key, value", [("epochs", 2.5), ("seeds", [0.5]), ("epochs", True), ("head_size", 2.5)])
    def test_non_integer_config_value_is_exit_1_before_any_data(self, tmp_path, capsys, monkeypatch, key, value):
        import spherebayes.harness as harness

        def no_data(*args):
            raise AssertionError("data generated for an invalid config")

        monkeypatch.setattr(harness, "_load_data", no_data)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**self.SMALL, key: value}))
        assert main(["compare", "--config", str(cfg)]) == 1
        assert f"{key} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("gamma", "x"),
        ("eta", "a"),
        ("eta", None),
        ("thresholds", ["a", 3]),
        ("kappa_range", [5]),
        ("kappa_range", [1, 5, 7]),
        ("normalize", "yes"),
        ("methods", ["bape", "bape"]),
        ("methods", None),
        ("methods", "bape"),
    ])
    def test_malformed_config_value_is_exit_1_and_named(self, tmp_path, capsys, monkeypatch, key, value):
        # These escaped as TypeError or IndexError tracebacks, or loaded
        # silently (a repeated method wrote two identical report rows).
        import spherebayes.harness as harness

        def no_data(*args):
            raise AssertionError("data generated for an invalid config")

        monkeypatch.setattr(harness, "_load_data", no_data)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**self.SMALL, key: value}))
        assert main(["compare", "--config", str(cfg)]) == 1
        assert f"error: {key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("train_file", 5), ("train_file", True), ("test_file", ["tr.bapf"])])
    def test_file_path_that_is_not_a_string_is_exit_1_and_named(self, tmp_path, capsys, key, value):
        # These exited 2 as I/O errors, such as "No such file or directory: 'True'".
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"methods": ["bape"], "train_file": "tr.bapf", "test_file": "te.bapf", key: value}))
        assert main(["compare", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {key} must be a file path, got {value!r}\n"

    @pytest.mark.parametrize("kappa_range", [[5, float("inf")], [5, 2e6]])
    def test_kappa_range_outside_the_supported_one_is_exit_1(self, tmp_path, capsys, monkeypatch, kappa_range):
        import spherebayes.harness as harness

        def no_data(*args):
            raise AssertionError("data generated for an invalid config")

        monkeypatch.setattr(harness, "_load_data", no_data)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**self.SMALL, "methods": ["bape"], "kappa_range": kappa_range}))
        assert main(["compare", "--config", str(cfg)]) == 1
        assert "error: kappa_range must satisfy 0 < lo <= hi" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, message", [
        pytest.param({"alpha_hat": "Infinity"}, "prior rates alpha_hat and beta_hat must be finite and >= 0, got inf",
                     id="alpha_hat-inf"),
        pytest.param({"alpha_hat": -1.0}, "prior rates alpha_hat and beta_hat must be finite and >= 0, got -1.0",
                     id="alpha_hat-negative"),
        pytest.param({"alpha_hat": 1.0, "beta_hat": 1.5}, "beta_hat=1.5 exceeds alpha_hat=1.0", id="beta_hat-above"),
        pytest.param({"alpha_hat": 1.0, "beta_hat": 0.5, "m0_steps": 2, "m0_lr": "NaN"},
                     "m0_lr must be positive and finite", id="m0_lr-nan"),
        pytest.param({"alpha_hat": 1.0, "beta_hat": 0.5, "m0_steps": 2, "m0_lr": -1e300},
                     "m0_lr must be positive and finite", id="m0_lr-negative"),
        pytest.param({"alpha_hat": 1.0, "beta_hat": 0.5, "m0_steps": 2, "m0_lr": 0},
                     "m0_lr must be positive and finite", id="m0_lr-zero"),
        pytest.param({"head_size": 10**20}, "head_size must be below 2**63", id="head_size-1e20"),
        pytest.param({"test_per_class": 2**63}, "test_per_class must be below 2**63", id="test_per_class-2**63"),
        pytest.param({"head_size": 2**63 - 1}, "n_classes and head_size give 16413934573519398272 rows in total",
                     id="head_size-total-past-int64"),
        pytest.param({"test_per_class": 2**62}, "n_classes and test_per_class give 18446744073709551616 rows in total",
                     id="test_per_class-total-past-int64"),
        pytest.param({"gamma": 10**400}, "gamma must be within the float range", id="gamma-1e400"),
        pytest.param({"kappa_range": [5, 10**400]}, "kappa_range must be within the float range",
                     id="kappa_range-1e400"),
        pytest.param({"seeds": [0, -1]}, "seeds must be >= 0, got -1", id="seeds-negative"),
        pytest.param({"n_classes": 1}, "n_classes must be >= 2, got 1", id="n_classes-1"),
        pytest.param({"head_size": 0}, "head_size must be >= 1, got 0", id="head_size-0"),
        pytest.param({"gamma": 0.5}, "gamma (the imbalance factor) must be finite and >= 1, got 0.5", id="gamma-0.5"),
        pytest.param({"gamma": "NaN"}, "gamma (the imbalance factor) must be finite and >= 1, got nan", id="gamma-nan"),
        pytest.param({"dim": 1}, "dim must be in [2, 4096], got 1", id="dim-1"),
        pytest.param({"dim": 5000}, "dim must be in [2, 4096], got 5000", id="dim-5000"),
        pytest.param({"dim": 2, "center_mode": "etf"}, "dim must be >= n_classes - 1 = 3 for an equiangular frame",
                     id="dim-etf"),
        pytest.param({"dim": 2, "alpha_hat": 1.0, "beta_hat": 0.5},
                     "dim must be >= n_classes - 1 = 3 for an equiangular frame", id="dim-prior-frame"),
        pytest.param({"methods": ["bape+adjust"], "dim": 2, "alpha_hat": 1.0, "beta_hat": 0.5},
                     "dim must be >= n_classes - 1 = 3 for an equiangular frame", id="dim-prior-frame-adjust"),
        pytest.param({"lr": "NaN"}, "lr must be >= 0 and finite, got nan", id="lr-nan"),
        pytest.param({"lr": -1.0}, "lr must be >= 0 and finite, got -1.0", id="lr-negative"),
        pytest.param({"epochs": 0}, "epochs and batch_size must be >= 1", id="epochs-0"),
        pytest.param({"batch_size": -4}, "epochs and batch_size must be >= 1", id="batch_size-negative"),
        pytest.param({"weight_decay": "Infinity"}, "weight_decay must be >= 0 and finite, got inf",
                     id="weight_decay-inf"),
        pytest.param({"temperature": 0}, "temperature must be > 0 and finite, got 0.0", id="temperature-0"),
    ])
    def test_domain_error_is_exit_1_before_any_data(self, tmp_path, capsys, monkeypatch, overrides, message):
        # Each loaded and failed only after the data were generated, in the
        # fit or the m0 step; the integers escaped as OverflowError or
        # TypeError tracebacks.
        import spherebayes.harness as harness

        def no_data(*args):
            raise AssertionError("data generated for an invalid config")

        monkeypatch.setattr(harness, "_load_data", no_data)
        cfg = tmp_path / "config.json"
        text = json.dumps({**self.SMALL, "methods": ["bape", "softmax"]})[:-1]
        for key, value in overrides.items():
            # Infinity and NaN are JSON extensions, written as bare literals.
            text += f', "{key}": {value if value in ("Infinity", "NaN") else json.dumps(value)}'
        cfg.write_text(text + "}")
        assert main(["compare", "--config", str(cfg)]) == 1
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [
        {"methods": ["bape", "oracle"], "lr": "NaN", "epochs": 0, "temperature": 0},
        {"methods": ["oracle", "softmax"], "dim": 2, "alpha_hat": 1.0, "beta_hat": 0.5},
    ])
    def test_settings_of_parts_not_run_are_not_checked(self, tmp_path, capsys, overrides):
        # No linear head is trained in the first, and no equiangular frame
        # is built in the second.
        cfg = tmp_path / "config.json"
        text = json.dumps(self.SMALL)[:-1]
        for key, value in overrides.items():
            text += f', "{key}": {value if value == "NaN" else json.dumps(value)}'
        cfg.write_text(text + "}")
        assert main(["compare", "--config", str(cfg)]) == 0
        assert sorted(row["method"] for row in json.loads(capsys.readouterr().out)) == overrides["methods"]

    def test_integer_real_settings_past_int64_run(self, tmp_path, capsys):
        # gamma and eta of 10**20 escaped as a TypeError from np.isfinite
        # on an object array; as floats they are valid settings.
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**self.SMALL, "methods": ["bape", "logit_adjusted"], "gamma": 10**20,
                                   "eta": 10**20, "lr": 0}))
        assert main(["compare", "--config", str(cfg)]) == 0
        assert sorted(row["method"] for row in json.loads(capsys.readouterr().out)) == ["bape", "logit_adjusted"]

    @pytest.mark.parametrize("text", ["[]", '"x"', "3", "null"])
    def test_config_that_is_not_an_object_is_exit_1(self, tmp_path, capsys, text):
        # An array escaped as a TypeError traceback; a string was read as
        # the names of unknown keys.
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        assert main(["compare", "--config", str(cfg)]) == 1
        assert "error: config must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["bape", "bape+adjust"])
    def test_every_class_degenerate_is_exit_1_and_says_why(self, tmp_path, capsys, method):
        # One sample per class under alpha_hat = 0: every kappa is unbounded.
        # This was reported as "counts must have positive total".
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"seeds": [0], "methods": [method], "head_size": 1}))
        assert main(["compare", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"method '{method}', seed 0: every class is degenerate" in err
        assert "20 with an unbounded kappa" in err

    @pytest.mark.parametrize("m0_steps", [0, 2])
    def test_zero_row_training_file_is_every_class_degenerate(self, tmp_path, capsys, m0_steps):
        # With m0 steps the run stopped at the steps' class priors instead:
        # "counts must have positive total".
        train, test = tmp_path / "train.bapf", tmp_path / "test.bapf"
        write_features(str(train), Dataset(np.zeros((0, 4)), np.zeros(0, dtype=int), np.zeros(3, dtype=int)))
        z = substream(0, 1).standard_normal((30, 4))
        write_features(str(test), Dataset(z / np.linalg.norm(z, axis=1, keepdims=True), np.arange(30) % 3,
                                          np.full(3, 10)))
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"seeds": [0], "methods": ["bape"], "train_file": str(train),
                                   "test_file": str(test), "alpha_hat": 1.0, "beta_hat": 0.5,
                                   "m0_steps": m0_steps}))
        assert main(["compare", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "method 'bape', seed 0: every class is degenerate (3 with no samples" in err

    def test_out_of_memory_is_exit_1(self, tmp_path, capsys, monkeypatch):
        import spherebayes.harness as harness

        def too_big(*args):
            raise MemoryError("Unable to allocate 53.7 TiB")

        monkeypatch.setattr(harness, "_load_data", too_big)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(self.SMALL))
        assert main(["compare", "--config", str(cfg)]) == 1
        assert "error: out of memory: Unable to allocate 53.7 TiB" in capsys.readouterr().err

    def test_out_of_memory_in_a_fit_names_its_method_and_seed(self, tmp_path, capsys):
        # 10**18 epochs: numpy refuses the schedule's size at once, so nothing
        # is allocated. The MemoryError exited 1 as a plain method error.
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"seeds": [0], "methods": ["softmax"], "n_classes": 3, "dim": 4, "head_size": 5,
                                   "test_per_class": 1, "epochs": 10**18}))
        assert main(["compare", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: out of memory: method 'softmax', seed 0: ")

    @pytest.mark.parametrize("overrides", [{}, {"methods": ["bape"], "head_size": 1}], ids=["fits", "bape-fails"])
    def test_out_of_memory_in_the_test_draw_names_no_method(self, tmp_path, capsys, monkeypatch, overrides):
        # A test set of 4 x 2048 rows of 64 values, large enough to be drawn
        # on the worker thread: the draw fails once bape's fit has ended,
        # and the run waits for it while checking bape's test rows. With
        # one row per class bape's fit fails as well ("every class is
        # degenerate"), but the draw comes before every fit.
        import spherebayes.harness as harness

        wide = {"dim": 64, "test_per_class": -(-_HAND_OFF_VALUES // (4 * 64))}

        fit_bape, fitted = harness._fit_bape, threading.Event()

        def fit_then_signal(*args):
            try:
                return fit_bape(*args)
            finally:
                fitted.set()

        def fill(*args):
            fitted.wait(timeout=60)
            raise MemoryError("Unable to allocate 10.0 MiB")

        monkeypatch.setattr(harness, "_fit_bape", fit_then_signal)
        monkeypatch.setattr(harness, "_fill_draw", fill)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**self.SMALL, **wide, **overrides}))
        assert main(["compare", "--config", str(cfg)]) == 1
        assert fitted.is_set()
        assert capsys.readouterr().err == "error: out of memory: Unable to allocate 10.0 MiB\n"

    @pytest.mark.parametrize("overrides", [{}, {"methods": ["bape"], "head_size": 1}], ids=["fits", "bape-fails"])
    def test_out_of_memory_in_an_inline_test_draw_names_no_method(self, tmp_path, capsys, monkeypatch, overrides):
        # SMALL's 80 test rows are drawn on this thread, before any fit:
        # the draw's error is the one reported, naming no method, and no
        # head is fitted.
        import spherebayes.harness as harness

        def fill(*args):
            assert threading.current_thread() is threading.main_thread()
            raise MemoryError("Unable to allocate 10.0 MiB")

        monkeypatch.setattr(harness, "_fit_bape", lambda *args: pytest.fail("a head was fitted"))
        monkeypatch.setattr(harness, "_fit_linear", lambda *args: pytest.fail("a head was fitted"))
        monkeypatch.setattr(harness, "_fill_draw", fill)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**self.SMALL, **overrides}))
        assert main(["compare", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: out of memory: Unable to allocate 10.0 MiB\n"

    @pytest.mark.parametrize("train_fails", [True, False])
    def test_errors_before_the_test_draw_come_in_order(self, tmp_path, capsys, monkeypatch, train_fails):
        # The training draw, then the test set's size check, then its draw:
        # 4 * 2**58 rows of 6 float32 values cannot be addressed.
        import spherebayes.harness as harness

        def generate_fails(*args):
            raise MemoryError("Unable to allocate the training rows")

        def no_fill(*args):
            raise AssertionError("test rows drawn after an earlier error")

        if train_fails:
            monkeypatch.setattr(harness, "generate", generate_fails)
        monkeypatch.setattr(harness, "_fill_draw", no_fill)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**self.SMALL, "test_per_class": 2**58}))
        assert main(["compare", "--config", str(cfg)]) == 1
        message = ("Unable to allocate the training rows" if train_fails else
                   f"{2**60} rows of 6 float32 features take {4 * 6 * 2**60} bytes")
        assert capsys.readouterr().err == f"error: out of memory: {message}\n"

    @pytest.mark.parametrize("key, literal", [
        ("weight_decay", "NaN"), ("weight_decay", "Infinity"), ("temperature", "Infinity"),
    ])
    def test_non_finite_training_setting_is_exit_1_and_named(self, tmp_path, capsys, key, literal):
        # A nan or infinite weight decay exited 1 as a "non-finite loss",
        # and an infinite temperature exited 0 with the linear heads left
        # at their initialization.
        cfg = tmp_path / "config.json"
        text = json.dumps({**self.SMALL, "methods": ["softmax"]})
        cfg.write_text(text[:-1] + f', "{key}": {literal}}}')
        assert main(["compare", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"{key} must be " in err and "and finite" in err
        assert "non-finite loss" not in err


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

    @pytest.mark.parametrize("row", ["x,0.6,0.8", "1,0.6,abc"])
    def test_corrupt_csv_field_is_exit_2_and_named(self, tmp_path, capsys, row):
        data = tmp_path / "data.csv"
        data.write_text(f"label,f0,f1\n0,1.0,0.0\n{row}\n")
        assert main(["dump-embeddings", "--data", str(data), "--out", str(tmp_path / "x.csv")]) == 2
        assert f"error: {data}: row 3 has" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_requires_csv_suffix(self, workspace):
        tmp, train, test = workspace
        assert main(["dump-embeddings", "--data", str(train),
                     "--out", str(tmp / "dump.bin")]) == 1


class TestUsageErrors:
    def test_main_calls_share_one_parser(self, tmp_path, capsys, monkeypatch):
        import argparse

        parsers = []
        parse_args = argparse.ArgumentParser.parse_args

        def spy(self, *args, **kwargs):
            parsers.append(self)
            return parse_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
        assert main(["generate", "--classes", "3", "--dim", "4", "--head-size", "10",
                     "--out", str(tmp_path / "x.bin")]) == 0
        assert main(["generate", "--classes", "x"]) == 1
        assert "error: argument --classes: invalid int value: 'x'" in capsys.readouterr().err
        assert len(parsers) == 2 and parsers[0] is parsers[1]

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["generate", "--kappa-range", "a,b"], "argument --kappa-range: invalid float value: 'a,b'",
                     id="kappa-range"),
        pytest.param(["eval", "--kappa-mode", "fixed:abc"], "--kappa-mode fixed:<v> needs a real number, got 'abc'",
                     id="fixed-kappa"),
        pytest.param(["eval", "--adjust-priors", "imbalance:abc"],
                     "--adjust-priors imbalance:<gamma> needs a real number, got 'abc'", id="imbalance"),
        pytest.param(["eval", "--adjust-priors", "imbalance:inf"], "imbalance factor must be >= 1 and finite, got inf",
                     id="imbalance-inf"),
        pytest.param(["eval", "--adjust-priors", "imbalance:nan"], "imbalance factor must be >= 1 and finite, got nan",
                     id="imbalance-nan"),
    ])
    def test_number_in_flag_text_is_checked_and_named(self, workspace, capsys, argv, message):
        # Each exited 1 with only "could not convert string to float: 'a'",
        # or, for inf and nan, failed later inside ClassPriors.
        tmp, train, test = workspace
        assert main(["fit", "--train", str(train), "--out", str(tmp / "clf.json")]) == 0
        files = {"generate": ["--out", str(tmp / "x.bin")],
                 "eval": ["--classifier", str(tmp / "clf.json"), "--data", str(test)]}[argv[0]]
        assert main(argv + files) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"error: {message}"
        assert "could not convert" not in err
        assert not (tmp / "x.bin").exists()

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
