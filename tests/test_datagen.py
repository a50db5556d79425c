"""Tests for long-tail dataset synthesis and the feature-file formats."""

import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import quad
from scipy.special import i0

from spherebayes.classifier import ClassPriors
from spherebayes.datagen import (
    Dataset,
    FeatureFileError,
    LabelRangeError,
    LongTailSpec,
    MagicMismatchError,
    MixtureGroundTruth,
    TruncatedFileError,
    VersionMismatchError,
    class_sizes,
    generate,
    make_truth,
    oracle_accuracy,
    read_features,
    sample_dataset,
    write_features,
)
from spherebayes.special import MAX_KAPPA
from spherebayes.vmf import VmfParams, sample, substream


class TestClassSizes:
    def test_ten_class_profile(self):
        sizes = class_sizes(LongTailSpec(10, 1000, 100.0))
        expected = [
            int(math.floor(1000 * 100.0 ** (-j / 9.0) + 0.5)) for j in range(10)
        ]
        assert sizes == expected
        assert sizes[0] == 1000
        assert sizes[-1] == 10

    def test_balanced_when_gamma_is_one(self):
        assert class_sizes(LongTailSpec(7, 350, 1.0)) == [350] * 7

    def test_decay_matches_independent_derivation(self):
        spec = LongTailSpec(100, 500, 100.0)
        lam = math.exp(-math.log(100.0) / 99.0)
        assert_allclose(spec.decay, lam, rtol=1e-15)
        sizes = class_sizes(spec)
        assert sizes == [max(1, int(math.floor(500 * lam**j + 0.5))) for j in range(100)]

    def test_sizes_never_fall_below_one(self):
        sizes = class_sizes(LongTailSpec(10, 5, 1000.0))
        assert min(sizes) == 1
        assert sizes[0] == 5

    def test_realized_imbalance_tracks_gamma(self):
        for k, n, gamma in [(10, 1000, 100.0), (20, 500, 50.0), (5, 4000, 10.0)]:
            sizes = class_sizes(LongTailSpec(k, n, gamma))
            assert sizes == sorted(sizes, reverse=True)
            realized = sizes[0] / sizes[-1]
            assert abs(realized - gamma) / gamma < 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            LongTailSpec(1, 100, 10.0)
        with pytest.raises(ValueError):
            LongTailSpec(5, 0, 10.0)
        with pytest.raises(ValueError):
            LongTailSpec(5, 100, 0.5)

    @pytest.mark.parametrize("head_size", [2**63 - 513, 2**63 - 512, 2**63 - 1])
    def test_row_total_past_int64_raises(self, head_size):
        # numpy wrapped the total, or failed to take the head class's size.
        with pytest.raises(ValueError, match=r"n_classes and head_size give \d+ rows in total, which must be below"):
            LongTailSpec(3, head_size, 100.0)

    def test_row_total_bound_is_2_to_the_63(self):
        assert sum(class_sizes(LongTailSpec(2, 2**62 - 512, 1.0))) == 2**63 - 1024
        with pytest.raises(ValueError, match=f"give {2**63} rows in total"):
            LongTailSpec(2, 2**62, 1.0)


class TestMakeTruth:
    def test_etf_centers_on_circle(self):
        truth = make_truth(3, 2, (5.0, 5.0), center_mode="etf", seed=0)
        mus = np.stack([c.mu for c in truth.components])
        gram = mus @ mus.T
        off = gram[~np.eye(3, dtype=bool)]
        # three equiangular directions in the plane sit 120 degrees apart
        assert_allclose(off, -0.5, atol=1e-10)

    def test_kappas_live_in_range(self):
        truth = make_truth(30, 8, (5.0, 50.0), center_mode="random", seed=1)
        kappas = np.array([c.kappa for c in truth.components])
        assert np.all(kappas >= 5.0) and np.all(kappas <= 50.0)
        assert kappas.std() > 0

    def test_degenerate_range_pins_kappa(self):
        truth = make_truth(4, 6, (12.0, 12.0), seed=2)
        assert_allclose([c.kappa for c in truth.components], 12.0, rtol=1e-12)

    def test_random_centers_are_unit_and_seeded(self):
        a = make_truth(5, 16, (5.0, 50.0), center_mode="random", seed=3)
        b = make_truth(5, 16, (5.0, 50.0), center_mode="random", seed=3)
        c = make_truth(5, 16, (5.0, 50.0), center_mode="random", seed=4)
        mus = np.stack([comp.mu for comp in a.components])
        assert_allclose(np.linalg.norm(mus, axis=1), 1.0, atol=1e-12)
        assert_array_equal(mus, np.stack([comp.mu for comp in b.components]))
        assert not np.array_equal(mus, np.stack([comp.mu for comp in c.components]))

    def test_default_priors_uniform(self):
        truth = make_truth(4, 5, (5.0, 10.0), seed=0)
        assert_allclose(truth.priors.pi, 0.25, atol=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_truth(3, 4, (0.0, 5.0))
        with pytest.raises(ValueError):
            make_truth(3, 4, (10.0, 5.0))
        # An infinite upper end escaped as an OverflowError from the draw; one
        # above MAX_KAPPA failed or passed by the draw.
        for bad in [(5.0, np.inf), (5.0, 2e6), (np.nan, 5.0), (5.0, np.nan), (-np.inf, 5.0), (2e6, 3e6)]:
            with pytest.raises(ValueError, match="kappa range must satisfy"):
                make_truth(3, 4, bad)
        assert make_truth(3, 4, (5.0, MAX_KAPPA)).n_classes == make_truth(3, 4, (MAX_KAPPA, MAX_KAPPA)).n_classes == 3
        with pytest.raises(ValueError):
            make_truth(3, 4, (5.0, 10.0), center_mode="grid")


class TestSampleDataset:
    def _truth(self, k=3, p=4, seed=0):
        return make_truth(k, p, (10.0, 30.0), center_mode="random", seed=seed)

    def test_counts_are_exact(self):
        ds = sample_dataset(self._truth(), [7, 3, 5], seed=0)
        assert ds.n == 15
        assert_array_equal(ds.class_counts, [7, 3, 5])
        assert_array_equal(np.bincount(ds.labels), [7, 3, 5])

    def test_per_class_streams_are_independent(self):
        # Growing one class's count must not disturb another class's draws.
        truth = self._truth()
        small = sample_dataset(truth, [5, 7, 2], seed=1)
        big = sample_dataset(truth, [5, 100, 2], seed=1)
        assert_array_equal(small.features[:5], big.features[:5])
        assert_array_equal(
            small.features[12:], big.features[105:]
        )

    def test_stream_tag_separates_train_from_test(self):
        truth = self._truth()
        train = sample_dataset(truth, [10, 10, 10], seed=1, stream=2)
        test = sample_dataset(truth, [10, 10, 10], seed=1, stream=3)
        assert not np.array_equal(train.features, test.features)

    def test_zero_count_class(self):
        ds = sample_dataset(self._truth(), [4, 0, 2], seed=0)
        assert ds.n == 6
        assert_array_equal(ds.class_counts, [4, 0, 2])
        assert not np.any(ds.labels == 1)

    def test_validation(self):
        truth = self._truth()
        with pytest.raises(ValueError):
            sample_dataset(truth, [1, 2], seed=0)
        with pytest.raises(ValueError):
            sample_dataset(truth, [1, -1, 2], seed=0)

    def test_all_zero_counts_raise_their_own_error(self):
        with pytest.raises(ValueError, match="counts are all zero"):
            sample_dataset(self._truth(), [0, 0, 0], seed=0)

    def test_row_total_past_int64_raises(self):
        # numpy summed the counts into a negative row count.
        with pytest.raises(ValueError, match="counts give 13835058055282163712 rows in total"):
            sample_dataset(self._truth(), [2**62] * 3, seed=0)

    def test_features_past_the_address_space_are_out_of_memory(self):
        # numpy's "array is too big" was a ValueError; no row is drawn.
        with pytest.raises(MemoryError, match="4611686018427387904 rows of 4 float32 features"):
            sample_dataset(self._truth(), [2**62, 0, 0], seed=0)

    @pytest.mark.parametrize("counts", [[7, 3, 5, 1], [0, 12, 0, 4], [9, 0, 0, 0], [0, 0, 0, 2]])
    def test_bitwise_equal_to_concatenated_blocks(self, counts):
        # The parent formula: one block per class, concatenated, then cast.
        truth = self._truth(k=4, p=6, seed=3)
        ds = sample_dataset(truth, counts, seed=5, stream=3)
        blocks = [sample(truth.components[j], c, substream(5, 3, j)) for j, c in enumerate(counts) if c]
        labels = [np.full(c, j, dtype=np.int64) for j, c in enumerate(counts) if c]
        expected = np.concatenate(blocks).astype(np.float32)
        assert ds.features.dtype == np.float32 and ds.features.flags.c_contiguous
        assert_array_equal(ds.features.view(np.uint32), expected.view(np.uint32))
        assert_array_equal(ds.labels, np.concatenate(labels))
        assert ds.labels.dtype == np.int64

    @pytest.mark.parametrize("k, p, counts, stream", [
        (100, 128, [100] * 100, 3),  # the lt-exact-m0 test draw's shape, at half its rows
        (20, 32, class_sizes(LongTailSpec(20, 500, 100.0)), 2),  # the lt-default training draw
    ])
    def test_bitwise_equal_to_the_single_loop(self, k, p, counts, stream):
        # The draw before its check and allocation were split from its fill:
        # one loop writing each class's block into the allocated matrix.
        truth = make_truth(k, p, (20.0, 200.0), center_mode="random", seed=4)
        expected = np.empty((sum(counts), p), dtype=np.float32)
        start = 0
        for j, cnt in enumerate(counts):
            if cnt:
                expected[start : start + cnt] = sample(truth.components[j], cnt, substream(9, stream, j))
                start += cnt
        ds = sample_dataset(truth, counts, seed=9, stream=stream)
        assert_array_equal(ds.features.view(np.uint32), expected.view(np.uint32))
        assert_array_equal(ds.labels, np.repeat(np.arange(k), counts))
        assert_array_equal(ds.class_counts, counts)


class TestGenerate:
    def test_deterministic_and_seed_sensitive(self):
        spec = LongTailSpec(5, 200, 20.0)
        a, ta = generate(spec, 8, seed=5)
        b, tb = generate(spec, 8, seed=5)
        c, _ = generate(spec, 8, seed=6)
        assert_array_equal(a.features, b.features)
        assert_array_equal(a.labels, b.labels)
        assert not np.array_equal(a.features, c.features)
        assert_array_equal(
            np.stack([x.mu for x in ta.components]),
            np.stack([x.mu for x in tb.components]),
        )

    def test_counts_echo_profile(self):
        spec = LongTailSpec(6, 300, 30.0)
        ds, truth = generate(spec, 10, seed=0)
        assert_array_equal(ds.class_counts, class_sizes(spec))
        assert_allclose(
            truth.priors.pi, np.array(class_sizes(spec)) / ds.n, atol=1e-12
        )

    def test_feature_geometry(self):
        ds, _ = generate(LongTailSpec(4, 100, 10.0), 12, seed=2)
        assert ds.features.dtype == np.float32
        assert ds.labels.dtype == np.int64
        assert_allclose(
            np.linalg.norm(ds.features.astype(float), axis=1), 1.0, atol=1e-6
        )


class TestOracleAccuracy:
    def test_separated_components_score_near_one(self):
        truth = MixtureGroundTruth(
            (
                VmfParams(mu=np.array([1.0, 0.0, 0.0]), kappa=200.0),
                VmfParams(mu=np.array([-1.0, 0.0, 0.0]), kappa=200.0),
            ),
            ClassPriors.uniform(2),
        )
        test = sample_dataset(truth, [2000, 2000], seed=0, stream=3)
        assert oracle_accuracy(truth, test) > 0.999

    def test_identical_components_fall_to_chance(self):
        mu = np.array([0.0, 1.0, 0.0])
        truth = MixtureGroundTruth(
            (VmfParams(mu=mu, kappa=5.0), VmfParams(mu=mu, kappa=5.0)),
            ClassPriors.uniform(2),
        )
        test = sample_dataset(truth, [3000, 3000], seed=1, stream=3)
        # indistinguishable classes: every tie breaks to class 0
        assert oracle_accuracy(truth, test) == 0.5

    def test_matches_quadrature_on_the_circle(self):
        # Two equal-spread classes 90 degrees apart; the error of the nearest
        # -center rule is the tail mass beyond the bisector, computed by
        # direct integration of exp(kappa cos t) / (2 pi I0(kappa)).
        kappa = 4.0
        truth = MixtureGroundTruth(
            (
                VmfParams(mu=np.array([1.0, 0.0]), kappa=kappa),
                VmfParams(mu=np.array([0.0, 1.0]), kappa=kappa),
            ),
            ClassPriors.uniform(2),
        )
        err, _ = quad(lambda t: math.exp(kappa * math.cos(t)), math.pi / 4, 5 * math.pi / 4)
        err /= 2 * math.pi * i0(kappa)
        expected = 1.0 - err  # 0.9287835796373968
        test = sample_dataset(truth, [40_000, 40_000], seed=2, stream=3)
        assert abs(oracle_accuracy(truth, test) - expected) < 0.01

    def test_true_rule_dominates_mismatched_priors(self):
        # Scoring with the test set's own proportions beats pretending the
        # classes are balanced, beyond 3 binomial sigmas.
        truth = make_truth(2, 6, (3.0, 3.0), center_mode="random", seed=3)
        counts = [40_000, 10_000]
        test = sample_dataset(truth, counts, seed=3, stream=3)
        n = test.n
        acc_true = oracle_accuracy(truth, test)
        from spherebayes.classifier import predict

        flat = truth.classifier(ClassPriors.uniform(2))
        acc_flat = float(
            np.mean(predict(flat, test.features.astype(float)) == test.labels)
        )
        sigma = math.sqrt(acc_true * (1 - acc_true) / n)
        assert acc_true >= acc_flat - 3.0 * sigma
        assert acc_true > acc_flat  # strictly better here

    def test_dimension_mismatch(self):
        truth = make_truth(2, 4, (5.0, 5.0), seed=0)
        other = sample_dataset(make_truth(2, 5, (5.0, 5.0), seed=0), [5, 5], seed=0)
        with pytest.raises(ValueError):
            oracle_accuracy(truth, other)


class TestDatasetValidation:
    def test_count_mismatch_rejected(self):
        f = np.eye(3, 4, dtype=np.float32)
        with pytest.raises(ValueError):
            Dataset(f, np.array([0, 1, 1]), np.array([2, 1]))

    def test_nonfinite_rejected(self):
        f = np.full((2, 3), np.nan, dtype=np.float32)
        with pytest.raises(ValueError):
            Dataset(f, np.array([0, 1]), np.array([1, 1]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", [0, 999])
    def test_nonfinite_first_or_last_row_rejected(self, value, row):
        # 1000 rows of 128 values: the check's blocks of rows end in a partial one.
        f = np.zeros((1000, 128), dtype=np.float32)
        f[row, 127 if row else 0] = value
        with pytest.raises(ValueError, match="^features contain non-finite values$"):
            Dataset(f, np.zeros(1000, dtype=np.int64), np.array([1000]))

    def test_finiteness_check_makes_no_full_size_temporary(self):
        # One bool per value would be 2.56 MB at 20000 x 128.
        f = substream(0, 0).standard_normal((20000, 128)).astype(np.float32)
        labels, counts = np.repeat(np.arange(4, dtype=np.int64), 5000), np.full(4, 5000, dtype=np.int64)
        tracemalloc.start()
        try:
            ds = Dataset(f, labels, counts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.features is f
        assert peak < 1_000_000

    def test_label_range_rejected(self):
        f = np.eye(2, 3, dtype=np.float32)
        with pytest.raises(ValueError):
            Dataset(f, np.array([0, 5]), np.array([1, 1]))


class TestFeatureFiles:
    def _dataset(self, seed=0, n=40, p=6, k=4):
        g = substream(seed, 70).standard_normal((n, p)).astype(np.float32)
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        y = substream(seed, 71).integers(k, size=n)
        return Dataset(g, y, np.bincount(y, minlength=k))

    def test_binary_round_trip_is_bit_exact(self, tmp_path):
        ds = self._dataset()
        path = tmp_path / "data.bin"
        write_features(path, ds)
        back = read_features(path)
        assert_array_equal(back.features, ds.features)
        assert_array_equal(back.labels, ds.labels)
        assert_array_equal(back.class_counts, ds.class_counts)

    def test_binary_layout(self, tmp_path):
        ds = self._dataset(n=3, p=2, k=2)
        path = tmp_path / "data.bin"
        write_features(path, ds)
        raw = path.read_bytes()
        assert raw[:4] == b"BAPF"
        version, n, p, k = struct.unpack("<IIII", raw[4:20])
        assert (version, n, p, k) == (1, 3, 2, 2)
        assert len(raw) == 20 + 4 * n * p + 4 * n

    def test_csv_round_trip_is_bit_exact(self, tmp_path):
        ds = self._dataset()
        path = tmp_path / "data.csv"
        write_features(path, ds)
        first = path.read_text().splitlines()[0]
        assert first == "label," + ",".join(f"f{i}" for i in range(6))
        back = read_features(path)
        # shortest-round-trip decimal strings restore every float32 bit
        assert_array_equal(back.features, ds.features)
        assert_array_equal(back.labels, ds.labels)

    def test_truncation_is_detected_everywhere(self, tmp_path):
        ds = self._dataset()
        path = tmp_path / "data.bin"
        write_features(path, ds)
        raw = path.read_bytes()
        for cut in (10, 19, 20 + 7, 20 + 4 * ds.n * ds.dim + 3, len(raw) - 1):
            short = tmp_path / f"cut{cut}.bin"
            short.write_bytes(raw[:cut])
            with pytest.raises(TruncatedFileError):
                read_features(short)

    def test_magic_mismatch(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"PNG\x00" + b"\x00" * 64)
        with pytest.raises(MagicMismatchError):
            read_features(path)

    def test_version_mismatch(self, tmp_path):
        ds = self._dataset()
        path = tmp_path / "data.bin"
        write_features(path, ds)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 2)
        bad = tmp_path / "v2.bin"
        bad.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatchError):
            read_features(bad)

    def test_label_out_of_declared_range(self, tmp_path):
        ds = self._dataset(n=4, p=2, k=4)
        path = tmp_path / "data.bin"
        write_features(path, ds)
        raw = bytearray(path.read_bytes())
        # overwrite the last label with one beyond the declared class count
        raw[-4:] = struct.pack("<I", 9)
        bad = tmp_path / "badlabel.bin"
        bad.write_bytes(bytes(raw))
        with pytest.raises(LabelRangeError):
            read_features(bad)

    def test_csv_malformations(self, tmp_path):
        bad_header = tmp_path / "h.csv"
        bad_header.write_text("labels,f0\n0,1.0\n")
        with pytest.raises(MagicMismatchError):
            read_features(bad_header)

        ragged = tmp_path / "r.csv"
        ragged.write_text("label,f0,f1\n0,1.0,0.0\n1,0.5\n")
        with pytest.raises(TruncatedFileError):
            read_features(ragged)

        empty = tmp_path / "e.csv"
        empty.write_text("label,f0,f1\n")
        with pytest.raises(TruncatedFileError):
            read_features(empty)

        negative = tmp_path / "n.csv"
        negative.write_text("label,f0,f1\n-1,1.0,0.0\n")
        with pytest.raises(LabelRangeError):
            read_features(negative)

        # A corrupt field is a feature-file error naming the file and the row,
        # not a bare int() or numpy message.
        for name, row, what in [
            ("l.csv", "x,1.0,0.0", "label 'x', not an integer"),
            ("b.csv", "99999999999999999999,1.0,0.0", "label 99999999999999999999, outside [0, 2**32)"),
            ("m.csv", "-99999999999999999999,1.0,0.0", "label -99999999999999999999, outside [0, 2**32)"),
            ("f.csv", "1.5,1.0,0.0", "label '1.5', not an integer"),
            ("v.csv", "1,abc,0.0", "a feature that is not a number"),
            ("w.csv", "1,1.0,", "a feature that is not a number"),
        ]:
            corrupt = tmp_path / name
            corrupt.write_text(f"label,f0,f1\n0,1.0,0.0\n{row}\n")
            with pytest.raises(FeatureFileError, match=re.escape(f"{corrupt}: row 3 has {what}")):
                read_features(corrupt)

    def test_errors_share_a_base_class(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"nope")
        with pytest.raises(FeatureFileError):
            read_features(path)
