"""Property tests: fitting ignores row order and agrees with the one-class
estimation chain, adjustment is idempotent, the oracle row agrees with the
oracle accuracy every row carries, and CSV and binary feature files read back
the same dataset."""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from spherebayes.classifier import AdjustmentPolicy, ClassPriors, adjust, fit
from spherebayes.datagen import Dataset, read_features, write_features
from spherebayes.estimation import (
    ClassStats,
    ConcentrationOverflowError,
    DegeneratePosteriorError,
    map_estimate,
    posterior,
    scale_prior,
    update_stats,
)
from spherebayes.harness import ExperimentConfig, run_experiment
from spherebayes.vmf import substream


def _labelled_sphere_points(seed: int, n: int, p: int, k: int):
    rng = substream(seed)
    g = rng.standard_normal((n, p))
    labels = np.arange(n) % k  # every class present
    return g / np.linalg.norm(g, axis=1, keepdims=True), labels


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(8, 60),
    k=st.integers(2, 5),
    mode=st.sampled_from(["approx", "exact"]),
)
@settings(max_examples=30, deadline=None)
def test_fit_is_invariant_under_row_permutation(seed, n, k, mode):
    z, y = _labelled_sphere_points(seed, n, 4, k)
    order = substream(seed, 1).permutation(n)
    a = fit(z, y, k, alpha_hat=0.5, mode=mode)
    b = fit(z[order], y[order], k, alpha_hat=0.5, mode=mode)
    assert_allclose(b.mus, a.mus, rtol=0, atol=1e-12)
    assert_allclose(b.kappas, a.kappas, rtol=1e-12, atol=1e-12)
    assert_array_equal(b.priors.pi, a.priors.pi)
    assert_array_equal(b.counts, a.counts)


def _units(rng, n: int, p: int) -> np.ndarray:
    g = rng.standard_normal((n, p))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


@given(
    seed=st.integers(0, 10_000),
    k=st.integers(3, 6),
    p=st.integers(2, 6),
    alpha_hat=st.sampled_from([0.0, 0.3, 1.0, 4.0]),
    beta_share=st.sampled_from([0.0, 0.5, 1.0]),
    mode=st.sampled_from(["approx", "exact"]),
)
@settings(max_examples=60, deadline=None)
def test_fit_matches_the_one_class_chain(seed, k, p, alpha_hat, beta_share, mode):
    # Class 0 is empty (it has a direction prior but, scaled by its size,
    # no prior mass); class 1 holds a pair z, -z whose resultant is 0;
    # classes of one sample under alpha_hat = 0 have unbounded kappa; class
    # 2 can always be fitted.
    rng = substream(seed)
    counts = rng.integers(1, 9, size=k)
    counts[:3] = 0, 2, 3
    labels = np.repeat(np.arange(k), counts)
    z = _units(rng, labels.size, p)
    pair = np.flatnonzero(labels == 1)
    z[pair[1]] = -z[pair[0]]
    m0 = _units(rng, k, p)
    beta_hat = beta_share * alpha_hat
    clf = fit(z, labels, k, alpha_hat, beta_hat, m0, mode=mode, on_degenerate="exclude")
    for c in range(k):
        stats = update_stats(ClassStats.empty(p), z[labels == c])
        try:
            ref = map_estimate(posterior(scale_prior(alpha_hat, beta_hat, m0[c], stats.count), stats), mode)
        except (DegeneratePosteriorError, ConcentrationOverflowError):
            assert c in clf.excluded
            continue
        assert c not in clf.excluded
        assert_allclose(clf.kappas[c], ref.kappa, rtol=1e-12, atol=0)
        assert_allclose(clf.mus[c], ref.mu, rtol=0, atol=1e-12)
    assert 0 in clf.excluded


@given(
    seed=st.integers(0, 10_000),
    k=st.integers(2, 6),
    kappa_mode=st.sampled_from(["keep", "shared_mean", "fixed"]),
    target=st.sampled_from(["uniform", "skewed"]),
)
@settings(max_examples=40, deadline=None)
def test_adjust_is_idempotent(seed, k, kappa_mode, target):
    z, y = _labelled_sphere_points(seed, 12 * k, 5, k)
    clf = fit(z, y, k, alpha_hat=0.5)
    pi = ClassPriors.uniform(k) if target == "uniform" else ClassPriors.from_counts(np.arange(1, k + 1))
    policy = AdjustmentPolicy(
        target_priors=pi,
        kappa_mode=kappa_mode,
        fixed_kappa=7.5 if kappa_mode == "fixed" else None,
    )
    once = adjust(clf, policy)
    twice = adjust(once, policy)
    assert_allclose(twice.kappas, once.kappas, rtol=1e-12, atol=1e-12)
    assert_allclose(twice.priors.pi, once.priors.pi, rtol=0, atol=1e-12)
    assert_allclose(twice.mus, once.mus, rtol=0, atol=1e-12)
    assert twice.excluded == once.excluded


@given(seed=st.integers(0, 2**31 - 1), gamma=st.floats(1.0, 50.0))
@settings(max_examples=15, deadline=None)
def test_oracle_row_matches_oracle_accuracy_field(seed, gamma):
    config = ExperimentConfig(
        seeds=(seed,),
        methods=("bape", "softmax", "oracle"),
        n_classes=4,
        dim=5,
        head_size=30,
        gamma=gamma,
        kappa_range=(5.0, 30.0),
        test_per_class=25,
        epochs=2,
    )
    rows = {r.method: r for r in run_experiment(config)}
    assert rows["oracle"].acc_all == rows["oracle"].oracle_accuracy
    assert rows["softmax"].oracle_accuracy == rows["oracle"].oracle_accuracy
    assert rows["bape"].oracle_accuracy == rows["oracle"].oracle_accuracy


@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 40),
    p=st.integers(1, 6),
    k=st.integers(1, 5),
)
@settings(max_examples=40, deadline=None)
def test_csv_and_binary_files_read_back_the_same_dataset(seed, n, p, k):
    rng = substream(seed)
    magnitudes = 10.0 ** rng.uniform(-40.0, 38.0, size=(n, p))
    features = (rng.choice([-1.0, 1.0], size=(n, p)) * magnitudes).astype(np.float32)
    labels = rng.integers(0, k, size=n)
    labels[rng.integers(n)] = k - 1  # the highest class is not empty
    ds = Dataset(features, labels, np.bincount(labels, minlength=k))
    with tempfile.TemporaryDirectory() as tmp:
        back = {}
        for suffix in ("csv", "bapf"):
            path = os.path.join(tmp, f"data.{suffix}")
            write_features(path, ds)
            back[suffix] = read_features(path)
    assert_array_equal(back["csv"].features.view(np.uint32), back["bapf"].features.view(np.uint32))
    assert_array_equal(back["csv"].features.view(np.uint32), ds.features.view(np.uint32))
    for got in back.values():
        assert_array_equal(got.labels, ds.labels)
        assert_array_equal(got.class_counts, ds.class_counts)
