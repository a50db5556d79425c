"""Property tests: fitting ignores row order, adjustment is idempotent, and the
oracle row agrees with the oracle accuracy every row carries."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from spherebayes.classifier import AdjustmentPolicy, ClassPriors, adjust, fit
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
        methods=("softmax", "oracle"),
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
