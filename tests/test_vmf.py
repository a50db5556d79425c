"""Tests for the vMF value type: validation, log-density, sampling."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from spherebayes.special import log_sphere_area, mean_resultant_ratio
from spherebayes.vmf import (
    UNIT_NORM_TOL,
    VmfParams,
    _norms,
    _sample_cosines,
    as_unit_vector,
    log_density,
    sample,
    substream,
)


class TestAsUnitVector:
    def test_renormalizes_small_drift(self):
        v = np.array([1.0, 0.0, 0.0]) * (1.0 + 5e-7)
        out = as_unit_vector(v)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_rejects_large_deviation(self):
        with pytest.raises(ValueError):
            as_unit_vector(np.array([1.0 + 1e-5, 0.0]))
        with pytest.raises(ValueError):
            as_unit_vector(np.zeros(3))

    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(ValueError):
            as_unit_vector(np.array([1.0]))  # dimension 1
        with pytest.raises(ValueError):
            as_unit_vector(np.array([np.nan, 0.0]))
        with pytest.raises(ValueError):
            as_unit_vector(np.eye(3)[0], dim=4)

    def test_batch_rows(self):
        batch = np.eye(4)[:3] * (1.0 - 2e-7)
        out = as_unit_vector(batch, dim=4)
        assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_directions_accepted(self, seed):
        g = substream(seed).standard_normal(6)
        if np.linalg.norm(g) < 1e-6:
            return
        out = as_unit_vector(g / np.linalg.norm(g))
        assert abs(np.linalg.norm(out) - 1.0) <= UNIT_NORM_TOL


def drifted_rows(n, p, seed, dtype=float):
    """n unit rows in the given dtype, off the sphere by float drift only."""
    g = substream(seed, 31).standard_normal((n, p))
    return (g / np.linalg.norm(g, axis=1, keepdims=True)).astype(dtype)


class TestAsUnitVectorAliasing:
    """The result is bitwise v / ||v|| (norms as np.linalg.norm takes them)
    and the caller's memory is never written, whatever form v comes in."""

    @staticmethod
    def _expected(v):
        u = np.array(v, dtype=float)
        return u / np.linalg.norm(u, axis=-1, keepdims=True)

    def _check_untouched(self, v, before):
        out = as_unit_vector(v)
        assert_array_equal(np.asarray(v), before)
        assert_array_equal(out, self._expected(before))
        return out

    def test_float64_array(self):
        v = drifted_rows(300, 5, 1) * (1.0 + 3e-7)
        out = self._check_untouched(v, v.copy())
        assert not np.may_share_memory(out, v)

    def test_one_vector(self):
        v = np.array([3.0, 4.0]) / 5.0 * (1.0 - 4e-7)
        self._check_untouched(v, v.copy())

    def test_strided_view(self):
        base = np.full((1200, 24), 7.0)
        base[:, ::2] = drifted_rows(1200, 12, 2) * (1.0 - 2e-7)
        snapshot = base.copy()
        view = base[::3, ::2]
        self._check_untouched(view, view.copy())
        assert_array_equal(base, snapshot)

    def test_fortran_order(self):
        v = np.asfortranarray(drifted_rows(5000, 7, 3))
        self._check_untouched(v, v.copy())

    def test_memmap(self, tmp_path):
        rows = drifted_rows(2000, 6, 4) * (1.0 + 5e-7)
        mm = np.memmap(tmp_path / "rows.f64", dtype=float, mode="w+", shape=rows.shape)
        mm[:] = rows
        mm.flush()
        self._check_untouched(mm, rows)
        assert_array_equal(np.fromfile(tmp_path / "rows.f64").reshape(rows.shape), rows)

    def test_list(self):
        rows = drifted_rows(20, 4, 5) * (1.0 + 1e-7)
        v = rows.tolist()
        self._check_untouched(v, rows)
        assert v == rows.tolist()

    def test_float32_rows_are_divided_in_their_copy(self):
        rows = drifted_rows(3000, 16, 6, dtype=np.float32)
        out = self._check_untouched(rows, rows.copy())
        assert out.dtype == np.float64 and not np.may_share_memory(out, rows)

    def test_float32_rows_make_no_second_full_size_array(self):
        # One float64 copy of the rows is the floor; a full-size temporary
        # (the squares of a one-call norm, or an out-of-place divide) would
        # double the peak.
        rows = drifted_rows(20000, 128, 7, dtype=np.float32)
        copy_bytes = rows.size * 8
        tracemalloc.start()
        try:
            out = as_unit_vector(rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == rows.shape
        assert peak < 1.5 * copy_bytes

    @pytest.mark.parametrize("shape", [(1, 3), (7, 2), (511, 128), (512, 128), (513, 128), (40000, 2), (3001, 300)])
    def test_blocked_norms_bitwise_equal_one_call(self, shape):
        u = substream(8, *shape).standard_normal(shape) * 3.0
        assert_array_equal(_norms(u), np.linalg.norm(u, axis=-1))
        assert_array_equal(_norms(np.asfortranarray(u)), np.linalg.norm(np.asfortranarray(u), axis=-1))
        assert_array_equal(_norms(u[:, ::-1]), np.linalg.norm(u[:, ::-1], axis=-1))

    @pytest.mark.parametrize("bad, message", [(np.nan, "non-finite"), (np.inf, "non-finite"), (-np.inf, "non-finite"),
                                              (2.0, "off the unit sphere")])
    def test_failure_messages(self, bad, message):
        rows = drifted_rows(2000, 64, 9)
        rows[1234, 5] = bad
        with pytest.raises(ValueError, match=message):
            as_unit_vector(rows)


class TestVmfParams:
    def test_dim_inferred_and_validated(self):
        params = VmfParams(mu=np.eye(5)[0], kappa=3.0)
        assert params.dim == 5
        with pytest.raises(ValueError):
            VmfParams(mu=np.eye(5)[0], kappa=3.0, dim=4)

    def test_rejects_invalid_kappa(self):
        with pytest.raises(ValueError):
            VmfParams(mu=np.eye(3)[0], kappa=-1.0)
        with pytest.raises(ValueError):
            VmfParams(mu=np.eye(3)[0], kappa=math.inf)
        with pytest.raises(ValueError):
            VmfParams(mu=np.eye(3)[0], kappa=2e6)


class TestLogDensity:
    def test_uniform_sphere(self):
        params = VmfParams(mu=np.eye(3)[0], kappa=0.0)
        z = as_unit_vector(np.array([0.3, -0.4, 0.866025403784438]))
        assert_allclose(log_density(params, z), -2.5310242469692908, rtol=1e-14)

    def test_p3_at_mode(self):
        # kappa * 1 - ln C_3(1) with C_3(1) = 4 pi sinh(1)
        params = VmfParams(mu=np.eye(3)[1], kappa=1.0)
        assert_allclose(log_density(params, params.mu), 1.0 - 2.6924636085404864, rtol=1e-13)

    def test_p2_orthogonal_direction(self):
        # the exponent dies, leaving -ln C_2(1) = -ln(2 pi I_0(1))
        params = VmfParams(mu=np.array([1.0, 0.0]), kappa=1.0)
        assert_allclose(
            log_density(params, np.array([0.0, 1.0])), -2.0737914249165241, rtol=1e-13
        )

    def test_batch_shape(self):
        params = VmfParams(mu=np.eye(4)[0], kappa=2.0)
        z = sample(params, 7, 0)
        out = log_density(params, z)
        assert out.shape == (7,)
        assert_allclose(out[0], log_density(params, z[0]), rtol=1e-15)

    def test_dimension_mismatch(self):
        params = VmfParams(mu=np.eye(3)[0], kappa=1.0)
        with pytest.raises(ValueError):
            log_density(params, np.eye(4)[0])

    def test_integrates_to_one_by_importance_sampling(self):
        # E_uniform[f] * area(S^7) must be 1; Monte Carlo with 2e5 draws
        # has relative noise well under the 2% gate.
        params = VmfParams(mu=np.eye(8)[0], kappa=2.0)
        uniform = VmfParams(mu=np.eye(8)[0], kappa=0.0)
        z = sample(uniform, 200_000, substream(123, 9))
        estimate = np.exp(log_density(params, z) + log_sphere_area(8)).mean()
        assert abs(estimate - 1.0) < 0.02


class TestSubstream:
    def test_keyed_streams_are_stable(self):
        # Frozen draws pin the generator's platform-independent behavior.
        assert substream(7, 1).integers(2**32, size=4).tolist() == [
            2926574226,
            2064083997,
            1713814180,
            255730112,
        ]
        assert substream(7).integers(2**32, size=4).tolist() == [
            4058335883,
            2684764585,
            2938530453,
            3853503932,
        ]

    def test_distinct_keys_decorrelate(self):
        a = substream(3, 0).standard_normal(1000)
        b = substream(3, 1).standard_normal(1000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.1


def reference_sample(params, n, rng):
    """The sampler as first written, out of place: np.outer for the
    reflection and a fresh array for each step."""
    p = params.dim
    if params.kappa == 0.0:
        g = rng.standard_normal((n, p))
        return g / np.linalg.norm(g, axis=1, keepdims=True)
    w = _sample_cosines(params.kappa, p, n, rng)
    v = rng.standard_normal((n, p - 1))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    x = np.empty((n, p))
    x[:, 0] = w
    x[:, 1:] = np.sqrt(np.clip(1.0 - w * w, 0.0, None))[:, np.newaxis] * v
    u = -params.mu.copy()
    u[0] += 1.0
    uu = float(u @ u)
    if uu > 1e-24:
        x -= (2.0 / uu) * np.outer(x @ u, u)
    return x / np.linalg.norm(x, axis=1, keepdims=True)


class TestSample:
    @pytest.mark.parametrize("kappa", [0.0, 0.7, 35.0, 4000.0])
    @pytest.mark.parametrize("axis", [False, True])
    def test_bitwise_equal_to_out_of_place_reference(self, kappa, axis):
        # axis: mu = e_1, where no reflection is applied.
        mu = np.eye(9)[0] if axis else drifted_rows(1, 9, 12)[0]
        params = VmfParams(mu=mu, kappa=kappa)
        got = sample(params, 257, substream(13, 1))
        assert_array_equal(got, reference_sample(params, 257, substream(13, 1)))

    def test_deterministic_per_seed(self):
        params = VmfParams(mu=as_unit_vector(np.ones(6) / math.sqrt(6)), kappa=9.0)
        assert_array_equal(sample(params, 50, 11), sample(params, 50, 11))
        assert not np.array_equal(sample(params, 50, 11), sample(params, 50, 12))

    def test_outputs_are_unit(self):
        params = VmfParams(mu=np.eye(9)[2], kappa=4.0)
        z = sample(params, 500, 5)
        assert_allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-12)

    def test_uniform_mean_is_small(self):
        uniform = VmfParams(mu=np.eye(8)[0], kappa=0.0)
        z = sample(uniform, 10_000, substream(1, 0))
        assert np.linalg.norm(z.mean(axis=0)) <= 0.05

    def test_resultant_matches_ratio(self):
        # E ||mean of n draws|| converges to A_p(kappa).
        params = VmfParams(mu=np.eye(16)[3], kappa=20.0)
        z = sample(params, 50_000, substream(0, 1))
        resultant = np.linalg.norm(z.mean(axis=0))
        assert abs(resultant - mean_resultant_ratio(16, 20.0)) <= 0.01

    def test_degenerate_concentration(self):
        params = VmfParams(mu=as_unit_vector(np.array([0.6, 0.8, 0.0])), kappa=1e6)
        z = sample(params, 100, 3)
        assert np.all(z @ params.mu > 0.999)

    def test_rotation_equivariance(self):
        # The cosine-against-mu stream depends only on (kappa, seed), so two
        # means related by a rotation give samples whose mu-cosines match.
        rng = substream(77)
        q, r = np.linalg.qr(rng.standard_normal((5, 5)))
        q *= np.sign(np.diag(r))
        mu = np.eye(5)[0]
        a = sample(VmfParams(mu=mu, kappa=7.0), 10_000, substream(8, 0))
        b = sample(VmfParams(mu=q @ mu, kappa=7.0), 10_000, substream(8, 0))
        assert_allclose(a @ mu, b @ (q @ mu), atol=1e-9)
        assert abs(np.linalg.norm(a.mean(axis=0)) - np.linalg.norm(b.mean(axis=0))) < 1e-9

    def test_rejects_bad_count(self):
        params = VmfParams(mu=np.eye(3)[0], kappa=1.0)
        with pytest.raises(ValueError):
            sample(params, 0, 1)
