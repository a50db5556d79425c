"""Tests for equiangular tight frame construction and prior-direction updates."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from spherebayes.priors import EtfFrame, build_etf, grad_step_m0


def _expected_gram(k: int) -> np.ndarray:
    return np.full((k, k), -1.0 / (k - 1)) + np.eye(k) * (1.0 + 1.0 / (k - 1))


class TestBuildEtf:
    def test_three_classes_in_the_plane(self):
        frame = build_etf(3, 2, 0)
        gram = frame.gram()
        assert_allclose(np.diag(gram), 1.0, atol=1e-12)
        off = gram[~np.eye(3, dtype=bool)]
        assert_allclose(off, -0.5, atol=1e-10)

    def test_four_classes(self):
        gram = build_etf(4, 8, 5).gram()
        assert_allclose(gram, _expected_gram(4), atol=1e-10)

    def test_two_classes_are_antipodal(self):
        frame = build_etf(2, 5, 3)
        assert_allclose(frame.vectors[0], -frame.vectors[1], atol=1e-12)

    def test_gram_matches_target_on_random_shapes(self):
        for k, p, seed in [(3, 2, 1), (5, 4, 2), (10, 64, 3), (20, 32, 4), (7, 6, 9)]:
            gram = build_etf(k, p, seed).gram()
            assert_allclose(gram, _expected_gram(k), atol=1e-9)

    def test_seed_changes_frame_but_not_gram(self):
        a = build_etf(6, 12, 0)
        b = build_etf(6, 12, 1)
        assert not np.allclose(a.vectors, b.vectors)
        # Two frames with equal Grams are related by an orthogonal transform.
        assert_allclose(a.gram(), b.gram(), atol=1e-9)

    def test_deterministic(self):
        assert_allclose(build_etf(6, 12, 42).vectors, build_etf(6, 12, 42).vectors, atol=0)

    def test_dimension_gate(self):
        with pytest.raises(ValueError):
            build_etf(4, 2, 0)  # needs p >= K-1
        with pytest.raises(ValueError):
            build_etf(1, 2, 0)
        build_etf(4, 3, 0)  # boundary p = K-1 is allowed


class TestEtfFrame:
    def test_row_norm_enforced(self):
        with pytest.raises(ValueError):
            EtfFrame(np.array([[1.0, 0.0], [0.0, 2.0]]))
        with pytest.raises(ValueError):
            EtfFrame(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestGradStepM0:
    def test_zero_gradient_is_identity(self):
        frame = build_etf(4, 6, 2)
        stepped = grad_step_m0(frame, np.zeros((4, 6)), lr=0.1)
        assert_allclose(stepped.vectors, frame.vectors, atol=0)

    def test_radial_gradient_is_noop(self):
        # A gradient parallel to the direction itself only rescales before
        # the renormalization, so the direction must not move.
        frame = build_etf(3, 4, 7)
        grads = -0.3 * frame.vectors
        stepped = grad_step_m0(frame, grads, lr=0.5)
        assert_allclose(stepped.vectors, frame.vectors, rtol=1e-14)

    def test_small_tangent_step_angle(self):
        # For a tangent gradient g, the new direction satisfies
        # cos(angle) = 1/sqrt(1 + (lr*||g||)^2); at small steps this is
        # cos(lr*||g||) to third order.
        frame = build_etf(3, 5, 1)
        g = np.zeros((3, 5))
        v = frame.vectors[1]
        t = np.eye(5)[3] - (np.eye(5)[3] @ v) * v
        t /= np.linalg.norm(t)
        g[1] = t
        lr = 1e-3
        stepped = grad_step_m0(frame, g, lr)
        cos_angle = stepped.vectors[1] @ v
        assert_allclose(cos_angle, math.cos(lr), rtol=1e-9)
        # the untouched rows stay put
        assert_allclose(stepped.vectors[0], frame.vectors[0], atol=0)

    def test_structure_not_preserved(self):
        # The equiangular property is explicitly allowed to break.
        frame = build_etf(4, 4, 3)
        g = np.zeros((4, 4))
        v = frame.vectors[0]
        t = np.eye(4)[1] - (np.eye(4)[1] @ v) * v
        g[0] = t / np.linalg.norm(t)
        stepped = grad_step_m0(frame, g, lr=0.4)
        off = stepped.gram()[~np.eye(4, dtype=bool)]
        assert np.ptp(off) > 1e-3

    @pytest.mark.parametrize("lr", [1e155, 1e200, 1e300])
    def test_huge_rate_steps_to_unit_rows(self, lr):
        # Past ~1e154 the squares of a stepped row overflowed the plain
        # norm: a RuntimeWarning leaked and the frame check failed with
        # "frame rows must be unit vectors". The step dwarfs the frame, so
        # each row moves to -g/|g|.
        frame = build_etf(3, 4, 0)
        g = np.random.default_rng(1).standard_normal((3, 4))
        stepped = grad_step_m0(frame, g, lr)
        assert_allclose(np.linalg.norm(stepped.vectors, axis=1), 1.0, rtol=1e-15)
        assert_allclose(stepped.vectors, -g / np.linalg.norm(g, axis=1, keepdims=True), rtol=1e-14)

    def test_ordinary_rate_is_bitwise_the_plain_norm(self):
        frame = build_etf(4, 6, 2)
        g = np.random.default_rng(2).standard_normal((4, 6))
        moved = frame.vectors - 0.3 * g
        assert_array_equal(grad_step_m0(frame, g, 0.3).vectors, moved / np.linalg.norm(moved, axis=1, keepdims=True))

    def test_step_past_the_float_range_names_the_rate(self):
        frame = build_etf(3, 4, 0)
        with pytest.raises(ValueError, match=r"learning rate 1e\+300 times the gradients overflows"):
            grad_step_m0(frame, np.full((3, 4), 1e10), 1e300)

    def test_rejects_bad_inputs(self):
        frame = build_etf(3, 4, 0)
        with pytest.raises(ValueError):
            grad_step_m0(frame, np.zeros((2, 4)), lr=0.1)
        with pytest.raises(ValueError):
            grad_step_m0(frame, np.full((3, 4), np.nan), lr=0.1)
        with pytest.raises(ValueError):
            grad_step_m0(frame, np.zeros((3, 4)), lr=0.0)
