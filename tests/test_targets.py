import math

import numpy as np
import pytest

from distilcal import (
    InvalidInputError,
    InvalidParameterError,
    interpolate_target,
    one_hot,
    smooth_label,
    soft_label,
)
from distilcal.probs import as_probs, softmax_t


class TestOneHot:
    def test_definition(self):
        np.testing.assert_array_equal(one_hot([0], 3)[0], [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(one_hot([2], 3)[0], [0.0, 0.0, 1.0])

    def test_always_on_simplex(self):
        for k in (2, 5, 50):
            for idx in (0, k - 1):
                as_probs(one_hot([idx], k))

    def test_bad_index_rejected(self):
        with pytest.raises(InvalidInputError):
            one_hot([3], 3)
        with pytest.raises(InvalidInputError):
            one_hot([-1], 4)

    def test_single_class_rejected(self):
        with pytest.raises(InvalidParameterError, match=r"^need at least 2 classes, got 1$"):
            one_hot([0, 0], 1)


class TestSmoothLabel:
    def test_hand_evaluated(self):
        # true class: 1 - 0.1 + 0.1/4 = 0.925; the rest get 0.1/4 = 0.025
        out = smooth_label([0], 4, 0.1)[0]
        np.testing.assert_allclose(out, [0.925, 0.025, 0.025, 0.025], atol=1e-15)

    def test_zero_epsilon_is_one_hot(self):
        np.testing.assert_array_equal(
            smooth_label([1], 5, 0.0), one_hot([1], 5)
        )

    def test_full_epsilon_is_uniform(self):
        for k in (2, 7):
            out = smooth_label([0], k, 1.0)[0]
            np.testing.assert_allclose(out, np.full(k, 1 / k), atol=1e-15)

    def test_argmax_stays_at_true_class_below_one(self):
        for eps in (0.1, 0.5, 0.9, 0.999):
            out = smooth_label([3], 6, eps)[0]
            assert np.argmax(out) == 3
            as_probs(out)

    def test_epsilon_range_enforced(self):
        with pytest.raises(InvalidParameterError):
            smooth_label([0], 2, -0.1)
        with pytest.raises(InvalidParameterError):
            smooth_label([0], 2, 1.1)


class TestSoftLabel:
    def test_symmetric_logits_any_temperature(self):
        for t in (0.1, 1.0, 42.0):
            np.testing.assert_allclose(soft_label([[0.0, 0.0]], t)[0], [0.5, 0.5])

    def test_hand_evaluated(self):
        # logits (2, 0) at T=2 is softmax of (1, 0)
        e = math.e
        np.testing.assert_allclose(
            soft_label([[2.0, 0.0]], 2.0)[0], [e / (e + 1), 1 / (e + 1)], atol=1e-15
        )

    def test_unit_temperature_is_plain_softmax(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 9))
        np.testing.assert_array_equal(soft_label(x, 1.0), softmax_t(x))

    def test_bad_temperature(self):
        with pytest.raises(InvalidParameterError):
            soft_label([[1.0, 2.0]], 0.0)


class TestInterpolateTarget:
    def test_endpoints(self):
        soft = np.array([[0.6, 0.4]])
        np.testing.assert_array_equal(interpolate_target([0], soft, 1.0), one_hot([0], 2))
        np.testing.assert_array_equal(interpolate_target([0], soft, 0.0), soft)

    def test_hand_evaluated_midpoint(self):
        out = interpolate_target([0], [[0.6, 0.4]], 0.5)[0]
        np.testing.assert_allclose(out, [0.8, 0.2], atol=1e-15)

    def test_monotone_in_lambda_componentwise(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            k = int(rng.integers(2, 9))
            label = [int(rng.integers(0, k))]
            soft = rng.dirichlet(np.ones(k))[None]
            lams = np.linspace(0, 1, 11)
            curves = np.concatenate([interpolate_target(label, soft, lam) for lam in lams])
            deltas = np.diff(curves, axis=0)
            # each component moves one way only (toward its one-hot endpoint)
            assert np.all((deltas >= -1e-15).all(axis=0) | (deltas <= 1e-15).all(axis=0))
            for row in curves:
                as_probs(row)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            interpolate_target([0, 1], [[0.5, 0.5]], 0.5)

    def test_lambda_range(self):
        with pytest.raises(InvalidParameterError):
            interpolate_target([0], [[0.5, 0.5]], 1.5)
        with pytest.raises(InvalidParameterError):
            interpolate_target([0], [[0.5, 0.5]], -0.2)
