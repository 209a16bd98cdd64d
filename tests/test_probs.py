import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distilcal import InvalidInputError, InvalidParameterError
from distilcal.probs import as_probs, log_softmax_t, softmax_t, top_n


class TestSoftmax:
    def test_symmetry_uniform(self):
        np.testing.assert_allclose(softmax_t([0.0, 0.0, 0.0]), [1 / 3] * 3, atol=1e-15)

    def test_hand_evaluated_two_class(self):
        # exp(ln 2) = 2 against exp(0) = 1, so the masses are 2/3 and 1/3.
        np.testing.assert_allclose(
            softmax_t([math.log(2.0), 0.0]), [2 / 3, 1 / 3], atol=1e-15
        )

    def test_infinite_temperature_limit(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            k = int(rng.integers(2, 12))
            p = softmax_t(rng.normal(scale=50, size=k), t=1e9)
            np.testing.assert_allclose(p, np.full(k, 1 / k), atol=1e-6)

    def test_sums_to_one_across_temperatures(self):
        rng = np.random.default_rng(11)
        for t in (1e-3, 0.5, 1.0, 5.0, 1e4, 1e9):
            x = rng.normal(scale=100, size=30)
            assert abs(softmax_t(x, t).sum() - 1.0) < 1e-9

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=10)
        for shift in (-1e3, -1.0, 4.2, 1e3):
            diff = np.abs(softmax_t(x, 2.0) - softmax_t(x + shift, 2.0)).max()
            assert diff < 1e-12

    def test_argmax_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.normal(scale=10, size=8)
            for t in (1e-3, 0.3, 1.0, 7.0, 1e6):
                assert np.argmax(softmax_t(x, t)) == np.argmax(x)

    def test_batched_rows_match_vectors(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(6, 5))
        batched = softmax_t(x, 3.0)
        for i in range(6):
            np.testing.assert_array_equal(batched[i], softmax_t(x[i], 3.0))

    def test_wide_class_counts_stay_on_simplex(self):
        rng = np.random.default_rng(21)
        p = softmax_t(rng.normal(scale=5, size=5000), t=2.0)
        as_probs(p)
        assert top_n(p, 5000)[1] <= top_n(p, 1)[1]

    def test_rejects_bad_temperature(self):
        for t in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(InvalidParameterError):
                softmax_t([1.0, 2.0], t)

    def test_rejects_non_finite_logits(self):
        with pytest.raises(InvalidInputError):
            softmax_t([1.0, float("inf")])

    def test_rejects_single_class(self):
        with pytest.raises(InvalidInputError):
            softmax_t([1.0])


class TestLogSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(
            log_softmax_t([0.0, 0.0]), [-math.log(2)] * 2, atol=1e-15
        )

    def test_huge_gap_no_overflow(self):
        out = log_softmax_t([1000.0, 0.0])
        assert np.all(np.isfinite(out))
        assert abs(out[0]) < 1e-12
        assert abs(out[1] + 1000.0) < 1e-9

    def test_gap_past_float_range_is_minus_inf_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = log_softmax_t([1e308, -1e308])
        assert out.tolist() == [0.0, -math.inf]

    def test_division_past_float_range_is_minus_inf_without_warning(self):
        for logits in ([1e308, -1e308], [1e308, -7e307]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                log_p = log_softmax_t(logits, 0.5)
                p = softmax_t(logits, 0.5)
            assert log_p.tolist() == [0.0, -math.inf]
            assert p.tolist() == [1.0, 0.0]

    def test_rejects_bad_temperature_naming_the_rule(self):
        for t in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(InvalidParameterError, match="positive and finite"):
                log_softmax_t([1.0, 2.0], t)

    def test_magnitude_1e4_stays_finite(self):
        rng = np.random.default_rng(2)
        for t in (1e-3, 1.0, 1e9):
            out = log_softmax_t(rng.uniform(-1e4, 1e4, size=12), t)
            assert np.all(np.isfinite(out))

    def test_exp_matches_softmax(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            x = rng.normal(scale=20, size=int(rng.integers(2, 15)))
            t = float(rng.uniform(0.1, 10))
            np.testing.assert_allclose(
                np.exp(log_softmax_t(x, t)), softmax_t(x, t), atol=1e-12
            )


def top_n_lists(probs, n):
    idx, conf = top_n(probs, n)
    return idx.tolist(), conf.tolist()


class TestTopN:
    def test_direct_ordering(self):
        assert top_n_lists([[0.7, 0.2, 0.1]], 2) == ([1], [0.2])
        assert top_n_lists([[0.1, 0.3, 0.6]], 3) == ([0], [0.1])

    def test_tie_breaks_to_lower_index(self):
        assert top_n_lists([[0.5, 0.5]], 1) == ([0], [0.5])
        assert top_n_lists([[0.5, 0.5]], 2) == ([1], [0.5])

    def test_rank_out_of_range(self):
        for n in (0, 4, -1):
            with pytest.raises(InvalidParameterError):
                top_n([[0.2, 0.3, 0.5]], n)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=12)
    )
    def test_enumerates_permutation_with_nonincreasing_confidence(self, raw):
        p = np.array(raw) / np.sum(raw)
        k = len(p)
        picks = [top_n_lists(p, n) for n in range(1, k + 1)]
        indices = [i[0] for i, _ in picks]
        confs = [c[0] for _, c in picks]
        assert sorted(indices) == list(range(k))
        assert all(a >= b for a, b in zip(confs, confs[1:]))

    def test_batch_rows_match_single_rows(self):
        rng = np.random.default_rng(4)
        p = rng.dirichlet(np.ones(6), size=30)
        p[::3, 1] = p[::3, 4] = (p[::3, 1] + p[::3, 4]) / 2  # ties inside rows
        for n in range(1, 7):
            idx, conf = top_n(p, n)
            assert idx.shape == conf.shape == (30,)
            for i, row in enumerate(p):
                assert top_n_lists(row, n) == ([idx[i]], [conf[i]])

    def test_vector_is_a_batch_of_one(self):
        assert top_n_lists([0.7, 0.2, 0.1], 2) == ([1], [0.2])

    @pytest.mark.parametrize("probs,n,error,message", [
        ([[0.2, 0.3, 0.5]], True, InvalidParameterError, "rank must be an integer, got True"),
        (np.zeros((0, 3)), 1, InvalidInputError,
         "need a non-empty (N, K) probability matrix, got shape (0, 3)"),
    ], ids=["bool-rank", "no-rows"])
    def test_bad_argument_rejected_with_its_message(self, probs, n, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            top_n(probs, n)

    def test_empty_or_deep_input_rejected(self):
        for probs in (np.empty((0, 3)), np.full((2, 2, 2), 0.5)):
            with pytest.raises(InvalidInputError):
                top_n(probs, 1)


class TestAsProbs:
    def test_accepts_exact_simplex(self):
        as_probs([0.25, 0.75])

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidInputError):
            as_probs([0.5, 0.4])

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError):
            as_probs([1.2, -0.2])
