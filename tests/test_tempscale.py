import warnings
from pathlib import Path

import numpy as np
import pytest

from distilcal import (
    DEFAULT_BOUNDS,
    InvalidInputError,
    InvalidParameterError,
    combine_ranking,
    combine_scores,
    fit_summary,
    fit_temperature,
    nll_at_temperature,
)
from distilcal import tempscale
from distilcal.fileio import read_hypothesis_file, read_prediction_file

from oracles import dense_grid_temperature

DATA = Path(__file__).parent / "data"


def random_validation(seed, n=80, k=6, scale=3.0):
    rng = np.random.default_rng(seed)
    logits = rng.normal(scale=scale, size=(n, k))
    labels = rng.integers(0, k, size=n)
    # bias toward the argmax so the set is learnable but imperfect
    flip = rng.random(n) < 0.6
    labels[flip] = np.argmax(logits[flip], axis=1)
    return logits, labels


class TestNllAtTemperature:
    def test_gap_near_float_limit_at_low_temperature(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nll = nll_at_temperature(np.array([[1e308, 9.9e307]]), np.array([0]), 0.5)
        assert nll == 0.0

    def test_perfect_fit_is_positive_zero(self):
        nll = nll_at_temperature(np.array([[0.0, -1000.0]]), np.array([0]), 1.0)
        assert nll == 0.0 and np.copysign(1.0, nll) == 1.0

    def test_label_past_float_range_is_infinite(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nll = nll_at_temperature(np.array([[1e308, -1e308]]), np.array([1]), 1.0)
        assert nll == np.inf

    def test_non_finite_or_non_positive_temperature_rejected(self):
        logits, labels = random_validation(0)
        for t in (float("nan"), float("inf"), 0.0, -1.0):
            with pytest.raises(InvalidParameterError, match="positive and finite"):
                nll_at_temperature(logits, labels, t)

    @pytest.mark.parametrize("logits,labels", [
        ([[0.0, 5.0]], [-1]),  # would score the last class
        ([[0.0, 5.0]], [2]),
        ([[0.0, 5.0]], [1.0]),
        ([[0.0, 5.0], [1.0, 0.0]], [1]),  # would score the first row only
    ], ids=["negative", "past_last_class", "float", "two_rows_one_label"])
    def test_bad_labels_rejected(self, logits, labels):
        with pytest.raises(InvalidInputError, match="labels|one row of logits per label"):
            nll_at_temperature(np.array(logits), np.array(labels), 1.0)


class TestFitTemperature:
    def test_never_worse_than_unit(self):
        for seed in range(8):
            fit = fit_temperature(*random_validation(seed))
            assert fit.nll_at_t_star <= fit.nll_at_unit + 1e-15
            assert fit.search_bounds[0] <= fit.t_star <= fit.search_bounds[1]

    def test_matches_dense_grid_oracle(self):
        for seed in (0, 1, 2):
            logits, labels = random_validation(seed, n=40, k=4)
            fit = fit_temperature(logits, labels, bounds=(0.05, 20.0))
            _, oracle_nll = dense_grid_temperature(logits.tolist(), labels.tolist(), 0.05, 20.0)
            assert fit.nll_at_t_star == pytest.approx(oracle_nll, abs=1e-6)

    def test_prescaled_logits_halve_the_fit(self):
        logits, labels = random_validation(3, n=120, k=5)
        fit = fit_temperature(logits, labels)
        fit_halved = fit_temperature(logits / 2.0, labels)
        assert fit_halved.t_star == pytest.approx(fit.t_star / 2.0, rel=0.02)

    def test_confident_and_correct_pins_to_lower_bound(self):
        logits = 6.0 * np.eye(5)[np.arange(30) % 5]
        fit = fit_temperature(logits, np.argmax(logits, axis=1), bounds=(0.05, 20.0))
        assert fit.t_star == 0.05

    def test_deterministic(self):
        val = random_validation(9)
        assert fit_temperature(*val) == fit_temperature(*val)

    def test_unit_temperature_in_grid(self):
        # a set whose optimum is exactly no rescaling
        logits, labels = random_validation(5)
        t_grid = np.geomspace(0.5, 2.0, 64)
        nlls = [nll_at_temperature(logits, labels, t) for t in t_grid]
        assert min(nlls) >= 0  # sanity: NLL is a mean of non-negative terms

    def test_unit_nll_comes_from_the_grid(self, monkeypatch):
        logits, labels = random_validation(4)
        temperatures = []

        def counting(z, y, t):
            temperatures.append(t)
            return nll_at_temperature(z, y, t)

        monkeypatch.setattr(tempscale, "nll_at_temperature", counting)
        fit = fit_temperature(logits, labels)
        assert temperatures.count(1.0) == 1
        assert fit.nll_at_unit == nll_at_temperature(logits, labels, 1.0)

    def test_overflowing_temperatures_never_win(self):
        logits = np.array([[1e307, -1e307], [-1e307, 1e307]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_temperature(logits, np.array([0, 0]))
        assert np.isfinite(fit.nll_at_t_star) and fit.nll_at_t_star <= fit.nll_at_unit
        assert fit.t_star == 20.0  # the NLL falls with t wherever it is finite

    def test_low_temperature_near_float_limit_wins(self):
        logits = np.array([[1e308, 1e308, 0.0]] + 20 * [[1.0, 0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_temperature(logits, np.zeros(21, dtype=int))
        assert fit.t_star == 0.05
        assert fit.nll_at_t_star == pytest.approx(np.log(2.0) / 21, rel=1e-6)
        assert fit.nll_at_unit == pytest.approx(0.558, abs=1e-3)

    def test_nll_evaluated_at_unit_and_found_temperature_only(self, monkeypatch):
        logits, labels = random_validation(6)
        temperatures = []

        def counting(z, y, t):
            temperatures.append(t)
            return nll_at_temperature(z, y, t)

        monkeypatch.setattr(tempscale, "nll_at_temperature", counting)
        fit = fit_temperature(logits, labels)
        assert temperatures == [1.0, fit.t_star]

    def test_monotone_nll_lands_exactly_on_a_bound(self):
        logits, _ = random_validation(7, n=50, k=4)
        # always the least likely class: the NLL falls as t grows
        assert fit_temperature(logits, np.argmin(logits, axis=1), bounds=(0.5, 3.7)).t_star == 3.7
        sharp = 6.0 * np.eye(4)[np.arange(20) % 4]
        assert fit_temperature(sharp, np.arange(20) % 4, bounds=(0.3, 2.0)).t_star == 0.3

    def test_flat_nll_keeps_unit_temperature(self):
        fit = fit_temperature(np.zeros((6, 3)), np.arange(6) % 3)
        assert (fit.t_star, fit.nll_at_t_star) == (1.0, fit.nll_at_unit)

    def test_non_finite_unit_nll_rejected(self):
        logits = np.array([[1.7e308, -1.7e308], [-1.7e308, 1.7e308]])
        with pytest.raises(InvalidInputError, match="t=1"):
            fit_temperature(logits, np.array([1, 0]))

    def test_empty_validation_rejected(self):
        with pytest.raises(InvalidInputError):
            fit_temperature(np.empty((0, 2)), np.empty(0, dtype=int))

    def test_bad_bounds_rejected(self):
        val = random_validation(0)
        with pytest.raises(InvalidInputError):
            fit_temperature(*val, bounds=(2.0, 1.0))
        with pytest.raises(InvalidInputError):
            fit_temperature(*val, bounds=(0.0, 5.0))
        with pytest.raises(InvalidInputError):
            fit_temperature(*val, bounds=(2.0, 20.0))  # must contain t=1


def ranked(ids, am_logp, lm_logp, t1, t2):
    """``combine_scores`` read back as ``[(id, score), ...]`` in rank order."""
    order, scores = combine_scores(am_logp, lm_logp, t1, t2)
    return [(ids[i], scores[i]) for i in order]


def random_hypotheses(rng, n):
    """``n`` ids with acoustic and language scores, drawn in (am, lm) pairs."""
    pairs = np.array([(rng.normal(-10, 3), rng.normal(-5, 2)) for _ in range(n)])
    return [f"h{i}" for i in range(n)], pairs[:, 0], pairs[:, 1]


H12 = (["H1", "H2"], [-10.0, -9.0], [-2.0, -4.0])


class TestCombineScores:
    def test_unit_temperatures_pick_plain_sum(self):
        ranking = ranked(*H12, 1.0, 1.0)
        assert ranking[0][0] == "H1"
        assert ranking == [("H1", -12.0), ("H2", -13.0)]

    def test_language_temperature_flips_winner(self):
        ranking = ranked(*H12, 1.0, 4.0)
        assert ranking[0][0] == "H2"
        assert ranking == [("H2", -10.0), ("H1", -10.5)]

    def test_joint_scaling_preserves_full_order(self):
        rng = np.random.default_rng(17)
        hyps = random_hypotheses(rng, 12)
        base = ranked(*hyps, 1.3, 2.7)
        for c in (0.5, 2.0, 17.0):
            ranking = ranked(*hyps, 1.3 * c, 2.7 * c)
            assert ranking[0][0] == base[0][0]
            assert [h for h, _ in ranking] == [h for h, _ in base]

    def test_constant_shift_preserves_order(self):
        rng = np.random.default_rng(23)
        ids, am, lm = random_hypotheses(rng, 10)
        base = ranked(ids, am, lm, 1.0, 3.0)
        for variant in ((ids, am + 7.5, lm), (ids, am, lm - 3.25)):
            assert [h for h, _ in ranked(*variant, 1.0, 3.0)] == [h for h, _ in base]

    def test_ties_keep_input_order(self):
        ranking = ranked(["first", "second"], [-5.0, -6.0], [-5.0, -4.0], 1.0, 1.0)
        assert ranking[0][0] == "first"
        assert [h for h, _ in ranking] == ["first", "second"]

    def test_empty_and_bad_temperature_rejected(self):
        with pytest.raises(InvalidInputError):
            combine_scores([], [], 1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            combine_scores([-10.0], [-2.0], 0.0, 1.0)

    def test_non_finite_scores_rejected(self):
        with pytest.raises(InvalidInputError):
            combine_scores([float("nan")], [-1.0], 1.0, 1.0)

    def test_offsets_rank_each_utterance_as_its_own_call(self):
        rng = np.random.default_rng(29)
        sizes = [3, 1, 5, 2]
        am = rng.choice([-1.0, -2.0, -0.0, 0.0, -3.5], size=sum(sizes))
        lm = rng.choice([-1.0, -4.0, -0.5], size=sum(sizes))
        offsets = np.cumsum([0, *sizes])
        order, scores = combine_scores(am, lm, 0.7, 2.5, offsets)
        for lo, hi in zip(offsets, offsets[1:]):
            want_order, want_scores = combine_scores(am[lo:hi], lm[lo:hi], 0.7, 2.5)
            assert order[lo:hi].tolist() == (lo + want_order).tolist()
            assert scores[lo:hi].tobytes() == want_scores.tobytes()

    def test_bad_offsets_rejected(self):
        for offsets in ([0, 2], [1, 3], [0, 0, 3], [0, 2, 1, 3], [[0, 3]], [3]):
            with pytest.raises(InvalidInputError, match="offsets"):
                combine_scores([-1.0, -2.0, -3.0], [-1.0, -1.0, -1.0], 1.0, 1.0, offsets)

    def test_mismatched_or_overflowing_scores_rejected(self):
        for am, lm, t1 in (([-1.0, -2.0], [-1.0], 1.0), ([[-1.0]], [[-1.0]], 1.0),
                           ([-1e308], [-1.0], 0.5)):
            with pytest.raises(InvalidInputError):
                combine_scores(am, lm, t1, 1.0)


class TestOutputText:
    @pytest.mark.parametrize("t2, golden", [(1.0, "expected_combine_unit.txt"),
                                            (4.0, "expected_combine_flip.txt")])
    def test_combine_ranking_is_the_golden(self, t2, golden):
        text = combine_ranking(read_hypothesis_file(DATA / "hyps_flip.jsonl"), 1.0, t2)
        assert (text + "\n").encode() == (DATA / golden).read_bytes()

    def test_combine_ranking_prints_negative_zero_as_zero(self):
        hyps = (["u", "v"], np.array([0, 2, 3]), ["a", "b", "c"],
                np.array([[-0.0, -0.0], [-1.0, 0.5], [2.0, -4.0]]))
        assert combine_ranking(hyps, 1.0, 2.0) == (
            "u\tbest\ta\nu\t1\ta\t0.000000\nu\t2\tb\t-0.750000\n"
            "v\tbest\tc\nv\t1\tc\t0.000000"
        )

    @pytest.mark.parametrize("fixture, bounds, bins, line", [
        ("predictions_hand4", (0.05, 20.0), 15, "t_star=20.000000 nll_before=200.288796 "
         "nll_after=10.501265 ece_before=0.475000 ece_after=0.615493"),
        ("predictions_hand4", (0.05, 3.0), 2, "t_star=3.000000 nll_before=200.288796 "
         "nll_after=67.078558 ece_before=0.425000 ece_after=0.401298"),
        ("predictions_group7", (0.05, 20.0), 15, "t_star=2.497257 nll_before=1.141908 "
         "nll_after=1.034478 ece_before=0.487947 ece_after=0.423547"),
    ])
    def test_fit_summary_line(self, fixture, bounds, bins, line):
        logits, labels = read_prediction_file(DATA / f"{fixture}.jsonl")
        assert fit_summary(logits, labels, bounds, bins) == line

    def test_fit_summary_pins_confident_logits_to_the_lower_bound(self):
        logits = 8.0 * np.eye(4)[np.arange(40) % 4]
        line = fit_summary(logits, np.argmax(logits, axis=1), DEFAULT_BOUNDS, 15)
        assert line.startswith("t_star=0.050000 ")
