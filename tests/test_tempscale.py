import numpy as np
import pytest

from distilcal import (
    InvalidInputError,
    InvalidParameterError,
    ScoredHypothesis,
    combine_scores,
    fit_temperature,
    nll_at_temperature,
)

from oracles import dense_grid_temperature


def random_validation(seed, n=80, k=6, scale=3.0):
    rng = np.random.default_rng(seed)
    logits = rng.normal(scale=scale, size=(n, k))
    labels = rng.integers(0, k, size=n)
    # bias toward the argmax so the set is learnable but imperfect
    flip = rng.random(n) < 0.6
    labels[flip] = np.argmax(logits[flip], axis=1)
    return logits, labels


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


H1 = ScoredHypothesis("H1", am_logp=-10.0, lm_logp=-2.0)
H2 = ScoredHypothesis("H2", am_logp=-9.0, lm_logp=-4.0)


class TestCombineScores:
    def test_unit_temperatures_pick_plain_sum(self):
        best, ranked = combine_scores([H1, H2], 1.0, 1.0)
        assert best == "H1"
        assert [(h.id, s) for h, s in ranked] == [("H1", -12.0), ("H2", -13.0)]

    def test_language_temperature_flips_winner(self):
        best, ranked = combine_scores([H1, H2], 1.0, 4.0)
        assert best == "H2"
        assert [(h.id, s) for h, s in ranked] == [("H2", -10.0), ("H1", -10.5)]

    def test_joint_scaling_preserves_full_order(self):
        rng = np.random.default_rng(17)
        hyps = [
            ScoredHypothesis(f"h{i}", float(rng.normal(-10, 3)), float(rng.normal(-5, 2)))
            for i in range(12)
        ]
        base_best, base = combine_scores(hyps, 1.3, 2.7)
        for c in (0.5, 2.0, 17.0):
            best, ranked = combine_scores(hyps, 1.3 * c, 2.7 * c)
            assert best == base_best
            assert [h.id for h, _ in ranked] == [h.id for h, _ in base]

    def test_constant_shift_preserves_order(self):
        rng = np.random.default_rng(23)
        hyps = [
            ScoredHypothesis(f"h{i}", float(rng.normal(-10, 3)), float(rng.normal(-5, 2)))
            for i in range(10)
        ]
        _, base = combine_scores(hyps, 1.0, 3.0)
        shifted_am = [ScoredHypothesis(h.id, h.am_logp + 7.5, h.lm_logp) for h in hyps]
        shifted_lm = [ScoredHypothesis(h.id, h.am_logp, h.lm_logp - 3.25) for h in hyps]
        for variant in (shifted_am, shifted_lm):
            _, ranked = combine_scores(variant, 1.0, 3.0)
            assert [h.id for h, _ in ranked] == [h.id for h, _ in base]

    def test_ties_keep_input_order(self):
        a = ScoredHypothesis("first", -5.0, -5.0)
        b = ScoredHypothesis("second", -6.0, -4.0)
        best, ranked = combine_scores([a, b], 1.0, 1.0)
        assert best == "first"
        assert [h.id for h, _ in ranked] == ["first", "second"]

    def test_empty_and_bad_temperature_rejected(self):
        with pytest.raises(InvalidInputError):
            combine_scores([], 1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            combine_scores([H1], 0.0, 1.0)

    def test_non_finite_scores_rejected(self):
        with pytest.raises(InvalidInputError):
            ScoredHypothesis("bad", float("nan"), -1.0)
