import math
import warnings

import numpy as np
import pytest

from distilcal import (
    InvalidInputError,
    InvalidParameterError,
    cross_entropy,
    entropy,
    grad_check,
    interpolate_target,
    kd_loss,
    multitask_loss,
    one_hot,
    smooth_label,
    soft_label,
)
from distilcal.probs import softmax_t

RNG = np.random.default_rng(2024)


def random_logits(k):
    return RNG.normal(scale=2.0, size=k)


def lst(student, label, teacher, lam, t):
    """Label-interpolation loss of one sample, as the trainer's ``sl`` head takes it:
    cross-entropy against the interpolated target."""
    return cross_entropy([student], interpolate_target([label], soft_label([teacher], t), lam))


class TestCrossEntropy:
    def test_stationary_at_matching_target(self):
        x = random_logits(6)
        _, grads = cross_entropy([x], softmax_t([x]))
        assert np.abs(grads).max() < 1e-12

    def test_hand_evaluated(self):
        values, grads = cross_entropy([[0.0, 0.0]], [[1.0, 0.0]])
        assert values[0] == pytest.approx(math.log(2), abs=1e-15)
        np.testing.assert_allclose(grads[0], [-0.5, 0.5], atol=1e-15)

    def test_gibbs_inequality(self):
        for _ in range(30):
            k = int(RNG.integers(2, 10))
            target = RNG.dirichlet(np.ones(k))
            values, _ = cross_entropy([random_logits(k)], [target])
            assert values[0] >= entropy(target) - 1e-12

    def test_nonnegative_and_finite(self):
        values, _ = cross_entropy([[30.0, -30.0]], [[0.0, 1.0]])
        assert np.isfinite(values[0]) and values[0] >= 0.0

    def test_gap_past_float_range_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, grads = cross_entropy([[1e308, -1e308]], [[1.0, 0.0]])
            spread, _ = cross_entropy([[1e308, -1e308]], [[0.5, 0.5]])
        assert values.tolist() == [0.0]  # the zero target on the -inf class adds 0
        assert grads.tolist() == [[0.0, 0.0]]
        assert np.isfinite(spread[0]) and spread[0] > 1e307

    def test_gradient_sums_to_zero(self):
        for _ in range(20):
            k = int(RNG.integers(2, 12))
            _, grads = cross_entropy([random_logits(k)], [RNG.dirichlet(np.ones(k))])
            assert abs(grads[0].sum()) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            cross_entropy([[1.0, 2.0]], [[0.2, 0.3, 0.5]])

    def test_batch_matches_per_sample(self):
        logits = RNG.normal(size=(7, 5))
        targets = RNG.dirichlet(np.ones(5), size=7)
        values, grads = cross_entropy(logits, targets)
        for i in range(7):
            single_values, single_grads = cross_entropy(logits[i : i + 1], targets[i : i + 1])
            assert values[i] == pytest.approx(single_values[0], abs=1e-15)
            np.testing.assert_array_equal(grads[i], single_grads[0])

        # Every row-wise function of ``targets`` and ``losses``: one (N, K)
        # call gives, bit for bit, the rows of N batch-of-one calls.
        labels = RNG.integers(0, 5, size=7)
        teacher = RNG.normal(scale=3.0, size=(7, 5))
        soft = soft_label(teacher, 2.5)
        calls = {
            "one_hot": lambda r: one_hot(labels[r], 5),
            "smooth_label": lambda r: smooth_label(labels[r], 5, 0.2),
            "soft_label": lambda r: soft_label(teacher[r], 2.5),
            "interpolate_target": lambda r: interpolate_target(labels[r], soft[r], 0.3),
            "entropy": lambda r: entropy(targets[r]),
            "cross_entropy": lambda r: cross_entropy(logits[r], targets[r]),
            "kd_loss kld": lambda r: kd_loss(logits[r], teacher[r], 2.5, "kld"),
            "kd_loss ce": lambda r: kd_loss(logits[r], teacher[r], 2.5, "ce"),
        }
        for name, call in calls.items():
            batch = call(slice(None))
            rows = [call(slice(i, i + 1)) for i in range(7)]
            if not isinstance(batch, tuple):
                batch, rows = (batch,), [(row,) for row in rows]
            for j, whole in enumerate(batch):
                assert np.array_equal(whole, np.concatenate([row[j] for row in rows])), name


class TestKdLoss:
    def test_identical_distributions_zero_kld(self):
        x = random_logits(5)
        values, _ = kd_loss([x], [x], 1.0, "kld")
        assert values[0] == pytest.approx(0.0, abs=1e-12)

    def test_ce_minus_kld_is_soft_entropy(self):
        for t in (0.5, 1.0, 5.0):
            student, teacher = random_logits(7), random_logits(7)
            ce_values, ce_grads = kd_loss([student], [teacher], t, "ce")
            kld_values, kld_grads = kd_loss([student], [teacher], t, "kld")
            h = entropy(soft_label([teacher], t))[0]
            assert ce_values[0] - kld_values[0] == pytest.approx(h, abs=1e-12)
            np.testing.assert_allclose(ce_grads, kld_grads, atol=1e-12)

    def test_huge_temperature_approaches_uniform_target(self):
        student = random_logits(4)
        values, _ = kd_loss([student], [[10.0, 0.0, 0.0, 0.0]], 1e9, "ce")
        uniform = np.full(4, 0.25)
        uniform_values, _ = cross_entropy([student], [uniform])
        assert values[0] == pytest.approx(uniform_values[0], abs=1e-6)

    def test_only_teacher_is_softened(self):
        # the student side must not be divided by T: at huge T the target is
        # uniform, so the optimum is a uniform *student softmax*, reached at
        # equal raw student logits, not at scaled ones.
        _, grads = kd_loss([[0.0, 0.0, 0.0]], [[3.0, 1.0, -2.0]], 1e9, "ce")
        assert np.abs(grads).max() < 1e-6

    def test_bad_distance(self):
        with pytest.raises(InvalidParameterError):
            kd_loss([[1.0, 2.0]], [[0.0, 1.0]], 1.0, "l2")


class TestLstLoss:
    def test_lambda_one_is_plain_ce(self):
        student, teacher = random_logits(5), random_logits(5)
        for t in (0.5, 1.0, 9.0):
            values, grads = lst(student, 1, teacher, 1.0, t)
            ref_values, ref_grads = cross_entropy([student], one_hot([1], 5))
            assert values[0] == pytest.approx(ref_values[0], abs=1e-12)
            np.testing.assert_allclose(grads, ref_grads, atol=1e-12)

    def test_lambda_zero_unit_temperature_is_kd(self):
        student, teacher = random_logits(4), random_logits(4)
        values, grads = lst(student, 0, teacher, 0.0, 1.0)
        ref_values, ref_grads = kd_loss([student], [teacher], 1.0, "ce")
        assert values[0] == pytest.approx(ref_values[0], abs=1e-12)
        np.testing.assert_allclose(grads, ref_grads, atol=1e-12)

    def test_mixture_form_equals_weighted_losses(self):
        # interpolating the target first and mixing the two losses afterwards
        # must agree in value and gradient
        for _ in range(25):
            k = int(RNG.integers(2, 10))
            label = int(RNG.integers(0, k))
            student, teacher = random_logits(k), random_logits(k)
            lam = float(RNG.uniform(0, 1))
            t = float(RNG.uniform(0.3, 8.0))
            via_values, via_grads = lst(student, label, teacher, lam, t)
            ce_values, ce_grads = cross_entropy([student], one_hot([label], k))
            kd_values, kd_grads = kd_loss([student], [teacher], t, "ce")
            mixed_value = lam * ce_values[0] + (1 - lam) * kd_values[0]
            mixed_grad = lam * ce_grads + (1 - lam) * kd_grads
            assert via_values[0] == pytest.approx(mixed_value, abs=1e-12)
            np.testing.assert_allclose(via_grads, mixed_grad, atol=1e-12)

    def test_kld_distance_changes_value_by_constant_only(self):
        student, teacher = random_logits(6), random_logits(6)
        lam, t = 0.3, 4.0
        via_values, via_grads = lst(student, 2, teacher, lam, t)
        ce_values, ce_grads = cross_entropy([student], one_hot([2], 6))
        kd_values, kd_grads = kd_loss([student], [teacher], t, "kld")
        mixed = lam * ce_values[0] + (1 - lam) * kd_values[0]
        offset = (1 - lam) * entropy(soft_label([teacher], t))[0]
        assert via_values[0] - mixed == pytest.approx(offset, abs=1e-12)
        np.testing.assert_allclose(via_grads, lam * ce_grads + (1 - lam) * kd_grads, atol=1e-12)


def make_multitask(label, k_fine=5, k_coarse=3, n_teachers=1):
    """Batch-of-one logits per head, and per head its target: ``"sl"`` the
    one-hot ``label``, every teacher head ``t<i>`` a softened teacher."""
    logits = {"sl": random_logits(k_fine)[None]}
    targets = {"sl": one_hot([label], k_fine)}
    for i in range(n_teachers):
        k = k_fine if i == 0 else k_coarse
        logits[f"t{i}"] = random_logits(k)[None]
        targets[f"t{i}"] = soft_label(random_logits(k)[None], float(RNG.uniform(0.5, 5.0)))
    return logits, targets


def kd_heads(dlogits):
    return {head: g for head, g in dlogits.items() if head != "sl"}


class TestMultitaskLoss:
    def test_lambda_one_silences_kd_heads(self):
        logits, targets = make_multitask(1, n_teachers=2)
        value, dlogits = multitask_loss(logits, targets, 1.0)
        for g in kd_heads(dlogits).values():
            assert np.all(g == 0.0)
        ref_values, ref_grads = cross_entropy(logits["sl"], one_hot([1], 5))
        assert value == pytest.approx(ref_values[0], abs=1e-12)
        np.testing.assert_allclose(dlogits["sl"], ref_grads, atol=1e-15)

    def test_lambda_zero_silences_sl_head(self):
        logits, targets = make_multitask(0, n_teachers=2)
        _, dlogits = multitask_loss(logits, targets, 0.0)
        assert np.all(dlogits["sl"] == 0.0)

    def test_shared_logits_single_teacher_matches_lst(self):
        k = 6
        shared = random_logits(k)
        teacher = random_logits(k)
        lam, t = 0.35, 2.5
        logits = {"sl": [shared], "t0": [shared]}
        targets = {"sl": one_hot([2], k), "t0": soft_label([teacher], t)}
        value, _ = multitask_loss(logits, targets, lam)
        ce_values, _ = cross_entropy([shared], one_hot([2], k))
        kd_values, _ = kd_loss([shared], [teacher], t, "ce")
        assert value == pytest.approx(lam * ce_values[0] + (1 - lam) * kd_values[0], abs=1e-12)

    def test_missing_supervised_targets_name_the_head(self):
        with pytest.raises(InvalidInputError, match="no targets for head 'sl'"):
            multitask_loss({"sl": [[0.0, 1.0]], "t0": [[1.0, 0.0]]}, {"t0": [[0.5, 0.5]]}, 0.5)

    def test_teacher_head_mismatch_rejected(self):
        logits, targets = make_multitask(0, n_teachers=1)
        targets = {"sl": targets["sl"], "other": soft_label([random_logits(5)], 1.0)}
        with pytest.raises(InvalidInputError):
            multitask_loss(logits, targets, 0.5)

    def test_teacher_dimension_mismatch_rejected(self):
        logits, targets = make_multitask(0, n_teachers=1)
        targets["t0"] = soft_label([random_logits(3)], 1.0)
        with pytest.raises(InvalidInputError):
            multitask_loss(logits, targets, 0.5)

    def test_single_vectors_are_a_batch_of_one(self):
        logits, targets = make_multitask(1, n_teachers=2)
        value, dlogits = multitask_loss(logits, targets, 0.4)
        one_value, one = multitask_loss({h: v[0] for h, v in logits.items()},
                                        {h: t[0] for h, t in targets.items()}, 0.4)
        assert one_value == value
        for head, g in dlogits.items():
            np.testing.assert_array_equal(one[head], g[0])

    def test_head_gradients_independent(self):
        # each head's gradient only depends on its own logits
        logits, targets = make_multitask(3, n_teachers=2)
        _, base = multitask_loss(logits, targets, 0.4)
        bumped = dict(logits, sl=logits["sl"] + 1.7)
        _, res = multitask_loss(bumped, targets, 0.4)
        for head in kd_heads(base):
            np.testing.assert_array_equal(res[head], base[head])

    def test_every_gradient_sums_to_zero(self):
        logits, targets = make_multitask(0, n_teachers=2)
        _, dlogits = multitask_loss(logits, targets, 0.6)
        assert abs(dlogits["sl"].sum()) < 1e-9
        for g in kd_heads(dlogits).values():
            assert abs(g.sum()) < 1e-9


class TestGradCheck:
    def test_cross_entropy_gradients(self):
        for _ in range(5):
            k = int(RNG.integers(2, 9))
            target = RNG.dirichlet(np.ones(k))
            err = grad_check(lambda x: cross_entropy(x, [target]), random_logits(k)[None])
            assert err < 1e-6

    def test_kd_gradients_both_distances(self):
        teacher = random_logits(6)
        for t in (0.5, 1.0, 5.0):
            for dist in ("kld", "ce"):
                err = grad_check(
                    lambda x: kd_loss(x, [teacher], t, dist), random_logits(6)[None]
                )
                assert err < 1e-6

    def test_lst_gradients(self):
        teacher = random_logits(5)
        for lam in (0.0, 0.3, 0.7, 1.0):
            err = grad_check(lambda x: lst(x[0], 2, teacher, lam, 2.0), random_logits(5)[None])
            assert err < 1e-6

    def test_multitask_gradients_all_heads(self):
        logits, targets = make_multitask(1, n_teachers=2)
        heads = list(logits)
        splits = np.cumsum([logits[head].size for head in heads])[:-1]

        def concat_loss(flat, lam):
            parts = np.split(flat, splits)
            value, dlogits = multitask_loss(
                {head: part[None] for head, part in zip(heads, parts)}, targets, lam
            )
            return value, np.concatenate([dlogits[head][0] for head in heads])

        flat0 = np.concatenate([logits[head][0] for head in heads])
        for lam in (0.0, 0.5, 1.0):
            assert grad_check(lambda x, lam=lam: concat_loss(x, lam), flat0) < 1e-6
