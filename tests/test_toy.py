import dataclasses
import itertools
import os
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from distilcal import (
    ConfigurationError,
    InvalidInputError,
    InvalidParameterError,
    SweepConfig,
    SyntheticTask,
    ToyNetwork,
    TrainConfig,
    evaluate,
    generate_data,
    head_targets,
    make_student,
    make_task,
    make_teacher,
    network_loss_and_grad,
    sweep_csv,
    sweep_lambda,
    train,
    train_cell,
)
from distilcal import toy
from distilcal.probs import softmax_t
from oracles import ref_network_loss_and_grad, ref_train


def tiny_task(sigma=1.0):
    return make_task(num_classes=4, input_dim=3, coarse_classes=2,
                     noise_sigma=sigma, seed=0)


class TestGenerateData:
    def test_zero_noise_sits_on_means(self):
        task = tiny_task(sigma=0.0)
        x, y = generate_data(task, 12, seed=5)
        np.testing.assert_array_equal(x, task.cluster_means[y])

    def test_deterministic_per_seed(self):
        task = tiny_task()
        x1, y1 = generate_data(task, 50, seed=9)
        x2, y2 = generate_data(task, 50, seed=9)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)

    def test_round_robin_balance(self):
        task = make_task(num_classes=10, input_dim=4, coarse_classes=None, seed=1)
        _, y = generate_data(task, 100, seed=0)
        assert np.bincount(y, minlength=10).tolist() == [10] * 10


class TestTaskValidation:
    def test_non_finite_noise_sigma_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(InvalidParameterError, match="noise_sigma"):
                make_task(noise_sigma=bad)

    def test_non_finite_mean_scale_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(InvalidParameterError, match="mean_scale"):
                make_task(mean_scale=bad)

    def test_sweep_config_names_the_bad_field(self):
        for key, bad in (("eval_bins", 0), ("n_train", 0), ("teacher_epochs", 0),
                         ("learning_rate", float("nan")), ("lst_temperature", 0.0),
                         ("noise_sigma", float("nan")), ("mean_scale", float("inf"))):
            with pytest.raises(InvalidParameterError, match=key):
                SweepConfig(**{key: bad})

    @pytest.mark.parametrize("rows", [
        [[0.0, 1.0], [2.0, 3.0], [0.0, 1.0]],
        [[0.0, 1.0], [-0.0, 1.0]],
        [[1.0, 0.0, 2.0], [3.0, 4.0, 5.0], [1.0, -0.0, 2.0]],
        np.zeros((2, 0)),
    ], ids=["repeat", "signed-zero", "signed-zero-inside", "no-columns"])
    def test_duplicate_cluster_means_rejected(self, rows):
        with pytest.raises(InvalidInputError, match="cluster means must be distinct"):
            task_with_means(rows)

    def test_nan_means_are_never_equal(self):
        with pytest.raises(InvalidInputError, match="cluster means must be finite"):
            task_with_means([[np.nan, 1.0], [np.nan, 1.0]])


def task_with_means(rows) -> SyntheticTask:
    means = np.asarray(rows, dtype=np.float64)
    return SyntheticTask(num_classes=means.shape[0], input_dim=means.shape[1],
                         cluster_means=means, noise_sigma=1.0)


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=5),
              elements=st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])))
def test_distinct_means_check_matches_unique(means):
    try:
        task_with_means(means)
        accepted = True
    except InvalidInputError:
        accepted = False
    assert accepted == (len(np.unique(means, axis=0)) == len(means))


class TestForward:
    def test_zero_weights_give_uniform_softmax(self):
        net = ToyNetwork(3, 5, {"sl": 4}, rng_seed=0)
        net.params[:] = 0.0
        _, logits = net.forward_batch(np.array([0.3, -0.2, 1.0])[None])
        np.testing.assert_array_equal(logits["sl"][0], np.zeros(4))
        np.testing.assert_allclose(softmax_t(logits["sl"][0]), np.full(4, 0.25))

    def test_heads_are_independent(self):
        net = ToyNetwork(3, 5, {"sl": 4, "kd_fine": 4}, rng_seed=2)
        x = np.array([0.1, 0.2, 0.3])
        before = net.forward_batch(x[None])[1]["kd_fine"][0].copy()
        net._views["sl.W"][0, 0] += 10.0
        after = net.forward_batch(x[None])[1]["kd_fine"][0]
        np.testing.assert_array_equal(before, after)

    def test_finite_for_large_inputs(self):
        net = ToyNetwork(3, 8, {"sl": 5}, rng_seed=3)
        _, out = net.forward_batch(np.array([1e3, -1e3, 5e2])[None])
        assert np.all(np.isfinite(out["sl"]))

    def test_dimension_mismatch(self):
        net = ToyNetwork(3, 4, {"sl": 2}, rng_seed=0)
        with pytest.raises(InvalidInputError):
            net.forward_batch(np.zeros(5)[None])

    def test_init_independent_of_other_heads(self):
        a = ToyNetwork(4, 6, {"sl": 3}, rng_seed=11)
        b = ToyNetwork(4, 6, {"sl": 3, "kd_fine": 3, "kd_coarse": 2}, rng_seed=11)
        np.testing.assert_array_equal(a._views["sl.W"], b._views["sl.W"])
        np.testing.assert_array_equal(a._views["trunk.W"], b._views["trunk.W"])


class TestTrain:
    def test_lst_at_lambda_one_is_bitwise_baseline(self):
        task = tiny_task()
        x, y = generate_data(task, 64, seed=2)
        teacher = {"fine": np.random.default_rng(0).normal(size=(64, 4))}
        base = make_student(task, 6, seed=7)
        lst = make_student(task, 6, seed=7)
        cfg = dict(epochs=4, learning_rate=0.1, batch_size=16, seed=3)
        train(base, x, y, TrainConfig(method="baseline", **cfg))
        train(lst, x, y, TrainConfig(method="lst", lam=1.0, temperature=5.0, **cfg), teacher)
        np.testing.assert_array_equal(base.params, lst.params)

    def test_multitask_lambda_one_freezes_kd_heads(self):
        task = tiny_task()
        x, y = generate_data(task, 64, seed=2)
        teachers = {
            "fine": np.random.default_rng(0).normal(size=(64, 4)),
            "coarse": np.random.default_rng(1).normal(size=(64, 2)),
        }
        net = make_student(task, 6, seed=7)
        kd_w0 = net._views["kd_fine.W"].copy()
        kd_b0 = net._views["kd_fine.b"].copy()
        trunk0 = net._views["trunk.W"].copy()
        cfg = TrainConfig(method="multitask", lam=1.0, epochs=3, batch_size=16, seed=1)
        train(net, x, y, cfg, teachers)
        np.testing.assert_array_equal(net._views["kd_fine.W"], kd_w0)
        np.testing.assert_array_equal(net._views["kd_fine.b"], kd_b0)
        assert np.abs(net._views["trunk.W"] - trunk0).max() > 0  # trunk still learns

    def test_loss_non_increasing_on_separable_data(self):
        task = tiny_task(sigma=0.0)
        x, y = generate_data(task, 40, seed=0)
        net = make_student(task, 8, seed=4)
        cfg = TrainConfig(method="baseline", epochs=15, learning_rate=0.05,
                          batch_size=40, seed=0)
        _, curve = train(net, x, y, cfg)
        assert all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))

    def test_missing_teachers_rejected(self):
        task = tiny_task()
        x, y = generate_data(task, 16, seed=0)
        net = make_student(task, 4, seed=0)
        for method in ("lst", "multitask"):
            with pytest.raises(ConfigurationError):
                train(net, x, y, TrainConfig(method=method, epochs=1))

    def test_non_finite_learning_rate_or_temperature_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(InvalidParameterError, match="learning_rate"):
                TrainConfig(method="baseline", learning_rate=bad)
            with pytest.raises(InvalidParameterError, match="temperature"):
                TrainConfig(method="lst", temperature=bad)

    def test_teacher_row_count_checked(self):
        task = tiny_task()
        x, y = generate_data(task, 16, seed=0)
        net = make_student(task, 4, seed=0)
        bad = {"fine": np.zeros((5, 4))}
        with pytest.raises(ConfigurationError):
            train(net, x, y, TrainConfig(method="lst", epochs=1), bad)


REFERENCE_CASES = [
    (method, hierarchical, lam)
    for method, hierarchical, lam in itertools.product(
        ("baseline", "label_smooth", "lst", "multitask"), (False, True), (0.0, 0.3, 1.0))
    if method in ("lst", "multitask") or (not hierarchical and lam == 0.3)
]


class TestMatchesReferenceTrainer:
    """The lean trainer against the per-step one kept in ``tests/oracles.py``."""

    @pytest.mark.parametrize("method,hierarchical,lam", REFERENCE_CASES)
    def test_params_and_curve_bit_identical(self, method, hierarchical, lam):
        task = tiny_task()
        x, y = generate_data(task, 70, seed=2)  # 70 = 4 * 16 + 6: last batch partial
        rng = np.random.default_rng(11)
        teachers = {"fine": 3.0 * rng.normal(size=(70, 4))}
        if hierarchical:
            teachers["coarse"] = 3.0 * rng.normal(size=(70, 2))
        if method in ("baseline", "label_smooth"):
            teachers = None
        cfg = TrainConfig(method=method, epochs=3, learning_rate=0.2, batch_size=16,
                          seed=5, lam=lam, epsilon=0.2, temperature=2.5)
        lean, ref = make_student(task, 6, seed=7), make_student(task, 6, seed=7)
        _, lean_curve = train(lean, x, y, cfg, teachers)
        _, ref_curve = ref_train(ref, x, y, cfg, teachers)
        np.testing.assert_array_equal(lean.params, ref.params)
        assert lean_curve == ref_curve

    def test_three_teachers_bit_identical(self):
        # With m = 3 the order of the 1/m scaling shows in the last bit of
        # some step values (1 and 2 scale exactly), so try many batches.
        task = tiny_task()
        widths = {"a": 4, "b": 3, "c": 2}
        heads = {"sl": 4, **{f"kd_{tid}": k for tid, k in widths.items()}}
        cfg = TrainConfig(method="multitask", epochs=2, batch_size=8, lam=0.3,
                          temperature=2.0)
        for seed in range(40):
            x, y = generate_data(task, 41, seed=seed)
            rng = np.random.default_rng(seed)
            teachers = {tid: rng.normal(size=(41, k)) for tid, k in widths.items()}
            lean, ref = ToyNetwork(3, 5, heads, seed), ToyNetwork(3, 5, heads, seed)
            targets = head_targets(lean, y, cfg, teachers)
            value, grad = network_loss_and_grad(lean, x, targets, cfg)
            ref_value, ref_grad = ref_network_loss_and_grad(ref, x, y, cfg, teachers)
            assert value == ref_value
            np.testing.assert_array_equal(grad, ref_grad)
        _, lean_curve = train(lean, x, y, cfg, teachers)
        _, ref_curve = ref_train(ref, x, y, cfg, teachers)
        np.testing.assert_array_equal(lean.params, ref.params)
        assert lean_curve == ref_curve


class TestTrainFiniteness:
    """Non-finite data is an input error, and no RuntimeWarning escapes."""

    @pytest.fixture
    def steps(self, monkeypatch):
        calls = []
        step = toy.network_loss_and_grad
        monkeypatch.setattr(toy, "network_loss_and_grad",
                            lambda *a: calls.append(1) or step(*a))
        return calls

    def test_nan_inputs_rejected_before_any_step(self, steps):
        task = tiny_task()
        x, y = generate_data(task, 32, seed=0)
        x[5, 1] = np.nan
        net = make_student(task, 4, seed=0)
        p0 = net.params.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="inputs must be finite"):
                train(net, x, y, TrainConfig(method="baseline", epochs=1))
        assert steps == []
        np.testing.assert_array_equal(net.params, p0)

    @pytest.mark.parametrize("method", ["lst", "multitask"])
    def test_nan_teacher_logits_rejected_before_any_step(self, steps, method):
        task = tiny_task()
        x, y = generate_data(task, 32, seed=0)
        rng = np.random.default_rng(0)
        teachers = {"fine": rng.normal(size=(32, 4)), "coarse": rng.normal(size=(32, 2))}
        teachers["coarse" if method == "multitask" else "fine"][7, 0] = np.nan
        net = make_student(task, 4, seed=0)
        p0 = net.params.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="logits must be finite"):
                train(net, x, y, TrainConfig(method=method, epochs=1), teachers)
        assert steps == []
        np.testing.assert_array_equal(net.params, p0)

    @pytest.mark.parametrize("method", ["baseline", "multitask"])
    def test_overflowing_head_weights_raise_logits_must_be_finite(self, steps, method):
        task = tiny_task()
        x, y = generate_data(task, 32, seed=0)
        rng = np.random.default_rng(0)
        teachers = {"fine": rng.normal(size=(32, 4)), "coarse": rng.normal(size=(32, 2))}
        net = make_student(task, 32, seed=2)
        for head in net.head_dims:
            net._views[f"{head}.W"][...] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="logits must be finite"):
                train(net, x, y, TrainConfig(method=method, epochs=1), teachers)
        assert steps == [1]

    def test_bad_labels_and_teacher_width_rejected(self):
        task = tiny_task()
        x, y = generate_data(task, 16, seed=0)
        net = make_student(task, 4, seed=0)
        for bad in (y + 4, y - 5, y.astype(float), y[:8]):
            with pytest.raises(InvalidInputError):
                train(net, x, bad, TrainConfig(method="baseline", epochs=1))
        with pytest.raises(InvalidInputError, match="classes"):
            train(net, x, y, TrainConfig(method="lst", epochs=1), {"fine": np.zeros((16, 3))})


class TestEndToEndGradients:
    @pytest.mark.parametrize("method,kwargs", [
        ("baseline", {}),
        ("label_smooth", {"epsilon": 0.2}),
        ("lst", {"lam": 0.4, "temperature": 3.0}),
        ("multitask", {"lam": 0.6, "temperature": 2.0}),
    ])
    def test_matches_finite_differences(self, method, kwargs):
        task = tiny_task()
        x, y = generate_data(task, 5, seed=1)
        net = make_student(task, 4, seed=9)
        rng = np.random.default_rng(8)
        teachers = None
        if method in ("lst", "multitask"):
            teachers = {"fine": rng.normal(size=(5, 4)),
                        "coarse": rng.normal(size=(5, 2))}
        cfg = TrainConfig(method=method, **kwargs)
        targets = head_targets(net, y, cfg, teachers)
        _, grad = network_loss_and_grad(net, x, targets, cfg)
        h = 1e-5
        p0 = net.params.copy()
        worst = 0.0
        for i in range(net.params.size):
            net.params[:] = p0
            net.params[i] += h
            up, _ = network_loss_and_grad(net, x, targets, cfg)
            net.params[:] = p0
            net.params[i] -= h
            down, _ = network_loss_and_grad(net, x, targets, cfg)
            numeric = (up - down) / (2 * h)
            worst = max(worst, abs(grad[i] - numeric) / max(1.0, abs(numeric)))
        net.params[:] = p0
        assert worst < 1e-5


class TestEvaluate:
    def test_perfect_on_separable_data(self):
        task = tiny_task(sigma=0.0)
        x, y = generate_data(task, 40, seed=0)
        net = make_student(task, 8, seed=4)
        train(net, x, y, TrainConfig(method="baseline", epochs=60,
                                     learning_rate=0.5, batch_size=8, seed=0))
        ev = evaluate(net, x, y)
        assert ev.accuracy == 1.0

    def test_report_bin_budget_and_rank_accuracies(self):
        task = tiny_task()
        x, y = generate_data(task, 120, seed=3)
        net = make_student(task, 8, seed=5)
        train(net, x, y, TrainConfig(method="baseline", epochs=3, batch_size=16, seed=0))
        ev = evaluate(net, x, y, ranks=(1, 2, 3), num_bins=15)
        rank_accs = []
        for rank, report in ev.reports.items():
            assert len(report.counts) <= 15
            acc = sum(report.counts * report.mean_acc) / report.n_total
            rank_accs.append(acc)
        assert sum(rank_accs) <= 1.0 + 1e-12  # ranks are disjoint per sample


class TestMakeTeacher:
    def test_reads_its_schedule_from_the_sweep_config(self, monkeypatch):
        calls = []
        monkeypatch.setattr(toy, "train", lambda *args: calls.append(args))
        cfg = SweepConfig(n_train=50, hidden_dim=3, teacher_hidden_multiplier=2,
                          teacher_data_multiplier=3, teacher_epochs=4,
                          learning_rate=0.05, batch_size=7)
        teacher = make_teacher(tiny_task(), cfg, 5, "coarse")
        ((net, x, y, tcfg),) = calls
        assert net is teacher and net.hidden_dim == 6 and net.head_dims == {"sl": 2}
        assert x.shape == (150, 3) and set(y.tolist()) <= {0, 1}
        assert (tcfg.method, tcfg.epochs, tcfg.learning_rate, tcfg.batch_size) == (
            "baseline", 4, 0.05, 7)


FAST_SWEEP = SweepConfig(
    n_train=200, n_test=200, epochs=3, hidden_dim=8,
    teacher_epochs=2, teacher_data_multiplier=2, noise_sigma=1.0,
)


class TestSweep:
    def test_grid_shape_and_lambda_echo(self):
        lambdas = [0.25, 0.75]
        rows = sweep_lambda(FAST_SWEEP, lambdas, ["lst", "multitask"], [0, 1])
        assert len(rows) == 2 * 2 * 2
        assert sorted({r.lam for r in rows}) == lambdas
        assert {r.method for r in rows} == {"lst", "multitask"}

    def test_deterministic(self):
        rows1 = sweep_lambda(FAST_SWEEP, [0.5], ["lst"], [3])
        rows2 = sweep_lambda(FAST_SWEEP, [0.5], ["lst"], [3])
        assert rows1 == rows2
        assert sweep_csv(rows1) == sweep_csv(rows2)

    def test_lambda_one_methods_coincide(self):
        rows = sweep_lambda(FAST_SWEEP, [1.0], ["lst", "multitask"], [2])
        by_method = {r.method: r for r in rows}
        assert by_method["lst"].acc == by_method["multitask"].acc

    def test_csv_format(self):
        rows = sweep_lambda(FAST_SWEEP, [0.5], ["lst"], [0])
        text = sweep_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "method,lambda,seed,acc,ece1,ece2,ece3"
        fields = lines[1].split(",")
        assert fields[0] == "lst" and fields[1] == "0.500000" and fields[2] == "0"
        assert all("." in f and len(f.split(".")[1]) == 6 for f in fields[3:])

    def test_csv_prints_negative_zero_as_zero(self):
        rows = [toy.SweepRow("lst", -0.0, 0, 0.5, 0.125, 0.25, -0.0)]
        assert sweep_csv(rows).splitlines()[1] == (
            "lst,0.000000,0,0.500000,0.125000,0.250000,0.000000"
        )

    def test_rejects_bad_method(self):
        with pytest.raises(Exception):
            sweep_lambda(FAST_SWEEP, [0.5], ["baseline"], [0])

    def test_bad_lambda_rejected_before_any_teacher_trains(self, monkeypatch):
        mapped = []
        monkeypatch.setattr(toy, "_parallel_map",
                            lambda fn, jobs: mapped.append(fn) or [fn(job) for job in jobs])
        with pytest.raises(InvalidParameterError, match="lam must be in"):
            sweep_lambda(FAST_SWEEP, [0.5, 1.5], ["lst"], [0])
        assert mapped == []

    def test_negative_seed_rejected_before_any_teacher_trains(self, monkeypatch):
        mapped = []
        monkeypatch.setattr(toy, "_parallel_map",
                            lambda fn, jobs: mapped.append(fn) or [fn(job) for job in jobs])
        with pytest.raises(InvalidParameterError, match="seed must be >= 0, got -1"):
            sweep_lambda(FAST_SWEEP, [0.5], ["lst"], [0, -1])
        # Cells are checked in grid order, so the first seed's bad lambda is named first.
        with pytest.raises(InvalidParameterError, match="lam must be in"):
            sweep_lambda(FAST_SWEEP, [1.5], ["lst"], [0, -1])
        assert mapped == []

    def test_lst_only_hierarchical_sweep_trains_only_fine_teachers(self, monkeypatch):
        units = []

        def spy(fn, jobs):
            if fn is toy._teacher_logits:
                units.extend(job[-1] for job in jobs)
            return [fn(job) for job in jobs]

        monkeypatch.setattr(toy, "_parallel_map", spy)
        grid = ([0.5], ["lst"], [0, 1])
        hier = sweep_lambda(dataclasses.replace(FAST_SWEEP, hierarchical=True), *grid)
        assert units == ["fine", "fine"]
        flat = sweep_lambda(FAST_SWEEP, *grid)
        assert sweep_csv(hier).encode() == sweep_csv(flat).encode()


HIER_SWEEP = dataclasses.replace(FAST_SWEEP, hierarchical=True)


class TestTrainCellTeachers:
    @pytest.mark.parametrize("method,cfg,units", [
        ("baseline", HIER_SWEEP, []),
        ("label_smooth", HIER_SWEEP, []),
        ("lst", HIER_SWEEP, ["fine"]),
        ("multitask", FAST_SWEEP, ["fine"]),
        ("multitask", HIER_SWEEP, ["fine", "coarse"]),
    ])
    def test_trains_the_teachers_of_its_method(self, monkeypatch, method, cfg, units):
        trained = []

        def spy(fn, jobs):
            if fn is toy._teacher_logits:
                trained.extend(job[-1] for job in jobs)
            return [fn(job) for job in jobs]

        monkeypatch.setattr(toy, "_parallel_map", spy)
        train_cell(cfg, method, 0)
        assert trained == units


class TestLockstep:
    """The lambda cells of one (method, seed) train as one stack, each cell
    bit for bit as it trains alone."""

    @pytest.mark.parametrize("method,cfg", [("lst", FAST_SWEEP), ("multitask", HIER_SWEEP)])
    def test_every_stack_cell_matches_train_cell(self, monkeypatch, method, cfg):
        stacks = []
        run = toy._run_cells

        def spy(*job):
            cells = run(*job)
            stacks.append((job[2], job[3], cells))
            return cells

        monkeypatch.setattr(toy, "_run_cells", spy)
        monkeypatch.setattr(toy, "_parallel_map", lambda fn, jobs: [fn(job) for job in jobs])
        lambdas, seeds = [0.0, 0.3, 1.0], [0, 1]
        rows = sweep_lambda(cfg, lambdas, [method], seeds)
        swept = list(stacks)
        assert [(len(tcfgs), seed) for tcfgs, seed, _ in swept] == [(3, 0), (3, 1)]
        by_cell = {(r.lam, r.seed): r for r in rows}
        for tcfgs, seed, cells in swept:
            for tcfg, (net, curve, _) in zip(tcfgs, cells):
                alone, alone_curve, ev = train_cell(cfg, method, seed, lam=tcfg.lam)
                np.testing.assert_array_equal(net.params, alone.params)
                assert curve == alone_curve
                eces = (ev.reports[r].ece for r in (1, 2, 3))
                assert by_cell[(tcfg.lam, seed)] == toy.SweepRow(
                    method, tcfg.lam, seed, ev.accuracy, *eces)

    def test_one_step_call_per_stack_step(self, monkeypatch):
        calls = []
        step = toy.network_loss_and_grad
        monkeypatch.setattr(toy, "network_loss_and_grad",
                            lambda *a: calls.append(a[0].params.shape) or step(*a))
        task = tiny_task()
        x, y = generate_data(task, 40, seed=1)
        teachers = {"fine": np.random.default_rng(2).normal(size=(40, 4))}
        student = make_student(task, 5, seed=3)
        stack = student._like(np.repeat(student.params[None], 3, axis=0))
        cfgs = [TrainConfig(method="lst", epochs=2, batch_size=16, lam=lam) for lam in (0.1, 0.5, 0.9)]
        _, curves = train(stack, x, y, cfgs, teachers)
        assert calls == [stack.params.shape] * 6  # 2 epochs of 3 batches
        assert len(curves) == 3 and all(len(c) == 2 for c in curves)

    def test_stack_needs_one_config_per_cell_equal_but_for_lam(self):
        task = tiny_task()
        x, y = generate_data(task, 16, seed=0)
        student = make_student(task, 4, seed=0)
        stack = student._like(np.repeat(student.params[None], 2, axis=0))
        base = TrainConfig(method="baseline", epochs=1)
        for cfgs in ([base], [base, base, base], [base, dataclasses.replace(base, seed=1)]):
            with pytest.raises(ConfigurationError, match="one config per cell"):
                train(stack, x, y, cfgs)
USABLE_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _worker_pid(_job):
    return os.getpid()


def _raise_job(job):
    if isinstance(job, Exception):
        raise job
    return job


def _big_array(job):
    return np.full(1 << 17, float(job))  # 1 MiB, many times a pipe's buffer


def _exit_job(job):
    if job == 1:
        os._exit(3)
    return job


def _mark_job(job):
    """Raise ``job`` if it is an exception, else leave a file named after it."""
    if isinstance(job, Exception):
        raise job
    index, directory = job
    (directory / str(index)).touch()
    return index


def _fresh_env() -> dict:
    """This environment with ``src`` first on ``PYTHONPATH`` and stdout buffered."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)


@pytest.mark.skipif(USABLE_CPUS < 2, reason="the forked path needs two usable CPUs")
class TestWorkerProcesses:
    """Forked workers and the serial in-process path give identical results."""

    def test_jobs_leave_this_process_unless_one_cpu(self, monkeypatch):
        assert os.getpid() not in toy._parallel_map(_worker_pid, range(4))
        _one_cpu(monkeypatch)
        assert toy._parallel_map(_worker_pid, range(4)) == [os.getpid()] * 4

    def test_sweep_matches_serial(self, monkeypatch):
        grid = ([0.0, 0.5], ["lst", "multitask"], [0, 1])
        forked = sweep_lambda(HIER_SWEEP, *grid)
        _one_cpu(monkeypatch)
        serial = sweep_lambda(HIER_SWEEP, *grid)
        assert forked == serial
        assert sweep_csv(forked).encode() == sweep_csv(serial).encode()

    def test_teacher_streams_match_serial(self, monkeypatch):
        task = make_task(seed=HIER_SWEEP.task_seed)
        stacks = [([toy._cell_config(HIER_SWEEP, "multitask", 4)], 4)]
        [(*_, forked)] = toy._stack_jobs(HIER_SWEEP, stacks)
        _one_cpu(monkeypatch)
        [(*_, serial)] = toy._stack_jobs(HIER_SWEEP, stacks)
        assert list(forked) == list(serial) == ["fine", "coarse"]
        assert serial["coarse"].shape == (HIER_SWEEP.n_train, int(task.coarse_map.max()) + 1)
        for kind in serial:
            assert np.array_equal(forked[kind], serial[kind])

    def test_worker_error_reaches_caller_unchanged(self):
        error = InvalidInputError("job 1 is malformed")
        with pytest.raises(InvalidInputError) as exc:
            toy._parallel_map(_raise_job, [0, error, 2])
        assert type(exc.value) is InvalidInputError
        assert str(exc.value) == "job 1 is malformed"

    def test_results_larger_than_a_pipe_buffer_come_back_in_order(self):
        # A parent that reaps a child before it drains the pipe waits forever;
        # the alarm turns that into a failure.
        def timed_out(signum, frame):
            raise TimeoutError("results of 1 MiB did not come back within 60 s")

        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(60)
        try:
            results = toy._parallel_map(_big_array, [0, 1, 2])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert len(results) == 3
        for job, result in enumerate(results):
            assert result.nbytes >= 1 << 20
            assert np.array_equal(result, _big_array(job))

    def test_child_without_a_result_raises_and_every_child_is_reaped(self):
        with pytest.raises(RuntimeError) as exc:
            toy._parallel_map(_exit_job, [0, 1, 2])
        assert str(exc.value).startswith("worker of job 1 ended without a result")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failed_job_starts_no_further_job(self, tmp_path):
        jobs = [InvalidInputError("job 0 is malformed")]
        jobs += [(index, tmp_path) for index in range(1, USABLE_CPUS + 3)]
        with pytest.raises(InvalidInputError, match="job 0 is malformed"):
            toy._parallel_map(_mark_job, jobs)
        # Jobs 0 to USABLE_CPUS - 1 start before job 0's result is read.
        assert {int(p.name) for p in tmp_path.iterdir()} <= set(range(1, USABLE_CPUS))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_children_flush_nothing_and_run_no_exit_handler(self):
        code = ("import atexit, sys\n"
                "from distilcal import toy\n"
                "sys.stdout.write('before\\n')\n"
                "atexit.register(lambda: sys.stdout.write('at exit\\n'))\n"
                "sys.stdout.write(f'{toy._parallel_map(abs, [-1, -2, -3])}\\n')\n")
        proc = subprocess.run([sys.executable, "-c", code], env=_fresh_env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "before\n[1, 2, 3]\nat exit\n"

    @pytest.mark.parametrize("command,keys", [
        ("train", "method=multitask\nlambda=0.5\nout=model.json\n"),
        ("sweep", "lambdas=0.5\nmethods=lst,multitask\nseeds=0,1\nout=sweep.csv\n"),
    ], ids=["train", "sweep"])
    def test_training_loads_no_process_pool_or_masked_arrays(self, tmp_path, command, keys):
        (tmp_path / "run.cfg").write_text(
            "n_train=200\nn_test=200\nepochs=3\nhidden_dim=8\nteacher_epochs=2\n"
            "teacher_data_multiplier=2\nnoise_sigma=1.0\nhierarchical=1\n" + keys)
        code = ("import sys\n"
                "from distilcal.cli import main\n"
                "assert main(sys.argv[1:]) == 0\n"
                "print([m for m in ('multiprocessing', 'concurrent.futures', 'numpy.ma')"
                " if m in sys.modules])\n")
        proc = subprocess.run([sys.executable, "-c", code, command, "--config", "run.cfg"],
                              cwd=tmp_path, env=_fresh_env(), capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

