"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The two diagnostic reproductions (criteria 7 and 8) train the toy
model at fixed seeds with the tuned configurations below; together they
dominate the suite's runtime (a few minutes on one core).
"""

from pathlib import Path

import numpy as np

import distilcal as dc
from distilcal.cli import main as cli_main
from distilcal.probs import softmax_t
from distilcal.toy import _derive_seed, _parallel_map, pooled_gap

from oracles import alignments_of, brute_force_ece, dense_grid_temperature

DATA = Path(__file__).parent / "data"
SEEDS = (0, 1, 2)

# Tuned so the baseline becomes overconfident while the smoothed model fits
# its target ceiling; see the calibration demo for the same setup.
CALIBRATION_RUN = dict(noise_sigma=1.8, hidden_dim=64, epochs=300,
                       learning_rate=0.2, batch_size=32, n_samples=2000)

# Tuned so every cell converges: the multitask grid then varies only through
# its target trade-off while the interpolation grid varies with the target.
STABILITY_SWEEP = dc.SweepConfig(
    noise_sigma=1.8, n_train=1000, n_test=2000, hidden_dim=32,
    epochs=200, learning_rate=0.1, batch_size=32,
)
STABILITY_LAMBDAS = [round(0.1 * i, 1) for i in range(1, 10)]


def report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {status}: {name}{suffix}")
    assert ok, f"criterion {number} failed: {name}{suffix}"


def test_criterion_01_full_scale_results_out_of_scope():
    # Full-scale speech-recognition accuracy/WER numbers require cluster-scale
    # training and are explicitly replaced by the property suite below.
    report(1, "full-scale training substituted by property suite", True,
           "criteria 2-10 are the substitute checks")


def test_criterion_02_ece_matches_brute_force_oracle():
    rng = np.random.default_rng(20240101)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 501))
        k = int(rng.integers(3, 21))
        probs = rng.dirichlet(np.ones(k), size=n)
        labels = rng.integers(0, k, size=n)
        for rank in (1, 2, 3):
            for bins in (1, 5, 15):
                ours = dc.ece(probs, labels, rank, bins).ece
                ref = brute_force_ece(probs.tolist(), labels.tolist(), rank, bins)
                worst = max(worst, abs(ours - ref))
    report(2, "ECE equals independent brute-force evaluation", worst < 1e-12,
           f"max |diff| = {worst:.2e}")


def test_criterion_03_gradients_match_central_differences():
    rng = np.random.default_rng(7)
    worst = 0.0

    def point(k):
        return rng.normal(scale=2.0, size=k)

    for _ in range(20):
        target = rng.dirichlet(np.ones(6))
        worst = max(worst, dc.grad_check(lambda x: dc.cross_entropy(x, [target]), point(6)[None]))
    for temp in (0.5, 1.0, 5.0):
        for dist in ("kld", "ce"):
            teacher = point(5)
            for _ in range(20):
                worst = max(worst, dc.grad_check(
                    lambda x: dc.kd_loss(x, [teacher], temp, dist), point(5)[None]))
    for lam in (0.0, 0.3, 0.7, 1.0):
        teacher = point(5)
        target = dc.interpolate_target([1], dc.soft_label([teacher], 2.0), lam)
        for _ in range(20):
            worst = max(worst, dc.grad_check(
                lambda x: dc.cross_entropy(x, target), point(5)[None]))

    for n_teachers in (1, 3):
        dims = [5] + [5, 3, 4][:n_teachers]
        splits = np.cumsum(dims)[:-1]
        teachers = [(f"t{i}", point(dims[i + 1]), float(rng.uniform(0.5, 5)))
                    for i in range(n_teachers)]
        targets = {"sl": dc.one_hot([2], 5)}
        targets.update((tid, dc.soft_label([lg], t)) for tid, lg, t in teachers)

        def loss(flat):
            parts = np.split(flat, splits)
            heads = ["sl"] + [f"t{i}" for i in range(n_teachers)]
            value, dlogits = dc.multitask_loss(
                {head: part[None] for head, part in zip(heads, parts)}, targets, 0.4)
            return value, np.concatenate([dlogits[head][0] for head in heads])

        for _ in range(20):
            worst = max(worst, dc.grad_check(loss, rng.normal(size=sum(dims))))
    report(3, "analytic gradients vs central differences", worst < 1e-6,
           f"max rel err = {worst:.2e}")


def test_criterion_04_algebraic_identities():
    rng = np.random.default_rng(99)
    worst_mix = worst_edge = worst_offset = 0.0
    for _ in range(40):
        k = int(rng.integers(2, 9))
        label = [int(rng.integers(0, k))]
        student, teacher = rng.normal(size=k) * 2, rng.normal(size=k) * 2
        lam = float(rng.uniform(0, 1))
        temp = float(rng.uniform(0.3, 6))
        soft = dc.soft_label([teacher], temp)

        def lst(mix):
            return dc.cross_entropy([student], dc.interpolate_target(label, soft, mix))

        via_values, via_grads = lst(lam)
        ce_values, ce_grads = dc.cross_entropy([student], dc.one_hot(label, k))
        kd_ce_values, kd_ce_grads = dc.kd_loss([student], [teacher], temp, "ce")
        kd_kld_values, _ = dc.kd_loss([student], [teacher], temp, "kld")
        mixed = lam * ce_values[0] + (1 - lam) * kd_ce_values[0]
        worst_mix = max(worst_mix, abs(via_values[0] - mixed),
                        float(np.abs(via_grads -
                                     (lam * ce_grads + (1 - lam) * kd_ce_grads)).max()))
        # distance-form relation: ce-form minus kld-form is the soft entropy
        h = dc.entropy(soft)[0]
        worst_offset = max(worst_offset, abs((kd_ce_values[0] - kd_kld_values[0]) - h))
        # edge cases reduce exactly
        one_values, one_grads = lst(1.0)
        zero_values, zero_grads = lst(0.0)
        worst_edge = max(worst_edge,
                         abs(one_values[0] - ce_values[0]),
                         abs(zero_values[0] - kd_ce_values[0]),
                         float(np.abs(one_grads - ce_grads).max()),
                         float(np.abs(zero_grads - kd_ce_grads).max()))
    ok = worst_mix < 1e-12 and worst_edge < 1e-12 and worst_offset < 1e-12
    report(4, "interpolation-loss identities", ok,
           f"mix {worst_mix:.1e}, edges {worst_edge:.1e}, offset {worst_offset:.1e}")


def test_criterion_05_alignment_roundtrip_fuzz():
    rng = np.random.default_rng(4242)
    fine_vocab = [f"f{i}" for i in range(50)]
    coarse_vocab = [f"c{i}" for i in range(12)]
    ok = True
    for _ in range(1000):
        length = int(rng.integers(0, 201))
        used = rng.integers(1, 51)
        frames = tuple(fine_vocab[i] for i in rng.integers(0, used, size=length))
        table = {fine_vocab[i]: coarse_vocab[rng.integers(0, len(coarse_vocab))]
                 for i in range(used)}
        mapped = dc.map_units(alignments_of({"u": frames}), table)
        runs = dc.deduplicate(mapped)
        labels = [mapped.vocab[c] for c in runs.labels]
        ok &= sum(runs.runs) == length
        ok &= all(a != b for a, b in zip(labels, labels[1:]))
        eye = np.eye(len(coarse_vocab))
        onehots = eye[[coarse_vocab.index(t) for t in labels]]
        back = np.repeat(onehots, runs.runs, axis=0)
        recovered = tuple(coarse_vocab[int(np.argmax(v))] for v in back)
        ok &= recovered == tuple(mapped.vocab[c] for c in mapped.codes)
        if not ok:
            break
    report(5, "deduplication/repetition roundtrip on 1000 fuzzed alignments", ok)


def test_criterion_06_temperature_fitting_and_combination():
    rng = np.random.default_rng(55)
    ok_nll = True
    for _ in range(10):
        n, k = int(rng.integers(10, 200)), int(rng.integers(2, 8))
        logits = rng.normal(scale=rng.uniform(0.5, 6), size=(n, k))
        labels = rng.integers(0, k, size=n)
        fit = dc.fit_temperature(logits, labels)
        ok_nll &= fit.nll_at_t_star <= fit.nll_at_unit + 1e-15

    logits = rng.normal(scale=5, size=(120, 5))
    labels = np.argmax(logits, axis=1)
    labels[::3] = (labels[::3] + 1) % 5
    fit_full = dc.fit_temperature(logits, labels)
    fit_half = dc.fit_temperature(logits / 2, labels)
    oracle_t, _ = dense_grid_temperature(logits.tolist(), labels.tolist(), 0.05, 20.0)
    ok_scale = (abs(fit_half.t_star - fit_full.t_star / 2) <= 0.02 * fit_full.t_star / 2
                and abs(fit_full.t_star - oracle_t) <= 0.02 * oracle_t)

    ids = ["H1", "H2"]
    am, lm = [-10.0, -9.0], [-2.0, -4.0]
    flip = (ids[dc.combine_scores(am, lm, 1, 1)[0][0]] == "H1"
            and ids[dc.combine_scores(am, lm, 1, 4)[0][0]] == "H2")
    pairs = np.array([(rng.normal(-10, 3), rng.normal(-5, 2)) for i in range(15)])
    am, lm = pairs[:, 0], pairs[:, 1]
    base_order = dc.combine_scores(am, lm, 1.7, 0.8)[0].tolist()
    ok_scaling = all(
        dc.combine_scores(am, lm, 1.7 * c, 0.8 * c)[0].tolist() == base_order
        for c in (0.25, 3.0, 40.0)
    )
    ok = ok_nll and ok_scale and flip and ok_scaling
    report(6, "temperature fit vs grid oracle; combination flip and scaling", ok,
           f"nll {ok_nll}, scale {ok_scale}, flip {flip}, joint-scaling {ok_scaling}")


def _train_and_record(job):
    method, seed = job
    run = CALIBRATION_RUN
    task = dc.make_task(seed=0, noise_sigma=run["noise_sigma"])
    x_train, y_train = dc.generate_data(task, run["n_samples"], _derive_seed(seed, "train"))
    x_test, y_test = dc.generate_data(task, run["n_samples"], _derive_seed(seed, "test"))
    net = dc.make_student(task, run["hidden_dim"], _derive_seed(seed, "student"))
    cfg = dc.TrainConfig(method=method, epochs=run["epochs"],
                         learning_rate=run["learning_rate"],
                         batch_size=run["batch_size"],
                         seed=_derive_seed(seed, "shuffle"), epsilon=0.2)
    dc.train(net, x_train, y_train, cfg)
    _, logits = net.forward_batch(x_test)
    probs = softmax_t(logits["sl"])
    return probs, y_test


def test_criterion_07_label_smoothing_underconfident_at_lower_ranks():
    hits = 0
    details = []
    jobs = [(method, seed) for seed in SEEDS for method in ("baseline", "label_smooth")]
    records = dict(zip(jobs, _parallel_map(_train_and_record, jobs)))
    for seed in SEEDS:
        base = records["baseline", seed]
        smooth = records["label_smooth", seed]
        gap1_base = pooled_gap(*base, 1)
        gap1 = pooled_gap(*smooth, 1)
        gap2 = pooled_gap(*smooth, 2)
        gap3 = pooled_gap(*smooth, 3)
        hit = gap2 < 0 and gap3 < 0 and abs(gap1) < abs(gap1_base)
        hits += hit
        details.append(f"seed {seed}: gap2={gap2:+.4f} gap3={gap3:+.4f} "
                       f"|gap1| {abs(gap1):.3f} vs baseline {abs(gap1_base):.3f}")
    report(7, "smoothing under-confident at ranks 2-3, better at rank 1",
           hits >= 2, f"{hits}/3 seeds; " + "; ".join(details))


def test_criterion_08_multitask_accuracy_more_stable_across_lambda():
    rows = dc.sweep_lambda(STABILITY_SWEEP, STABILITY_LAMBDAS,
                           ["lst", "multitask"], list(SEEDS))
    acc = {(r.method, r.seed, r.lam): r.acc for r in rows}
    hits = 0
    details = []
    for seed in SEEDS:
        lst_accs = [acc[("lst", seed, lam)] for lam in STABILITY_LAMBDAS]
        mt_accs = [acc[("multitask", seed, lam)] for lam in STABILITY_LAMBDAS]
        lst_range = max(lst_accs) - min(lst_accs)
        mt_range = max(mt_accs) - min(mt_accs)
        hits += mt_range <= lst_range
        details.append(f"seed {seed}: ranges lst {lst_range:.4f} / mt {mt_range:.4f}")
    report(8, "multitask accuracy range <= interpolation range over lambda grid",
           hits >= 2, f"{hits}/3 seeds; " + "; ".join(details))


def test_criterion_09_sweep_csv_byte_identical(tmp_path, capsys):
    cfg_text = (
        "num_classes=4\ninput_dim=3\ncoarse_classes=2\nhidden_dim=8\n"
        "n_train=150\nn_test=150\nepochs=4\nteacher_epochs=1\n"
        "teacher_data_multiplier=2\nbatch_size=16\n"
        "lambdas=0.2,0.5,0.8\nmethods=lst,multitask\nseeds=0,1\n"
    )
    outputs = []
    for name in ("one.csv", "two.csv"):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(cfg_text + f"out={tmp_path / name}\n")
        assert cli_main(["sweep", "--config", str(cfg)]) == 0
        outputs.append((tmp_path / name).read_bytes())
    capsys.readouterr()
    report(9, "sweep command is byte-deterministic", outputs[0] == outputs[1])


def test_criterion_10_cli_golden_files(tmp_path, capsys):
    out = tmp_path / "rel.csv"
    code = cli_main(["ece", "--input", str(DATA / "predictions_hand4.jsonl"),
                     "--rank", "1", "--bins", "2", "--out", str(out)])
    stdout = capsys.readouterr().out
    ok_ece = (code == 0 and stdout == "rank=1 bins=2 ece=0.425000 n=4\n"
              and out.read_bytes() == (DATA / "expected_ece_hand4.csv").read_bytes())

    code = cli_main(["combine", "--hyps", str(DATA / "hyps_flip.jsonl"), "--t2", "4"])
    flip_out = capsys.readouterr().out
    ok_combine = (code == 0
                  and flip_out.encode() == (DATA / "expected_combine_flip.txt").read_bytes())

    tgt = tmp_path / "targets.tsv"
    code = cli_main([
        "targets", "--align", str(DATA / "align_three.tsv"),
        "--map", "identity", "--map", str(DATA / "map_mid.tsv"),
        "--map", str(DATA / "map_one.tsv"),
        "--posteriors", str(DATA / "post_fine.tsv"),
        "--posteriors", str(DATA / "post_mid.tsv"),
        "--posteriors", str(DATA / "post_one.tsv"),
        "--out", str(tgt),
    ])
    capsys.readouterr()
    ok_targets = (code == 0
                  and tgt.read_bytes() == (DATA / "expected_targets_three.tsv").read_bytes())
    report(10, "CLI outputs match stored hand-computed goldens",
           ok_ece and ok_combine and ok_targets,
           f"ece {ok_ece}, combine {ok_combine}, targets {ok_targets}")
