"""Walkthrough: top-N calibration of a plainly trained vs label-smoothed model.

Trains the toy classifier twice on a noisy cluster task (so accuracy tops out
well below 100%), then compares bin-wise confidence against accuracy for the
best, 2nd-best, and 3rd-best classes. The plainly trained model ends up
overconfident at rank 1; the smoothed model is far better calibrated at
rank 1 but systematically *under*-confident at ranks 2 and 3, because
smoothing pushes all non-top probabilities toward a single small value.

Run:  python demos/02_topn_calibration.py   (about 3 s)
"""

import distilcal as dc
from distilcal.probs import softmax_t
from distilcal.toy import _derive_seed, pooled_gap

SEED = 0
task = dc.make_task(seed=0, noise_sigma=1.8)
x_train, y_train = dc.generate_data(task, 2000, _derive_seed(SEED, "train"))
x_test, y_test = dc.generate_data(task, 2000, _derive_seed(SEED, "test"))


def train_and_predict(method):
    net = dc.make_student(task, 64, _derive_seed(SEED, "student"))
    cfg = dc.TrainConfig(method=method, epochs=300, learning_rate=0.2,
                         batch_size=32, seed=_derive_seed(SEED, "shuffle"),
                         epsilon=0.2)
    dc.train(net, x_train, y_train, cfg)
    _, logits = net.forward_batch(x_test)
    return softmax_t(logits["sl"])


for method in ("baseline", "label_smooth"):
    print(f"\n=== {method} ===")
    probs = train_and_predict(method)
    _, correct = dc.rank_confidence_correct(probs, y_test, 1)
    print(f"test accuracy: {correct.mean():.3f}")
    for rank in (1, 2, 3):
        report = dc.ece(probs, y_test, rank, 15)
        gap = pooled_gap(probs, y_test, rank)
        direction = "over-confident" if gap > 0 else "under-confident"
        print(f"rank {rank}: ece={report.ece:.4f}  overall conf-acc={gap:+.4f} "
              f"({direction})")
    print("\nrank-2 reliability table (15 equal-count bins):")
    print(dc.reliability_csv(dc.ece(probs, y_test, 2, 15)))
