"""Walkthrough: post-hoc temperature scaling and two-temperature rescoring.

An overconfident classifier's logits are rescaled by a single scalar fitted
on held-out data (the classifier itself never changes); both the negative
log-likelihood and the calibration error improve. Separately, an n-best list
carrying two log-probability streams is re-ranked with one temperature per
stream, which can change the winner.

Run:  python demos/03_temperature_scaling.py   (a few seconds)
"""

import distilcal as dc
from distilcal.probs import softmax_t
from distilcal.toy import _derive_seed

# An overconfident model: train hard on noisy data, calibrate on held-out data.
task = dc.make_task(seed=0, noise_sigma=1.8)
x_train, y_train = dc.generate_data(task, 2000, _derive_seed(0, "train"))
x_val, y_val = dc.generate_data(task, 1000, _derive_seed(0, "val"))
net = dc.make_student(task, 64, _derive_seed(0, "student"))
dc.train(net, x_train, y_train,
         dc.TrainConfig(method="baseline", epochs=200, learning_rate=0.2,
                        batch_size=32, seed=_derive_seed(0, "shuffle")))
_, logits = net.forward_batch(x_val)
val_logits = logits["sl"]

fit = dc.fit_temperature(val_logits, y_val)
print(f"fitted temperature: {fit.t_star:.4f}  (search bounds {fit.search_bounds})")
print(f"mean NLL at t=1: {fit.nll_at_unit:.4f}   at t*: {fit.nll_at_t_star:.4f}")

for t, tag in ((1.0, "before"), (fit.t_star, "after")):
    probs = softmax_t(val_logits, t)
    print(f"rank-1 ece {tag} rescaling: {dc.ece(probs, y_val, 1, 15).ece:.4f}")

print("\n=== combining two score streams at independent temperatures ===")
ids = ["the cat sat", "the cats at"]
am_logp, lm_logp = [-10.0, -9.0], [-2.0, -4.0]
for t1, t2 in ((1.0, 1.0), (1.0, 4.0)):
    order, scores = dc.combine_scores(am_logp, lm_logp, t1, t2)
    table = ", ".join(f"{ids[i]!r}: {scores[i]:.2f}" for i in order)
    print(f"t1={t1} t2={t2}: best={ids[order[0]]!r}   ({table})")
print("note: downweighting the second stream (t2: 1 -> 4) flips the winner")
