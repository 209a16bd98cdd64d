"""Walkthrough: building supervision targets and evaluating the losses.

Shows the four target constructions (one-hot, smoothed, softened,
interpolated) on a batch of one sample, then demonstrates that mixing the losses and interpolating
the target are the same thing, and finishes with a finite-difference check
of every analytic gradient.

Run:  python demos/01_soft_targets_and_losses.py
"""

import numpy as np

import distilcal as dc

np.set_printoptions(precision=4, suppress=True)

K = 5
label = [1]  # one sample: a batch of one
teacher_logits = np.array([[1.2, 3.0, 0.1, -0.5, 0.8]])

print("=== targets ===")
print("one-hot:            ", dc.one_hot(label, K)[0])
print("smoothed (eps=0.1): ", dc.smooth_label(label, K, 0.1)[0])
for t in (1.0, 2.0, 5.0):
    print(f"teacher softened T={t}:", dc.soft_label(teacher_logits, t)[0])
soft = dc.soft_label(teacher_logits, 2.0)
for lam in (0.0, 0.5, 1.0):
    print(f"interpolated lam={lam}:", dc.interpolate_target(label, soft, lam)[0])

print()
print("=== the interpolation loss is a mixture of CE and distillation ===")
student = np.array([[0.3, 1.1, -0.2, 0.0, 0.6]])
lam, temp = 0.3, 2.0
lst_target = dc.interpolate_target(label, dc.soft_label(teacher_logits, temp), lam)
via_target, _ = dc.cross_entropy(student, lst_target)
ce, _ = dc.cross_entropy(student, dc.one_hot(label, K))
kd, kd_grad = dc.kd_loss(student, teacher_logits, temp, distance="ce")
mixed = lam * ce[0] + (1 - lam) * kd[0]
print(f"loss via interpolated target: {via_target[0]:.12f}")
print(f"lam*CE + (1-lam)*KD:          {mixed:.12f}")
print(f"difference:                   {abs(via_target[0] - mixed):.2e}")

kd_kld, kld_grad = dc.kd_loss(student, teacher_logits, temp, distance="kld")
print(f"\nKLD distance shifts the value by the soft-label entropy only:")
print(f"  CE-form - KLD-form = {kd[0] - kd_kld[0]:.12f}")
print(f"  entropy(soft)      = {dc.entropy(dc.soft_label(teacher_logits, temp))[0]:.12f}")
print(f"  gradients identical: {np.allclose(kd_grad, kld_grad, atol=1e-15)}")

print()
print("=== two heads, one trunk: the multi-task loss ===")
rng = np.random.default_rng(0)
logits = {
    "sl": rng.normal(size=(1, K)),
    "kd_fine": rng.normal(size=(1, K)),
    "kd_coarse": rng.normal(size=(1, 3)),
}
targets = {
    "sl": dc.one_hot(label, K),
    "kd_fine": dc.soft_label(rng.normal(size=(1, K)), 2.0),
    "kd_coarse": dc.soft_label(rng.normal(size=(1, 3)), 1.0),
}
for lam in (0.0, 0.5, 1.0):
    value, dlogits = dc.multitask_loss(logits, targets, lam)
    kd_norms = {head: float(np.abs(g).max()) for head, g in dlogits.items() if head != "sl"}
    print(f"lam={lam}: value={value:.4f} "
          f"|sl grad|={np.abs(dlogits['sl']).max():.4f} |kd grads|={kd_norms}")

print()
print("=== every gradient agrees with central finite differences ===")
err_ce = dc.grad_check(lambda x: dc.cross_entropy(x, soft), student)
err_kd = dc.grad_check(lambda x: dc.kd_loss(x, teacher_logits, 5.0), student)
err_lst = dc.grad_check(lambda x: dc.cross_entropy(x, lst_target), student)
print(f"cross-entropy: {err_ce:.2e}   distillation: {err_kd:.2e}   "
      f"interpolation: {err_lst:.2e}")
