"""Walkthrough: how the mixing factor affects the two distillation methods.

Sweeps the hard/soft mixing factor for both the label-interpolation method
and the multi-task method at fixed seeds. The interpolation method's
accuracy moves substantially with the mixing factor (its training target
itself changes), while the multi-task student, whose supervised head always
sees clean one-hot targets, stays in a narrower band.

Run:  python demos/05_lambda_stability.py   (about 2 s; pass --full for the
full nine-point grid over three seeds used by the acceptance suite)
"""

import sys

import distilcal as dc

full = "--full" in sys.argv
lambdas = [round(0.1 * i, 1) for i in range(1, 10)] if full else [0.1, 0.3, 0.5, 0.7, 0.9]
seeds = [0, 1, 2] if full else [0]

cfg = dc.SweepConfig(noise_sigma=1.8, n_train=1000, n_test=2000,
                     hidden_dim=32, epochs=200, learning_rate=0.1)
print(f"interpolation soft labels at T={cfg.lst_temperature}, "
      f"multi-task distillation heads at T={cfg.multitask_temperature}")
rows = dc.sweep_lambda(cfg, lambdas, ["lst", "multitask"], seeds)

print()
print(dc.sweep_csv(rows))

acc = {(r.method, r.seed, r.lam): r.acc for r in rows}
for seed in seeds:
    lst_accs = [acc[("lst", seed, lam)] for lam in lambdas]
    mt_accs = [acc[("multitask", seed, lam)] for lam in lambdas]
    print(f"seed {seed}: accuracy range over the grid  "
          f"interpolation={max(lst_accs) - min(lst_accs):.4f}  "
          f"multi-task={max(mt_accs) - min(mt_accs):.4f}")
