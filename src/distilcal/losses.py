"""Training losses with analytic gradients with respect to student logits.

Four losses are provided:

* plain cross-entropy against an arbitrary target distribution,
* distillation loss against a temperature-softened teacher (the teacher's
  logits are divided by T, the student's are not),
* the label-interpolation loss, computed against the mixed target
  ``lam * one_hot + (1 - lam) * soft`` (identical to mixing the CE and
  distillation losses with the same weights),
* the multi-task loss with one supervised head plus one distillation head
  per teacher, each head graded independently.

Gradients are with respect to the raw student logits and always sum to zero
across classes (softmax Jacobian). ``grad_check`` verifies any of them with
central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInputError, InvalidParameterError
from .probs import as_logits, as_probs
from .targets import HardLabel, InterpolationConfig, interpolate_target, one_hot, soft_label

#: Floor on log arguments; zero-probability entries contribute exactly 0.
LOG_FLOOR = 1e-300


@dataclass
class LossResult:
    """Scalar loss value (nats) and its gradient w.r.t. the student logits."""

    value: float
    grad: np.ndarray


@dataclass(frozen=True)
class MultiTaskLogits:
    """Student logits for the supervised head and one head per teacher."""

    sl_logits: np.ndarray
    kd_logits: tuple[tuple[str, np.ndarray], ...]

    def __post_init__(self):
        object.__setattr__(self, "sl_logits", as_logits(self.sl_logits))
        pairs = tuple((str(tid), as_logits(lg)) for tid, lg in self.kd_logits)
        ids = [tid for tid, _ in pairs]
        if len(set(ids)) != len(ids):
            raise InvalidInputError(f"duplicate teacher ids in kd heads: {ids}")
        object.__setattr__(self, "kd_logits", pairs)


@dataclass
class MultiTaskLossResult:
    """Total loss plus independent per-head gradients."""

    value: float
    sl_grad: np.ndarray
    kd_grads: dict[str, np.ndarray]


def entropy(probs) -> float:
    """Shannon entropy in nats; zero-probability entries contribute 0."""
    p = as_probs(probs)
    return float(-(p * np.log(np.maximum(p, LOG_FLOOR))).sum())


def batch_cross_entropy(
    student_logits: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise cross-entropy values and gradients for 2-D inputs.

    The batched twin of :func:`cross_entropy`; row i of the outputs equals
    ``cross_entropy(student_logits[i], targets[i])``.
    """
    logits = as_logits(student_logits)
    t = np.asarray(targets, dtype=np.float64)
    if logits.shape != t.shape:
        raise InvalidInputError(
            f"logits shape {logits.shape} does not match targets shape {t.shape}"
        )
    # log_softmax_t and softmax_t at t=1, sharing one max shift and one exp.
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e.sum(axis=-1, keepdims=True)
    values = -(t * (z - np.log(s))).sum(axis=-1)
    return values, e / s - t


def cross_entropy(student_logits, target) -> LossResult:
    """Cross-entropy of the student softmax against a target distribution.

    ``value = -sum_i target_i * log_softmax(student)_i`` and
    ``grad = softmax(student) - target``.
    """
    logits = as_logits(student_logits)
    t = as_probs(target)
    if logits.ndim != 1 or t.ndim != 1:
        raise InvalidInputError("cross_entropy expects single vectors")
    if logits.shape != t.shape:
        raise InvalidInputError(
            f"logits shape {logits.shape} does not match target shape {t.shape}"
        )
    values, grads = batch_cross_entropy(logits[None, :], t[None, :])
    return LossResult(value=float(values[0]), grad=grads[0])


def kd_loss(
    student_logits,
    teacher_logits,
    temperature: float,
    distance: str = "kld",
) -> LossResult:
    """Distillation loss against the temperature-softened teacher.

    Only the teacher logits are divided by ``temperature``; the student is
    compared at temperature 1. With ``distance="ce"`` this is the plain
    cross-entropy against the soft label; with ``distance="kld"`` the soft
    label's entropy is subtracted, which leaves the gradient unchanged.
    """
    d = str(distance).lower()
    if d not in ("kld", "ce"):
        raise InvalidParameterError(f"distance must be 'kld' or 'ce', got {distance!r}")
    soft = soft_label(teacher_logits, temperature)
    res = cross_entropy(student_logits, soft)
    if d == "kld":
        res.value -= entropy(soft)
    return res


def lst_loss(
    student_logits,
    hard: HardLabel,
    teacher_logits,
    cfg: InterpolationConfig,
) -> LossResult:
    """Label-interpolation loss: cross-entropy against the mixed target.

    Equals ``lam * cross_entropy + (1 - lam) * kd_loss`` with the CE distance
    exactly, and with the KLD distance up to the student-independent constant
    ``(1 - lam) * entropy(soft label)``.
    """
    soft = soft_label(teacher_logits, cfg.temperature)
    target = interpolate_target(hard, soft, cfg.lam)
    return cross_entropy(student_logits, target)


def multitask_loss(
    logits: MultiTaskLogits,
    hard: HardLabel,
    teachers: Sequence[tuple[str, np.ndarray, float]],
    lam: float,
) -> MultiTaskLossResult:
    """Two-task loss: supervised head on the hard label, one head per teacher.

    ``value = lam * CE(sl, one_hot) + (1 - lam) * mean_t CE(kd_t, soft_t)``
    where ``soft_t`` is teacher t's logits softened at its own temperature.
    The supervised-head gradient carries the factor ``lam`` only; each
    distillation-head gradient carries ``(1 - lam) / n_teachers`` only.
    Averaging (rather than summing) over teachers keeps ``lam`` meaningful
    independently of the teacher count.
    """
    if not 0.0 <= lam <= 1.0:
        raise InvalidParameterError(f"lam must be in [0, 1], got {lam}")
    head_ids = [tid for tid, _ in logits.kd_logits]
    teacher_ids = [str(t[0]) for t in teachers]
    if len(set(teacher_ids)) != len(teacher_ids):
        raise InvalidInputError(f"duplicate teacher ids: {teacher_ids}")
    if set(head_ids) != set(teacher_ids):
        raise InvalidInputError(
            f"kd heads {sorted(head_ids)} do not match teachers {sorted(teacher_ids)}"
        )

    sl_res = cross_entropy(logits.sl_logits, one_hot(hard))
    value = lam * sl_res.value
    sl_grad = lam * sl_res.grad

    kd_by_id = dict(logits.kd_logits)
    kd_grads: dict[str, np.ndarray] = {}
    n_teachers = len(teachers)
    kd_total = 0.0
    for tid, t_logits, t_temp in teachers:
        tid = str(tid)
        head = kd_by_id[tid]
        soft = soft_label(t_logits, t_temp)
        if head.shape != soft.shape:
            raise InvalidInputError(
                f"kd head {tid!r} has shape {head.shape}, "
                f"teacher emits {soft.shape}"
            )
        res = cross_entropy(head, soft)
        kd_total += res.value
        kd_grads[tid] = ((1.0 - lam) / n_teachers) * res.grad
    if n_teachers:
        value += (1.0 - lam) * (kd_total / n_teachers)
    return MultiTaskLossResult(value=value, sl_grad=sl_grad, kd_grads=kd_grads)


def grad_check(
    loss_fn: Callable[[np.ndarray], LossResult],
    logits,
    h: float = 1e-5,
) -> float:
    """Max relative error of the analytic gradient vs central differences.

    For each coordinate: ``|analytic - numeric| / max(1, |numeric|)`` with
    ``numeric = (f(x + h e_i) - f(x - h e_i)) / (2h)``.
    """
    x = np.asarray(logits, dtype=np.float64).copy()
    analytic = loss_fn(x).grad
    worst = 0.0
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.flat[i] += h
        xm.flat[i] -= h
        numeric = (loss_fn(xp).value - loss_fn(xm).value) / (2.0 * h)
        err = abs(analytic.flat[i] - numeric) / max(1.0, abs(numeric))
        worst = max(worst, err)
    return worst
