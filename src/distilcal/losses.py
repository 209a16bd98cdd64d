"""Batch losses with analytic gradients with respect to student logits.

Every loss takes ``(N, K)`` student logits and returns one value per row plus
the ``(N, K)`` gradient rows; a single vector is a batch of one. Three losses
are provided:

* cross-entropy against arbitrary target rows; the label-interpolation loss
  is this loss against :func:`distilcal.targets.interpolate_target` (identical
  to mixing the CE and distillation losses with the same weights),
* distillation loss against a temperature-softened teacher (the teacher's
  logits are divided by T, the student's are not),
* the multi-task loss over a batch, with one supervised head plus one
  distillation head per teacher, each head graded independently.

Gradients always sum to zero across classes (softmax Jacobian).
``grad_check`` verifies any of them with central finite differences.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from .errors import InvalidInputError, InvalidParameterError
from .probs import _row_gaps, as_logits, as_probs
from .targets import soft_label

#: Floor on log arguments; zero-probability entries contribute exactly 0.
LOG_FLOOR = 1e-300


def entropy(probs) -> np.ndarray:
    """Shannon entropy in nats of each row; zero-probability entries contribute 0."""
    p = as_probs(probs)
    return -(p * np.log(np.maximum(p, LOG_FLOOR))).sum(axis=-1)


def cross_entropy(student_logits, targets) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise cross-entropy of the student softmax against target rows.

    ``values[i] = -sum_j targets[i, j] * log_softmax(student[i])_j`` and
    ``grads[i] = softmax(student[i]) - targets[i]``. The logits get one
    ``as_logits`` check; the targets are taken as given. A class whose gap
    to the row maximum passes the float range counts as the widest finite
    gap, so a zero target on it adds exactly 0.
    """
    logits = as_logits(student_logits)
    t = np.asarray(targets, dtype=np.float64)
    if logits.shape != t.shape:
        raise InvalidInputError(
            f"logits shape {logits.shape} does not match targets shape {t.shape}"
        )
    z = _row_gaps(logits)
    np.maximum(z, -np.finfo(np.float64).max, out=z)
    values, grads = _cross_entropy(z, t)
    return values[..., 0], grads


def _cross_entropy(z, t) -> tuple[np.ndarray, np.ndarray]:
    """:func:`cross_entropy`'s arithmetic without its checks, for logits ``z``
    already shifted by their row maxima, which it overwrites. The values come
    as an (..., 1) column; the training step runs this as it stands.
    """
    e = np.exp(z)
    s = e.sum(axis=-1, keepdims=True)
    np.subtract(np.log(s), z, out=z)
    z *= t
    e /= s
    e -= t
    return z.sum(axis=-1, keepdims=True), e


def kd_loss(
    student_logits,
    teacher_logits,
    temperature: float,
    distance: str = "kld",
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise distillation loss against the temperature-softened teacher.

    Only the teacher logits are divided by ``temperature``; the student is
    compared at temperature 1. With ``distance="ce"`` this is the plain
    cross-entropy against the soft labels; with ``distance="kld"`` each soft
    label's entropy is subtracted, which leaves the gradient unchanged.
    """
    d = str(distance).lower()
    if d not in ("kld", "ce"):
        raise InvalidParameterError(f"distance must be 'kld' or 'ce', got {distance!r}")
    soft = soft_label(teacher_logits, temperature)
    values, grads = cross_entropy(student_logits, soft)
    if d == "kld":
        values = values - entropy(soft)
    return values, grads


def multitask_loss(
    logits_by_head: Mapping[str, np.ndarray],
    targets_by_head: Mapping[str, np.ndarray],
    lam: float,
) -> tuple[float, dict[str, np.ndarray]]:
    """Batch-mean loss of a supervised head ``"sl"`` plus one head per teacher.

    ``value = lam * mean CE(sl) + (1 - lam) * mean_h mean CE(h)`` over the
    ``m`` other heads of ``targets_by_head``, each against its own target
    rows. ``dlogits[h]`` is the gradient of ``value`` w.r.t. head h's logits:
    the supervised head carries the factor ``lam / b`` only and each other
    head ``(1 - lam) / (m * b)`` only, for a batch of b rows. Averaging
    (rather than summing) over teachers keeps ``lam`` meaningful
    independently of the teacher count. Heads of ``logits_by_head`` without
    targets are not graded.
    """
    m = len(targets_by_head) - 1
    value, dlogits = None, {}
    for head in ["sl"] + [h for h in targets_by_head if h != "sl"]:
        for kind, by_head in (("logits", logits_by_head), ("targets", targets_by_head)):
            if head not in by_head:
                raise InvalidInputError(f"no {kind} for head {head!r}")
        values, grads = cross_entropy(logits_by_head[head], targets_by_head[head])
        value = _add_head(value, head, values.mean(), grads, lam, m, values.size)
        dlogits[head] = grads
    return float(value), dlogits


def _add_head(value, head: str, mean, grads: np.ndarray, lam, m: int, b: int):
    """:func:`multitask_loss`'s running ``value`` plus one head's term, for the
    head's batch-mean loss ``mean`` over b rows; ``"sl"`` comes first, with
    ``value`` None. Scales the head's gradient rows ``grads`` in place.
    """
    if head == "sl":
        grads *= lam / b
        return lam * mean
    grads *= (1.0 - lam) / (m * b)
    return value + (1.0 - lam) * mean / m


def grad_check(
    loss_fn: Callable[[np.ndarray], tuple[object, np.ndarray]],
    logits,
    h: float = 1e-5,
) -> float:
    """Max relative error of the analytic gradient vs central differences.

    ``loss_fn(x)`` returns ``(value, grad)``; a batch of row values counts as
    their sum, whose gradient is the stacked gradient rows. For each
    coordinate: ``|analytic - numeric| / max(1, |numeric|)`` with
    ``numeric = (f(x + h e_i) - f(x - h e_i)) / (2h)``.
    """
    x = np.asarray(logits, dtype=np.float64).copy()
    analytic = loss_fn(x)[1]
    worst = 0.0
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.flat[i] += h
        xm.flat[i] -= h
        numeric = float(np.sum(loss_fn(xp)[0]) - np.sum(loss_fn(xm)[0])) / (2.0 * h)
        err = abs(analytic.flat[i] - numeric) / max(1.0, abs(numeric))
        worst = max(worst, err)
    return worst
