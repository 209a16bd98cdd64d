"""Numerically stable probability and logit primitives.

Everything here works in float64. A "logit vector" is an unnormalized score
array over K >= 2 classes; a "prob vector" lives on the probability simplex
(entries in [0, 1], sum within ``SIMPLEX_ATOL`` of 1). The class axis is the
last one, so the softmax helpers also accept batched 2-D inputs.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, InvalidParameterError

#: Absolute tolerance on ``sum(p) == 1`` for a valid probability vector.
SIMPLEX_ATOL = 1e-9


def _as_vectors(values, kind: str, plural: str) -> np.ndarray:
    """Coerce to a finite float64 array of ``kind`` vectors over K >= 2 classes."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0 or arr.shape[-1] < 2:
        raise InvalidInputError(
            f"{kind} vectors need at least 2 classes, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{plural} must be finite")
    return arr


def as_logits(values) -> np.ndarray:
    """Coerce to a float64 logit array, validating finiteness and K >= 2."""
    return _as_vectors(values, "logit", "logits")


def as_probs(values) -> np.ndarray:
    """Coerce to a float64 probability array on the simplex.

    Raises:
        InvalidInputError: if any entry falls outside [0, 1] or any vector's
            sum deviates from 1 by more than ``SIMPLEX_ATOL``.
    """
    arr = _as_vectors(values, "probability", "probabilities")
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise InvalidInputError("probabilities must lie in [0, 1]")
    sums = arr.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > SIMPLEX_ATOL):
        worst = float(np.max(np.abs(sums - 1.0)))
        raise InvalidInputError(
            f"probability vector sums deviate from 1 by up to {worst:.3e}"
        )
    return arr


def _check_temperature(t: float) -> float:
    t = float(t)
    if not np.isfinite(t) or t <= 0.0:
        raise InvalidParameterError(f"temperature must be positive and finite, got {t!r}")
    return t


def _row_gaps(logits: np.ndarray, t: float = 1.0) -> np.ndarray:
    """Each row of ``logits`` minus its maximum, divided by ``t``; a gap that
    passes the float range, before or after the division, is -inf."""
    with np.errstate(over="ignore"):
        gaps = logits - logits.max(axis=-1, keepdims=True)
        gaps /= t
    return gaps


def softmax_t(logits, t: float = 1.0) -> np.ndarray:
    """Temperature softmax over the last axis.

    Computes ``exp(x_i / t) / sum_j exp(x_j / t)`` with the per-vector maximum
    subtracted first, so no intermediate overflows for any finite input.
    ``t=1`` is the plain softmax; large ``t`` flattens toward uniform.
    """
    e = np.exp(_row_gaps(as_logits(logits), _check_temperature(t)))
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax_t(logits, t: float = 1.0) -> np.ndarray:
    """Log of ``softmax_t`` computed without leaving the log domain.

    ``exp(log_softmax_t(x, t))`` agrees with ``softmax_t(x, t)`` to ~1e-16
    for any finite input.
    """
    z = _row_gaps(as_logits(logits), _check_temperature(t))
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def top_n(probs, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's class index and value of its n-th largest probability (1-based rank).

    Takes a non-empty ``(N, K)`` matrix (a single vector is a batch of one)
    and returns ``(idx, conf)``, both of shape ``(N,)``. Ties are broken
    toward the lower class index, so ranks 1..K always enumerate a
    permutation of the classes with non-increasing confidences.
    """
    p = np.atleast_2d(as_probs(probs))
    if p.ndim != 2 or p.shape[0] == 0:
        raise InvalidInputError(f"need a non-empty (N, K) probability matrix, got shape {p.shape}")
    k = p.shape[1]
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise InvalidParameterError(f"rank must be an integer, got {n!r}")
    if not 1 <= n <= k:
        raise InvalidParameterError(f"rank must be in [1, {k}], got {n}")
    # Stable argsort of the negated rows keeps original order among ties,
    # which is exactly the lower-index-first rule.
    idx = np.argsort(-p, axis=1, kind="stable")[:, n - 1]
    return idx, p[np.arange(len(p)), idx]
