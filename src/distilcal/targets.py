"""Supervision distributions over a batch: one-hot, smoothed, softened, interpolated.

Every function returns one ``(N, K)`` row per sample, built from ``labels
(N,)`` or from ``(N, K)`` teacher logits; a single target is a batch of one.
Rows are normalized distributions rather than logits, so the simplex
invariant can be checked at every module boundary.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, InvalidParameterError
from .probs import as_probs, softmax_t


def _check_labels(labels, k: int) -> np.ndarray:
    """``labels`` as a non-empty 1-D integer array with every entry in ``[0, k)``."""
    if k < 2:
        raise InvalidParameterError(f"need at least 2 classes, got {k}")
    y = np.asarray(labels)
    if y.ndim != 1 or y.size == 0 or not np.issubdtype(y.dtype, np.integer):
        raise InvalidInputError(f"labels must be a non-empty 1-D integer array, got {y.shape}")
    if y.min() < 0 or y.max() >= k:
        raise InvalidInputError(f"labels must lie in [0, {k}), got [{y.min()}, {y.max()}]")
    return y


def one_hot(labels, k: int) -> np.ndarray:
    """Rows with all mass on each sample's true class."""
    y = _check_labels(labels, k)
    rows = np.zeros((y.shape[0], k))
    rows[np.arange(y.shape[0]), y] = 1.0
    return rows


def smooth_label(labels, k: int, epsilon: float) -> np.ndarray:
    """Smoothed rows: the true class gets ``1 - eps + eps/k``, the others ``eps/k``.

    ``epsilon`` 0 keeps the one-hot rows and 1 gives uniform ones.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise InvalidParameterError(f"epsilon must be in [0, 1], got {epsilon}")
    y = _check_labels(labels, k)
    rows = np.full((y.shape[0], k), epsilon / k)
    rows[np.arange(y.shape[0]), y] += 1.0 - epsilon
    return rows


def soft_label(teacher_logits, t: float) -> np.ndarray:
    """Teacher logits softened into distributions at temperature ``t``."""
    return softmax_t(teacher_logits, t)


def interpolate_target(labels, soft, lam: float) -> np.ndarray:
    """Convex combination ``lam * one_hot(labels) + (1 - lam) * soft``, row by row."""
    if not 0.0 <= lam <= 1.0:
        raise InvalidParameterError(f"lam must be in [0, 1], got {lam}")
    s = as_probs(soft)
    if s.ndim != 2 or s.shape[:1] != np.shape(labels)[:1]:
        raise InvalidInputError(f"soft rows {s.shape} do not match labels {np.shape(labels)}")
    return lam * one_hot(labels, s.shape[1]) + (1.0 - lam) * s
