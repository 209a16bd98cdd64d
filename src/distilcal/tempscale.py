"""Post-hoc temperature scaling and two-temperature score combination.

A single scalar temperature is fitted on held-out logits by minimizing the
mean negative log-likelihood; the classifier itself stays fixed. Separately,
two log-probability streams (e.g. acoustic and language scores of n-best
hypotheses) are combined with independent temperatures and re-ranked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .probs import _check_temperature, _row_gaps, as_logits, log_softmax_t
from .targets import _check_labels

#: Default search bounds; wide enough for any temperature seen in practice.
DEFAULT_BOUNDS = (0.05, 20.0)
#: The search on beta = 1/t stops once a Newton step would move beta by less
#: than this fraction of beta, or the bracket around the optimum is that narrow.
BETA_RTOL = 1e-10
#: Derivative passes one search may take; bisection alone needs about 50.
MAX_STEPS = 100


@dataclass(frozen=True)
class TemperatureFit:
    """Fitted temperature with its NLL and the unit-temperature NLL."""

    t_star: float
    nll_at_t_star: float
    nll_at_unit: float
    search_bounds: tuple[float, float]


def _logits_and_labels(logits, labels) -> tuple[np.ndarray, np.ndarray]:
    """``(N, K)`` finite logits and their N labels, each in ``[0, K)``."""
    logits = as_logits(logits)
    labels = _check_labels(labels, logits.shape[-1])
    if logits.shape != (len(labels), logits.shape[-1]):
        raise InvalidInputError(f"need one row of logits per label, got {logits.shape}")
    return logits, labels


def nll_at_temperature(logits: np.ndarray, labels: np.ndarray, t: float) -> float:
    """Mean negative log-likelihood of the labels under ``softmax_t(logits, t)``:
    the mean of ``-log_softmax_t(logits, t)`` at the labels. It is +inf where a
    label's gap to its row maximum passes the float range at t."""
    logits, labels = _logits_and_labels(logits, labels)
    picked = log_softmax_t(logits, t)[np.arange(len(labels)), labels]
    return float(0.0 - np.mean(picked))  # +0.0, not -0.0, for a perfect fit


def _slope_and_curvature(gaps: np.ndarray, picked: np.ndarray, beta: float) -> tuple[float, float]:
    """First and second derivative in beta of the mean NLL at t = 1/beta:
    ``mean(E_p[z] - z_y)`` and ``mean(Var_p[z])``, with p the softmax of
    ``beta * z``. ``gaps`` are the logits minus their row maximum (-inf where
    that passes the float range) and ``picked`` is each label's gap."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        e = np.exp(beta * gaps)
        p = e / e.sum(axis=1, keepdims=True)
        live = p > 0.0  # a class of probability 0 adds nothing, however far its gap
        mean = np.where(live, p * gaps, 0.0).sum(axis=1)
        dev = np.where(live, gaps - mean[:, None], 0.0)
        var = (p * dev * dev).sum(axis=1)
    return float(np.mean(mean - picked)), float(np.mean(var))


def fit_temperature(
    logits: np.ndarray,
    labels: np.ndarray,
    bounds: tuple[float, float] = DEFAULT_BOUNDS,
) -> TemperatureFit:
    """Fit the NLL-minimizing temperature on a validation set.

    Search strategy: the mean NLL is convex in beta = 1/t, so its slope in
    beta decides the side of the optimum. A slope of one sign over all of
    ``bounds`` returns that bound exactly; otherwise a Newton search on the
    slope, kept inside a shrinking bracket by bisection, finds its root. The
    NLL is evaluated at t=1 and at the found temperature only, and the lower
    of the two is returned (t=1 on a tie), so the fit is never worse than
    t=1 and a temperature whose NLL is not finite never wins.

    Args:
        logits: ``(N, K)`` finite validation logits.
        labels: the ``N`` true class indices.
        bounds: finite (t_min, t_max) with 0 < t_min <= 1 <= t_max; t=1
            must be inside so the no-rescaling fallback is always an option.
    """
    t_min, t_max = float(bounds[0]), float(bounds[1])
    if not (0.0 < t_min < t_max < math.inf):
        raise InvalidInputError(f"need 0 < t_min < t_max < inf, got {bounds!r}")
    if not (t_min <= 1.0 <= t_max):
        raise InvalidInputError(f"bounds must contain t=1, got {bounds!r}")
    logits, labels = _logits_and_labels(logits, labels)
    nll_unit = nll_at_temperature(logits, labels, 1.0)
    if not math.isfinite(nll_unit):
        raise InvalidInputError("the NLL at t=1 is not finite; logits are too large")

    gaps = _row_gaps(logits)
    picked = gaps[np.arange(len(labels)), labels]  # finite, as the NLL at t=1 is

    lo, hi = 1.0 / t_max, 1.0 / t_min
    if _slope_and_curvature(gaps, picked, lo)[0] >= 0.0:
        t = t_max
    elif _slope_and_curvature(gaps, picked, hi)[0] <= 0.0:
        t = t_min
    else:
        beta = 1.0
        for _ in range(MAX_STEPS):
            slope, curvature = _slope_and_curvature(gaps, picked, beta)
            if slope < 0.0:
                lo = beta
            elif slope > 0.0:
                hi = beta
            else:
                break
            step = slope / curvature if curvature > 0.0 else math.inf
            if abs(step) <= BETA_RTOL * beta:
                break
            beta = beta - step if lo < beta - step < hi else 0.5 * (lo + hi)
            if hi - lo <= BETA_RTOL * hi:
                break
        t = min(max(1.0 / beta, t_min), t_max)

    nll_t = nll_unit if t == 1.0 else nll_at_temperature(logits, labels, t)
    if not nll_t < nll_unit:  # also when the NLL at t overflows
        t, nll_t = 1.0, nll_unit
    return TemperatureFit(
        t_star=t,
        nll_at_t_star=nll_t,
        nll_at_unit=nll_unit,
        search_bounds=(t_min, t_max),
    )


def combine_scores(
    am_logp, lm_logp, t1: float, t2: float, offsets=None
) -> tuple[np.ndarray, np.ndarray]:
    """Rank each utterance's hypotheses by ``am_logp / t1 + lm_logp / t2``.

    Takes the ``(n,)`` acoustic and language scores in input order, where
    utterance u owns rows ``offsets[u]:offsets[u + 1]`` (no ``offsets``: all
    rows are one utterance), and returns ``(order, scores)``: the combined
    scores in input order, and the row indices that sort each utterance's
    slice of them in descending order (ties keep input order), utterance
    after utterance.
    """
    am = np.asarray(am_logp, dtype=np.float64)
    lm = np.asarray(lm_logp, dtype=np.float64)
    if am.ndim != 1 or am.shape != lm.shape or len(am) == 0:
        raise InvalidInputError(
            f"need two non-empty score vectors of one length, got shapes {am.shape}, {lm.shape}"
        )
    edges = np.asarray([0, len(am)] if offsets is None else offsets)
    if (
        edges.ndim != 1 or len(edges) < 2 or edges[0] != 0 or edges[-1] != len(am)
        or np.any(np.diff(edges) <= 0)
    ):
        raise InvalidInputError(
            f"offsets must rise from 0 to {len(am)}, one non-empty utterance each"
        )
    t1, t2 = _check_temperature(t1), _check_temperature(t2)
    with np.errstate(over="ignore", invalid="ignore"):
        scores = am / t1 + lm / t2
    if not np.all(np.isfinite(scores)):  # a non-finite input, or an overflow
        raise InvalidInputError("combined hypothesis scores must be finite")
    utterance = np.repeat(np.arange(len(edges) - 1), np.diff(edges))
    return np.lexsort((-scores, utterance)), scores
