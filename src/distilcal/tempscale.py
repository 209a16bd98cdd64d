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

from .errors import InvalidInputError, InvalidParameterError
from .probs import as_logits
from .targets import _check_labels

#: Default search bounds; wide enough for any temperature seen in practice.
DEFAULT_BOUNDS = (0.05, 20.0)
#: Size of the coarse log-spaced search grid (always contains t = 1).
GRID_POINTS = 64
#: Golden-section refinement stops once the bracket is narrower than this.
REFINE_TOL = 1e-4

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class TemperatureFit:
    """Fitted temperature with its NLL and the unit-temperature NLL."""

    t_star: float
    nll_at_t_star: float
    nll_at_unit: float
    search_bounds: tuple[float, float]


def nll_at_temperature(logits: np.ndarray, labels: np.ndarray, t: float) -> float:
    """Mean negative log-likelihood of the labels under logits / t; not finite,
    without a warning, where logits near the float limit overflow."""
    if t <= 0.0:
        raise InvalidParameterError(f"temperature must be positive, got {t}")
    with np.errstate(over="ignore", invalid="ignore"):
        z = logits / t
        z = z - z.max(axis=-1, keepdims=True)
        lse = np.log(np.exp(z).sum(axis=-1))
        picked = z[np.arange(len(labels)), labels]
        return float(np.mean(lse - picked))


def _search_grid(t_min: float, t_max: float) -> np.ndarray:
    pts = np.geomspace(t_min, t_max, GRID_POINTS)
    # Snap the point nearest to t=1 (in log space) onto exactly 1.0; the grid
    # stays sorted because 1 lies strictly between that point's neighbours.
    k = int(np.argmin(np.abs(np.log(pts))))
    pts[k] = 1.0
    return pts


def fit_temperature(
    logits: np.ndarray,
    labels: np.ndarray,
    bounds: tuple[float, float] = DEFAULT_BOUNDS,
) -> TemperatureFit:
    """Fit the NLL-minimizing temperature on a validation set.

    Search strategy: evaluate a 64-point log-spaced grid over ``bounds``
    (with t=1 snapped onto the grid), then refine around the best grid point
    with golden-section search until the bracket is narrower than 1e-4. The
    best temperature evaluated anywhere is returned, so the fit is never
    worse than t=1 and lands exactly on a bound when the NLL is monotone.

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
    logits = as_logits(logits)
    labels = _check_labels(labels, logits.shape[-1])
    if logits.shape != (len(labels), logits.shape[-1]):
        raise InvalidInputError(f"need one row of logits per label, got {logits.shape}")

    def nll(t: float) -> float:
        value = nll_at_temperature(logits, labels, t)
        return value if math.isfinite(value) else math.inf  # never wins the search

    grid = _search_grid(t_min, t_max)
    values = np.array([nll(t) for t in grid])
    nll_unit = float(values[grid == 1.0][0])
    if nll_unit == math.inf:
        raise InvalidInputError("the NLL at t=1 is not finite; logits are too large")
    k = int(np.argmin(values))
    best_t, best_nll = float(grid[k]), float(values[k])

    # Golden-section refinement inside the bracket around the best grid point.
    a = float(grid[max(k - 1, 0)])
    b = float(grid[min(k + 1, len(grid) - 1)])
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = nll(c), nll(d)
    while (b - a) > REFINE_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = nll(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = nll(d)
    for t, v in ((c, fc), (d, fd)):
        if v < best_nll:
            best_t, best_nll = float(t), float(v)
    return TemperatureFit(
        t_star=best_t,
        nll_at_t_star=best_nll,
        nll_at_unit=nll_unit,
        search_bounds=(t_min, t_max),
    )


def combine_scores(am_logp, lm_logp, t1: float, t2: float) -> tuple[np.ndarray, np.ndarray]:
    """Rank one utterance's hypotheses by ``am_logp / t1 + lm_logp / t2``.

    Takes the ``(n,)`` acoustic and language scores in input order and
    returns ``(order, scores)``: the combined scores in input order, and the
    indices that sort them in descending order (ties keep input order).
    """
    am = np.asarray(am_logp, dtype=np.float64)
    lm = np.asarray(lm_logp, dtype=np.float64)
    if am.ndim != 1 or am.shape != lm.shape or len(am) == 0:
        raise InvalidInputError(
            f"need two non-empty score vectors of one length, got shapes {am.shape}, {lm.shape}"
        )
    if not all(math.isfinite(t) and t > 0.0 for t in (t1, t2)):
        raise InvalidParameterError(
            f"temperatures must be positive and finite, got {t1}, {t2}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        scores = am / t1 + lm / t2
    if not np.all(np.isfinite(scores)):  # a non-finite input, or an overflow
        raise InvalidInputError("combined hypothesis scores must be finite")
    return np.argsort(-scores, kind="stable"), scores
