"""Top-N expected calibration error with confidence-sorted equal-count bins.

Predictions arrive batch-first: an ``(N, K)`` probability matrix plus ``N``
integer labels. A row's rank-N confidence is its N-th largest class
probability and it counts as correct at rank N when that N-th best class is
the true label. Rows are sorted by rank-N confidence and split into
equal-count bins (quantile binning); the calibration error is the
count-weighted mean absolute gap between per-bin accuracy and per-bin
confidence.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, InvalidParameterError
from .probs import top_n
from .targets import _check_labels


class ReliabilityReport(NamedTuple):
    """One rank's bins as ``(B,)`` columns in bin order (row count, mean
    confidence, mean accuracy; the gap is ``mean_acc - mean_conf``) and the
    resulting calibration error."""

    rank: int
    counts: np.ndarray
    mean_conf: np.ndarray
    mean_acc: np.ndarray
    ece: float
    n_total: int


def rank_confidence_correct(probs, labels, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row rank-N confidence and correctness indicator (1.0 or 0.0)."""
    idx, conf = top_n(probs, rank)
    y = _check_labels(labels, np.shape(probs)[-1])
    if y.shape != idx.shape:
        raise InvalidInputError(f"need one label per row, got {len(y)} for {len(idx)} rows")
    return conf, (idx == y).astype(np.float64)


def _bins(conf: np.ndarray, num_bins: int) -> list[np.ndarray]:
    """Row indices, stably sorted by ascending ``conf``, cut into ``num_bins``
    equal-count bins, the first ``n % num_bins`` one row larger; a bin that
    would be empty (``num_bins > n``) is left out."""
    if not isinstance(num_bins, (int, np.integer)) or num_bins < 1:
        raise InvalidParameterError(f"num_bins must be >= 1, got {num_bins!r}")
    order = np.argsort(conf, kind="stable")
    base, rem = divmod(len(conf), num_bins)
    sizes = [base + (1 if i < rem else 0) for i in range(min(num_bins, len(conf)))]
    return np.split(order, np.cumsum(sizes)[:-1])


def ece(probs, labels, rank: int, num_bins: int, group=None) -> ReliabilityReport:
    """Rank-N expected calibration error over confidence-sorted bins.

    ``ece = sum_i (|B_i| / n) * |acc(B_i) - conf(B_i)|`` over the bins of
    :func:`_bins`. With ``group``, each run of ``group`` consecutive rows (the
    last may be shorter) is binned on its own, and the report holds every
    run's bins in row order, pooled over all ``n`` rows.
    """
    conf, correct = rank_confidence_correct(probs, labels, rank)
    n = len(conf)
    if group is not None and (not isinstance(group, (int, np.integer)) or group < 1):
        raise InvalidParameterError(f"group must be None or >= 1, got {group!r}")
    size = n if group is None else group
    stats = []
    total = 0.0
    for start in range(0, n, size):
        for idxs in _bins(conf[start : start + size], num_bins):
            idxs += start
            c = float(conf[idxs].mean())
            a = float(correct[idxs].mean())
            stats.append((len(idxs), c, a))
            total += (len(idxs) / n) * abs(a - c)
    counts, confs, accs = map(np.array, zip(*stats))
    return ReliabilityReport(rank, counts, confs, accs, total, n)


_FMT6 = "%.6f"


def _fmt6(x: float) -> str:
    return _FMT6 % (float(x) + 0.0)  # + 0.0 turns -0.0 into 0.0: no "-0.000000"


#: Entry i packs the three ASCII digits of i, as ``"%03d" % i`` spells them,
#: little-endian: the hundreds digit is the low byte.
_DIGITS3 = (np.arange(1000)[:, None] // [100, 10, 1] % 10 + ord("0")) @ [1, 1 << 8, 1 << 16]
#: A cell ``d.dddddd`` read as a little-endian int64 is ``d + ord("0")``
#: plus ``_POINT``, plus ``_HIGH3`` of the first three decimals and ``_LOW3``
#: of the last three; its ninth byte is the separator.
_POINT = ord("0") + (ord(".") << 8)
_HIGH3, _LOW3 = _DIGITS3 << 16, _DIGITS3 << 40
_CELL = np.dtype([("digits", "<i8"), ("end", "u1")])
#: Rows formatted at a time by :func:`_fmt6_rows`, so that its temporaries stay cache-sized.
_FMT_ROWS = 1024


def _fmt6_rows(mat: np.ndarray) -> list[str]:
    """Each row of a 2-D matrix as comma-joined :func:`_fmt6` entries.

    When every entry lies in ``[0, 10)``, the entries are printed from the
    integers ``q = rint(x * 1e6)``, ``_FMT_ROWS`` rows at a time: each cell
    is one int64 of digit bytes from a packed table and a separator byte.
    ``%.6f`` prints the exact ``x * 1e6`` rounded to an integer, and the
    float product is within 1e-9 of it, so ``q`` is that integer unless the
    product lies within 1e-6 of a half-integer. A row holding such an entry
    (exact ties too) or one that rounds up to 10.000000 is printed with
    ``%`` instead, as is any other matrix.
    """
    row_fmt = ",".join([_FMT6] * mat.shape[1])
    with np.errstate(invalid="ignore"):
        fast = mat.size and ((mat >= 0.0) & (mat < 10.0)).all()
    if not fast:
        return [row_fmt % tuple(row) for row in (mat + 0.0).tolist()]  # + 0.0: no "-0.000000"
    cells = np.empty((min(len(mat), _FMT_ROWS), mat.shape[1]), dtype=_CELL)
    cells["end"] = ord(",")
    cells["end"][:, -1] = ord("\n")
    rows = []
    for lo in range(0, len(mat), _FMT_ROWS):
        block = mat[lo : lo + _FMT_ROWS]
        scaled = block * 1e6
        q = np.rint(scaled)
        scaled -= q
        slow = ((np.abs(scaled, out=scaled) > 0.5 - 1e-6) | (q >= 1e7)).any(axis=1)
        thousands, low = np.divmod(q.astype(np.int64), 1000)
        units, high = np.divmod(thousands, 1000)
        out = cells[: len(block)]
        out["digits"] = units + _POINT | _HIGH3[high] | _LOW3[low]
        block_rows = str(out, "ascii").split("\n")
        block_rows.pop()
        for i in np.flatnonzero(slow).tolist():
            block_rows[i] = row_fmt % tuple((block[i] + 0.0).tolist())
        rows += block_rows
    return rows


def reliability_csv(report: ReliabilityReport) -> str:
    """Render a report as CSV: header plus one 6-decimal row per bin."""
    conf, acc = report.mean_conf, report.mean_acc
    values = _fmt6_rows(np.column_stack([conf, acc, acc - conf]))
    rows = [
        f"{report.rank},{i},{count},{v}"
        for i, (count, v) in enumerate(zip(report.counts.tolist(), values))
    ]
    return "\n".join(["rank,bin,count,mean_conf,mean_acc,gap", *rows]) + "\n"
