"""Independent reference implementations used to cross-check the library.

The calibration and temperature oracles are deliberately written in plain
Python (lists, ``sorted``, sequential sums) so they share no code path with
the numpy implementations they verify. ``alignments_of`` builds the array
form of an alignment from plain token lists. The reference readers and the
reference trainer at the end are earlier versions kept as they were, for
bit-identity checks.
"""

from __future__ import annotations

import json
import math
from typing import Mapping, Optional

import numpy as np

from distilcal.alignment import Alignments
from distilcal.errors import ConfigurationError, FileFormatError, InvalidInputError
from distilcal.fileio import _lines
from distilcal.probs import as_logits, log_softmax_t, softmax_t


def alignments_of(frames_by_utt: Mapping[str, tuple]) -> Alignments:
    """``{utt: frame tokens}`` as one code array, codes in order of first use."""
    tokens = [t for frames in frames_by_utt.values() for t in frames]
    vocab = list(dict.fromkeys(tokens))
    offsets = np.cumsum([0, *map(len, frames_by_utt.values())])
    codes = np.array([vocab.index(t) for t in tokens], dtype=np.intp)
    return Alignments(list(frames_by_utt), offsets, vocab, codes)


def brute_force_ece(prob_rows, labels, rank: int, num_bins: int) -> float:
    """Naive sort + equal-count split + bin-weighted |acc - conf|."""
    n = len(prob_rows)
    conf: list[float] = []
    correct: list[float] = []
    for probs, label in zip(prob_rows, labels):
        by_rank = sorted(range(len(probs)), key=lambda i: (-probs[i], i))
        cls = by_rank[rank - 1]
        conf.append(float(probs[cls]))
        correct.append(1.0 if cls == label else 0.0)
    order = sorted(range(n), key=lambda i: conf[i])  # Python sort is stable
    base, rem = divmod(n, num_bins)
    total = 0.0
    start = 0
    for b in range(num_bins):
        size = base + (1 if b < rem else 0)
        if size == 0:
            continue
        idxs = order[start : start + size]
        start += size
        acc = sum(correct[i] for i in idxs) / size
        avg_conf = sum(conf[i] for i in idxs) / size
        total += (size / n) * abs(acc - avg_conf)
    return total


def brute_force_bin_sizes(n: int, num_bins: int) -> list[int]:
    """Equal-count split sizes, remainder given to the earliest bins."""
    base, rem = divmod(n, num_bins)
    sizes = [base + (1 if b < rem else 0) for b in range(num_bins)]
    return [s for s in sizes if s > 0]


def dense_grid_temperature(logit_rows, labels, t_min: float, t_max: float, points: int = 10000):
    """Argmin of the mean NLL over a dense log-spaced temperature grid."""
    best_t, best_nll = None, math.inf
    log_lo, log_hi = math.log(t_min), math.log(t_max)
    for j in range(points):
        t = math.exp(log_lo + (log_hi - log_lo) * j / (points - 1))
        total = 0.0
        for row, label in zip(logit_rows, labels):
            z = [v / t for v in row]
            m = max(z)
            lse = m + math.log(sum(math.exp(v - m) for v in z))
            total += lse - z[label]
        nll = total / len(labels)
        if nll < best_nll:
            best_t, best_nll = t, nll
    return best_t, best_nll


# ---------------------------------------------------------------- reference readers
#
# The JSON-lines readers as they stood before whole-file checks: one record
# at a time, each value converted by ``float``, hypotheses grouped in a dict.
# The posterior reader checks one line at a time in its documented order.
# They share only ``fileio._lines``, which decides what a line is.

_NUMBER_TYPES = (int, float)
_HYPOTHESIS_KEYS = {"utt", "id", "am_logp", "lm_logp"}
_FIELD_BREAKS = frozenset("\t\r\n")  # would split an id or utt across output fields


def _json_lines(path):
    """``(line_no, value)`` per non-blank line, each parsed as one JSON value."""
    for line_no, line in _lines(path):
        try:
            yield line_no, json.loads(line)
        except ValueError as e:  # JSONDecodeError, or an integer over the digit limit
            raise FileFormatError(path, line_no, f"bad JSON: {getattr(e, 'msg', e)}") from None


def _finite_floats(values) -> list[float] | None:
    """``values`` as floats, or None when one is not finite as a float."""
    try:
        floats = [float(v) for v in values]
    except OverflowError:  # an integer beyond the float range
        return None
    return floats if all(map(math.isfinite, floats)) else None


def ref_read_prediction_file(path) -> tuple[np.ndarray, np.ndarray]:
    """Logit matrix and label vector from a JSON-lines prediction file."""
    logits: list[list[float]] = []
    labels: list[int] = []
    width = None
    for line_no, obj in _json_lines(path):
        if not isinstance(obj, dict) or "logits" not in obj or "label" not in obj:
            raise FileFormatError(path, line_no, "need keys 'logits' and 'label'")
        row = obj["logits"]
        if (
            not isinstance(row, list)
            or len(row) < 2
            or not all(type(v) in _NUMBER_TYPES for v in row)
        ):
            raise FileFormatError(path, line_no, "'logits' must list >= 2 numbers")
        values = _finite_floats(row)
        if values is None:
            raise FileFormatError(path, line_no, "logits must be finite")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise FileFormatError(
                path, line_no, f"expected {width} logits, got {len(row)}"
            )
        label = obj["label"]
        if not isinstance(label, int) or isinstance(label, bool):
            raise FileFormatError(path, line_no, "'label' must be an integer")
        if not 0 <= label < len(row):
            raise FileFormatError(
                path, line_no, f"label {label} out of range for {len(row)} classes"
            )
        logits.append(values)
        labels.append(label)
    if not logits:
        raise FileFormatError(path, 0, "no prediction records found")
    return np.array(logits), np.array(labels)


def ref_read_hypothesis_file(path) -> dict[str, tuple[list[str], np.ndarray]]:
    """Per utterance, its hypothesis ids and ``(n, 2)`` ``[am_logp, lm_logp]``
    scores, both levels in file order."""
    groups: dict[str, tuple[list[str], list[list[float]]]] = {}
    for line_no, obj in _json_lines(path):
        if not isinstance(obj, dict) or not _HYPOTHESIS_KEYS <= obj.keys():
            raise FileFormatError(path, line_no, "need keys 'utt', 'id', 'am_logp' and 'lm_logp'")
        utt, hyp_id = obj["utt"], obj["id"]
        for key, text in (("utt", utt), ("id", hyp_id)):
            if not isinstance(text, str) or not text or not _FIELD_BREAKS.isdisjoint(text):
                raise FileFormatError(
                    path, line_no, f"{key!r} must be a non-empty string without tabs or newlines"
                )
        pair = (obj["am_logp"], obj["lm_logp"])
        scores = _finite_floats(pair) if all(type(v) in _NUMBER_TYPES for v in pair) else None
        if scores is None:
            raise FileFormatError(path, line_no, "'am_logp' and 'lm_logp' must be finite numbers")
        ids, rows = groups.setdefault(utt, ([], []))
        ids.append(hyp_id)
        rows.append(scores)
    if not groups:
        raise FileFormatError(path, 0, "no hypotheses found")
    return {utt: (ids, np.array(rows)) for utt, (ids, rows) in groups.items()}


def ref_read_posterior_file(path) -> dict[str, np.ndarray]:
    """Per-utterance posterior matrices, rows ordered by token index. Each line
    is checked for its columns, token index, numbers, range, width, sum, then
    duplicate index, and each row is divided by its own sum."""
    groups: dict[str, dict[int, np.ndarray]] = {}
    width = None
    for line_no, line in _lines(path):
        parts = line.split("\t")
        if len(parts) != 3:
            raise FileFormatError(path, line_no, "expected 'utt<TAB>token-index<TAB>p0 p1 ...'")
        try:
            if set(parts[1]) - set("-0123456789"):  # no "+0", " 0", "1_0" or Arabic-Indic digits
                raise ValueError
            index = int(parts[1])
        except ValueError:
            raise FileFormatError(path, line_no, f"bad token index {parts[1]!r}") from None
        if index < 0:
            raise FileFormatError(path, line_no, f"negative token index {index}")
        try:
            if not parts[2].isascii() or "_" in parts[2]:  # no "0.2_5" or Arabic-Indic digits
                raise ValueError
            values = [float(text) for text in parts[2].split()]
        except ValueError:
            raise FileFormatError(path, line_no, "probabilities must be numbers") from None
        if len(values) < 2 or not all(math.isfinite(v) and v >= 0.0 for v in values):
            raise FileFormatError(path, line_no, "need >= 2 finite non-negative probabilities")
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise FileFormatError(
                path, line_no, f"expected {width} probabilities, got {len(values)}"
            )
        vec = np.array(values)
        with np.errstate(over="ignore"):
            total = vec.sum()
        if abs(total - 1.0) > 1e-6:
            raise FileFormatError(path, line_no, f"probabilities sum to {total:.8f}, not 1")
        per_utt = groups.setdefault(parts[0].strip(), {})
        if index in per_utt:
            raise FileFormatError(path, line_no, f"duplicate token index {index}")
        per_utt[index] = vec / total
    if not groups:
        raise FileFormatError(path, 0, "no posteriors found")
    out: dict[str, np.ndarray] = {}
    for utt, by_index in groups.items():
        if set(by_index) != set(range(len(by_index))):
            raise FileFormatError(path, 0, f"utterance {utt!r} has gaps in its token indices")
        out[utt] = np.stack([by_index[i] for i in range(len(by_index))])
    return out


# ---------------------------------------------------------------- reference trainer
#
# The per-step trainer as it stood before teachers were softened once per
# ``train`` call: every step re-checks the teachers, rebuilds its targets,
# softens its teacher rows and finds each gradient slot by name. It is kept
# verbatim so that the lean trainer can be held to bit-identical parameters
# and loss curves.


def ref_batch_cross_entropy(student_logits, targets):
    logits = as_logits(student_logits)
    t = np.asarray(targets, dtype=np.float64)
    if logits.shape != t.shape:
        raise InvalidInputError(
            f"logits shape {logits.shape} does not match targets shape {t.shape}"
        )
    values = -(t * log_softmax_t(logits)).sum(axis=-1)
    grads = softmax_t(logits) - t
    return values, grads


def ref_check_teachers(cfg, teacher_logits: Optional[Mapping[str, np.ndarray]]):
    if cfg.method in ("baseline", "label_smooth"):
        return {}
    if not teacher_logits:
        raise ConfigurationError(f"method {cfg.method!r} requires teacher logits")
    if cfg.method == "lst" and "fine" not in teacher_logits:
        raise ConfigurationError("lst requires a 'fine' teacher stream")
    if cfg.method == "lst":
        return {"fine": np.asarray(teacher_logits["fine"], dtype=np.float64)}
    return {k: np.asarray(v, dtype=np.float64) for k, v in sorted(teacher_logits.items())}


def ref_network_loss_and_grad(net, inputs, labels, cfg, teacher_logits=None):
    teachers = ref_check_teachers(cfg, teacher_logits)
    x = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(labels)
    hidden, logits = net.forward_batch(x)
    b = x.shape[0]
    rows = np.arange(b)
    k = net.head_dims["sl"]

    dlogits: dict[str, np.ndarray] = {}
    if cfg.method in ("baseline", "label_smooth", "lst"):
        if cfg.method == "baseline":
            target = np.zeros((b, k))
            target[rows, y] = 1.0
        elif cfg.method == "label_smooth":
            target = np.full((b, k), cfg.epsilon / k)
            target[rows, y] += 1.0 - cfg.epsilon
        else:
            soft = softmax_t(teachers["fine"], cfg.temperature)
            target = np.zeros((b, k))
            target[rows, y] = 1.0
            target = cfg.lam * target + (1.0 - cfg.lam) * soft
        values, grads = ref_batch_cross_entropy(logits["sl"], target)
        value = float(values.mean())
        dlogits["sl"] = grads / b
    else:  # multitask
        onehot = np.zeros((b, k))
        onehot[rows, y] = 1.0
        sl_values, sl_grads = ref_batch_cross_entropy(logits["sl"], onehot)
        value = cfg.lam * float(sl_values.mean())
        dlogits["sl"] = (cfg.lam / b) * sl_grads
        m = len(teachers)
        for tid, t_logits in teachers.items():
            head = f"kd_{tid}"
            if head not in net.head_dims:
                raise ConfigurationError(f"network has no head {head!r} for teacher {tid!r}")
            soft = softmax_t(t_logits, cfg.temperature)
            kd_values, kd_grads = ref_batch_cross_entropy(logits[head], soft)
            value += (1.0 - cfg.lam) * float(kd_values.mean()) / m
            dlogits[head] = ((1.0 - cfg.lam) / (m * b)) * kd_grads

    grad = np.zeros_like(net.params)

    def gview(name: str) -> np.ndarray:
        # The one adapted line: the network records flat slots, not offsets.
        return grad[net._slots[name]].reshape(net.view(name).shape)

    d_hidden = np.zeros_like(hidden)
    for head in sorted(dlogits):
        dl = dlogits[head]
        gview(f"{head}.W")[...] = dl.T @ hidden
        gview(f"{head}.b")[...] = dl.sum(axis=0)
        d_hidden += dl @ net.view(f"{head}.W")
    d_pre = d_hidden * (1.0 - hidden**2)
    gview("trunk.W")[...] = d_pre.T @ x
    gview("trunk.b")[...] = d_pre.sum(axis=0)
    return value, grad


def ref_train(net, inputs, labels, cfg, teacher_logits=None):
    teachers = ref_check_teachers(cfg, teacher_logits)
    x = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(labels)
    n = x.shape[0]
    for tid, t_logits in teachers.items():
        if t_logits.shape[0] != n:
            raise ConfigurationError(
                f"teacher {tid!r} provides {t_logits.shape[0]} rows for {n} samples"
            )
    rng = np.random.default_rng(cfg.seed)
    curve: list[float] = []
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            batch_teachers = {tid: t[idx] for tid, t in teachers.items()}
            value, grad = ref_network_loss_and_grad(net, x[idx], y[idx], cfg, batch_teachers)
            net.params -= cfg.learning_rate * grad
            epoch_loss += value * len(idx)
        curve.append(epoch_loss / n)
    return net, curve
