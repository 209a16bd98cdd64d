"""Line-oriented file formats used by the command-line tools.

Formats (one record per line throughout):

* prediction file: JSON objects ``{"logits": [...], "label": int}``;
* hypothesis file: JSON objects
  ``{"utt": str, "id": str, "am_logp": float, "lm_logp": float}``, where
  ``utt`` and ``id`` are non-empty and hold no TAB, CR or LF;
* alignment file: ``utt-id<TAB>tok tok tok ...``, the id without whitespace;
* unit-map file: TSV lines ``fine<TAB>coarse``;
* posterior file: ``utt-id<TAB>token-index<TAB>p0 p1 ... pK-1``.

Only LF ends a line (a CR before it is dropped), and blank lines are
skipped but counted. Parse errors raise :class:`FileFormatError` carrying
the offending line number. The two JSON-lines readers parse each line on its
own, then check and convert the whole file at once; only a file that fails
that check is walked record by record, and that walk alone decides which
line and message are reported. Posterior vectors may be off the simplex by up to 1e-6
(6-decimal files round); they are renormalized on load, anything worse is
rejected.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .alignment import Alignments
from .errors import FileFormatError

#: Posterior rows may miss the simplex by this much before being rejected.
POSTERIOR_SUM_TOL = 1e-6

#: ``type(v)`` of a JSON number; JSON true/false parse to bool, an int subclass.
_NUMBER_TYPES = frozenset({int, float})
_HYPOTHESIS_KEYS = {"utt", "id", "am_logp", "lm_logp"}
_FIELD_BREAKS = frozenset("\t\r\n")  # would split an id or utt across output fields
#: JSON lines parsed at a time by the whole-file checks.
_CHUNK = 4096


def _lines(path) -> list[tuple[int, str]]:
    """``(line_no, line)`` per non-blank line. Only LF ends a line, and one CR
    at a line's end is dropped; a form feed or U+2028 stays inside its line."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        line_no = data.count(b"\n", 0, e.start) + 1
        raise FileFormatError(path, line_no, f"not valid UTF-8 (byte 0x{data[e.start]:02x})") from None
    return [
        (i, line.removesuffix("\r"))
        for i, line in enumerate(text.split("\n"), start=1)
        if line.strip()
    ]


def _json_columns(lines, keys: tuple[str, ...]) -> list[list] | None:
    """Per key, its value on every line, or None when a line is not a JSON
    object holding every key. Lines are parsed a chunk at a time, so that
    the parsed objects of the whole file never live at once."""
    columns: list[list] = [[] for _ in keys]
    for start in range(0, len(lines), _CHUNK):
        try:
            records = [json.loads(line) for _, line in lines[start : start + _CHUNK]]
        except ValueError:  # JSONDecodeError, or an integer over the digit limit
            return None
        if set(map(type, records)) != {dict}:
            return None
        try:
            for column, key in zip(columns, keys):
                column += map(itemgetter(key), records)
        except KeyError:
            return None
    return columns


def _json_lines(path, lines):
    """``(line_no, value)`` per line, each parsed as one JSON value."""
    for line_no, line in lines:
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


def _finite_array(rows) -> np.ndarray | None:
    """``rows`` of JSON numbers as one float64 array, or None when one is not
    finite as a float; each value converts exactly as ``float(v)`` does."""
    try:
        arr = np.array(rows, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        return None
    return arr if np.isfinite(arr).all() else None


def _predictions_at_once(lines) -> tuple[np.ndarray, np.ndarray] | None:
    """The arrays of a prediction file when every record is valid, else None."""
    columns = _json_columns(lines, ("logits", "label"))
    if columns is None:
        return None
    rows, labels = columns
    widths = set(map(len, rows)) if set(map(type, rows)) == {list} else set()
    if len(widths) != 1 or min(widths) < 2:
        return None
    (width,) = widths
    if (
        not set(map(type, chain.from_iterable(rows))) <= _NUMBER_TYPES
        or set(map(type, labels)) != {int}
        or not 0 <= min(labels) <= max(labels) < width
    ):
        return None
    logits = _finite_array(rows)
    return None if logits is None else (logits, np.array(labels))


def _predictions_by_line(path, lines) -> tuple[np.ndarray, np.ndarray]:
    """The arrays of a prediction file, read one record at a time; raises at
    the first bad line with the message of the first check it fails."""
    logits: list[list[float]] = []
    labels: list[int] = []
    width = None
    for line_no, obj in _json_lines(path, lines):
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


def read_prediction_file(path) -> tuple[np.ndarray, np.ndarray]:
    """Logit matrix and label vector from a JSON-lines prediction file.

    The whole file is checked at once; a file that fails that check is read
    again one record at a time, which names its first bad line.
    """
    lines = _lines(path)
    arrays = _predictions_at_once(lines)
    return _predictions_by_line(path, lines) if arrays is None else arrays


class Hypotheses(NamedTuple):
    """A whole hypothesis file, grouped by utterance: utterance u owns rows
    ``offsets[u]:offsets[u + 1]`` of ``ids`` and of the ``(N, 2)``
    ``[am_logp, lm_logp]`` ``scores``. Utterances come in order of first
    appearance and each keeps its rows in file order."""

    utts: list[str]
    offsets: np.ndarray
    ids: list[str]
    scores: np.ndarray


def _hypotheses_at_once(lines) -> tuple[list[str], list[str], np.ndarray] | None:
    """Utterance ids, hypothesis ids and ``(N, 2)`` scores of a hypothesis
    file in file order when every record is valid, else None."""
    columns = _json_columns(lines, ("utt", "id", "am_logp", "lm_logp"))
    if columns is None:
        return None
    utts, ids, am, lm = columns
    texts = utts + ids
    if (
        set(map(type, texts)) != {str}
        or not all(texts)
        or not set(map(type, am + lm)) <= _NUMBER_TYPES
    ):
        return None
    joined = "".join(texts)
    if any(c in joined for c in _FIELD_BREAKS):
        return None
    scores = _finite_array([am, lm])
    return None if scores is None else (utts, ids, scores.T)


def _hypotheses_by_line(path, lines) -> tuple[list[str], list[str], np.ndarray]:
    """:func:`_hypotheses_at_once`'s fields, read one record at a time;
    raises at the first bad line with the message of the first check it fails."""
    utts: list[str] = []
    ids: list[str] = []
    rows: list[list[float]] = []
    for line_no, obj in _json_lines(path, lines):
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
        utts.append(utt)
        ids.append(hyp_id)
        rows.append(scores)
    if not rows:
        raise FileFormatError(path, 0, "no hypotheses found")
    return utts, ids, np.array(rows)


def read_hypothesis_file(path) -> Hypotheses:
    """All hypotheses of a JSON-lines file, grouped by utterance.

    The whole file is checked at once; a file that fails that check is read
    again one record at a time, which names its first bad line.
    """
    lines = _lines(path)
    fields = _hypotheses_at_once(lines)
    utts, ids, scores = _hypotheses_by_line(path, lines) if fields is None else fields
    group: dict[str, int] = {}  # utterance id -> its rank in order of first appearance
    codes = np.array([group.setdefault(utt, len(group)) for utt in utts])
    order = np.argsort(codes, kind="stable")
    offsets = np.concatenate(([0], np.cumsum(np.bincount(codes))))
    return Hypotheses(list(group), offsets, [ids[i] for i in order.tolist()], scores[order])


def read_alignment_file(path) -> Alignments:
    """All utterances of an alignment file as one code array, in file order."""
    starts: dict[str, int] = {}  # utterance id -> offset of its first frame
    vocab: dict[str, int] = {}  # token -> code, in order of first use
    codes: list[int] = []
    for line_no, line in _lines(path):
        utt, _, frames = line.partition("\t")
        utt = utt.strip()
        if not utt:
            raise FileFormatError(path, line_no, "missing utterance id")
        if len(utt.split()) > 1:
            raise FileFormatError(path, line_no, f"whitespace in utterance id {utt!r}")
        if utt in starts:
            raise FileFormatError(path, line_no, f"duplicate utterance {utt!r}")
        starts[utt] = len(codes)
        codes += [vocab.setdefault(t, len(vocab)) for t in frames.split()]
    if not starts:
        raise FileFormatError(path, 0, "no alignments found")
    offsets = np.array([*starts.values(), len(codes)])
    return Alignments(list(starts), offsets, list(vocab), np.array(codes, dtype=np.intp))


def read_unit_map_file(path) -> dict[str, str]:
    """Fine-to-coarse token table from a 2-column TSV file."""
    mapping: dict[str, str] = {}
    for line_no, line in _lines(path):
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise FileFormatError(path, line_no, "expected 'fine<TAB>coarse'")
        if parts[0] in mapping and mapping[parts[0]] != parts[1]:
            raise FileFormatError(
                path, line_no, f"conflicting images for token {parts[0]!r}"
            )
        mapping[parts[0]] = parts[1]
    if not mapping:
        raise FileFormatError(path, 0, "empty unit map")
    return mapping


def read_posterior_file(path) -> dict[str, np.ndarray]:
    """Per-utterance ``(T, K)`` posterior matrices, rows ordered by token index.

    Token indices must be contiguous from 0 within each utterance and all
    vectors in the file must share one width. The first bad line is reported
    as if lines were checked one at a time: columns, token index, numbers,
    range, width, sum, then duplicate index.
    """
    line_nos: list[int] = []
    counts: list[int] = []
    fields: list[str] = []
    rows: dict[str, dict[int, int]] = {}  # utt -> token index -> row
    duplicate = None  # first row repeating an (utt, token index) pair
    error = None  # the line that ends the scan, with its message
    for line_no, line in _lines(path):
        parts = line.split("\t")
        if len(parts) != 3:
            error = (line_no, "expected 'utt<TAB>token-index<TAB>p0 p1 ...'")
            break
        try:
            index = int(parts[1])
        except ValueError:
            error = (line_no, f"bad token index {parts[1]!r}")
            break
        if index < 0:
            error = (line_no, f"negative token index {index}")
            break
        row = len(line_nos)
        per_utt = rows.setdefault(parts[0].strip(), {})
        if index in per_utt:
            if duplicate is None:
                duplicate = (row, f"duplicate token index {index}")
        else:
            per_utt[index] = row
        row_fields = parts[2].split()
        line_nos.append(line_no)
        counts.append(len(row_fields))
        fields.extend(row_fields)

    # Each check below looks only at the rows before the first bad line found
    # so far, in the order a line is checked, so an earlier line always wins.
    n = len(line_nos)

    def fail(row: int, message: str) -> None:
        nonlocal n, error
        n, error = row, (line_nos[row], message)

    try:
        values = list(map(float, fields))
    except ValueError:
        values = []
        for text in fields:
            try:
                values.append(float(text))
            except ValueError:
                break
        row = int(np.searchsorted(np.cumsum(counts), len(values), side="right"))
        fail(row, "probabilities must be numbers")
    flat = np.array(values[: sum(counts[:n])], dtype=np.float64)
    width = counts[0] if n else 0
    counts_arr = np.array(counts[:n], dtype=np.intp)
    out_of_range = ~np.isfinite(flat) | (flat < 0)
    bad_values = np.bincount(
        np.repeat(np.arange(n), counts_arr), weights=out_of_range, minlength=n
    ) > 0
    bad = (counts_arr < 2) | bad_values | (counts_arr != width)
    if bad.any():
        row = int(bad.argmax())
        if counts_arr[row] < 2 or bad_values[row]:
            fail(row, "need >= 2 finite non-negative probabilities")
        else:
            fail(row, f"expected {width} probabilities, got {counts_arr[row]}")
    mat = flat[: n * width].reshape(n, width)
    totals = mat.sum(axis=1)
    off = np.abs(totals - 1.0) > POSTERIOR_SUM_TOL
    if off.any():
        row = int(off.argmax())
        fail(row, f"probabilities sum to {totals[row]:.8f}, not 1")
    if duplicate is not None and duplicate[0] < n:
        fail(*duplicate)
    if error is not None:
        raise FileFormatError(path, *error)
    if not line_nos:
        raise FileFormatError(path, 0, "no posteriors found")
    mat = mat / totals[:, None]
    out: dict[str, np.ndarray] = {}
    for utt, by_index in rows.items():
        if set(by_index) != set(range(len(by_index))):
            raise FileFormatError(
                path, 0, f"utterance {utt!r} has gaps in its token indices"
            )
        out[utt] = mat[[by_index[i] for i in range(len(by_index))]]
    return out


def read_config_file(path) -> dict[str, str]:
    """key=value lines; blank lines and '#' comments are ignored."""
    out: dict[str, str] = {}
    for line_no, line in _lines(path):
        stripped = line.strip()
        if stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise FileFormatError(path, line_no, "expected 'key=value'")
        key, value = stripped.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            raise FileFormatError(path, line_no, "empty key")
        if key in out:
            raise FileFormatError(path, line_no, f"duplicate key {key!r}")
        out[key] = value
    return out


def write_text_atomic(path, text: str) -> None:
    """Write via a temp file in the same directory, then rename into place."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or ".", prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
