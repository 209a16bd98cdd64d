"""Line-oriented file formats used by the command-line tools.

Formats (one record per line throughout):

* prediction file: JSON objects ``{"logits": [...], "label": int}``;
* hypothesis file: JSON objects
  ``{"utt": str, "id": str, "am_logp": float, "lm_logp": float}``, where
  ``utt`` and ``id`` are non-empty and hold no TAB, CR or LF;
* alignment file: ``utt-id<TAB>tok tok tok ...``, the id without whitespace;
* unit-map file: TSV lines ``fine<TAB>coarse``;
* posterior file: ``utt-id<TAB>token-index<TAB>p0 p1 ... pK-1``, the index in
  ASCII digits and the values in ASCII without ``_``.

Only LF ends a line (a CR before it is dropped), and blank lines are
skipped but counted. Parse errors raise :class:`FileFormatError` carrying
the offending line number. The prediction, hypothesis and posterior formats
each have one check, which runs on the file a chunk of lines at a time; a
chunk it rejects is checked again line by line, and the first line rejected
is reported with that check's message. Posterior vectors may be off the
simplex by up to 1e-6 (6-decimal files round); they are renormalized on
load, anything worse is rejected.
"""

from __future__ import annotations

import json
import os
import re
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
_FIELD_BREAK = re.compile("[\t\r\n]")  # would split an id or utt across output fields
#: Lines checked at a time, so that the parsed lines of a whole file never live at once.
_CHUNK = 4096
_INDEX_CHARS = frozenset("-0123456789")  # ``int`` alone also reads +1, " 1", 1_0, other digits


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


class _Rejected(Exception):
    """A check rejects a chunk of lines. Its message is shown only for a chunk
    of one line, so it need only be right for one line."""


def _checked(path, lines, check) -> list:
    """``check(chunk)`` per chunk of ``_CHUNK`` lines. A check returns its
    chunk's arrays or raises :class:`_Rejected`, and changes its state only
    when the whole chunk passes; so a chunk passes exactly when each of its
    lines passes in turn, and a rejected chunk is checked again line by line
    to report the first line rejected, with its message."""
    parts = []
    for start in range(0, len(lines), _CHUNK):
        chunk = lines[start : start + _CHUNK]
        try:
            parts.append(check(chunk))
        except _Rejected:
            for line in chunk:
                try:
                    parts.append(check([line]))
                except _Rejected as e:
                    raise FileFormatError(path, line[0], str(e)) from None
    return parts


def _json_columns(chunk, keys: tuple[str, ...]) -> list[list]:
    """Per key, its value on every line of ``chunk``; rejects a line that is
    not JSON, or not an object holding every key."""
    try:
        records = [json.loads(line) for _, line in chunk]
    except ValueError as e:  # JSONDecodeError, or an integer over the digit limit
        raise _Rejected(f"bad JSON: {getattr(e, 'msg', e)}") from None
    try:
        if set(map(type, records)) == {dict}:
            return [list(map(itemgetter(key), records)) for key in keys]
    except KeyError:
        pass
    raise _Rejected(f"need keys {', '.join(map(repr, keys[:-1]))} and {keys[-1]!r}")


def _finite_array(rows, message: str) -> np.ndarray:
    """``rows`` of JSON numbers as one float64 array, each value converted as
    ``float(v)`` converts it; rejects with ``message`` rows of several widths
    and a value that is not finite as a float."""
    try:
        arr = np.array(rows, dtype=np.float64)
    except (ValueError, OverflowError):  # ragged rows, or an integer beyond the float range
        raise _Rejected(message) from None
    if not np.isfinite(arr).all():
        raise _Rejected(message)
    return arr


def read_prediction_file(path) -> tuple[np.ndarray, np.ndarray]:
    """Logit matrix and label vector from a JSON-lines prediction file."""
    width = None  # of the first row

    def check(chunk):
        nonlocal width
        rows, labels = _json_columns(chunk, ("logits", "label"))
        if (
            set(map(type, rows)) != {list}
            or min(map(len, rows)) < 2
            or not set(map(type, chain.from_iterable(rows))) <= _NUMBER_TYPES
        ):
            raise _Rejected("'logits' must list >= 2 numbers")
        logits = _finite_array(rows, "logits must be finite")
        first = logits.shape[1] if width is None else width
        if logits.shape[1] != first:
            raise _Rejected(f"expected {first} logits, got {logits.shape[1]}")
        if set(map(type, labels)) != {int}:
            raise _Rejected("'label' must be an integer")
        lo, hi = min(labels), max(labels)
        if lo < 0 or hi >= first:
            raise _Rejected(f"label {lo if lo < 0 else hi} out of range for {first} classes")
        width = first
        return logits, np.array(labels)

    parts = _checked(path, _lines(path), check)
    if not parts:
        raise FileFormatError(path, 0, "no prediction records found")
    logits, labels = zip(*parts)
    return np.concatenate(logits), np.concatenate(labels)


class Hypotheses(NamedTuple):
    """A whole hypothesis file, grouped by utterance: utterance u owns rows
    ``offsets[u]:offsets[u + 1]`` of ``ids`` and of the ``(N, 2)``
    ``[am_logp, lm_logp]`` ``scores``. Utterances come in order of first
    appearance and each keeps its rows in file order."""

    utts: list[str]
    offsets: np.ndarray
    ids: list[str]
    scores: np.ndarray


def _check_hypotheses(chunk) -> tuple[list[str], list[str], np.ndarray]:
    """Utterance ids, hypothesis ids and ``(n, 2)`` scores of ``chunk``."""
    utts, ids, am, lm = _json_columns(chunk, ("utt", "id", "am_logp", "lm_logp"))
    for key, texts in (("utt", utts), ("id", ids)):
        if set(map(type, texts)) != {str} or not all(texts) or _FIELD_BREAK.search("".join(texts)):
            raise _Rejected(f"{key!r} must be a non-empty string without tabs or newlines")
    message = "'am_logp' and 'lm_logp' must be finite numbers"
    if not set(map(type, am + lm)) <= _NUMBER_TYPES:
        raise _Rejected(message)
    return utts, ids, _finite_array([am, lm], message).T


def read_hypothesis_file(path) -> Hypotheses:
    """All hypotheses of a JSON-lines file, grouped by utterance."""
    parts = _checked(path, _lines(path), _check_hypotheses)
    if not parts:
        raise FileFormatError(path, 0, "no hypotheses found")
    utts, ids, scores = zip(*parts)
    group: dict[str, int] = {}  # utterance id -> its rank in order of first appearance
    codes = np.array([group.setdefault(utt, len(group)) for utt in chain.from_iterable(utts)])
    order = np.argsort(codes, kind="stable")
    offsets = np.concatenate(([0], np.cumsum(np.bincount(codes))))
    ids = list(chain.from_iterable(ids))
    return Hypotheses(list(group), offsets, [ids[i] for i in order.tolist()],
                      np.concatenate(scores)[order])


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
    vectors in the file must share one width. Each line is checked for its
    columns, token index, numbers, range, width, sum, then duplicate index.
    """
    width = None  # of the first row
    rows: dict[tuple[str, int], int] = {}  # (utt, token index) -> its row, in file order

    def check(chunk):
        nonlocal width
        split = [line.split("\t") for _, line in chunk]
        if set(map(len, split)) != {3}:
            raise _Rejected("expected 'utt<TAB>token-index<TAB>p0 p1 ...'")
        utts, index_texts, value_texts = zip(*split)
        try:
            if not _INDEX_CHARS.issuperset("".join(index_texts)):
                raise ValueError
            indices = list(map(int, index_texts))
        except ValueError:
            raise _Rejected(f"bad token index {index_texts[0]!r}") from None
        if min(indices) < 0:
            raise _Rejected(f"negative token index {min(indices)}")
        fields = [text.split() for text in value_texts]
        values = "".join(value_texts)  # ``float`` alone also reads 0.2_5 and other digits
        try:
            if not values.isascii() or "_" in values:
                raise ValueError
            flat = np.array(list(map(float, chain.from_iterable(fields))))
        except ValueError:
            raise _Rejected("probabilities must be numbers") from None
        counts = set(map(len, fields))
        if min(counts) < 2 or not (np.isfinite(flat) & (flat >= 0.0)).all():
            raise _Rejected("need >= 2 finite non-negative probabilities")
        first = len(fields[0]) if width is None else width
        if counts != {first}:
            raise _Rejected(f"expected {first} probabilities, got {max(counts - {first})}")
        mat = flat.reshape(len(fields), first)
        with np.errstate(over="ignore"):  # a sum past the float range is inf, rejected below
            totals = mat.sum(axis=1)
        off = np.abs(totals - 1.0) > POSTERIOR_SUM_TOL
        if off.any():
            raise _Rejected(f"probabilities sum to {totals[off.argmax()]:.8f}, not 1")
        keys = list(zip(map(str.strip, utts), indices))
        if len(set(keys)) < len(keys) or not rows.keys().isdisjoint(keys):
            raise _Rejected(f"duplicate token index {indices[0]}")
        width = first
        rows.update(zip(keys, range(len(rows), len(rows) + len(keys))))
        return mat / totals[:, None]

    parts = _checked(path, _lines(path), check)
    if not parts:
        raise FileFormatError(path, 0, "no posteriors found")
    mat = np.concatenate(parts)
    by_utt: dict[str, dict[int, int]] = {}  # utt -> token index -> row
    for (utt, index), row in rows.items():
        by_utt.setdefault(utt, {})[index] = row
    out: dict[str, np.ndarray] = {}
    for utt, by_index in by_utt.items():
        if max(by_index) != len(by_index) - 1:
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
