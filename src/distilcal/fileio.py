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

Only LF ends a line, blank lines are skipped but counted, and one byte rule
(:func:`_read`) drops a UTF-8 byte-order mark that starts a file, one CR
before each LF and one CR that ends the file, and adds an LF that the file
lacks at its end. Parse errors raise
:class:`FileFormatError` with the offending line number. The prediction,
hypothesis and posterior formats each have one check, which runs on the file
a chunk of lines at a time; a chunk it rejects is checked again line by line,
and the first line rejected is reported with that check's message. Posterior
vectors may be off the simplex by up to 1e-6 (6-decimal files round); they
are renormalized on load, anything worse is rejected.

A file of these three formats spelt the common way, with CRLF, a byte-order
mark, blank lines or no final LF too, is read whole by a kernel, each number's
digits as an integer, with the same arrays bit for bit: a posterior file's
fixed-width values by :func:`_decimals`, and its indices, labels and JSON
numbers, each of at most 15 digits, by the digit walk :func:`_digits`. Any
other file, a bad one too, goes to the one check above, which reads with
``json.loads`` or ``float``. Every kernel reads ``_BLOCK_ROWS`` lines at a
time, so that its temporaries do not grow with the file.

For predictions and hypotheses the common way is the spelling of
``json.dumps``: an ASCII file of LF-ended lines, the keys in the order listed
above with ``", "`` and ``": "`` between items, numbers spelt
``-?(0|[1-9][0-9]*)(\\.[0-9]+)?`` but not ``-0``, labels without a sign or a
leading zero and in range, K >= 2 logits on every line, and ids without
``"``, ``\\`` or a byte <= 0x20. For posteriors it is an ASCII file of
``utt<TAB>index<TAB>values`` lines, each ended by an LF, whose ids hold no
byte <= 0x20, whose indices are ASCII digits without a leading zero, whose
values are K >= 2 decimals of one width with the ``.`` in one column and
single spaces between them, and whose rows sum to 1 within
``POSTERIOR_SUM_TOL``; its lines may come in any order.
"""

from __future__ import annotations

import codecs
import contextlib
import json
import os
import re
import tempfile
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Iterable, NamedTuple, Optional

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
#: The spelling of numbers in every text input, narrower than ``int`` and
#: ``float`` (which also read +1, " 1", 1_0 and other scripts' digits): an
#: integer is an optional ``-`` and then ASCII digits, and a float is ASCII
#: text without ``_`` or whitespace that ``float`` reads.
_INT_CHARS = frozenset("-0123456789")
#: Digits of a number read by integer arithmetic; 10**15 < 2**53.
_MAX_DIGITS = 15
#: Lines of a file whose values a whole-file kernel reads at a time.
_BLOCK_ROWS = 1024
#: The bytes <= LF of a posterior line, in order: two tabs and the line feed.
_LINE_BREAKS = np.array([9, 9, 10], dtype=np.uint8)
#: A line's ``utt<TAB>index<TAB>`` and values, as a mask repeats them.
_PREFIX_VALUES = np.array([False, True])
#: The bytes of a prediction line before its logits and between them and its label.
_LOGITS_OPEN = np.frombuffer(b'{"logits": [', dtype=np.uint8)
_LABEL_OPEN = np.frombuffer(b'], "label": ', dtype=np.uint8)
#: A hypothesis line spelt as ``json.dumps`` spells it, its scores checked after;
#: compiled on first use, so that only ``combine`` pays for it.
_HYPOTHESIS_LINE = (r'\{"utt": "([^"\\\x00-\x20]+)", "id": "([^"\\\x00-\x20]+)", '
                    r'"am_logp": ([-.0-9]+), "lm_logp": ([-.0-9]+)\}\n')


def _float_chars(text: str) -> bool:
    return text.isascii() and "_" not in text


def _int(text: str) -> int:
    if not _INT_CHARS.issuperset(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _float(text: str) -> float:
    if not _float_chars(text) or text.split() != [text]:
        raise ValueError(f"not a number: {text!r}")
    return float(text)


def _read(path) -> bytes:
    """The file at ``path`` less a UTF-8 byte-order mark that starts it, one CR
    before each LF and one CR that ends it, and ended by an LF unless empty; no
    LF goes and a final one ends no line, so no line number moves."""
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    if b"\r" in data:  # the replace takes a pass even when it finds nothing
        data = data.replace(b"\r\n", b"\n").removesuffix(b"\r")
    return data if not data or data.endswith(b"\n") else data + b"\n"


def _whole_file(kernel, data: bytes):
    """``kernel(data)``, or when that is None and ``data`` has LF-only lines,
    ``kernel`` of ``data`` without them: a kernel needs no line numbers, and
    a file it refuses is read line by line from ``data`` as it is. Looking
    for blank lines takes a pass, so only a refused file pays for it."""
    got = kernel(data)
    if got is None and (data.startswith(b"\n") or b"\n\n" in data):
        got = kernel(re.sub(b"\n\n+", b"\n", data).lstrip(b"\n"))
    return got


def _lines(path, data: Optional[bytes] = None) -> list[tuple[int, str]]:
    """``(line_no, line)`` per non-blank line of ``data``, ``path`` as :func:`_read`
    gives it. Only LF ends a line: a form feed, U+2028 or other CR stays in it."""
    data = _read(path) if data is None else data
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        line_no = data.count(b"\n", 0, e.start) + 1
        raise FileFormatError(path, line_no, f"not valid UTF-8 (byte 0x{data[e.start]:02x})") from None
    return [(i, line) for i, line in enumerate(text.split("\n"), start=1) if line.strip()]


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


def _prediction_kernel(data: bytes) -> Optional[list[tuple[np.ndarray, np.ndarray]]]:
    """``read_prediction_file``'s ``(logits, labels)`` parts of ``data`` (a
    file as ``_read`` gives it) when it is spelt as the module docstring
    describes, else None; ``_BLOCK_ROWS`` lines at a time."""
    if not data.endswith(b"\n") or not data.isascii():
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    k = data.count(b",", 0, ends[0])  # the first line's logits: one comma after each
    if k < 2:
        return None
    parts = []
    for lo in range(0, len(ends), _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, len(ends))
        block = buf[starts[lo] : ends[hi - 1] + 1]
        start, end = starts[lo:hi] - starts[lo], ends[lo:hi] - starts[lo]
        commas = np.flatnonzero(block == ord(","))
        if len(commas) != k * (hi - lo):
            return None
        commas = commas.reshape(-1, k)
        first, close = start + len(_LOGITS_OPEN), commas[:, -1] - 1  # first logit, "]"
        label = close + len(_LABEL_OPEN)
        # each line's first comma after its "[" and room for a label digit and "}": so each
        # line holds its own commas and is long enough for the gathers below
        if (commas[:, 0] < first).any() or (label >= end - 1).any():
            return None
        if not ((block[start[:, None] + np.arange(len(_LOGITS_OPEN))] == _LOGITS_OPEN).all()
                and (block[close[:, None] + np.arange(len(_LABEL_OPEN))] == _LABEL_OPEN).all()
                and (block[commas[:, :-1] + 1] == ord(" ")).all()
                and (block[end - 1] == ord("}")).all()):
            return None
        logits = _json_numbers(block, np.column_stack((first, commas[:, :-1] + 2)).ravel(),
                               np.column_stack((commas[:, :-1], close)).ravel())
        labels = _naturals(block, label, end - 1)
        if logits is None or labels is None or labels.max() >= k:
            return None
        parts.append((logits.reshape(-1, k), labels))
    return parts


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

    data = _read(path)
    parts = _whole_file(_prediction_kernel, data) or _checked(path, _lines(path, data), check)
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


def _hypothesis_kernel(data: bytes) -> Optional[list[tuple[list[str], list[str], np.ndarray]]]:
    """``read_hypothesis_file``'s ``(utts, ids, scores)`` parts of ``data`` (a
    file as ``_read`` gives it) when it is spelt as the module docstring
    describes, else None; ``_BLOCK_ROWS`` lines at a time."""
    if not data.endswith(b"\n") or not data.isascii():
        return None
    line_ends = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n")) + 1
    cuts = [0, *line_ends[_BLOCK_ROWS - 1 : -1 : _BLOCK_ROWS].tolist(), len(data)]
    parts = []
    for lo, hi in zip(cuts, cuts[1:]):
        fields = re.split(_HYPOTHESIS_LINE, data[lo:hi].decode())
        if any(fields[::5]):  # text between the lines that the pattern matched
            return None
        numbers = ",".join([*fields[3::5], *fields[4::5], ""]).encode()  # a comma after each
        commas = np.flatnonzero(np.frombuffer(numbers, dtype=np.uint8) == ord(","))
        scores = _json_numbers(np.frombuffer(numbers, dtype=np.uint8),
                               np.concatenate(([0], commas[:-1] + 1)), commas)
        if scores is None:
            return None
        parts.append((fields[1::5], fields[2::5], scores.reshape(2, -1).T))
    return parts


def read_hypothesis_file(path) -> Hypotheses:
    """All hypotheses of a JSON-lines file, grouped by utterance."""
    data = _read(path)
    parts = (_whole_file(_hypothesis_kernel, data)
             or _checked(path, _lines(path, data), _check_hypotheses))
    if not parts:
        raise FileFormatError(path, 0, "no hypotheses found")
    utts, ids, scores = zip(*parts)
    group, codes = _first_use_codes(list(chain.from_iterable(utts)))
    order = np.argsort(codes, kind="stable")
    offsets = np.concatenate(([0], np.cumsum(np.bincount(codes))))
    ids = list(chain.from_iterable(ids))
    return Hypotheses(group, offsets, list(map(ids.__getitem__, order.tolist())),
                      np.concatenate(scores)[order])


def _first_use_codes(items: list[str]) -> tuple[list[str], np.ndarray]:
    """The distinct ``items`` in order of first use, and each item's index in them."""
    distinct = list(dict.fromkeys(items))
    index = dict(zip(distinct, range(len(distinct))))
    return distinct, np.fromiter(map(index.__getitem__, items), dtype=np.intp, count=len(items))


def read_alignment_file(path) -> Alignments:
    """All utterances of an alignment file as one code array, in file order."""
    starts: dict[str, int] = {}  # utterance id -> offset of its first frame
    tokens: list[str] = []
    for line_no, line in _lines(path):
        utt, _, frames = line.partition("\t")
        utt = utt.strip()
        if not utt:
            raise FileFormatError(path, line_no, "missing utterance id")
        if len(utt.split()) > 1:
            raise FileFormatError(path, line_no, f"whitespace in utterance id {utt!r}")
        if utt in starts:
            raise FileFormatError(path, line_no, f"duplicate utterance {utt!r}")
        starts[utt] = len(tokens)
        tokens += frames.split()
    if not starts:
        raise FileFormatError(path, 0, "no alignments found")
    offsets = np.array([*starts.values(), len(tokens)])
    return Alignments(list(starts), offsets, *_first_use_codes(tokens))


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


def _float_values(value_texts) -> tuple[np.ndarray, list[int]]:
    """The values of ``value_texts`` in line order, as ``float`` reads them,
    and each line's count."""
    fields = [text.split() for text in value_texts]
    try:
        if not _float_chars("".join(value_texts)):  # whitespace only between fields
            raise ValueError
        return np.array(list(map(float, chain.from_iterable(fields)))), list(map(len, fields))
    except ValueError:
        raise _Rejected("probabilities must be numbers") from None


def _decimals(cells: np.ndarray, point: int) -> Optional[np.ndarray]:
    """The fixed-width decimals that ``cells`` spell, one per vector along its
    last axis: ASCII digits around a ``.`` in column ``point``, then a
    separator byte that is not looked at; None if another byte stands where
    a digit or the point should. The at most 15 digits of a value read as an integer
    ``q`` and ``10**k`` (``k`` of them after the point) are exact doubles, so
    the correctly rounded ``q / 10**k`` is what ``float`` reads."""
    width = cells.shape[-1] - 1
    if not (cells[..., point] == ord(".")).all():
        return None
    digits = cells[..., [*range(point), *range(point + 1, width)]]
    digits -= np.uint8(ord("0"))  # any other byte wraps past 9
    if (digits > 9).any():
        return None
    q = np.zeros(cells.shape[:-1])  # sums of digits times powers of ten: exact below 2**53
    for column in range(width - 1):
        q *= 10.0
        q += digits[..., column]
    return q / float(10 ** (width - 1 - point))


def _digits(buf, starts, ends) -> Optional[np.ndarray]:
    """The integers ``buf[starts[i]:ends[i]]`` as int64, when each is at most
    15 ASCII digits, leading zeros too (no digits read as 0), else None."""
    length = ends - starts
    if length.max() > _MAX_DIGITS:
        return None
    value = np.zeros(len(starts), dtype=np.int64)
    for j in range(length.max()):  # the digit of 10**j, where the number has one
        has = length > j
        digit = buf[ends[has] - 1 - j] - np.uint8(ord("0"))  # any other byte wraps past 9
        if (digit > 9).any():
            return None
        value[has] += digit.astype(np.int64) * 10**j
    return value


def _naturals(buf, starts, ends) -> Optional[np.ndarray]:
    """:func:`_digits`, when each integer is 1 to 15 digits without a leading zero."""
    value, length = _digits(buf, starts, ends), ends - starts
    if value is None or length.min() < 1 or (buf[starts] == ord("0"))[length > 1].any():
        return None
    return value


def _json_numbers(buf, starts, ends) -> Optional[np.ndarray]:
    """The JSON numbers ``buf[starts[i]:ends[i]]`` as ``float`` reads them, when
    each is spelt ``-?(0|[1-9][0-9]*)(\\.[0-9]+)?`` in at most 15 digits but
    not ``-0`` (an integer, which reads as +0.0), else None. A number whose
    digits spell the integer q, k of them after the point, is ``q / 10**k``:
    both are exact doubles, so the correctly rounded quotient is what
    ``float`` reads."""
    minus = buf[starts] == ord("-")
    first = starts + minus
    points = np.flatnonzero(buf == ord("."))
    point = np.minimum(np.append(points, len(buf))[np.searchsorted(points, first)], ends)
    places = np.maximum(ends - point - 1, 0)  # 0 without a point
    if (point + 1 == ends).any() or (point - first + places).max() > _MAX_DIGITS:
        return None
    whole, fraction = _naturals(buf, first, point), _digits(buf, ends - places, ends)
    if whole is None or fraction is None or (minus & (point == ends) & (whole == 0)).any():
        return None
    scale = 10**places
    return np.copysign((whole * scale + fraction) / scale, 0.5 - minus)  # -0.0 too


def _posterior_table(utts: list[str], codes, index, mat) -> dict[str, np.ndarray] | str:
    """``{utt: (T, K) rows}`` of the rows of ``mat``, row i of utterance
    ``utts[codes[i]]`` at token index ``index[i]``, utterances in the order of
    ``utts`` and rows by index; or, when some utterance's indices are not
    0, 1, ..., T-1 (a repeat or a gap), the first such utterance's id. The
    matrices are views of ``mat``, reordered only if the rows are not in order."""
    counts = np.bincount(codes)
    order = np.lexsort((index, codes))
    by_utt = codes[order]
    bad = index[order] != np.arange(len(order)) - (np.cumsum(counts) - counts)[by_utt]
    if bad.any():
        return utts[by_utt[bad.argmax()]]
    if (order != np.arange(len(order))).any():
        mat = mat[order]
    bounds = [0, *np.cumsum(counts).tolist()]
    return {utt: mat[lo:hi] for utt, lo, hi in zip(utts, bounds, bounds[1:])}


def _posterior_kernel(data: bytes) -> Optional[dict[str, np.ndarray]]:
    """:func:`read_posterior_file`'s table of ``data`` (a file as :func:`_read`
    gives it) when it is spelt the common way that the module docstring
    describes, else None. No temporary outgrows the file: the values are read
    ``_BLOCK_ROWS`` lines at a time, and the ids padded to one width must fit in it."""
    if not data.endswith(b"\n") or not data.isascii():
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    breaks = np.flatnonzero(buf <= ord("\n"))  # two tabs and a line feed per line, nothing else
    if len(breaks) % 3 or not (buf[breaks].reshape(-1, 3) == _LINE_BREAKS).all():
        return None
    tab1, tab2, ends = breaks.reshape(-1, 3).T
    starts = np.concatenate(([0], ends[:-1] + 1))
    head = data[tab2[0] + 1 : ends[0]].partition(b" ")[0]  # the first value
    width, point = len(head), head.find(b".")
    span = ends - tab2  # a line's values and its line feed
    id_len = tab1 - starts
    if (point < 0 or not 2 <= width <= _MAX_DIGITS + 1 or span[0] % (width + 1)
            or span[0] == width + 1 or (span != span[0]).any() or id_len.min() < 1
            or id_len.max() * len(ends) > len(buf)):
        return None
    index = _naturals(buf, tab1 + 1, tab2)
    if index is None:
        return None
    n, k = len(ends), span[0] // (width + 1)
    runs = np.empty(2 * n, dtype=np.intp)  # per line, the lengths of its two parts
    runs[0::2], runs[1::2] = tab2 + 1 - starts, span
    mat = np.empty((n, k))
    ids = np.empty((n, id_len.max()), dtype=np.uint8)
    columns = np.arange(ids.shape[1])
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        in_id = columns < id_len[lo:hi, None]
        got = buf[np.minimum(starts[lo:hi, None] + columns, len(buf) - 1)]
        if (got[in_id] <= ord(" ")).any():
            return None
        np.multiply(got, in_id, out=ids[lo:hi])  # NUL past each id's end
        in_values = np.repeat(np.tile(_PREFIX_VALUES, hi - lo), runs[2 * lo : 2 * hi])
        cells = buf[starts[lo] : ends[hi - 1] + 1][in_values].reshape(hi - lo, k, width + 1)
        rows = _decimals(cells, point) if (cells[:, :-1, width] == ord(" ")).all() else None
        if rows is None:
            return None
        totals = rows.sum(axis=1)
        if (np.abs(totals - 1.0) > POSTERIOR_SUM_TOL).any():
            return None
        np.divide(rows, totals[:, None], out=mat[lo:hi])
    ids = ids.view(f"S{ids.shape[1]}").ravel()  # NUL-padded, yet apart: no id holds a NUL
    distinct, first, codes = np.unique(ids, return_index=True, return_inverse=True)
    by_use = np.argsort(first)  # the distinct ids in order of first use
    table = _posterior_table([utt.decode() for utt in distinct[by_use].tolist()],
                             np.argsort(by_use)[codes], index, mat)
    return table if isinstance(table, dict) else None


def read_posterior_file(path) -> dict[str, np.ndarray]:
    """Per-utterance ``(T, K)`` posterior matrices, rows ordered by token index.

    Each utterance's token indices must be 0, 1, ..., T-1, in any line order,
    and all vectors in the file must share one width. Each line is checked for its
    columns, token index, numbers, range, width, sum, then duplicate index.
    The file is read once, by :func:`_posterior_kernel` or else with each value
    read by ``float``, and both group its rows by :func:`_posterior_table`.
    """
    data = _read(path)
    table = _whole_file(_posterior_kernel, data)
    if table is not None:
        return table
    width = None  # of the first row
    keys: dict[tuple[str, int], None] = {}  # (utt, token index) of each row, in file order

    def check(chunk):
        nonlocal width
        split = [line.split("\t") for _, line in chunk]
        if set(map(len, split)) != {3}:
            raise _Rejected("expected 'utt<TAB>token-index<TAB>p0 p1 ...'")
        utts, index_texts, value_texts = zip(*split)
        try:
            if not _INT_CHARS.issuperset("".join(index_texts)):
                raise ValueError
            indices = list(map(int, index_texts))
        except ValueError:
            raise _Rejected(f"bad token index {index_texts[0]!r}") from None
        if min(indices) < 0:
            raise _Rejected(f"negative token index {min(indices)}")
        flat, counts = _float_values(value_texts)
        if min(counts) < 2 or not (np.isfinite(flat) & (flat >= 0.0)).all():
            raise _Rejected("need >= 2 finite non-negative probabilities")
        first = counts[0] if width is None else width
        if set(counts) != {first}:
            raise _Rejected(f"expected {first} probabilities, got {max(set(counts) - {first})}")
        mat = flat.reshape(len(value_texts), first)
        with np.errstate(over="ignore"):  # a sum past the float range is inf, rejected below
            totals = mat.sum(axis=1)
        off = np.abs(totals - 1.0) > POSTERIOR_SUM_TOL
        if off.any():
            raise _Rejected(f"probabilities sum to {totals[off.argmax()]:.8f}, not 1")
        new = dict.fromkeys(zip(map(str.strip, utts), indices))
        if len(new) < len(chunk) or not keys.keys().isdisjoint(new):
            raise _Rejected(f"duplicate token index {indices[0]}")
        width = first
        keys.update(new)
        return mat / totals[:, None]

    parts = _checked(path, _lines(path, data), check)
    if not parts:
        raise FileFormatError(path, 0, "no posteriors found")
    utts, indices = zip(*keys)
    n = len(indices)  # an index past the row count leaves a gap as surely as n does
    table = _posterior_table(*_first_use_codes(list(utts)),
                             np.fromiter((min(i, n) for i in indices), np.int64, n),
                             np.concatenate(parts))
    if isinstance(table, str):
        raise FileFormatError(path, 0, f"utterance {table!r} has gaps in its token indices")
    return table


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


def write_text_atomic(path, chunks: Iterable[str]) -> None:
    """Write the text ``chunks`` in turn to a temp file in the same directory,
    then rename it into place; if a chunk raises, ``path`` is left as it was.
    The file gets the mode ``open(path, "w")`` would leave: an existing file's
    own, else 0666 less the umask. An ``OSError`` names ``path``, not the temp file."""
    target, path = path, Path(path)
    try:
        mode = path.stat().st_mode & 0o777
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            os.fchmod(fd, mode)
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException as e:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        if isinstance(e, OSError) and e.filename is not None and tmp in (None, e.filename):
            raise type(e)(e.errno, e.strerror, os.fspath(target)) from None
        raise
