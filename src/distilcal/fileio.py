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
before each LF and one CR that ends the file. Parse errors raise
:class:`FileFormatError` with the offending line number. The prediction,
hypothesis and posterior formats each have one check, which runs on the file
a chunk of lines at a time; a chunk it rejects is checked again line by line,
and the first line rejected is reported with that check's message. Posterior
vectors may be off the simplex by up to 1e-6 (6-decimal files round); they
are renormalized on load, anything worse is rejected.

A posterior file spelt the common way, with CRLF or a byte-order mark too, is
read whole, each value's digits as an integer, with the same result: an ASCII
file of ``utt<TAB>index<TAB>values`` lines, each ended by an LF, whose ids
hold no byte <= 0x20, whose indices are ASCII digits without a leading zero
that count 0, 1, ... over each utterance's contiguous lines, whose values are
K >= 2 decimals of one width with the ``.`` in one column and single spaces
between them, and whose rows sum to 1 within ``POSTERIOR_SUM_TOL``. Any other
file, a bad one too, goes to the one check above, which reads with ``float``.
"""

from __future__ import annotations

import codecs
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
#: Digits of a fixed-width decimal read by integer arithmetic; 10**15 < 2**53.
_MAX_DIGITS = 15
#: Lines of a posterior file whose values :func:`_posterior_kernel` reads at a time.
_BLOCK_ROWS = 1024
#: The bytes <= LF of a posterior line, in order: two tabs and the line feed.
_LINE_BREAKS = np.array([9, 9, 10], dtype=np.uint8)
#: A line's ``utt<TAB>index<TAB>`` and values, as a mask repeats them.
_PREFIX_VALUES = np.array([False, True])


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
    before each LF and one CR that ends it; no LF goes, so no line number moves."""
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    if b"\r" in data:  # the replace takes a pass even when it finds nothing
        data = data.replace(b"\r\n", b"\n").removesuffix(b"\r")
    return data


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


def _utterance_starts(buf, starts, tab1, tab2) -> Optional[np.ndarray]:
    """The first line of each utterance of a posterior file held in ``buf``,
    from each line's start and first and second tab; None unless every id is
    non-empty and holds no byte <= 0x20, every index is ASCII digits without
    a leading zero, and each utterance's lines are contiguous with the
    indices 0, 1, ... in order."""
    id_len, index_len = tab1 - starts, tab2 - tab1 - 1
    if id_len.min() < 1 or index_len.min() < 1 or index_len.max() > _MAX_DIGITS:
        return None
    index = np.zeros(len(starts), dtype=np.int64)
    for j in range(index_len.max()):  # the digit of 10**j, where the index has one
        has = index_len > j
        digit = buf[tab2[has] - 1 - j] - np.uint8(ord("0"))  # any other byte wraps past 9
        if (digit > 9).any():
            return None
        index[has] += digit.astype(np.int64) * 10**j
    first = np.flatnonzero(index == 0)
    if not len(first) or first[0] or (buf[tab1 + 1] == ord("0"))[index_len > 1].any():
        return None
    if (index != np.arange(len(index)) - first[np.cumsum(index == 0) - 1]).any():
        return None
    same = index > 0  # the line goes on with the utterance of the line before
    if (id_len[1:] != id_len[:-1])[same[1:]].any():
        return None
    ids = buf[np.repeat(starts + id_len - np.cumsum(id_len), id_len) + np.arange(id_len.sum())]
    before = ids[np.arange(len(ids)) - np.repeat(id_len, id_len)]  # that byte a line before
    if (ids <= ord(" ")).any() or (ids != before)[np.repeat(same, id_len)].any():
        return None
    return first


def _posterior_kernel(data: bytes) -> Optional[dict[str, np.ndarray]]:
    """:func:`read_posterior_file`'s table of ``data`` (a file as :func:`_read`
    gives it) when it is spelt the common way that the module docstring
    describes, else None. The values are read ``_BLOCK_ROWS`` lines at a time,
    so that the temporaries do not grow with the file."""
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
    if (point < 0 or not 2 <= width <= _MAX_DIGITS + 1 or span[0] % (width + 1)
            or span[0] == width + 1 or (span != span[0]).any()):
        return None
    first = _utterance_starts(buf, starts, tab1, tab2)
    if first is None:
        return None
    n, k = len(ends), span[0] // (width + 1)
    runs = np.empty(2 * n, dtype=np.intp)  # per line, the lengths of its two parts
    runs[0::2], runs[1::2] = tab2 + 1 - starts, span
    mat = np.empty((n, k))
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        in_values = np.repeat(np.tile(_PREFIX_VALUES, hi - lo), runs[2 * lo : 2 * hi])
        cells = buf[starts[lo] : ends[hi - 1] + 1][in_values].reshape(hi - lo, k, width + 1)
        rows = _decimals(cells, point) if (cells[:, :-1, width] == ord(" ")).all() else None
        if rows is None:
            return None
        totals = rows.sum(axis=1)
        if (np.abs(totals - 1.0) > POSTERIOR_SUM_TOL).any():
            return None
        np.divide(rows, totals[:, None], out=mat[lo:hi])
    utts = [data[i:j].decode() for i, j in zip(starts[first].tolist(), tab1[first].tolist())]
    if len(set(utts)) < len(utts):
        return None
    bounds = first.tolist() + [n]
    return {utt: mat[lo:hi] for utt, lo, hi in zip(utts, bounds, bounds[1:])}


def read_posterior_file(path) -> dict[str, np.ndarray]:
    """Per-utterance ``(T, K)`` posterior matrices, rows ordered by token index.

    Token indices must be contiguous from 0 within each utterance and all
    vectors in the file must share one width. Each line is checked for its
    columns, token index, numbers, range, width, sum, then duplicate index.
    The file is read once. If :func:`_posterior_kernel` takes it, each matrix
    is a view of one ``(rows, K)`` array; else each value is read by ``float``.
    """
    data = _read(path)
    table = _posterior_kernel(data)
    if table is not None:
        return table
    width = None  # of the first row
    rows: dict[tuple[str, int], int] = {}  # (utt, token index) -> its row, in file order

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
        keys = list(zip(map(str.strip, utts), indices))
        if len(set(keys)) < len(keys) or not rows.keys().isdisjoint(keys):
            raise _Rejected(f"duplicate token index {indices[0]}")
        width = first
        rows.update(zip(keys, range(len(rows), len(rows) + len(keys))))
        return mat / totals[:, None]

    parts = _checked(path, _lines(path, data), check)
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


def write_text_atomic(path, chunks: Iterable[str]) -> None:
    """Write the text ``chunks`` in turn to a temp file in the same directory,
    then rename it into place; if a chunk raises, ``path`` is left as it was.
    The file gets the mode ``open(path, "w")`` would leave: an existing file's
    own, else 0666 less the umask."""
    path = Path(path)
    try:
        mode = path.stat().st_mode & 0o777
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=path.parent or ".", prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            os.fchmod(fd, mode)
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
