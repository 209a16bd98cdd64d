"""Whole-file kernels for the JSON-lines prediction and hypothesis files.

:mod:`distilcal.fileio` imports this module only when it reads one of these
files, so that no other command compiles it at start-up. A kernel takes a
file spelt as ``json.dumps`` spells these records by default and gives the
arrays that the line-at-a-time check gives, bit for bit. It gives None for
any other file, a bad one too, and that check then reads the file and names
its bad line. The spelling is an ASCII file of lines each ended by an LF
(``fileio._read`` adds one to a file that lacks it), the keys in the order
that ``fileio`` lists them, with ``", "`` and ``": "`` between items:

* numbers spelt ``-?(0|[1-9][0-9]*)(\\.[0-9]+)?`` but not ``-0``, each of at
  most 15 digits, its integer part and fraction read by the digit walk of
  ``fileio._digits`` that also reads labels;
* labels without a sign or a leading zero, in range, and K >= 2 logits on
  every line;
* utterance and hypothesis ids without ``"``, ``\\`` or a byte <= 0x20.
"""

from __future__ import annotations

import re
from typing import Optional

import numpy as np

from .fileio import _BLOCK_ROWS, _CHUNK, _MAX_DIGITS, _digits, _naturals

#: The bytes of a prediction line before its logits and between them and its label.
LOGITS_OPEN = np.frombuffer(b'{"logits": [', dtype=np.uint8)
LABEL_OPEN = np.frombuffer(b'], "label": ', dtype=np.uint8)
#: A hypothesis line spelt as ``json.dumps`` spells it, its scores checked after;
#: compiled on first use, so that only ``combine`` pays for it.
HYPOTHESIS_LINE = (r'\{"utt": "([^"\\\x00-\x20]+)", "id": "([^"\\\x00-\x20]+)", '
                   r'"am_logp": ([-.0-9]+), "lm_logp": ([-.0-9]+)\}\n')


def json_numbers(buf, starts, ends) -> Optional[np.ndarray]:
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


def prediction_kernel(data: bytes) -> Optional[list[tuple[np.ndarray, np.ndarray]]]:
    """``read_prediction_file``'s ``(logits, labels)`` parts of ``data`` (a
    file as ``_read`` gives it) when it is spelt as the module docstring
    describes, else None; ``_BLOCK_ROWS`` lines at a time, so that the
    temporaries do not grow with the file."""
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
        first, close = start + len(LOGITS_OPEN), commas[:, -1] - 1  # first logit, "]"
        label = close + len(LABEL_OPEN)
        # each line's first comma after its "[" and room for a label digit and "}": so each
        # line holds its own commas and is long enough for the gathers below
        if (commas[:, 0] < first).any() or (label >= end - 1).any():
            return None
        if not ((block[start[:, None] + np.arange(len(LOGITS_OPEN))] == LOGITS_OPEN).all()
                and (block[close[:, None] + np.arange(len(LABEL_OPEN))] == LABEL_OPEN).all()
                and (block[commas[:, :-1] + 1] == ord(" ")).all()
                and (block[end - 1] == ord("}")).all()):
            return None
        logits = json_numbers(block, np.column_stack((first, commas[:, :-1] + 2)).ravel(),
                              np.column_stack((commas[:, :-1], close)).ravel())
        labels = _naturals(block, label, end - 1)
        if logits is None or labels is None or labels.max() >= k:
            return None
        parts.append((logits.reshape(-1, k), labels))
    return parts


def hypothesis_kernel(data: bytes) -> Optional[list[tuple[list[str], list[str], np.ndarray]]]:
    """``read_hypothesis_file``'s ``(utts, ids, scores)`` parts of ``data`` (a
    file as ``_read`` gives it) when it is spelt as the module docstring
    describes, else None; ``_CHUNK`` lines at a time."""
    if not data.endswith(b"\n") or not data.isascii():
        return None
    line_ends = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n")) + 1
    cuts = [0, *line_ends[_CHUNK - 1 : -1 : _CHUNK].tolist(), len(data)]
    parts = []
    for lo, hi in zip(cuts, cuts[1:]):
        fields = re.split(HYPOTHESIS_LINE, data[lo:hi].decode())
        if any(fields[::5]):  # text between the lines that the pattern matched
            return None
        numbers = ",".join([*fields[3::5], *fields[4::5], ""]).encode()  # a comma after each
        commas = np.flatnonzero(np.frombuffer(numbers, dtype=np.uint8) == ord(","))
        scores = json_numbers(np.frombuffer(numbers, dtype=np.uint8),
                              np.concatenate(([0], commas[:-1] + 1)), commas)
        if scores is None:
            return None
        parts.append((fields[1::5], fields[2::5], scores.reshape(2, -1).T))
    return parts
