"""Frame-wise target construction from forced alignments.

A forced alignment labels every frame; consecutive frames usually repeat the
same label. Teacher posteriors, on the other hand, arrive once per *token*.
The bridge is: map the alignment into the teacher's unit vocabulary, collapse
repeated neighbours within each utterance (deduplication, keeping run
lengths) and take one teacher posterior per collapsed token. Repeating each
posterior by its run length makes the teacher stream frame-synchronous again.
:func:`target_lines` writes those streams out as one frame-wise table.
"""

from __future__ import annotations

from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .calibration import _fmt6_rows
from .errors import InvalidInputError, UnmappedTokenError
from .probs import as_probs

#: Frames per text chunk of :func:`target_lines`, so that the whole table never lives at once.
_CHUNK_FRAMES = 4096


class Alignments(NamedTuple):
    """A whole alignment file as one array: utterance u owns the frames
    ``codes[offsets[u]:offsets[u + 1]]``, each an int code into ``vocab``
    (-1 for a token that a unit map has no image for)."""

    utts: list[str]
    offsets: np.ndarray
    vocab: list[str]
    codes: np.ndarray


class Runs(NamedTuple):
    """Deduplicated codes: ``labels[i]`` repeats over ``runs[i]`` frames, and
    utterance u owns the tokens ``offsets[u]:offsets[u + 1]``."""

    labels: np.ndarray
    runs: list[int]
    offsets: np.ndarray


def map_units(a: Alignments, mapping: Mapping[str, str]) -> Alignments:
    """Recode every frame to its image under ``mapping`` (-1 if it has none)."""
    target: dict[str, int] = {}
    table = [target.setdefault(mapping[t], len(target)) if t in mapping else -1 for t in a.vocab]
    return a._replace(vocab=list(target), codes=np.array(table, dtype=np.intp)[a.codes])


def deduplicate(a: Alignments) -> Runs:
    """Collapse maximal runs of equal consecutive codes within each utterance."""
    bounds = np.zeros(len(a.codes) + 1, dtype=bool)
    bounds[1:-1] = a.codes[1:] != a.codes[:-1]
    bounds[a.offsets] = True
    bounds = np.flatnonzero(bounds)
    return Runs(a.codes[bounds[:-1]], np.diff(bounds).tolist(), np.searchsorted(bounds, a.offsets))


def _posterior_matrix(rows: list) -> np.ndarray:
    """Stack per-utterance posterior rows as one validated ``(T, K)`` matrix."""
    if not rows:
        return np.empty((0, 0))
    try:
        mat = np.concatenate([np.asarray(r, dtype=np.float64) for r in rows])
    except (TypeError, ValueError):
        raise InvalidInputError("posteriors must be numeric vectors of one width") from None
    if mat.ndim != 2:
        raise InvalidInputError(
            f"posteriors must stack to a (tokens, classes) matrix, got shape {mat.shape}"
        )
    return as_probs(mat)


def teacher_posteriors(
    a: Alignments,
    teachers: Sequence[tuple[str, Optional[Mapping[str, str]], Mapping[str, Sequence]]],
) -> list[tuple[np.ndarray, list[int]]]:
    """Per ``(tid, mapping, {utt: (T_u, K) posteriors})`` teacher, its ``(T, K)``
    token posteriors over all utterances plus their ``T`` run lengths.

    The alignment is mapped into each teacher's unit (``None`` keeps it) and
    deduplicated; every utterance with frames needs exactly one posterior
    row per token. Of the errors, the one raised is the first that checking
    utterance by utterance would meet: a missing utterance (any teacher),
    then each teacher in turn, its first unmapped token (named with the
    source unit ``"fine"``) before its count check. Repeating row i
    ``runs[i]`` times gives the frame-synchronous stream.
    """
    errors, streams = [], []  # errors keyed (utterance, -1 if missing else teacher, check)
    for t, (tid, mapping, table) in enumerate(teachers):
        mapped = a if mapping is None else map_units(a, mapping)
        runs = deduplicate(mapped)
        unmapped = np.flatnonzero(mapped.codes < 0)
        if unmapped.size:
            u = np.searchsorted(a.offsets, unmapped[0], side="right") - 1
            errors.append(((u, t, 0), UnmappedTokenError(a.vocab[a.codes[unmapped[0]]], "fine", tid)))
        rows = np.array([len(table[u]) if u in table else -1 for u in a.utts], dtype=np.intp)
        tokens = np.diff(runs.offsets)
        wrong = np.flatnonzero((tokens > 0) & (rows != tokens))  # missing: -1 rows
        if wrong.size:
            u = wrong[0]
            errors.append(((u, -1, t), InvalidInputError(
                f"utterance {a.utts[u]!r} missing from posterior file for teacher {tid}"
            )) if rows[u] < 0 else ((u, t, 1), InvalidInputError(
                f"got {rows[u]} posteriors for {tokens[u]} deduplicated labels"
            )))
        streams.append((table, runs.runs))
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    spoken_utts = [u for u, n in zip(a.utts, np.diff(a.offsets)) if n]  # with frames
    return [(_posterior_matrix([table[u] for u in spoken_utts]), runs) for table, runs in streams]


def target_lines(
    a: Alignments,
    teachers: Sequence[tuple[str, Optional[Mapping[str, str]], Mapping[str, Sequence]]],
) -> Iterator[str]:
    """The frame-wise target table of ``teachers`` on ``a``, in text chunks of
    ``_CHUNK_FRAMES`` lines: per frame, ``utt<TAB>frame<TAB>hard`` and then a
    ``<TAB>tid:p0,p1,...`` cell per teacher, at six decimals. The errors of
    :func:`teacher_posteriors` are raised by this call, before any chunk."""
    streams = teacher_posteriors(a, teachers)
    utt = np.repeat(np.arange(len(a.utts)), np.diff(a.offsets))
    frame = np.arange(len(a.codes)) - a.offsets[utt]
    columns = [  # per column, each distinct cell formatted once, and the cell of each frame
        (a.utts, utt),
        (list(map(str, range(frame.max(initial=-1) + 1))), frame),
        (a.vocab, a.codes),
        *(([f"{tid}:{row}" for row in _fmt6_rows(p)], np.repeat(np.arange(len(runs)), runs))
          for (tid, _, _), (p, runs) in zip(teachers, streams)),
    ]
    ends = ["\t"] * (len(columns) - 1) + ["\n"]  # each cell ends with its separator
    tables = [(np.array([cell + end for cell in cells], dtype=object), index)
              for (cells, index), end in zip(columns, ends)]

    def chunk(lo: int) -> str:
        cells = np.empty((min(_CHUNK_FRAMES, len(a.codes) - lo), len(tables)), dtype=object)
        for column, (table, index) in enumerate(tables):
            cells[:, column] = table[index[lo : lo + _CHUNK_FRAMES]]
        return "".join(cells.ravel().tolist())

    return map(chunk, range(0, len(a.codes), _CHUNK_FRAMES))
