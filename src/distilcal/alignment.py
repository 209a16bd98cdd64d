"""Frame-wise target construction from forced alignments.

A forced alignment labels every frame; consecutive frames usually repeat the
same label. Teacher posteriors, on the other hand, arrive once per *token*.
The bridge is: map the alignment into the teacher's unit vocabulary, collapse
repeated neighbours (deduplication, keeping run lengths), look up one teacher
posterior per collapsed token, then repeat each posterior by its run length
(rearrangement) so the teacher stream is frame-synchronous again.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .errors import InvalidInputError, UnmappedTokenError
from .probs import as_probs

#: Yields one posterior vector per deduplicated token it is given, as a
#: sequence of vectors or as one ``(tokens, classes)`` matrix.
PosteriorProvider = Callable[[Sequence[str]], Sequence[np.ndarray]]


@dataclass(frozen=True)
class Alignment:
    """A frame-wise label sequence tagged with its unit vocabulary."""

    frames: tuple[str, ...]
    unit: str

    def __post_init__(self):
        object.__setattr__(self, "frames", tuple(str(t) for t in self.frames))
        object.__setattr__(self, "unit", str(self.unit))


@dataclass(frozen=True)
class UnitMap:
    """Total fine-to-coarse token mapping between two unit vocabularies."""

    mapping: Mapping[str, str]
    source: str
    target: str

    def __post_init__(self):
        object.__setattr__(self, "mapping", dict(self.mapping))

    def apply(self, token: str) -> str:
        try:
            return self.mapping[token]
        except KeyError:
            raise UnmappedTokenError(token, self.source, self.target) from None


@dataclass(frozen=True)
class RunLengthAlignment:
    """Deduplicated labels plus the length of each collapsed run."""

    labels: tuple[str, ...]
    runs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "runs", tuple(int(r) for r in self.runs))
        if len(self.labels) != len(self.runs):
            raise InvalidInputError(
                f"{len(self.labels)} labels but {len(self.runs)} run lengths"
            )
        if any(r < 1 for r in self.runs):
            raise InvalidInputError("run lengths must be positive")
        if any(a == b for a, b in zip(self.labels, self.labels[1:])):
            raise InvalidInputError("deduplicated labels cannot repeat consecutively")


def map_units(a: Alignment, m: UnitMap) -> Alignment:
    """Replace every frame token by its image under the unit map."""
    if a.unit != m.source:
        raise InvalidInputError(
            f"alignment unit {a.unit!r} does not match map source {m.source!r}"
        )
    return Alignment(frames=tuple(m.apply(t) for t in a.frames), unit=m.target)


def deduplicate(a: Alignment) -> RunLengthAlignment:
    """Collapse maximal runs of equal consecutive tokens, keeping run lengths."""
    labels: list[str] = []
    runs: list[int] = []
    for token, grp in groupby(a.frames):
        labels.append(token)
        runs.append(sum(1 for _ in grp))
    return RunLengthAlignment(labels=tuple(labels), runs=tuple(runs))


def _posterior_matrix(posteriors, rla: RunLengthAlignment) -> np.ndarray:
    """Check one posterior per deduplicated token and stack them as ``(T, K)``."""
    if len(posteriors) != len(rla.labels):
        raise InvalidInputError(
            f"got {len(posteriors)} posteriors for {len(rla.labels)} "
            f"deduplicated labels"
        )
    if not len(posteriors):
        return np.empty((0, 0))
    try:
        mat = np.asarray(posteriors, dtype=np.float64)
    except (TypeError, ValueError):
        raise InvalidInputError("posteriors must be numeric vectors of one width") from None
    if mat.ndim != 2:
        raise InvalidInputError(
            f"posteriors must stack to a (tokens, classes) matrix, got shape {mat.shape}"
        )
    return as_probs(mat)


def rearrange(posteriors, rla: RunLengthAlignment) -> np.ndarray:
    """Repeat posterior i ``runs[i]`` times: a ``(frames, K)`` matrix."""
    return np.repeat(_posterior_matrix(posteriors, rla), rla.runs, axis=0)


def teacher_stream(
    a: Alignment, unit_map: Optional[UnitMap], provider: PosteriorProvider
) -> tuple[np.ndarray, tuple[int, ...]]:
    """One teacher's ``(T, K)`` token posteriors plus their ``T`` run lengths.

    The alignment is mapped into the teacher's unit (``None`` keeps it) and
    deduplicated; the provider must yield exactly one posterior per
    deduplicated token, else an error naming both lengths is raised. Repeating
    row i ``runs[i]`` times gives the frame-synchronous stream.
    """
    mapped = a if unit_map is None else map_units(a, unit_map)
    rla = deduplicate(mapped)
    return _posterior_matrix(provider(list(rla.labels)), rla), rla.runs

