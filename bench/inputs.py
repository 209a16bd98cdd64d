"""Seeded synthetic inputs for the benchmark workloads.

Every generator takes the workload seed and a work directory, writes the
input files there and returns what the output checks need. The same seed
always gives the same bytes. Nothing here imports ``distilcal``: the inputs
and the reference values must not depend on the code under test.
"""

from __future__ import annotations

import zlib
from pathlib import Path

import numpy as np

# scoring: prediction rows, class count, share of all-equal rows, n-best size.
# One repetition at these sizes takes about 5 s, so a run holds several.
PRED_ROWS = 10_000
PRED_CLASSES = 10
TIED_SHARE = 0.02
NBEST_UTTS = 2_500
NBEST_MAX_HYPS = 20

# frames: utterances, frames each, fine and coarse vocabularies, run lengths
FRAME_UTTS = 200
FRAMES_PER_UTT = 300
FINE_UNITS = 40
COARSE_UNITS = 8
MAX_RUN = 11

# training: the SweepConfig defaults, pinned in the config files, except that
# students train 10 epochs (default 25) and teachers 5 (default 15). The step
# sizes stay the defaults; fewer steps make one repetition about 7 s, so a run
# holds several and its median is not at the mercy of one slow stretch.
SCHEDULE = {
    "n_train": 2000,
    "n_test": 2000,
    "epochs": 10,
    "batch_size": 32,
    "hidden_dim": 32,
    "teacher_hidden_multiplier": 4,
    "teacher_data_multiplier": 10,
    "teacher_epochs": 5,
}


def _rng(seed: int, stream: str) -> np.random.Generator:
    """One independent stream per input file, so files never shift each other."""
    return np.random.default_rng([int(seed), zlib.crc32(stream.encode("utf-8"))])


def _write(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def simplex6(probs: np.ndarray) -> list[str]:
    """Rows rounded to six decimals whose decimal digits sum to exactly 1.

    Plain rounding of a 40-class row misses 1 by up to ~2e-5, beyond the
    1e-6 that posterior files may deviate; the rounding error is moved onto
    each row's largest entry, in integer millionths, instead.
    """
    q = np.rint(probs * 1_000_000).astype(np.int64)
    rows = np.arange(q.shape[0])
    q[rows, q.argmax(axis=1)] += 1_000_000 - q.sum(axis=1)
    return [" ".join(f"{v // 1_000_000}.{v % 1_000_000:06d}" for v in row) for row in q.tolist()]


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def scoring_inputs(seed: int, work: Path) -> dict:
    """Prediction file (``preds.jsonl``) and n-best file (``hyps.jsonl``).

    Logits are rounded to four decimals and about 2% of rows have all-equal
    logits, so rank selection meets exact ties. About 10% of utterances carry
    a hypothesis that duplicates another one's scores, so re-ranking meets
    exact ties too.
    """
    rng = _rng(seed, "predictions")
    labels = rng.integers(0, PRED_CLASSES, PRED_ROWS)
    logits = rng.normal(0.0, 1.5, (PRED_ROWS, PRED_CLASSES))
    logits[np.arange(PRED_ROWS), labels] += rng.gamma(2.0, 1.0, PRED_ROWS)
    tied = rng.random(PRED_ROWS) < TIED_SHARE
    logits[tied] = rng.normal(0.0, 1.0, (int(tied.sum()), 1))
    _write(
        work / "preds.jsonl",
        [
            '{"logits": [' + ", ".join(f"{v:.4f}" for v in row) + f'], "label": {y}}}'
            for row, y in zip(logits.tolist(), labels.tolist())
        ],
    )

    rng = _rng(seed, "nbest")
    lines = []
    for u in range(NBEST_UTTS):
        count = int(rng.integers(1, NBEST_MAX_HYPS + 1))
        am = np.round(-rng.uniform(5.0, 50.0, count), 2)
        lm = np.round(-rng.uniform(1.0, 20.0, count), 2)
        if count > 1 and rng.random() < 0.1:
            src, dst = rng.choice(count, 2, replace=False)
            am[dst], lm[dst] = am[src], lm[src]
        for h in range(count):
            lines.append(
                f'{{"utt": "u{u:05d}", "id": "h{h:02d}", '
                f'"am_logp": {am[h]:.2f}, "lm_logp": {lm[h]:.2f}}}'
            )
    _write(work / "hyps.jsonl", lines)
    return {"pred_rows": PRED_ROWS, "hyp_lines": len(lines)}


def _runs(rng: np.random.Generator, frames: int, vocab: int) -> list[int]:
    """Frame tokens made of runs of uniform length 1..MAX_RUN, cut at ``frames``."""
    out: list[int] = []
    while len(out) < frames:
        out.extend([int(rng.integers(vocab))] * int(rng.integers(1, MAX_RUN + 1)))
    return out[:frames]


def _dedup(tokens: list[int]) -> list[int]:
    return [t for i, t in enumerate(tokens) if i == 0 or t != tokens[i - 1]]


def _posterior_rows(rng: np.random.Generator, tokens: list[int], vocab: int) -> list[str]:
    z = rng.normal(0.0, 1.0, (len(tokens), vocab))
    z[np.arange(len(tokens)), tokens] += 3.0
    return simplex6(_softmax(z))


def frames_inputs(seed: int, work: Path) -> dict:
    """Alignment, a 40->8 unit map and one posterior file per teacher.

    Teacher t0 shares the alignment's 40-unit vocabulary; teacher t1 sees the
    8-unit coarse vocabulary through the map. Returns, per utterance, the
    frame tokens and each teacher's posterior row for every frame, as the
    targets file must print them.
    """
    rng = _rng(seed, "frames")
    coarse_of = rng.permutation(np.arange(FINE_UNITS) % COARSE_UNITS).tolist()
    _write(work / "map.tsv", [f"p{f:02d}\tc{coarse_of[f]}" for f in range(FINE_UNITS)])

    align, fine_post, coarse_post = [], [], []
    expected = []
    for u in range(FRAME_UTTS):
        utt = f"u{u:04d}"
        fine = _runs(rng, FRAMES_PER_UTT, FINE_UNITS)
        coarse = [coarse_of[t] for t in fine]
        align.append(f"{utt}\t" + " ".join(f"p{t:02d}" for t in fine))
        per_teacher = []
        for tokens, vocab, out in ((fine, FINE_UNITS, fine_post), (coarse, COARSE_UNITS, coarse_post)):
            dedup = _dedup(tokens)
            rows = _posterior_rows(rng, dedup, vocab)
            out.extend(f"{utt}\t{i}\t{row}" for i, row in enumerate(rows))
            per_teacher.append([row.replace(" ", ",") for row in _repeat_by_run(rows, tokens)])
        expected.append((utt, [f"p{t:02d}" for t in fine], per_teacher))
    _write(work / "align.tsv", align)
    _write(work / "post_fine.tsv", fine_post)
    _write(work / "post_coarse.tsv", coarse_post)
    return {"frames": FRAME_UTTS * FRAMES_PER_UTT, "expected": expected}


def _repeat_by_run(rows: list[str], tokens: list[int]) -> list[str]:
    out, j = [], -1
    for i, t in enumerate(tokens):
        if i == 0 or t != tokens[i - 1]:
            j += 1
        out.append(rows[j])
    return out


def training_inputs(seed: int, work: Path) -> dict:
    """``train.cfg`` and ``sweep.cfg``; the seed picks the task, data and init.

    The schedule is written out in full (the ``SweepConfig`` defaults), so the
    amount of work stays fixed even if those defaults change.
    """
    common = [f"task_seed={seed}", "hierarchical=true"]
    common += [f"{k}={v}" for k, v in SCHEDULE.items()]
    _write(
        work / "train.cfg",
        ["method=multitask", "lambda=0.5", f"seed={seed}", "out=model.json", *common],
    )
    _write(
        work / "sweep.cfg",
        ["methods=lst,multitask", "lambdas=0.2,0.5,0.8", f"seeds={seed}", "out=sweep.csv", *common],
    )
    return {"methods": ["lst", "multitask"], "lambdas": [0.2, 0.5, 0.8], "seed": seed}


def training_samples(students: int, teachers: int) -> int:
    """SGD samples times epochs for a run that trains these networks."""
    s = SCHEDULE
    per_teacher = s["n_train"] * s["teacher_data_multiplier"] * s["teacher_epochs"]
    return teachers * per_teacher + students * s["n_train"] * s["epochs"]
