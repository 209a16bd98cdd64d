"""Output checks against references that do not call ``distilcal``.

Each check takes the command's stdout, the file the command wrote (if any)
and the parsed inputs, and returns a list of problems; an empty list means
the output is correct. The references
re-derive every number from the input files with plain NumPy, following the
contracts in the README (stable ties to the lower index, equal-count bins in
stable confidence order, ties in file order).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

#: Six-decimal output rounds by at most 5e-7; the rest is summation order.
PRINT_TOL = 1e-6


def _fields(line: str) -> dict[str, str]:
    return dict(part.split("=", 1) for part in line.split() if "=" in part)


def _numbers(line: str, keys: tuple[str, ...]) -> dict[str, float] | None:
    fields = _fields(line)
    try:
        return {k: float(fields[k]) for k in keys}
    except (KeyError, ValueError):
        return None


def read_predictions(path: Path) -> tuple[np.ndarray, np.ndarray]:
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    return (
        np.array([r["logits"] for r in records], dtype=np.float64),
        np.array([r["label"] for r in records]),
    )


def softmax(logits: np.ndarray, t: float = 1.0) -> np.ndarray:
    z = (logits - logits.max(axis=1, keepdims=True)) / t
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def reference_bins(probs: np.ndarray, labels: np.ndarray, rank: int, bins: int) -> list[tuple]:
    """(count, mean_conf, mean_acc) per equal-count bin of rank-N confidence."""
    order = np.argsort(-probs, axis=1, kind="stable")[:, rank - 1]
    rows = np.arange(len(labels))
    conf = probs[rows, order]
    correct = (order == labels).astype(np.float64)
    by_conf = np.argsort(conf, kind="stable")
    base, rem = divmod(len(labels), bins)
    out, start = [], 0
    for i in range(bins):
        size = base + (1 if i < rem else 0)
        if size:
            idx = by_conf[start : start + size]
            out.append((size, conf[idx].mean(), correct[idx].mean()))
            start += size
    return out


def reference_ece(probs, labels, rank: int, bins: int, group: int | None = None):
    """Total calibration error and the reliability rows, chunked if ``group``."""
    n = len(labels)
    size = group or n
    rows = []
    for s in range(0, n, size):
        rows += reference_bins(probs[s : s + size], labels[s : s + size], rank, bins)
    total = sum(count / n * abs(acc - conf) for count, conf, acc in rows)
    return total, rows


def reference_nll(logits: np.ndarray, labels: np.ndarray, t: float) -> float:
    z = logits / t
    z = z - z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    return float(np.mean(lse - z[np.arange(len(labels)), labels]))


def check_ece(stdout: str, csv_path: Path, preds, rank: int, bins: int, group=None) -> list[str]:
    logits, labels = preds
    want, want_rows = reference_ece(softmax(logits), labels, rank, bins, group)
    got = _numbers(stdout.strip(), ("rank", "bins", "ece", "n"))
    if got is None:
        return [f"unparsable ece stdout {stdout.strip()!r}"]
    problems = []
    if (got["rank"], got["bins"], got["n"]) != (rank, bins, len(labels)):
        problems.append(f"ece stdout header {stdout.strip()!r}")
    if abs(got["ece"] - want) > PRINT_TOL:
        problems.append(f"rank-{rank} ece {got['ece']} != reference {want:.8f}")
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    if lines[0] != "rank,bin,count,mean_conf,mean_acc,gap" or len(lines) - 1 != len(want_rows):
        return problems + [f"reliability csv has {len(lines) - 1} rows, want {len(want_rows)}"]
    for i, (line, (count, conf, acc)) in enumerate(zip(lines[1:], want_rows)):
        r, b, c, mc, ma, gap = line.split(",")
        if (int(r), int(b), int(c)) != (rank, i, count) or max(
            abs(float(mc) - conf), abs(float(ma) - acc), abs(float(gap) - (acc - conf))
        ) > PRINT_TOL:
            problems.append(f"reliability row {i} {line!r} differs from reference")
            break
    return problems


def check_fit_temp(stdout: str, preds, bins: int) -> list[str]:
    logits, labels = preds
    got = _numbers(stdout.strip(), ("t_star", "nll_before", "nll_after", "ece_before", "ece_after"))
    if got is None:
        return [f"unparsable fit-temp stdout {stdout.strip()!r}"]
    problems = []
    if not got["nll_after"] <= got["nll_before"]:
        problems.append(f"nll_after {got['nll_after']} > nll_before {got['nll_before']}")
    if abs(reference_nll(logits, labels, 1.0) - got["nll_before"]) > PRINT_TOL:
        problems.append(f"nll_before {got['nll_before']} differs from reference")
    # t_star is printed to 6 decimals; at an interior optimum the NLL is flat,
    # at a bound its slope is O(1), so the rounding moves the NLL by < 1e-6.
    at_t = reference_nll(logits, labels, got["t_star"])
    if abs(at_t - got["nll_after"]) > 2 * PRINT_TOL:
        problems.append(f"nll_after {got['nll_after']} != reference {at_t:.8f} at t_star")
    ece1, _ = reference_ece(softmax(logits), labels, 1, bins)
    if abs(ece1 - got["ece_before"]) > PRINT_TOL:
        problems.append(f"ece_before {got['ece_before']} != reference {ece1:.8f}")
    return problems


def read_hypotheses(path: Path) -> dict[str, list[tuple[str, float, float]]]:
    groups: dict[str, list] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        h = json.loads(line)
        groups.setdefault(h["utt"], []).append((h["id"], h["am_logp"], h["lm_logp"]))
    return groups


def check_combine(stdout: str, hyps, t1: float, t2: float) -> list[str]:
    lines = stdout.rstrip("\n").split("\n")
    pos = 0
    for utt, group in hyps.items():
        scores = [am / t1 + lm / t2 for _, am, lm in group]
        # sorted() is stable, so equal scores keep file order
        ranked = sorted(range(len(group)), key=lambda i: -scores[i])
        want_best = f"{utt}\tbest\t{group[ranked[0]][0]}"
        if pos >= len(lines) or lines[pos] != want_best:
            got = lines[pos] if pos < len(lines) else "<end of output>"
            return [f"combine best line {got!r}, reference {want_best!r}"]
        for rank, i in enumerate(ranked, start=1):
            parts = lines[pos + rank].split("\t")
            if (
                parts[:3] != [utt, str(rank), group[i][0]]
                or abs(float(parts[3]) - scores[i]) > PRINT_TOL
            ):
                return [f"combine ranking line {lines[pos + rank]!r} differs from reference"]
        pos += len(group) + 1
    if pos != len(lines):
        return [f"combine printed {len(lines)} lines, reference {pos}"]
    return []


def check_targets(stdout: str, out_path: Path, expected: list) -> list[str]:
    frames = sum(len(hard) for _, hard, _ in expected)
    if stdout.strip() != f"utterances={len(expected)} frames={frames} teachers=2":
        return [f"targets stdout {stdout.strip()!r}"]
    lines = out_path.read_text(encoding="utf-8").split("\n")
    if lines[-1] != "" or len(lines) - 1 != frames:
        return [f"targets file has {len(lines) - 1} lines, want {frames}"]
    i = 0
    for utt, hard, (fine, coarse) in expected:
        for f, label in enumerate(hard):
            cells = lines[i].split("\t")
            i += 1
            if cells[:3] != [utt, str(f), label]:
                return [f"targets line {i}: key/hard label {cells[:3]} != {[utt, str(f), label]}"]
            for tid, cell, want in zip(("t0", "t1"), cells[3:], (fine[f], coarse[f])):
                tag, _, values = cell.partition(":")
                probs = values.split(",")
                # each six-decimal entry is off by at most half a millionth
                micro = sum(int(v.replace(".", "")) for v in probs)
                if tag != tid or abs(micro - 1_000_000) > len(probs) / 2:
                    return [f"targets line {i}: {tid} row does not sum to 1"]
                if values != want:
                    return [f"targets line {i}: {tid} row differs from the posterior file"]
            if len(cells) != 5:
                return [f"targets line {i}: {len(cells)} cells, want 5"]
    return []


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def check_train(stdout: str, model_path: Path, epochs: int) -> list[str]:
    got = _numbers(stdout.strip(), ("acc", "ece1", "ece2", "ece3"))
    if got is None or _fields(stdout).get("method") != "multitask":
        return [f"unparsable train stdout {stdout.strip()!r}"]
    if not _finite(got.values()) or not all(0.0 <= v <= 1.0 for v in got.values()):
        return [f"train metrics out of range: {got}"]
    model = json.loads(model_path.read_text(encoding="utf-8"))
    problems = []
    if not _finite(model["params"]) or not _finite(model["metrics"].values()):
        problems.append("model has non-finite parameters or metrics")
    if len(model["loss_curve"]) != epochs or not _finite(model["loss_curve"]):
        problems.append("model loss curve is not one finite value per epoch")
    return problems


def check_sweep(stdout: str, csv_path: Path, methods, lambdas, seed: int) -> list[str]:
    if stdout.strip() != "rows=6 out=sweep.csv":
        return [f"sweep stdout {stdout.strip()!r}"]
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    want_keys = [(m, f"{lam:.6f}", str(seed)) for m in methods for lam in lambdas]
    if lines[0] != "method,lambda,seed,acc,ece1,ece2,ece3" or len(lines) != 7:
        return [f"sweep csv has {len(lines) - 1} rows, want 6"]
    for line, key in zip(lines[1:], want_keys):
        cells = line.split(",")
        values = [float(v) for v in cells[3:]]
        if tuple(cells[:3]) != key or not _finite(values) or not all(0 <= v <= 1 for v in values):
            return [f"sweep row {line!r} is not a finite row for {key}"]
    return []
