"""Tests of the benchmark's tracer, on small inputs.

    python3 -m pytest -q bench/test_tracer.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

import distilcal.cli  # noqa: E402,F401  (``run.call`` looks it up in sys.modules)


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload so one pass takes well under a second."""
    monkeypatch.setattr(inputs, "PRED_ROWS", 600)
    monkeypatch.setattr(inputs, "NBEST_UTTS", 40)
    monkeypatch.setattr(inputs, "FRAME_UTTS", 6)
    monkeypatch.setattr(inputs, "FRAMES_PER_UTT", 50)
    schedule = dict(inputs.SCHEDULE, n_train=120, n_test=100, epochs=2, teacher_data_multiplier=2, teacher_epochs=1)
    monkeypatch.setattr(inputs, "SCHEDULE", schedule)


def _commands(tmp_path: Path, seed: int = 3) -> list[tuple[Path, run.Command]]:
    out = []
    for name, build in run.WORKLOADS.items():
        work = tmp_path / name
        work.mkdir()
        out += [(work, cmd) for cmd in build(seed, work)]
    return out


def test_self_time_is_duration_minus_children():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 10.0, 11.5])
    t = tracer.Tracer(clock=lambda: next(ticks))
    inner = t.wrap("probs", "inner", lambda: None)
    middle = t.wrap("toy", "middle", lambda: inner())
    outer = t.wrap("cli", "outer", lambda: middle())
    outer()  # spans [0, 6] > [1, 5] > [2, 3]
    inner()  # a root span [10, 11.5]
    assert t.self_s == dict(dict.fromkeys(tracer.MODULES, 0.0), cli=2.0, toy=3.0, probs=2.5)
    assert t.calls == dict(dict.fromkeys(tracer.MODULES, 0), cli=1, toy=1, probs=2)
    assert t.roots == [(0.0, 6.0), (10.0, 11.5)]


def test_module_self_times_plus_untraced_time_sum_to_wall(small, tmp_path):
    commands = _commands(tmp_path)
    t = tracer.Tracer()
    start = time.perf_counter()
    with tracer.traced(t):
        for work, cmd in commands:
            assert run.call(cmd.argv, work).code == 0
    wall = time.perf_counter() - start

    untraced = wall - sum(end - begin for begin, end in t.roots)
    assert 0.0 < untraced < wall
    assert sum(t.self_s.values()) + untraced == pytest.approx(wall, rel=1e-9)
    assert all(v >= 0.0 for v in t.self_s.values())
    metrics = t.metrics()
    assert metrics["cli.calls"] == len(commands)
    assert metrics["tempscale.nll_evals"] > 0 and metrics["toy.train_steps"] > 0
    assert metrics["alignment.tokens"] > 0 and metrics["fileio.bytes_written"] > 0


def test_outputs_are_byte_identical_with_tracing_on_and_off(small, tmp_path):
    commands = _commands(tmp_path)
    ledgers = {work: run.Ledger(work) for work, _ in commands}
    for work, cmd in commands:
        ledgers[work].record(cmd, run.spawn(cmd.argv, work, limit=60.0), "untraced child")
    counts = []
    for _ in range(2):
        t = tracer.Tracer()
        with tracer.traced(t):
            for work, cmd in commands:
                ledgers[work].record(cmd, run.call(cmd.argv, work), "traced")
        counts.append({k: v for k, v in t.metrics().items() if not k.endswith(("_s", "_us"))})

    problems = [p for ledger in ledgers.values() for p in ledger.problems]
    assert problems == []
    assert sum(ledger.attempted for ledger in ledgers.values()) == 3 * len(commands)
    assert counts[0] == counts[1]
    # Tracing is undone on exit.
    assert distilcal.cli.ece.__module__ == "distilcal.calibration"
    assert not hasattr(distilcal.cli.ece, "__wrapped__")
