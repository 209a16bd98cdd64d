"""Benchmark of the ``distilcal`` command line, end to end and per module.

    python3 bench/run.py --workload scoring --seed 1 --seconds 25 --trace 0

With ``--trace 0`` every command runs as a fresh ``python -m distilcal.cli``
child, one at a time, and the run reports the end-to-end metrics declared in
``BENCHMARK.json``. With ``--trace 1`` the same commands run in this process
through ``distilcal.cli.main``, alternately as is and with every public
function of the library wrapped by ``tracer``, and the run reports the
per-layer metrics. Either way the command sequence repeats for as long as
another repetition fits in ``--seconds``, every output is checked against a
reference that does not call the library, and the last line of stdout is one
JSON object. Inputs are generated from ``--seed`` under ``.bench_work/``.
See ``bench/README.md`` for why each workload exists and what each metric
should move.
"""

from __future__ import annotations

import os

# Pinned before NumPy loads, for this process and every child it starts.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import argparse
import contextlib
import hashlib
import io
import json
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs
import tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
#: ``--version`` starts timed per run, at least; their median is ``setup_s``.
#: One comes before each repetition, so that set-up is timed across the whole
#: run and meets the same host speed as the commands; the rest come last.
SETUP_STARTS = 11
#: Children still running this long after the run began are killed and fail.
RUN_LIMIT_S = 170.0


def fits(times: list[float], seconds: float) -> bool:
    """Whether one more repetition, as long as the median one so far, fits in ``seconds``.

    Stopping before a repetition that would overrun keeps every run close to
    ``seconds`` long, however long one repetition of the workload takes.
    """
    return not times or sum(times) + statistics.median(times) <= seconds


class Terminated(BaseException):
    """SIGTERM, raised so that a running child is killed and reaped first."""


def _terminate(signum, frame):
    raise Terminated(signum)


@dataclass
class Command:
    """One CLI invocation of a workload, with what it writes and how to check it."""

    metric: str
    argv: list[str]
    outputs: list[str]
    items: int
    check: Callable[[str], list[str]]


@dataclass
class Invocation:
    code: int
    seconds: float
    stdout: str
    stderr: str
    rss_mb: float = 0.0


# ---------------------------------------------------------------- workloads

def scoring(seed: int, work: Path) -> list[Command]:
    info = inputs.scoring_inputs(seed, work)
    preds = checks.read_predictions(work / "preds.jsonl")
    hyps = checks.read_hypotheses(work / "hyps.jsonl")
    rows = info["pred_rows"]
    ece = ["ece", "--input", "preds.jsonl", "--bins", "15"]
    return [
        Command(
            "ece_s",
            [*ece, "--rank", "1", "--out", "ece_rank1.csv"],
            ["ece_rank1.csv"],
            rows,
            lambda out: checks.check_ece(out, work / "ece_rank1.csv", preds, 1, 15),
        ),
        Command(
            "ece_grouped_s",
            [*ece, "--rank", "2", "--group", "batch:1000", "--out", "ece_rank2.csv"],
            ["ece_rank2.csv"],
            rows,
            lambda out: checks.check_ece(out, work / "ece_rank2.csv", preds, 2, 15, 1000),
        ),
        Command(
            "fit_temp_s",
            ["fit-temp", "--val", "preds.jsonl"],
            [],
            rows,
            lambda out: checks.check_fit_temp(out, preds, 15),
        ),
        Command(
            "combine_s",
            ["combine", "--hyps", "hyps.jsonl", "--t1", "1", "--t2", "4"],
            [],
            info["hyp_lines"],
            lambda out: checks.check_combine(out, hyps, 1.0, 4.0),
        ),
    ]


def frames(seed: int, work: Path) -> list[Command]:
    info = inputs.frames_inputs(seed, work)
    argv = ["targets", "--align", "align.tsv", "--map", "identity", "--map", "map.tsv"]
    argv += ["--posteriors", "post_fine.tsv", "--posteriors", "post_coarse.tsv", "--out", "targets.tsv"]
    return [
        Command(
            "targets_s",
            argv,
            ["targets.tsv"],
            info["frames"],
            lambda out: checks.check_targets(out, work / "targets.tsv", info["expected"]),
        )
    ]


def training(seed: int, work: Path) -> list[Command]:
    info = inputs.training_inputs(seed, work)
    epochs = inputs.SCHEDULE["epochs"]
    return [
        Command(
            "train_s",
            ["train", "--config", "train.cfg"],
            ["model.json"],
            inputs.training_samples(students=1, teachers=2),
            lambda out: checks.check_train(out, work / "model.json", epochs),
        ),
        Command(
            "sweep_s",
            ["sweep", "--config", "sweep.cfg"],
            ["sweep.csv"],
            inputs.training_samples(students=6, teachers=2),
            lambda out: checks.check_sweep(
                out, work / "sweep.csv", info["methods"], info["lambdas"], seed
            ),
        ),
    ]


WORKLOADS = {"scoring": scoring, "frames": frames, "training": training}


# ---------------------------------------------------------------- invoking

def spawn(argv: list[str], work: Path, limit: float) -> Invocation:
    """Run one ``python -m distilcal.cli`` child; its own max RSS via wait4."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(work / ".stdout", "w+b") as out, open(work / ".stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "distilcal.cli", *argv], cwd=work, env=env, stdout=out, stderr=err
        )
        killer = threading.Timer(max(limit, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Invocation(
            proc.returncode,
            seconds,
            out.read().decode("utf-8", "replace"),
            err.read().decode("utf-8", "replace"),
            usage.ru_maxrss / 1024.0,
        )


def call(argv: list[str], work: Path) -> Invocation:
    """Run ``distilcal.cli.main`` in this process, looked up at call time so tracing applies."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = sys.modules["distilcal.cli"].main(argv)
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 1
        seconds = time.perf_counter() - start
    finally:
        os.chdir(cwd)
    return Invocation(code, seconds, out.getvalue(), err.getvalue())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Ledger:
    """Counts invocations and failures; the first run of a command is checked
    against the reference, every later run must repeat its bytes exactly."""

    work: Path
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, dict[str, str]] = field(default_factory=dict)

    def record(self, cmd: Command, inv: Invocation, label: str) -> None:
        self.attempted += 1
        problems = []
        if inv.code != 0:
            problems.append(f"exit {inv.code}: {inv.stderr.strip()[-300:]}")
        else:
            digest = {"stdout": sha256(inv.stdout.encode("utf-8"))}
            digest.update({name: sha256((self.work / name).read_bytes()) for name in cmd.outputs})
            if cmd.metric not in self.digests:
                self.digests[cmd.metric] = digest
                problems += cmd.check(inv.stdout)
            elif digest != self.digests[cmd.metric]:
                problems.append("output bytes differ from the first run")
        if problems:
            self.failed += 1
            self.problems += [f"{label} {cmd.metric}: {p}" for p in problems]

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


# ---------------------------------------------------------------- runs

def timed_run(commands: list[Command], work: Path, seconds: float, began: float, ledger: Ledger):
    """End-to-end metrics from fresh children, tracing off."""
    version = Command("setup_s", ["--version"], [], 0, lambda out: [] if out.startswith("distilcal ") else [f"version {out!r}"])

    def limit() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - began)

    # The first start may compile bytecode, which users pay once per install.
    ledger.record(version, spawn(version.argv, work, limit()), "warm-up")
    setup = []

    def set_up() -> None:
        inv = spawn(version.argv, work, limit())
        ledger.record(version, inv, "setup")
        setup.append(inv.seconds)

    walls, per_command, rss = [], {c.metric: [] for c in commands}, []
    while fits(walls, seconds) and limit() > 0:
        set_up()
        start = time.perf_counter()
        done = [(cmd, spawn(cmd.argv, work, limit())) for cmd in commands]
        walls.append(time.perf_counter() - start)
        for cmd, inv in done:
            ledger.record(cmd, inv, f"rep {len(walls)}")
            per_command[cmd.metric].append(inv.seconds)
            rss.append(inv.rss_mb)
    while len(setup) < SETUP_STARTS and limit() > 0:
        set_up()

    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "items_per_s": sum(c.items for c in commands) / wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(rss),
        "success_ratio": 1.0 - ledger.failed / ledger.attempted,
    }
    detail = {name: statistics.median(v) for name, v in per_command.items()}
    detail["failed_ratio"] = ledger.failed / ledger.attempted
    return metrics, detail, {"reps": len(walls), "walls_s": walls, "setup_s": setup}


def traced_run(commands: list[Command], work: Path, seconds: float, began: float, ledger: Ledger):
    """Per-layer metrics: in-process passes alternating untraced and traced."""
    sys.path.insert(0, str(SRC))
    import distilcal.cli  # noqa: F401  (bound in sys.modules for ``call``)

    def one_pass() -> tuple[float, list]:
        start = time.perf_counter()
        done = [(cmd, call(cmd.argv, work)) for cmd in commands]
        return time.perf_counter() - start, done

    untraced, traced, tracers = [], [], []
    pairs: list[float] = []
    while fits(pairs, seconds) and time.perf_counter() - began < RUN_LIMIT_S:
        # Alternate which side goes first, so warm-up favours neither.
        t = tracer.Tracer()
        for side in ("untraced", "traced") if len(traced) % 2 == 0 else ("traced", "untraced"):
            if side == "traced":
                with tracer.traced(t):
                    wall, done = one_pass()
                traced.append(wall)
            else:
                wall, plain = one_pass()
                untraced.append(wall)
        tracers.append(t)
        pairs.append(untraced[-1] + traced[-1])
        for label, results in (("untraced", plain), ("traced", done)):
            for cmd, inv in results:
                ledger.record(cmd, inv, f"{label} pass {len(traced)}")

    per_pass = [t.metrics() for t in tracers]
    metrics = {}
    for name, value in per_pass[0].items():
        if name.endswith(("_s", "_us")):
            metrics[name] = statistics.median(p[name] for p in per_pass)
        else:
            metrics[name] = value
            if any(p[name] != value for p in per_pass):
                ledger.fail(f"count {name} differs between traced passes")
    metrics["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced, untraced))
    functions = {
        name: {"calls": calls, "self_s": self_s}
        for name, (calls, self_s) in sorted(tracers[0].functions.items())
        if calls
    }
    return metrics, {}, {"passes": len(traced), "untraced_s": untraced, "traced_s": traced, "functions": functions}


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "children": "one at a time",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.perf_counter()
    signal.signal(signal.SIGTERM, _terminate)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "distilcal" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: need {SRC / 'distilcal'} and {spec_path}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    commands = WORKLOADS[args.workload](args.seed, work)
    ledger = Ledger(work)
    run = traced_run if args.trace else timed_run
    metrics, detail, extra = run(commands, work, args.seconds, began, ledger)
    if set(metrics) != set(declared):
        print(f"error: measured {sorted(set(metrics) ^ set(declared))} out of step with {spec_path.name}", file=sys.stderr)
        return 1

    env = environment()
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} " + " ".join(
        f"{k}={v}" for k, v in extra.items() if isinstance(v, int)
    ))
    print("env " + " ".join(f"{k}={v}" for k, v in env.items() if k != "threads") + " threads=" + ",".join(
        f"{k}={v}" for k, v in env["threads"].items()
    ))
    for name, value in {**metrics, **detail}.items():
        unit = declared.get(name, "ratio" if name.endswith("_ratio") else "s")
        print(f"  {name:<28} {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    for name, digest in ledger.digests.items():
        for target, h in digest.items():
            print(f"sha256 {name} {target} {h}")
    for problem in ledger.problems:
        print(f"FAILED {problem}")

    record = {"args": vars(args), "env": env, "metrics": metrics, "detail": detail, "sha256": ledger.digests,
              "problems": ledger.problems, **extra}
    (work / "record.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": declared[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Terminated:
        sys.exit(128 + signal.SIGTERM)
