"""Command-line front end: every pipeline stage behind a stable subcommand.

Exit codes: 0 on success, 2 on malformed input or bad parameters, 1 on
internal errors, 141 when the reader of stdout closes it early. Diagnostics
go to stderr; data goes to files or stdout. Output files are written
atomically and are byte-stable across runs.
"""

from __future__ import annotations

import argparse
import atexit
import dataclasses
import gc
import os
import sys
from typing import Optional, Sequence

from . import __version__
from .alignment import target_lines
from .calibration import _fmt6, ece, reliability_csv
from .errors import DistilcalError, InvalidInputError, InvalidParameterError
from .fileio import (
    _float,
    _int,
    read_alignment_file,
    read_config_file,
    read_hypothesis_file,
    read_posterior_file,
    read_prediction_file,
    read_unit_map_file,
    write_text_atomic,
)
from .probs import softmax_t
from .tempscale import DEFAULT_BOUNDS, combine_ranking, fit_summary


# ---------------------------------------------------------------- ece

def _parse_group(spec: str) -> Optional[int]:
    """'pooled' -> None, 'batch:SIZE' -> SIZE, in ASCII digits (``ece`` rejects 0)."""
    if spec == "pooled":
        return None
    size = spec.removeprefix("batch:")
    if size != spec and not size.startswith("-"):
        try:
            return _int(size)
        except ValueError:  # not ASCII digits, or more than ``int`` converts
            pass
    raise InvalidParameterError(f"--group must be 'pooled' or 'batch:SIZE', got {spec!r}")


def _cmd_ece(args) -> None:
    logits, labels = read_prediction_file(args.input)
    report = ece(softmax_t(logits), labels, args.rank, args.bins, _parse_group(args.group))
    write_text_atomic(args.out, (reliability_csv(report),))
    print(f"rank={args.rank} bins={args.bins} ece={_fmt6(report.ece)} n={report.n_total}")


# ---------------------------------------------------------------- fit-temp / combine

def _cmd_fit_temp(args) -> None:
    print(fit_summary(*read_prediction_file(args.val), (args.t_min, args.t_max), args.bins))


def _cmd_combine(args) -> None:
    # print's newline is a second write: one write cut short by a closed pipe raises nothing
    print(combine_ranking(read_hypothesis_file(args.hyps), args.t1, args.t2))


# ---------------------------------------------------------------- targets

def _cmd_targets(args) -> None:
    alignments = read_alignment_file(args.align)
    posts = args.posteriors or []
    maps = args.map or ["identity"] * len(posts)
    if len(maps) != len(posts):
        raise InvalidInputError(
            f"got {len(maps)} --map but {len(posts)} --posteriors"
        )
    lines = target_lines(alignments, [
        (f"t{i}", None if map_path == "identity" else read_unit_map_file(map_path),
         read_posterior_file(post_path))
        for i, (map_path, post_path) in enumerate(zip(maps, posts))
    ])
    write_text_atomic(args.out, lines)
    print(f"utterances={len(alignments.utts)} frames={len(alignments.codes)} teachers={len(posts)}")


# ---------------------------------------------------------------- train / sweep

_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}

#: Value parser per SweepConfig annotation, as written (``toy`` postpones
#: annotations); a bad value raises KeyError or ValueError.
_PARSERS = {
    "int": _int,
    "float": _float,
    "bool": lambda v: _BOOLS[v.lower()],
    "Optional[int]": lambda v: None if v.lower() == "none" else _int(v),
}

#: Train config keys that set a TrainConfig field, and the field they set.
_TRAIN_FLOATS = {"lambda": "lam", "epsilon": "epsilon", "temperature": "temperature"}
_TRAIN_ONLY_KEYS = {"method", "seed", "out", *_TRAIN_FLOATS}
_SWEEP_ONLY_KEYS = {"lambdas", "methods", "seeds", "out"}
#: ``_cast``'s default: the key must be given.
_REQUIRED = object()


def _cast(cfg: dict[str, str], key: str, cast=str, default=_REQUIRED):
    """The one reader of a config value: ``cast(cfg[key])``, or ``default`` if absent."""
    if key not in cfg:
        if default is _REQUIRED:
            raise InvalidInputError(f"config key {key!r} is required")
        return default
    try:
        return cast(cfg[key])
    except (KeyError, ValueError):
        raise InvalidInputError(f"bad value for config key {key!r}: {cfg[key]!r}") from None


def _list(cast):
    """Parser of a comma-separated list of ``cast`` values; empty parts are skipped."""
    return lambda text: [cast(part.strip()) for part in text.split(",") if part.strip()]


def _check_values(key: str, values, ok, rule: str) -> None:
    """Reject the first of ``values`` that fails ``ok``, naming config key ``key``."""
    for value in values:
        if not ok(value):
            raise InvalidParameterError(f"config key {key!r}: {rule}, got {value}")


def _unit_interval(value: float) -> bool:
    return 0.0 <= value <= 1.0


def _build_sweep_config(cfg: dict[str, str], extra_keys: set[str]):
    # ``toy`` is imported here, and only by the commands that train, so that
    # the others start without compiling it.
    from .toy import SweepConfig

    sweep_keys = {f.name: _PARSERS[f.type] for f in dataclasses.fields(SweepConfig)}
    unknown = set(cfg) - set(sweep_keys) - extra_keys
    if unknown:
        raise InvalidInputError(f"unknown config keys: {sorted(unknown)}")
    return SweepConfig(
        **{key: _cast(cfg, key, parse) for key, parse in sweep_keys.items() if key in cfg}
    )


def _cmd_train(args) -> None:
    from .toy import train_model

    cfg = read_config_file(args.config)
    scfg = _build_sweep_config(cfg, _TRAIN_ONLY_KEYS)
    method = _cast(cfg, "method")
    out_path = _cast(cfg, "out")
    seed = _cast(cfg, "seed", _int, 0)
    overrides = {f: _cast(cfg, key, _float) for key, f in _TRAIN_FLOATS.items() if key in cfg}
    if "lam" in overrides:
        _check_values("lambda", [overrides["lam"]], _unit_interval, "lambda must be in [0, 1]")
    model, line = train_model(scfg, method, seed, **overrides)
    write_text_atomic(out_path, (model,))
    print(line)


def _cmd_sweep(args) -> None:
    from .toy import sweep_csv, sweep_lambda

    cfg = read_config_file(args.config)
    scfg = _build_sweep_config(cfg, _SWEEP_ONLY_KEYS)
    out_path = _cast(cfg, "out")
    lambdas = _cast(cfg, "lambdas", _list(_float))
    methods = _cast(cfg, "methods", _list(str))
    seeds = _cast(cfg, "seeds", _list(_int))
    _check_values("seeds", seeds, lambda seed: seed >= 0, "seed must be >= 0")
    _check_values("lambdas", lambdas, _unit_interval, "lambda must be in [0, 1]")
    rows = sweep_lambda(scfg, lambdas, methods, seeds)
    write_text_atomic(out_path, (sweep_csv(rows),))
    print(f"rows={len(rows)} out={out_path}")


# ---------------------------------------------------------------- wiring

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distilcal",
        description="Distillation targets, calibration measurement, and temperature scaling.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text, description=help_text)
        # ``type=int``/``float`` parse by the one number rule, named int/float in errors
        p.register("type", int, _int)
        p.register("type", float, _float)
        p.add_argument("--version", action="version", version=f"distilcal {__version__}")
        p.set_defaults(func=func)
        return p

    p = add("ece", _cmd_ece, "Reliability CSV and calibration error for one rank.")
    p.add_argument("--input", required=True, help="JSON-lines prediction file")
    p.add_argument("--rank", type=int, default=1, help="which Nth-best class (default 1)")
    p.add_argument("--bins", type=int, default=15, help="number of bins (default 15)")
    p.add_argument("--group", default="pooled", help="'pooled' or 'batch:SIZE'")
    p.add_argument("--out", required=True, help="output CSV path")

    p = add("fit-temp", _cmd_fit_temp, "Fit a temperature on validation logits.")
    p.add_argument("--val", required=True, help="JSON-lines prediction file")
    p.add_argument("--t-min", type=float, default=DEFAULT_BOUNDS[0])
    p.add_argument("--t-max", type=float, default=DEFAULT_BOUNDS[1])
    p.add_argument("--bins", type=int, default=15, help="bins for the ECE readout")

    p = add("combine", _cmd_combine, "Re-rank hypotheses with two temperatures.")
    p.add_argument("--hyps", required=True, help="JSON-lines hypothesis file")
    p.add_argument("--t1", type=float, default=1.0, help="acoustic-score temperature")
    p.add_argument("--t2", type=float, default=1.0, help="language-score temperature")

    p = add("targets", _cmd_targets, "Frame-wise targets from alignment + posteriors.")
    p.add_argument("--align", required=True, help="alignment file (utt<TAB>tokens)")
    p.add_argument(
        "--map",
        action="append",
        help="unit-map TSV per teacher, or 'identity'; repeatable",
    )
    p.add_argument(
        "--posteriors",
        action="append",
        help="posterior file per teacher; repeatable",
    )
    p.add_argument("--out", required=True, help="output target file")

    p = add("train", _cmd_train, "Train one toy student from a key=value config.")
    p.add_argument("--config", required=True, help="key=value config file")

    p = add("sweep", _cmd_sweep, "Lambda sweep over methods and seeds.")
    p.add_argument("--config", required=True, help="key=value config file")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    atexit.unregister(gc.freeze)  # register once; frozen objects skip the exit's last collection
    atexit.register(gc.freeze)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
        sys.stdout.flush()  # a reader gone before the end is seen here, not at exit
        return 0
    except BrokenPipeError:  # the end of output: the exit flush goes to devnull, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports such a writer
    except (DistilcalError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal error: {e!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
