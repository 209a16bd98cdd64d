"""Command-line front end: every pipeline stage behind a stable subcommand.

Exit codes: 0 on success, 2 on malformed input or bad parameters, 1 on
internal errors. Diagnostics go to stderr; data goes to files or stdout.
Output files are written atomically and are byte-stable across runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional, Sequence

from . import __version__
from .alignment import teacher_posteriors
from .calibration import _fmt6, _fmt6_rows, ece, reliability_csv
from .errors import DistilcalError, InvalidInputError, InvalidParameterError
from .fileio import (
    read_alignment_file,
    read_config_file,
    read_hypothesis_file,
    read_posterior_file,
    read_prediction_file,
    read_unit_map_file,
    write_text_atomic,
)
from .probs import softmax_t
from .tempscale import DEFAULT_BOUNDS, combine_scores, fit_temperature


# ---------------------------------------------------------------- ece

def _parse_group(spec: str) -> Optional[int]:
    """'pooled' -> None, 'batch:SIZE' -> SIZE, in ASCII digits (``ece`` rejects 0)."""
    if spec == "pooled":
        return None
    size = spec.removeprefix("batch:")
    if size != spec and size.isascii() and size.isdigit():
        try:
            return int(size)
        except ValueError:  # more digits than ``int`` converts
            pass
    raise InvalidParameterError(f"--group must be 'pooled' or 'batch:SIZE', got {spec!r}")


def _cmd_ece(args) -> int:
    logits, labels = read_prediction_file(args.input)
    report = ece(softmax_t(logits), labels, args.rank, args.bins, _parse_group(args.group))
    write_text_atomic(args.out, reliability_csv(report))
    print(f"rank={args.rank} bins={args.bins} ece={_fmt6(report.ece)} n={report.n_total}")
    return 0


# ---------------------------------------------------------------- fit-temp

def _cmd_fit_temp(args) -> int:
    logits, labels = read_prediction_file(args.val)
    fit = fit_temperature(logits, labels, bounds=(args.t_min, args.t_max))
    ece_before = ece(softmax_t(logits), labels, 1, args.bins).ece
    ece_after = ece(softmax_t(logits, fit.t_star), labels, 1, args.bins).ece
    print(
        f"t_star={_fmt6(fit.t_star)} "
        f"nll_before={_fmt6(fit.nll_at_unit)} nll_after={_fmt6(fit.nll_at_t_star)} "
        f"ece_before={_fmt6(ece_before)} ece_after={_fmt6(ece_after)}"
    )
    return 0


# ---------------------------------------------------------------- combine

def _cmd_combine(args) -> int:
    utts, offsets, ids, scores = read_hypothesis_file(args.hyps)
    order, combined = combine_scores(scores[:, 0], scores[:, 1], args.t1, args.t2, offsets)
    ranked_ids = [ids[i] for i in order.tolist()]
    ranked = combined[order].tolist()
    out_lines = []
    for utt, lo, hi in zip(utts, offsets.tolist(), offsets[1:].tolist()):
        out_lines.append(f"{utt}\tbest\t{ranked_ids[lo]}")
        out_lines += [
            f"{utt}\t{position}\t{ranked_ids[i]}\t{_fmt6(ranked[i])}"
            for position, i in enumerate(range(lo, hi), start=1)
        ]
    print("\n".join(out_lines))
    return 0


# ---------------------------------------------------------------- targets

def _cmd_targets(args) -> int:
    alignments = read_alignment_file(args.align)
    posts = args.posteriors or []
    maps = args.map or ["identity"] * len(posts)
    if len(maps) != len(posts):
        raise InvalidInputError(
            f"got {len(maps)} --map but {len(posts)} --posteriors"
        )
    streams = teacher_posteriors(alignments, [
        (f"t{i}", None if map_path == "identity" else read_unit_map_file(map_path),
         read_posterior_file(post_path))
        for i, (map_path, post_path) in enumerate(zip(maps, posts))
    ], args.unit)

    utts, offsets, vocab, codes = alignments
    columns = [
        [f"{utt}\t{i}" for utt, lo, hi in zip(utts, offsets, offsets[1:]) for i in range(hi - lo)],
        [vocab[c] for c in codes.tolist()],  # the hard label of every frame
    ]
    for t, (posteriors, runs) in enumerate(streams):
        cells = [f"t{t}:{row}" for row in _fmt6_rows(posteriors)]
        columns.append([cell for cell, run in zip(cells, runs) for _ in range(run)])
    write_text_atomic(args.out, "\n".join(map("\t".join, zip(*columns))) + "\n")
    print(f"utterances={len(utts)} frames={len(codes)} teachers={len(posts)}")
    return 0


# ---------------------------------------------------------------- train / sweep

_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}

#: Value parser per SweepConfig annotation, as written (``toy`` postpones
#: annotations); a bad value raises KeyError or ValueError.
_PARSERS = {
    "int": int,
    "float": float,
    "bool": lambda v: _BOOLS[v.lower()],
    "Optional[int]": lambda v: None if v.lower() == "none" else int(v),
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


def _cmd_train(args) -> int:
    from .toy import train_cell

    cfg = read_config_file(args.config)
    scfg = _build_sweep_config(cfg, _TRAIN_ONLY_KEYS)
    method = _cast(cfg, "method")
    out_path = _cast(cfg, "out")
    seed = _cast(cfg, "seed", int, 0)
    overrides = {f: _cast(cfg, key, float) for key, f in _TRAIN_FLOATS.items() if key in cfg}
    student, curve, ev = train_cell(scfg, method, seed, **overrides)
    metrics = {"acc": ev.accuracy, **{f"ece{r}": ev.reports[r].ece for r in (1, 2, 3)}}
    model = {
        "method": method,
        "architecture": {
            "input_dim": student.input_dim,
            "hidden_dim": student.hidden_dim,
            "heads": student.head_dims,
        },
        "rng_seed": student.rng_seed,
        "params": student.params.tolist(),
        "loss_curve": curve,
        "metrics": metrics,
    }
    write_text_atomic(out_path, json.dumps(model, sort_keys=True, indent=1) + "\n")
    print(f"method={method} " + " ".join(f"{key}={_fmt6(v)}" for key, v in metrics.items()))
    return 0


def _cmd_sweep(args) -> int:
    from .toy import sweep_csv, sweep_lambda

    cfg = read_config_file(args.config)
    scfg = _build_sweep_config(cfg, _SWEEP_ONLY_KEYS)
    out_path = _cast(cfg, "out")
    lambdas = _cast(cfg, "lambdas", _list(float))
    methods = _cast(cfg, "methods", _list(str))
    seeds = _cast(cfg, "seeds", _list(int))
    rows = sweep_lambda(scfg, lambdas, methods, seeds)
    write_text_atomic(out_path, sweep_csv(rows))
    print(f"rows={len(rows)} out={out_path}")
    return 0


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
    p.add_argument("--unit", default="fine", help="alignment unit for error messages (default 'fine')")
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DistilcalError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal error: {e!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
