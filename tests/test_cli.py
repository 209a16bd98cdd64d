import argparse
import contextlib
import dataclasses
import inspect
import io
import json
import os
import re
import subprocess
import sys
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import distilcal
from distilcal.calibration import _fmt6
from distilcal import FileFormatError, SweepConfig, combine_scores
from distilcal import cli, toy
from distilcal.cli import _PARSERS, _build_parser, _build_sweep_config, _cast, _list, main
from distilcal.fileio import read_config_file, read_posterior_file, read_prediction_file

from oracles import ref_read_hypothesis_file, ref_read_posterior_file, ref_read_prediction_file

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"
DEMOS = Path(__file__).resolve().parents[1] / "demos"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env():
    """This environment with ``src`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_rejected(cwd, *argv):
    """Run the command in a child process, where a leaked warning or traceback
    reaches stderr, and require the clean exit 2 of an input error."""
    proc = subprocess.run(
        [sys.executable, "-m", "distilcal.cli", *map(str, argv)],
        cwd=cwd, env=child_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    return proc.stdout, proc.stderr


class TestEceCommand:
    def test_hand_fixture_golden(self, capsys, tmp_path):
        out = tmp_path / "rel.csv"
        code, stdout, _ = run(
            capsys, "ece", "--input", DATA / "predictions_hand4.jsonl",
            "--rank", "1", "--bins", "2", "--out", out,
        )
        assert code == 0
        assert stdout == "rank=1 bins=2 ece=0.425000 n=4\n"
        assert out.read_bytes() == (DATA / "expected_ece_hand4.csv").read_bytes()

    def test_perfectly_calibrated_fixture(self, capsys, tmp_path):
        fix = tmp_path / "perfect.jsonl"
        fix.write_text(
            "\n".join('{"logits": [900.0, 0.0], "label": 0}' for _ in range(6)) + "\n"
        )
        out = tmp_path / "rel.csv"
        code, stdout, _ = run(capsys, "ece", "--input", fix, "--out", out)
        assert code == 0
        assert "ece=0.000000" in stdout

    def test_default_bins_is_fifteen(self, capsys, tmp_path):
        out = tmp_path / "rel.csv"
        code, stdout, _ = run(
            capsys, "ece", "--input", DATA / "predictions_hand4.jsonl", "--out", out
        )
        assert code == 0
        assert stdout.startswith("rank=1 bins=15 ")

    def test_batch_grouping_matches_manual_aggregation(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        fix = tmp_path / "many.jsonl"
        lines = []
        for _ in range(20):
            logits = rng.normal(size=3)
            lines.append(json.dumps({"logits": logits.tolist(), "label": 1}))
        fix.write_text("\n".join(lines) + "\n")
        out_pooled = tmp_path / "pooled.csv"
        out_batch = tmp_path / "batch.csv"
        _, pooled_line, _ = run(capsys, "ece", "--input", fix, "--bins", "2",
                                "--out", out_pooled)
        code, batch_line, _ = run(capsys, "ece", "--input", fix, "--bins", "2",
                                  "--group", "batch:10", "--out", out_batch)
        assert code == 0
        # two batches of 10, two bins each -> 4 data rows
        assert len(out_batch.read_text().splitlines()) == 5
        assert batch_line.endswith("n=20\n")

    def test_grouped_golden_with_short_last_batch(self, capsys, tmp_path):
        # 7 rows in batches of 3: the last batch holds one row and one bin.
        out = tmp_path / "rel.csv"
        code, stdout, _ = run(
            capsys, "ece", "--input", DATA / "predictions_group7.jsonl",
            "--rank", "2", "--bins", "2", "--group", "batch:3", "--out", out,
        )
        assert code == 0
        assert stdout == "rank=2 bins=2 ece=0.526760 n=7\n"
        assert out.read_bytes() == (DATA / "expected_ece_group7.csv").read_bytes()

    @pytest.mark.parametrize("spec", ["batch:0", "batch:-3", "batch:x", "batch:", "batch:1_0",
                                      "batch:\u0663", "batch: 3", "batch:3 ", "foo",
                                      "batch:" + "9" * 5000])
    def test_bad_group_exits_2(self, tmp_path, spec):
        out = tmp_path / "rel.csv"
        code, stdout, stderr = run_quiet(["ece", "--input", str(DATA / "predictions_hand4.jsonl"),
                                          "--group", spec, "--out", str(out)])
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error: ") and "Traceback" not in stderr
        assert not out.exists()

    def test_malformed_line_reports_number(self, capsys, tmp_path):
        fix = tmp_path / "bad.jsonl"
        fix.write_text('{"logits": [0.0, 1.0], "label": 0}\n{"oops": 1}\n')
        code, _, err = run(capsys, "ece", "--input", fix, "--out", tmp_path / "o.csv")
        assert code == 2
        assert ":2:" in err

    def test_form_feed_does_not_end_a_line(self, capsys, tmp_path):
        fix = tmp_path / "p.jsonl"
        fix.write_bytes(b'{"logits": [0.0, 1.0], "label": 0}\f\n{"logits": [0.0], "label": 0}\n')
        code, _, err = run(capsys, "ece", "--input", fix, "--out", tmp_path / "o.csv")
        assert code == 2
        assert err == f"error: {fix}:1: bad JSON: Extra data\n"

    def test_missing_file_is_input_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "ece", "--input", tmp_path / "nope.jsonl",
                           "--out", tmp_path / "o.csv")
        assert code == 2
        assert err

    def test_boolean_or_overflowing_logit_reports_line(self, tmp_path):
        for bad in ("[true, 0.5]", "[0.5, false]", "[1" + "0" * 400 + ", 0.5]"):
            fix = tmp_path / "bad.jsonl"
            fix.write_text('{"logits": [0.0, 1.0], "label": 0}\n'
                           f'{{"logits": {bad}, "label": 0}}\n')
            _, err = run_rejected(tmp_path, "ece", "--input", fix, "--out", "o.csv")
            assert ":2:" in err
            assert not (tmp_path / "o.csv").exists()

    def test_integer_logit_over_digit_limit_reports_line(self, tmp_path):
        fix = tmp_path / "big.jsonl"
        fix.write_text('{"logits": [0.0, 1.0], "label": 0}\n'
                       '{"logits": [1' + "0" * 5000 + ', 0.5], "label": 0}\n')
        _, err = run_rejected(tmp_path, "ece", "--input", fix, "--out", "o.csv")
        assert ":2: bad JSON: Exceeds the limit" in err
        assert not (tmp_path / "o.csv").exists()


class TestFitTempCommand:
    def _write_predictions(self, path, logits, labels):
        with open(path, "w") as fh:
            for row, label in zip(logits, labels):
                fh.write(json.dumps({"logits": list(map(float, row)),
                                     "label": int(label)}) + "\n")

    def test_nll_never_worse(self, capsys, tmp_path):
        rng = np.random.default_rng(1)
        logits = rng.normal(scale=4, size=(60, 5))
        labels = np.argmax(logits, axis=1)
        labels[::4] = (labels[::4] + 1) % 5
        fix = tmp_path / "val.jsonl"
        self._write_predictions(fix, logits, labels)
        code, stdout, _ = run(capsys, "fit-temp", "--val", fix)
        assert code == 0
        fields = dict(kv.split("=") for kv in stdout.split())
        assert float(fields["nll_after"]) <= float(fields["nll_before"]) + 1e-9

    def test_prescaled_fixture_halves_t_star(self, capsys, tmp_path):
        rng = np.random.default_rng(2)
        logits = rng.normal(scale=5, size=(100, 4))
        labels = np.argmax(logits, axis=1)
        labels[::3] = (labels[::3] + 2) % 4
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._write_predictions(a, logits, labels)
        self._write_predictions(b, logits / 2.0, labels)
        _, out_a, _ = run(capsys, "fit-temp", "--val", a)
        _, out_b, _ = run(capsys, "fit-temp", "--val", b)
        t_a = float(dict(kv.split("=") for kv in out_a.split())["t_star"])
        t_b = float(dict(kv.split("=") for kv in out_b.split())["t_star"])
        assert t_b == pytest.approx(t_a / 2.0, rel=0.02)

    def test_default_bounds_pin_confident_fixture_to_005(self, capsys, tmp_path):
        logits = 8.0 * np.eye(4)[np.arange(40) % 4]
        labels = np.argmax(logits, axis=1)
        fix = tmp_path / "sharp.jsonl"
        self._write_predictions(fix, logits, labels)
        code, stdout, _ = run(capsys, "fit-temp", "--val", fix)
        assert code == 0
        assert stdout.startswith("t_star=0.050000 ")

    def test_non_finite_bound_rejected_before_search(self, tmp_path):
        fix = DATA / "predictions_hand4.jsonl"
        for bound in ("--t-max=inf", "--t-max=nan", "--t-min=-inf"):
            stdout, err = run_rejected(tmp_path, "fit-temp", "--val", fix, bound)
            assert stdout == ""
            assert "t_min < t_max < inf" in err

    @pytest.mark.parametrize("scale, labels", [("1e307", (0, 0)), ("1e308", (0, 1))])
    def test_overflowing_temperatures_never_print_nan(self, tmp_path, scale, labels):
        # logits / t overflows below t=1, though the NLL at t=1 is finite; at
        # 1e308 the gap to the row maximum overflows in the ECE readout too.
        fix = tmp_path / "huge.jsonl"
        fix.write_text(f'{{"logits": [{scale}, -{scale}], "label": {labels[0]}}}\n'
                       f'{{"logits": [-{scale}, {scale}], "label": {labels[1]}}}\n')
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "distilcal.cli", "fit-temp", "--val", str(fix)],
            cwd=tmp_path, env=child_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        values = [float(kv.split("=")[1]) for kv in proc.stdout.split()]
        assert len(values) == 5 and all(np.isfinite(values))

    def test_non_finite_nll_at_unit_rejected(self, tmp_path):
        fix = tmp_path / "huge.jsonl"
        fix.write_text('{"logits": [1.7e308, -1.7e308], "label": 1}\n'
                       '{"logits": [-1.7e308, 1.7e308], "label": 0}\n')
        stdout, err = run_rejected(tmp_path, "fit-temp", "--val", fix)
        assert stdout == ""
        assert "NLL at t=1 is not finite" in err


class TestCombineCommand:
    def test_unit_temperatures_golden(self, capsys):
        code, stdout, _ = run(capsys, "combine", "--hyps", DATA / "hyps_flip.jsonl")
        assert code == 0
        assert stdout.encode() == (DATA / "expected_combine_unit.txt").read_bytes()

    def test_winner_flip_golden(self, capsys):
        code, stdout, _ = run(
            capsys, "combine", "--hyps", DATA / "hyps_flip.jsonl", "--t2", "4"
        )
        assert code == 0
        assert stdout.encode() == (DATA / "expected_combine_flip.txt").read_bytes()

    def test_tie_order_deterministic(self, capsys, tmp_path):
        fix = tmp_path / "ties.jsonl"
        fix.write_text(
            '{"utt": "u", "id": "first", "am_logp": -5.0, "lm_logp": -5.0}\n'
            '{"utt": "u", "id": "second", "am_logp": -6.0, "lm_logp": -4.0}\n'
        )
        _, out1, _ = run(capsys, "combine", "--hyps", fix)
        _, out2, _ = run(capsys, "combine", "--hyps", fix)
        assert out1 == out2
        assert out1.splitlines()[0] == "u\tbest\tfirst"

    def test_reader_closing_stdout_ends_output_quietly(self, tmp_path):
        """A reader that closes the pipe after one line, as ``head -1`` does,
        ends the output: exit 141 (128 + SIGPIPE) and nothing on stderr."""
        fix = tmp_path / "hyps.jsonl"
        fix.write_text("".join(
            json.dumps({"utt": f"u{i // 10}", "id": f"h{i % 10}", "am_logp": -1.0, "lm_logp": -2.0})
            + "\n" for i in range(20_000)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "distilcal.cli", "combine", "--hyps", str(fix)],
            env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == b"u0\tbest\th0\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
        assert stderr == b""

    def test_non_finite_temperature_rejected(self, tmp_path):
        for temperature in ("--t2=nan", "--t2=inf", "--t1=-inf"):
            stdout, err = run_rejected(
                tmp_path, "combine", "--hyps", DATA / "hyps_flip.jsonl", temperature
            )
            assert stdout == ""
            assert "positive and finite" in err

    def test_integer_score_over_digit_limit_reports_line(self, tmp_path):
        fix = tmp_path / "big.jsonl"
        fix.write_text('{"utt": "u", "id": "a", "am_logp": 1' + "0" * 5000
                       + ', "lm_logp": -1.0}\n')
        stdout, err = run_rejected(tmp_path, "combine", "--hyps", fix)
        assert stdout == ""
        assert ":1: bad JSON: Exceeds the limit" in err

    @pytest.mark.parametrize("line, field", [
        ('{"utt": "u", "id": "a", "am_logp": true, "lm_logp": -1.0}', "'am_logp'"),
        ('{"utt": "u", "id": "a", "am_logp": -1.0, "lm_logp": "-2.5"}', "'am_logp'"),
        ('{"utt": null, "id": "a", "am_logp": -1.0, "lm_logp": -1.0}', "'utt'"),
        ('{"utt": "u", "id": 7, "am_logp": -1.0, "lm_logp": -1.0}', "'id'"),
        ('{"utt": "u", "id": "", "am_logp": -1.0, "lm_logp": -1.0}', "'id'"),
        ('{"utt": "u", "id": "a", "am_logp": -1' + "0" * 400 + ', "lm_logp": -1.0}', "'am_logp'"),
        ('{"utt": "u", "id": "a\\nu\\tbest\\tzzz", "am_logp": -1.0, "lm_logp": -1.0}', "'id'"),
        ('{"utt": "u\\tx", "id": "a", "am_logp": -1.0, "lm_logp": -1.0}', "'utt'"),
        ('{"utt": "u\\rx", "id": "a", "am_logp": -1.0, "lm_logp": -1.0}', "'utt'"),
    ], ids=["bool-score", "string-score", "null-utt", "integer-id", "empty-id",
            "400-digit-score", "newline-in-id", "tab-in-utt", "cr-in-utt"])
    def test_hypothesis_contract_violation_names_line(self, tmp_path, line, field):
        fix = tmp_path / "hyps.jsonl"
        fix.write_text('{"utt": "u", "id": "ok", "am_logp": -1.0, "lm_logp": -1.0}\n'
                       + line + "\n")
        stdout, err = run_rejected(tmp_path, "combine", "--hyps", fix)
        assert stdout == ""
        assert f"hyps.jsonl:2: {field}" in err


#: Ways to break one hypothesis line; "integer" and "none" leave it valid.
MUTATIONS = ("true", "null", "string", "nan", "digits", "missing", "tab", "newline", "array",
             "integer", "none")


def mutate_hypothesis(obj, mutation, key):
    """One hypothesis line as JSON text, changed by ``mutation`` at ``key``."""
    if mutation == "none":
        return json.dumps(obj)
    obj = dict(obj)
    score_key = key if key in ("am_logp", "lm_logp") else "am_logp"
    text_key = key if key in ("utt", "id") else "id"
    if mutation == "array":
        return json.dumps(list(obj.values()))
    if mutation == "missing":
        del obj[key]
    elif mutation in ("tab", "newline"):
        obj[text_key] += "\t" if mutation == "tab" else "\n"
    else:
        # Scores are written by hand so that NaN and long integers stay JSON tokens.
        value = {"true": "true", "null": "null", "string": '"-2.5"', "nan": "NaN",
                 "digits": "-1" + "0" * 400, "integer": "-3"}[mutation]
        obj[score_key] = "@"
        return json.dumps(obj).replace('"@"', value)
    return json.dumps(obj)


@st.composite
def hypothesis_file(draw):
    n = draw(st.integers(1, 8))
    score = st.floats(-1e4, 1e4, allow_nan=False).map(lambda v: round(v, 3))
    lines = [
        json.dumps({"utt": f"u{draw(st.integers(0, 2))}", "id": f"h{i}",
                    "am_logp": draw(score), "lm_logp": draw(score)})
        for i in range(n)
    ]
    bad = draw(st.integers(0, n - 1))
    mutation = draw(st.sampled_from(MUTATIONS))
    key = draw(st.sampled_from(["utt", "id", "am_logp", "lm_logp"]))
    lines[bad] = mutate_hypothesis(json.loads(lines[bad]), mutation, key)
    return "\n".join(lines) + "\n", bad + 1


def run_quiet(argv):
    """``main(argv)`` in this process, returning the exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def combine_by_utterance(path, t1: float, t2: float) -> str:
    """``combine`` stdout as one ``combine_scores`` call per utterance makes
    it from the reference reader's groups."""
    out_lines = []
    for utt, (ids, scores) in ref_read_hypothesis_file(path).items():
        order, combined = combine_scores(scores[:, 0], scores[:, 1], t1, t2)
        out_lines.append(f"{utt}\tbest\t{ids[order[0]]}")
        for position, i in enumerate(order, start=1):
            out_lines.append(f"{utt}\t{position}\t{ids[i]}\t{_fmt6(combined[i])}")
    return "\n".join(out_lines) + "\n"


@st.composite
def tied_hypothesis_file(draw):
    """Valid hypotheses over interleaved utterances, scores drawn from few values."""
    score = st.sampled_from([-1.0, -2.5, -0.0, 0.0, -7.25, -1e-3, -123.0])
    lines = [
        json.dumps({"utt": f"u{draw(st.integers(0, 3))}", "id": f"h{i}",
                    "am_logp": draw(score), "lm_logp": draw(score)})
        for i in range(draw(st.integers(1, 15)))
    ]
    return "\n".join(lines) + "\n"


class TestCombineMatchesPerUtteranceLoop:
    @settings(max_examples=60, deadline=None)
    @given(tied_hypothesis_file(), st.sampled_from([(1.0, 1.0), (0.5, 4.0), (3.0, 0.25)]))
    def test_stdout_byte_identical(self, tmp_path_factory, text, temperatures):
        path = tmp_path_factory.mktemp("combine") / "hyps.jsonl"
        path.write_text(text)
        t1, t2 = temperatures
        code, stdout, _ = run_quiet(["combine", "--hyps", str(path), "--t1", str(t1), "--t2", str(t2)])
        assert code == 0
        assert stdout == combine_by_utterance(path, t1, t2)


class TestCombineMutations:
    @settings(max_examples=150, deadline=None)
    @given(hypothesis_file(), st.sampled_from([("1", "1"), ("0.5", "4")]))
    def test_exit_0_or_2_and_clean_output(self, tmp_path_factory, case, temperatures):
        text, bad_line = case
        path = tmp_path_factory.mktemp("combine") / "hyps.jsonl"
        path.write_text(text)
        argv = ["combine", "--hyps", str(path), "--t1", temperatures[0], "--t2", temperatures[1]]
        code, stdout, stderr = run_quiet(argv)
        assert code in (0, 2), stderr
        if code == 2:
            assert stdout == ""
            assert stderr.startswith(f"error: {path}:{bad_line}: ")
            return
        for line in stdout.splitlines():
            fields = line.split("\t")
            assert len(fields) in (3, 4)
            if len(fields) == 4:
                assert np.isfinite(float(fields[3]))
        assert run_quiet(argv) == (0, stdout, stderr)


#: Ways to break one prediction line; "crlf" (the whole file) and "none"
#: leave the file valid.
PREDICTION_MUTATIONS = ("true", "null", "nan", "infinity", "digits400", "digits5000", "missing",
                        "width", "negative", "range", "formfeed", "crlf", "none")


def mutate_prediction(obj, mutation, key, index):
    """One prediction line as JSON text, changed by ``mutation`` at ``key``
    (the logit at ``index``, modulo the width, or the label)."""
    obj = {"logits": list(obj["logits"]), "label": obj["label"]}
    if mutation in ("none", "crlf"):
        return json.dumps(obj)
    if mutation == "formfeed":
        return json.dumps(obj) + "\f"
    if mutation == "missing":
        del obj[key]
        return json.dumps(obj)
    if mutation == "width":
        obj["logits"] = obj["logits"][:-1] if index % 2 else obj["logits"] + [0.5]
        return json.dumps(obj)
    if mutation in ("negative", "range"):
        obj["label"] = -1 if mutation == "negative" else len(obj["logits"])
        return json.dumps(obj)
    # Written by hand so that NaN, Infinity and long integers stay JSON tokens.
    value = {"true": "true", "null": "null", "nan": "NaN", "infinity": "-Infinity",
             "digits400": "1" + "0" * 400, "digits5000": "-1" + "0" * 5000}[mutation]
    if key == "label":
        obj["label"] = "@"
    else:
        obj["logits"][index % len(obj["logits"])] = "@"
    return json.dumps(obj).replace('"@"', value)


@st.composite
def prediction_file(draw):
    k = draw(st.integers(2, 4))
    logit = st.floats(-20, 20, allow_nan=False).map(lambda v: round(v, 3))
    records = [{"logits": [draw(logit) for _ in range(k)], "label": draw(st.integers(0, k - 1))}
               for _ in range(draw(st.integers(1, 6)))]
    lines = [json.dumps(r) for r in records]
    bad = draw(st.integers(0, len(lines) - 1))
    mutation = draw(st.sampled_from(PREDICTION_MUTATIONS))
    key = draw(st.sampled_from(["logits", "label"]))
    lines[bad] = mutate_prediction(records[bad], mutation, key, draw(st.integers(0, 7)))
    end = "\r\n" if mutation == "crlf" else "\n"
    return end.join(lines) + end


def reader_outcome(reader, path):
    """What ``reader`` makes of ``path``: its arrays' bytes, each with its key
    when the reader returns a dict, or its error."""
    try:
        result = reader(path)
    except FileFormatError as e:
        return type(e), e.line_no, str(e)
    pairs = result.items() if isinstance(result, dict) else enumerate(result)
    return [(key, a.dtype, a.shape, a.tobytes()) for key, a in pairs]


def all_finite(values) -> bool:
    return all(np.isfinite(float(v)) for v in values)


class TestPredictionMutations:
    @settings(max_examples=100, deadline=None)
    @given(prediction_file())
    def test_ece_and_fit_temp_exit_0_or_2_and_clean_output(self, tmp_path_factory, text):
        work = tmp_path_factory.mktemp("preds")
        path = work / "preds.jsonl"
        path.write_bytes(text.encode())
        outcome = reader_outcome(ref_read_prediction_file, path)
        assert reader_outcome(read_prediction_file, path) == outcome
        csv = work / "ece.csv"
        for argv in (["ece", "--input", str(path), "--rank", "2", "--bins", "3", "--out", str(csv)],
                     ["fit-temp", "--val", str(path), "--bins", "3"]):
            code, stdout, stderr = run_quiet(argv)
            assert "Traceback" not in stderr
            if isinstance(outcome, tuple):  # the reader's error, naming a line
                assert outcome[1] >= 1
                assert (code, stdout, stderr) == (2, "", f"error: {outcome[2]}\n")
                assert not csv.exists()
                continue
            assert code == 0, stderr
            written = csv.read_text() if argv[0] == "ece" else ""
            assert all_finite(kv.split("=")[1] for kv in stdout.split())
            assert all_finite(v for row in written.splitlines()[1:] for v in row.split(","))
            assert run_quiet(argv) == (0, stdout, stderr)
            assert written == "" or csv.read_text() == written


#: Ways to break one posterior line; "nudge" (a sum off by less than the
#: tolerance), "crlf" (the whole file) and "none" leave the file valid.
#: "underscore", "plus_index" and "unicode_digit" are spellings that ``int``
#: or ``float`` reads but the format does not allow. "letter", "moved_point",
#: "seventh_decimal", "sign" and "double_space" break the one width and
#: point column that let a file of fixed-width decimals be read by integer
#: arithmetic; all but "letter" and some "moved_point" and "sign" cases leave
#: it valid.
POSTERIOR_MUTATIONS = ("bad_index", "negative_index", "float_index", "nan", "inf", "overflow",
                       "negative", "width", "sum", "nudge", "duplicate", "missing_column",
                       "extra_column", "non_utf8", "crlf", "none", "underscore", "plus_index",
                       "unicode_digit", "letter", "moved_point", "seventh_decimal", "sign",
                       "double_space")
ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                           "\u0665\u0666\u0667\u0668\u0669")

#: posterior fixture -> the unit map that fits it to ``align_three.tsv``.
POSTERIOR_FIXTURES = {"post_fine.tsv": "identity", "post_mid.tsv": str(DATA / "map_mid.tsv"),
                      "post_one.tsv": str(DATA / "map_one.tsv"), "post_six.tsv": "identity"}


def mutate_posterior(line, mutation, position):
    """One posterior line as text, changed by ``mutation`` at the value at
    ``position``, modulo the width."""
    utt, index, values = line.split("\t")
    probs = values.split()
    at = position % len(probs)
    if mutation in ("bad_index", "negative_index", "float_index"):
        index = {"bad_index": "x", "negative_index": "-1", "float_index": "1.0"}[mutation]
    elif mutation in ("nan", "inf", "overflow", "negative"):
        probs[at] = {"nan": "nan", "inf": "inf", "overflow": "1e400", "negative": "-0.25"}[mutation]
    elif mutation == "width":
        probs = probs[:-1] if position % 2 else probs + ["0"]
    elif mutation in ("sum", "nudge"):
        probs[at] = repr(float(probs[at]) + (2e-6 if mutation == "sum" else 5e-7))
    elif mutation == "duplicate":
        return f"{line}\n{line}"
    elif mutation == "underscore":
        probs[at] += "_0"  # float reads 0.8_0 as 0.8
    elif mutation == "plus_index":
        index = f"+{index}"
    elif mutation == "unicode_digit":  # the index or one value, same number in other digits
        if position % 2:
            index = index.translate(ARABIC_INDIC)
        else:
            probs[at] = probs[at].translate(ARABIC_INDIC)
    elif mutation == "letter":  # the last digit of one value
        probs[at] = probs[at][:-1] + "x"
    elif mutation == "moved_point":  # one place to the right: 0.25 -> 02.5
        point = probs[at].find(".")
        digits = probs[at].replace(".", "")
        probs[at] = f"{digits[:point + 1]}.{digits[point + 1:]}"
    elif mutation == "seventh_decimal":
        probs[at] += "1" if position % 2 else "0"
    elif mutation == "sign":
        probs[at] = ("-" if position % 2 else "+") + probs[at]
    elif mutation == "double_space":
        probs[at] = " " + probs[at]
    elif mutation in ("missing_column", "extra_column"):
        return f"{utt}\t{index}" if mutation == "missing_column" else f"{line}\textra"
    return "\t".join((utt, index, " ".join(probs)))


@st.composite
def posterior_file(draw):
    fixture = draw(st.sampled_from(sorted(POSTERIOR_FIXTURES)))
    lines = (DATA / fixture).read_text().splitlines()
    bad = draw(st.integers(0, len(lines) - 1))
    mutation = draw(st.sampled_from(POSTERIOR_MUTATIONS))
    lines[bad] = mutate_posterior(lines[bad], mutation, draw(st.integers(0, 7)))
    end = "\r\n" if mutation == "crlf" else "\n"
    data = (end.join(lines) + end).encode()
    if mutation == "non_utf8":
        cut = sum(len(line) + 1 for line in lines[:bad]) + draw(st.integers(0, len(lines[bad])))
        data = data[:cut] + b"\xff" + data[cut:]
    return fixture, data


class TestPosteriorMutations:
    @settings(max_examples=100, deadline=None)
    @given(posterior_file())
    def test_targets_exit_0_or_2_and_clean_output(self, tmp_path_factory, case):
        fixture, data = case
        work = tmp_path_factory.mktemp("post")
        path = work / fixture
        path.write_bytes(data)
        outcome = reader_outcome(ref_read_posterior_file, path)
        assert reader_outcome(read_posterior_file, path) == outcome
        out = work / "targets.tsv"
        argv = ["targets", "--align", str(DATA / "align_three.tsv"),
                "--map", POSTERIOR_FIXTURES[fixture], "--posteriors", str(path), "--out", str(out)]
        code, stdout, stderr = run_quiet(argv)
        assert "Traceback" not in stderr
        if isinstance(outcome, tuple):  # the reader's error, naming a line
            assert outcome[1] >= 1
            assert (code, stdout, stderr) == (2, "", f"error: {outcome[2]}\n")
            assert not out.exists()
            return
        assert code == 0, stderr
        written = out.read_bytes()
        assert run_quiet(argv) == (0, stdout, stderr)
        assert out.read_bytes() == written


#: An alignment, a unit map into a coarser unit and one six-decimal posterior
#: file per teacher (fine through "identity", coarse through the map) that
#: fit each other, for ``targets`` to read.
ALIGN_LINES = ["u1\ta a b", "u2\tb b a a c", "u3\tc a b b", "u4\tb"]
MAP_LINES = ["a\tx", "b\ty", "c\tx"]
FINE_POSTERIORS = {"u1": 2, "u2": 3, "u3": 3, "u4": 1}  # deduplicated tokens
COARSE_POSTERIORS = {"u1": 2, "u2": 2, "u3": 2, "u4": 1}
#: Ways to break an alignment or unit-map file at one line ("empty" and
#: "crlf" act on the whole file). "crlf" leaves it valid, and so do a "bom"
#: on the first line and a "duplicate" map line; "id_whitespace" applies to
#: the alignment only and "conflicting_image" and "missing_image" to the map
#: only.
TABLE_MUTATIONS = ("missing_tab", "id_whitespace", "duplicate", "empty", "crlf", "bom",
                   "non_utf8", "conflicting_image", "missing_image")


def posterior_text(tokens: dict, width: int) -> str:
    row = " ".join(["%.6f" % (1 / width)] * width)  # width 2 or 4: exact
    return "".join(f"{utt}\t{i}\t{row}\n" for utt, n in tokens.items() for i in range(n))


@st.composite
def table_file(draw):
    """``(which, bytes)``: the alignment or the map, broken by one mutation."""
    which = draw(st.sampled_from(["align", "map"]))
    lines = list(ALIGN_LINES if which == "align" else MAP_LINES)
    mutation = draw(st.sampled_from(TABLE_MUTATIONS))
    at = draw(st.integers(0, len(lines) - 1))
    if mutation == "missing_tab":
        lines[at] = lines[at].replace("\t", draw(st.sampled_from(["", " "])), 1)
    elif mutation == "id_whitespace" and which == "align":
        lines[at] = f"{lines[at][:1]}{draw(st.sampled_from([' ', chr(0xa0), chr(0x1c)]))}{lines[at][1:]}"
    elif mutation == "duplicate":
        lines.insert(at, lines[at])
    elif mutation == "empty":
        lines = []
    elif mutation == "bom":
        lines[at] = "\ufeff" + lines[at]
    elif mutation == "conflicting_image" and which == "map":
        lines.insert(at + 1, lines[at].split("\t")[0] + "\tz")
    elif mutation == "missing_image" and which == "map":
        del lines[at]
    end = "\r\n" if mutation == "crlf" else "\n"
    data = "".join(line + end for line in lines).encode()
    if mutation == "non_utf8":
        cut = sum(len(line.encode()) + 1 for line in lines[:at])
        cut += draw(st.integers(0, len(lines[at])))
        data = data[:cut] + b"\xff" + data[cut:]
    return which, data


def tables_argv(work, which=None, data=b""):
    """``targets`` on the fitting tables in ``work``, ``which`` of them
    replaced by ``data``."""
    (work / "align.tsv").write_text("".join(line + "\n" for line in ALIGN_LINES))
    (work / "map.tsv").write_text("".join(line + "\n" for line in MAP_LINES))
    if which is not None:
        (work / f"{which}.tsv").write_bytes(data)
    (work / "fine.tsv").write_text(posterior_text(FINE_POSTERIORS, 4))
    (work / "coarse.tsv").write_text(posterior_text(COARSE_POSTERIORS, 2))
    return ["targets", "--align", str(work / "align.tsv"),
            "--map", "identity", "--posteriors", str(work / "fine.tsv"),
            "--map", str(work / "map.tsv"), "--posteriors", str(work / "coarse.tsv"),
            "--out", str(work / "targets.tsv")]


class TestAlignmentAndMapMutations:
    def test_unbroken_tables_write_every_frame(self, tmp_path):
        assert run_quiet(tables_argv(tmp_path)) == (0, "utterances=4 frames=13 teachers=2\n", "")
        lines = (tmp_path / "targets.tsv").read_text().splitlines()
        assert len(lines) == 13
        assert lines[3] == "u2\t0\tb\tt0:0.250000,0.250000,0.250000,0.250000\tt1:0.500000,0.500000"

    @settings(max_examples=100, deadline=None)
    @given(table_file())
    def test_targets_exit_0_or_2_naming_a_line_or_token(self, tmp_path_factory, case):
        work = tmp_path_factory.mktemp("tables")
        argv = tables_argv(work, *case)
        out = work / "targets.tsv"
        code, stdout, stderr = run_quiet(argv)
        assert code in (0, 2), stderr
        assert "Traceback" not in stderr
        written = out.read_bytes() if out.exists() else None
        if code == 2:
            assert stdout == "" and written is None
            assert re.match(r"error: .*(:\d+: |'[^']+')", stderr), stderr
        else:
            assert stderr == ""
        assert run_quiet(argv) == (code, stdout, stderr)
        assert (out.read_bytes() if out.exists() else None) == written


def write_posteriors(path, table):
    """Write ``{utt: (T, K) array}`` at full precision, so reading is exact."""
    with open(path, "w") as fh:
        for utt, rows in table.items():
            for i, row in enumerate(rows):
                fh.write(f"{utt}\t{i}\t{' '.join(map(repr, row.tolist()))}\n")


def reference_targets(alignments, teachers):
    """The per-frame path in plain Python, independent of ``distilcal.alignment``:
    a dict lookup per frame, ``groupby`` runs per utterance, then one ``_fmt6``
    call per float on every frame."""
    lines = []
    for utt, frames in alignments.items():
        streams = []
        for tid, unit_map, table in teachers:
            mapped = frames if unit_map is None else [unit_map[f] for f in frames]
            runs = [len(list(run)) for _, run in groupby(mapped)]
            rows = [r / r.sum() for r in table[utt]]
            assert len(rows) == len(runs)
            streams.append((tid, [row for row, run in zip(rows, runs) for _ in range(run)]))
        for i, hard in enumerate(frames):
            cells = [utt, str(i), hard]
            cells += [f"{tid}:" + ",".join(_fmt6(v) for v in stream[i]) for tid, stream in streams]
            lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


FINE = [f"f{i}" for i in range(6)]


@st.composite
def targets_case(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alignments = {
        f"u{u}": tuple(draw(st.lists(st.sampled_from(FINE), min_size=1, max_size=25)))
        for u in range(draw(st.integers(1, 3)))
    }
    teachers = []
    for t in range(draw(st.integers(1, 3))):
        coarse = draw(st.sampled_from([None, 1, 2, 3]))
        unit_map = None if coarse is None else {f: f"c{rng.integers(coarse)}" for f in FINE}
        width = draw(st.sampled_from([2, 8, 40, 200]))
        table = {}
        for utt, frames in alignments.items():
            mapped = [f if unit_map is None else unit_map[f] for f in frames]
            tokens = sum(1 for i, f in enumerate(mapped) if i == 0 or f != mapped[i - 1])
            rows = rng.dirichlet(np.ones(width), size=tokens)
            zero = rng.random(rows.shape) < 0.1
            zero[np.arange(tokens), rows.argmax(axis=1)] = False
            rows[zero] = -0.0
            rows /= rows.sum(axis=1, keepdims=True)
            rows *= 1.0 + rng.uniform(-9e-7, 9e-7, size=(tokens, 1))  # off the simplex
            table[utt] = rows
        teachers.append((f"t{t}", unit_map, table))
    return alignments, teachers


class TestTargetsFormatOnce:
    @settings(max_examples=60, deadline=None)
    @given(targets_case())
    def test_bytes_equal_per_frame_reference(self, tmp_path_factory, case):
        alignments, teachers = case
        work = tmp_path_factory.mktemp("targets")
        (work / "align.tsv").write_text(
            "".join(f"{utt}\t{' '.join(frames)}\n" for utt, frames in alignments.items()))
        argv = ["targets", "--align", work / "align.tsv", "--out", work / "out.tsv"]
        for tid, unit_map, table in teachers:
            if unit_map is None:
                argv += ["--map", "identity"]
            else:
                (work / f"{tid}.map").write_text(
                    "".join(f"{f}\t{c}\n" for f, c in unit_map.items()))
                argv += ["--map", work / f"{tid}.map"]
            write_posteriors(work / f"{tid}.tsv", table)
            argv += ["--posteriors", work / f"{tid}.tsv"]
        assert main([str(a) for a in argv]) == 0
        assert (work / "out.tsv").read_text() == reference_targets(alignments, teachers)

    def test_negative_zero_prints_positive_zero(self, capsys, tmp_path):
        align = tmp_path / "align.tsv"
        align.write_text("u1\ta a b\n")
        post = tmp_path / "post.tsv"
        post.write_text("u1\t0\t-0.0 1.0\nu1\t1\t1.0 -0\n")
        out = tmp_path / "targets.tsv"
        code, _, _ = run(capsys, "targets", "--align", align,
                         "--posteriors", post, "--out", out)
        assert code == 0
        assert out.read_text() == (
            "u1\t0\ta\tt0:0.000000,1.000000\n"
            "u1\t1\ta\tt0:0.000000,1.000000\n"
            "u1\t2\tb\tt0:1.000000,0.000000\n"
        )


class TestTargetsCommand:
    def test_identity_map_unit_runs_reproduce_posteriors(self, capsys, tmp_path):
        align = tmp_path / "align.tsv"
        align.write_text("u1\ta b c\n")
        post = tmp_path / "post.tsv"
        post.write_text("u1\t0\t0.9 0.1\nu1\t1\t0.2 0.8\nu1\t2\t0.6 0.4\n")
        out = tmp_path / "targets.tsv"
        code, _, _ = run(capsys, "targets", "--align", align,
                         "--posteriors", post, "--out", out)
        assert code == 0
        rows = [line.split("\t") for line in out.read_text().splitlines()]
        assert [r[3] for r in rows] == [
            "t0:0.900000,0.100000", "t0:0.200000,0.800000", "t0:0.600000,0.400000",
        ]

    def test_three_teacher_golden(self, capsys, tmp_path):
        out = tmp_path / "targets.tsv"
        code, _, _ = run(
            capsys, "targets", "--align", DATA / "align_three.tsv",
            "--map", "identity", "--map", DATA / "map_mid.tsv",
            "--map", DATA / "map_one.tsv",
            "--posteriors", DATA / "post_fine.tsv",
            "--posteriors", DATA / "post_mid.tsv",
            "--posteriors", DATA / "post_one.tsv",
            "--out", out,
        )
        assert code == 0
        assert out.read_bytes() == (DATA / "expected_targets_three.tsv").read_bytes()

    def test_empty_utterance_emits_no_lines(self, capsys, tmp_path):
        post = tmp_path / "post.tsv"
        post.write_text("u1\t0\t0.9 0.1\nu1\t1\t0.2 0.8\nu3\t0\t0.6 0.4\n")
        outputs = []
        for name, text in (("plain", "u1\ta b\nu3\tc\n"),
                           ("empty", "u1\ta b\nu2\nu3\tc\n")):
            align = tmp_path / f"{name}.tsv"
            align.write_text(text)
            out = tmp_path / f"{name}.out"
            code, _, err = run(capsys, "targets", "--align", align,
                               "--posteriors", post, "--out", out)
            assert code == 0, err
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_posterior_count_mismatch_exits_2_with_lengths(self, capsys, tmp_path):
        align = tmp_path / "align.tsv"
        align.write_text("u1\ta a b\n")  # dedups to 2 tokens
        post = tmp_path / "post.tsv"
        post.write_text("u1\t0\t0.5 0.5\nu1\t1\t0.5 0.5\nu1\t2\t0.5 0.5\n")
        code, _, err = run(capsys, "targets", "--align", align,
                           "--posteriors", post, "--out", tmp_path / "t.tsv")
        assert code == 2
        assert "3" in err and "2" in err

    def test_whitespace_in_utterance_id_names_line(self, capsys, tmp_path):
        align = tmp_path / "align.tsv"
        align.write_text("u0\ta\nu1 a b\n")  # a space where the TAB belongs
        post = tmp_path / "post.tsv"
        post.write_text("u0\t0\t0.5 0.5\nu1\t0\t0.5 0.5\nu1\t1\t0.5 0.5\n")
        out = tmp_path / "t.tsv"
        code, stdout, err = run(capsys, "targets", "--align", align,
                                "--posteriors", post, "--out", out)
        assert (code, stdout) == (2, "")
        assert err.startswith(f"error: {align}:2: ")
        assert "'u1 a b'" in err
        assert not out.exists()

    def test_non_utf8_alignment_names_line(self, tmp_path):
        align = tmp_path / "align.tsv"
        align.write_bytes(b"u0\ta\nu1\ta b\xff\n")
        _, err = run_rejected(tmp_path, "targets", "--align", align, "--out", "t.tsv")
        assert err.startswith(f"error: {align}:2: ")
        assert not (tmp_path / "t.tsv").exists()

    def test_next_line_character_does_not_end_an_alignment_line(self, capsys, tmp_path):
        align = tmp_path / "align.tsv"
        align.write_bytes(b"u1\ta a\xc2\x85b\n")
        code, stdout, _ = run(capsys, "targets", "--align", align, "--out", tmp_path / "t.tsv")
        assert code == 0
        assert stdout == "utterances=1 frames=3 teachers=0\n"


class TestTargetsStreamedWrite:
    ARGV = ["--map", "identity", "--map", DATA / "map_mid.tsv", "--map", DATA / "map_one.tsv",
            "--posteriors", DATA / "post_fine.tsv", "--posteriors", DATA / "post_mid.tsv",
            "--posteriors", DATA / "post_one.tsv"]

    @pytest.mark.parametrize("frames", [1, 2, 7])
    def test_small_chunks_write_the_golden_bytes(self, capsys, tmp_path, monkeypatch, frames):
        monkeypatch.setattr(distilcal.alignment, "_CHUNK_FRAMES", frames)
        out = tmp_path / "targets.tsv"
        code, _, err = run(capsys, "targets", "--align", DATA / "align_three.tsv",
                           *self.ARGV, "--out", out)
        assert code == 0, err
        assert out.read_bytes() == (DATA / "expected_targets_three.tsv").read_bytes()

    def test_chunk_raising_partway_keeps_the_old_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(distilcal.alignment, "_CHUNK_FRAMES", 2)
        target_lines = cli.target_lines

        def failing_lines(*args):
            lines = target_lines(*args)
            yield next(lines)  # one chunk is written, then the disk fills
            raise OSError("No space left on device")

        monkeypatch.setattr(cli, "target_lines", failing_lines)
        out = tmp_path / "targets.tsv"
        out.write_bytes(b"old bytes\n")
        code, stdout, err = run(capsys, "targets", "--align", DATA / "align_three.tsv",
                                *self.ARGV, "--out", out)
        assert (code, stdout, err) == (2, "", "error: No space left on device\n")
        assert out.read_bytes() == b"old bytes\n"
        assert [p.name for p in tmp_path.iterdir()] == ["targets.tsv"]

    def test_input_error_reported_before_the_output_is_opened(self, capsys, tmp_path):
        (tmp_path / "align.tsv").write_text("u1\ta a b\n")
        (tmp_path / "post.tsv").write_text(posterior_rows("u1", 3))
        code, stdout, err = run(capsys, "targets", "--align", tmp_path / "align.tsv",
                                "--posteriors", tmp_path / "post.tsv",
                                "--out", tmp_path / "missing" / "t.tsv")
        assert (code, stdout) == (2, "")
        assert err == "error: got 3 posteriors for 2 deduplicated labels\n"

    def test_no_frames_writes_an_empty_file(self, capsys, tmp_path):
        (tmp_path / "align.tsv").write_text("u1\nu2\n")
        out = tmp_path / "t.tsv"
        code, stdout, _ = run(capsys, "targets", "--align", tmp_path / "align.tsv", "--out", out)
        assert (code, stdout) == (0, "utterances=2 frames=0 teachers=0\n")
        assert out.read_bytes() == b""


def posterior_rows(utt, n):
    return "".join(f"{utt}\t{i}\t0.5 0.5\n" for i in range(n))


MISSING_U1_T0 = "utterance 'u1' missing from posterior file for teacher t0"
MISSING_U1_T1 = "utterance 'u1' missing from posterior file for teacher t1"
UNMAPPED_X_T1 = "token 'x' has no 'fine' -> 't1' mapping"

#: name -> (alignment, t0 posteriors, t1 posteriors, the one error reported).
#: Teacher t0 shares the alignment's unit; t1 maps a and b, but not x.
TARGETS_ERRORS = {
    "missing_utterance": ("u1\ta b\n", posterior_rows("u9", 1), posterior_rows("u1", 2),
                          MISSING_U1_T0),
    "unmapped_token": ("u1\ta x\n", posterior_rows("u1", 2), posterior_rows("u1", 2),
                       UNMAPPED_X_T1),
    "count_mismatch": ("u1\ta a b\n", posterior_rows("u1", 3), posterior_rows("u1", 2),
                       "got 3 posteriors for 2 deduplicated labels"),
    # The first utterance with any error wins, whichever teacher it belongs to.
    "u1_t1_unmapped_beats_u2_t0_missing": (
        "u1\ta x\nu2\ta\n", posterior_rows("u1", 2),
        posterior_rows("u1", 2) + posterior_rows("u2", 1), UNMAPPED_X_T1),
    "u1_t1_count_beats_u2_t0_count": (
        "u1\ta b\nu2\ta\n", posterior_rows("u1", 2) + posterior_rows("u2", 4),
        posterior_rows("u1", 5) + posterior_rows("u2", 1),
        "got 5 posteriors for 2 deduplicated labels"),
    "u1_t0_count_beats_u2_t1_unmapped": (
        "u1\ta b\nu2\tx\n", posterior_rows("u1", 3) + posterior_rows("u2", 1),
        posterior_rows("u1", 2) + posterior_rows("u2", 1),
        "got 3 posteriors for 2 deduplicated labels"),
    "u1_t0_missing_beats_u2_t1_missing": (
        "u1\ta\nu2\tb\n", posterior_rows("u2", 1), posterior_rows("u1", 1), MISSING_U1_T0),
    # Within one utterance: any missing utterance, then t0's checks, then t1's.
    "t1_missing_beats_t0_count": ("u1\ta b\n", posterior_rows("u1", 3),
                                  posterior_rows("u9", 1), MISSING_U1_T1),
    "t0_count_beats_t1_unmapped": ("u1\ta x\n", posterior_rows("u1", 3),
                                   posterior_rows("u1", 2),
                                   "got 3 posteriors for 2 deduplicated labels"),
    # An utterance without frames is skipped before any check.
    "empty_utterance_skipped": ("u0\nu1\ta b\n", posterior_rows("u1", 3),
                                posterior_rows("u1", 2),
                                "got 3 posteriors for 2 deduplicated labels"),
}


@pytest.mark.parametrize("name", sorted(TARGETS_ERRORS))
def test_targets_error_message_and_order(name, capsys, tmp_path):
    align, post0, post1, message = TARGETS_ERRORS[name]
    (tmp_path / "align.tsv").write_text(align)
    (tmp_path / "t1.map").write_text("a\tA\nb\tB\n")
    (tmp_path / "t0.tsv").write_text(post0)
    (tmp_path / "t1.tsv").write_text(post1)
    out = tmp_path / "out.tsv"
    code, stdout, err = run(
        capsys, "targets", "--align", tmp_path / "align.tsv",
        "--map", "identity", "--map", tmp_path / "t1.map",
        "--posteriors", tmp_path / "t0.tsv", "--posteriors", tmp_path / "t1.tsv",
        "--out", out,
    )
    assert (code, stdout, err) == (2, "", f"error: {message}\n")
    assert not out.exists()


#: name -> (command, its input file's lines, the line and message reported);
#: ``@`` in a line stands for the output path.
FILE_LINE_ERRORS = {
    "config_without_equals": ("train", ["out=@", "epochs 3"], 2, "expected 'key=value'"),
    "config_empty_key": ("train", ["out=@", "=3"], 2, "empty key"),
    "alignment_without_id": ("targets", ["u1\ta b", "\tc d"], 2, "missing utterance id"),
}


@pytest.mark.parametrize("name", sorted(FILE_LINE_ERRORS))
def test_file_error_names_path_and_line(name, tmp_path):
    command, lines, line_no, message = FILE_LINE_ERRORS[name]
    path, out = tmp_path / "input", tmp_path / "out"
    path.write_text("".join(f"{line}\n" for line in lines).replace("@", str(out)))
    argv = ["--config", path] if command == "train" else ["--align", path, "--out", out]
    stdout, stderr = run_rejected(tmp_path, command, *argv)
    assert (stdout, stderr) == ("", f"error: {path}:{line_no}: {message}\n")
    assert not out.exists()


#: name -> (input files by name, the command line, the one error reported);
#: every path is relative to the command's working directory.
COMMAND_ERRORS = {
    "two_maps_one_posterior_file": (
        {"align.tsv": "u1\ta b\n", "post.tsv": posterior_rows("u1", 2)},
        ["targets", "--align", "align.tsv", "--map", "identity", "--map", "identity",
         "--posteriors", "post.tsv", "--out", "out"],
        "got 2 --map but 1 --posteriors"),
    "blank_alignment_file": (
        {"align.tsv": "\n\n"}, ["targets", "--align", "align.tsv", "--out", "out"],
        "align.tsv:0: no alignments found"),
    "blank_unit_map": (
        {"align.tsv": "u1\ta b\n", "post.tsv": posterior_rows("u1", 2), "t0.map": "\n\n"},
        ["targets", "--align", "align.tsv", "--map", "t0.map", "--posteriors", "post.tsv",
         "--out", "out"],
        "t0.map:0: empty unit map"),
    "unknown_train_method": (
        {"train.cfg": "method=bogus\nout=out\n"}, ["train", "--config", "train.cfg"],
        "method must be one of ('baseline', 'label_smooth', 'lst', 'multitask'), got 'bogus'"),
    "bogus_ece_group": (
        {"pred.jsonl": (DATA / "predictions_hand4.jsonl").read_text()},
        ["ece", "--input", "pred.jsonl", "--group", "bogus", "--out", "out"],
        "--group must be 'pooled' or 'batch:SIZE', got 'bogus'"),
    "unknown_train_config_key": (
        {"train.cfg": "method=baseline\nbogus=1\nout=out\n"}, ["train", "--config", "train.cfg"],
        "unknown config keys: ['bogus']"),
}


@pytest.mark.parametrize("name", sorted(COMMAND_ERRORS))
def test_command_error_message(name, tmp_path):
    files, argv, message = COMMAND_ERRORS[name]
    for file_name, text in files.items():
        (tmp_path / file_name).write_text(text)
    stdout, stderr = run_rejected(tmp_path, *argv)
    assert (stdout, stderr) == ("", f"error: {message}\n")
    assert not (tmp_path / "out").exists()


def write_config(path, **kv):
    path.write_text("".join(f"{k}={v}\n" for k, v in kv.items()))


FAST_TOY = dict(
    num_classes=4, input_dim=3, coarse_classes=2, hidden_dim=8,
    n_train=120, n_test=120, epochs=3, teacher_epochs=1,
    teacher_data_multiplier=2, batch_size=16,
)


class TestTrainCommand:
    def test_deterministic_model_file(self, capsys, tmp_path):
        cfg = tmp_path / "train.cfg"
        model1 = tmp_path / "m1.json"
        model2 = tmp_path / "m2.json"
        write_config(cfg, method="baseline", seed=1, out=model1, **FAST_TOY)
        code, out1, _ = run(capsys, "train", "--config", cfg)
        assert code == 0
        write_config(cfg, method="baseline", seed=1, out=model2, **FAST_TOY)
        _, out2, _ = run(capsys, "train", "--config", cfg)
        assert out1 == out2
        assert model1.read_bytes() == model2.read_bytes()

    def test_lst_lambda_one_matches_baseline_accuracy(self, capsys, tmp_path):
        cfg = tmp_path / "train.cfg"
        write_config(cfg, method="baseline", seed=2, out=tmp_path / "b.json", **FAST_TOY)
        _, out_base, _ = run(capsys, "train", "--config", cfg)
        write_config(cfg, method="lst", **{"lambda": 1.0}, seed=2,
                     out=tmp_path / "l.json", **FAST_TOY)
        _, out_lst, _ = run(capsys, "train", "--config", cfg)
        acc_base = dict(kv.split("=") for kv in out_base.split())["acc"]
        acc_lst = dict(kv.split("=") for kv in out_lst.split())["acc"]
        assert acc_base == acc_lst

    @pytest.mark.parametrize("method,key", [("lst", "lst_temperature"),
                                            ("multitask", "multitask_temperature")])
    def test_method_temperature_key_sets_the_default(self, capsys, tmp_path, method, key):
        cfg = tmp_path / "train.cfg"
        models = []
        for name, extra in (("method_key", {key: 2}), ("temperature", {"temperature": 2}),
                            ("default", {})):
            models.append(tmp_path / f"{name}.json")
            write_config(cfg, method=method, seed=1, out=models[-1], **extra, **FAST_TOY)
            code, _, err = run(capsys, "train", "--config", cfg)
            assert code == 0, err
        by_key, by_temperature, default = (m.read_bytes() for m in models)
        assert by_key == by_temperature
        assert by_key != default

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "train.cfg"
        write_config(cfg, method="baseline", out=tmp_path / "m.json",
                     typo_key=3, **FAST_TOY)
        code, _, err = run(capsys, "train", "--config", cfg)
        assert code == 2
        assert "typo_key" in err

    def test_malformed_train_only_values_rejected(self, tmp_path):
        cfg = tmp_path / "train.cfg"
        for key in ("seed", "lambda", "epsilon", "temperature"):
            write_config(cfg, method="lst", out=tmp_path / "m.json",
                         **{key: "1.5x"}, **FAST_TOY)
            _, err = run_rejected(tmp_path, "train", "--config", cfg)
            assert f"bad value for config key '{key}': '1.5x'" in err
            assert not (tmp_path / "m.json").exists()

    def test_non_finite_learning_rate_or_temperature_rejected(self, tmp_path):
        cfg = tmp_path / "train.cfg"
        for key, value in (("learning_rate", "nan"), ("learning_rate", "inf"),
                           ("temperature", "nan"), ("temperature", "inf")):
            write_config(cfg, method="lst", out=tmp_path / "m.json",
                         **{**FAST_TOY, key: value})
            _, err = run_rejected(tmp_path, "train", "--config", cfg)
            assert f"{key} must be positive and finite" in err
            assert not (tmp_path / "m.json").exists()


GOLDEN_TOY = dict(FAST_TOY, seed=3)
GOLDEN_TRAIN = {
    "baseline": ({"method": "baseline"},
                 "method=baseline acc=0.558333 ece1=0.217751 ece2=0.152543 ece3=0.115761\n"),
    "label_smooth": ({"method": "label_smooth", "epsilon": 0.2},
                     "method=label_smooth acc=0.533333 ece1=0.238963 ece2=0.109291 ece3=0.109480\n"),
    "lst": ({"method": "lst", "lambda": 0.3},
            "method=lst acc=0.491667 ece1=0.263435 ece2=0.122733 ece3=0.129052\n"),
    "multitask": ({"method": "multitask", "lambda": 0.3, "hierarchical": "true"},
                  "method=multitask acc=0.341667 ece1=0.120788 ece2=0.124351 ece3=0.074507\n"),
}


class TestTrainGoldens:
    @pytest.mark.parametrize("method", sorted(GOLDEN_TRAIN))
    def test_model_file_golden(self, capsys, tmp_path, method):
        keys, stdout = GOLDEN_TRAIN[method]
        cfg, model = tmp_path / "train.cfg", tmp_path / "model.json"
        write_config(cfg, out=model, **keys, **GOLDEN_TOY)
        code, out, err = run(capsys, "train", "--config", cfg)
        assert code == 0, err
        assert out == stdout
        assert model.read_bytes() == (DATA / f"expected_train_{method}.json").read_bytes()

    @pytest.mark.parametrize("method", sorted(GOLDEN_TRAIN))
    def test_train_model_text_is_the_golden(self, method):
        keys, stdout = GOLDEN_TRAIN[method]
        scfg = SweepConfig(**FAST_TOY, hierarchical="hierarchical" in keys)
        overrides = {f: keys[key] for key, f in (("lambda", "lam"), ("epsilon", "epsilon"))
                     if key in keys}
        model, line = toy.train_model(scfg, method, GOLDEN_TOY["seed"], **overrides)
        assert line + "\n" == stdout
        assert model.encode() == (DATA / f"expected_train_{method}.json").read_bytes()

    def test_sweep_csv_golden(self, capsys, tmp_path):
        cfg, csv = tmp_path / "sweep.cfg", tmp_path / "sweep.csv"
        write_config(cfg, lambdas="0,0.3,1", methods="lst,multitask", seeds="0,1",
                     hierarchical="true", out=csv, **FAST_TOY)
        code, out, err = run(capsys, "sweep", "--config", cfg)
        assert code == 0, err
        assert out == f"rows=12 out={csv}\n"
        assert csv.read_bytes() == (DATA / "expected_sweep_small.csv").read_bytes()


BAD_SWEEP_VALUES = [
    ("n_train", "0"), ("n_test", "0"), ("epochs", "0"), ("batch_size", "0"),
    ("hidden_dim", "0"), ("teacher_hidden_multiplier", "0"),
    ("teacher_data_multiplier", "0"), ("teacher_epochs", "0"), ("eval_bins", "0"),
    ("learning_rate", "0"), ("learning_rate", "nan"), ("lst_temperature", "-1"),
    ("lst_temperature", "inf"), ("multitask_temperature", "0"),
    ("noise_sigma", "-0.5"), ("noise_sigma", "nan"), ("noise_sigma", "inf"),
    ("mean_scale", "inf"), ("mean_scale", "nan"), ("task_seed", "-1"),
    ("num_classes", "0"), ("num_classes", "1"), ("num_classes", "2"), ("input_dim", "0"),
    ("coarse_classes", "1"), ("coarse_classes", "5"),
]


class TestConfigValidation:
    @pytest.mark.parametrize("key,value", BAD_SWEEP_VALUES)
    def test_sweep_rejects_bad_value_naming_key(self, tmp_path, key, value):
        cfg = tmp_path / "sweep.cfg"
        write_config(cfg, lambdas="0.5", methods="lst", seeds="0",
                     out=tmp_path / "s.csv", **{**FAST_TOY, key: value})
        _, err = run_rejected(tmp_path, "sweep", "--config", cfg)
        assert key in err
        assert not (tmp_path / "s.csv").exists()

    def test_sweep_rejects_negative_seed(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        write_config(cfg, lambdas="0.5", methods="lst", seeds="0,-1",
                     out=tmp_path / "s.csv", **FAST_TOY)
        _, err = run_rejected(tmp_path, "sweep", "--config", cfg)
        assert "seed must be >= 0, got -1" in err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("key,value", [("eval_bins", "0"), ("n_train", "0"),
                                           ("noise_sigma", "nan"), ("mean_scale", "inf"),
                                           ("task_seed", "-1"), ("seed", "-1"),
                                           ("num_classes", "0"), ("num_classes", "2"),
                                           ("input_dim", "0")])
    def test_train_rejects_bad_value_naming_key(self, tmp_path, key, value):
        cfg = tmp_path / "train.cfg"
        write_config(cfg, method="baseline", out=tmp_path / "m.json",
                     **{**FAST_TOY, key: value})
        _, err = run_rejected(tmp_path, "train", "--config", cfg)
        assert key in err and "logits must be finite" not in err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("key,message", [
        ("mean_scale", "mean_scale must give finite cluster means, got 1e+308"),
        ("noise_sigma", "noise_sigma must give finite data, got 1e+308"),
    ])
    def test_overflowing_scale_exits_2_naming_key(self, capsys, tmp_path, key, message):
        cfg, model = tmp_path / "train.cfg", tmp_path / "m.json"
        write_config(cfg, method="baseline", epochs=1, n_train=8, n_test=8, out=model,
                     **{key: "1e308"})
        assert run(capsys, "train", "--config", cfg) == (2, "", f"error: {message}\n")
        assert not model.exists()

    @pytest.mark.parametrize("command,key,value,message", [
        ("sweep", "lambdas", "0.5,-0.5", "config key 'lambdas': lambda must be in [0, 1], got -0.5"),
        ("train", "lambda", "1.5", "config key 'lambda': lambda must be in [0, 1], got 1.5"),
        ("sweep", "seeds", "-3", "config key 'seeds': seed must be >= 0, got -3"),
    ])
    def test_grid_value_error_names_config_key(self, capsys, monkeypatch, tmp_path, command, key,
                                               value, message):
        drawn = []
        monkeypatch.setattr(toy, "generate_data", lambda *a: drawn.append(a))
        cfg, out = tmp_path / "run.cfg", tmp_path / "out"
        own = (dict(method="lst", **{"lambda": "0.5"}) if command == "train"
               else dict(methods="lst", lambdas="0.5", seeds="0"))
        write_config(cfg, out=out, **{**FAST_TOY, **own, key: value})
        assert run(capsys, command, "--config", cfg) == (2, "", f"error: {message}\n")
        assert drawn == [] and not out.exists()

    @pytest.mark.parametrize("key,value,message", [
        ("lambdas", "0.5, 0, 0.5", "lambdas must not repeat a value, got 0.5 again"),
        ("methods", "lst,multitask,lst", "methods must not repeat a value, got 'lst' again"),
        ("seeds", "0,0", "seeds must not repeat a value, got 0 again"),
    ])
    def test_repeated_grid_value_exits_2_naming_key(self, capsys, monkeypatch, tmp_path, key,
                                                    value, message):
        drawn = []
        monkeypatch.setattr(toy, "generate_data", lambda *a: drawn.append(a))
        cfg, out = tmp_path / "sweep.cfg", tmp_path / "s.csv"
        write_config(cfg, out=out, **{**FAST_TOY, "methods": "lst", "lambdas": "0.5",
                                      "seeds": "0", key: value})
        assert run(capsys, "sweep", "--config", cfg) == (2, "", f"error: {message}\n")
        assert drawn == [] and not out.exists()

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("key", ["hidden_dim", "teacher_hidden_multiplier",
                                     "teacher_data_multiplier", "epochs", "n_train"])
    def test_thirty_digit_count_exits_2_naming_key(self, capsys, monkeypatch, tmp_path,
                                                   command, key):
        drawn = []
        monkeypatch.setattr(toy, "generate_data", lambda *a: drawn.append(a))
        cfg, out = tmp_path / "run.cfg", tmp_path / "out"
        own = (dict(method="lst") if command == "train"
               else dict(methods="lst", lambdas="0.5", seeds="0"))
        huge = "1" + "0" * 29
        write_config(cfg, out=out, **{**FAST_TOY, **own, key: huge})
        message = f"error: {key} must be <= {toy.MAX_COUNT}, got {huge}\n"
        assert run(capsys, command, "--config", cfg) == (2, "", message)
        assert drawn == [] and not out.exists()

    def test_malformed_hierarchical_rejected(self, tmp_path):
        cfg = tmp_path / "train.cfg"
        for value in ("ture", "2", "on"):
            write_config(cfg, method="multitask", hierarchical=value,
                         out=tmp_path / "m.json", **FAST_TOY)
            _, err = run_rejected(tmp_path, "train", "--config", cfg)
            assert f"bad value for config key 'hierarchical': '{value}'" in err
            assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_hierarchical_without_coarse_level_rejected(self, tmp_path, command):
        cfg, out = tmp_path / "run.cfg", tmp_path / "out"
        own = (dict(method="multitask") if command == "train"
               else dict(methods="multitask", lambdas="0.5", seeds="0"))
        write_config(cfg, out=out, **{**FAST_TOY, **own, "coarse_classes": "none",
                                      "hierarchical": "true"})
        _, err = run_rejected(tmp_path, command, "--config", cfg)
        assert err == "error: hierarchical needs coarse_classes, got None\n"
        assert not out.exists()

    def test_hierarchical_accepts_exactly_six_words(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        for value, want in (("1", True), ("TRUE", True), ("Yes", True),
                            ("0", False), ("False", False), ("no", False)):
            write_config(cfg, hierarchical=value)
            assert _build_sweep_config(read_config_file(cfg), set()).hierarchical is want

    @pytest.mark.parametrize("text", ["\u0663", "+4", "1_0", " 3"])
    def test_int_values_take_sign_and_ascii_digits_only(self, text):
        for parse in (_PARSERS["int"], _PARSERS["Optional[int]"]):
            with pytest.raises(distilcal.InvalidInputError, match="bad value for config key 'k'"):
                _cast({"k": text}, "k", parse)
        if text != " 3":  # ``_list`` strips each part, as "1, 2" needs
            with pytest.raises(distilcal.InvalidInputError, match="bad value for config key 'k'"):
                _cast({"k": f"1, {text}"}, "k", _list(_PARSERS["int"]))

    @pytest.mark.parametrize("text", ["\u0663", "0.0_5", "1_0", " 3", "\uff11.5"])
    def test_float_values_take_ascii_without_underscores(self, text):
        with pytest.raises(distilcal.InvalidInputError, match="bad value for config key 'k'"):
            _cast({"k": text}, "k", _PARSERS["float"])
        if text != " 3":
            with pytest.raises(distilcal.InvalidInputError, match="bad value for config key 'k'"):
                _cast({"k": f"0.5, {text}"}, "k", _list(_PARSERS["float"]))

    def test_lists_keep_spaces_after_commas(self):
        assert _cast({"k": "1, 2,-3"}, "k", _list(_PARSERS["int"])) == [1, 2, -3]
        assert _cast({"k": "0.5, 1e-1"}, "k", _list(_PARSERS["float"])) == [0.5, 0.1]

    @pytest.mark.parametrize("command,key,value", [
        ("sweep", "seeds", "0, \u0663"), ("sweep", "lambdas", "0.5, 1_0"),
        ("sweep", "epochs", "+4"), ("sweep", "coarse_classes", "\u0662"),
        ("train", "seed", "1_0"), ("train", "lambda", "0.0_5"),
    ])
    def test_commands_reject_number_spellings_naming_key(self, tmp_path, command, key, value):
        cfg = tmp_path / "run.cfg"
        base = {"sweep": dict(lambdas="0.5", methods="lst", seeds="0"),
                "train": dict(method="lst")}[command]
        write_config(cfg, **{**FAST_TOY, **base, key: value, "out": tmp_path / "o"})
        _, err = run_rejected(tmp_path, command, "--config", cfg)
        assert f"bad value for config key {key!r}" in err
        assert not (tmp_path / "o").exists()

    def test_every_field_round_trips_through_a_config_file(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        default = SweepConfig()
        write_config(cfg, **{f.name: str(getattr(default, f.name))
                             for f in dataclasses.fields(SweepConfig)})
        assert _build_sweep_config(read_config_file(cfg), set()) == default


class TestSweepCommand:
    def test_byte_identical_across_runs_and_lambda_echo(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        write_config(cfg, lambdas="0.2,0.8", methods="lst,multitask", seeds="0",
                     out=out1, **FAST_TOY)
        code, _, _ = run(capsys, "sweep", "--config", cfg)
        assert code == 0
        write_config(cfg, lambdas="0.2,0.8", methods="lst,multitask", seeds="0",
                     out=out2, **FAST_TOY)
        run(capsys, "sweep", "--config", cfg)
        assert out1.read_bytes() == out2.read_bytes()
        body = out1.read_text().splitlines()
        assert body[0] == "method,lambda,seed,acc,ece1,ece2,ece3"
        assert {line.split(",")[1] for line in body[1:]} == {"0.200000", "0.800000"}


#: A small run with every shared config key given; ``config_lines`` adds the
#: command's own keys. At task_seed 2, mean_scale=1e308 overflows a cluster mean.
CONFIG_BASE = dict(
    num_classes=4, input_dim=3, coarse_classes=2, noise_sigma=1.0, mean_scale=1.0, task_seed=2,
    n_train=8, n_test=8, hidden_dim=4, epochs=1, learning_rate=0.1, batch_size=4,
    teacher_hidden_multiplier=1, teacher_data_multiplier=2, teacher_epochs=1,
    lst_temperature=2.0, multitask_temperature=1.0, hierarchical="true", eval_bins=3,
)
COMMAND_KEYS = {
    "train": lambda method: dict(method=method, seed=1, **{"lambda": 0.5}, epsilon=0.1,
                                 temperature=1.5),
    "sweep": lambda method: dict(lambdas="0, 0.5", methods=f"{method}, lst", seeds="0, 2"),
}
#: Ways to break a config file at one line ("empty" and "crlf" act on the
#: whole file; "crlf", "tab" and a "bom" on the first line leave it valid).
#: "bad", "negative" and "huge" replace the line's value, never the ``out`` path.
CONFIG_MUTATIONS = ("missing", "extra", "duplicate", "bad", "negative", "huge", "empty", "crlf",
                    "bom", "non_utf8", "tab", "key_space", "none")
BAD_VALUES = ["x", "", "1.5x", "1_0", "+4", "\u0663", "0x10", "nan", "-inf", "1e3", "0.0_5",
              "\uff11.5", "true"]
HUGE_VALUES = ["1e308", "-1e308", "1.7976931348623157e308", "1e400"]
#: Keys whose 30-digit integer ``SweepConfig`` rejects before anything is
#: allocated; another key's could allocate gigabytes or loop for ever.
BOUNDED_KEYS = {"num_classes", "input_dim", "n_train", "n_test", "epochs", "batch_size",
                "hidden_dim", "teacher_hidden_multiplier", "teacher_data_multiplier",
                "teacher_epochs", "eval_bins"}
#: Every config key.
CONFIG_NAMES = sorted({f.name for f in dataclasses.fields(SweepConfig)} | cli._TRAIN_ONLY_KEYS
                      | cli._SWEEP_ONLY_KEYS)


def config_lines(command, method, **values):
    """The lines of a ``command`` config for ``method``; ``out`` is ``@``."""
    keys = {**CONFIG_BASE, **COMMAND_KEYS[command](method), "out": "@", **values}
    return [f"{key}={value}" for key, value in keys.items()]


def config_case(command, key, value):
    """A ``config_file`` case: the ``lst`` config with ``key`` set to ``value``."""
    lines = config_lines(command, "lst", **{key: value})
    return command, "".join(f"{line}\n" for line in lines).encode(), key


@st.composite
def config_file(draw):
    """``(command, bytes, key)``: a config broken by one mutation at the line
    of ``key``, as written there."""
    command = draw(st.sampled_from(sorted(COMMAND_KEYS)))
    methods = ["lst", "multitask"] + (["baseline", "label_smooth"] if command == "train" else [])
    lines = config_lines(command, draw(st.sampled_from(methods)))
    at = draw(st.integers(0, len(lines) - 1))
    key, value = lines[at].split("=", 1)
    mutation = draw(st.sampled_from(CONFIG_MUTATIONS))
    if mutation in ("bad", "negative", "huge") and key != "out":
        if mutation == "negative":
            value = f"-{value}"
        else:
            huge = HUGE_VALUES + ["1" + "0" * 29] * (key in BOUNDED_KEYS)
            value = draw(st.sampled_from(BAD_VALUES if mutation == "bad" else huge))
        lines[at] = f"{key}={value}"
    elif mutation == "missing":
        del lines[at]
    elif mutation in ("extra", "duplicate"):
        lines.insert(at, "typo_key=1" if mutation == "extra" else lines[at])
        key = "typo_key" if mutation == "extra" else key
    elif mutation == "empty":
        lines = []
    elif mutation == "bom":
        lines[at] = "\ufeff" + lines[at]
        key = "\ufeff" + key
    elif mutation == "tab":  # a space turned into a tab, or tabs around the "="
        old, new = (" ", "\t") if " " in value else ("=", "\t=\t")
        lines[at] = lines[at].replace(old, new)
    elif mutation == "key_space":
        cut = draw(st.integers(1, len(key) - 1))
        key = key[:cut] + draw(st.sampled_from([" ", "\t", "\u00a0"])) + key[cut:]
        lines[at] = f"{key}={value}"
    end = "\r\n" if mutation == "crlf" else "\n"
    data = "".join(line + end for line in lines).encode()
    if mutation == "non_utf8":
        cut = sum(len(line.encode()) + 1 for line in lines[:at])
        cut += draw(st.integers(0, len(lines[at].encode())))
        data = data[:cut] + b"\xff" + data[cut:]
    return command, data, key


def numbers_in_output(command, stdout, out):
    """Every number ``command`` printed and wrote to ``out``."""
    values = [v for key, _, v in (kv.partition("=") for kv in stdout.split())
              if key not in ("method", "out")]
    if command == "sweep":
        values += [v for row in out.read_text().splitlines()[1:] for v in row.split(",")[1:]]
    else:  # each number of the model file as written, NaN and Infinity too
        json.loads(out.read_text(), parse_float=values.append, parse_int=values.append,
                   parse_constant=values.append)
    return values


class TestConfigMutations:
    @settings(max_examples=60, deadline=None)
    @given(config_file())
    @example(config_case("train", "mean_scale", "1e308"))
    @example(config_case("train", "noise_sigma", "1e308"))
    @example(config_case("sweep", "learning_rate", "1e308"))
    def test_exit_0_or_2_naming_a_line_or_key(self, tmp_path_factory, case):
        command, data, key = case
        work = tmp_path_factory.mktemp("config")
        out = work / "out"
        path = work / "run.cfg"
        path.write_bytes(data.replace(b"@", bytes(out)))
        argv = [command, "--config", str(path)]
        code, stdout, stderr = run_quiet(argv)
        assert code in (0, 2), stderr
        assert "Traceback" not in stderr
        written = out.read_bytes() if out.exists() else None
        if code == 2:
            assert stdout == "" and written is None
            names = "|".join(map(re.escape, CONFIG_NAMES))
            assert (re.match(r"error: .*:\d+: ", stderr) or repr(key) in stderr
                    or re.search(rf"\b({names})\b", stderr)), stderr
        else:
            assert stderr == ""
            assert all_finite(numbers_in_output(command, stdout, out))
        assert run_quiet(argv) == (code, stdout, stderr)
        assert (out.read_bytes() if out.exists() else None) == written


NUMERIC_FLAGS = [
    ("ece", ["--input", DATA / "predictions_hand4.jsonl", "--out", "o.csv"], "--rank"),
    ("ece", ["--input", DATA / "predictions_hand4.jsonl", "--out", "o.csv"], "--bins"),
    ("fit-temp", ["--val", DATA / "predictions_hand4.jsonl"], "--t-min"),
    ("fit-temp", ["--val", DATA / "predictions_hand4.jsonl"], "--t-max"),
    ("fit-temp", ["--val", DATA / "predictions_hand4.jsonl"], "--bins"),
    ("combine", ["--hyps", DATA / "hyps_flip.jsonl"], "--t1"),
    ("combine", ["--hyps", DATA / "hyps_flip.jsonl"], "--t2"),
]


class TestNumericFlags:
    @pytest.mark.parametrize("value", ["1_5", "\u0662", "1_0"])
    @pytest.mark.parametrize("command,argv,flag", NUMERIC_FLAGS)
    def test_flag_rejects_other_spellings(self, capsys, tmp_path, monkeypatch, command, argv,
                                          flag, value):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command, *map(str, argv), flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: invalid" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_every_typed_argument_takes_the_number_rule(self, capsys):
        """Walk the parser: every argument with a ``type`` reads "1" and
        rejects "1_0" and "٣", so no flag added later escapes the rule."""
        [subparsers] = [a for a in _build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction)]
        typed = 0
        for command, parser in subparsers.choices.items():
            required = [arg for a in parser._actions if a.required
                        for arg in (a.option_strings[0], "x")]
            for action in parser._actions:
                if action.type is None:
                    continue
                typed += 1
                flag = action.option_strings[0]
                parser.parse_args([*required, flag, "1"])
                for value in ("1_0", "\u0663"):
                    with pytest.raises(SystemExit) as exc:
                        parser.parse_args([*required, flag, value])
                    assert exc.value.code == 2, (command, flag, value)
                    assert f"argument {flag}: invalid" in capsys.readouterr().err
        assert typed == len(NUMERIC_FLAGS)


class TestPlumbing:
    def test_version_flag(self, capsys):
        for argv in (["--version"], ["ece", "--version"], ["sweep", "--version"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "distilcal" in out

    def test_import_loads_no_process_machinery(self):
        code = ("import sys, distilcal.cli; "
                "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])")
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_package_exports_are_pinned(self):
        assert distilcal.__all__ == [
            "Alignments", "ConfigurationError", "DEFAULT_BOUNDS", "DistilcalError",
            "EvalResult", "FileFormatError", "InvalidInputError", "InvalidParameterError",
            "ReliabilityReport", "Runs", "SweepConfig", "SweepRow", "SyntheticTask",
            "TemperatureFit", "ToyNetwork", "TrainConfig", "UnmappedTokenError", "alignment",
            "as_logits", "as_probs", "calibration", "combine_ranking", "combine_scores",
            "cross_entropy", "deduplicate", "ece", "entropy", "errors", "evaluate",
            "fit_summary", "fit_temperature", "generate_data", "grad_check", "head_targets",
            "interpolate_target", "kd_loss", "log_softmax_t", "losses", "make_student",
            "make_task", "make_teacher", "map_units", "multitask_loss", "network_loss_and_grad",
            "nll_at_temperature", "one_hot", "pooled_gap", "probs", "rank_confidence_correct",
            "reliability_csv", "smooth_label", "soft_label", "softmax_t", "sweep_csv",
            "sweep_lambda", "target_lines", "targets", "teacher_posteriors", "tempscale",
            "top_n", "toy", "train", "train_cell", "train_model",
        ]
        assert all(hasattr(distilcal, name) for name in distilcal.__all__)

    def test_lazy_toy_names_are_toys_public_functions_and_classes(self):
        defined = {name for name, obj in vars(toy).items()
                   if not name.startswith("_")
                   and (inspect.isfunction(obj) or inspect.isclass(obj))
                   and obj.__module__ == toy.__name__}
        assert distilcal._TOY_NAMES == defined

    @pytest.mark.parametrize("argv", [
        ["--version"],
        ["ece", "--input", str(DATA / "predictions_hand4.jsonl"), "--out", "o.csv"],
        ["fit-temp", "--val", str(DATA / "predictions_hand4.jsonl")],
        ["combine", "--hyps", str(DATA / "hyps_flip.jsonl")],
        ["targets", "--align", str(DATA / "align_three.tsv"),
         "--posteriors", str(DATA / "post_fine.tsv"), "--out", "t.tsv"],
    ], ids=["version", "ece", "fit-temp", "combine", "targets"])
    def test_commands_that_train_nothing_never_import_toy(self, tmp_path, argv):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "distilcal.cli", *argv],
            cwd=tmp_path, env=child_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
        assert "distilcal.fileio" in imported and "distilcal.toy" not in imported

    @pytest.mark.parametrize("argv", [
        ["--version"],
        ["combine", "--hyps", str(DATA / "hyps_flip.jsonl")],
    ], ids=["version", "combine"])
    def test_exit_skips_the_last_collection(self, tmp_path, argv):
        # atexit runs last in, first out: this handler runs after any that main registers.
        code = ("import atexit, gc, sys\n"
                "from distilcal.cli import main\n"
                "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
                "sys.exit(main(sys.argv[1:]))\n")
        proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=tmp_path,
                              env=child_env(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.endswith("\nfrozen True\n")

    def test_exit_hook_is_registered_once(self):
        code = ("import atexit, contextlib, gc, io\n"
                "freezes = []\n"
                "gc.freeze = lambda: freezes.append(1)\n"
                "atexit.register(lambda: print('freezes', len(freezes)))\n"
                "from distilcal.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    for _ in range(3):\n"
                "        main(['combine', '--hyps', r'%s'])\n" % (DATA / "hyps_flip.jsonl"))
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "freezes 1\n"

    @pytest.mark.parametrize("command", ["ece", "targets", "train"])
    def test_write_error_names_the_output_path(self, tmp_path, command):
        out = os.path.join("missing", "out.txt")
        argv = {
            "ece": ["--input", DATA / "predictions_hand4.jsonl", "--out", out],
            "targets": ["--align", DATA / "align_three.tsv",
                        "--posteriors", DATA / "post_fine.tsv", "--out", out],
            "train": ["--config", "train.cfg"],
        }[command]
        write_config(tmp_path / "train.cfg", method="baseline", out=out, **FAST_TOY)
        runs = [run_rejected(tmp_path, command, *argv) for _ in range(2)]
        assert runs[0] == runs[1]
        assert runs[0][1] == f"error: [Errno 2] No such file or directory: {out!r}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["train.cfg"]

    def test_output_path_that_is_a_directory_is_named(self, tmp_path):
        (tmp_path / "d").mkdir()
        _, err = run_rejected(tmp_path, "ece", "--input", DATA / "predictions_hand4.jsonl",
                              "--out", "d")
        assert err == "error: [Errno 21] Is a directory: 'd'\n"
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["d"]

    def test_help_on_every_subcommand(self, capsys):
        for sub in ("ece", "fit-temp", "combine", "targets", "train", "sweep"):
            with pytest.raises(SystemExit) as exc:
                main([sub, "--help"])
            assert exc.value.code == 0

    @pytest.mark.parametrize("demo", ["01_soft_targets_and_losses.py",
                                      "02_topn_calibration.py",
                                      "03_temperature_scaling.py",
                                      "04_hierarchical_targets.py",
                                      "05_lambda_stability.py"])
    def test_fast_demo_runs_cleanly(self, tmp_path, demo):
        proc = subprocess.run([sys.executable, str(DEMOS / demo)], cwd=tmp_path,
                              env=child_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
