import codecs
import json
import os
import re
import stat
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distilcal import FileFormatError
from distilcal import fileio
from distilcal.fileio import read_hypothesis_file, read_posterior_file, read_prediction_file

from oracles import ref_read_hypothesis_file, ref_read_posterior_file, ref_read_prediction_file

# One malformed posterior file per error, with the line and message reported
# by the line-at-a-time reader that the vectorised one replaced.
POSTERIOR_ERRORS = {
    "columns": ("u\t0\n", 1, "expected 'utt<TAB>token-index<TAB>p0 p1 ...'"),
    "columns_extra": ("u\t0\t0.5 0.5\textra\n", 1,
                      "expected 'utt<TAB>token-index<TAB>p0 p1 ...'"),
    "bad_index": ("u\tx\t0.5 0.5\n", 1, "bad token index 'x'"),
    "float_index": ("u\t1.0\t0.5 0.5\n", 1, "bad token index '1.0'"),
    "negative_index": ("u\t-1\t0.5 0.5\n", 1, "negative token index -1"),
    "non_number": ("u\t0\t0.5 abc\n", 1, "probabilities must be numbers"),
    "too_few_values": ("u\t0\t1.0\n", 1, "need >= 2 finite non-negative probabilities"),
    "no_values": ("u\t0\t\n", 1, "need >= 2 finite non-negative probabilities"),
    "nan": ("u\t0\tnan 0.5\n", 1, "need >= 2 finite non-negative probabilities"),
    "inf": ("u\t0\t0.5 inf\n", 1, "need >= 2 finite non-negative probabilities"),
    "negative_value": ("u\t0\t-0.5 1.5\n", 1,
                       "need >= 2 finite non-negative probabilities"),
    "width_mismatch": ("u\t0\t0.5 0.5\nu\t1\t0.2 0.3 0.5\n", 2,
                       "expected 2 probabilities, got 3"),
    "sum_off": ("u\t0\t0.5 0.6\n", 1, "probabilities sum to 1.10000000, not 1"),
    "sum_just_off": ("u\t0\t0.5 0.5000011\n", 1,
                     "probabilities sum to 1.00000110, not 1"),
    "duplicate_index": ("u\t0\t0.5 0.5\nv\t0\t0.5 0.5\nu\t0\t0.4 0.6\n", 3,
                        "duplicate token index 0"),
    "gaps": ("u\t0\t0.5 0.5\nv\t0\t0.5 0.5\nv\t2\t0.5 0.5\n", 0,
             "utterance 'v' has gaps in its token indices"),
    "index_past_int64": ("a\t0\t0.5 0.5\na\t99999999999999999999\t0.5 0.5\n", 0,
                         "utterance 'a' has gaps in its token indices"),
    "gaps_first_used_named": ("v\t0\t0.5 0.5\nu\t1\t0.5 0.5\nv\t5\t0.5 0.5\n", 0,
                              "utterance 'v' has gaps in its token indices"),
    "empty": ("", 0, "no posteriors found"),
    "blank_only": ("\n  \n\t\n", 0, "no posteriors found"),
    "blank_lines_shift_numbers": ("\nu\t0\t0.5 0.5\n\n   \nu\t1\t0.5 0.6\n", 5,
                                  "probabilities sum to 1.10000000, not 1"),
    # An earlier line's value error beats a later line's structural error.
    "value_then_columns": ("u\t0\t0.5 0.5\nu\t1\t0.5 0.6\nu\t2\n", 2,
                           "probabilities sum to 1.10000000, not 1"),
    "number_then_index": ("u\t0\t0.5 x\nu\ty\t0.5 0.5\n", 1,
                          "probabilities must be numbers"),
    "negative_then_duplicate": ("u\t0\t0.5 0.5\nu\t1\t-1 2\nu\t0\t0.5 0.5\n", 2,
                                "need >= 2 finite non-negative probabilities"),
    "width_then_number": ("u\t0\t0.5 0.5\nu\t1\t0.2 0.3 0.5\nu\t2\t0.5 q\n", 2,
                          "expected 2 probabilities, got 3"),
    "duplicate_then_sum": ("u\t0\t0.5 0.5\nu\t0\t0.5 0.5\nu\t1\t0.5 0.6\n", 2,
                           "duplicate token index 0"),
    # One line failing both kinds of check: values are checked first.
    "duplicate_and_sum": ("u\t0\t0.5 0.5\nu\t0\t0.5 0.6\n", 2,
                          "probabilities sum to 1.10000000, not 1"),
    "width_and_negative": ("u\t0\t0.5 0.5\nu\t1\t-1 1 1\n", 2,
                           "need >= 2 finite non-negative probabilities"),
    "width_and_sum": ("u\t0\t0.5 0.5\nu\t1\t0.2 0.2 0.2\n", 2,
                      "expected 2 probabilities, got 3"),
    "duplicate_and_width": ("u\t0\t0.5 0.5\nu\t0\t0.2 0.3 0.5\n", 2,
                            "expected 2 probabilities, got 3"),
    "duplicate_and_number": ("u\t0\t0.5 0.5\nu\t0\t0.5 z\n", 2,
                             "probabilities must be numbers"),
    "too_few_and_width": ("u\t0\t0.5 0.5\nu\t1\t1.0\n", 2,
                          "need >= 2 finite non-negative probabilities"),
}


@pytest.mark.parametrize("name", sorted(POSTERIOR_ERRORS))
def test_posterior_error_catalogue(name, tmp_path):
    text, line_no, message = POSTERIOR_ERRORS[name]
    path = tmp_path / "post.tsv"
    path.write_text(text)
    with pytest.raises(FileFormatError) as info:
        read_posterior_file(path)
    assert type(info.value) is FileFormatError
    assert info.value.line_no == line_no
    assert str(info.value) == f"{path}:{line_no}: {message}"


#: Number spellings that ``int`` or ``float`` reads but the posterior format
#: does not allow: an index holds only ASCII digits and '-', and the values
#: are ASCII without '_'. Each is the second line of its file.
POSTERIOR_SPELLINGS = {
    "underscore_values": ("u\t1\t0.2_5 0.7_5", "probabilities must be numbers"),
    "underscore_index": ("u\t1_0\t0.5 0.5", "bad token index '1_0'"),
    "plus_index": ("u\t+1\t0.5 0.5", "bad token index '+1'"),
    "space_before_index": ("u\t 1\t0.5 0.5", "bad token index ' 1'"),
    "space_after_index": ("u\t1 \t0.5 0.5", "bad token index '1 '"),
    "arabic_indic_index": ("u\t\u0661\t0.5 0.5", "bad token index '\u0661'"),
    "arabic_indic_values": ("u\t1\t\u0660.\u0662\u0665 0.75", "probabilities must be numbers"),
    "fullwidth_values": ("u\t1\t0.25 \uff10.75", "probabilities must be numbers"),
    "index_before_values": ("u\t+1\t0.2_5 0.7_5", "bad token index '+1'"),
}


@pytest.mark.parametrize("name", sorted(POSTERIOR_SPELLINGS))
def test_posterior_number_spellings_rejected(name, tmp_path):
    line, message = POSTERIOR_SPELLINGS[name]
    path = tmp_path / "post.tsv"
    path.write_text(f"u\t0\t0.5 0.5\n{line}\n", encoding="utf-8")
    for read in (read_posterior_file, ref_read_posterior_file):
        with pytest.raises(FileFormatError) as info:
            read(path)
        assert str(info.value) == f"{path}:2: {message}"


def test_row_sum_past_float_range_rejected_without_warning(tmp_path):
    path = tmp_path / "post.tsv"
    path.write_text("u\t0\t0.5 0.5\nu\t1\t1e308 1e308\n")
    for read in (read_posterior_file, ref_read_posterior_file):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FileFormatError) as info:
                read(path)
        assert str(info.value) == f"{path}:2: probabilities sum to inf, not 1"


def test_posteriors_grouped_by_utterance_in_token_order(tmp_path):
    path = tmp_path / "post.tsv"
    path.write_text("b\t1\t0.3 0.7\na\t0\t1 0\nb\t0\t5e-1 .5\n")
    table = read_posterior_file(path)
    assert list(table) == ["b", "a"]
    np.testing.assert_array_equal(table["b"], [[0.5, 0.5], [0.3, 0.7]])
    np.testing.assert_array_equal(table["a"], [[1.0, 0.0]])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([2, 8, 40, 200, 1000]),
    st.integers(1, 30),
)
def test_renormalised_rows_match_per_row_division(tmp_path_factory, seed, width, n):
    """Rows off the simplex by up to 9e-7 are each divided by their own sum,
    bit for bit as ``vec / vec.sum()`` on the row alone, also past the block
    NumPy's pairwise summation works in."""
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.ones(width), size=n)
    rows *= 1.0 + rng.uniform(-9e-7, 9e-7, size=(n, 1))
    path = tmp_path_factory.mktemp("renorm") / "post.tsv"
    path.write_text(
        "".join(f"u\t{i}\t{' '.join(map(repr, row.tolist()))}\n" for i, row in enumerate(rows))
    )
    got = read_posterior_file(path)["u"]
    want = np.stack([row / row.sum() for row in rows])
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


#: Fixed-width decimal values: the whole-file path's integer reading
#: (``fileio._decimals``) must give ``float``'s bits.
FIXED_VALUES = ["0.000000", "1.000000", "9.999999", "0.000001", "0.500000", "5.000000",
                "0.1", ".5", "1.", "00.50", "0.30000000000000", "9999999999.99999",
                "0.00000000000001", "99999999999999.9"]


@pytest.mark.parametrize("text", FIXED_VALUES)
def test_fixed_width_value_is_read_as_float_reads_it(text):
    """Two lines of two values, as ``(lines, values, width + 1)`` cells of
    each value and the byte after it, which is how the whole-file path
    shapes them."""
    cells = np.frombuffer(f"{text} {text}\n{text} {text}\n".encode(), dtype=np.uint8)
    rows = fileio._decimals(cells.reshape(2, 2, len(text) + 1), text.find("."))
    assert rows.shape == (2, 2)
    assert rows.tobytes() == np.full((2, 2), float(text)).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 15), st.data())
def test_fixed_width_values_bit_identical_to_float(digits, data):
    point = data.draw(st.integers(0, digits))
    q = data.draw(st.lists(st.integers(0, 10**digits - 1), min_size=1, max_size=30))
    texts = [str(v).zfill(digits) for v in q]
    texts = [f"{t[:point]}.{t[point:]}" for t in texts]
    cells = np.frombuffer((" ".join(texts) + "\n").encode(), dtype=np.uint8)
    rows = fileio._decimals(cells.reshape(1, len(texts), digits + 2), point)
    assert rows.shape == (1, len(texts))
    assert rows.tobytes() == np.array([list(map(float, texts))]).tobytes()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 8, 40, 200]), st.integers(1, 40))
def test_six_decimal_files_bit_identical_to_reference(tmp_path_factory, seed, width, n):
    """Rows at six decimals, as posterior dumps spell them, come out as the
    line-at-a-time reader makes them, with the utterances' lines interleaved;
    the same rows with each utterance's lines together take the whole-file
    path, with the same arrays."""
    rng = np.random.default_rng(seed)
    q = np.rint(rng.dirichlet(np.full(width, 0.3), size=n) * 1e6).astype(np.int64)
    q[:, 0] += 1_000_000 - q.sum(axis=1)  # may go negative: then the row is invalid
    q[0] = 0
    q[0, -1] = 1_000_000  # 0.000000 and 1.000000
    texts = [" ".join(f"{v // 10**6}.{v % 10**6:06d}" for v in row) for row in q.tolist()]
    path = tmp_path_factory.mktemp("six") / "post.tsv"
    path.write_text("".join(f"u{i % 3}\t{i // 3}\t{t}\n" for i, t in enumerate(texts)))
    table = None
    if (q >= 0).all():
        together = "".join(f"u{u}\t{i // 3}\t{texts[i]}\n"
                           for u in range(3) for i in range(u, n, 3))
        table = fileio._posterior_kernel(together.encode())
        assert table is not None
    try:
        want = ref_read_posterior_file(path)
    except FileFormatError as e:
        with pytest.raises(FileFormatError) as info:
            read_posterior_file(path)
        assert str(info.value) == str(e)
        return
    got = read_posterior_file(path)
    assert list(got) == list(want)
    assert all(got[utt].tobytes() == want[utt].tobytes() for utt in want)
    if table is not None:
        assert list(table) == list(want)
        assert all(table[utt].tobytes() == want[utt].tobytes() for utt in want)


def simplex_rows(rng, n: int, width: int, decimals: int = 6, units: int = 1,
                 slack: int = 0) -> list[str]:
    """``n`` random rows of ``width`` values at ``decimals`` places with
    ``units`` integer digits, whose digits sum to 1 give or take up to
    ``slack`` in the last place. Rounding down leaves each row short of 1,
    never over it, so the shortfall added to its largest value keeps every
    value non-negative."""
    one = 10**decimals
    q = np.floor(rng.dirichlet(np.full(width, 0.3), size=n) * one).astype(np.int64)
    q[np.arange(n), q.argmax(axis=1)] += one - q.sum(axis=1) + rng.integers(-slack, slack + 1, n)
    return [" ".join(f"{v // one:0{units}d}.{v % one:0{decimals}d}" for v in row)
            for row in q.tolist()]


def assert_read_as_reference_reads(path):
    """``read_posterior_file`` gives the reference's arrays, in its order, or
    its exception type, line and message."""
    try:
        want = ref_read_posterior_file(path)
    except FileFormatError as e:
        with pytest.raises(FileFormatError) as info:
            read_posterior_file(path)
        assert (type(info.value), info.value.line_no, str(info.value)) == (type(e), e.line_no, str(e))
        return
    got = read_posterior_file(path)
    assert list(got) == list(want)
    for utt in want:
        assert got[utt].shape == want[utt].shape and got[utt].tobytes() == want[utt].tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 8, 40]),
       st.lists(st.integers(1, 40), min_size=1, max_size=8),
       st.sampled_from([(6, 1, 0), (1, 1, 0), (3, 2, 0), (12, 1, 99_999)]))
def test_kernel_files_bit_identical_to_reference(tmp_path_factory, seed, width, lengths, spelling):
    """Files spelt the common way, at several widths, point columns and id
    lengths, rows off the simplex by up to 1e-7 too, take the whole-file path
    and give the reference's arrays."""
    rng = np.random.default_rng(seed)
    rows = iter(simplex_rows(rng, sum(lengths), width, *spelling))
    ids = [f"{'spk-' * (u % 3)}u{u}" for u in range(len(lengths))]
    text = "".join(f"{utt}\t{i}\t{next(rows)}\n" for utt, t in zip(ids, lengths) for i in range(t))
    path = tmp_path_factory.mktemp("kernel") / "post.tsv"
    path.write_text(text)
    assert fileio._posterior_kernel(path.read_bytes()) is not None
    assert_read_as_reference_reads(path)


#: A file the whole-file path takes: two utterances, the second of one line.
KERNEL_BASE = ["a\t0\t0.250000 0.750000", "a\t1\t0.500000 0.500000", "b\t0\t1.000000 0.000000"]
#: name -> a file that leaves the whole-file path for the line-at-a-time
#: one: the base file spelt another way, or not valid at all.
NOT_KERNEL = {
    "non_ascii_id": "\n".join(line.replace("b", "\u00e9") for line in KERNEL_BASE) + "\n",
    "space_padded_id": "\n".join([" a" + line[1:] for line in KERNEL_BASE[:2]]) + "\n",
    "space_in_id": "\n".join(["a b" + line[1:] for line in KERNEL_BASE[:2]]) + "\n",
    "form_feed_in_id": "\n".join(["a\x0c" + line[1:] for line in KERNEL_BASE]) + "\n",
    "nul_in_id": "\n".join(["a\x00" + line[1:] for line in KERNEL_BASE]) + "\n",
    "empty_id": "\n".join(line[1:] for line in KERNEL_BASE[:2]) + "\n",
    "trailing_space": "\n".join([KERNEL_BASE[0] + " ", *KERNEL_BASE[1:]]) + "\n",
    "double_space": "\n".join([KERNEL_BASE[0].replace(" ", "  "), *KERNEL_BASE[1:]]) + "\n",
    "mixed_widths": "\n".join([KERNEL_BASE[0], "a\t1\t0.5 0.5", KERNEL_BASE[2]]) + "\n",
    "point_column": "\n".join([KERNEL_BASE[0], "a\t1\t00.50000 0.500000", KERNEL_BASE[2]]) + "\n",
    "comma_between": "\n".join([KERNEL_BASE[0], "a\t1\t0.500000,0.500000", KERNEL_BASE[2]]) + "\n",
    "exponent": "\n".join([KERNEL_BASE[0], "a\t1\t1e-3 0.999", KERNEL_BASE[2]]) + "\n",
    "leading_zero_index": "".join(f"a\t{i:03d}\t0.500000 0.500000\n" for i in range(9)),
    "minus_zero_index": "\n".join(["a\t-0\t0.250000 0.750000", *KERNEL_BASE[1:]]) + "\n",
    "duplicate_index": "\n".join([KERNEL_BASE[0], KERNEL_BASE[0], KERNEL_BASE[2]]) + "\n",
    "gap": "\n".join([KERNEL_BASE[0], KERNEL_BASE[1].replace("\t1\t", "\t2\t")]) + "\n",
    "one_column": "\n".join([*KERNEL_BASE, "c\t0\t1.000000"]) + "\n",
    "one_column_only": "a\t0\t1.000000\nb\t0\t1.000000\n",
    "four_columns": "\n".join([KERNEL_BASE[0] + "\tx", *KERNEL_BASE[1:]]) + "\n",
    "sum_off": "\n".join([KERNEL_BASE[0], "a\t1\t0.500000 0.600000", KERNEL_BASE[2]]) + "\n",
    "sum_off_in_a_later_block": "".join(
        f"u\t{i}\t{'0.500000 0.600000' if i == 1500 else '0.500000 0.500000'}\n"
        for i in range(2100)),
    "id_repeated_after_other": "\n".join([*KERNEL_BASE, "a\t0\t0.500000 0.500000"]) + "\n",
    "index_past_int64": "\n".join([*KERNEL_BASE, "b\t99999999999999999999\t0.500000 0.500000"]) + "\n",
}

#: name -> the base file with its lines in another order, which the
#: whole-file path takes as well.
KERNEL_ORDERS = {
    "split_utterance": "\n".join([KERNEL_BASE[0], KERNEL_BASE[2], KERNEL_BASE[1]]) + "\n",
    "out_of_order": "\n".join([KERNEL_BASE[1], KERNEL_BASE[0], KERNEL_BASE[2]]) + "\n",
}


#: name -> the values of the base file's first line, spelt so that the file
#: leaves the whole-file path and every value is read by ``float``.
NOT_FIXED = {
    "letter": "0.250000 0.75000x",
    "moved_point": "0.250000 07.50000",
    "comma": "0.250000 0,750000",
    "no_point_in_column": "0.250000 00750000",
    "no_space_in_column": "0.250000x0.750000",
    "seventh_decimal": "0.250000 0.7500000",
    "minus": "-.250000 1.250000",
    "plus": "+.250000 0.750000",
    "double_space": "0.250000  0.750000",
    "leading_space": " 0.250000 0.750000",
    "no_point": "1 0",
    "point_only": ". .",
    "sixteen_digits": "0.000000000000001 0.999999999999999",
    "line_width": "0.25000 0.75000",
    "empty_line": "",
    "non_ascii": "0.250000 \uff10.750000",
}


def assert_leaves_kernel_and_reads_as_reference_reads(path, text: str):
    path.write_bytes(text.encode())
    assert fileio._posterior_kernel(fileio._read(path)) is None
    assert_read_as_reference_reads(path)


@pytest.mark.parametrize("name", sorted(NOT_KERNEL))
def test_other_spellings_read_line_by_line_as_reference_reads(name, tmp_path):
    assert_leaves_kernel_and_reads_as_reference_reads(tmp_path / "post.tsv", NOT_KERNEL[name])


@pytest.mark.parametrize("name", sorted(KERNEL_ORDERS))
def test_lines_in_any_order_take_the_whole_file_path(name, tmp_path, monkeypatch):
    path = tmp_path / "post.tsv"
    path.write_text(KERNEL_ORDERS[name])
    want = ref_read_posterior_file(path)
    fail_if_read_line_by_line(monkeypatch)
    got = read_posterior_file(path)
    assert list(got) == list(want)
    assert all(got[utt].tobytes() == want[utt].tobytes() for utt in want)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 40]),
       st.lists(st.integers(1, 30), min_size=2, max_size=12))
def test_shuffled_kernel_files_bit_identical_to_reference(tmp_path_factory, seed, width, lengths):
    """The lines of a file spelt the common way, in any order, take the
    whole-file path and give the reference's arrays; ids of several lengths,
    some a prefix of another (``u1``, ``u10``), stay apart."""
    rng = np.random.default_rng(seed)
    rows = iter(simplex_rows(rng, sum(lengths), width))
    ids = [f"{'spk-' * (u % 3)}u{u}" for u in range(len(lengths))]
    lines = [f"{utt}\t{i}\t{next(rows)}\n" for utt, t in zip(ids, lengths) for i in range(t)]
    path = tmp_path_factory.mktemp("shuffled") / "post.tsv"
    path.write_text("".join(lines[i] for i in rng.permutation(len(lines))))
    assert fileio._posterior_kernel(path.read_bytes()) is not None
    assert_read_as_reference_reads(path)


@pytest.mark.parametrize("name", sorted(NOT_FIXED))
def test_other_spellings_left_to_float(name, tmp_path):
    text = "\n".join([f"a\t0\t{NOT_FIXED[name]}", *KERNEL_BASE[1:]]) + "\n"
    assert_leaves_kernel_and_reads_as_reference_reads(tmp_path / "post.tsv", text)


@pytest.mark.parametrize("spelling", ["lf", "crlf", "bom"])
def test_bench_shaped_file_takes_the_whole_file_path(spelling, tmp_path, monkeypatch):
    """A six-decimal dump of 40 classes over 24 utterances and several blocks,
    with LF or CRLF line ends or a byte-order mark, is read without the
    line-at-a-time path, as the reference reads the LF file."""
    rng = np.random.default_rng(7)
    lengths = rng.integers(1, 200, size=24)
    rows = iter(simplex_rows(rng, lengths.sum(), 40))
    text = "".join(f"u{u:04d}\t{i}\t{next(rows)}\n"
                   for u, t in enumerate(lengths.tolist()) for i in range(t))
    lf, path = tmp_path / "lf.tsv", tmp_path / "post.tsv"
    lf.write_text(text)
    if spelling == "crlf":
        text = text.replace("\n", "\r\n")
    path.write_bytes((codecs.BOM_UTF8 if spelling == "bom" else b"") + text.encode())
    assert lengths.sum() > 2 * fileio._BLOCK_ROWS
    want = ref_read_posterior_file(lf)
    monkeypatch.setattr(fileio, "_lines", lambda *args: pytest.fail("read line by line"))
    got = read_posterior_file(path)
    assert list(got) == list(want)
    assert all(got[utt].tobytes() == want[utt].tobytes() for utt in want)


#: reader -> one valid line of its format.
GOOD_LINES = {
    "read_prediction_file": b'{"logits": [0.0, 1.0], "label": 0}',
    "read_hypothesis_file": b'{"utt": "u", "id": "a", "am_logp": -1.0, "lm_logp": -1.0}',
    "read_alignment_file": b"u\ta b",
    "read_unit_map_file": b"a\tA",
    "read_posterior_file": b"u\t0\t0.5 0.5",
    "read_config_file": b"epochs=1",
}


@pytest.mark.parametrize("reader", sorted(GOOD_LINES))
def test_non_utf8_byte_names_its_line(reader, tmp_path):
    good = GOOD_LINES[reader]
    path = tmp_path / "input"
    path.write_bytes(good + b"\r\n\n" + good[:3] + b"\xff" + good[3:] + b"\n" + good + b"\n")
    with pytest.raises(FileFormatError) as info:
        getattr(fileio, reader)(path)
    assert info.value.line_no == 3
    assert str(info.value) == f"{path}:3: not valid UTF-8 (byte 0xff)"


@pytest.mark.parametrize("reader", sorted(GOOD_LINES))
def test_non_utf8_line_number_counts_line_feeds_only(reader, tmp_path):
    good = GOOD_LINES[reader]
    path = tmp_path / "input"
    path.write_bytes(good + b"\n\f\x0b\n" + good[:3] + b"\xff" + good[3:] + b"\n")
    with pytest.raises(FileFormatError) as info:
        getattr(fileio, reader)(path)
    assert str(info.value) == f"{path}:3: not valid UTF-8 (byte 0xff)"


@pytest.mark.parametrize("reader", sorted(GOOD_LINES))
def test_byte_order_mark_dropped_only_at_the_start(reader, tmp_path):
    good = GOOD_LINES[reader]
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_bytes(good + b"\n")
    marked.write_bytes(b"\xef\xbb\xbf" + good + b"\n")
    read = getattr(fileio, reader)
    assert json.dumps(read(marked), default=np.ndarray.tolist) == json.dumps(
        read(plain), default=np.ndarray.tolist)
    assert fileio._lines(marked) == [(1, good.decode())]
    marked.write_bytes(good + b"\n\xef\xbb\xbf" + good + b"\n")
    assert fileio._lines(marked) == [(1, good.decode()), (2, "\ufeff" + good.decode())]


def test_crlf_unit_map_keeps_no_carriage_return(tmp_path):
    path = tmp_path / "map.tsv"
    path.write_bytes(b"a\tA\r\nb\tB\r\n")
    assert fileio.read_unit_map_file(path) == {"a": "A", "b": "B"}


def per_line_rule(data: bytes):
    """``fileio._lines``' lines of ``data`` by the rule applied a line at a
    time: drop a byte-order mark that starts the data, decode, split at each
    LF, drop one CR at the end of each line and skip blank lines. A byte that
    does not decode gives its line number and message instead."""
    data = data.removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        return data.count(b"\n", 0, e.start) + 1, f"not valid UTF-8 (byte 0x{data[e.start]:02x})"
    return [(i, line.removesuffix("\r")) for i, line in enumerate(text.split("\n"), start=1)
            if line.strip()]


#: name -> file bytes around the CR, LF and byte-order-mark rules.
LINE_CASES = {
    "cr_cr_lf": b"a\r\r\nb\r\r\n",
    "final_cr": b"a\nb\r",
    "final_cr_cr": b"a\nb\r\r",
    "cr_only_line": b"a\n\r\nb\n",
    "cr_only_file": b"\r",
    "cr_inside_line": b"a\rb\r\nc\rd\n",
    "u2028": "a\u2028b\r\nc\u2028\r\n".encode(),
    "bom_and_crlf": b"\xef\xbb\xbfa\r\nb\r\n",
    "bom_not_at_start": b"a\r\n\xef\xbb\xbfb\r\n",
    "non_utf8_after_crlf": b"a\r\n\r\nb\r\nc\xffd\r\n",
    "non_utf8_before_cr": b"a\r\nb\xc3\r\n",
}


@pytest.mark.parametrize("name", sorted(LINE_CASES))
def test_lines_follow_the_per_line_rule(name, tmp_path):
    path = tmp_path / "input"
    path.write_bytes(LINE_CASES[name])
    want = per_line_rule(LINE_CASES[name])
    if isinstance(want, list):
        assert fileio._lines(path) == want
        return
    with pytest.raises(FileFormatError) as info:
        fileio._lines(path)
    assert (info.value.line_no, info.value.detail) == want


#: JSON number tokens whose float conversion is easy to get wrong.
NUMBER_TOKENS = [
    "0", "-0", "-0.0", "0.0", "1e3", "-2.5E-3", "1E+2", "3.25", "5e-324",
    "1.7976931348623157e308", str(2**53 + 1), str(2**63), str(2**64),
    str(-(2**63) - 1), "123456789012345678901234567890",
]
number_token = st.one_of(
    st.sampled_from(NUMBER_TOKENS), st.floats(-1e6, 1e6, allow_nan=False).map(repr)
)


@st.composite
def prediction_text(draw):
    k = draw(st.integers(2, 5))
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        row = ", ".join(draw(number_token) for _ in range(k))
        lines.append(f'{{"logits": [{row}], "label": {draw(st.integers(0, k - 1))}}}')
    return "\n".join(lines) + "\n"


def assert_same_predictions(path):
    logits, labels = read_prediction_file(path)
    ref_logits, ref_labels = ref_read_prediction_file(path)
    for got, want in ((logits, ref_logits), (labels, ref_labels)):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


def test_prediction_number_forms_bit_identical_to_reference(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_text("".join(
        f'{{"logits": [{token}, 1], "label": {i % 2}}}\n' for i, token in enumerate(NUMBER_TOKENS)
    ))
    assert_same_predictions(path)
    logits, _ = read_prediction_file(path)
    assert np.signbit(logits[2, 0]) and logits[10, 0] == 2.0**53 and logits[12, 0] == 2.0**64


@settings(max_examples=80, deadline=None)
@given(prediction_text())
def test_prediction_arrays_bit_identical_to_reference(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("pred") / "p.jsonl"
    path.write_text(text)
    assert_same_predictions(path)


def hypothesis_groups(hyps):
    """``read_hypothesis_file``'s arrays as the reference reader's dict."""
    return {
        utt: (hyps.ids[lo:hi], hyps.scores[lo:hi])
        for utt, lo, hi in zip(hyps.utts, hyps.offsets.tolist(), hyps.offsets[1:].tolist())
    }


def assert_same_hypotheses(path):
    got, want = hypothesis_groups(read_hypothesis_file(path)), ref_read_hypothesis_file(path)
    assert list(got) == list(want)
    for utt, (ids, scores) in want.items():
        assert got[utt][0] == ids
        assert (got[utt][1].dtype, got[utt][1].shape) == (scores.dtype, scores.shape)
        assert got[utt][1].tobytes() == scores.tobytes()


def test_hypotheses_grouped_by_first_appearance_in_file_order(tmp_path):
    path = tmp_path / "h.jsonl"
    rows = [("b", "x", -1), ("a", "y", -2.5), ("b", "z", -1), ("c", "w", "-0.0"), ("a", "v", "1e1")]
    path.write_text("".join(
        f'{{"utt": "{utt}", "id": "{i}", "am_logp": {am}, "lm_logp": -1.0}}\n' for utt, i, am in rows
    ))
    hyps = read_hypothesis_file(path)
    assert hyps.utts == ["b", "a", "c"]
    assert hyps.offsets.tolist() == [0, 2, 4, 5]
    assert hyps.ids == ["x", "z", "y", "v", "w"]
    assert hyps.scores.tolist() == [[-1, -1], [-1, -1], [-2.5, -1], [10, -1], [-0.0, -1]]
    assert_same_hypotheses(path)


@st.composite
def hypothesis_text(draw):
    score = st.one_of(st.sampled_from(["-1", "-1.5", "-0.0", "2e1", "-3E-2", str(2**53 + 1)]),
                      st.floats(-100, 100).map(repr))
    lines = []
    for i in range(draw(st.integers(1, 12))):
        text = json.dumps({"utt": f"u{draw(st.integers(0, 3))}", "id": f"h{i}",
                           "am_logp": "@am", "lm_logp": "@lm"})
        lines.append(text.replace('"@am"', draw(score)).replace('"@lm"', draw(score)))
    return "\n".join(lines) + "\n"


@settings(max_examples=80, deadline=None)
@given(hypothesis_text())
def test_hypothesis_groups_bit_identical_to_reference(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("hyps") / "h.jsonl"
    path.write_text(text)
    assert_same_hypotheses(path)


#: A full first chunk of lines, then part of a second.
LONG = fileio._CHUNK + 904

#: name -> (reader, its reference, line i of a long valid file, bad line number,
#: that line, the reported message). Each bad line is past the first chunk;
#: the width and duplicate cases depend on what the first chunk held.
CHUNK_ERRORS = {
    "prediction_width": (
        read_prediction_file, ref_read_prediction_file,
        lambda i: f'{{"logits": [0.5, -{i}], "label": {i % 2}}}', 4500,
        '{"logits": [0.5, -1, 2], "label": 1}', "expected 2 logits, got 3"),
    "prediction_label": (
        read_prediction_file, ref_read_prediction_file,
        lambda i: f'{{"logits": [0.5, -{i}], "label": {i % 2}}}', LONG,
        '{"logits": [0.5, -1], "label": 2}', "label 2 out of range for 2 classes"),
    "hypothesis_id": (
        read_hypothesis_file, ref_read_hypothesis_file,
        lambda i: f'{{"utt": "u{i % 7}", "id": "h{i}", "am_logp": -{i}, "lm_logp": -2.5}}',
        fileio._CHUNK + 1, '{"utt": "u1", "id": "a\\tb", "am_logp": -1, "lm_logp": -2}',
        "'id' must be a non-empty string without tabs or newlines"),
    "posterior_duplicate": (
        read_posterior_file, ref_read_posterior_file,
        lambda i: f"u{i % 3}\t{i // 3}\t0.25 0.75", 4400, "u2\t7\t0.5 0.5",
        "duplicate token index 7"),
    "posterior_width": (
        read_posterior_file, ref_read_posterior_file,
        lambda i: f"u\t{i}\t0.25 0.75", 4200, "u\t4199\t0.2 0.3 0.5",
        "expected 2 probabilities, got 3"),
    "posterior_spelling": (
        read_posterior_file, ref_read_posterior_file,
        lambda i: f"u\t{i}\t0.25 0.75", 4300, "u\t4299\t0.2_5 0.75",
        "probabilities must be numbers"),
}


@pytest.mark.parametrize("name", sorted(CHUNK_ERRORS))
def test_bad_line_past_first_chunk_named_as_reference_names_it(name, tmp_path):
    reader, reference, line, bad_no, bad, message = CHUNK_ERRORS[name]
    lines = [line(i) for i in range(LONG)]
    lines[bad_no - 1] = bad
    path = tmp_path / "input"
    path.write_text("\n".join(lines) + "\n")
    for read in (reader, reference):
        with pytest.raises(FileFormatError) as info:
            read(path)
        assert str(info.value) == f"{path}:{bad_no}: {message}"


def test_long_files_bit_identical_to_reference(tmp_path):
    rng = np.random.default_rng(5)
    rows = rng.dirichlet(np.ones(3), size=LONG) * (1.0 + rng.uniform(-9e-7, 9e-7, size=(LONG, 1)))
    post = tmp_path / "post.tsv"
    post.write_text("".join(
        f"u{i % 5}\t{i // 5}\t{' '.join(map(repr, row.tolist()))}\n" for i, row in enumerate(rows)
    ))
    got, want = read_posterior_file(post), ref_read_posterior_file(post)
    assert list(got) == list(want)
    assert all(got[utt].tobytes() == want[utt].tobytes() for utt in want)
    preds = tmp_path / "p.jsonl"
    preds.write_text("".join(
        f'{{"logits": {json.dumps(row.tolist())}, "label": {i % 3}}}\n' for i, row in enumerate(rows)
    ))
    assert_same_predictions(preds)
    hyps = tmp_path / "h.jsonl"
    hyps.write_text("".join(json.dumps(
        {"utt": f"u{i % 11}", "id": f"h{i}", "am_logp": row[0], "lm_logp": -row[1]}
    ) + "\n" for i, row in enumerate(rows.tolist())))
    assert_same_hypotheses(hyps)


#: format -> (its reader, the reference reader, its whole-file kernel, a file
#: the kernel takes).
KERNEL_FORMATS = {
    "prediction": (read_prediction_file, ref_read_prediction_file, fileio._prediction_kernel,
                   '{"logits": [0.25, -1.5, 3], "label": 2}\n'
                   '{"logits": [-0.0000, 10.0, 0.125], "label": 0}\n'),
    "hypothesis": (read_hypothesis_file, ref_read_hypothesis_file, fileio._hypothesis_kernel,
                   '{"utt": "u1", "id": "a", "am_logp": -10.25, "lm_logp": -2}\n'
                   '{"utt": "u2", "id": "b", "am_logp": -0.0, "lm_logp": 0}\n'
                   '{"utt": "u1", "id": "c", "am_logp": -7.5, "lm_logp": -1.75}\n'),
    "posterior": (read_posterior_file, ref_read_posterior_file, fileio._posterior_kernel,
                  "\n".join(KERNEL_BASE) + "\n"),
}


def comparable(result):
    """A reader's result as plain values, arrays as dtype, shape and bytes and
    a ``Hypotheses`` as the reference's dict of groups."""
    if isinstance(result, fileio.Hypotheses):
        result = hypothesis_groups(result)
    if isinstance(result, dict):
        return [(key, comparable(value)) for key, value in result.items()]
    if isinstance(result, tuple):
        return [comparable(value) for value in result]
    if isinstance(result, np.ndarray):
        return result.dtype, result.shape, result.tobytes()
    return result


def read_as_reference_reads(reader, reference, path):
    """Assert that ``reader`` gives ``reference``'s arrays, in its order, or its
    exception type, line and message."""
    try:
        want = reference(path)
    except FileFormatError as e:
        with pytest.raises(FileFormatError) as info:
            reader(path)
        assert (type(info.value), info.value.line_no, str(info.value)) == (type(e), e.line_no, str(e))
        return
    assert comparable(reader(path)) == comparable(want)


def kernel_takes(kernel, path) -> bool:
    return fileio._whole_file(kernel, fileio._read(path)) is not None


#: ``json.dumps``' spelling of a JSON number that a kernel reads: sign, integer
#: digits and fraction digits.
KERNEL_NUMBER = re.compile(r"(-?)(0|[1-9][0-9]*)(?:\.([0-9]+))?")


def kernel_reads_numbers(tokens) -> bool:
    """Whether the kernels read these number tokens: each in the narrowed JSON
    grammar, none the integer ``-0``, and each of at most 15 digits."""
    parts = [KERNEL_NUMBER.fullmatch(t) for t in tokens]
    if not all(parts) or any(m[1] and m[2] == "0" and m[3] is None for m in parts):
        return False
    return all(len(m[2]) + len(m[3] or "") <= 15 for m in parts)


#: Numbers as ``json.dumps`` spells a float or an int, or as ``%.Nf`` does.
json_number = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False).map(json.dumps),
    st.integers(-10**16, 10**16).map(json.dumps),
    st.tuples(st.floats(-1e4, 1e4, allow_nan=False), st.integers(0, 8)).map(
        lambda v: f"{v[0]:.{v[1]}f}"),
    st.sampled_from(["-0.0", "-0.0000", "0", "-0", "0.5", "100", "123456789012345"]),
)


def dumps_with(record, tokens) -> str:
    """``json.dumps(record)`` with its ``"@"`` values replaced by ``tokens`` in turn."""
    text = json.dumps(record)
    for token in tokens:
        text = text.replace('"@"', token, 1)
    return text


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_json_kernel_files_bit_identical_to_reference(tmp_path_factory, data):
    """Prediction and hypothesis files in ``json.dumps``' spelling read as the
    reference reads them, and the kernel takes exactly those whose numbers
    it reads."""
    fmt = data.draw(st.sampled_from(["prediction", "hypothesis"]))
    reader, reference, kernel, _ = KERNEL_FORMATS[fmt]
    n = data.draw(st.integers(1, 12))
    if fmt == "prediction":
        k = data.draw(st.integers(2, 5))
        rows = [[data.draw(json_number) for _ in range(k)] for _ in range(n)]
        labels = [data.draw(st.integers(0, k - 1)) for _ in range(n)]
        lines = [dumps_with({"logits": ["@"] * k, "label": y}, row) for row, y in zip(rows, labels)]
    else:
        printable = st.characters(min_codepoint=0x21, max_codepoint=0x7e, exclude_characters='"\\@')
        ids = st.text(printable, min_size=1, max_size=6)
        rows = [[data.draw(json_number), data.draw(json_number)] for _ in range(n)]
        lines = [dumps_with({"utt": data.draw(ids), "id": data.draw(ids), "am_logp": "@",
                             "lm_logp": "@"}, row) for row in rows]
    path = tmp_path_factory.mktemp("json") / "input.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    read_as_reference_reads(reader, reference, path)
    assert kernel_takes(kernel, path) == kernel_reads_numbers(
        [t for row in rows for t in row])


def fail_if_read_line_by_line(monkeypatch):
    monkeypatch.setattr(fileio, "_lines", lambda *args: pytest.fail("read line by line"))


@pytest.mark.parametrize("spelling", ["lf", "crlf", "bom"])
def test_bench_shaped_json_files_take_the_whole_file_path(spelling, tmp_path, monkeypatch):
    """Predictions of 10 classes at four decimals, ``-0.0000`` among them, and
    hypotheses at two decimals, over several blocks and chunks, with LF or
    CRLF line ends or a byte-order mark, are read without the line-at-a-time
    path, as the reference reads the LF files."""
    rng = np.random.default_rng(7)
    logits = rng.normal(0.0, 1.5, (3 * fileio._BLOCK_ROWS + 5, 10))
    logits[5, 3] = -1e-5
    labels = rng.integers(0, 10, len(logits))
    scores = -rng.uniform(0.0, 50.0, (2 * fileio._CHUNK + 7, 2))
    rows = zip(logits.tolist(), labels.tolist())
    texts = {
        "prediction": "".join('{"logits": [' + ", ".join(f"{v:.4f}" for v in row)
                              + f'], "label": {y}}}\n' for row, y in rows),
        "hypothesis": "".join(f'{{"utt": "u{i // 9:05d}", "id": "h{i % 9:02d}", '
                              f'"am_logp": {am:.2f}, "lm_logp": {lm:.2f}}}\n'
                              for i, (am, lm) in enumerate(scores.tolist())),
    }
    assert " -0.0000," in texts["prediction"].splitlines()[5]
    paths, wants = {}, {}
    for fmt, text in texts.items():
        lf, paths[fmt] = tmp_path / f"{fmt}_lf", tmp_path / fmt
        lf.write_text(text)
        wants[fmt] = comparable(KERNEL_FORMATS[fmt][1](lf))
        if spelling == "crlf":
            text = text.replace("\n", "\r\n")
        paths[fmt].write_bytes((codecs.BOM_UTF8 if spelling == "bom" else b"") + text.encode())
    fail_if_read_line_by_line(monkeypatch)
    for fmt, path in paths.items():
        assert comparable(KERNEL_FORMATS[fmt][0](path)) == wants[fmt]
    assert np.signbit(read_prediction_file(paths["prediction"])[0][5, 3])


@pytest.mark.parametrize("n", [fileio._BLOCK_ROWS - 1, fileio._BLOCK_ROWS, fileio._BLOCK_ROWS + 1,
                               fileio._CHUNK, fileio._CHUNK + 1])
def test_json_kernels_at_block_edges(n, tmp_path, monkeypatch):
    """Files of one line less, as many and one more than a kernel's block of
    lines read as the reference reads them, without the line-at-a-time path.
    Every line holds a number of 11 integer digits and one of 14 fraction
    digits, each of at most 15 digits, so that every block mixes the two."""
    texts = {
        "prediction": "".join(f'{{"logits": [-{i % 9}.5, {i % 7}, 0.{i}, 1{i:010d}.5, '
                              f'-0.{i:014d}], "label": {i % 3}}}\n' for i in range(n)),
        "hypothesis": "".join(f'{{"utt": "u{i % 13}", "id": "h{i}", "am_logp": -1{i:010d}.25, '
                              f'"lm_logp": -{i % 7 + 1}.{i:014d}}}\n' for i in range(n)),
    }
    wants = {}
    for fmt, text in texts.items():
        (tmp_path / fmt).write_text(text)
        wants[fmt] = comparable(KERNEL_FORMATS[fmt][1](tmp_path / fmt))
    fail_if_read_line_by_line(monkeypatch)
    for fmt, want in wants.items():
        assert comparable(KERNEL_FORMATS[fmt][0](tmp_path / fmt)) == want


#: Blank lines placed around a kernel file's lines: before, between, after.
BLANK_LAYOUTS = {"leading": (2, 0, 0), "between": (0, 1, 0), "many_between": (0, 3, 0),
                 "trailing": (0, 0, 2), "everywhere": (1, 2, 1)}


@pytest.mark.parametrize("layout", sorted(BLANK_LAYOUTS))
@pytest.mark.parametrize("fmt", sorted(KERNEL_FORMATS))
def test_blank_lines_take_the_whole_file_path(fmt, layout, tmp_path, monkeypatch):
    """LF-only lines do not send a file to the line-at-a-time path, and the
    file reads as the reference reads it."""
    reader, reference, _, text = KERNEL_FORMATS[fmt]
    before, between, after = BLANK_LAYOUTS[layout]
    path = tmp_path / "input"
    lines = ("\n" * (between + 1)).join(text.splitlines())
    path.write_text("\n" * before + lines + "\n" * (after + 1))
    want = comparable(reference(path))
    fail_if_read_line_by_line(monkeypatch)
    assert comparable(reader(path)) == want


#: name -> (format, a file that leaves the whole-file kernel for the
#: line-at-a-time path: the base file spelt another way, or not valid).
NOT_JSON_KERNEL = {
    "prediction_minus_zero": ("prediction", '{"logits": [-0, 1.5], "label": 0}\n'),
    "prediction_exponent": ("prediction", '{"logits": [1e-3, 1.5], "label": 0}\n'),
    "prediction_sixteen_digits": ("prediction",
                                  '{"logits": [0.123456789012345, 1.5], "label": 1}\n'),
    "prediction_true": ("prediction", '{"logits": [true, 1.5], "label": 0}\n'),
    "prediction_true_label": ("prediction", '{"logits": [0.5, 1.5], "label": true}\n'),
    "prediction_swapped_keys": ("prediction", '{"label": 0, "logits": [0.5, 1.5]}\n'),
    "prediction_no_space": ("prediction", '{"logits":[0.5, 1.5], "label": 0}\n'),
    "prediction_no_space_after_comma": ("prediction", '{"logits": [0.5,1.5], "label": 0}\n'),
    "prediction_extra_key": ("prediction", '{"logits": [0.5, 1.5], "label": 0, "w": 1}\n'),
    "prediction_duplicate_key": ("prediction",
                                 '{"logits": [0.5, 1.5], "label": 0, "label": 1}\n'),
    "prediction_garbage_prefix": ("prediction", 'xx{"logits": [0.5, 1.5], "label": 0}\n'),
    "prediction_huge_integer": ("prediction", '{"logits": [0.5, 1.5], "label": 0}\n'
                                              '{"logits": [' + "9" * 4301 + ', 1.5], "label": 0}\n'),
    "prediction_leading_zero": ("prediction", '{"logits": [01.5, 1.5], "label": 0}\n'),
    "prediction_label_leading_zero": ("prediction", '{"logits": [0.5, 1.5], "label": 01}\n'),
    "prediction_label_range": ("prediction", '{"logits": [0.5, 1.5], "label": 2}\n'),
    "prediction_label_float": ("prediction", '{"logits": [0.5, 1.5], "label": 1.0}\n'),
    "prediction_label_twenty_digits": ("prediction",
                                       '{"logits": [0.5, 1.5], "label": 12345678901234567890}\n'),
    "prediction_one_logit": ("prediction", '{"logits": [0.5], "label": 0}\n'),
    "prediction_widths": ("prediction", '{"logits": [0.5, 1.5], "label": 0}\n'
                                        '{"logits": [0.5, 1.5, 2], "label": 0}\n'),
    "prediction_point_only": ("prediction", '{"logits": [1., 1.5], "label": 0}\n'),
    "prediction_nested": ("prediction", '{"logits": [[0.5], 1.5], "label": 0}\n'),
    "prediction_no_closing_brace": ("prediction", '{"logits": [0.5, 1.5], "label": 0]\n'),
    "prediction_commas_of_a_short_line": ("prediction", '{"logits": [0.5, 1.5], "label": 0}\n'
                                                        '{"logits": [0.5, 1.5, 2, 3], "label": 0}\nx\n'),
    "prediction_non_ascii": ("prediction",
                             '{"logits": [0.5, 1.5], "label": 0, "n": "\u00e9"}\n'),
    "hypothesis_minus_zero": ("hypothesis",
                              '{"utt": "u", "id": "a", "am_logp": -0, "lm_logp": -1}\n'),
    "hypothesis_exponent": ("hypothesis",
                            '{"utt": "u", "id": "a", "am_logp": -1E2, "lm_logp": -1}\n'),
    "hypothesis_sixteen_digits": ("hypothesis", '{"utt": "u", "id": "a", '
                                                '"am_logp": -1234567890123456, "lm_logp": -1}\n'),
    "hypothesis_true": ("hypothesis",
                        '{"utt": "u", "id": "a", "am_logp": true, "lm_logp": -1}\n'),
    "hypothesis_escaped_id": ("hypothesis",
                              '{"utt": "u", "id": "a\\u0062", "am_logp": -1, "lm_logp": -1}\n'),
    "hypothesis_escaped_tab": ("hypothesis",
                               '{"utt": "u", "id": "a\\tb", "am_logp": -1, "lm_logp": -1}\n'),
    "hypothesis_space_in_id": ("hypothesis",
                               '{"utt": "u", "id": "a b", "am_logp": -1, "lm_logp": -1}\n'),
    "hypothesis_empty_id": ("hypothesis",
                            '{"utt": "u", "id": "", "am_logp": -1, "lm_logp": -1}\n'),
    "hypothesis_swapped_keys": ("hypothesis",
                                '{"id": "a", "utt": "u", "am_logp": -1, "lm_logp": -1}\n'),
    "hypothesis_no_space": ("hypothesis",
                            '{"utt":"u", "id": "a", "am_logp": -1, "lm_logp": -1}\n'),
    "hypothesis_extra_key": ("hypothesis",
                             '{"utt": "u", "id": "a", "am_logp": -1, "lm_logp": -1, "x": 0}\n'),
    "hypothesis_duplicate_key": ("hypothesis",
                                 '{"utt": "u", "id": "a", "id": "b", "am_logp": -1, "lm_logp": -1}\n'),
    "hypothesis_garbage_prefix": ("hypothesis",
                                  '{"utt": "u", "id": "a", "am_logp": -1, "lm_logp": -1}\n'
                                  'xx{"utt": "u", "id": "b", "am_logp": -1, "lm_logp": -1}\n'),
    "hypothesis_huge_integer": ("hypothesis",
                                '{"utt": "u", "id": "a", "am_logp": -1, "lm_logp": -1}\n'
                                '{"utt": "u", "id": "b", "am_logp": -' + "1" * 4301
                                + ', "lm_logp": -1}\n'),
    "hypothesis_string_score": ("hypothesis",
                                '{"utt": "u", "id": "a", "am_logp": "-1", "lm_logp": -1}\n'),
}


@pytest.mark.parametrize("name", sorted(NOT_JSON_KERNEL))
def test_other_json_spellings_read_line_by_line_as_reference_reads(name, tmp_path):
    fmt, text = NOT_JSON_KERNEL[name]
    reader, reference, kernel, _ = KERNEL_FORMATS[fmt]
    path = tmp_path / "input.jsonl"
    path.write_bytes(text.encode())
    assert not kernel_takes(kernel, path)
    read_as_reference_reads(reader, reference, path)


#: name -> (format, a file spelt otherwise than the kernel files above, which
#: a whole-file kernel takes all the same).
KERNEL_SPELLINGS = {
    "prediction_padded_sixteen": ("prediction",
                                  '{"logits": [12345678901.5, 0.12345], "label": 1}\n'),
    "prediction_no_final_lf": ("prediction", '{"logits": [0.5, 1.5], "label": 0}'),
    "prediction_crlf_no_final_lf": ("prediction", '{"logits": [0.5, 1.5], "label": 0}\r\n'
                                                  '{"logits": [2, -0.0], "label": 1}\r'),
    "hypothesis_no_final_lf": ("hypothesis",
                               '{"utt": "u", "id": "a", "am_logp": -1, "lm_logp": -1}'),
    "posterior_no_final_lf": ("posterior", "\n".join(KERNEL_BASE)),
    "posterior_one_long_id": ("posterior", "\n".join(
        [*KERNEL_BASE, "c" * 200 + "\t0\t0.500000 0.500000"]) + "\n"),
}


@pytest.mark.parametrize("name", sorted(KERNEL_SPELLINGS))
def test_kernel_spellings_take_the_whole_file_path(name, tmp_path, monkeypatch):
    fmt, text = KERNEL_SPELLINGS[name]
    reader, reference = KERNEL_FORMATS[fmt][:2]
    path = tmp_path / "input"
    path.write_bytes(text.encode())
    want = comparable(reference(path))
    fail_if_read_line_by_line(monkeypatch)
    assert comparable(reader(path)) == want


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(json_number,
                          st.from_regex(r"-?[0-9]{1,9}(\.[0-9]{0,9})?", fullmatch=True)),
                min_size=1, max_size=8))
@example(["12345678901.5", "0.12345"])
def test_json_numbers_read_as_float_reads_them(tokens):
    """``_json_numbers`` gives each token's ``float`` bits, so its sign bit too
    (``-0.0``), when the kernels read these tokens, and None otherwise."""
    buf = np.frombuffer((",".join(tokens) + ",").encode(), dtype=np.uint8)
    commas = np.flatnonzero(buf == ord(","))
    got = fileio._json_numbers(buf, np.concatenate(([0], commas[:-1] + 1)), commas)
    if not kernel_reads_numbers(tokens):
        assert got is None
        return
    want = np.array(list(map(float, tokens)))
    assert got is not None and got.tobytes() == want.tobytes()


#: Bytes a mutation inserts or writes over another: each format's own
#: punctuation, digits, signs, whitespace, escapes and bytes that do not decode.
MUTATION_BYTES = b'0123456789-+.eE,: "\\{}[]\t\n\r\x0b\x00\x7fatu\xc3\xff'


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(KERNEL_FORMATS)), st.sampled_from(["insert", "delete", "replace"]),
       st.integers(0, 10**6), st.sampled_from(list(MUTATION_BYTES)))
def test_one_byte_mutation_reads_as_reference_reads(tmp_path_factory, fmt, how, at, byte):
    """A kernel-spelt file with one byte inserted, deleted or replaced gives the
    reference's arrays or its error, and no other exception."""
    reader, reference, _, text = KERNEL_FORMATS[fmt]
    data = text.encode()
    at %= len(data) + (how == "insert")
    data = data[:at] + bytes([byte]) * (how != "delete") + data[at + (how != "insert"):]
    path = tmp_path_factory.mktemp("mutation") / "input"
    path.write_bytes(data)
    read_as_reference_reads(reader, reference, path)


class TestWriteTextAtomic:
    def test_chunks_written_in_order(self, tmp_path):
        path = tmp_path / "out.txt"
        fileio.write_text_atomic(path, iter(["a\tb\n", "", "cé\r\n"]))
        assert path.read_bytes() == "a\tb\ncé\r\n".encode()

    def test_chunk_raising_partway_leaves_old_file_and_no_temp(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"old bytes\n")

        def chunks():
            yield "first chunk\n"
            raise OSError("No space left on device")

        with pytest.raises(OSError, match="No space left"):
            fileio.write_text_atomic(path, chunks())
        assert path.read_bytes() == b"old bytes\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


    @pytest.mark.parametrize("existing", [None, 0o640, 0o600])
    def test_mode_is_what_open_for_writing_leaves(self, tmp_path, existing):
        path = tmp_path / "out.txt"
        if existing is not None:
            path.write_text("old\n")
            path.chmod(existing)
        old = os.umask(0o022)
        try:
            fileio.write_text_atomic(path, ("new\n",))
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == (0o644 if existing is None else existing)
        assert path.read_text() == "new\n"


class TestNumberSpellings:
    @pytest.mark.parametrize("text,value", [("0", 0), ("17", 17), ("-3", -3), ("007", 7)])
    def test_int_reads_sign_and_ascii_digits(self, text, value):
        assert fileio._int(text) == value

    @pytest.mark.parametrize("text", ["+4", " 3", "3 ", "1_0", "٣", "１", "1.0", "",
                                      "-", "--1", "1-",
                                      pytest.param("9" * 5000, id="5000-digits")])
    def test_int_rejects_other_spellings(self, text):
        with pytest.raises(ValueError):
            fileio._int(text)

    @pytest.mark.parametrize("text,value", [("0.05", 0.05), ("-2", -2.0), ("+1e3", 1000.0),
                                            ("inf", float("inf"))])
    def test_float_reads_what_float_reads_in_ascii(self, text, value):
        assert fileio._float(text) == value

    @pytest.mark.parametrize("text", ["0.0_5", "1_0", "٢", "٠.5", " 1.5", "1.5\t",
                                      "1 5", "", "abc"])
    def test_float_rejects_other_spellings(self, text):
        with pytest.raises(ValueError):
            fileio._float(text)
