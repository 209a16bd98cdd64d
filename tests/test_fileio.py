import json
import os
import stat
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
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


#: Fixed-width decimal values: the integer reading must give ``float``'s bits.
FIXED_VALUES = ["0.000000", "1.000000", "9.999999", "0.000001", "0.500000", "5.000000",
                "0.1", ".5", "1.", "00.50", "0.30000000000000", "9999999999.99999",
                "0.00000000000001", "99999999999999.9"]


@pytest.mark.parametrize("text", FIXED_VALUES)
def test_fixed_width_value_is_read_as_float_reads_it(text):
    flat, counts = fileio._fixed_decimals([f"{text} {text}", text])
    assert counts == [2, 1]
    assert flat.tobytes() == np.array([float(text)] * 3).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 15), st.data())
def test_fixed_width_values_bit_identical_to_float(digits, data):
    point = data.draw(st.integers(0, digits))
    q = data.draw(st.lists(st.integers(0, 10**digits - 1), min_size=1, max_size=30))
    texts = [str(v).zfill(digits) for v in q]
    texts = [f"{t[:point]}.{t[point:]}" for t in texts]
    flat, counts = fileio._fixed_decimals([" ".join(texts)])
    assert counts == [len(texts)]
    assert flat.tobytes() == np.array(list(map(float, texts))).tobytes()


#: Value texts that leave the fixed shape; each is read by ``float`` instead.
NOT_FIXED = {
    "letter": ["0.25 0.7x"],
    "moved_point": ["0.25 07.5"],
    "comma": ["0.25 0,75"],
    "no_point_in_column": ["0.25 0075"],
    "no_space_in_column": ["0.25 0.75x0.50"],
    "seventh_decimal": ["0.250000 0.7500000"],
    "minus": ["0.25 -0.75"],
    "plus": ["+0.25 0.75"],
    "double_space": ["0.25  0.75"],
    "leading_space": [" 0.25 0.75"],
    "no_point": ["1 0"],
    "point_only": [". ."],
    "sixteen_digits": ["0.000000000000001 0.999999999999999"],
    "line_width": ["0.25 0.75", "0.500 0.500"],
    "empty_line": ["0.25 0.75", ""],
    "non_ascii": ["0.25 \uff10.75"],
}


@pytest.mark.parametrize("name", sorted(NOT_FIXED))
def test_other_spellings_left_to_float(name):
    assert fileio._fixed_decimals(NOT_FIXED[name]) is None


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 8, 40, 200]), st.integers(1, 40))
def test_six_decimal_files_bit_identical_to_reference(tmp_path_factory, seed, width, n):
    """Rows at six decimals, as posterior dumps spell them, are each read on
    the integer path and come out as the line-at-a-time reader makes them."""
    rng = np.random.default_rng(seed)
    q = np.rint(rng.dirichlet(np.full(width, 0.3), size=n) * 1e6).astype(np.int64)
    q[:, 0] += 1_000_000 - q.sum(axis=1)  # may go negative: then the row is invalid
    q[0] = 0
    q[0, -1] = 1_000_000  # 0.000000 and 1.000000
    texts = [" ".join(f"{v // 10**6}.{v % 10**6:06d}" for v in row) for row in q.tolist()]
    path = tmp_path_factory.mktemp("six") / "post.tsv"
    path.write_text("".join(f"u{i % 3}\t{i // 3}\t{t}\n" for i, t in enumerate(texts)))
    if (q >= 0).all():
        assert fileio._fixed_decimals(texts) is not None
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


def simplex_rows(rng, n: int, width: int, decimals: int = 6, units: int = 1,
                 slack: int = 0) -> list[str]:
    """``n`` random rows of ``width`` values at ``decimals`` places with
    ``units`` integer digits, whose digits sum to 1 give or take up to
    ``slack`` in the last place."""
    one = 10**decimals
    q = np.rint(rng.dirichlet(np.full(width, 0.3), size=n) * one).astype(np.int64)
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
    "crlf": "\r\n".join(KERNEL_BASE) + "\r\n",
    "bom": "\ufeff" + "\n".join(KERNEL_BASE) + "\n",
    "blank_line": "\n".join([KERNEL_BASE[0], "", *KERNEL_BASE[1:]]) + "\n",
    "no_final_lf": "\n".join(KERNEL_BASE),
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
    "split_utterance": "\n".join([KERNEL_BASE[0], KERNEL_BASE[2], KERNEL_BASE[1]]) + "\n",
    "out_of_order": "\n".join([KERNEL_BASE[1], KERNEL_BASE[0], KERNEL_BASE[2]]) + "\n",
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
}


@pytest.mark.parametrize("name", sorted(NOT_KERNEL))
def test_other_spellings_read_line_by_line_as_reference_reads(name, tmp_path):
    path = tmp_path / "post.tsv"
    path.write_bytes(NOT_KERNEL[name].encode())
    assert fileio._posterior_kernel(path.read_bytes()) is None
    assert_read_as_reference_reads(path)


def test_bench_shaped_file_takes_the_whole_file_path(tmp_path, monkeypatch):
    """A six-decimal dump of 40 classes over 24 utterances and several blocks
    is read without the line-at-a-time path, as the reference reads it."""
    rng = np.random.default_rng(7)
    lengths = rng.integers(1, 200, size=24)
    rows = iter(simplex_rows(rng, lengths.sum(), 40))
    path = tmp_path / "post.tsv"
    path.write_text("".join(f"u{u:04d}\t{i}\t{next(rows)}\n"
                            for u, t in enumerate(lengths.tolist()) for i in range(t)))
    assert lengths.sum() > 2 * fileio._BLOCK_ROWS
    want = ref_read_posterior_file(path)
    monkeypatch.setattr(fileio, "_lines", lambda path: pytest.fail("read line by line"))
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
