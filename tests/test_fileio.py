import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distilcal import FileFormatError
from distilcal import fileio
from distilcal.fileio import read_posterior_file

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
