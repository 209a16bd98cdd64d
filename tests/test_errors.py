import pickle
import re

import numpy as np
import pytest

import distilcal
from distilcal import (
    DistilcalError,
    FileFormatError,
    InvalidInputError,
    InvalidParameterError,
    SweepConfig,
    UnmappedTokenError,
    combine_scores,
    ece,
    interpolate_target,
    kd_loss,
    one_hot,
    rank_confidence_correct,
    sweep_lambda,
)
from distilcal.probs import top_n

# One instance per exported error type; a new type needs a case here.
CASES = {
    FileFormatError: FileFormatError("data/post.tsv", 7, "row sums to 0.9"),
    UnmappedTokenError: UnmappedTokenError("aa", "fine", "coarse"),
}


def exported_error_types():
    return [
        obj for obj in vars(distilcal).values()
        if isinstance(obj, type) and issubclass(obj, DistilcalError)
    ]


def test_every_exported_error_survives_pickling():
    for cls in exported_error_types():
        error = CASES.get(cls) or cls(f"{cls.__name__} message")
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is cls
        assert str(copy) == str(error)
        assert copy.args == error.args
        assert vars(copy) == vars(error)


def test_multi_argument_errors_keep_their_fields():
    copy = pickle.loads(pickle.dumps(CASES[FileFormatError]))
    assert (copy.path, copy.line_no, copy.detail) == ("data/post.tsv", 7, "row sums to 0.9")
    assert str(copy) == "data/post.tsv:7: row sums to 0.9"
    copy = pickle.loads(pickle.dumps(CASES[UnmappedTokenError]))
    assert (copy.token, copy.source, copy.target) == ("aa", "fine", "coarse")


_P3 = np.full((3, 3), 1 / 3)
_Y3 = np.array([0, 1, 2])

#: name -> (a call the library rejects, the error type, its whole message).
LIBRARY_ERRORS = {
    "kd_loss_distance": (
        lambda: kd_loss(np.zeros((2, 3)), np.zeros((2, 3)), 2.0, distance="l2"),
        InvalidParameterError, "distance must be 'kld' or 'ce', got 'l2'"),
    "combine_scores_overflow": (
        lambda: combine_scores([1e308], [1e308], 0.5, 0.5),
        InvalidInputError, "combined hypothesis scores must be finite"),
    "sweep_method": (
        lambda: sweep_lambda(SweepConfig(), [0.5], ["baseline"], [0]),
        InvalidParameterError, "sweep methods are 'lst'/'multitask', got 'baseline'"),
    "interpolate_target_rows": (
        lambda: interpolate_target([0, 1, 2], [[0.5, 0.5]] * 2, 0.5),
        InvalidInputError, "soft rows (2, 2) do not match labels (3,)"),
    "rank_confidence_correct_labels": (
        lambda: rank_confidence_correct(_P3, [0, 1], 1),
        InvalidInputError, "need one label per row, got 2 for 3 rows"),
    "ece_num_bins": (
        lambda: ece(_P3, _Y3, 1, 0),
        InvalidParameterError, "num_bins must be >= 1, got 0"),
    "ece_group": (
        lambda: ece(_P3, _Y3, 1, 15, group=0),
        InvalidParameterError, "group must be None or >= 1, got 0"),
    "top_n_rank": (
        lambda: top_n(np.full((2, 3), 1 / 3), 4),
        InvalidParameterError, "rank must be in [1, 3], got 4"),
    "one_hot_range": (
        lambda: one_hot([0, 5], 3),
        InvalidInputError, "labels must lie in [0, 3), got [0, 5]"),
    "one_hot_empty": (
        lambda: one_hot([], 3),
        InvalidInputError, "labels must be a non-empty 1-D integer array, got (0,)"),
}


@pytest.mark.parametrize("name", sorted(LIBRARY_ERRORS))
def test_library_error_message(name):
    call, error, message = LIBRARY_ERRORS[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
