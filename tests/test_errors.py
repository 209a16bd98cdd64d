import pickle

import distilcal
from distilcal import DistilcalError, FileFormatError, UnmappedTokenError

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
