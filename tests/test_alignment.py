import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distilcal import (
    Alignment,
    InvalidInputError,
    RunLengthAlignment,
    UnitMap,
    UnmappedTokenError,
    deduplicate,
    map_units,
    rearrange,
    teacher_stream,
)

P1 = np.array([1.0, 0.0])
P2 = np.array([0.0, 1.0])
P3 = np.array([0.5, 0.5])


class TestMapUnits:
    def test_identity_map(self):
        a = Alignment(("s1", "s2", "s1"), "senone")
        m = UnitMap({"s1": "s1", "s2": "s2"}, source="senone", target="senone")
        assert map_units(a, m).frames == a.frames

    def test_hand_mapped(self):
        a = Alignment(("s1", "s2", "s2", "s3"), "senone")
        m = UnitMap({"s1": "p1", "s2": "p1", "s3": "p2"}, source="senone", target="phone")
        out = map_units(a, m)
        assert out.frames == ("p1", "p1", "p1", "p2")
        assert out.unit == "phone"

    def test_empty_alignment(self):
        a = Alignment((), "senone")
        m = UnitMap({"s1": "p1"}, source="senone", target="phone")
        assert map_units(a, m).frames == ()

    def test_unit_mismatch_rejected(self):
        a = Alignment(("s1",), "phone")
        m = UnitMap({"s1": "p1"}, source="senone", target="phone")
        with pytest.raises(InvalidInputError):
            map_units(a, m)

    def test_missing_token_named_in_error(self):
        a = Alignment(("s1", "s9"), "senone")
        m = UnitMap({"s1": "p1"}, source="senone", target="phone")
        with pytest.raises(UnmappedTokenError, match="s9"):
            map_units(a, m)


class TestDeduplicate:
    def test_run_length_definition(self):
        rla = deduplicate(Alignment(("a", "a", "a", "b", "b", "c"), "u"))
        assert rla.labels == ("a", "b", "c")
        assert rla.runs == (3, 2, 1)

    def test_non_consecutive_repeats_kept(self):
        rla = deduplicate(Alignment(("a", "b", "a"), "u"))
        assert rla.labels == ("a", "b", "a")
        assert rla.runs == (1, 1, 1)

    def test_empty(self):
        rla = deduplicate(Alignment((), "u"))
        assert rla.labels == () and rla.runs == ()

    def test_invalid_run_length_alignment_rejected(self):
        with pytest.raises(InvalidInputError):
            RunLengthAlignment(("a", "a"), (1, 2))
        with pytest.raises(InvalidInputError):
            RunLengthAlignment(("a", "b"), (1, 0))
        with pytest.raises(InvalidInputError):
            RunLengthAlignment(("a",), (1, 2))


class TestRearrange:
    def test_repetition(self):
        rla = RunLengthAlignment(("x", "y", "z"), (3, 2, 1))
        out = rearrange([P1, P2, P3], rla)
        np.testing.assert_array_equal(np.stack(out), np.stack([P1, P1, P1, P2, P2, P3]))

    def test_unit_runs_are_identity(self):
        rla = RunLengthAlignment(("x", "y"), (1, 1))
        out = rearrange([P1, P2], rla)
        np.testing.assert_array_equal(np.stack(out), np.stack([P1, P2]))

    def test_length_mismatch_states_both_lengths(self):
        rla = RunLengthAlignment(("x", "y", "z"), (1, 1, 1))
        with pytest.raises(InvalidInputError, match="2.*3"):
            rearrange([P1, P2], rla)


class TestTeacherStream:
    def test_mapped_tokens_and_runs(self):
        a = Alignment(("a", "a", "b", "c"), "fine")
        m = UnitMap({"a": "x", "b": "x", "c": "y"}, source="fine", target="coarse")
        seen = []

        def provider(labels):
            seen.append(labels)
            return [P1, P3]

        posteriors, runs = teacher_stream(a, m, provider)
        assert seen == [["x", "y"]]
        np.testing.assert_array_equal(posteriors, np.stack([P1, P3]))
        assert runs == (3, 1)

    def test_matrix_from_provider_is_kept(self):
        mat = np.stack([P1, P2])
        posteriors, runs = teacher_stream(Alignment(("a", "b", "b"), "u"), None,
                                          lambda labels: mat)
        np.testing.assert_array_equal(posteriors, mat)
        assert runs == (1, 2)

    def test_empty_alignment_with_zero_posteriors(self):
        posteriors, runs = teacher_stream(Alignment((), "u"), None, lambda labels: [])
        assert len(posteriors) == 0 and len(runs) == 0
        assert len(rearrange([], deduplicate(Alignment((), "u")))) == 0

    def test_ragged_widths_rejected(self):
        a = Alignment(("a", "b"), "u")
        with pytest.raises(InvalidInputError, match="one width"):
            teacher_stream(a, None, lambda labels: [P1, np.full(3, 1 / 3)])

    def test_off_simplex_posterior_rejected(self):
        a = Alignment(("a", "b"), "u")
        with pytest.raises(InvalidInputError):
            teacher_stream(a, None, lambda labels: [P1, np.array([0.5, 0.6])])

    def test_count_mismatch_states_both_lengths(self):
        a = Alignment(("a", "b", "c"), "u")
        with pytest.raises(InvalidInputError, match="got 2 posteriors for 3"):
            teacher_stream(a, None, lambda labels: [P1, P2])


def framewise(a, teachers):
    """Per teacher, its stream repeated to frame rate: ``np.repeat`` of
    :func:`teacher_stream`'s token posteriors by their run lengths."""
    return [(tid, np.repeat(*teacher_stream(a, m, p), axis=0)) for tid, m, p in teachers]


class TestBuildFramewiseTargets:
    """Frame-wise targets: the frames as hard labels, one stream per teacher."""

    def test_single_identity_teacher(self):
        a = Alignment(("a", "a", "b"), "fine")
        provider = lambda labels: [P1, P2]
        [(_, stream)] = framewise(a, [("t0", None, provider)])
        np.testing.assert_array_equal(stream, np.stack([P1, P1, P2]))

    def test_three_teachers_per_frame_structure(self):
        a = Alignment(("a", "a", "b"), "fine")
        fine_to_mid = UnitMap({"a": "x", "b": "y"}, source="fine", target="mid")
        fine_to_one = UnitMap({"a": "z", "b": "z"}, source="fine", target="one")
        mid_post = lambda labels: [np.full(3, 1 / 3) for _ in labels]
        one_post = lambda labels: [np.full(4, 0.25) for _ in labels]
        fine_post = lambda labels: [P1 if t == "a" else P2 for t in labels]
        streams = framewise(
            a,
            [
                ("fine", None, fine_post),
                ("mid", fine_to_mid, mid_post),
                ("one", fine_to_one, one_post),
            ],
        )
        assert [len(stream) for _, stream in streams] == [3, 3, 3]
        for i in range(len(a.frames)):
            ids = [tid for tid, _ in streams]
            sizes = [stream[i].shape[0] for _, stream in streams]
            assert ids == ["fine", "mid", "one"]
            assert sizes == [2, 3, 4]

    def test_provider_count_mismatch_propagates(self):
        a = Alignment(("a", "b"), "fine")
        with pytest.raises(InvalidInputError, match="1.*2"):
            framewise(a, [("t0", None, lambda labels: [P1])])


tokens = st.sampled_from([f"w{i}" for i in range(50)])


@settings(max_examples=300, deadline=None)
@given(st.lists(tokens, min_size=0, max_size=200))
def test_dedup_properties(frames):
    a = Alignment(tuple(frames), "u")
    rla = deduplicate(a)
    assert sum(rla.runs) == len(frames)
    assert all(x != y for x, y in zip(rla.labels, rla.labels[1:]))


@settings(max_examples=200, deadline=None)
@given(st.lists(tokens, min_size=1, max_size=120))
def test_one_hot_roundtrip_reproduces_frames(frames):
    """Rearranging the dedup labels themselves recovers the frame sequence."""
    a = Alignment(tuple(frames), "u")
    rla = deduplicate(a)
    vocab = sorted(set(rla.labels))
    if len(vocab) == 1:
        vocab.append(vocab[0] + "_pad")
    eye = np.eye(len(vocab))
    onehots = [eye[vocab.index(t)] for t in rla.labels]
    frames_back = rearrange(onehots, rla)
    recovered = [vocab[int(np.argmax(v))] for v in frames_back]
    assert recovered == list(frames)
