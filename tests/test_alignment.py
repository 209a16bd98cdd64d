from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distilcal import (
    InvalidInputError,
    UnmappedTokenError,
    deduplicate,
    map_units,
    target_lines,
    teacher_posteriors,
)
from distilcal import alignment

from oracles import alignments_of

P1 = np.array([1.0, 0.0])
P2 = np.array([0.0, 1.0])
P3 = np.array([0.5, 0.5])


def one_utt(frames):
    """Alignments holding the one utterance ``u``."""
    return alignments_of({"u": frames})


def tokens(a):
    """Every frame of ``a`` as its token."""
    return tuple(a.vocab[c] for c in a.codes)


def stream(frames, mapping, rows):
    """One teacher's ``(posteriors, runs)`` over the utterance ``u``."""
    [out] = teacher_posteriors(one_utt(frames), [("t0", mapping, {"u": rows})])
    return out


class TestMapUnits:
    def test_identity_map(self):
        a = one_utt(("s1", "s2", "s1"))
        m = {"s1": "s1", "s2": "s2"}
        assert tokens(map_units(a, m)) == tokens(a)

    def test_hand_mapped(self):
        a = one_utt(("s1", "s2", "s2", "s3"))
        m = {"s1": "p1", "s2": "p1", "s3": "p2"}
        out = map_units(a, m)
        assert tokens(out) == ("p1", "p1", "p1", "p2")
        assert out.vocab == ["p1", "p2"]

    def test_empty_alignment(self):
        a = one_utt(())
        m = {"s1": "p1"}
        assert tokens(map_units(a, m)) == ()

    def test_missing_token_named_in_error(self):
        a = one_utt(("s1", "s9"))
        m = {"s1": "p1"}
        assert map_units(a, m).codes.tolist() == [0, -1]
        with pytest.raises(UnmappedTokenError, match="s9") as info:
            teacher_posteriors(a, [("phone", m, {"u": [P1, P2]})])
        assert (info.value.source, info.value.target) == ("fine", "phone")


class TestDeduplicate:
    def test_run_length_definition(self):
        a = one_utt(("a", "a", "a", "b", "b", "c"))
        runs = deduplicate(a)
        assert [a.vocab[c] for c in runs.labels] == ["a", "b", "c"]
        assert runs.runs == [3, 2, 1]

    def test_non_consecutive_repeats_kept(self):
        a = one_utt(("a", "b", "a"))
        runs = deduplicate(a)
        assert [a.vocab[c] for c in runs.labels] == ["a", "b", "a"]
        assert runs.runs == [1, 1, 1]

    def test_empty(self):
        runs = deduplicate(one_utt(()))
        assert len(runs.labels) == 0 and runs.runs == []

    def test_runs_are_python_ints(self):
        runs = deduplicate(alignments_of({"u": ("a", "a"), "v": ("a", "b")}))
        assert runs.runs == [2, 1, 1]
        assert all(type(r) is int for r in runs.runs)
        assert type(sum(runs.runs)) is int


class TestRearrange:
    """Repeating token posteriors by their runs brings them to frame rate."""

    def test_repetition(self):
        posteriors, runs = stream(("x", "x", "x", "y", "y", "z"), None, [P1, P2, P3])
        out = np.repeat(posteriors, runs, axis=0)
        np.testing.assert_array_equal(np.stack(out), np.stack([P1, P1, P1, P2, P2, P3]))

    def test_unit_runs_are_identity(self):
        posteriors, runs = stream(("x", "y"), None, [P1, P2])
        out = np.repeat(posteriors, runs, axis=0)
        np.testing.assert_array_equal(np.stack(out), np.stack([P1, P2]))

    def test_length_mismatch_states_both_lengths(self):
        with pytest.raises(InvalidInputError, match="2.*3"):
            stream(("x", "y", "z"), None, [P1, P2])


class TestTeacherStream:
    def test_mapped_tokens_and_runs(self):
        a = one_utt(("a", "a", "b", "c"))
        m = {"a": "x", "b": "x", "c": "y"}
        mapped = map_units(a, m)
        assert [mapped.vocab[c] for c in deduplicate(mapped).labels] == ["x", "y"]
        posteriors, runs = stream(("a", "a", "b", "c"), m, [P1, P3])
        np.testing.assert_array_equal(posteriors, np.stack([P1, P3]))
        assert runs == [3, 1]

    def test_matrix_from_provider_is_kept(self):
        mat = np.stack([P1, P2])
        posteriors, runs = stream(("a", "b", "b"), None, mat)
        np.testing.assert_array_equal(posteriors, mat)
        assert runs == [1, 2]

    def test_empty_alignment_with_zero_posteriors(self):
        [(posteriors, runs)] = teacher_posteriors(one_utt(()), [("t0", None, {})])
        assert len(posteriors) == 0 and len(runs) == 0
        assert len(np.repeat(posteriors, runs, axis=0)) == 0

    def test_ragged_widths_rejected(self):
        with pytest.raises(InvalidInputError, match="one width"):
            stream(("a", "b"), None, [P1, np.full(3, 1 / 3)])

    def test_off_simplex_posterior_rejected(self):
        with pytest.raises(InvalidInputError):
            stream(("a", "b"), None, [P1, np.array([0.5, 0.6])])

    def test_count_mismatch_states_both_lengths(self):
        with pytest.raises(InvalidInputError, match="got 2 posteriors for 3"):
            stream(("a", "b", "c"), None, [P1, P2])


def framewise(a, teachers):
    """Per teacher, its stream repeated to frame rate: ``np.repeat`` of
    :func:`teacher_posteriors`' token posteriors by their run lengths."""
    streams = teacher_posteriors(a, teachers)
    return [(tid, np.repeat(p, runs, axis=0)) for (tid, _, _), (p, runs) in zip(teachers, streams)]


class TestBuildFramewiseTargets:
    """Frame-wise targets: the frames as hard labels, one stream per teacher."""

    def test_single_identity_teacher(self):
        a = one_utt(("a", "a", "b"))
        [(_, stream)] = framewise(a, [("t0", None, {"u": [P1, P2]})])
        np.testing.assert_array_equal(stream, np.stack([P1, P1, P2]))

    def test_three_teachers_per_frame_structure(self):
        a = one_utt(("a", "a", "b"))
        fine_to_mid = {"a": "x", "b": "y"}
        fine_to_one = {"a": "z", "b": "z"}
        streams = framewise(
            a,
            [
                ("fine", None, {"u": [P1, P2]}),
                ("mid", fine_to_mid, {"u": [np.full(3, 1 / 3)] * 2}),
                ("one", fine_to_one, {"u": [np.full(4, 0.25)]}),
            ],
        )
        assert [len(stream) for _, stream in streams] == [3, 3, 3]
        for i in range(len(a.codes)):
            ids = [tid for tid, _ in streams]
            sizes = [stream[i].shape[0] for _, stream in streams]
            assert ids == ["fine", "mid", "one"]
            assert sizes == [2, 3, 4]

    def test_provider_count_mismatch_propagates(self):
        a = one_utt(("a", "b"))
        with pytest.raises(InvalidInputError, match="1.*2"):
            framewise(a, [("t0", None, {"u": [P1]})])


class TestTargetLines:
    TEACHERS = [("fine", None, {"u1": [P1, P2], "u3": [P3]}),
                ("one", {"a": "z", "b": "z"}, {"u1": [P1], "u3": [P2]})]

    def table(self):
        return "".join(target_lines(alignments_of({"u1": "aab", "u2": "", "u3": "a"}),
                                    self.TEACHERS))

    def test_one_line_per_frame(self):
        assert self.table() == (
            "u1\t0\ta\tfine:1.000000,0.000000\tone:1.000000,0.000000\n"
            "u1\t1\ta\tfine:1.000000,0.000000\tone:1.000000,0.000000\n"
            "u1\t2\tb\tfine:0.000000,1.000000\tone:1.000000,0.000000\n"
            "u3\t0\ta\tfine:0.500000,0.500000\tone:0.000000,1.000000\n"
        )

    @pytest.mark.parametrize("frames", [1, 2, 3, 5])
    def test_chunks_of_fixed_frames_join_to_the_same_table(self, monkeypatch, frames):
        whole = self.table()
        monkeypatch.setattr(alignment, "_CHUNK_FRAMES", frames)
        chunks = list(target_lines(alignments_of({"u1": "aab", "u2": "", "u3": "a"}),
                                   self.TEACHERS))
        sizes = [min(frames, 4 - lo) for lo in range(0, 4, frames)]
        assert [chunk.count("\n") for chunk in chunks] == sizes
        assert "".join(chunks) == whole

    def test_errors_raised_by_the_call_not_the_first_chunk(self):
        with pytest.raises(InvalidInputError, match="got 1 posteriors for 2"):
            target_lines(one_utt(("a", "b")), [("t0", None, {"u": [P1]})])

    def test_no_frames_no_lines(self):
        assert list(target_lines(one_utt(()), [("t0", None, {})])) == []


tokens_st = st.sampled_from([f"w{i}" for i in range(50)])


@settings(max_examples=300, deadline=None)
@given(st.lists(tokens_st, min_size=0, max_size=200))
def test_dedup_properties(frames):
    a = one_utt(tuple(frames))
    runs = deduplicate(a)
    labels = runs.labels.tolist()
    assert sum(runs.runs) == len(frames)
    assert all(x != y for x, y in zip(labels, labels[1:]))


@settings(max_examples=200, deadline=None)
@given(st.lists(tokens_st, min_size=1, max_size=120))
def test_one_hot_roundtrip_reproduces_frames(frames):
    """Repeating the one-hot dedup labels by their runs recovers the frames."""
    a = one_utt(tuple(frames))
    runs = deduplicate(a)
    vocab = sorted({a.vocab[c] for c in runs.labels})
    if len(vocab) == 1:
        vocab.append(vocab[0] + "_pad")
    eye = np.eye(len(vocab))
    onehots = [eye[vocab.index(a.vocab[c])] for c in runs.labels]
    frames_back = np.repeat(onehots, runs.runs, axis=0)
    recovered = [vocab[int(np.argmax(v))] for v in frames_back]
    assert recovered == list(frames)


@st.composite
def touching_utterances(draw):
    """Utterances (some empty) where each one with frames starts on the
    token that the one before it ends on, plus a coarse unit map."""
    utts = {}
    last = draw(tokens_st)
    for u in range(draw(st.integers(1, 6))):
        frames = draw(st.lists(tokens_st, max_size=30))
        utts[f"u{u}"] = [last, *frames] if draw(st.booleans()) else []
        last = utts[f"u{u}"][-1] if utts[f"u{u}"] else last
    mapping = {f"w{i}": f"c{draw(st.integers(0, 2))}" for i in range(50)}
    return utts, mapping


@settings(max_examples=200, deadline=None)
@given(touching_utterances())
def test_runs_never_cross_utterance_boundaries(case):
    utts, mapping = case
    mapped = map_units(alignments_of(utts), mapping)
    runs = deduplicate(mapped)
    for u, frames in enumerate(utts.values()):
        lo, hi = runs.offsets[u], runs.offsets[u + 1]
        coarse = [mapping[f] for f in frames]
        assert [mapped.vocab[c] for c in runs.labels[lo:hi]] == [k for k, _ in groupby(coarse)]
        assert runs.runs[lo:hi] == [len(list(g)) for _, g in groupby(coarse)]
    eye = np.eye(max(len(mapped.vocab), 1))
    back = np.repeat(eye[runs.labels], runs.runs, axis=0).argmax(axis=1)
    np.testing.assert_array_equal(back, mapped.codes)
