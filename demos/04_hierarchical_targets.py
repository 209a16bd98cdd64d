"""Walkthrough: from a frame-wise alignment to multi-teacher training targets.

A forced alignment repeats each label over several frames, while a teacher
emits one posterior per *token*. The pipeline is: map the alignment into the
teacher's vocabulary, collapse repeated neighbours while remembering run
lengths, fetch one posterior per collapsed token, then repeat each posterior
by its run length so every frame carries a soft label again. With several
teachers of different vocabularies this yields one hard label plus one soft
label per teacher on every frame: ``target_lines`` writes that table, one
line per frame, formatting each token posterior once.

A whole alignment file is one int code array into one vocabulary, with
utterance offsets, so every step runs once over all utterances.

Run:  python demos/04_hierarchical_targets.py
"""

import numpy as np

import distilcal as dc

np.set_printoptions(precision=3, suppress=True)

# One utterance "utt1" of nine frames: each frame is a code into the vocabulary.
alignment = dc.Alignments(
    utts=["utt1"], offsets=np.array([0, 9]), vocab=["s1", "s2", "s3"],
    codes=np.array([0, 0, 0, 1, 1, 2, 2, 2, 2]),
)
frames = [alignment.vocab[c] for c in alignment.codes]
print("frame labels:   ", " ".join(frames))

# Step 1: map senones onto a coarser unit.
to_phone = {"s1": "p1", "s2": "p1", "s3": "p2"}
mapped = dc.map_units(alignment, to_phone)
print("mapped to phone:", " ".join(mapped.vocab[c] for c in mapped.codes))

# Step 2: deduplicate, keeping run lengths.
runs = dc.deduplicate(mapped)
print(f"deduplicated:    labels={[mapped.vocab[c] for c in runs.labels]} runs={runs.runs}")

# Step 3: one teacher posterior per deduplicated token...
phone_posteriors = np.array([[0.9, 0.1], [0.2, 0.8]])
print("token posteriors:", phone_posteriors.tolist())

# Step 4: ...repeated back to frame rate.
framewise = np.repeat(phone_posteriors, runs.runs, axis=0)
print("frame posteriors:")
for i, p in enumerate(framewise):
    print(f"  frame {i}: {p}")

print("\n=== three teachers with different vocabularies ===")
fine_posteriors = np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
teachers = [
    ("senone-lm", None, {"utt1": fine_posteriors}),
    ("phone-lm", to_phone, {"utt1": phone_posteriors}),
    ("word-lm", {"s1": "w", "s2": "w", "s3": "w"}, {"utt1": np.full((1, 4), 0.25)}),
]
# One line per frame: utterance, frame, hard label, then one soft label per teacher.
print("".join(dc.target_lines(alignment, teachers)), end="")
