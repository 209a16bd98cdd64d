"""Walkthrough: from a frame-wise alignment to multi-teacher training targets.

A forced alignment repeats each label over several frames, while a teacher
emits one posterior per *token*. The pipeline is: map the alignment into the
teacher's vocabulary, collapse repeated neighbours while remembering run
lengths, fetch one posterior per collapsed token, then repeat each posterior
by its run length so every frame carries a soft label again. With several
teachers of different vocabularies this yields one hard label plus one soft
label per teacher on every frame: ``teacher_stream`` gives each teacher's
token posteriors and run lengths, and ``np.repeat`` brings them to frame rate.

Run:  python demos/04_hierarchical_targets.py
"""

import numpy as np

import distilcal as dc

np.set_printoptions(precision=3, suppress=True)

frames = ("s1", "s1", "s1", "s2", "s2", "s3", "s3", "s3", "s3")
alignment = dc.Alignment(frames, unit="senone")
print("frame labels:   ", " ".join(alignment.frames))

# Step 1: map senones onto a coarser unit.
to_phone = dc.UnitMap({"s1": "p1", "s2": "p1", "s3": "p2"},
                      source="senone", target="phone")
mapped = dc.map_units(alignment, to_phone)
print("mapped to phone:", " ".join(mapped.frames))

# Step 2: deduplicate, keeping run lengths.
rla = dc.deduplicate(mapped)
print(f"deduplicated:    labels={rla.labels} runs={rla.runs}")

# Step 3: one teacher posterior per deduplicated token...
phone_posteriors = [np.array([0.9, 0.1]), np.array([0.2, 0.8])]
print("token posteriors:", [p.tolist() for p in phone_posteriors])

# Step 4: ...rearranged back to frame rate.
framewise = dc.rearrange(phone_posteriors, rla)
print("frame posteriors:")
for i, p in enumerate(framewise):
    print(f"  frame {i}: {p}")

print("\n=== three teachers with different vocabularies ===")
fine_posteriors = {
    "s1": np.array([0.8, 0.1, 0.1]),
    "s2": np.array([0.1, 0.8, 0.1]),
    "s3": np.array([0.1, 0.1, 0.8]),
}
teachers = [
    ("senone-lm", None, lambda toks: [fine_posteriors[t] for t in toks]),
    ("phone-lm", to_phone, lambda toks: phone_posteriors[: len(toks)]),
    ("word-lm",
     dc.UnitMap({"s1": "w", "s2": "w", "s3": "w"}, source="senone", target="word"),
     lambda toks: [np.full(4, 0.25) for _ in toks]),
]
# Each teacher: its (tokens, K) posteriors and run lengths, repeated to frame rate.
streams = [
    (tid, np.repeat(*dc.teacher_stream(alignment, unit_map, provider), axis=0))
    for tid, unit_map, provider in teachers
]
for i, hard in enumerate(alignment.frames):
    soft = "  ".join(f"{tid}:{stream[i]}" for tid, stream in streams)
    print(f"frame {i}: hard={hard}  {soft}")
