"""Hypothesis strategy of valid texts with a few random edits, for parser fuzzing."""

from hypothesis import strategies as st

#: inserted text: a few number and layout characters, a few of any kind, or a
#: run of digits long enough to overflow a 64-bit integer
_INSERTS = (st.text(alphabet="0123456789-.eE \n$=", max_size=8)
            | st.text(max_size=4)
            | st.text(alphabet="0123456789", min_size=18, max_size=30))

#: (position, characters removed there, text inserted there)
_EDITS = st.lists(st.tuples(st.integers(0, 10_000), st.integers(0, 4), _INSERTS),
                  min_size=1, max_size=5)


def _apply(text, edits):
    for pos, cut, insert in edits:
        k = pos % (len(text) + 1)
        text = text[:k] + insert + text[k + cut:]
    return text


def mutated(*texts):
    """One of ``texts`` after one to five random deletions and insertions."""
    return st.builds(_apply, st.sampled_from(texts), _EDITS)
