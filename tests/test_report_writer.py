"""Property test: `catalog.document_text` writes exactly what
`json.dumps(doc, indent=2, sort_keys=True)` writes, the stdlib call kept here
as the reference.

The documents nest dicts with str keys, lists and tuples, with empty
containers, lists of empty and of flat dicts, strings full of JSON
punctuation, control characters and non-ASCII, big ints, bools, None and
finite floats.  Seeded through a derandomized hypothesis profile, so every
run draws the same examples.
"""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from contact_index.catalog import document_text  # noqa: E402

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=300)

text = st.text(st.sampled_from('{}[],:"\\\n\t\x00 ab0é∞\U0001d49e'), max_size=8) | st.text(max_size=4)
scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(min_value=2**64, max_value=2**200).map(lambda v: v * (-1) ** v),
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([-0.0, 1e300, -1e-300]),
    text,
)
flat_dicts = st.dictionaries(text, scalars, min_size=1, max_size=4)


def containers(children):
    lists = st.lists(children, max_size=4)
    return st.one_of(lists, lists.map(tuple), st.dictionaries(text, children, max_size=4),
                     st.lists(flat_dicts, max_size=4), st.lists(st.just({}), max_size=3))


def nested(children):
    lists = st.lists(children, min_size=1, max_size=2)
    return st.one_of(lists, lists.map(tuple),
                     st.dictionaries(text, children, min_size=1, max_size=2))


documents = st.recursive(scalars, containers, max_leaves=30)
deep = documents
for _ in range(4):
    deep = nested(deep)


def _reference(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


@DETERMINISTIC
@given(documents)
@example({"a": [{}, {}], "b": {}, "c": [], "d": [[]]})
@example([{"k": "},\n    {"}, {"k": 1}])
@example({"z": (1, (2.5, -0.0)), "a": [None, True, 1e300, 2**64 + 1]})
def test_writer_matches_the_stdlib(doc):
    assert document_text(doc) == _reference(doc)


@settings(DETERMINISTIC, max_examples=80)
@given(deep)
def test_writer_matches_the_stdlib_at_least_four_deep(doc):
    assert document_text(doc) == _reference(doc)
