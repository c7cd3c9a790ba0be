"""Property test: REP003's static payload model agrees with util/words.

:func:`repro.lint.static_payload_words` predicts, from a payload's AST,
the word count :func:`repro.util.words.message_words` will charge at run
time.  The two are independent implementations of the same accounting
(Sect. 1.1's O(log n)-bit word convention), so we pin them together: for
random payloads built from the sanctioned grammar, parsing ``repr(p)``
and evaluating the static model must reproduce ``message_words(p)``
exactly.
"""

from __future__ import annotations

import ast

from hypothesis import given
from hypothesis import strategies as st

from repro.lint import static_payload_words
from repro.util.words import WordCounter, message_words


def static_words_of(payload: object) -> object:
    """Parse ``repr(payload)`` and apply the static model."""
    expr = ast.parse(repr(payload), mode="eval").body
    return static_payload_words(expr)


# The sanctioned payload grammar (what REP003 asks protocols to send):
# None / bool / int / float / str scalars nested in tuples and lists.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10 ** 9), max_value=10 ** 9),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
)

ordered_payloads = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(tuple),
        st.lists(inner, max_size=4),
    ),
    max_leaves=16,
)


@given(ordered_payloads)
def test_static_model_matches_runtime_on_ordered_payloads(payload):
    assert static_words_of(payload) == message_words(payload)


# The *discouraged* containers still have well-defined word counts
# (message_words sums them), and the static model must agree where the
# repr round-trips through a literal: non-empty sets/frozensets and
# dicts.  (``set()``/``frozenset()`` reprs are constructor calls the
# static model declines to guess about.)
hashable_scalars = st.one_of(
    st.booleans(),
    st.integers(min_value=-(10 ** 6), max_value=10 ** 6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6),
)


@given(st.sets(hashable_scalars, min_size=1, max_size=5))
def test_static_model_matches_runtime_on_sets(payload):
    assert static_words_of(payload) == message_words(payload)


@given(st.frozensets(hashable_scalars, min_size=1, max_size=5))
def test_static_model_matches_runtime_on_frozensets(payload):
    assert static_words_of(payload) == message_words(payload)


@given(
    st.dictionaries(
        hashable_scalars,
        st.one_of(scalars, st.lists(scalars, max_size=3).map(tuple)),
        max_size=5,
    )
)
def test_static_model_matches_runtime_on_dicts(payload):
    assert static_words_of(payload) == message_words(payload)


def test_static_model_exact_counts():
    assert static_words_of(None) == 0
    assert static_words_of((0, "ball", 7)) == 3
    assert static_words_of(((1, 2), [3.5, None], "x")) == 4
    assert message_words((0, "ball", 7)) == 3


def test_message_words_counts_none_items_and_nested_containers():
    # Scalar and None items are counted inline; nested containers recurse.
    assert message_words((1, None, "x")) == 2
    assert message_words((None, None)) == 0
    assert message_words([None]) == 0
    assert message_words(((1, 2), [3, None, (4,)], None, "ball")) == 5
    assert message_words(((), [], frozenset())) == 0
    assert message_words(frozenset({None, 1, "a"})) == 2
    assert message_words({1: None, (2, 3): (None, 4)}) == 4
    assert message_words((True, 2.5, object(), (object(), None))) == 4


def _reference_words(payload: object) -> int:
    """The word rules, one recursive call per item."""
    if payload is None:
        return 0
    if isinstance(payload, (tuple, list, set, frozenset)):
        return sum(_reference_words(item) for item in payload)
    if isinstance(payload, dict):
        return sum(
            _reference_words(k) + _reference_words(v)
            for k, v in payload.items()
        )
    return 1


@given(
    st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=5).map(tuple),
            st.lists(inner, max_size=5),
            st.frozensets(hashable_scalars, max_size=4),
            st.dictionaries(hashable_scalars, inner, max_size=3),
        ),
        max_leaves=24,
    )
)
def test_message_words_matches_the_recursive_rules(payload):
    assert message_words(payload) == _reference_words(payload)


def test_static_model_declines_dynamic_expressions():
    for source in ("x", "f()", "a + b", "nbrs[0]", "(1, x)"):
        expr = ast.parse(source, mode="eval").body
        assert static_payload_words(expr) is None


# The simulator's memoizing WordCounter (the hot-path wrapper around
# message_words) must be observationally identical to the plain walk —
# on first sight (cache miss), on repeat calls (cache hit), and on
# unhashable payloads (cache bypass).
@given(st.lists(ordered_payloads, min_size=1, max_size=6))
def test_word_counter_matches_message_words(payloads):
    counter = WordCounter()
    for _ in range(2):  # second pass exercises the cache-hit path
        for payload in payloads:
            assert counter(payload) == message_words(payload)


@given(st.lists(scalars, max_size=4))
def test_word_counter_handles_unhashable_payloads(items):
    counter = WordCounter()
    payload = [items, {0: items}]  # unhashable at top level
    assert counter(payload) == message_words(payload)
    assert counter(payload) == message_words(payload)


def test_word_counter_cache_bound_clears_not_grows():
    counter = WordCounter(max_entries=4)
    for value in range(20):
        assert counter(value) == 1
        assert len(counter._cache) <= 4
