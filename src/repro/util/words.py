"""Message-size measurement in O(log n)-bit words.

The paper measures message length "in units of O(log n) bits" (Sect. 1.1):
one word holds a vertex identifier, a distance, a round number, etc.  Our
simulator charges messages by the number of such words they carry.  The
rules, matching that convention:

* ``None`` costs 0 words (an empty/flag-only message),
* ints, floats, bools and short strings cost 1 word,
* tuples/lists/sets/frozensets cost the sum of their items,
* dicts cost the sum over keys and values.

Anything else costs 1 word per occurrence (opaque token).
"""

from __future__ import annotations

from typing import Any, Collection, Dict

_SEQUENCES = (tuple, list, set, frozenset)
_CONTAINERS = _SEQUENCES + (dict,)
#: exact item types of a flat payload, one word each.
_SCALARS = frozenset((int, float, bool, str))


def message_words(payload: Any) -> int:
    """Return the length of ``payload`` in O(log n)-bit words.

    A container's scalar and ``None`` items are counted inline; only a
    nested container costs a recursive call, so a flat tuple of ints
    is one pass over its item types.
    """
    if payload is None:
        return 0
    items: Collection[Any]
    if isinstance(payload, _SEQUENCES):
        items = payload
    elif isinstance(payload, dict):
        items = (*payload, *payload.values())
    else:
        return 1
    if _SCALARS.issuperset(map(type, items)):
        return len(items)
    words = 0
    for item in items:
        if isinstance(item, _CONTAINERS):
            words += message_words(item)
        elif item is not None:
            words += 1
    return words


class WordCounter:
    """Memoizing :func:`message_words` for the simulator's send path.

    Protocol payloads repeat heavily across rounds (the same broadcast
    token, the same candidate tuple), so the recursive walk is paid once
    per distinct payload instead of once per send.  Only hashable
    payloads are cached — unhashable ones (lists, dicts) fall through to
    a direct computation; since :func:`message_words` depends only on
    payload structure, equal payloads always have equal word counts and
    the cache can never disagree with the direct walk (pinned by
    ``tests/test_payload_words_property.py`` against both
    ``message_words`` and ``lint.messages.static_payload_words``).

    The cache is bounded: at ``max_entries`` it is cleared wholesale
    rather than evicted, so a pathological payload stream degrades to
    the uncached cost instead of growing memory without limit.
    """

    __slots__ = ("_cache", "max_entries")

    def __init__(self, max_entries: int = 1 << 16) -> None:
        self._cache: Dict[Any, int] = {}
        self.max_entries = max_entries

    def __call__(self, payload: Any) -> int:
        cache = self._cache
        try:
            words = cache.get(payload)
        except TypeError:  # unhashable payload — compute directly
            return message_words(payload)
        if words is None:
            words = message_words(payload)
            if len(cache) >= self.max_entries:
                cache.clear()
            cache[payload] = words
        return words
