"""Random-number-generator plumbing.

Every randomized routine in this library accepts either a seed (``int``),
an existing :class:`random.Random` instance, or ``None`` (fresh
nondeterministic generator).  Centralizing the coercion keeps signatures
uniform and experiments reproducible.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Tuple, Union

SeedLike = Union[None, int, random.Random]

#: a shared-randomness pseudo-random function: ``prf(*keys) -> [0, 1)``.
Prf = Callable[..., float]


def ensure_rng(seed: SeedLike = None) -> random.Random:
    """Coerce ``seed`` into a :class:`random.Random` instance.

    ``None`` yields a freshly seeded generator; an ``int`` yields a
    deterministic generator; an existing generator is returned unchanged
    (so callers can thread one RNG through a pipeline).
    """
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


class SaltedPrf:
    """A deterministic pseudo-random function ``prf(*keys) -> [0, 1)``.

    Pure function of ``(salt, keys)``: the value is the first 8 bytes
    of ``sha256(salt + ":".join(map(repr, keys)).encode())``, read as a
    little-endian fraction of 2**64.  Instances are picklable (only the
    salt crosses; the memo is rebuilt empty, which cannot change any
    sampling decision), so node programs holding a PRF can be shipped
    to the sharded engine's worker processes and evolve the *identical*
    clustering there.

    Two entry points compute that one value:

    * ``prf(*keys)`` memoizes.  The protocols' shared randomness
      re-evaluates the same coins at every node (Baswana–Sen's
      ``(phase, center)`` keys, the skeleton's ``(call, center)``), so
      its keys repeat heavily and a hit skips the digest.
    * :meth:`uncached` always digests.  A fault-plan draw names one
      delivery or one inbox of one network, so its key recurs only when
      the same plan drives another network; for those draws a memo is
      a lookup and a store per draw that rarely pays back, plus the
      memory of the entries (see ``docs/robustness.md``).
    """

    __slots__ = ("_salt", "_cache", "_sha256")

    def __init__(self, salt: bytes) -> None:
        # Imported here, not at module import: hashlib is then off the
        # start-up path of every process that never draws.
        import hashlib

        self._salt = salt
        self._sha256 = hashlib.sha256
        # Bounded like WordCounter: cleared wholesale at the cap, never
        # evicted.
        self._cache: Dict[Tuple[Any, ...], float] = {}

    def __call__(self, *keys: Any) -> float:
        cache = self._cache
        try:
            hit = cache.get(keys)
        except TypeError:  # unhashable key — compute directly
            return self.uncached(*keys)
        if hit is not None:
            return hit
        value = self.uncached(*keys)
        if len(cache) >= 1 << 16:
            cache.clear()
        cache[keys] = value
        return value

    def uncached(self, *keys: Any) -> float:
        """``self(*keys)``, computed afresh without touching the memo.

        The digest input is built here only, so both entry points agree
        bit for bit.  ``map(repr, ...)`` keeps it — hence every sampling
        decision ever recorded in a trace — identical to the original
        generator-expression form, at lower call overhead.
        """
        digest = self._sha256(
            self._salt + ":".join(map(repr, keys)).encode()
        ).digest()
        return int.from_bytes(digest[:8], "little") / 2**64

    def __getstate__(self) -> bytes:
        return self._salt

    def __setstate__(self, salt: bytes) -> None:
        SaltedPrf.__init__(self, salt)


def make_prf(seed: SeedLike = None) -> SaltedPrf:
    """Build a deterministic pseudo-random function ``prf(*keys) -> [0, 1)``.

    Distributed algorithms here use *shared randomness*: every processor
    derives the same sampling decision for (round, cluster-center) pairs
    from a common seed, so no communication is spent distributing coin
    flips.  The same PRF drives the sequential implementations, which is
    what makes sequential/distributed cross-validation exact.

    The returned callable is a picklable :class:`SaltedPrf`: the salt —
    and therefore every sampling decision — is derived from ``seed``
    exactly as before, but the function can now cross a process
    boundary intact (the sharded engine ships programs to workers).
    """
    seed_rng = ensure_rng(seed)
    salt = seed_rng.getrandbits(64).to_bytes(8, "little")
    return SaltedPrf(salt)


def spawn_rng(rng: random.Random, stream: int = 0) -> random.Random:
    """Derive an independent child generator from ``rng``.

    Used when a routine needs several statistically independent streams
    (e.g. one per algorithm level) that must not interleave, so that
    adding draws to one stream does not perturb the others.
    """
    return random.Random((rng.getrandbits(64) << 16) ^ stream)
