"""Named-stream RNG manager with order-invariant per-entity substreams.

The derivation scheme (documented normatively in docs/REPRODUCIBILITY.md)
is a keyed hash in the style of :meth:`numpy.random.SeedSequence.spawn`,
but with *stable, human-readable keys* instead of spawn counters — spawn
counters depend on spawn order, which is exactly the fragility this
module exists to remove:

``derive_seed(base_seed, *parts)`` joins ``base_seed`` and the key parts
with ``":"``, SHA-256 hashes the string, and takes the first 8 digest
bytes (little-endian) as a 64-bit seed.  A stream's generator is
``numpy.random.default_rng(derived)`` — equivalent to seeding a
``SeedSequence`` with the derived entropy.  Because the seed is a pure
function of the key:

* two streams with different names are statistically independent;
* the order in which streams are first touched is irrelevant;
* interleaving draws across entity substreams never changes the
  sequence any single entity sees.

The single-part form ``derive_seed(s, name)`` hashes ``f"{s}:{name}"``.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional, Tuple, Union

import numpy as np

__all__ = [
    "RNGManager",
    "derive_seed",
    "derive_entity_seed",
]

#: Types accepted as key parts: anything with a stable ``str()``.
KeyPart = Union[str, int]


def derive_seed(base_seed: int, *parts: KeyPart) -> int:
    """Derive a 64-bit child seed from ``base_seed`` and a key tuple.

    The key is canonicalized as ``f"{base_seed}:{part1}:{part2}:..."``,
    SHA-256 hashed, and truncated to the first 8 bytes (little-endian).
    Deterministic across processes, platforms and Python versions
    (``PYTHONHASHSEED`` does not apply to hashlib).
    """
    if not parts:
        raise ValueError("derive_seed needs at least one key part")
    label = ":".join([str(int(base_seed))] + [str(p) for p in parts])
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def derive_entity_seed(
    base_seed: int,
    stream_name: str,
    entity_id: Optional[KeyPart] = None,
    repetition: Optional[int] = None,
) -> int:
    """Seed for the ``(base_seed, stream_name, entity_id, repetition)`` key.

    ``entity_id`` and ``repetition`` are optional refinements; omitting
    them yields the plain named-stream seed.  The canonical key encodes
    them as ``entity=<id>`` and ``rep=<n>`` parts, so an entity substream
    can never collide with a literal stream name.
    """
    parts: Tuple[KeyPart, ...] = (stream_name,)
    if entity_id is not None:
        parts += (f"entity={entity_id}",)
    if repetition is not None:
        parts += (f"rep={int(repetition)}",)
    return derive_seed(base_seed, *parts)


def seeded_generator(seed: int = 0) -> np.random.Generator:
    """A bare generator seeded directly with ``seed`` (no key derivation).

    The sanctioned escape hatch for components that accept an explicit
    ``rng`` parameter and need a deterministic default when the caller
    passes none.  Bit-identical to ``np.random.default_rng(seed)`` —
    this helper exists so that construction happens inside the seeding
    authority, where repro-lint's RL001 can see every stream is
    accounted for.  Prefer :class:`RNGManager` named streams whenever a
    manager is in reach.
    """
    return np.random.default_rng(seed)


class RNGManager:
    """Provides deterministic, named child streams from one base seed.

    Streams are memoized: the same name always returns the same
    :class:`numpy.random.Generator` instance, whose state advances with
    use.  Seeds are derived from the name alone (:func:`derive_seed`),
    so creation order is irrelevant.

    >>> manager = RNGManager(base_seed=42)
    >>> manager.stream("lan.a->b") is manager.stream("lan.a->b")
    True
    """

    def __init__(self, base_seed: int = 0) -> None:
        """Root every stream this manager hands out at ``base_seed``."""
        self.base_seed = int(base_seed)
        self._streams: Dict[Tuple[KeyPart, ...], np.random.Generator] = {}

    def child_seed(
        self,
        name: str,
        entity_id: Optional[KeyPart] = None,
        repetition: Optional[int] = None,
    ) -> int:
        """The derived seed for a named (sub)stream, without creating it."""
        if not name:
            raise ValueError("stream name must be non-empty")
        return derive_entity_seed(
            self.base_seed, name, entity_id=entity_id, repetition=repetition
        )

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating if needed) the named substream ``name``."""
        return self._get((name,), name)

    def substream(
        self,
        name: str,
        entity_id: KeyPart,
        repetition: Optional[int] = None,
    ) -> np.random.Generator:
        """A per-entity substream of ``name``, order-invariant across entities.

        Each ``(name, entity_id[, repetition])`` key owns an independent
        generator; interleaving draws across entities never changes the
        sequence any one entity sees.
        """
        key: Tuple[KeyPart, ...] = (name, f"entity={entity_id}")
        if repetition is not None:
            key += (f"rep={int(repetition)}",)
        return self._get(key, name, entity_id, repetition)

    def _get(
        self,
        key: Tuple[KeyPart, ...],
        name: str,
        entity_id: Optional[KeyPart] = None,
        repetition: Optional[int] = None,
    ) -> np.random.Generator:
        """Memoized generator lookup; the seed is derived only on a miss."""
        rng = self._streams.get(key)
        if rng is None:
            seed = self.child_seed(name, entity_id=entity_id, repetition=repetition)
            rng = self._streams[key] = np.random.default_rng(seed)
        return rng

    def __repr__(self) -> str:
        """Short debugging form: base seed plus live stream count."""
        return (
            f"<{type(self).__name__} base_seed={self.base_seed} "
            f"streams={len(self._streams)}>"
        )
