"""Hierarchical, named random-number streams for reproducible experiments.

This package is the single seeding authority for the repository.  Every
stochastic component — simulated links, client think times, fault
schedules, experiment repetitions — draws from a *named stream* whose
seed is a pure function of a key, never of creation order or draw
interleaving.  That discipline buys three properties the experiment
matrix depends on (docs/REPRODUCIBILITY.md spells out the contract):

* **reproducibility** — any run is replayable from its recorded
  ``(base_seed, params)`` alone;
* **order-invariance** — adding a component, or reordering when
  components first draw, never perturbs the variates any *other*
  component sees (the classic common-random-numbers discipline);
* **shardability** — repetitions and parameter points can be fanned out
  across worker processes (``repro.experiments.parallel``) and merged
  into results bit-identical to a serial run, because no stream depends
  on which worker executed it.

Key derivation is ``numpy.random.SeedSequence``-style keyed hashing:
the key tuple ``(base_seed, stream_name, entity_id, repetition)`` is
canonically joined and SHA-256 hashed down to 64 bits of entropy (see
:func:`derive_seed`).  :class:`RNGManager` memoizes named streams over
one base seed.
"""

from .manager import (
    RNGManager,
    derive_entity_seed,
    derive_seed,
    seeded_generator,
)

__all__ = [
    "RNGManager",
    "derive_seed",
    "derive_entity_seed",
    "seeded_generator",
]
