"""Determinism and derivation contracts of repro.rng (tentpole, ISSUE 6)."""

import hashlib

import numpy as np
import pytest

from repro.rng import RNGManager, derive_entity_seed, derive_seed
from repro.rng import manager as manager_module
from repro.workload.ministack import MiniStack


class TestDeriveSeed:
    def test_deterministic_across_instances(self):
        assert derive_seed(42, "lan") == derive_seed(42, "lan")

    def test_matches_documented_construction(self):
        # The normative scheme of docs/REPRODUCIBILITY.md: join with ":",
        # sha256, first 8 digest bytes little-endian.
        digest = hashlib.sha256(b"42:client-1.policy").digest()
        expected = int.from_bytes(digest[:8], "little")
        assert derive_seed(42, "client-1.policy") == expected

    def test_single_part_matches_legacy_sim_derivation(self):
        # The historic repro.sim.random scheme hashed f"{seed}:{name}" the
        # same way; this equality is what keeps every published
        # simulation result reproducible.
        for seed, name in [(0, "lan.a->b"), (7, "service.s-1"), (123, "x")]:
            digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
            assert derive_seed(seed, name) == int.from_bytes(
                digest[:8], "little"
            )

    def test_distinct_keys_distinct_seeds(self):
        seeds = {
            derive_seed(1, "a"),
            derive_seed(1, "b"),
            derive_seed(2, "a"),
            derive_seed(1, "a", "b"),
        }
        assert len(seeds) == 4

    def test_requires_at_least_one_part(self):
        with pytest.raises(ValueError):
            derive_seed(1)


class TestEntityAndRepetitionSeeds:
    def test_entity_encoding_never_collides_with_stream_name(self):
        # substream("s", "x") keys on "entity=x", not the literal "x",
        # so a stream literally named "s:x" cannot alias it.
        assert derive_entity_seed(1, "s", "x") != derive_seed(1, "s", "x")
        assert derive_entity_seed(1, "s", "x") == derive_seed(
            1, "s", "entity=x"
        )

    def test_repetition_refines_entity(self):
        base = derive_entity_seed(3, "sweep", 0)
        with_rep = derive_entity_seed(3, "sweep", 0, repetition=1)
        assert base != with_rep
        assert with_rep == derive_seed(3, "sweep", "entity=0", "rep=1")


class TestRNGManager:
    def test_stream_memoized(self):
        manager = RNGManager(base_seed=1)
        assert manager.stream("a") is manager.stream("a")

    def test_creation_order_irrelevant(self):
        first = RNGManager(base_seed=11)
        second = RNGManager(base_seed=11)
        a1 = first.stream("a").uniform()
        b1 = first.stream("b").uniform()
        # Opposite creation order on the twin manager.
        b2 = second.stream("b").uniform()
        a2 = second.stream("a").uniform()
        assert (a1, b1) == (a2, b2)

    def test_substream_interleaving_invariance(self):
        # Drawing entities round-robin vs entity-at-a-time must give each
        # entity the identical private sequence.
        robin = RNGManager(base_seed=4)
        blocked = RNGManager(base_seed=4)
        interleaved = {e: [] for e in ("x", "y", "z")}
        for _ in range(5):
            for entity in ("x", "y", "z"):
                interleaved[entity].append(
                    robin.substream("svc", entity).uniform()
                )
        for entity in ("z", "x", "y"):  # different order again
            block = [
                blocked.substream("svc", entity).uniform() for _ in range(5)
            ]
            assert block == interleaved[entity]

    def test_substream_repetition_axis_is_independent(self):
        manager = RNGManager(base_seed=2)
        r0 = manager.substream("svc", "x", repetition=0).uniform()
        r1 = manager.substream("svc", "x", repetition=1).uniform()
        plain = manager.substream("svc", "x").uniform()
        assert len({r0, r1, plain}) == 3

    def test_child_seed_does_not_create_stream(self):
        manager = RNGManager(base_seed=3)
        manager.child_seed("quiet")
        assert not manager._streams
        assert manager.child_seed("quiet") == derive_seed(3, "quiet")

    def test_child_seed_rejects_empty_name(self):
        with pytest.raises(ValueError):
            RNGManager(0).child_seed("")


class TestSeedsAreDerivedOnceAStream:
    """The memo is consulted before the key is hashed.

    ``LanModel.one_way_delay`` asks for its stream once per message;
    formatting and SHA-256-hashing the key on every memoised lookup cost
    forty times the dict hit it preceded.
    """

    @pytest.fixture
    def hashes(self, monkeypatch):
        calls = []

        def counting(base_seed, *parts):
            calls.append(parts)
            return derive_seed(base_seed, *parts)

        monkeypatch.setattr(manager_module, "derive_seed", counting)
        return calls

    def test_a_memoised_lookup_does_not_hash(self, hashes):
        manager = RNGManager(base_seed=5)
        first = manager.stream("a")
        for _ in range(3):
            assert manager.stream("a") is first
        sub = manager.substream("svc", "x", repetition=2)
        assert manager.substream("svc", "x", repetition=2) is sub
        assert hashes == [("a",), ("svc", "entity=x", "rep=2")]

    def test_one_hash_per_distinct_stream_over_a_run(self, hashes):
        stack = MiniStack(seed=3)
        for index in range(3):
            stack.add_server(f"replica-{index + 1}")
        stack.add_client("client-1", 40.0, 0.9)
        for _ in range(30):
            stack.invoke("client-1")
            stack.sim.run()
        assert stack.transport.sent_count > 10 * len(hashes)  # asked per message
        assert len(hashes) == len(set(hashes)) == len(stack.streams._streams)

    def test_same_generators_as_deriving_eagerly(self):
        manager = RNGManager(base_seed=9)
        for key, rng in (
            (("a",), manager.stream("a")),
            (("svc", "x"), manager.substream("svc", "x")),
            (("svc", "x", 1), manager.substream("svc", "x", repetition=1)),
        ):
            twin = np.random.default_rng(manager.child_seed(*key))
            assert rng.uniform(size=3).tolist() == twin.uniform(size=3).tolist()

    def test_an_empty_name_is_still_rejected(self):
        with pytest.raises(ValueError):
            RNGManager(0).stream("")
