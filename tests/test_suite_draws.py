"""The suite's seeded draws: `suite.Rng` on the C Mersenne Twister draws
exactly what `random.Random` draws from the same seed, for every call the
suite makes, so the seeded sweeps sample the same instances without
`random.py`'s sampling code."""

import random

import pytest

from doctrines import suite
from doctrines.suite import Rng, random_coalgebra, random_vertical_adjunction

SEEDS = range(200)


def _recording(base, log: list):
    """`base` with each draw the suite makes recorded in `log` as (name,
    arguments, result), outermost calls only (`randint` may call
    `randrange`)."""

    class Recording(base):
        depth = 0
        # a subclass of random.Random that defines `random` would draw its
        # ranges by `_randbelow_without_getrandbits` instead (`__init_subclass__`)
        _randbelow = random.Random._randbelow_with_getrandbits

        def _draw(self, name, *args):
            self.depth += 1
            try:
                found = getattr(base, name)(self, *args)
            finally:
                self.depth -= 1
            if not self.depth:
                log.append((name, args, found))
            return found

        def randint(self, a, b):
            return self._draw("randint", a, b)

        def randrange(self, *args):  # random.Random's randint calls randrange(a, b + 1)
            return self._draw("randrange", *args)

        def sample(self, population, k):
            return self._draw("sample", population, k)

        def random(self):
            return self._draw("random")

    return Recording


def test_rng_draws_what_random_random_draws_in_the_suites_own_calls(monkeypatch):
    # the two seeded criteria, run on a recording Rng and then on a recording
    # random.Random in its place: both see the same calls and draw the same.
    # The scans the criteria run on their samples draw nothing, so they are
    # stubbed to pass, which leaves each criterion's calls as they are.
    for name, stub in (("adjunction_violations", lambda A: []), ("am_modality", lambda A: None),
                       ("oracle_mismatches", lambda c, lifts: []), ("_gfp_chain", lambda c, lift, alpha: [alpha]),
                       ("_oracle_mask", lambda c, lift, alpha: alpha)):
        monkeypatch.setattr(suite, name, stub)
    for seed in SEEDS:
        logs = []
        for base in (Rng, random.Random):
            logs.append([])
            monkeypatch.setattr(suite, "Rng", _recording(base, logs[-1]))
            assert suite.criterion_am_modality(seed)[0] and suite.criterion_temporal(seed)[0]
        assert logs[0] == logs[1], seed
        assert {name for name, _, _ in logs[0]} == {"randint", "randrange", "sample", "random"}
        assert max(len(args[0]) for name, args, _ in logs[0] if name == "sample") <= 4


def test_the_seeded_generators_sample_equal_instances_under_both():
    for seed in SEEDS:
        rngs = Rng(seed), random.Random(seed)
        adjunctions = [random_vertical_adjunction(rng) for rng in rngs]
        assert adjunctions[0] == adjunctions[1], seed
        for kind, states in (("stream", 5), ("tree", 5), ("stream", 8), ("tree", 8)):
            a, b = (random_coalgebra(rng, kind, states, "M") for rng in rngs)
            assert a == b, (seed, kind, states)
        # both drew the same number of times
        assert rngs[0].random() == rngs[1].random(), seed


def test_sample_takes_the_pool_branch_up_to_21_members_and_refuses_more():
    for n in range(22):
        for k in range(n + 1):
            rng, ref = Rng(n * 31 + k), random.Random(n * 31 + k)
            assert rng.sample(range(n), k) == ref.sample(range(n), k)
            assert rng.random() == ref.random()
    with pytest.raises(ValueError):
        Rng(0).sample(range(22), 1)
    with pytest.raises(ValueError):
        Rng(0).sample(range(3), 4)


def test_an_empty_range_raises():
    for n in (0, -1):
        with pytest.raises(ValueError):
            Rng(0).randrange(n)
    with pytest.raises(ValueError):
        Rng(0).randint(2, 1)


def test_the_suite_seeds_its_own_rng_and_leaves_random_unimported(monkeypatch):
    assert "random" not in vars(suite)
    seen = []

    class Recording(Rng):
        def __init__(self, seed):
            seen.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(suite, "Rng", Recording)
    assert suite.criterion_am_modality(5)[0] and suite.criterion_temporal(6)[0]
    assert seen == [5, 6]
