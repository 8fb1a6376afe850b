"""Seeded samplers: size caps, relatedness contracts, determinism."""

import random

import pytest

from limitlearn.errors import ConfigError
from limitlearn.relations import make_relation, oscillation_display_holds
from limitlearn.sampling import (
    OSC_MAX_PER,
    OSC_MAX_PRE,
    crosscheck_pair,
    flip_finitely,
    random_inf_word,
    random_osc_pair,
    random_word,
    related_case,
    unrelated_case,
)

E0 = make_relation("e0")
ID = make_relation("id")


def test_random_word_respects_caps():
    rng = random.Random(5)
    for _ in range(200):
        w = random_word(rng, max_pre=3, max_per=2)
        assert len(w.pre) <= 3 and 1 <= len(w.per) <= 2


def test_random_inf_word_has_infinite_support():
    rng = random.Random(6)
    assert all(random_inf_word(rng).is_inf for _ in range(200))


def test_flip_finitely_stays_in_the_tail_class():
    rng = random.Random(7)
    for _ in range(200):
        w = random_word(rng)
        v = flip_finitely(rng, w)
        assert E0.decide(w, v)
    # zero flips are possible, so equality must be allowed
    rng2 = random.Random(3)
    w = random_word(rng2)
    assert any(flip_finitely(rng2, w) == w for _ in range(50))


def test_osc_pairs_are_conclusive_for_the_display():
    rng = random.Random(8)
    osc = make_relation("oscillation")
    for _ in range(300):
        x, y = random_osc_pair(rng)
        for w in (x, y):
            assert len(w.pre) <= OSC_MAX_PRE and len(w.per) <= OSC_MAX_PER
        assert oscillation_display_holds(x, y) == osc.decide(x, y)


def test_related_case_contract():
    rng = random.Random(9)
    for _ in range(100):
        target, informant = related_case(rng, E0)
        assert 1 <= len(informant) <= 8
        assert any(E0.decide(target, w) for w in informant)
    target, informant = related_case(random.Random(1), ID)
    assert target in informant and len(informant) <= 8


def test_unrelated_case_contract():
    rng = random.Random(10)
    for _ in range(100):
        target, informant = unrelated_case(rng, E0)
        assert 1 <= len(informant) <= 8
        assert not any(E0.decide(target, w) for w in informant)


def test_unrelated_sampling_can_exhaust_retries():
    class Everything:
        name = "everything"

        @staticmethod
        def decide(x, y):
            return True

    with pytest.raises(ConfigError):
        unrelated_case(random.Random(0), Everything())


def test_crosscheck_pair_modes_and_determinism():
    rng = random.Random(11)
    pairs = [crosscheck_pair(rng, E0) for _ in range(50)]
    assert any(x == y for x, y in pairs)
    assert any(x != y for x, y in pairs)
    rng2 = random.Random(11)
    again = [crosscheck_pair(rng2, E0) for _ in range(50)]
    assert pairs == again
