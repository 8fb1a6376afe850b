"""Seeded samplers for words, pairs, and learning cases.

Everything here draws from a caller-supplied random.Random, so a single seed
pins every sampled byte.  Oscillation pairs are kept small enough that the
bounded display check is conclusive on them.
"""

from __future__ import annotations

from . import words
from .errors import ConfigError
from .words import Word

__all__ = [
    "random_word",
    "random_inf_word",
    "flip_finitely",
    "random_osc_pair",
    "related_case",
    "unrelated_case",
    "crosscheck_pair",
]

# display-check caps: periods this short keep every zero block within the window
OSC_MAX_PRE = 4
OSC_MAX_PER = 3

_RETRY_CAP = 1000
_MAX_FLIPS = 3
_MAX_INFORMANT = 8


def _random_bits(rng, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


def random_word(rng, max_pre: int = 6, max_per: int = 4) -> Word:
    pre = _random_bits(rng, rng.randrange(max_pre + 1))
    per = _random_bits(rng, rng.randrange(1, max_per + 1))
    return Word(pre, per)


def random_inf_word(rng, max_pre: int = 6, max_per: int = 4) -> Word:
    per = _random_bits(rng, rng.randrange(1, max_per + 1))
    if "1" not in per:
        cut = rng.randrange(len(per))
        per = per[:cut] + "1" + per[cut + 1:]
    return Word(_random_bits(rng, rng.randrange(max_pre + 1)), per)


def flip_finitely(rng, w: Word) -> Word:
    """A word differing from w in finitely many (possibly zero) positions."""
    span = w.size + 4
    flips = {rng.randrange(span) for _ in range(rng.randrange(_MAX_FLIPS + 1))}
    return words.with_bits(w, {p: 1 - w.bit(p) for p in flips})


def random_osc_pair(rng) -> tuple[Word, Word]:
    def one():
        return random_word(rng, OSC_MAX_PRE, OSC_MAX_PER)

    mode = rng.randrange(3)
    if mode == 0:
        return one(), one()
    if mode == 1:
        return (random_inf_word(rng, OSC_MAX_PRE, OSC_MAX_PER),
                random_inf_word(rng, OSC_MAX_PRE, OSC_MAX_PER))
    return Word(_random_bits(rng, rng.randrange(OSC_MAX_PRE + 1)), "0"), one()


def _fill(rng, relation, target: Word, count: int, want_related: bool) -> list[Word]:
    out = []
    while len(out) < count:
        for _ in range(_RETRY_CAP):
            w = random_word(rng)
            if relation.decide(target, w) == want_related:
                out.append(w)
                break
        else:
            raise ConfigError("sampler failed to hit the requested relatedness")
    return out


def related_case(rng, relation) -> tuple[Word, tuple[Word, ...]]:
    """Target plus an informant of at most _MAX_INFORMANT words, at least one
    of which the relation's oracle confirms as related to the target."""
    target = random_word(rng)
    if relation.name == "e0":
        related = flip_finitely(rng, target)
    else:
        related = target
    size = rng.randrange(1, _MAX_INFORMANT + 1)
    informant = _fill(rng, relation, target, size - 1, want_related=False)
    informant.insert(rng.randrange(size), related)
    return target, tuple(informant)


def unrelated_case(rng, relation) -> tuple[Word, tuple[Word, ...]]:
    """Target plus an informant none of whose members relate to the target."""
    target = random_word(rng)
    size = rng.randrange(1, _MAX_INFORMANT + 1)
    return target, tuple(_fill(rng, relation, target, size, want_related=False))


def crosscheck_pair(rng, relation) -> tuple[Word, Word]:
    """A pair biased to exercise both sides of the relation."""
    if relation.name == "oscillation":
        return random_osc_pair(rng)
    mode = rng.randrange(3)
    if mode == 0:
        return random_word(rng), random_word(rng)
    x = random_word(rng)
    if mode == 1:
        return x, x
    return x, flip_finitely(rng, x)
