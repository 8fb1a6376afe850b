"""Exact algebra of eventually periodic binary words.

A word is a canonical description pre|per denoting the infinite sequence
pre concatenated with per repeated forever.  Canonical means the period is
primitive and the preperiod cannot be shortened, which makes description
equality coincide with sequence equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError

__all__ = [
    "Word",
    "parse_word",
    "with_bits",
    "split_even_odd",
    "finite_support_word",
]


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _primitive_root(s: str) -> str:
    """Shortest u with s a power of u: where s first recurs in s + s (Lyndon-Schützenberger 1962)."""
    return s[:(s + s).find(s, 1)]


@dataclass(frozen=True)
class Word:
    pre: str
    per: str
    # _bitint is not a field: bit_int keeps the word's bits there
    __slots__ = ("pre", "per", "_bitint")

    def __post_init__(self):
        if not self.per:
            raise ConfigError("word period must be nonempty")
        if set(self.pre) - {"0", "1"} or set(self.per) - {"0", "1"}:
            raise ConfigError(f"word bits must be over 0/1: {self.pre!r}|{self.per!r}")
        pre, per = self.pre, _primitive_root(self.per)
        # absorb the k-bit tail of pre that repeats per backwards: cut it off
        # and rotate per right by k, in one step each
        p, k = len(per), 0
        while k < len(pre) and pre[-1 - k] == per[-1 - k % p]:
            k += 1
        object.__setattr__(self, "pre", pre[:len(pre) - k])
        object.__setattr__(self, "per", per[p - k % p:] + per[:p - k % p])

    def bit(self, i: int) -> int:
        pre = self.pre
        if i < len(pre):
            if i < 0:
                raise ConfigError(f"negative bit position {i}")
            return 1 if pre[i] == "1" else 0
        per = self.per
        return 1 if per[(i - len(pre)) % len(per)] == "1" else 0

    def prefix(self, n: int) -> str:
        """Bits 0..n-1 as a string of 0s and 1s; "" for n <= 0."""
        if n <= 0:
            return ""
        pre, per = self.pre, self.per
        return (pre + per * (max(n - len(pre), 0) // len(per) + 1))[:n]

    def bit_table(self, n: int) -> bytes:
        """Bits 0..n-1 as bytes, so that bit_table(n)[i] == bit(i)."""
        return self.prefix(n).encode().translate(_BIT_BYTES)

    def bit_int(self, n: int) -> int:
        """An int whose bit i is bit(i), for every i < n (n > 0).

        The word keeps it, rebuilt for at least twice the bits it held
        whenever a longer n is asked; its top bit marks that count.
        """
        value = getattr(self, "_bitint", 1)  # 1: no bits yet, only the marker
        if value.bit_length() <= n:
            value = int("1" + self.prefix(max(n, 2 * value.bit_length() - 2))[::-1], 2)
            object.__setattr__(self, "_bitint", value)
        return value

    @property
    def size(self) -> int:
        return len(self.pre) + len(self.per)

    @property
    def is_inf(self) -> bool:
        return "1" in self.per

    @property
    def literal(self) -> str:
        return f"{self.pre}|{self.per}"

    def __repr__(self):
        return f"Word({self.literal!r})"

    def __reduce__(self):  # copy and pickle call Word(pre, per): frozen slots refuse setattr
        return Word, (self.pre, self.per)


def parse_word(text: str) -> Word:
    """Parse a PRE|PER literal, e.g. 01|10 for 01(10)^inf, |0 for the zero word."""
    if text.count("|") != 1:
        raise ConfigError(f"word literal needs exactly one '|': {text!r}")
    pre, per = text.split("|")
    try:
        return Word(pre, per)
    except ConfigError as exc:
        raise ConfigError(f"bad word literal {text!r}: {exc}") from exc


def with_bits(w: Word, bits) -> Word:
    """w with bit pos set to bits[pos] for each position in the map `bits`."""
    if any(pos < 0 for pos in bits) or not set(bits.values()) <= {0, 1}:
        raise ConfigError(f"bit positions must be naturals and bits 0 or 1: {bits}")
    cut = max([len(w.pre)] + [pos + 1 for pos in bits])
    text = bytearray(w.prefix(cut + len(w.per)), "ascii")
    for pos, b in bits.items():
        text[pos] = 49 if b else 48  # "1" or "0"
    return Word(text[:cut].decode(), text[cut:].decode())


def split_even_odd(w: Word) -> tuple[Word, Word]:
    h, p = (len(w.pre) + 1) // 2, len(w.per)
    q = p // math.gcd(2, p)  # both parts repeat with this period from position h on
    text = w.prefix(2 * (h + q))
    return Word(text[0:2 * h:2], text[2 * h::2]), Word(text[1:2 * h:2], text[2 * h + 1::2])


def finite_support_word(i: int) -> Word:
    """The i-th finite-support word: bit j is bit j of i in LSB-first binary."""
    if i < 0:
        raise ConfigError("finite_support_word index must be a natural")
    return Word(f"{i:b}"[::-1], "0")
