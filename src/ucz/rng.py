"""Deterministic random streams for reproducible verification sweeps.

SplitMix64 (Steele, Lea, Vigna) is implemented directly so that a seed
produces the identical sample stream on every platform and Python version;
the stdlib `random` module makes no such cross-version promise.  Helpers
sample small rationals, which keeps Fraction arithmetic fast in long sweeps.
"""

from __future__ import annotations

from fractions import Fraction

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# one shared Fraction per drawn (numerator, denominator): 57 at the default bound
_FRACTIONS: dict[tuple[int, int], Fraction] = {}


class SplitMix64:
    """64-bit SplitMix64 generator; next_u64 is the published update."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi]; modulo bias is irrelevant here."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_u64() % (hi - lo + 1)

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]

    def fraction(self, num_bound: int = 9, dens=(1, 1, 2, 3)) -> Fraction:
        """Small rational with numerator in [-num_bound, num_bound].

        The draw is Fraction(randint(-num_bound, num_bound), choice(dens)),
        with both SplitMix64 steps written out, and the value is shared
        from one table per (numerator, denominator).
        """
        if num_bound < 0 or not dens:
            raise ValueError("empty range")
        s = (self.state + _GAMMA) & _MASK
        z = ((s ^ (s >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        num = (z ^ (z >> 31)) % (2 * num_bound + 1) - num_bound
        s = (s + _GAMMA) & _MASK
        z = ((s ^ (s >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        den = dens[(z ^ (z >> 31)) % len(dens)]
        self.state = s
        x = _FRACTIONS.get((num, den))
        if x is None:
            x = _FRACTIONS[num, den] = Fraction(num, den)
        return x

    def nonzero_fraction(self, num_bound: int = 9, dens=(1, 1, 2, 3)) -> Fraction:
        """A `fraction` draw, redrawn until nonzero; `num_bound` must be positive."""
        if num_bound < 1:
            raise ValueError("empty range")
        while True:
            x = self.fraction(num_bound, dens)
            if x != 0:
                return x


def stream(seed: int, label: str) -> SplitMix64:
    """Derive an independent generator for `label` from a master seed.

    The label is folded in FNV-1a style so distinct suite names get distinct,
    reproducible streams.
    """
    h = 0xCBF29CE484222325
    for b in label.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK
    g = SplitMix64((seed ^ h) & _MASK)
    g.next_u64()
    return g
