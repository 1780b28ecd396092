"""The seeded streams: `fraction` repeats its two-draw formula exactly.

`SplitMix64.fraction` writes its two generator steps out and shares one
`Fraction` per value; a twin generator drawing Fraction(randint, choice)
through the published `next_u64` update must give the same values and
end in the same state.
"""

from fractions import Fraction

import pytest

from ucz.rng import SplitMix64, stream

CASES = [
    (9, (1, 1, 2, 3)),
    (3, (1, 1, 2, 3)),
    (5, (1, 1, 2, 3)),
    (0, (1, 2)),
    (1, (7,)),
    (100, (1, 2, 3, 4, 5, 6)),
]


def _old_fraction(gen: SplitMix64, num_bound: int, dens) -> Fraction:
    return Fraction(gen.randint(-num_bound, num_bound), gen.choice(dens))


@pytest.mark.parametrize("seed", [1, 11, 2**64 - 3])
def test_fraction_repeats_the_randint_choice_formula(seed):
    for num_bound, dens in CASES:
        fast, twin = SplitMix64(seed), SplitMix64(seed)
        for _ in range(3000):
            x = fast.fraction(num_bound, dens)
            assert type(x) is Fraction
            assert x == _old_fraction(twin, num_bound, dens)
        assert fast.state == twin.state
        fast, twin = stream(seed, "rng:nonzero"), stream(seed, "rng:nonzero")
        if num_bound:
            for _ in range(3000):
                y = _old_fraction(twin, num_bound, dens)
                while y == 0:
                    y = _old_fraction(twin, num_bound, dens)
                assert fast.nonzero_fraction(num_bound, dens) == y
            assert fast.state == twin.state


def test_default_draws_share_one_fraction_per_value():
    first, second = SplitMix64(5), SplitMix64(5)
    draws = [first.fraction() for _ in range(3000)]
    assert all(second.fraction() is x for x in draws)
    # 19 numerators over the denominators 1, 2, 3
    assert len({id(x) for x in draws}) <= 57


def test_fraction_rejects_an_empty_range():
    gen = SplitMix64(3)
    with pytest.raises(ValueError):
        gen.fraction(-1)
    with pytest.raises(ValueError):
        gen.fraction(dens=())
    # every draw of a zero bound is 0, so a nonzero draw must be refused up front
    for bound in (0, -1):
        with pytest.raises(ValueError):
            gen.nonzero_fraction(bound)
    assert gen.state == SplitMix64(3).state
