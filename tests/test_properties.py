"""Property tests of the invariant-factor fold against independent oracles.

Examples are derandomized and bounded, so every run checks the same
inputs and the suite stays fast.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from gaugedecomp import AbelianGroup, IntMatrix, smith_invariants
from oracles import random_unimodular, smith_by_factorization

PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=60)

# Nonzero orders whose primes are at most 13, either sign.
prime_products = st.builds(
    lambda ps, sign: sign * math.prod(ps),
    st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), min_size=1, max_size=4),
    st.sampled_from([1, -1]),
)


@st.composite
def orders_with_repeats(draw, values, min_size, max_size):
    pool = draw(st.lists(values, min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=min_size, max_size=max_size))
    return [pool[i] for i in picks]


@PROFILE
@given(orders_with_repeats(st.one_of(st.sampled_from([0, 1, -1]), prime_products), 0, 40))
def test_from_orders_matches_factorization(orders):
    expected = AbelianGroup(
        orders.count(0), smith_by_factorization([abs(s) for s in orders if s])
    )
    assert AbelianGroup.from_orders(0, orders) == expected


@PROFILE
@given(
    orders_with_repeats(st.one_of(st.sampled_from([1, -1]), prime_products), 2, 6),
    st.integers(0, 2**32),
)
def test_smith_of_scrambled_diagonal(d, seed):
    rng = random.Random(seed)
    n = len(d)
    a = random_unimodular(rng, n) @ IntMatrix.diagonal(d) @ random_unimodular(rng, n)
    got = smith_invariants(a)
    assert len(got) == n
    assert all(b % c == 0 for c, b in zip(got, got[1:]))
    assert tuple(s for s in got if s > 1) == smith_by_factorization([abs(s) for s in d])
