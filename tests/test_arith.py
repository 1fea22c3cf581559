import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from dyerlashof.arith import (
    binom_mod_p,
    binom_walk_mod_p,
    check_odd_prime,
    half_factorial,
    twist_power,
    v_const,
)
from dyerlashof.errors import ContractError, ValidationError


def binom_oracle(m, n, p):
    """Independent route: factorials via math.comb, then reduce."""
    if n < 0 or n > m:
        return 0
    return math.comb(m, n) % p


def test_binom_convention():
    assert binom_mod_p(5, 2, 3) == 10 % 3
    assert binom_mod_p(0, 0, 5) == 1
    assert binom_mod_p(4, 0, 5) == 1
    # zero outside 0 <= n <= m, in particular no generalized binom(-1, 0) = 1
    assert binom_mod_p(-1, 0, 3) == 0
    assert binom_mod_p(-2, 1, 3) == 0
    assert binom_mod_p(2, 3, 3) == 0
    assert binom_mod_p(3, -1, 5) == 0


def test_binom_lucas_vs_factorial_sample():
    for p in (3, 5, 7):
        for m in range(0, 60):
            for n in range(0, m + 1):
                assert binom_mod_p(m, n, p) == binom_oracle(m, n, p), (m, n, p)


@settings(deadline=None)
@given(
    st.integers(min_value=-50, max_value=400),
    st.integers(min_value=-50, max_value=400),
    st.sampled_from([3, 5, 7, 11]),
)
def test_binom_matches_oracle(m, n, p):
    assert binom_mod_p(m, n, p) == binom_oracle(m, n, p)


def test_binom_m_longer_than_n():
    # m has more base-p digits than n: each digit of m past n's top one
    # contributes binom(m_i, 0) = 1
    rng = random.Random(6)
    for p in (3, 5, 7, 2147483629):
        for n in range(7):
            ms = [n, p - 1, p, p + n, p * p + n, 10**12 - n, 10**12]
            ms += [rng.randint(n, 10**12) for _ in range(40)]
            for m in ms:
                assert binom_mod_p(m, n, p) == math.comb(m, n) % p, (m, n, p)


def walk_oracle(m, n, p, count, binom=binom_oracle):
    """The walk's nonzero binomials, one binom call each."""
    out = []
    for k in range(count):
        c = binom(m + k * (p - 1), n - k, p)
        if c:
            out.append((k, c))
    return out


def test_binom_walk_matches_comb():
    # the walks through every binom(m, n) with m <= 200: a walk keeps
    # m + (p-1)n, so one start per value, with a top from -p to p - 2
    # (a negative top is zero until the walk reaches it) and a few steps
    # past 200
    for p in (3, 5, 7, 11, 13):
        for m in range(-p, p - 1):
            count = (200 - m) // (p - 1) + 3
            for n in range(-2, 200 * p // (p - 1) + 2):
                want = walk_oracle(m, n, p, count)
                assert list(binom_walk_mod_p(m, n, p, count)) == want, (m, n, p)
    assert list(binom_walk_mod_p(5, 2, 3, 0)) == []
    assert list(binom_walk_mod_p(5, 2, 3, -4)) == []


@pytest.mark.parametrize("big", [10**6 + 3, 2**70 + 5])
def test_binom_walk_on_huge_rows(big):
    # windows of the rows binom(j(p-1) + t, big - j) of an Adem family, at
    # the row's start, in its middle and at its end, against binom_mod_p
    for p in (3, 5, 7, 13):
        nonzero = 0
        for t in (-1, 0):
            lo = -(-(big - t) // p)
            for j in (lo - 3, (lo + big) // 2, big - 200):
                m, n = j * (p - 1) + t, big - j
                want = walk_oracle(m, n, p, 300, binom_mod_p)
                assert list(binom_walk_mod_p(m, n, p, 300)) == want, (big, p, t, j)
                nonzero += len(want)
        assert nonzero


def test_half_factorial():
    assert half_factorial(3) == 1
    assert half_factorial(5) == 2
    assert half_factorial(7) == 6
    # ((p-1)/2)!^2 = (-1)^((p-1)/2 + 1) mod p
    for p in (3, 5, 7, 11, 13):
        want = 1 if ((p - 1) // 2 + 1) % 2 == 0 else p - 1
        assert half_factorial(p) ** 2 % p == want


def test_v_const_values():
    assert v_const(0, 3) == 1
    assert v_const(1, 3) == 1
    assert v_const(2, 3) == 2
    assert v_const(1, 5) == 2
    assert v_const(0, 5) == 1
    # v(n+1) = (-1)^(n(p-1)/2) hf v(n)
    for p in (3, 5, 7):
        hf = half_factorial(p)
        for n in range(0, 12):
            sign = -1 if (n * (p - 1) // 2) % 2 else 1
            assert v_const(n + 1, p) == sign * hf * v_const(n, p) % p


def test_twist_power():
    assert twist_power(1, 3) == 1
    assert twist_power(-1, 3) == 2
    assert twist_power(-1, 5) == 1
    assert twist_power(-1, 7) == 6
    with pytest.raises(ContractError):
        twist_power(0, 3)


def test_check_odd_prime():
    for p in (3, 5, 7, 11, 97):
        check_odd_prime(p)
    for bad in (1, 2, 4, 9, 15):
        with pytest.raises(ValidationError):
            check_odd_prime(bad)
    # a float equal to a prime that passes is still refused
    for bad in (3.0, 5.0):
        with pytest.raises(ValidationError):
            check_odd_prime(bad)


def test_check_odd_prime_cap():
    check_odd_prime(2**31 - 1)  # a Mersenne prime, the largest p accepted
    # refused before any trial division, which would run for minutes
    start = time.perf_counter()
    with pytest.raises(ValidationError, match="2\\^31"):
        check_odd_prime(2**61 - 1)
    assert time.perf_counter() - start < 1.0
    for bad in ("3", 3.0):
        with pytest.raises(ValidationError):
            check_odd_prime(bad)
