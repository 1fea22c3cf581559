"""Mod p arithmetic helpers: Lucas binomials, half-integer indices, unit constants.

Everything here is elementary number theory for an odd prime p.  Operation
indices live in (1/2)Z; to keep all arithmetic exact they are stored as
*doubled* integers (HalfInt wraps one).  Binomial coefficients follow the
combinatorial convention: binom(m, n) = 0 unless 0 <= n <= m.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .errors import ContractError, ValidationError, charge, is_int


P_MAX = 2**31 - 1


def _check_int(name: str, value) -> None:
    """Raise ValidationError unless value is an int (a bool is not)."""
    if not is_int(value):
        raise ValidationError(f"{name} must be an integer, got {value!r}")


def check_odd_prime(p: int) -> None:
    """Raise ValidationError unless p is an odd prime <= P_MAX; the cap keeps
    the trial division under 25,000 steps."""
    if not is_int(p):
        raise ValidationError(f"p must be an integer, got {p!r}")
    if p > P_MAX:
        raise ValidationError(f"p must be at most 2^31 - 1 = {P_MAX}, got {p}")
    # 9 is the least odd composite, so 3, 5 and 7 skip the trial division.
    # Its range is empty for them, but setting it up would add about 0.5 us
    # to every DLElement, a measurable share of rewriting a short word
    if p < 3 or p % 2 == 0 or p > 8 and any(
            p % q == 0 for q in range(3, math.isqrt(p) + 1, 2)):
        raise ValidationError(f"p must be an odd prime, got {p}")


def binom_mod_p(m: int, n: int, p: int) -> int:
    """binom(m, n) mod p by Lucas' theorem; 0 unless 0 <= n <= m."""
    if n < 0 or n > m:
        return 0
    # once n's base-p digits run out, each digit of m left gives binom(m_i, 0) = 1
    r = 1
    while n:
        mi, ni = m % p, n % p
        if ni > mi:
            return 0
        r = r * math.comb(mi, ni) % p
        m //= p
        n //= p
    return r


def binom_walk_mod_p(m: int, n: int, p: int, count: int):
    """Yield (k, binom(m + k(p-1), n - k) mod p) for each k in range(count)
    where it is nonzero, k rising: binom_mod_p along a row, in one loop.

    By Lucas' theorem binom(m, n) = binom(m0, n0) binom(m // p, n // p) mod
    p, with m0 and n0 the lowest base-p digits.  A step adds p - 1 to the
    top and takes 1 from the bottom: m0 and n0 fall by 1 mod p, m // p rises
    by 1 unless m0 wraps from 0, and n // p falls by 1 when n0 does.  So the
    four are carried from step to step, and binom_mod_p is called on the
    rests only where binom(m0, n0) is not zero.
    """
    q = p - 1
    # the k with 0 <= n - k <= m + kq
    lo = max(0, -(-(n - m) // p))
    hi = min(count, n + 1)
    top, m0 = divmod(m + lo * q, p)
    bottom, n0 = divmod(n - lo, p)
    for k in range(lo, hi):
        if n0 <= m0:
            c = binom_mod_p(top, bottom, p)
            if c:
                yield k, math.comb(m0, n0) * c % p
        if m0:
            m0 -= 1
            top += 1
        else:
            m0 = q
        if n0:
            n0 -= 1
        else:
            n0 = q
            bottom -= 1


@lru_cache(maxsize=None)
def half_factorial(p: int) -> int:
    """((p-1)/2)! mod p, cached per p.  A miss charges its (p-1)/2 steps
    before it takes one, so a huge p runs out of budget at once."""
    charge("half factorial", (p - 1) // 2)
    r = 1
    for k in range(2, (p - 1) // 2 + 1):
        r = (r * k) % p
    return r


def v_const(n: int, p: int) -> int:
    """(-1)^(n(n-1)(p-1)/4) * (((p-1)/2)!)^n mod p.

    The exponent of -1 is an integer since n(n-1)/2 and (p-1)/2 are.
    """
    e = (n * (n - 1) // 2) * ((p - 1) // 2)
    sign = -1 if e % 2 else 1
    return (sign * pow(half_factorial(p), n, p)) % p


def twist_power(chi: int, p: int) -> int:
    """chi^((p-1)/2) mod p for chi in {+1, -1}."""
    if chi == 1:
        return 1
    if chi == -1:
        return 1 if ((p - 1) // 2) % 2 == 0 else p - 1
    raise ContractError(f"chi must be +1 or -1, got {chi}")


class HalfInt(NamedTuple):
    """An element of (1/2)Z, stored as its double so all arithmetic is integer."""

    twice: int
