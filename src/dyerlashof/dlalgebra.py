"""The mod p Dyer-Lashof algebra with half-integer (twisted) indices.

Operations are written in upper indexing: beta^eps Q^s with s in (1/2)Z.
Integer s acts on classes whose twist character value is +1, half-integer s
on classes with value -1.  A word is a finite composition, outermost letter
first; each letter is stored as (eps, s2) with s2 = 2s so that all index
arithmetic stays in Z.

A word is admissible when every adjacent pair satisfies
p*s_{i+1} - eps_{i+1} >= s_i (doubled: p*s2_{i+1} - 2*eps_{i+1} >= s2_i) and
all indices lie in the twist parity class.  Inadmissible adjacent pairs are
rewritten by the Adem relations (adem_expand), whose output pairs are always
admissible; normalize() iterates this to reach the admissible normal form.

The same operations can be written in lower indexing Q_{m(p-1)},
beta Q_{m(p-1)} with m an integer multiplier; on a class of internal degree n
the two indexings are related by a unit constant (lower_from_upper).  The
lower-indexed Adem relations are implemented independently
(adem_expand_lower), and cross_check_composite compares the two expansion
routes for a composite of two operations.
"""

from __future__ import annotations

import heapq
import math
from functools import lru_cache

from .arith import (
    DEFAULT_BUDGET,
    binom_mod_p,
    check_odd_prime,
    half_factorial,
    is_int,
    twist_power,
    v_const,
)
from .errors import ContractError, Meter, ValidationError, charge

Entry = tuple[int, int]  # (eps, s2) with s2 = 2s

# ---------------------------------------------------------------------------
# words


def _check_entry(entry) -> None:
    if (
        not isinstance(entry, tuple)
        or len(entry) != 2
        or not is_int(entry[0])
        or entry[0] not in (0, 1)
        or not is_int(entry[1])
    ):
        raise ValidationError(f"bad operation letter {entry!r}; want (eps, 2s)")


def word_degree(entries, p: int) -> int:
    """Internal degree raised by the word: sum of 2 s_i (p-1) - eps_i."""
    return sum(s2 * (p - 1) - e for e, s2 in entries)


def excess(entries, p: int):
    """2 s_1 - eps_1 - sum_{i>=2}(2 s_i (p-1) - eps_i); +inf for the empty word."""
    if not entries:
        return math.inf
    e1, s21 = entries[0]
    return s21 - e1 - word_degree(entries[1:], p)


def word_charge(entries, p: int) -> int:
    return p ** len(entries)


# ---------------------------------------------------------------------------
# elements of the Dyer-Lashof algebra at a fixed twist class


class DLElement:
    """A linear combination of operation words at a common twist class."""

    __slots__ = ("p", "twist", "terms")

    def __init__(self, p: int, twist: int, terms=None):
        check_odd_prime(p)
        if twist not in (1, -1):
            raise ValidationError(f"twist must be +1 or -1, got {twist}")
        self.p = p
        self.twist = twist
        self.terms: dict[tuple[Entry, ...], int] = {}
        if terms:
            for entries, c in dict(terms).items():
                entries = tuple(tuple(e) for e in entries)
                for e in entries:
                    _check_entry(e)
                c %= p
                if c:
                    self.terms[entries] = c

    @classmethod
    def _trusted(cls, p: int, twist: int, terms: dict) -> "DLElement":
        """Wrap terms the engine built itself: canonical words, coefficients
        already reduced and nonzero.  Nothing is checked or copied."""
        elt = cls.__new__(cls)
        elt.p, elt.twist, elt.terms = p, twist, terms
        return elt

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DLElement)
            and self.p == other.p
            and self.twist == other.twist
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        return f"DLElement(p={self.p}, twist={self.twist}, terms={self.terms!r})"


# ---------------------------------------------------------------------------
# Adem relations, upper indexing

# Each inadmissible pair beta^e1 Q^r beta^e2 Q^s rewrites to a combination of
# admissible pairs.  In doubled coordinates the four cases share one shape:
# output words ((e_out, r2+s2-i2), (e_in, i2)) with coefficient
#   pref * (-1)^((r2-i2)/2) * binom((i2-s2)(p-1)/2 + t_off, (r2-(p-1)s2-i2)/2 + b_off)
# where i2 runs over the index class of r2.  Written with the offset
# j2 = i2 - s2 and d = r2 - p*s2 (both even), the binomial is
# binom(j2(p-1)/2 + t_off, (d-j2)/2 + b_off), the support is
# ceil((d + 2(b_off-t_off))/p) <= j2 <= d + 2b_off, and the sign is
# (-1)^((d-j2)/2) * (-1)^(s2(p-1)/2).  So a family's nonzero binomials
# depend on (d, p, t_off, b_off) alone, and many pairs share them.


@lru_cache(maxsize=None)
def _family_row(d, p, t_off, b_off):
    """((j2, (-1)^((d-j2)/2) * binom mod p), ...) over the nonzero binomials."""
    lo = -(-(d + 2 * (b_off - t_off)) // p)  # ceil division
    lo += lo % 2
    top = d + 2 * b_off
    # counted without len(range), which overflows on a huge index
    charge("Adem family rows", max(0, (top - lo) // 2 + 1))
    row = []
    for j2 in range(lo, top + 1, 2):
        c = binom_mod_p(j2 // 2 * (p - 1) + t_off, (d - j2) // 2 + b_off, p)
        if c:
            row.append((j2, -c if (d - j2) // 2 % 2 else c))
    return tuple(row)


def _family_terms(r2, s2, p, pref, t_off, b_off, e_out, e_in):
    """One family's output terms, sorted by word (the outer index rises as
    j2 falls).  pref is a unit mod p, so every coefficient is nonzero."""
    if s2 * (p - 1) // 2 % 2:
        pref = -pref
    return tuple([
        (((e_out, r2 - j2), (e_in, s2 + j2)), c * pref % p)
        for j2, c in reversed(_family_row(r2 - p * s2, p, t_off, b_off))
    ])


# The four families and their constants in both indexings.  chi_half is
# chi^((p-1)/2) at the twist chi of the words; in adem_expand_lower,
# q_gns = (chi_g (-1)^n)^((p-1)/2) (-1)^(s(p-1)/2) on degree-n classes and
# q_r = hf (-1)^(r(p-1)/2) with hf = ((p-1)/2)!.
#
#   family          case     upper        lower
#   Q . Q           (b)QQ    chi_half     -q_gns
#   Q . beta Q      QbQ      -chi_half    -q_gns
#   beta Q . Q      QbQ      1            q_r
#   beta Q . beta Q bQbQ     -chi_half    -q_gns
#
# beta Q . Q is the only family without the twist power on either side.


def adem_expand(outer: Entry, inner: Entry, twist: int, p: int):
    """Rewrite one inadmissible pair; returns ((word, coeff), ...) sorted by word.

    The pair must be inadmissible (r2 > p*s2 - 2*eps_inner), otherwise
    ContractError.  If the index parities are mixed or do not match the twist
    class the word is zero and an empty tuple is returned.
    """
    # checked before the cache, which would find a bool letter's equal int key
    _check_entry(outer)
    _check_entry(inner)
    return _adem_expand(outer, inner, twist, p)


@lru_cache(maxsize=None)
def _adem_expand(outer: Entry, inner: Entry, twist: int, p: int):
    (e1, r2), (e2, s2) = outer, inner
    if r2 <= p * s2 - 2 * e2:
        raise ContractError(f"pair {(outer, inner)} is admissible; nothing to expand")
    want = 0 if twist == 1 else 1
    if r2 % 2 != want or s2 % 2 != want:
        return ()
    chi_half = twist_power(twist, p)
    if e2 == 0:
        # beta^e1 Q^r Q^s
        return _family_terms(r2, s2, p, chi_half, -1, -1, e1, 0)
    if e1 == 0:
        # Q^r beta Q^s: a Q . beta Q family and a beta Q . Q family, which
        # share no word; the outer beta sorts last
        return (
            _family_terms(r2, s2, p, -chi_half, -1, 0, 0, 1)
            + _family_terms(r2, s2, p, 1, 0, 0, 1, 0)
        )
    # beta Q^r beta Q^s
    return _family_terms(r2, s2, p, -chi_half, -1, 0, 1, 1)


adem_expand.cache_info = _adem_expand.cache_info
adem_expand.cache_clear = _adem_expand.cache_clear


def _find_inadmissible(entries, p: int, strategy: str):
    n = len(entries) - 1
    rng = range(n - 1, -1, -1) if strategy == "rightmost" else range(n)
    for i in rng:
        e2, s2 = entries[i + 1]
        if entries[i][1] > p * s2 - 2 * e2:
            return i
    return None


# Rewriting order.  normalize expands words in increasing rank
#   rank(w) = sum_j (L - j) * (eps_j - s2_j),  L = len(w).
# Expanding the pair at junction j lowers s2_j by an even j2 >= 0 (see
# _family_row), raises s2_{j+1} by j2 and keeps the pair's beta count, so the
# rank rises by exactly j2 + (e_out - eps_j) >= 1: when j2 = 0 the beta moves
# outward.  Every contribution to a word thus comes from a word of lower rank,
# and a word is expanded once, with its whole coefficient.  Words are keyed by
# themselves; the rank only orders the work, so a wrong rank could at worst
# expand a word twice, which is still correct by linearity.


def _rank(w) -> int:
    # the sum of the prefix sums of eps_j - s2_j: each term counts L - j times
    rank = prefix = 0
    for e, s2 in w:
        prefix += e - s2
        rank += prefix
    return rank


def normalize(elt: DLElement, strategy: str = "leftmost",
              budget: int = DEFAULT_BUDGET) -> DLElement:
    """Rewrite to admissible normal form.

    strategy picks which inadmissible adjacent pair of a word is expanded
    first ("leftmost" or "rightmost"); the result is independent of the
    choice.  Each word expanded and each binomial of an uncached Adem family
    row costs a unit of the meter (errors.Meter; budget sizes a new one).
    Words whose indices are not all in the twist parity class are zero and
    dropped.  If every word left is admissible it is returned as it is, free.
    """
    if strategy not in ("leftmost", "rightmost"):
        raise ContractError(f"unknown strategy {strategy!r}")
    p, twist = elt.p, elt.twist
    want = 0 if twist == 1 else 1
    # terms: word -> coefficient, reduced mod p when used.  buckets: rank ->
    # the words first met at that rank.  Only inadmissible words are queued:
    # an admissible word is never expanded, so it stays in terms and collects
    # its contributions to the end.
    terms = {}
    buckets: dict = {}
    for w, c in elt.terms.items():
        c %= p
        if not c:
            continue
        for _, s2 in w:
            if s2 % 2 != want:
                break  # zero at this twist class
        else:
            terms[w] = c
            if _find_inadmissible(w, p, "leftmost") is not None:
                buckets.setdefault(_rank(w), []).append(w)
    if not buckets:
        return DLElement._trusted(p, twist, terms)

    heap = list(buckets)
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    with Meter(budget) as meter:
        while heap:
            for w in buckets.pop(heappop(heap)):
                c = terms.pop(w) % p
                if not c:
                    continue
                meter.charge("rewriting")
                pos = _find_inadmissible(w, p, strategy)
                head, tail = w[:pos], w[pos + 2:]
                # An output word differs from w only in its pair, which is
                # admissible: the word is admissible when head and tail are
                # and the two new junctions next to the pair are.
                rest_ok = (
                    _find_inadmissible(head, p, strategy) is None
                    and _find_inadmissible(tail, p, strategy) is None
                )
                left = head[-1][1] if head else -math.inf
                cap = p * tail[0][1] - 2 * tail[0][0] if tail else math.inf
                for pair, k in adem_expand(w[pos], w[pos + 1], twist, p):
                    v = head + pair + tail
                    old = terms.get(v)
                    if old is not None:
                        terms[v] = old + c * k
                        continue
                    terms[v] = c * k
                    (e_out, a2), (_, b2) = pair
                    if not rest_ok or left > p * a2 - 2 * e_out or b2 > cap:
                        r = _rank(v)
                        bucket = buckets.get(r)
                        if bucket is None:
                            buckets[r] = [v]
                            heappush(heap, r)
                        else:
                            bucket.append(v)
    result = {}
    for w, c in terms.items():
        c %= p
        if c:
            result[w] = c
    return DLElement._trusted(p, twist, result)


# ---------------------------------------------------------------------------
# lower indexing

# On a class of internal degree n, the upper-indexed operation beta^eps Q^s
# is a unit multiple of the lower-indexed Q_{m(p-1)} (resp. beta Q_{m(p-1)})
# with multiplier m = 2s - n.  Writing hf = ((p-1)/2)! and
# v(n) = (-1)^(n(n-1)(p-1)/4) hf^n:
#   Q^s       = (-1)^s       v(n) Q_{m(p-1)}        (s integer)
#   Q^(t+1/2) = (-1)^t hf^3  v(n) Q_{m(p-1)}
# that is (-1)^(s2//2) hf^(3(s2%2)) v(n) for s2 = 2s, and the same constants
# with beta on both sides.  beta^eps Q_{m(p-1)} is zero when m < eps.


def lower_from_upper(eps: int, s2: int, n: int, p: int):
    """Return (index, coeff, is_zero) with beta^eps Q^{s2/2} = coeff * (beta^eps) Q_index.

    index = m*(p-1) for multiplier m = 2s - n = s2 - n.  is_zero reports
    whether the lower operation is the zero operation on degree-n classes.
    """
    if eps not in (0, 1):
        raise ContractError(f"eps must be 0 or 1, got {eps}")
    m = s2 - n
    sign = -1 if s2 // 2 % 2 else 1
    c = sign * pow(half_factorial(p), 3 * (s2 % 2), p) * v_const(n, p)
    return m * (p - 1), c % p, m < eps


# case -> (outer_beta, inner_beta)
_LOWER_CASES = {"QQ": (0, 0), "bQQ": (1, 0), "QbQ": (0, 1), "bQbQ": (1, 1)}


def adem_expand_lower(r: int, s: int, n: int, chi_g: int, p: int, case: str):
    """Lower-indexed Adem relation for a composite on degree-n classes.

    case names the composite: "QQ" is Q_{r(p-1)} Q_{s(p-1)}, "bQQ" puts beta
    on the outer operation, "QbQ" on the inner, "bQbQ" on both.  Requires
    r > s for (b)QQ and r >= s for (b)QbQ (otherwise the composite is already
    admissible and ContractError is raised); the inner beta Q needs s >= 1.
    Returns {((eps_out, m_out), (eps_in, m_in)): coeff} over nonzero lower
    operations; chi_g is the twist character value of the acted-on classes.
    """
    if case not in _LOWER_CASES:
        raise ContractError(f"case must be one of {tuple(_LOWER_CASES)}, got {case!r}")
    outer_beta, inner_beta = _LOWER_CASES[case]
    if chi_g not in (1, -1):
        raise ContractError(f"chi_g must be +1 or -1, got {chi_g}")
    if inner_beta:
        if r < s:
            raise ContractError(f"need r >= s for {case}, got r={r}, s={s}")
        if s < 1:
            raise ContractError(f"inner beta Q needs s >= 1, got s={s}")
    else:
        if r <= s:
            raise ContractError(f"need r > s for {case}, got r={r}, s={s}")
        if s < 0:
            raise ContractError(f"inner Q needs s >= 0, got s={s}")
    q_base = chi_g if n % 2 == 0 else -chi_g
    q_gns = twist_power(q_base, p) * (-1 if (s * (p - 1) // 2) % 2 else 1)
    out: dict = {}

    def family(eps_out, eps_in, top, m_top, t_off, const):
        # const * sum_j (-1)^((top-j)/2) binom((j-s)(p-1)/2 + t_off, (top-j)/2)
        #   applied to beta^eps_out Q_{(m_top-pj)(p-1)} beta^eps_in Q_{j(p-1)}
        # over j in the parity class of top; below s the binomial's top is
        # negative.  j fixes the key and const is a unit mod p, so each
        # nonzero binomial writes one new nonzero term.
        for j in range(s - (s - top) % 2, top + 1, 2):
            b = (top - j) // 2
            c = binom_mod_p((j - s) * (p - 1) // 2 + t_off, b, p)
            m_out = m_top - p * j
            if c and m_out >= eps_out and j >= eps_in:
                out[((eps_out, m_out), (eps_in, j))] = (-c if b % 2 else c) * const % p

    if not inner_beta:
        # Q_r Q_s and its beta-on-the-left twin; the bottom (r-j)/2 - 1 and
        # the sign (-1)^((r-j)/2) make top = r - 2 and the constant -q_gns
        family(outer_beta, 0, r - 2, r + p * s, -1, -q_gns)
    elif not outer_beta:
        # Q_r beta Q_s: a beta Q . Q family with its own constant, then a
        # Q . beta Q family.  The first family's displayed coefficient is the
        # rational (j-s)(p-1)/(pj - s(p-1) - r + 1) times
        # (-1)^B binom(A-1, B) for A = (j-s)(p-1)/2, B = (r-1-j)/2, which
        # collapses to (-1)^B binom(A, B) (the value at the removable
        # singularity A = B included).
        q_r = half_factorial(p) * (-1 if (r * (p - 1) // 2) % 2 else 1)
        family(1, 0, r - 1, r - 1 + p * s, 0, q_r)
        family(0, 1, r - 1, r + p * s, -1, -q_gns)
    else:
        family(1, 1, r - 1, r + p * s, -1, -q_gns)
    return out


# ---------------------------------------------------------------------------
# cross-check between the two indexings


def _upper_pair_from_lower(eps_out, m_out, eps_in, m_in, n, p):
    """Convert a lower-indexed composite of two nonzero operations on
    degree-n classes to an upper word.

    Returns (word_entries, unit) with
    (beta^eo) Q_{m_out(p-1)} (beta^ei) Q_{m_in(p-1)} = unit * upper word.
    """
    s2_in = m_in + n
    n_mid = p * n + m_in * (p - 1) - eps_in
    s2_out = m_out + n_mid
    c_in = lower_from_upper(eps_in, s2_in, n, p)[1]
    c_out = lower_from_upper(eps_out, s2_out, n_mid, p)[1]
    unit = pow(c_out * c_in % p, p - 2, p)
    return ((eps_out, s2_out), (eps_in, s2_in)), unit


def cross_check_composite(r: int, s: int, case: str, n: int, p: int, chi_g: int):
    """Expand a lower-indexed composite two ways; both results are expressed
    in the basis of admissible upper words with excess >= n at twist chi_g.

    Route A uses the lower-indexed Adem relation and converts each output.
    Route B converts the composite to a single upper word and normalizes it
    with the upper-indexed relations.  Returns (route_a, route_b).
    """
    outer_beta, inner_beta = _LOWER_CASES[case]
    want = 0 if chi_g == 1 else 1

    def keep(entries):
        return (
            all(s2 % 2 == want for _, s2 in entries)
            and excess(entries, p) >= n
        )

    # the composite itself: zero operations make both routes trivially zero
    if s < inner_beta or r < outer_beta:
        return {}, {}

    # route B: convert the composite, rewrite with the upper-indexed relations
    entries, unit = _upper_pair_from_lower(outer_beta, r, inner_beta, s, n, p)
    nf = normalize(DLElement(p, chi_g, {entries: unit}))
    route_b = {w: c for w, c in nf.terms.items() if keep(w)}

    # route A: lower-indexed relation, then convert each output pair.  The
    # outputs are nonzero operations and the conversion is one-to-one with a
    # unit, so each gives one new nonzero term.
    route_a: dict = {}
    for ((eo, mo), (ei, mi)), c in adem_expand_lower(r, s, n, chi_g, p, case).items():
        entries, unit = _upper_pair_from_lower(eo, mo, ei, mi, n, p)
        if keep(entries):
            route_a[entries] = c * unit % p
    return route_a, route_b
