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
from collections.abc import Mapping
from functools import lru_cache

from .arith import (
    _check_int,
    binom_walk_mod_p,
    check_odd_prime,
    half_factorial,
    is_int,
    twist_power,
    v_const,
)
from .errors import ContractError, Meter, ValidationError, charge, metered

Entry = tuple[int, int]  # (eps, s2) with s2 = 2s

# ---------------------------------------------------------------------------
# words


def _check_word(word) -> tuple:
    """word, or ValidationError unless it is a tuple of letters (eps, 2s):
    pairs of ints, not bools, with eps 0 or 1.  A letter that is a tuple of
    two exact ints is settled by their types; a word with any other letter
    is checked and rebuilt by _rebuilt_word."""
    if not isinstance(word, tuple):
        raise ValidationError(f"bad operation word {word!r}; want a tuple of (eps, 2s)")
    for letter in word:
        if not (type(letter) is tuple and len(letter) == 2 and type(letter[0]) is int
                and letter[0] in (0, 1) and type(letter[1]) is int):
            return _rebuilt_word(word)
    return word


def _rebuilt_word(word) -> tuple:
    """word with each letter a tuple of two plain ints, or ValidationError
    unless each letter passes is_int.  An int subclass (an IntEnum, say) is
    stored as int: the global caches keep the first letter object they meet
    and would hand it to every later call with an equal letter."""
    out = []
    for letter in word:
        if not (isinstance(letter, tuple) and len(letter) == 2 and is_int(letter[0])
                and letter[0] in (0, 1) and is_int(letter[1])):
            raise ValidationError(f"bad operation letter {letter!r}; want (eps, 2s)")
        out.append((int(letter[0]), int(letter[1])))
    return tuple(out)


def _check_twist(twist) -> None:
    if not is_int(twist) or twist not in (1, -1):
        raise ValidationError(f"twist must be +1 or -1, got {twist}")


def _check_coeff(c, p: int) -> int:
    """c mod p, or ValidationError unless c is an int (a bool is not)."""
    if not is_int(c):
        raise ValidationError(f"a coefficient must be an integer, got {c!r}")
    return c % p


def _read_terms(terms, p: int, check_key) -> dict:
    """A checked copy of terms from outside the engine, a mapping or None: each
    key by check_key, which returns it, and each coefficient by _check_coeff."""
    if terms is None:
        return {}
    # a dict is settled without the Mapping ABC's slower isinstance
    if not (isinstance(terms, dict) or isinstance(terms, Mapping)):
        raise ValidationError(f"terms must be a mapping, got {type(terms).__name__}")
    out = {}
    for key, c in terms.items():
        key, c = check_key(key), _check_coeff(c, p)
        if c:
            out[key] = c
    return out


def word_degree(entries, p: int) -> int:
    """Internal degree raised by the word: sum of 2 s_i (p-1) - eps_i."""
    return sum(s2 * (p - 1) - e for e, s2 in entries)


def excess(entries, p: int):
    """2 s_1 - eps_1 - sum_{i>=2}(2 s_i (p-1) - eps_i); +inf for the empty word."""
    if not entries:
        return math.inf
    e1, s21 = entries[0]
    return s21 - e1 - word_degree(entries[1:], p)


# ---------------------------------------------------------------------------
# elements of the Dyer-Lashof algebra at a fixed twist class

_new = object.__new__  # DLElement._trusted skips __init__ and its checks


class DLElement:
    """A linear combination of operation words at a common twist class."""

    __slots__ = ("p", "twist", "terms")

    def __init__(self, p: int, twist: int, terms=None):
        check_odd_prime(p)
        _check_twist(twist)
        self.p = p
        self.twist = twist
        self.terms: dict[tuple[Entry, ...], int] = _read_terms(terms, p, _check_word)

    @staticmethod
    def _trusted(p: int, twist: int, terms: dict) -> "DLElement":
        """Wrap terms the engine built itself: canonical words, coefficients
        already reduced and nonzero.  Nothing is checked or copied."""
        elt = _new(DLElement)
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
# j2 = i2 - s2 = 2j and d = r2 - p*s2 (both even), and D = d/2 + b_off, the
# binomial is binom(j(p-1) + t_off, D - j), its support is
# ceil((D - t_off)/p) <= j <= D, and the sign is
# (-1)^(D-j) * (-1)^b_off * (-1)^(s2(p-1)/2).  So the binomials and their
# sign (-1)^(D-j) form a row that depends on (D, p, t_off) alone: the pairs of
# one d share it, and so do families of different d and b_off that meet at
# one D.  _family_terms applies the other two signs.


@lru_cache(maxsize=None)
def _family_row(D, p, t_off):
    """(2j, (-1)^(D-j) * binom(j(p-1) + t_off, D - j) mod p, 2j, ...) over
    the nonzero binomials of the row, flat: one int tuple per row, not a
    tuple per entry.  The row is walked once by binom_walk_mod_p."""
    lo = -(-(D - t_off) // p)  # ceil division
    n = D - lo  # the bottom at j = lo; the row ends where it reaches 0
    # counted without len(range), which overflows on a huge index
    charge("Adem family rows", max(0, n + 1))
    row = []
    for k, c in binom_walk_mod_p(lo * (p - 1) + t_off, n, p, n + 1):
        row += 2 * (lo + k), -c if (n - k) % 2 else c
    return tuple(row)


class _LetterTable(dict):
    """_LETTERS[eps, s2] is the one (eps, s2) tuple that every cached
    expansion, and so every word normalize builds, uses for that letter:
    one object per letter, not two per cached term.  It holds the distinct
    letters seen, no more."""

    __slots__ = ()

    def __missing__(self, letter):
        self[letter] = letter
        return letter


_LETTERS = _LetterTable()


def _family_terms(r2, s2, p, pref, t_off, b_off, e_out, e_in):
    """One family's output pairs and their coefficients, as two tuples
    sorted by pair (the outer index rises as j2 falls).  pref is a unit mod
    p, so every coefficient is nonzero."""
    if (s2 * (p - 1) // 2 + b_off) % 2:
        pref = -pref
    row = _family_row((r2 - p * s2) // 2 + b_off, p, t_off)
    letters = _LETTERS
    pairs = tuple([
        (letters[e_out, r2 - j2], letters[e_in, s2 + j2]) for j2 in row[-2::-2]
    ])
    return pairs, tuple([c * pref % p for c in row[::-2]])


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


@metered
def adem_expand(outer: Entry, inner: Entry, twist: int, p: int):
    """Rewrite one inadmissible pair; returns ((word, coeff), ...) sorted by word.

    The pair must be inadmissible (r2 > p*s2 - 2*eps_inner), otherwise
    ContractError.  If the index parities are mixed or do not match the twist
    class the word is zero and an empty tuple is returned.
    """
    # checked as DLElement checks them, before the cache, which would find a
    # bool's equal int key
    outer, inner = _check_word((outer, inner))
    _check_twist(twist)
    check_odd_prime(p)
    return tuple(zip(*_adem_expand(outer, inner, twist, p)))


_ZERO = ((), ())


@lru_cache(maxsize=None)
def _adem_expand(outer: Entry, inner: Entry, twist: int, p: int):
    """adem_expand on trusted letters, flat: (pairs, coefficients).
    normalize calls it directly."""
    (e1, r2), (e2, s2) = outer, inner
    if r2 <= p * s2 - 2 * e2:
        raise ContractError(f"pair {(outer, inner)} is admissible; nothing to expand")
    want = 0 if twist == 1 else 1
    if r2 % 2 != want or s2 % 2 != want:
        return _ZERO
    chi_half = twist_power(twist, p)
    if e2 == 0:
        # beta^e1 Q^r Q^s
        return _family_terms(r2, s2, p, chi_half, -1, -1, e1, 0)
    if e1 == 0:
        # Q^r beta Q^s: a Q . beta Q family and a beta Q . Q family, which
        # share no word; the outer beta sorts last
        pairs, coeffs = _family_terms(r2, s2, p, -chi_half, -1, 0, 0, 1)
        more_pairs, more_coeffs = _family_terms(r2, s2, p, 1, 0, 0, 1, 0)
        return pairs + more_pairs, coeffs + more_coeffs
    # beta Q^r beta Q^s
    return _family_terms(r2, s2, p, -chi_half, -1, 0, 1, 1)


adem_expand.cache_info = _adem_expand.cache_info
adem_expand.cache_clear = _adem_expand.cache_clear


def _find_inadmissible(entries, p: int, strategy: str):
    """The leftmost or rightmost inadmissible junction of a word, or None.
    normalize scans in its own loop; the tests and bench/tracing.py use
    this one."""
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


def normalize(elt: DLElement, strategy: str = "leftmost") -> DLElement:
    """Rewrite to admissible normal form.

    strategy picks which inadmissible adjacent pair of a word is expanded
    first ("leftmost" or "rightmost"); the result is independent of the
    choice.  Each word expanded and each binomial of an uncached Adem family
    row costs a unit of the meter (errors.Meter).  Words whose indices are
    not all in the twist parity class are zero and dropped.  If every word
    left is admissible it is returned as it is, free, with no meter opened.
    """
    if not isinstance(elt, DLElement):
        raise ContractError(f"expected a DLElement, got {type(elt).__name__}")
    if strategy not in ("leftmost", "rightmost"):
        raise ContractError(f"unknown strategy {strategy!r}")
    p, twist = elt.p, elt.twist
    want = 0 if twist == 1 else 1
    # The words and coefficients of elt are canonical (DLElement), so they
    # are read as they are, each in one scan.  terms: word -> coefficient,
    # reduced mod p, a copy of elt's dict (so no word is hashed again) that
    # loses the words of the wrong parity after the scan; elt is not
    # changed.  Each word's first letter is read before the loop over the
    # junctions.  Only the inadmissible words are queued.
    terms = elt.terms.copy()
    queue = []
    zero = []  # the words with an index outside the twist parity class
    for w in terms:
        if not w:
            continue  # the empty word is admissible
        left = w[0][1]
        if left % 2 != want:
            zero.append(w)
            continue
        inadmissible = False
        for e, s2 in w[1:]:
            if s2 % 2 != want:
                zero.append(w)
                break
            if left > p * s2 - 2 * e:
                inadmissible = True
            left = s2
        else:
            if inadmissible:
                queue.append(w)
    for w in zero:
        del terms[w]
    if queue:
        _rewrite(terms, queue, p, twist, strategy == "leftmost")
    return DLElement._trusted(p, twist, terms)


_NO_LEFT = -math.inf  # the bound a pair at the front of a word meets


@metered
def _rewrite(terms: dict, queue: list, p: int, twist: int, leftmost: bool) -> None:
    """Rewrite the queued words of terms, in place, until every word left is
    admissible; the words that end with coefficient 0 are dropped.

    buckets: rank -> the words first met at that rank.  An admissible word
    is never expanded, so it stays in terms and collects its contributions
    to the end."""
    buckets: dict = {}
    for w in queue:
        buckets.setdefault(_rank(w), []).append(w)
    heap = list(buckets)
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    meter = Meter.running
    while heap:
        rank = heappop(heap)
        for w in buckets.pop(rank):
            c = terms.pop(w)
            if not c:
                continue
            meter.charge("rewriting")
            # w's inadmissible junctions, in one scan.  An output word
            # differs from w only in its pair, which is admissible: the
            # word is admissible when no junction of w away from the
            # pair is, and the two new junctions next to the pair are
            # admissible.  By the choice of pos every inadmissible
            # junction lies on one side of it, so rest_ok reads one end.
            bad = [i for i in range(len(w) - 1)
                   if w[i][1] > p * w[i + 1][1] - 2 * w[i + 1][0]]
            if leftmost:
                pos = bad[0]
                rest_ok = bad[-1] <= pos + 1
            else:
                pos = bad[-1]
                rest_ok = bad[0] >= pos - 1
            head, tail = w[:pos], w[pos + 2:]
            left = head[-1][1] if head else _NO_LEFT
            cap = p * tail[0][1] - 2 * tail[0][0] if tail else math.inf
            e1, r2 = w[pos]
            # an output word's rank is rank + j2 + e_out - e1 (see
            # above) with j2 = r2 - a2, that is base + e_out - a2
            base = rank + r2 - e1
            pairs, coeffs = _adem_expand(w[pos], w[pos + 1], twist, p)
            for pair, k in zip(pairs, coeffs):
                v = head + pair + tail
                old = terms.get(v)
                if old is not None:
                    terms[v] = (old + c * k) % p
                    continue
                terms[v] = c * k % p
                (e_out, a2), (_, b2) = pair
                if not rest_ok or left > p * a2 - 2 * e_out or b2 > cap:
                    r = base + e_out - a2
                    bucket = buckets.get(r)
                    if bucket is None:
                        buckets[r] = [v]
                        heappush(heap, r)
                    else:
                        bucket.append(v)
    for w in [w for w, c in terms.items() if not c]:
        del terms[w]


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


@metered
def lower_from_upper(eps: int, s2: int, n: int, p: int):
    """Return (index, coeff, is_zero) with beta^eps Q^{s2/2} = coeff * (beta^eps) Q_index.

    index = m*(p-1) for multiplier m = 2s - n = s2 - n.  is_zero reports
    whether the lower operation is the zero operation on degree-n classes.
    """
    _check_word(((eps, s2),))
    _check_int("n", n)
    check_odd_prime(p)
    m = s2 - n
    return m * (p - 1), _lower_unit(s2, n, p), m < eps


def _lower_unit(s2: int, n: int, p: int) -> int:
    """lower_from_upper's coeff, which eps does not change; nothing is checked."""
    sign = -1 if s2 // 2 % 2 else 1
    return sign * pow(half_factorial(p), 3 * (s2 % 2), p) * v_const(n, p) % p


# case -> (outer_beta, inner_beta)
_LOWER_CASES = {"QQ": (0, 0), "bQQ": (1, 0), "QbQ": (0, 1), "bQbQ": (1, 1)}


def _lower_args(case, r, s, n, chi_g, p):
    """(outer_beta, inner_beta) of case, once every argument of a lower
    composite is checked: ContractError for an unknown case name,
    ValidationError for the rest."""
    if case not in _LOWER_CASES:
        raise ContractError(f"case must be one of {tuple(_LOWER_CASES)}, got {case!r}")
    for name, value in (("r", r), ("s", s), ("n", n)):
        _check_int(name, value)
    _check_twist(chi_g)
    check_odd_prime(p)
    return _LOWER_CASES[case]


@metered
def adem_expand_lower(r: int, s: int, n: int, chi_g: int, p: int, case: str):
    """Lower-indexed Adem relation for a composite on degree-n classes.

    case names the composite: "QQ" is Q_{r(p-1)} Q_{s(p-1)}, "bQQ" puts beta
    on the outer operation, "QbQ" on the inner, "bQbQ" on both.  Requires
    r > s for (b)QQ and r >= s for (b)QbQ (otherwise the composite is already
    admissible and ContractError is raised); the inner beta Q needs s >= 1.
    Returns {((eps_out, m_out), (eps_in, m_in)): coeff} over nonzero lower
    operations; chi_g is the twist character value of the acted-on classes.
    """
    outer_beta, inner_beta = _lower_args(case, r, s, n, chi_g, p)
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
        # negative, so a nonzero one has j >= s >= eps_in.  A step of j by 2
        # is a step of the walk.  j fixes the key and const is a unit mod p,
        # so each nonzero binomial writes one new nonzero term.
        j0 = s - (s - top) % 2
        b0 = (top - j0) // 2
        for k, c in binom_walk_mod_p((j0 - s) * (p - 1) // 2 + t_off, b0, p, b0 + 1):
            j = j0 + 2 * k
            m_out = m_top - p * j
            if m_out >= eps_out:
                out[((eps_out, m_out), (eps_in, j))] = (-c if (b0 - k) % 2 else c) * const % p

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


@metered
def cross_check_composite(r: int, s: int, case: str, n: int, p: int, chi_g: int):
    """Expand a lower-indexed composite two ways; both results are expressed
    in the basis of admissible upper words with excess >= n at twist chi_g.

    Route A uses the lower-indexed Adem relation and converts each output.
    Route B converts the composite to a single upper word and normalizes it
    with the upper-indexed relations.  Returns (route_a, route_b).
    """
    outer_beta, inner_beta = _lower_args(case, r, s, n, chi_g, p)
    want = 0 if chi_g == 1 else 1

    def keep(entries):
        return (
            all(s2 % 2 == want for _, s2 in entries)
            and excess(entries, p) >= n
        )

    def upper(eps_out, m_out, eps_in, m_in):
        # (word, unit) with (beta^eps_out) Q_{m_out(p-1)} (beta^eps_in)
        # Q_{m_in(p-1)} = unit * word on degree-n classes
        s2_in = m_in + n
        n_mid = p * n + m_in * (p - 1) - eps_in
        s2_out = m_out + n_mid
        c = _lower_unit(s2_out, n_mid, p) * _lower_unit(s2_in, n, p)
        return ((eps_out, s2_out), (eps_in, s2_in)), pow(c, p - 2, p)

    # the composite itself: zero operations make both routes trivially zero
    if s < inner_beta or r < outer_beta:
        return {}, {}

    # route B: convert the composite (checked, so trusted) and rewrite it upper
    entries, unit = upper(outer_beta, r, inner_beta, s)
    nf = normalize(DLElement._trusted(p, chi_g, {entries: unit}))
    route_b = {w: c for w, c in nf.terms.items() if keep(w)}

    # route A: lower-indexed relation, then convert each output pair.  The
    # outputs are nonzero operations and the conversion is one-to-one with a
    # unit, so each gives one new nonzero term.
    route_a: dict = {}
    for ((eo, mo), (ei, mi)), c in adem_expand_lower(r, s, n, chi_g, p, case).items():
        entries, unit = upper(eo, mo, ei, mi)
        if keep(entries):
            route_a[entries] = c * unit % p
    return route_a, route_b
