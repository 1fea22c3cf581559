import hashlib
import math
import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from dyerlashof.arith import binom_mod_p
from dyerlashof.dlalgebra import (
    DLElement,
    _family_row,
    _find_inadmissible,
    _rank,
    adem_expand,
    adem_expand_lower,
    cross_check_composite,
    excess,
    lower_from_upper,
    normalize,
    word_degree,
)
from dyerlashof.errors import ContractError, Meter, ResourceError, ValidationError
from test_acceptance import _rewrite_corpus


def admissible(entries, p, twist=1):
    """Every index in the twist parity class and no inadmissible junction."""
    want = 0 if twist == 1 else 1
    return (
        all(s2 % 2 == want for _, s2 in entries)
        and _find_inadmissible(entries, p, "leftmost") is None
    )


# ---------------------------------------------------------------------------
# word bookkeeping


def test_word_degree_and_charge():
    # Q^2 Q^1 at p=3: each letter adds 2s(p-1) - eps
    assert word_degree(((0, 4), (0, 2)), 3) == 8 + 4
    assert word_degree(((1, 4), (0, 2)), 3) == 7 + 4
    assert word_degree((), 3) == 0


def test_excess():
    assert excess((), 3) == math.inf
    assert excess(((1, 3),), 3) == 2  # 2s - eps = 3 - 1
    # beta Q^{7/2} Q^{3/2} at p=3: 7 - 1 - 3*2 = 0
    assert excess(((1, 7), (0, 3)), 3) == 0
    assert excess(((0, 5), (1, 3)), 3) == 5 - (6 - 1)


def test_admissibility():
    # p s2 - 2 eps >= r2 required at each junction
    assert admissible([(0, 2), (0, 2)], 3)  # 6 >= 2
    assert not admissible([(0, 8), (0, 2)], 3)  # 6 < 8
    assert admissible([(0, 6), (0, 2)], 3)  # boundary 6 >= 6
    assert not admissible([(0, 6), (1, 2)], 3)  # 6 - 2 < 6
    # parity must match the twist class
    assert not admissible([(0, 3)], 3, twist=1)
    assert admissible([(0, 3)], 3, twist=-1)
    assert not admissible([(0, 3), (0, 2)], 3, twist=-1)
    assert admissible([], 3, twist=1)


def test_dlelement_validates_its_input():
    # p must be an odd prime, and a letter (eps, 2s) two plain integers: a
    # bool would pass for 0 or 1
    for p in (4, 9, 2, 1, True, 3.0):
        with pytest.raises(ValidationError):
            DLElement(p, 1, {((0, 4), (0, 0)): 1})
    bad = (((True, 4), (0, 0)), ((0, 4), (0, False)), ((0, 4.0),), ((2, 4),), ((0,),),
           (5,), ((0, 1), 5), 5)  # a letter or a word that is not a sequence
    for word in bad:
        with pytest.raises(ValidationError):
            DLElement(3, 1, {word: 1})
    for twist in (0, True, 7, 1.0):
        with pytest.raises(ValidationError, match="twist must be"):
            DLElement(3, twist, {})
    # adem_expand checks its letters the same way, also once the equal int
    # keys are in its cache
    adem_expand((1, 2002), (0, 0), 1, 3)
    adem_expand((0, 2002), (0, 0), 1, 3)
    with pytest.raises(ValidationError):
        adem_expand((True, 2002), (0, 0), 1, 3)
    with pytest.raises(ValidationError):
        adem_expand((0, 2002), (0, False), 1, 3)
    # and its twist and p, as DLElement does
    with pytest.raises(ValidationError, match="odd prime"):
        adem_expand((0, 4), (0, 0), 1, 4)
    for twist in (True, 7):
        with pytest.raises(ValidationError, match="twist must be"):
            adem_expand((0, 4), (0, 0), twist, 3)


# ---------------------------------------------------------------------------
# upper-indexed Adem relations: frozen examples


def test_adem_qq_basic():
    # Q^2 Q^0 = 2 Q^1 Q^1 at p = 3, untwisted
    assert adem_expand((0, 4), (0, 0), 1, 3) == ((((0, 2), (0, 2)), 2),)


def test_adem_twisted_zero():
    # Q^{5/2} Q^{1/2} = 0 at p = 3: every binomial vanishes
    assert adem_expand((0, 5), (0, 1), -1, 3) == ()


def test_adem_mixed_parity_is_zero():
    assert adem_expand((0, 4), (0, 1), -1, 3) == ()
    assert adem_expand((0, 8), (0, 2), -1, 3) == ()  # wrong class for twist -1


def test_adem_admissible_rejected():
    with pytest.raises(ContractError):
        adem_expand((0, 2), (0, 2), 1, 3)
    with pytest.raises(ContractError):
        adem_expand((0, 6), (0, 2), 1, 3)  # boundary pair is admissible


def test_adem_q_betaq_boundary_untwisted():
    # Q^3 bQ^1 = bQ^3 Q^1 at p = 3
    assert adem_expand((0, 6), (1, 2), 1, 3) == ((((1, 6), (0, 2)), 1),)


def test_adem_q_betaq_boundary_twisted_p3():
    # Q^{3/2} bQ^{1/2} = -bQ^{3/2} Q^{1/2} at p = 3
    assert adem_expand((0, 3), (1, 1), -1, 3) == ((((1, 3), (0, 1)), 2),)


def test_adem_q_betaq_boundary_twisted_p5():
    # Q^{5/2} bQ^{1/2} = +bQ^{5/2} Q^{1/2} at p = 5
    assert adem_expand((0, 5), (1, 1), -1, 5) == ((((1, 5), (0, 1)), 1),)


def test_adem_q_betaq_general_twisted():
    # Q^{9/2} bQ^{1/2} at p = 3
    got = dict(adem_expand((0, 9), (1, 1), -1, 3))
    assert got == {
        ((1, 7), (0, 3)): 2,
        ((1, 5), (0, 5)): 1,
        ((1, 3), (0, 7)): 2,
        ((0, 3), (1, 7)): 2,
    }
    # Q^{13/2} bQ^{3/2} at p = 3
    got = dict(adem_expand((0, 13), (1, 3), -1, 3))
    assert got == {
        ((1, 11), (0, 5)): 2,
        ((1, 9), (0, 7)): 2,
        ((0, 11), (1, 5)): 1,
        ((0, 9), (1, 7)): 2,
    }


def test_adem_betaq_betaq():
    # bQ^{13/2} bQ^{3/2} = bQ^{11/2} bQ^{5/2} - bQ^{9/2} bQ^{7/2} at p = 3
    got = dict(adem_expand((1, 13), (1, 3), -1, 3))
    assert got == {((1, 11), (1, 5)): 1, ((1, 9), (1, 7)): 2}


def test_adem_outputs_admissible():
    rng = random.Random(7)
    for _ in range(400):
        p = rng.choice((3, 5, 7))
        tw = rng.choice((1, -1))
        par = 0 if tw == 1 else 1
        e1, e2 = rng.randint(0, 1), rng.randint(0, 1)
        s2 = 2 * rng.randint(-20, 20) + par
        # choose r2 strictly past the admissibility bound, same parity class
        r2 = p * s2 - 2 * e2 + 2 * rng.randint(1, 20)
        for w, c in adem_expand((e1, r2), (e2, s2), tw, p):
            assert 1 <= c < p
            assert admissible(w, p, tw), (p, tw, (e1, r2), (e2, s2), w)
            assert word_degree(w, p) == word_degree(((e1, r2), (e2, s2)), p)


def test_adem_grid_digest():
    """Every upper-indexed expansion on a small grid, hashed with its order:
    both twists, p = 3, 5, 7, the four beta cases, and every inadmissible
    pair with -4 <= s2 < 8 and r2 < 48 (the wrong-parity ones give ()).
    Recorded before the expansions shared their letters."""
    h = hashlib.sha256()
    calls = 0
    for p in (3, 5, 7):
        for twist in (1, -1):
            for e1 in (0, 1):
                for e2 in (0, 1):
                    for s2 in range(-4, 8):
                        for r2 in range(p * s2 - 2 * e2 + 1, 48):
                            got = adem_expand((e1, r2), (e2, s2), twist, p)
                            calls += 1
                            h.update(repr((p, twist, e1, r2, e2, s2, got)).encode())
    assert calls == 11672
    assert h.hexdigest() == (
        "d46fefeebaa5dc2b1577e432cdc228aad42f5684a3f26720aa8c7f8e54bbf6b0"
    )


def test_adem_expansions_share_their_letters():
    # an equal output letter is one object across expansions, so the cache
    # holds each letter once, however many terms use it
    adem_expand.cache_clear()
    _family_row.cache_clear()
    ((qq, _),) = adem_expand((0, 4), (0, 0), 1, 3)  # Q^1 Q^1
    ((qbq, _),) = adem_expand((0, 6), (1, 2), 1, 3)  # bQ^3 Q^1
    assert qq == ((0, 2), (0, 2)) and qbq == ((1, 6), (0, 2))
    assert qq[0] is qq[1] is qbq[1]
    ((a, _),) = adem_expand((0, 10), (0, 2), 1, 3)  # Q^4 Q^2
    (b, _), (c, _) = adem_expand((0, 12), (0, 2), 1, 3)  # Q^4 Q^3, Q^5 Q^2
    assert a[0] == b[0] == (0, 8) and a[0] is b[0]
    assert a[1] == c[1] == (0, 4) and a[1] is c[1]
    # and normalize builds its words from them: five words, seven letters
    nf = normalize(DLElement(3, 1, {((0, 30), (0, 6), (0, 2)): 1}))
    letters = {}
    for w in nf.terms:
        for letter in w:
            assert letters.setdefault(letter, letter) is letter
    assert (len(nf.terms), len(letters)) == (5, 7)


def four_argument_row(d, p, t_off, b_off):
    """The family row as it was keyed before rows were shared: (j2, signed
    binomial, ...) over the nonzero binomials, one binom_mod_p call each,
    and the number of binomials walked."""
    lo = -(-(d + 2 * (b_off - t_off)) // p)
    lo += lo % 2
    top = d + 2 * b_off
    row = []
    for j2 in range(lo, top + 1, 2):
        c = binom_mod_p(j2 // 2 * (p - 1) + t_off, (d - j2) // 2 + b_off, p)
        if c:
            row += j2, -c if (d - j2) // 2 % 2 else c
    return tuple(row), max(0, (top - lo) // 2 + 1)


def test_family_row_matches_the_four_argument_row():
    # the row of (D, p, t_off) is the four-argument row of every (d, b_off)
    # with d/2 + b_off = D, up to the sign (-1)^b_off, and charges the same
    # units on a miss
    for p in (3, 5, 7, 11):
        for d in range(-40, 121, 2):
            for t_off in (-1, 0):
                for b_off in (-1, 0):
                    want, units = four_argument_row(d, p, t_off, b_off)
                    _family_row.cache_clear()
                    with Meter(10**6) as m:
                        row = _family_row(d // 2 + b_off, p, t_off)
                    assert m.counts == {"Adem family rows": units}, (d, p, t_off, b_off)
                    sign = -1 if b_off else 1
                    got = tuple(x * sign if i % 2 else x for i, x in enumerate(row))
                    assert got == want, (d, p, t_off, b_off)


def test_families_share_a_row():
    # Q^6 Q^1 (a Q . Q family: t_off = b_off = -1, d = 6) and bQ^5 bQ^1 (a
    # beta Q . beta Q family: t_off = -1, b_off = 0, d = 4) at p = 3 read
    # the row of D = 2: the second expansion finds it cached and charges
    # nothing for it
    adem_expand.cache_clear()
    _family_row.cache_clear()
    assert adem_expand((0, 12), (0, 2), 1, 3)
    size = _family_row.cache_info().currsize
    with Meter(10**6) as m:
        assert adem_expand((1, 10), (1, 2), 1, 3)
    assert _family_row.cache_info().currsize == size
    assert m.counts == {}


# ---------------------------------------------------------------------------
# normalization


def test_normalize_simple():
    e = DLElement(3, 1, {((0, 4), (0, 0)): 1})
    nf = normalize(e)
    assert nf.terms == {((0, 2), (0, 2)): 2}


def test_normalize_drops_mixed_parity():
    e = DLElement(3, 1, {((0, 3), (0, 2)): 1, ((0, 1),): 2})
    assert normalize(e).is_zero
    # one element holding words of lengths 1-4, some of the wrong parity:
    # rewriting keeps the length, so the normal form is the sum of the
    # words' separate normal forms.  The first two words differ only by a
    # trailing bQ^10 at the largest index the rewrite can reach, so one call
    # holds words of several lengths that must stay apart.
    words = {
        ((0, 20),): 1,
        ((0, 20), (1, 20)): 2,
        ((0, 20), (0, 2)): 1,
        ((0, 20), (0, 2), (1, 2)): 2,
        ((0, 20), (0, 2), (0, 6), (0, 2)): 1,
        ((0, 20), (0, 3), (0, 2)): 1,
        ((0, 21), (0, 2), (1, 2), (0, 0)): 2,
    }
    for strategy in ("leftmost", "rightmost"):
        want = {}
        for w, c in words.items():
            for v, k in normalize(DLElement(3, 1, {w: c}), strategy).terms.items():
                want[v] = want.get(v, 0) + k
        got = normalize(DLElement(3, 1, words), strategy)
        assert got == DLElement(3, 1, want)
        assert {len(w) for w in got.terms} == {1, 2, 3, 4}


def test_normalize_idempotent_and_strategies_agree():
    rng = random.Random(11)
    for _ in range(150):
        p = rng.choice((3, 5))
        tw = rng.choice((1, -1))
        par = 0 if tw == 1 else 1
        k = rng.randint(1, 4)
        w = tuple(
            (rng.randint(0, 1), 2 * rng.randint(-4, 10) + par) for _ in range(k)
        )
        e = DLElement(p, tw, {w: 1})
        left = normalize(e, "leftmost")
        right = normalize(e, "rightmost")
        assert left == right
        assert normalize(left) == left
        for word in left.terms:
            assert admissible(word, p, tw)
            assert word_degree(word, p) == word_degree(w, p)
            assert len(word) == len(w)


def test_normalize_deep_negative_indices():
    # words with strongly negative indices have large but finite normal
    # forms; pin one as a regression marker
    e = DLElement(5, 1, {((1, -34), (0, -22), (0, -36)): 1})
    a = normalize(e, "leftmost")
    assert len(a.terms) == 4164
    assert normalize(e, "rightmost") == a
    deg = word_degree(((1, -34), (0, -22), (0, -36)), 5)
    assert all(word_degree(w, 5) == deg for w in a.terms)


def test_normalize_budget():
    e = DLElement(3, 1, {((0, 4), (0, 0)): 1})
    with pytest.raises(ResourceError), Meter(0):
        normalize(e)
    # already admissible input costs no expansion, and words of the wrong
    # parity class are still dropped
    nf = {((0, 2), (0, 2)): 2, ((0, 6), (0, 2)): 1, ((1, 4),): 1, (): 1}
    e = DLElement(3, 1, {**nf, ((0, 3),): 1, ((0, 2), (0, 1)): 2})
    for strategy in ("leftmost", "rightmost"):
        with Meter(0):
            assert normalize(DLElement(3, 1, nf), strategy) == DLElement(3, 1, nf)
            assert normalize(e, strategy) == DLElement(3, 1, nf)


@pytest.mark.parametrize("budget", [-1, 2.5, "x", True])
def test_normalize_checks_its_budget(budget):
    with pytest.raises(ValidationError), Meter(budget):
        normalize(DLElement(3, 1, {((0, 20), (0, 0)): 1}))


def test_rewriting_kernel_pinned():
    """Every 30th word of strata 2-8 of acceptance 4's corpus (its words of
    length 3 and 4), from cold caches: a digest of the normal forms and the
    units of each strategy.  Recorded before normalize read the Adem cache
    directly and kept its coefficients reduced.  The "Adem family rows"
    units were re-pinned when the families came to share a row per
    (D, p, t_off): 72,351 -> 59,219 leftmost and 55,374 -> 50,076
    rightmost; the digest and the "rewriting" units did not move."""
    corpus = _rewrite_corpus(random.Random(2024))
    words = [w for w in corpus if len(w[2]) > 2][::30]
    assert len(words) == 78
    for strategy, units in (
        ("leftmost", {"rewriting": 3839, "Adem family rows": 59219}),
        ("rightmost", {"rewriting": 3349, "Adem family rows": 50076}),
    ):
        adem_expand.cache_clear()
        _family_row.cache_clear()
        h = hashlib.sha256()
        with Meter(10**9) as m:
            for p, twist, entries in words:
                nf = normalize(DLElement(p, twist, {entries: 1}), strategy)
                h.update(repr(sorted(nf.terms.items())).encode())
        assert m.counts == units
        assert h.hexdigest() == (
            "bcb1fdda7dd04625639f299875bfb5bcd9a054e76599258817468f6a9d98a52a"
        )


def test_normalize_huge_indices():
    # indices far beyond 64 bits: a single Adem step, and a length-3 word
    n = 2**70
    checked = 0
    for p in (3, 5):
        for k in range(1, 8):
            for e1 in (0, 1):
                for e2 in (0, 1):
                    outer, inner = (e1, 2 * (p * n + k)), (e2, 2 * n)
                    want = dict(adem_expand(outer, inner, 1, p))
                    if not 2 <= len(want) <= 8:
                        continue
                    checked += 1
                    e = DLElement(p, 1, {(outer, inner): 1})
                    assert normalize(e, "leftmost").terms == want
                    assert normalize(e, "rightmost").terms == want
    assert checked == 40
    e = DLElement(3, 1, {((1, 2 * (9 * n + 5)), (0, 2 * (3 * n + 1)), (1, 2 * n)): 1})
    left = normalize(e, "leftmost")
    assert len(left.terms) == 4
    assert normalize(e, "rightmost") == left


@pytest.mark.parametrize("p,twist,word", [
    (3, 1, ((1, 2 * (9 * 2**70 + 5)), (0, 2 * (3 * 2**70 + 1)), (1, 2**71))),
    (5, 1, ((1, -34), (0, -22), (0, -36))),
    (7, 1, ((1, 34), (0, -2), (0, -4))),
    (3, -1, ((0, 13), (1, -7), (0, -5), (1, -3))),
])
def test_rank_rises_on_every_adem_step(p, twist, word):
    # every word reachable by Adem steps at any junction, in any order, has a
    # larger rank than the word it came from, so normalize meets it only
    # after all of its contributions
    seen, todo = {word}, [word]
    while todo:
        w = todo.pop()
        for i in range(len(w) - 1):
            (_, r2), (e2, s2) = w[i], w[i + 1]
            if r2 <= p * s2 - 2 * e2:
                continue
            for pair, _ in adem_expand(w[i], w[i + 1], twist, p):
                v = w[:i] + pair + w[i + 2:]
                assert _rank(v) > _rank(w), (w, v)
                if v not in seen:
                    seen.add(v)
                    todo.append(v)


@pytest.mark.parametrize("p,twist,word,strategy,units,size", [
    (7, 1, ((1, 34), (0, -2), (0, -4), (0, -4)), "leftmost", 35018, 138226),
    (7, 1, ((1, 34), (0, -2), (0, -4), (0, -4)), "rightmost", 45674, 138226),
    (3, -1, ((0, 13), (1, -7), (0, -5), (1, -3)), "leftmost", 1308, 2545),
    (3, -1, ((0, 13), (1, -7), (0, -5), (1, -3)), "rightmost", 1370, 2545),
    (5, 1, ((1, -34), (0, -22), (0, -36)), "leftmost", 447, 4164),
    (5, 1, ((1, -34), (0, -22), (0, -36)), "rightmost", 814, 4164),
])
def test_normalize_expands_each_word_once(p, twist, word, strategy, units, size):
    # a word is expanded only once its coefficient is complete, so the
    # rewriting units are the number of reachable words with a nonzero
    # coefficient; the first is the heaviest word of acceptance 4's corpus
    with Meter(10**9) as m:
        nf = normalize(DLElement(p, twist, {word: 1}), strategy)
    assert m.counts["rewriting"] == units
    assert len(nf.terms) == size


def test_normalize_bad_strategy():
    with pytest.raises(ContractError):
        normalize(DLElement(3, 1, {}), strategy="middle")


# ---------------------------------------------------------------------------
# lower indexing


def test_lower_from_upper_examples():
    # Q^1 on degree 0 at p=3: Q^1 = -Q_4, so (index 4, coeff 2)
    assert lower_from_upper(0, 2, 0, 3) == (4, 2, False)
    # Q^{1/2} on degree 0 at p=3: Q^{1/2} = Q_2
    assert lower_from_upper(0, 1, 0, 3) == (2, 1, False)
    # beta flavors share constants
    assert lower_from_upper(1, 1, 0, 3) == (2, 1, False)
    # zero flags: multiplier < 0, or <= 0 with beta
    assert lower_from_upper(0, 2, 3, 3)[2] is True
    assert lower_from_upper(0, 2, 2, 3)[2] is False  # Q_0 is the p-th power op
    assert lower_from_upper(1, 2, 2, 3)[2] is True
    assert lower_from_upper(1, 3, 1, 5)[2] is False
    # p = 5 twisted: Q^{1/2} = hf^3 Q_4 = 3 Q_4
    assert lower_from_upper(0, 1, 0, 5) == (4, 3, False)


def test_lower_indexing_at_the_largest_prime_is_bounded():
    # ((p-1)/2)! is charged its (p-1)/2 steps before the loop, so at P_MAX
    # the default budget runs out at once, where the loop would take a minute
    for call in (lambda: lower_from_upper(0, 2, 0, 2147483647),
                 lambda: adem_expand_lower(3, 1, 0, 1, 2147483647, "QbQ")):
        start = time.perf_counter()
        with pytest.raises(ResourceError, match="half factorial"):
            call()
        assert time.perf_counter() - start < 1.0


def test_lower_adem_contract():
    with pytest.raises(ContractError):
        adem_expand_lower(2, 2, 0, 1, 3, "QQ")
    with pytest.raises(ContractError):
        adem_expand_lower(1, 2, 0, 1, 3, "QbQ")
    with pytest.raises(ContractError):
        adem_expand_lower(2, 0, 0, 1, 3, "QbQ")  # inner beta Q_0 undefined
    with pytest.raises(ContractError):
        adem_expand_lower(2, 1, 0, 1, 3, "Qq")


def test_lower_adem_frozen_examples():
    # Q_16 bQ_2 on degree 0, chi = -1, p = 3 (multipliers r=8, s=1):
    # the singular first-family term survives as bQ_2 Q_6
    got = adem_expand_lower(8, 1, 0, -1, 3, "QbQ")
    assert got == {((1, 1), (0, 3)): 1}
    # Q_16 bQ_6 (r=8, s=3): one regular first-family term and one second-family term
    got = adem_expand_lower(8, 3, 0, -1, 3, "QbQ")
    assert got == {((1, 1), (0, 5)): 1, ((0, 2), (1, 5)): 1}
    # Q_14 Q_6 (r=7, s=3) twisted: single term -Q_2 Q_10
    got = adem_expand_lower(7, 3, 0, -1, 3, "QQ")
    assert got == {((0, 1), (0, 5)): 2}
    # beta twin carries the same coefficients
    got = adem_expand_lower(7, 3, 0, -1, 3, "bQQ")
    assert got == {((1, 1), (0, 5)): 2}
    # bQ_16 bQ_6 (r=8, s=3): +bQ_4 bQ_10
    got = adem_expand_lower(8, 3, 0, -1, 3, "bQbQ")
    assert got == {((1, 2), (1, 5)): 1}


def test_lower_adem_grid_digest():
    """Every lower-indexed expansion on a small grid, hashed.  The cross-check
    drops terms of low excess, so it does not pin them; this does.  Recorded
    before the relations were restated as families; a deliberate change of a
    family constant (ROADMAP item 1) records it again."""
    h = hashlib.sha256()
    calls = 0
    for p in (3, 5, 7):
        for case in ("QQ", "bQQ", "QbQ", "bQbQ"):
            for s in range(6):
                for r in range(s, s + 16):
                    for n in (-1, 0, 1, 2):
                        for chi in (1, -1):
                            try:
                                got = adem_expand_lower(r, s, n, chi, p, case)
                            except ContractError:
                                continue
                            calls += 1
                            key = (p, case, s, r, n, chi, sorted(got.items()))
                            h.update(repr(key).encode())
    assert calls == 8160
    assert h.hexdigest() == (
        "28d925e8f07eb83f6241fa929c20b13a4fa5f68911272be98c41bc968f135bde"
    )


# ---------------------------------------------------------------------------
# the two expansion routes agree (frozen spot checks; the full grid is an
# acceptance test)

CROSS_ORACLES = [
    # (r, s, case, n, p, chi, expected dict over upper words)
    (2, 1, "QbQ", 0, 3, -1, {((1, 3), (0, 1)): 1}),
    (4, 1, "QbQ", 0, 3, -1, {}),
    (6, 1, "QbQ", 0, 3, -1, {((0, 5), (1, 3)): 2}),
    (8, 1, "QbQ", 0, 3, -1, {((1, 7), (0, 3)): 2}),
    (8, 3, "QbQ", 0, 3, -1, {((1, 11), (0, 5)): 1, ((0, 11), (1, 5)): 2}),
    (3, 2, "QbQ", 0, 3, 1, {((1, 6), (0, 2)): 2}),
    (9, 2, "QbQ", 0, 3, 1, {((1, 10), (0, 4)): 1}),
    (2, 1, "QbQ", 0, 5, -1, {((1, 5), (0, 1)): 3}),
    (12, 1, "QbQ", 0, 5, -1, {((1, 13), (0, 3)): 2}),
    (7, 3, "QQ", 0, 3, -1, {((0, 11), (0, 5)): 2}),
    (7, 3, "bQQ", 0, 3, -1, {((1, 11), (0, 5)): 2}),
    (8, 3, "bQbQ", 0, 3, -1, {((1, 11), (1, 5)): 2}),
]


@pytest.mark.parametrize("r,s,case,n,p,chi,want", CROSS_ORACLES)
def test_cross_check_frozen(r, s, case, n, p, chi, want):
    route_a, route_b = cross_check_composite(r, s, case, n, p, chi)
    assert route_a == want
    assert route_b == want


def test_cross_check_small_grid():
    for p in (3, 5):
        for case in ("QQ", "bQQ", "QbQ", "bQbQ"):
            for s in range(0, 5):
                for r in range(s + 1, 7):
                    for n in (0, 1, 2):
                        for chi in (1, -1):
                            a, b = cross_check_composite(r, s, case, n, p, chi)
                            assert a == b, (r, s, case, n, p, chi, a, b)


# ---------------------------------------------------------------------------
# property tests


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([3, 5, 7]),
    st.sampled_from([1, -1]),
    st.lists(
        st.tuples(st.integers(0, 1), st.integers(-3, 8)), min_size=1, max_size=3
    ),
)
def test_normalize_properties(p, tw, raw):
    par = 0 if tw == 1 else 1
    w = tuple((e, 2 * h + par) for e, h in raw)
    e = DLElement(p, tw, {w: 1})
    nf = normalize(e)
    assert normalize(nf) == nf
    assert normalize(e, "rightmost") == nf
    for word in nf.terms:
        assert admissible(word, p, tw)
        assert word_degree(word, p) == word_degree(w, p)


def _right_parity(w, twist):
    want = 0 if twist == 1 else 1
    return all(s2 % 2 == want for _, s2 in w)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.sampled_from([3, 5]),
    st.sampled_from([1, -1]),
    st.dictionaries(
        st.lists(st.tuples(st.integers(0, 1), st.integers(-4, 14)), max_size=3).map(tuple),
        st.integers(1, 4),
        max_size=5,
    ),
)
@example(3, 1, {((0, 6), (0, 2)): 1})  # admissible
@example(3, 1, {((0, 4), (0, 0)): 1})  # inadmissible
@example(3, 1, {((0, 3), (0, 2)): 2})  # first letter of the wrong parity
@example(3, -1, {((0, 5), (1, 1), (0, 2)): 1})  # a later letter of the wrong parity
@example(5, 1, {(): 3})  # the empty word
@example(3, 1, {(): 1, ((0, 6), (0, 2)): 2, ((0, 4), (0, 0)): 1, ((0, 3),): 1,
                ((0, 2), (0, 1)): 2, ((1, 12), (0, 2), (0, 0)): 1})  # all of them
def test_normalize_drops_wrong_parity_words_first(p, twist, terms):
    # the front scan drops the words of the wrong parity: normalizing
    # without them first gives the same result, and the input is not changed
    elt = DLElement(p, twist, terms)
    before = list(elt.terms.items())
    kept = DLElement(p, twist, {w: c for w, c in terms.items() if _right_parity(w, twist)})
    for strategy in ("leftmost", "rightmost"):
        got = normalize(elt, strategy)
        assert got == normalize(kept, strategy)
        assert list(elt.terms.items()) == before
        assert got.terms is not elt.terms
