"""End-to-end acceptance checks, one per stated criterion.

Each test prints a single `ACCEPTANCE n: PASS/FAIL` line (bypassing capture)
and enforces the stated runtime limit.
"""

import math
import random
import time
from contextlib import contextmanager

from dyerlashof.arith import HalfInt, binom_mod_p
from dyerlashof.action import apply_op
from dyerlashof.appcalc import (
    alternating_table,
    point_context,
    sym_sign_table,
    sym_trivial_table,
)
from dyerlashof.dlalgebra import (
    DLElement,
    cross_check_composite,
    normalize,
    word_degree,
)
from dyerlashof.freealg import (
    AlgebraElement,
    Context,
    Generator,
    QClass,
    _enumerate_monomials,
    basis,
    enumerate_qset,
    monomial_bidegree,
    monomial_charge,
    monomial_str,
    multiply,
)
from dyerlashof.grading import GradingGroup, TwistCharacter


@contextmanager
def criterion(capsys, n, limit):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - t0
        with capsys.disabled():
            print(f"\nACCEPTANCE {n}: FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - t0
    ok = elapsed < limit
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"\nACCEPTANCE {n}: {verdict} ({elapsed:.2f}s, limit {limit:g}s)")
    assert ok, f"runtime {elapsed:.2f}s exceeded the {limit:g}s limit"


def test_acceptance_1_paper_examples(capsys):
    with criterion(capsys, 1, 1.0):
        ctx = point_context(3, -1, 10, 9)
        x = ctx.generator("x")

        def labels(g, n):
            return [monomial_str(m) for m in basis(((g,), n), 9, ctx)]

        assert labels(3, 1) == ["bQ^{1/2} x"]
        assert labels(3, 2) == ["Q^{1/2} x"]
        assert labels(2, 0) == []
        assert labels(4, 1) == ["x * bQ^{1/2} x"]
        assert basis(((4,), 1), 9, ctx) == [
            (QClass(x, ()), QClass(x, ((1, 1),)))
        ]
        alt = alternating_table(3, 4, 2)
        assert alt[(3, 1)].dim == 1
        assert alt[(4, 1)].dim == 1


def test_acceptance_2_sign_oracle(capsys):
    with criterion(capsys, 2, 1.0):
        table = sym_sign_table(3, 3, 10)
        col = {q: row.dim for (k, q), row in table.items() if k == 3}
        assert col == {q: 1 for q in range(11) if q % 4 in (1, 2)}


def test_acceptance_3_untwisted_oracle(capsys):
    with criterion(capsys, 3, 1.0):
        table = sym_trivial_table(3, 3, 10)
        col = {q: row.dim for (k, q), row in table.items() if k == 3}
        assert col == {q: 1 for q in range(11) if q % 4 in (0, 3)}


def _rewrite_corpus(rng):
    """Random operation words covering length <= 4, |2s| <= 40, p in {3,5,7}.

    Full-range sampling is used wherever it is affordable; the length-4
    strata with deeply negative indices blow up to millions of terms per
    word (the rewriting DAG is exponential in depth for any algorithm), so
    those strata carry tempered index ranges plus small full-range slices.
    """
    strata = [
        # (count, primes, length, lo, hi) with indices 2s drawn from [2lo, 2hi]
        (1800, (3, 5, 7), 1, -20, 20),
        (6000, (3, 5, 7), 2, -20, 20),
        (900, (3,), 3, -20, 20),
        (180, (5,), 3, -20, 20),
        (25, (7,), 3, -20, 20),
        (400, (7,), 3, -8, 20),
        (300, (3,), 4, -6, 20),
        (120, (5,), 4, -4, 20),
        (400, (7,), 4, -2, 20),
    ]
    words = []
    for count, primes, k, lo, hi in strata:
        for _ in range(count):
            p = rng.choice(primes)
            par = rng.randint(0, 1)
            entries = tuple(
                (rng.randint(0, 1), 2 * rng.randint(lo, hi) + par) for _ in range(k)
            )
            words.append((p, -1 if par else 1, entries))
    return words


def test_acceptance_4_rewriter(capsys):
    with criterion(capsys, 4, 60.0):
        rng = random.Random(2024)
        words = _rewrite_corpus(rng)
        assert len(words) >= 10**4
        for p, twist, entries in words:
            elt = DLElement(p, twist, {entries: 1})
            left = normalize(elt, "leftmost")
            right = normalize(elt, "rightmost")
            assert left.terms == right.terms
            again = normalize(left)
            assert again.terms == left.terms
            d = word_degree(entries, p)
            for w in left.terms:
                assert word_degree(w, p) == d
                assert len(w) == len(entries)  # the charge p^len is kept


def test_acceptance_5_upper_lower_crosscheck(capsys):
    with criterion(capsys, 5, 10.0):
        for p in (3, 5):
            for case in ("QQ", "bQQ", "QbQ", "bQbQ"):
                for chi_g in (1, -1):
                    for n in (0, 1, 2):
                        for r in range(1, 13):
                            for s in range(r):
                                a, b = cross_check_composite(r, s, case, n, p, chi_g)
                                assert a == b, (p, case, chi_g, n, r, s)


def test_acceptance_6_lucas(capsys):
    with criterion(capsys, 6, 5.0):
        for p in (3, 5, 7):
            for m in range(201):
                row = [math.comb(m, n) % p for n in range(m + 1)]
                for n in range(m + 1):
                    assert binom_mod_p(m, n, p) == row[n]


def test_acceptance_7_action_contracts(capsys):
    with criterion(capsys, 7, 30.0):
        for twist in (-1, 1):
            ctx = point_context(3, twist, 12, 9)
            p = ctx.p
            monos = [
                m for m, _, n, _ in _enumerate_monomials(ctx, 12, 9) if 0 <= n
            ]
            assert monos
            for mono in monos:
                g, n = monomial_bidegree(mono, ctx)
                c = monomial_charge(mono, ctx)
                par = ctx.chi.parity(g)
                elt = AlgebraElement.from_monomial(ctx, mono)
                for eps in (0, 1):
                    for s2 in range(n - 3, n + 13):
                        out = apply_op(eps, HalfInt(s2), elt, ctx)
                        if s2 % 2 != par:
                            assert out.is_zero  # twist mismatch
                            continue
                        if s2 < n + eps:
                            assert out.is_zero  # below the range
                            continue
                        for m2 in out.terms:
                            g2, n2 = monomial_bidegree(m2, ctx)
                            assert g2 == ctx.group.scale(p, g)
                            assert n2 == n + s2 * (p - 1) - eps
                            assert monomial_charge(m2, ctx) == p * c
                        if eps == 0 and s2 == n:
                            power = AlgebraElement.unit(ctx)
                            for _ in range(p):
                                power = multiply(power, elt, ctx)
                            assert out == power  # p-th power on the nose


def test_acceptance_8_degree_law(capsys):
    with criterion(capsys, 8, 10.0):
        group = GradingGroup(1)
        for twist in (-1, 1):
            chi = TwistCharacter(group, (twist,))
            for n in range(-2, 4):
                ctx = Context(3, group, chi, [Generator("x", (1,), n)],
                              max_degree=10, max_charge=27)
                classes = enumerate_qset(ctx, 10, 27)
                assert classes
                for qc in classes:
                    d = qc.degree(3)
                    c = qc.charge(3)
                    assert d >= c * n, (twist, n, qc)
                    assert (d == c * n) == (not qc.word), (twist, n, qc)
