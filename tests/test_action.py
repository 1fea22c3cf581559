import functools
import hashlib
import inspect
import random
import sys

import pytest

from dyerlashof.appcalc import point_context
from dyerlashof.arith import HalfInt
from dyerlashof.dlalgebra import _family_row, adem_expand
from dyerlashof.errors import ContractError, Meter
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
)
from dyerlashof.grading import GradingGroup, TwistCharacter
from dyerlashof.action import _blocks, apply_op, apply_word, suspension_check
from sign_oracle import apply_op_by_factors


def make_ctx(p=3, twist=-1, gens=(("x", (1,), 0),)):
    group = GradingGroup(1)
    chi = TwistCharacter(group, (twist,))
    return Context(p, group, chi, [Generator(n, g, d) for n, g, d in gens])


SIGN = make_ctx(3, -1)
UNTW = make_ctx(3, 1)


def single(ctx, name, *entries):
    return AlgebraElement.from_monomial(ctx, (QClass(ctx.generator(name), tuple(entries)),))


def H(k):
    return HalfInt(k)  # index given as its double


# ---------------------------------------------------------------------------
# unit and one-factor rules


def test_unit_rules():
    one = AlgebraElement.unit(SIGN)
    assert apply_op(0, H(0), one, SIGN) == one
    assert apply_op(0, H(2), one, SIGN).is_zero
    assert apply_op(1, H(2), one, SIGN).is_zero
    assert apply_op(0, H(-2), one, SIGN).is_zero
    assert apply_op(0, H(1), one, SIGN).is_zero  # twist mismatch too


def test_one_factor_rules_cost_nothing():
    # below range, a twist mismatch and the bottom p-th power are read off
    # the one-factor path without rewriting or an Adem family row
    ctx = make_ctx(3, -1)
    x = single(ctx, "x")
    bq = single(ctx, "x", (1, 1))
    with Meter(0):
        assert apply_op(0, H(-1_999_999), x, ctx).is_zero
        assert apply_op(1, H(-1), x, ctx).is_zero
        assert apply_op(0, H(2), x, ctx).is_zero
        (bqc,), = bq.terms
        assert apply_op(0, H(1), bq, ctx) == AlgebraElement.from_monomial(ctx, (bqc,) * 3)


def test_power_rule():
    ctx = make_ctx(3, 1, gens=(("x", (1,), 2),))
    x = single(ctx, "x")
    cube = apply_op(0, H(2), x, ctx)
    xq = QClass(ctx.generator("x"), ())
    assert cube == AlgebraElement.from_monomial(ctx, (xq, xq, xq))


def test_power_rule_kills_odd_square():
    # x at degree 0 in the sign preset: x^2 = 0, so Q^0 x would be zero, but
    # Q^0 is already a twist mismatch; check the twisted power instead
    bq = single(SIGN, "x", (1, 1))  # degree 1, repeatable
    p3 = apply_op(0, H(1), bq, SIGN)  # 2s = 1 = n: p-th power
    f = QClass(SIGN.generator("x"), ((1, 1),))
    assert p3 == AlgebraElement.from_monomial(SIGN, (f, f, f))
    x = single(UNTW, "x")  # degree 0, untwisted: Q^0 x = x^3
    xq = QClass(UNTW.generator("x"), ())
    assert apply_op(0, H(0), x, UNTW) == AlgebraElement.from_monomial(UNTW, (xq, xq, xq))


def test_basic_qset_building():
    x = single(SIGN, "x")
    assert apply_op(0, H(1), x, SIGN) == single(SIGN, "x", (0, 1))
    assert apply_op(1, H(1), x, SIGN) == single(SIGN, "x", (1, 1))
    got = apply_op(0, H(3), single(SIGN, "x", (0, 1)), SIGN)
    assert got == single(SIGN, "x", (0, 3), (0, 1))


def test_vanishing_rules():
    x = single(SIGN, "x")
    assert apply_op(0, H(-1), x, SIGN).is_zero  # 2s < n
    assert apply_op(1, H(-1), x, SIGN).is_zero
    assert apply_op(0, H(2), x, SIGN).is_zero  # twist mismatch
    bq = single(SIGN, "x", (1, 1))  # degree 1
    assert apply_op(1, H(1), bq, SIGN).is_zero  # beta Q with 2s <= n
    assert apply_op(0, H(-1), bq, SIGN).is_zero
    # a twist mismatch on a product, at and above its degree 3
    xbq = AlgebraElement.from_monomial(SIGN, next(iter(x.terms)) + next(iter(bq.terms)))
    for s2 in (3, 5, 7):
        for eps in (0, 1):
            assert apply_op(eps, H(s2), xbq, SIGN).is_zero


def test_bad_inputs():
    with pytest.raises(ContractError):
        apply_op(2, H(1), AlgebraElement.unit(SIGN), SIGN)
    with pytest.raises(ContractError):
        apply_op(0, "1/2", AlgebraElement.unit(SIGN), SIGN)
    # a bool is not an index or an eps, however it compares; an index is a
    # HalfInt, never a bare int
    for eps, s in ((0, True), (True, H(0)), (0, HalfInt(True)), (False, H(1)), (0, 1)):
        with pytest.raises(ContractError):
            apply_op(eps, s, single(SIGN, "x"), SIGN)


def test_element_of_another_context():
    # x^3 in the untwisted context, but 0 in x's own: the action refuses an
    # element of another context, as multiply and add do, and a non-element,
    # the empty word too
    sign, untw = point_context(3, -1, 10, 9), point_context(3, 1, 10, 9)
    x = single(sign, "x")
    for elt in (x, "x", None):
        with pytest.raises(ContractError):
            apply_op(0, H(0), elt, untw)
        for word in (((0, 0),), ()):
            with pytest.raises(ContractError):
                apply_word(word, elt, untw)
    assert apply_op(0, H(0), x, sign).is_zero


# ---------------------------------------------------------------------------
# Cartan formula


def test_cartan_product_vanishing():
    ctx = make_ctx(3, 1, gens=(("x", (1,), 1), ("y", (1,), 1)))
    xy = AlgebraElement.from_monomial(
        ctx, (QClass(ctx.generator("x"), ()), QClass(ctx.generator("y"), ()))
    )
    assert apply_op(0, H(2), xy, ctx).is_zero


def test_cartan_power_consistency():
    # Q^{n/2} on a product of even classes is the p-th power of the product
    ctx = make_ctx(3, 1, gens=(("x", (1,), 2), ("y", (1,), 2)))
    xq, yq = QClass(ctx.generator("x"), ()), QClass(ctx.generator("y"), ())
    xy = AlgebraElement.from_monomial(ctx, (xq, yq))
    got = apply_op(0, H(4), xy, ctx)
    assert got == AlgebraElement.from_monomial(ctx, (xq,) * 3 + (yq,) * 3)


def test_cartan_power_consistency_twisted_factors():
    # same consistency when both factors carry the twisted parity and odd
    # degree: the shuffle scalar cancels the inner Cartan sign
    a = QClass(SIGN.generator("x"), ((1, 1),))  # degree 1 at charge 3
    b = QClass(SIGN.generator("x"), ((1, 3),))  # degree 5 at charge 3
    ab = AlgebraElement.from_monomial(SIGN, (a, b))
    got = apply_op(0, HalfInt(6), ab, SIGN)
    assert got == AlgebraElement.from_monomial(SIGN, (a,) * 3 + (b,) * 3)


def test_cartan_beta_leibniz_small():
    # beta Q^s on a two-factor monomial: check one nontrivial expansion by hand
    ctx = make_ctx(3, -1, gens=(("x", (1,), 0), ("y", (1,), 0)))
    xq, yq = QClass(ctx.generator("x"), ()), QClass(ctx.generator("y"), ())
    xy = AlgebraElement.from_monomial(ctx, (xq, yq))
    # beta Q^1(xy), s2 = 2: j2 + k2 = 2 with both odd forces j2 = k2 = 1.
    # Sum sign (-1)^{2jk(p-1)} = -1, shuffle scalar for two twisted lines at
    # p = 3 another -1, so both terms come out positive.
    got = apply_op(1, H(2), xy, ctx)
    bx = QClass(ctx.generator("x"), ((1, 1),))
    qx = QClass(ctx.generator("x"), ((0, 1),))
    by = QClass(ctx.generator("y"), ((1, 1),))
    qy = QClass(ctx.generator("y"), ((0, 1),))
    want = AlgebraElement(ctx, {(bx, qy): 1, (qx, by): 1})
    assert got == want


# ---------------------------------------------------------------------------
# contracts over enumerated bases


@pytest.mark.parametrize("ctx", [SIGN, UNTW, make_ctx(5, -1)], ids=["sign3", "untw3", "sign5"])
def test_tridegree_contract(ctx):
    p = ctx.p
    mono_pool = []
    for n in range(-1, 13):
        for m in basis(((1,), n), p, ctx) + basis(((p,), n), p, ctx) + basis(
            ((p + 1,), n), p + 1, ctx
        ):
            mono_pool.append(m)
    assert mono_pool
    for mono in mono_pool:
        g, n = monomial_bidegree(mono, ctx)
        c = monomial_charge(mono, ctx)
        par = ctx.chi.parity(g)
        for eps in (0, 1):
            for s2 in range(n - 2 + ((n - par) % 2), n + 10, 2):
                out = apply_op(eps, H(s2), AlgebraElement.from_monomial(ctx, mono), ctx)
                for m2 in out.terms:
                    g2, n2 = monomial_bidegree(m2, ctx)
                    assert g2 == ctx.group.scale(p, g)
                    assert n2 == n + s2 * (p - 1) - eps
                    assert monomial_charge(m2, ctx) == p * c
                if s2 < n + eps:
                    assert out.is_zero


def test_adem_coherence():
    rng = random.Random(17)
    for ctx in (SIGN, UNTW, make_ctx(5, -1)):
        p = ctx.p
        pool = enumerate_qset(ctx, 10, p * p)
        par = ctx.chi.parity(ctx.generators[0].g)
        for _ in range(40):
            qc = rng.choice(pool)
            target = AlgebraElement.from_monomial(ctx, (qc,))
            e2, e1 = rng.randint(0, 1), rng.randint(0, 1)
            s2 = 2 * rng.randint(0, 4) + par
            r2 = p * s2 - 2 * e2 + 2 * rng.randint(1, 6)
            twist = 1 if par == 0 else -1
            direct = apply_op(e1, H(r2), apply_op(e2, H(s2), target, ctx), ctx)
            via = AlgebraElement.zero(ctx)
            for w, c in adem_expand((e1, r2), (e2, s2), twist, p):
                via = via.add(apply_word(w, target, ctx).scale(c))
            assert direct == via, (ctx.p, qc, (e1, r2), (e2, s2))


def _z2_context(p, max_degree, max_charge):
    # ROADMAP item 1's mixed context: chi = (-1, +1), x twisted and y
    # untwisted in degree 0, z twisted in degree 1
    group = GradingGroup(2)
    chi = TwistCharacter(group, (-1, 1))
    gens = [Generator("x", (1, 0), 0), Generator("y", (0, 1), 0), Generator("z", (1, 0), 1)]
    return Context(p, group, chi, gens, max_degree=max_degree, max_charge=max_charge)


# (context, p) -> the context at a size with a few products of two or more
# factors, kept small enough for the whole law to run in a few seconds
_LAW_CONTEXTS = {
    ("sign", 3): lambda: point_context(3, -1, 8, 6),
    ("sign", 5): lambda: point_context(5, -1, 10, 25),
    ("sign", 7): lambda: point_context(7, -1, 10, 9),
    ("sign", 11): lambda: point_context(11, -1, 44, 12),
    ("sign", 13): lambda: point_context(13, -1, 52, 14),
    ("untw", 3): lambda: point_context(3, 1, 8, 6),
    ("untw", 5): lambda: point_context(5, 1, 8, 6),
    ("untw", 7): lambda: point_context(7, 1, 12, 8),
    ("z2", 3): lambda: _z2_context(3, 6, 4),
    ("z2", 5): lambda: _z2_context(5, 10, 3),
    ("z2", 7): lambda: _z2_context(7, 10, 3),
}
# the action breaks the law on these cells (ROADMAP item 1): at p = 3 the
# case Q^r bQ^s fails on 9 of the 10 sign products and 24 of the 40 Z^2
# products, and bQ^r bQ^s on 1 of the 40; at p = 7 Q^r bQ^s fails on 2 of 2
# and 6 of 12, and at p = 11 on 4 of 4 sign products (p = 13 holds).  A
# fix turns them into strict XPASS failures.
_LAW_FAILS = {("sign", 3, (0, 1)), ("z2", 3, (0, 1)), ("z2", 3, (1, 1)),
              ("sign", 7, (0, 1)), ("z2", 7, (0, 1)), ("sign", 11, (0, 1))}


@functools.cache
def _law_products(kind, p):
    ctx = _LAW_CONTEXTS[kind, p]()
    monos = [(m, g, n) for m, g, n, _ in
             _enumerate_monomials(ctx, ctx.max_degree, ctx.max_charge) if len(m) >= 2]
    return ctx, monos


@pytest.mark.parametrize("kind,p,case", [
    pytest.param(kind, p, case, id=f"{kind}-p{p}-e{case[0]}{case[1]}",
                 marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
                 if (kind, p, case) in _LAW_FAILS else ())
    for kind, p in _LAW_CONTEXTS for case in ((0, 0), (1, 0), (0, 1), (1, 1))
])
def test_adem_coherence_on_products(kind, p, case):
    # bQ^r composed with bQ^s through apply_op equals the Adem expansion of
    # the pair, on every product of two or more factors, at the least
    # nonvanishing s and the least inadmissible r
    ctx, monos = _law_products(kind, p)
    assert monos
    e1, e2 = case
    bad = []
    for mono, g, n in monos:
        par = ctx.chi.parity(g)
        s2 = n + e2 + (n + e2 - par) % 2
        r2 = p * s2 - 2 * e2 + 2
        target = AlgebraElement.from_monomial(ctx, mono)
        direct = apply_op(e1, H(r2), apply_op(e2, H(s2), target, ctx), ctx)
        via = AlgebraElement.zero(ctx)
        for w, c in adem_expand((e1, r2), (e2, s2), -1 if par else 1, p):
            via = via.add(apply_word(w, target, ctx).scale(c))
        if direct != via:
            bad.append(mono)
    assert not bad, f"{len(bad)} of {len(monos)} products break the law"


# contexts with runs of p or more equal factors: acceptance 7's, the Z^2
# context and p = 5 at charge 25
_BLOCK_CONTEXTS = {
    "sign-p3": lambda: point_context(3, -1, 12, 9),
    "untw-p3": lambda: point_context(3, 1, 12, 9),
    "z2-p3": lambda: _z2_context(3, 6, 6),
    "sign-p5": lambda: point_context(5, -1, 15, 25),
    "untw-p5": lambda: point_context(5, 1, 10, 25),
}


def _check_against_factor_walk(ctx, monos):
    # apply_op acts on a run of p^k equal factors as one block, by the
    # Frobenius identity; the oracle walks the Cartan formula factor by factor
    bad = []
    for mono in monos:
        elt = AlgebraElement.from_monomial(ctx, mono)
        n = monomial_bidegree(mono, ctx)[1]
        for eps in (0, 1):
            for s2 in range(n - 3, n + 13):
                if apply_op(eps, H(s2), elt, ctx) != apply_op_by_factors(eps, s2, elt, ctx):
                    bad.append((mono, eps, s2))
    return bad


@pytest.mark.parametrize("name", _BLOCK_CONTEXTS)
def test_blocks_match_the_factor_walk(name):
    ctx = _BLOCK_CONTEXTS[name]()
    monos = [m for m, _, _, _ in _enumerate_monomials(ctx, ctx.max_degree, ctx.max_charge)
             if len(set(m)) < len(m)]
    assert any(len(m) >= ctx.p and m[0] == m[ctx.p - 1] for m in monos)
    assert not _check_against_factor_walk(ctx, monos)


# twisted contexts at p = 3 and 7, the mixed-parity Z^2 context among them
_PRODUCT_CONTEXTS = {
    "sign-p3": lambda: point_context(3, -1, 12, 9),
    "sign-p7": lambda: point_context(7, -1, 40, 49),
    "z2-p3": lambda: _z2_context(3, 6, 6),
    "z2-p7": lambda: _z2_context(7, 20, 9),
}


@pytest.mark.parametrize("name", _PRODUCT_CONTEXTS)
def test_products_match_the_factor_walk(name):
    # every monomial of two or more blocks, repeats or not.  The oracle
    # keeps the twist sign the Cartan step dropped as always +1.  First, on
    # fresh caches, every op below the vanishing law, 2s < |m| + eps, is
    # zero and charges nothing
    ctx = _PRODUCT_CONTEXTS[name]()
    monos = [m for m, _, _, _ in _enumerate_monomials(ctx, ctx.max_degree, ctx.max_charge)
             if len(_blocks(m, ctx.p)[1]) >= 2]
    assert any(len(set(m)) == len(m) for m in monos)
    for mono in monos:
        elt = AlgebraElement.from_monomial(ctx, mono)
        n = monomial_bidegree(mono, ctx)[1]
        for eps in (0, 1):
            for s2 in range(n - 3, n + eps):
                with Meter() as m:
                    assert apply_op(eps, H(s2), elt, ctx).is_zero, (mono, eps, s2)
                assert not m.counts, (mono, eps, s2, m.counts)
    assert not _check_against_factor_walk(ctx, monos)


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("twist", [1, -1])
def test_prime_power_blocks_match_the_factor_walk(p, twist):
    # x^(p^k), k <= 2, with x repeatable: of even degree when untwisted and
    # of odd degree when twisted
    for n in ((-2, 0, 2) if twist == 1 else (-1, 1, 3)):
        ctx = make_ctx(p, twist, gens=(("x", (1,), n),))
        x = QClass(ctx.generator("x"), ())
        assert not _check_against_factor_walk(ctx, [(x,) * p**k for k in range(3)])


def test_linearity():
    a = single(SIGN, "x", (0, 1))
    b = single(SIGN, "x", (1, 1))
    e = a.scale(2).add(b)
    got = apply_op(1, H(3), e, SIGN)
    want = apply_op(1, H(3), a, SIGN).scale(2).add(apply_op(1, H(3), b, SIGN))
    assert got == want


def test_results_share_no_dict_with_the_caches():
    # the action caches its pieces; a caller that changes a result it was
    # handed changes nothing the next call reads
    xy = AlgebraElement.from_monomial(UNTW, (QClass(UNTW.generator("x"), ()),) * 2)
    for eps, s in ((0, H(0)), (0, H(4)), (1, H(4)), (0, H(6))):
        want = apply_op(eps, s, xy, UNTW)
        apply_op(eps, s, xy, UNTW).terms.clear()
        assert apply_op(eps, s, xy, UNTW) == want and not want.is_zero


def test_apply_word_matches_nested():
    t = single(SIGN, "x")
    w = ((1, 3), (0, 1))
    assert apply_word(w, t, SIGN) == apply_op(
        1, H(3), apply_op(0, H(1), t, SIGN), SIGN
    )


# ---------------------------------------------------------------------------
# suspension


def test_long_product_needs_no_stack():
    # the Cartan step loops over the suffixes of a product, so its depth does
    # not grow with the number of blocks: Q^0 x^120 = x^360 (x untwisted in
    # degree 0; four blocks, x^81 * x^27 * x^9 * x^3) and Q^0 on the squares
    # of 60 such generators, 120 blocks of one factor, within 100 frames of
    # the caller
    ctx = make_ctx(3, 1, gens=[(f"x{i:02}", (1,), 0) for i in range(60)])
    x = QClass(ctx.generator("x00"), ())
    squares = tuple(QClass(gen, ()) for gen in ctx.generators for _ in range(2))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        got = apply_op(0, H(0), AlgebraElement.from_monomial(ctx, (x,) * 120), ctx)
        got_squares = apply_op(0, H(0), AlgebraElement.from_monomial(ctx, squares), ctx)
    finally:
        sys.setrecursionlimit(limit)
    assert got == AlgebraElement.from_monomial(ctx, (x,) * 360)
    sixths = tuple(f for f in squares[::2] for _ in range(6))
    assert got_squares == AlgebraElement.from_monomial(ctx, sixths)


def test_suspension_check_passes():
    assert suspension_check(SIGN, max_degree=8, max_charge=3) == []
    assert suspension_check(UNTW, max_degree=8, max_charge=3) == []
    assert suspension_check(make_ctx(5, -1), max_degree=10, max_charge=5) == []


# ---------------------------------------------------------------------------
# the action kernel, pinned

_KERNEL_SPECS = ((3, 1, 8, 9), (3, -1, 13, 9), (5, -1, 12, 25), (7, 1, 14, 49))


def test_action_kernel_pinned():
    """Every basis monomial of degree n >= 0 of four point contexts, eps 0
    and 1, 2s - n from -3 to 12, in enumeration order from fresh caches: one
    sha256 over each call's output terms (sorted by sort key), and one over
    its meter counts.  The terms digest was recorded before the Cartan step
    summed its pieces into one dict and has not moved since.  The counts
    digest was re-pinned when the vanishing law (2s < |m| + eps gives zero)
    came to be read before any charge: "Cartan pieces" fell from 14,937 to
    14,713 units over the 8,256 calls, "multiply" stayed at 16,314.  It was
    re-pinned again when the Adem families came to share a row per
    (D, p, t_off): "Adem family rows" fell from 105 to 77 units, and the
    digest from 70ff1ccb... to ce1a097a...; "rewriting" stayed at 222.  The
    Adem caches are cleared first: a miss charges the meter."""
    adem_expand.cache_clear()
    _family_row.cache_clear()
    terms_hash, counts_hash = hashlib.sha256(), hashlib.sha256()
    calls = 0
    for spec in _KERNEL_SPECS:
        ctx = point_context(*spec)
        for mono, _, n, _ in _enumerate_monomials(ctx, spec[2], spec[3]):
            if n < 0:
                continue
            elt = AlgebraElement.from_monomial(ctx, mono)
            for eps in (0, 1):
                for s2 in range(n - 3, n + 13):
                    with Meter(10**9) as m:
                        out = apply_op(eps, H(s2), elt, ctx)
                    calls += 1
                    terms = sorted(([q.sort_key() for q in mono], c)
                                   for mono, c in out.terms.items())
                    terms_hash.update(repr(terms).encode())
                    counts_hash.update(repr(sorted(m.counts.items())).encode())
    assert calls == 8256
    assert terms_hash.hexdigest() == (
        "0488f61a5dc43dd8b63e9c9bd46ef096bfcc70e1e822f92d049cc59417f8ff2b"
    )
    assert counts_hash.hexdigest() == (
        "ce1a097aecfa0c6e459bc3531de2ea46883aa51f01fc75fa45d706a25e41c8ec"
    )


def _kernel_ops(spec):
    """The kernel pin's ops on one fresh context of its specs, in enumeration
    order: (element, eps, s2, whether the op is zero by the parity rule or
    the vanishing law)."""
    ctx = point_context(*spec)
    ops = []
    for mono, g, n, _ in _enumerate_monomials(ctx, spec[2], spec[3]):
        if n < 0:
            continue
        elt = AlgebraElement.from_monomial(ctx, mono)
        par = ctx.chi.parity(g)
        for eps in (0, 1):
            for s2 in range(n - 3, n + 13):
                ops.append((elt, eps, s2, (s2 - par) % 2 == 1 or s2 < n + eps))
    return ctx, ops


@pytest.mark.parametrize("spec", [(3, -1, 13, 9), (5, -1, 12, 25)])
def test_the_memo_does_not_depend_on_call_order(spec):
    # the action memo keeps one record per monomial, shared by the monomial's
    # own ops and by the Cartan steps that read it as a block suffix; run in
    # reverse, the ops meet the records filled in another order
    outs = {}
    for order in (1, -1):
        ctx, ops = _kernel_ops(spec)
        for k, (elt, eps, s2, zero) in list(enumerate(ops))[::order]:
            with Meter(10**9) as m:
                out = apply_op(eps, H(s2), elt, ctx)
            if zero:
                assert out.is_zero and not m.counts, (order, elt, eps, s2, m.counts)
            outs.setdefault(k, out.terms)
            assert out.terms == outs[k], (order, elt, eps, s2)
    assert len(outs) == len(ops) and any(outs.values())


def test_action_results_pass_the_boundary_checks():
    """On the kernel's contexts every result rebuilt through the checking
    constructor is unchanged: its monomials are sorted, repeat only
    repeatable classes, and have only classes of Q(S) as factors.  The p = 7
    context runs to charge 49, with terms of up to 343 factors: a run of one
    factor object is checked once, so they cost little more than the rest."""
    calls = 0
    for spec in _KERNEL_SPECS:
        ctx = point_context(*spec)
        for mono, _, n, _ in _enumerate_monomials(ctx, spec[2], spec[3]):
            if n < 0:
                continue
            elt = AlgebraElement.from_monomial(ctx, mono)
            for eps in (0, 1):
                for s2 in range(n - 3, n + 13):
                    out = apply_op(eps, H(s2), elt, ctx)
                    assert AlgebraElement(ctx, out.terms) == out, (spec, mono, eps, s2)
                    calls += 1
    assert calls == 3904 + 4352
