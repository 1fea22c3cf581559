import itertools
import random
from collections import Counter

import pytest

from dyerlashof.dlalgebra import _find_inadmissible, excess, word_degree
from dyerlashof.errors import ContractError, ResourceError, ValidationError
from dyerlashof.freealg import (
    AlgebraElement,
    Context,
    Generator,
    QClass,
    _enumerate_monomials,
    _merge_monomials,
    _repeatable,
    basis,
    enumerate_dmodule_basis,
    enumerate_qset,
    monomial_bidegree,
    monomial_charge,
    multiply,
    poincare_table,
    qclass_str,
)
from dyerlashof.grading import GradingGroup, TwistCharacter
from sign_oracle import merge_pairwise, swap_sign


def make_ctx(p=3, twist=-1, gens=((("x"), (1,), 0),), **kw):
    group = GradingGroup(1)
    chi = TwistCharacter(group, (twist,))
    return Context(p, group, chi, [Generator(n, g, d) for n, g, d in gens], **kw)


SIGN = make_ctx(3, -1)
UNTW = make_ctx(3, 1)


def words(qcs):
    return {qc.word for qc in qcs}


def admissible(entries, p, twist):
    """Every index in the twist parity class and no inadmissible junction."""
    want = 0 if twist == 1 else 1
    return (
        all(s2 % 2 == want for _, s2 in entries)
        and _find_inadmissible(entries, p, "leftmost") is None
    )


# ---------------------------------------------------------------------------
# Q(S) enumeration


def test_qset_sign_preset_small():
    x = SIGN.generator("x")
    got = enumerate_qset([x], 2, 3, SIGN)
    assert words(got) == {(), ((1, 1),), ((0, 1),)}
    strs = sorted(qclass_str(qc) for qc in got)
    assert strs == ["Q^{1/2} x", "bQ^{1/2} x", "x"]


def test_qset_excludes_excess_equality():
    x = SIGN.generator("x")
    got = words(enumerate_qset([x], 20, 9, SIGN))
    assert ((1, 1), (1, 1)) not in got  # e + eps_1 = 0, not > 0
    assert ((0, 1), (1, 1)) not in got  # e + eps_1 = 0 as well (p-th power)
    assert ((1, 3), (0, 1)) in got  # e + eps_1 = 2 > 0
    assert ((0, 3), (0, 1)) in got
    assert ((1, 7), (1, 3)) in got


def test_qset_empty_gens():
    assert enumerate_qset([], 10, 9, SIGN) == []


def test_dmodule_weak_inequality():
    x = SIGN.generator("x")
    dmod = words(enumerate_dmodule_basis(x, 20, SIGN, max_charge=9))
    assert ((0, 1), (1, 1)) in dmod  # e(I) = 0 >= 0
    assert ((1, 1), (1, 1)) not in dmod  # e(I) = -1 < 0
    y = UNTW.generator("x")
    dmod_u = words(enumerate_dmodule_basis(y, 20, UNTW, max_charge=9))
    assert ((0, 0),) in dmod_u  # Q^0, the p-th power
    assert () in dmod_u


def test_dmodule_needs_charge_cutoff():
    x = UNTW.generator("x")
    with pytest.raises(ContractError):
        enumerate_dmodule_basis(x, 10, UNTW)
    ctx = make_ctx(3, 1, max_charge=9)
    got = enumerate_dmodule_basis(ctx.generator("x"), 0, ctx)
    assert words(got) == {(), ((0, 0),), ((0, 0), (0, 0))}


def test_qset_subset_of_dmodule():
    for ctx in (SIGN, UNTW, make_ctx(5, -1), make_ctx(5, 1, gens=(("y", (1,), 2),))):
        for gen in ctx.generators:
            qs = words(enumerate_qset([gen], 15, ctx.p**2, ctx))
            dm = words(enumerate_dmodule_basis(gen, 15, ctx, max_charge=ctx.p**2))
            assert qs <= dm


def test_qset_brute_force_cross_check():
    # independent route: generate every parity-correct word over a wide index
    # window, filter by the definition, compare
    for ctx, n in ((SIGN, 0), (UNTW, 0), (make_ctx(3, 1, gens=(("z", (1,), -2),)), -2),
                   (make_ctx(5, -1), 0)):
        p = ctx.p
        gen = ctx.generators[0]
        par = ctx.chi.parity(gen.g)
        max_deg, max_chg = 8, p * p
        got = words(enumerate_qset([gen], max_deg, max_chg, ctx))
        window = [
            (e, s2)
            for e in (0, 1)
            for s2 in range(-12 - par, 14, 2)
        ]
        brute = {()} if n <= max_deg else set()
        for length in (1, 2):
            if p**length > max_chg:
                continue
            for w in itertools.product(window, repeat=length):
                if not admissible(w, p, 1 if par == 0 else -1):
                    continue
                if excess(w, p) + w[0][0] <= n:
                    continue
                if n + word_degree(w, p) > max_deg:
                    continue
                brute.add(w)
        assert got == brute, (ctx.p, n)
        # the window is wide enough that nothing escapes it
        for w in got:
            assert all(-13 <= s2 <= 13 for _, s2 in w)


def test_degree_law():
    for ctx in (SIGN, UNTW, make_ctx(3, -1, gens=(("w", (1,), -2),)),
                make_ctx(5, 1, gens=(("v", (1,), 3),))):
        for gen in ctx.generators:
            for qc in enumerate_qset([gen], 18, ctx.p**2, ctx):
                d = qc.degree(ctx.p)
                assert d >= qc.charge(ctx.p) * gen.n
                if d == qc.charge(ctx.p) * gen.n:
                    assert qc.word == ()


def test_enumeration_budget():
    ctx = make_ctx(3, -1, budget=3)
    with pytest.raises(ResourceError):
        enumerate_qset([ctx.generator("x")], 30, 27, ctx)
    # the word enumeration fits in 1000 nodes; the monomial walk and the
    # table count do not
    ctx = make_ctx(3, -1, budget=1000)
    enumerate_qset(ctx.generators, 60, 81, ctx)
    with pytest.raises(ResourceError, match="monomial enumeration"):
        _enumerate_monomials(ctx, 60, 81)
    with pytest.raises(ResourceError, match="monomial enumeration"):
        basis(((81,), 60), 81, ctx)
    with pytest.raises(ResourceError, match="table count"):
        poincare_table(ctx, 60, 81)


# ---------------------------------------------------------------------------
# monomial basis


def Q(ctx, name, *entries):
    return QClass(ctx.generator(name), tuple(entries))


def test_basis_examples():
    assert basis(((0,), 0), 9, SIGN) == [()]
    assert basis(((2,), 0), 9, SIGN) == []  # x^2 = 0 in the sign preset
    b31 = basis(((3,), 1), 9, SIGN)
    assert b31 == [(Q(SIGN, "x", (1, 1)),)]
    b32 = basis(((3,), 2), 9, SIGN)
    assert b32 == [(Q(SIGN, "x", (0, 1)),)]
    b41 = basis(((4,), 1), 9, SIGN)
    assert b41 == [(Q(SIGN, "x", (1, 1)), QClass(SIGN.generator("x"), ()))] or b41 == [
        (QClass(SIGN.generator("x"), ()), Q(SIGN, "x", (1, 1)))
    ]
    assert len(b41) == 1 and len(b41[0]) == 2


def test_basis_untwisted_cube():
    x = QClass(UNTW.generator("x"), ())
    assert basis(((3,), 0), 9, UNTW) == [(x, x, x)]


def test_monomial_bidegree_and_charge():
    qc = Q(SIGN, "x", (1, 1))
    x = QClass(SIGN.generator("x"), ())
    assert monomial_bidegree((x, qc), SIGN) == ((4,), 1)
    assert monomial_charge((x, qc), SIGN) == 4
    assert monomial_bidegree((), SIGN) == ((0,), 0)
    assert monomial_charge((), SIGN) == 0


# ---------------------------------------------------------------------------
# multiplication


def test_multiply_unit_and_square_zero():
    one = AlgebraElement.unit(SIGN)
    x = AlgebraElement.from_monomial(SIGN, (QClass(SIGN.generator("x"), ()),))
    assert multiply(one, x, SIGN) == x
    assert multiply(x, one, SIGN) == x
    assert multiply(x, x, SIGN).is_zero


def test_multiply_anticommute():
    xq = QClass(SIGN.generator("x"), ())
    bq = Q(SIGN, "x", (1, 1))
    a = AlgebraElement.from_monomial(SIGN, (bq,))
    b = AlgebraElement.from_monomial(SIGN, (xq,))
    left = multiply(a, b, SIGN)  # (bQ^{1/2}x) * x
    right = multiply(b, a, SIGN)  # x * (bQ^{1/2}x)
    # swap sign: (-1)^(1*0 + 1*1) = -1
    assert left == right.scale(-1)
    assert list(left.terms) == [(xq, bq)]


def test_multiply_commutative_with_sign_and_associative():
    rng = random.Random(5)
    for ctx in (SIGN, UNTW, make_ctx(5, -1)):
        cands = enumerate_qset(ctx.generators, 12, ctx.p, ctx)
        for _ in range(60):
            qa, qb, qc_ = (rng.choice(cands) for _ in range(3))
            a = AlgebraElement.from_monomial(ctx, (qa,))
            b = AlgebraElement.from_monomial(ctx, (qb,))
            c = AlgebraElement.from_monomial(ctx, (qc_,))
            ab = multiply(a, b, ctx)
            ba = multiply(b, a, ctx)
            s = swap_sign(ctx.chi, qa.bidegree(ctx), qb.bidegree(ctx))
            assert ab == ba.scale(s)
            assert multiply(ab, c, ctx) == multiply(a, multiply(b, c, ctx), ctx)


def test_multiply_context_mismatch():
    with pytest.raises(ContractError):
        multiply(AlgebraElement.unit(SIGN), AlgebraElement.unit(UNTW), SIGN)


def zz2_context():
    # Z + Z/2, both coordinates twisted, with a generator of degree -1
    group = GradingGroup(1, (2,))
    return Context(3, group, TwistCharacter(group, (-1, -1)),
                   [Generator("x", (1, 0), 0), Generator("z", (0, 1), -1)])


def random_monomial(rng, pool, ctx):
    """A valid monomial of up to 6 factors drawn from a small pool, so that
    factors repeat; a repeat of a non-repeatable class is dropped."""
    factors = []
    for qc in (rng.choice(pool) for _ in range(rng.randint(0, 6))):
        if qc not in factors or _repeatable(qc, ctx):
            factors.append(qc)
    return tuple(sorted(factors, key=QClass.sort_key))


def test_merge_matches_pairwise_oracle():
    rng = random.Random(11)
    seen = Counter()
    for ctx in (make_ctx(3, -1), make_ctx(3, 1), make_ctx(5, -1), zz2_context()):
        cands = enumerate_qset(ctx.generators, 8, ctx.p, ctx)
        for _ in range(500):
            pool = rng.sample(cands, min(5, len(cands)))
            a, b = random_monomial(rng, pool, ctx), random_monomial(rng, pool, ctx)
            got = _merge_monomials(a, b, ctx)
            assert got == merge_pairwise(a, b, ctx), (a, b)
            seen["killed" if got is None else got[1]] += 1
    assert min(seen[k] for k in ("killed", 1, -1)) > 100, seen


def test_class_data_belongs_to_its_context():
    # x and y are valid classes under both characters; only chi differs
    group = GradingGroup(1)
    gens = [Generator("x", (1,), 0), Generator("y", (1,), 1)]
    x, y = QClass(gens[0], ()), QClass(gens[1], ())
    # twist -> (y * x, x * x, y * y).  Under chi = -1 both classes are
    # twisted: x (degree 0) squares to zero, y (degree 1) does not, and x
    # moves past y at (-1)^(0*1 + 1*1).  Under chi = +1 it is the reverse.
    want = {
        -1: ({(x, y): -1}, {}, {(y, y): 1}),
        1: ({(x, y): 1}, {(x, x): 1}, {}),
    }
    for order in ((-1, 1), (1, -1)):
        ctxs = [Context(3, group, TwistCharacter(group, (t,)), gens) for t in order]
        for twist, ctx in zip(order, ctxs):
            ex, ey = (AlgebraElement.from_monomial(ctx, (q,)) for q in (x, y))
            got = (multiply(ey, ex, ctx), multiply(ex, ex, ctx), multiply(ey, ey, ctx))
            assert got == tuple(AlgebraElement(ctx, t) for t in want[twist]), twist


def test_sort_key_once_per_class_per_context(monkeypatch):
    # a structural guard in place of a timing gate: the merge reads sort
    # keys from the context's table, so each class's key is built once
    calls = Counter()
    sort_key = QClass.sort_key

    def counted(qc):
        calls[qc] += 1
        return sort_key(qc)

    monkeypatch.setattr(QClass, "sort_key", counted)
    for twist in (1, -1):
        ctx = make_ctx(3, twist, gens=(("x", (1,), 0), ("y", (1,), 1), ("z", (1,), 2)))
        mono = max((m for m, *_ in _enumerate_monomials(ctx, 10, 9)), key=lambda m: len(set(m)))
        ones = enumerate_qset(ctx.generators, 6, 9, ctx)[:12]
        assert len(set(mono)) >= 5
        big = AlgebraElement.from_monomial(ctx, mono)
        calls.clear()
        for qc in ones:
            multiply(big, AlgebraElement.from_monomial(ctx, (qc,)), ctx)
            multiply(AlgebraElement.from_monomial(ctx, (qc,)), big, ctx)
        assert calls and max(calls.values()) == 1, calls


# ---------------------------------------------------------------------------
# Poincare tables


def sign_column(table, charge, top):
    return {
        n: d
        for (g, n, c), d in table.items()
        if c == charge and n <= top
    }


def test_poincare_sign_oracle():
    # homology of Z/3 with the sign action of Z/2: dimension 1 in degrees
    # congruent to 1, 2 mod 4
    table = poincare_table(SIGN, 10, 3)
    col = sign_column(table, 3, 10)
    assert col == {1: 1, 2: 1, 5: 1, 6: 1, 9: 1, 10: 1}
    assert sign_column(table, 1, 10) == {0: 1}
    assert sign_column(table, 0, 10) == {0: 1}


def test_poincare_untwisted_oracle():
    # classical mod 3 homology of the symmetric group S_3: degrees 0, 3 mod 4
    table = poincare_table(UNTW, 10, 3)
    col = sign_column(table, 3, 10)
    assert col == {0: 1, 3: 1, 4: 1, 7: 1, 8: 1}


def test_poincare_charge4_sign():
    table = poincare_table(SIGN, 6, 4)
    col = sign_column(table, 4, 6)
    # x * (charge 3 classes): degrees 1+0, 2+0 -> 1, 2, 5, 6 shifted by 0
    assert col == {1: 1, 2: 1, 5: 1, 6: 1}


def test_poincare_empty_context():
    ctx = Context(3, GradingGroup(1), TwistCharacter(GradingGroup(1), (-1,)), [])
    assert poincare_table(ctx, 5, 9) == {((0,), 0, 0): 1}
    assert poincare_table(SIGN, 5, 0) == {((0,), 0, 0): 1}


def random_context(rng):
    """Free rank 0-2, maybe one torsion coordinate, 1-3 generators of degree
    -2..3, p in {3, 5}; returned with cutoffs D <= 8 and C <= 11 (words of
    length 2 at p = 3), small enough for the enumeration oracle when a degree
    is negative."""
    free = rng.randint(0, 2)
    torsion = (rng.choice((2, 3, 4)),) if rng.random() < 0.5 else ()
    group = GradingGroup(free, torsion)
    signs = [rng.choice((1, -1)) for _ in range(free)]
    signs += [rng.choice((1, -1)) if t % 2 == 0 else 1 for t in torsion]
    gens = [
        Generator(f"x{i}", [rng.randint(-2, 2) for _ in range(group.rank)], rng.randint(-2, 3))
        for i in range(rng.randint(1, 3))
    ]
    p = rng.choice((3, 5))
    ctx = Context(p, group, TwistCharacter(group, signs), gens)
    return ctx, rng.randint(0, 8), rng.randint(1, 11)


def test_poincare_table_matches_enumeration():
    cases = [
        (make_ctx(p, twist), d, c)
        for p in (3, 5, 7)
        for twist in (1, -1)
        for d, c in ((24, p * p), (30, 2 * p + 1))
    ]
    cases.append((zz2_context(), 6, 9))
    rng = random.Random(2026)
    cases += [random_context(rng) for _ in range(60)]
    assert any(gen.n < 0 for ctx, _, _ in cases for gen in ctx.generators)
    for ctx, d, c in cases:
        listed = Counter((g, n, charge) for _, g, n, charge in _enumerate_monomials(ctx, d, c))
        assert poincare_table(ctx, d, c) == dict(listed), (ctx.p, ctx.group, d, c)


def test_context_validation():
    group = GradingGroup(1)
    chi = TwistCharacter(group, (-1,))
    with pytest.raises(ValidationError):
        Context(4, group, chi, [])
    with pytest.raises(ValidationError):
        Context(3, group, chi, [Generator("x", (1,), 0), Generator("x", (1,), 2)])
    with pytest.raises(ValidationError):
        Context(3, GradingGroup(2), chi, [])
    # a generator's grading is checked against the group once, here
    for g in ((1, 2), ("1",), (1.0,)):
        with pytest.raises(ValidationError):
            Context(3, group, chi, [Generator("x", g, 0)])
    with pytest.raises(ValidationError):
        Context(3, group, chi, [], max_degree="10")
    with pytest.raises(ValidationError):
        Context(3, group, chi, [], budget=10.5)


@pytest.mark.parametrize("name,g,n,message", [
    ("", (1,), 0, "generator name must be a nonempty string"),
    (5, (1,), 0, "generator name must be a nonempty string"),
    ("x", (1,), True, "generator degree must be an integer, got True"),
    ("x", (1,), 1.5, "generator degree must be an integer, got 1.5"),
    ("x", 1, 0, "generator grading must be a list, got 1"),
])
def test_context_checks_each_generator(name, g, n, message):
    # a generator is checked where it enters the engine: by the Context
    group = GradingGroup(1)
    with pytest.raises(ValidationError) as err:
        Context(3, group, TwistCharacter(group, (-1,)), [Generator(name, g, n)])
    assert str(err.value) == message


def test_a_bare_qclass_is_not_a_monomial():
    # a QClass is a tuple, but not a tuple of factors
    xq = QClass(SIGN.generator("x"), ())
    with pytest.raises(ContractError):
        AlgebraElement.from_monomial(SIGN, xq)
    with pytest.raises(ContractError):
        AlgebraElement(SIGN, {xq: 1})
    assert AlgebraElement.from_monomial(SIGN, (xq,)).terms == {(xq,): 1}


def test_basis_validates_bidegree():
    with pytest.raises(ValidationError):
        basis(((1, 2), 0), 9, SIGN)


def test_walk_prunes_by_degree_floor():
    # negative generator degrees: the walk cuts a partial product by the
    # same bound as the table count.  It needs 26,270 nodes here; pruning
    # only while every class left has degree >= 0 needs 680,778, past the
    # budget
    group = GradingGroup(2, (3,))
    gens = [Generator("a", (1, 0, 1), -2), Generator("b", (0, 1, 2), 3),
            Generator("c", (1, 1, 0), -1)]
    chi = TwistCharacter(group, (-1, 1, 1))
    listed = _enumerate_monomials(Context(3, group, chi, gens, budget=50_000), 2, 15)
    assert len(listed) == 14_258
    counts = Counter((g, n, charge) for _, g, n, charge in listed)
    assert poincare_table(Context(3, group, chi, gens), 2, 15) == dict(counts)
