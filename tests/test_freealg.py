import hashlib
import itertools
import math
import random
import time
import tracemalloc
from collections import Counter

import pytest

from dyerlashof.appcalc import point_context
from dyerlashof.dlalgebra import _find_inadmissible, excess, word_degree
from dyerlashof.errors import ContractError, Meter, ResourceError, ValidationError
from dyerlashof.freealg import (
    AlgebraElement,
    Context,
    Generator,
    QClass,
    _candidates,
    _enumerate_monomials,
    _enumerate_words,
    _merge_monomials,
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
from sign_oracle import merge_pairwise, poincare_table_by_powers, repeatable, swap_sign


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
    got = enumerate_qset(SIGN, 2, 3)
    assert words(got) == {(), ((1, 1),), ((0, 1),)}
    strs = sorted(qclass_str(qc) for qc in got)
    assert strs == ["Q^{1/2} x", "bQ^{1/2} x", "x"]


def test_qset_excludes_excess_equality():
    got = words(enumerate_qset(SIGN, 20, 9))
    assert ((1, 1), (1, 1)) not in got  # e + eps_1 = 0, not > 0
    assert ((0, 1), (1, 1)) not in got  # e + eps_1 = 0 as well (p-th power)
    assert ((1, 3), (0, 1)) in got  # e + eps_1 = 2 > 0
    assert ((0, 3), (0, 1)) in got
    assert ((1, 7), (1, 3)) in got


def test_qset_empty_gens():
    assert enumerate_qset(make_ctx(3, -1, gens=()), 10, 9) == []


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
    got = enumerate_dmodule_basis(x, 0, UNTW, max_charge=9)
    assert words(got) == {(), ((0, 0),), ((0, 0), (0, 0))}


def test_qset_subset_of_dmodule():
    for ctx in (SIGN, UNTW, make_ctx(5, -1), make_ctx(5, 1, gens=(("y", (1,), 2),))):
        for gen in ctx.generators:
            qs = words(qc for qc in enumerate_qset(ctx, 15, ctx.p**2) if qc.gen == gen)
            dm = words(enumerate_dmodule_basis(gen, 15, ctx, max_charge=ctx.p**2))
            assert qs <= dm


def test_word_search_matches_brute_force():
    # an independent route: filter every word of length <= 3 with indices in
    # [-13, 13] by the definition (admissible, indices of the generator's
    # parity, the excess condition of each mode, degree), and compare with
    # the search on that window; every word the search returns, in the
    # window or not, must pass the same checks and carry its degree.  For
    # max_degree >= 0 the search builds only the words it returns, one
    # meter unit each; below 0 it builds at least every tail of them (the
    # words the returned ones grow from), and its units are pinned
    letters = [(e, s2) for e in (0, 1) for s2 in range(-13, 14)]
    short = [w for length in range(4) for w in itertools.product(letters, repeat=length)]
    group = GradingGroup(1)
    cases = 0
    units = Counter()
    for p in (3, 5, 7):
        for twist in (1, -1):
            ctx = Context(p, group, TwistCharacter(group, (twist,)), [])
            pool = [w for w in short if admissible(w, p, twist)]
            for n, strict in itertools.product(range(-3, 4), (True, False)):
                gen = Generator("x", (1,), n)

                def valid(w):
                    if not w:
                        return True
                    e = excess(w, p)
                    return e + w[0][0] > n if strict else e >= n

                brute = [(w, n + word_degree(w, p)) for w in pool if valid(w)]
                for max_charge in (0, 1, p - 1, p, p * p, p**3):
                    for max_degree in range(-30, 26):
                        with Meter(10**6) as meter:
                            got = _enumerate_words(ctx, gen, max_degree, max_charge, strict)
                        for w, d in got:
                            assert admissible(w, p, twist) and valid(w)
                            assert p ** len(w) <= max_charge
                            assert d == n + word_degree(w, p) <= max_degree
                        assert {(w, d) for w, d in got if all(abs(s2) <= 13 for _, s2 in w)} \
                            == {(w, d) for w, d in brute
                                if d <= max_degree and p ** len(w) <= max_charge}
                        spent = meter.counts.get("enumeration", 0)
                        if max_degree >= 0:
                            assert spent == len(got)
                        else:
                            tails = {w[i:] for w, _ in got for i in range(len(w) + 1)}
                            assert spent >= len(tails)
                            units["tails"] += len(tails)
                            if n == 0:  # no class over x has degree < 0
                                assert got == [] and spent == 0
                        units["below 0" if max_degree < 0 else "from 0"] += spent
                        cases += 1
    assert cases == 3 * 2 * 7 * 2 * 6 * 56
    assert units == {"from 0": 60976, "below 0": 18249, "tails": 16817}


def test_word_search_charges_one_unit_per_word():
    # the weak search builds no word it then rejects: at the degree-0
    # untwisted x it returns Q^{0}^k x for k <= 2095, and βQ^{0} over them
    # (excess -1, with no admissible extension) is never built
    ctx = make_ctx(3, 1)
    with Meter() as meter:
        got = enumerate_dmodule_basis(ctx.generator("x"), 0, ctx, max_charge=10**1000)
    assert len(got) == 2096 and got[-1].word == ((0, 0),) * 2095
    assert meter.counts == {"enumeration": 2096}


def test_degree_law():
    for ctx in (SIGN, UNTW, make_ctx(3, -1, gens=(("w", (1,), -2),)),
                make_ctx(5, 1, gens=(("v", (1,), 3),))):
        for gen in ctx.generators:
            for qc in enumerate_qset(ctx, 18, ctx.p**2):
                if qc.gen != gen:
                    continue
                d = qc.degree(ctx.p)
                assert d >= qc.charge(ctx.p) * gen.n
                if d == qc.charge(ctx.p) * gen.n:
                    assert qc.word == ()


def test_enumeration_budget():
    ctx = make_ctx(3, -1)
    with pytest.raises(ResourceError), Meter(3):
        enumerate_qset(ctx, 30, 27)
    # the word enumeration fits in 1000 nodes; the monomial walk and the
    # table count do not
    with Meter(1000):
        enumerate_qset(ctx, 60, 81)
    with pytest.raises(ResourceError, match="monomial enumeration"), Meter(1000):
        _enumerate_monomials(ctx, 60, 81)
    with pytest.raises(ResourceError, match="monomial enumeration"), Meter(1000):
        basis(((81,), 60), 81, ctx)
    with pytest.raises(ResourceError, match="table count"), Meter(1000):
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
        cands = enumerate_qset(ctx, 12, ctx.p)
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
    # an element of another context, or no element at all, is refused
    one = AlgebraElement.unit(SIGN)
    for a, b in ((one, AlgebraElement.unit(UNTW)), ("a", "b"), (one, None)):
        with pytest.raises(ContractError):
            multiply(a, b, SIGN)
        with pytest.raises(ContractError):
            multiply(b, a, SIGN)
    for other in (AlgebraElement.unit(UNTW), "x"):
        with pytest.raises(ContractError):
            one.add(other)


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
        if qc not in factors or repeatable(qc, ctx):
            factors.append(qc)
    return tuple(sorted(factors, key=QClass.sort_key))


def test_merge_matches_pairwise_oracle():
    rng = random.Random(11)
    seen = Counter()
    for ctx in (make_ctx(3, -1), make_ctx(3, 1), make_ctx(5, -1), zz2_context()):
        cands = enumerate_qset(ctx, 8, ctx.p)
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
        ones = enumerate_qset(ctx, 6, 9)[:12]
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
    # the unit has charge 0, so a negative charge cutoff leaves nothing
    assert poincare_table(SIGN, 5, -5) == {}
    assert _enumerate_monomials(SIGN, 5, -5) == []


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
    # the budget is the meter's, and checked there
    with pytest.raises(ValidationError):
        Meter(10.5)


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


def test_algebra_element_checks_its_terms():
    # the public constructor takes only monomials of its context with integer
    # coefficients; the engine wraps its own results unchecked
    ctx = point_context(3, 1, 10, 9)
    x = QClass(ctx.generator("x"), ())
    qx = QClass(x.gen, ((0, 2),))  # Q^{1} x, degree 4
    bqx = QClass(x.gen, ((1, 2),))  # bQ^{1} x, degree 3: it squares to zero
    y = QClass(Generator("y", (1,), 0), ())
    # equal to x or bQ^{1} x, but over a plain tuple, a float degree or a
    # bool letter: each is refused before and after the equal class is seen
    look_alikes = (QClass(tuple(x.gen), ()), QClass(x.gen._replace(n=0.0), ()),
                   QClass(x.gen, ((True, 2),)))
    for terms in (*({(f,): 1} for f in look_alikes), {(): 1.5}, {(): True},
                  {(qx, x): 1}, {("x",): 1}, {(y,): 1}, {(bqx, bqx): 1}):
        with pytest.raises(ValidationError):
            AlgebraElement(ctx, terms)
    assert AlgebraElement(ctx, {(x, qx): 4, (x, x, bqx): 3}).terms == {(x, qx): 1}
    for f in look_alikes:
        with pytest.raises(ValidationError):
            AlgebraElement(ctx, {(f,): 1})


def test_algebra_element_checks_each_class_is_in_the_qset():
    ctx = point_context(3, -1, 10, 9)
    gen = ctx.generator("x")
    for word in (((0, 2),),  # an index of the wrong twist parity
                 ((0, 5), (1, 1)),  # inadmissible: 5 > 3 * 1 - 2
                 ((0, 1), (0, 1)),  # excess -1: Q^{1/2} below the degree of Q^{1/2} x
                 ((0, -1),),  # below the generator's degree
                 ((2, 1),), ((0, True),), [(0, 1)]):  # not a word
        with pytest.raises(ValidationError):
            AlgebraElement.from_monomial(ctx, (QClass(gen, word),))
    ok = QClass(gen, ((1, 3), (0, 1)))
    assert AlgebraElement.from_monomial(ctx, (ok,)).terms == {(ok,): 1}


def test_basis_validates_bidegree():
    with pytest.raises(ValidationError):
        basis(((1, 2), 0), 9, SIGN)


@pytest.mark.parametrize("call", [
    lambda ctx, x: poincare_table(ctx, 10.5, 9),
    lambda ctx, x: poincare_table(ctx, True, 9),
    lambda ctx, x: poincare_table(ctx, 10, 9.0),
    lambda ctx, x: basis(((3,), 1.0), 9, ctx),
    lambda ctx, x: basis(((3,), 0), None, ctx),
    lambda ctx, x: basis(5, 9, ctx),
    lambda ctx, x: basis(((3,),), 9, ctx),
    lambda ctx, x: basis((3, 0), 9, ctx),
    lambda ctx, x: enumerate_dmodule_basis(x, 10, ctx, None),
    lambda ctx, x: enumerate_dmodule_basis(x._replace(n=1), 10, ctx, 9),
    lambda ctx, x: enumerate_qset(ctx, 4, 9.0),
], ids=["float-degree", "bool-degree", "float-charge", "basis-float-degree",
        "basis-no-charge", "basis-not-a-pair", "basis-short-pair", "basis-int-grading",
        "dmodule-no-charge", "dmodule-foreign-gen", "qset-float-charge"])
def test_enumeration_checks_cutoffs_and_generators(call):
    # library input to the public enumeration functions is checked as
    # Context checks its own: a ValidationError, not a TypeError or a
    # listing over a generator the context does not have
    ctx = point_context(3, -1, 10, 9)
    with pytest.raises(ValidationError):
        call(ctx, ctx.generator("x"))


def negative_context(**kw):
    """Z^2 + Z/3 with generators of degrees -2, 3 and -1."""
    group = GradingGroup(2, (3,))
    gens = [Generator("a", (1, 0, 1), -2), Generator("b", (0, 1, 2), 3),
            Generator("c", (1, 1, 0), -1)]
    return Context(3, group, TwistCharacter(group, (-1, 1, 1)), gens, **kw)


def test_walk_prunes_by_degree_floor():
    # negative generator degrees: the walk cuts a partial product by the
    # same bound as the table count.  It needs 26,270 nodes here; pruning
    # only while every class left has degree >= 0 needs 680,778, past the
    # budget
    with Meter(50_000):
        listed = _enumerate_monomials(negative_context(), 2, 15)
    assert len(listed) == 14_258
    counts = Counter((g, n, charge) for _, g, n, charge in listed)
    assert poincare_table(negative_context(), 2, 15) == dict(counts)


def metered(fn, ctx, max_degree, max_charge):
    """fn's table and meter counts, or the message it ran out of budget with."""
    try:
        with Meter() as meter:
            out = fn(ctx, max_degree, max_charge)
    except ResourceError as exc:
        return str(exc)
    return out, meter.counts


# the contexts of bench `table`: many monomials, heavy pruning, Z + Z/2 with a
# negative-degree generator, and point contexts (p, twist, max_degree,
# max_charge) over a ladder of sizes
BENCH_TABLE_CASES = [
    (point_context(3, -1, 44, 27), 44, 27),
    (point_context(3, -1, 12, 243), 12, 243),
    (zz2_context(), 6, 9),
    *[(point_context(3, twist, d, 9), d, 9) for twist in (1, -1) for d in range(6, 21)],
    *[(point_context(3, twist, d, 27), d, 27) for twist in (1, -1) for d in range(10, 19)],
    *[(point_context(5, twist, d, 25), d, 25) for twist in (1, -1) for d in range(10, 35)],
]


def test_poincare_table_matches_power_walk():
    # the running sum against the walk over every power, meter counts and
    # exit-3 messages included, at cutoffs past what the monomial
    # enumeration can afford
    rng = random.Random(2027)
    cases = [(negative_context(), 2, 15), *BENCH_TABLE_CASES]
    for _ in range(60):
        ctx, d, c = random_context(rng)
        cases.append((ctx, d + rng.randint(4, 12), c + rng.randint(10, 30)))
    assert len(cases) == 162
    results = [metered(poincare_table_by_powers, ctx, d, c) for ctx, d, c in cases]
    assert any(isinstance(r, str) for r in results)
    for (ctx, d, c), want in zip(cases, results):
        assert metered(poincare_table, ctx, d, c) == want, (ctx.p, ctx.group, d, c)


def test_poincare_table_many_degree_zero_generators():
    # N untwisted degree-0 generators in degree 0: the classes are the
    # generators themselves, and charge c has C(N + c - 1, c) monomials.  The
    # walk over every power (the oracle) takes 4.6 s already at N = 200 on a
    # 2-core box
    n_gens = 300
    group = GradingGroup(1)
    gens = [Generator(f"x{i}", (1,), 0) for i in range(n_gens)]
    ctx = Context(3, group, TwistCharacter(group, (1,)), gens)
    start = time.perf_counter()
    with Meter() as meter:
        table = poincare_table(ctx, 0, n_gens)
    assert time.perf_counter() - start < 5.0
    assert table == {((c,), 0, c): math.comb(n_gens + c - 1, c) for c in range(n_gens + 1)}
    assert meter.counts == {"enumeration": 300, "candidate powers": 90_000,
                            "table count": 90_000}


def test_candidates_keep_one_row_per_class():
    # a class's powers are a range, not one record each: x alone may appear
    # in 100,000 powers here
    ctx = point_context(3, 1, 0, 100_000)
    tracemalloc.start()
    try:
        with Meter() as meter:
            _, cands = _candidates(ctx, 0, 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert meter.counts == {"enumeration": 1, "candidate powers": 100_000}
    assert len(cands) == 1
    assert peak < 1_000_000


def test_class_rows_match_bidegrees():
    # the rows and the class data take each class's degree from the word
    # search and its parity from its generator (chi(p^l g) = chi(g), p
    # odd); rebuilt here from bidegrees on every class of two contexts.
    # Every class with a power in range has one row, in order, and no other
    # class has one: zz2 keeps 18 of its 26 classes, negative 60 of 91
    for ctx, max_degree, max_charge in ((zz2_context(), 6, 9), (negative_context(), 2, 15)):
        nu, cands = _candidates(ctx, max_degree, max_charge)
        room = max_degree - nu * max_charge
        classes = enumerate_qset(ctx, max_degree - nu * (max_charge - 1), max_charge)
        assert len(classes) > 20
        want = []
        for qc in classes:
            g, n = qc.bidegree(ctx)
            k = qc.charge(ctx.p)
            top = max_charge // k if repeatable(qc, ctx) else 1
            if n > nu * k:
                top = max(0, min(top, room // (n - nu * k)))
            if top:
                want.append((qc, g, n, k, range(1, top + 1)))
        assert cands == want
        assert 0 < len(cands) < len(classes)
        for qc, g, n, _, _ in cands:
            assert ctx.class_data[qc] == (qc.sort_key(), n, ctx.chi.parity(g),
                                          repeatable(qc, ctx))


def enumeration_digest(ctx, max_degree, max_charge):
    """sha256 over the listed monomials in order (names, words, g, n,
    charge), the sorted table, and the meter counts of both calls."""
    h = hashlib.sha256()
    with Meter() as meter:
        listed = _enumerate_monomials(ctx, max_degree, max_charge)
    for factors, g, n, charge in listed:
        h.update(repr(([(q.gen.name, q.word) for q in factors], g, n, charge)).encode())
    h.update(repr(meter.counts).encode())
    with Meter() as meter:
        table = poincare_table(ctx, max_degree, max_charge)
    h.update(repr(sorted(table.items())).encode())
    h.update(repr(meter.counts).encode())
    return h.hexdigest()


# The listing order is pinned with the contents: bench `action` runs its ops
# in this order, and bench `cli` draws its `act` and `basis` inputs from it.
# negative-2-15 was re-pinned (64a959f5... -> 48e81b97...) when the classes
# with no power in range lost their rows: its "table count" fell from
# 146,502 to 88,506 units, with the listing and the table unchanged.
@pytest.mark.parametrize("ctx,max_degree,max_charge,digest", [
    (point_context(3, 1, 8, 9), 8, 9,
     "47b1bc8aec90692146d984e9e837e5bc7cb7d15a30ba59f7358a143cf4a17d72"),
    (point_context(3, -1, 13, 9), 13, 9,
     "4d23dbc9ff8759976a5f32ce37a303e42d145b340c27cc2024beb01d1bcd778f"),
    (point_context(3, -1, 20, 27), 20, 27,
     "0574c211a9cc30c1175444e2cc0f6d14989c5a8b91e165f2cd0fd1f67c8c87ab"),
    (point_context(5, 1, 30, 25), 30, 25,
     "4d332c62d9983926e0f79f1dcf0fb2b7722b4d8cf8c1ba2c805113b0d7f7c7af"),
    (negative_context(), 2, 15,
     "48e81b979f6c72d9bfe502eff264a36416e80379f90ad43f4d735cd3ea0da928"),
], ids=["untw3-8-9", "sign3-13-9", "sign3-20-27", "untw5-30-25", "negative-2-15"])
def test_enumeration_pinned(ctx, max_degree, max_charge, digest):
    assert enumeration_digest(ctx, max_degree, max_charge) == digest
