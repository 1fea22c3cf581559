"""Applying operations beta^eps Q^s to elements of the free algebra.

The action is computed termwise.  On the unit monomial only Q^0 is nonzero.
On a single factor Q^I x the new letter is prepended and the word rewritten
to admissible form; each admissible output word J is then read off against
the degree n of x: strict excess (e(J) + eps_1 > n) gives a basis class,
equality with eps_1 = 0 gives a p-th power (iterated, per the excess lemma),
anything else is zero.  On longer monomials the Cartan formula splits off
the first factor and recurses; the range of the inner sum is finite because
operations below the degree of their argument vanish.
"""

from __future__ import annotations

from .arith import HalfInt, half_factorial
from .dlalgebra import DLElement, excess, lower_from_upper, normalize
from .errors import ContractError, Meter, ResourceError, charge
from .freealg import (
    AlgebraElement,
    Context,
    Generator,
    QClass,
    _repeatable,
    enumerate_qset,
    monomial_bidegree,
    multiply,
)


def _as_s2(s) -> int:
    if isinstance(s, HalfInt):
        return s.twice
    if isinstance(s, int):
        return 2 * s
    raise ContractError(f"operation index must be an int or HalfInt, got {s!r}")


def _combine(ctx: Context, pairs) -> AlgebraElement:
    """The sum of c * x over (c, x) pairs, built in one new dict; the x are
    only read, so cached elements may be passed."""
    out: dict = {}
    for c, x in pairs:
        for m, d in x.terms.items():
            out[m] = out.get(m, 0) + c * d
    return AlgebraElement(ctx, out)


def apply_op(eps: int, s, e: AlgebraElement, ctx: Context) -> AlgebraElement:
    """beta^eps Q^s acting on an algebra element; linear over F_p.  The
    Cartan formula recurses once per factor of a monomial, so a product too
    long for the interpreter's stack raises ResourceError."""
    if eps not in (0, 1):
        raise ContractError(f"eps must be 0 or 1, got {eps}")
    s2 = _as_s2(s)
    try:
        with Meter(ctx.budget):
            return _combine(ctx, (
                (c, _apply_monomial(eps, s2, mono, ctx)) for mono, c in e.terms.items()
            ))
    except RecursionError:
        longest = max(len(mono) for mono in e.terms)
        raise ResourceError(
            f"Cartan expansion of a product of {longest} factors nests too deep"
        ) from None


def _power_monomial(qc: QClass, reps: int, ctx: Context) -> AlgebraElement:
    if reps > 1 and not _repeatable(qc, ctx):
        return AlgebraElement.zero(ctx)
    return AlgebraElement.from_monomial(ctx, (qc,) * reps)


def _realize_word(word, gen, ctx: Context) -> AlgebraElement:
    """Evaluate an admissible word on a generator: basis class, iterated
    p-th power, or zero, by the excess trichotomy."""
    n = gen.n
    t = 0
    while word:
        e1 = word[0][0]
        ex = excess(word, ctx.p)
        if ex + e1 > n:
            break
        if e1 == 0 and ex == n:
            t += 1
            word = word[1:]
            continue
        return AlgebraElement.zero(ctx)
    return _power_monomial(QClass(gen, word), ctx.p**t, ctx)


def _apply_qclass(eps, s2, qc: QClass, ctx: Context) -> AlgebraElement:
    """Memoized one-factor action; results are never mutated, so sharing
    the cached elements across callers is safe."""
    cache = ctx.__dict__.setdefault("_qclass_op_cache", {})
    key = (eps, s2, qc)
    hit = cache.get(key)
    if hit is None:
        hit = cache[key] = _apply_qclass_raw(eps, s2, qc, ctx)
    return hit


def _apply_qclass_raw(eps, s2, qc: QClass, ctx: Context) -> AlgebraElement:
    g, n = qc.bidegree(ctx)
    if s2 % 2 != ctx.chi.parity(g):
        return AlgebraElement.zero(ctx)
    if s2 < n + eps:
        return AlgebraElement.zero(ctx)
    if eps == 0 and s2 == n:
        return _power_monomial(qc, ctx.p, ctx)
    twist = ctx.chi.chi(qc.gen.g)
    elt = DLElement._trusted(ctx.p, twist, {((eps, s2),) + qc.word: 1})
    nf = normalize(elt)
    return _combine(ctx, ((c, _realize_word(w, qc.gen, ctx)) for w, c in nf.terms.items()))


def _apply_monomial(eps, s2, mono, ctx: Context) -> AlgebraElement:
    cache = ctx.__dict__.setdefault("_monomial_op_cache", {})
    key = (eps, s2, mono)
    hit = cache.get(key)
    if hit is None:
        hit = cache[key] = _apply_monomial_raw(eps, s2, mono, ctx)
    return hit


def _apply_monomial_raw(eps, s2, mono, ctx: Context) -> AlgebraElement:
    k = len(mono)
    if k == 0:
        if eps == 0 and s2 == 0:
            return AlgebraElement.unit(ctx)
        return AlgebraElement.zero(ctx)
    g, n = monomial_bidegree(mono, ctx)
    if s2 % 2 != ctx.chi.parity(g):
        return AlgebraElement.zero(ctx)
    if k == 1:
        return _apply_qclass(eps, s2, mono[0], ctx)
    f1, rest = mono[0], mono[1:]
    g1, n1 = f1.bidegree(ctx)
    gr, nr = monomial_bidegree(rest, ctx)
    par1 = ctx.chi.parity(g1)
    half = (ctx.p - 1) // 2
    # the Cartan formula is stated through the shuffle (g+h)^p -> g^p + h^p,
    # which scales the twisted line by the braiding form p(p-1)/2 times
    shuffle = -1 if (par1 * ctx.chi.parity(gr) * half) % 2 else 1
    pieces = []
    lo = n1
    if (lo - par1) % 2:
        lo += 1
    j2s = range(lo, s2 - nr + 1, 2)
    charge("Cartan pieces", len(j2s) * (eps + 1))
    for j2 in j2s:
        k2 = s2 - j2
        sign = shuffle * (-1 if (j2 * k2 * half) % 2 else 1)
        for e1 in range(eps, -1, -1):
            # beta^eps acts as beta^e1 on f1 and beta^e2 on the rest; a
            # beta moved past f1 picks up (-1)^n1
            e2 = eps - e1
            piece = multiply(
                _apply_qclass(e1, j2, f1, ctx),
                _apply_monomial(e2, k2, rest, ctx),
                ctx,
            )
            pieces.append((-sign if e2 * n1 % 2 else sign, piece))
    return _combine(ctx, pieces)


def apply_word(word, e: AlgebraElement, ctx: Context) -> AlgebraElement:
    """Apply a composite of operations, innermost (rightmost) letter first."""
    for eps, s2 in reversed(word):
        e = apply_op(eps, HalfInt(s2), e, ctx)
    return e


# ---------------------------------------------------------------------------
# suspension validation


def _shifted(ctx: Context) -> Context:
    gens = [Generator(g.name, g.g, g.n + 1) for g in ctx.generators]
    return Context(ctx.p, ctx.group, ctx.chi, gens,
                   ctx.max_degree, ctx.max_charge, ctx.budget)


def suspension_check(ctx: Context, max_degree, max_charge):
    """Compare the action before and after shifting every generator degree
    up by one: Q^s commutes with the shift and beta Q^s anti-commutes, so
    matching basis terms must appear with equal coefficients, and the
    lower-index constants must follow the one-step recursion.  Returns a
    list of discrepancy descriptions (empty when everything agrees).
    """
    p = ctx.p
    hf = half_factorial(p)
    bad = []
    # constants: beta^eps Q^{s2/2} on degree n + 1 versus degree n
    for eps in (0, 1):
        for n in range(-3, 7):
            for s2 in range(-6, 9):
                idx, c, z = lower_from_upper(eps, s2, n, p)
                idx2, c2, z2 = lower_from_upper(eps, s2, n + 1, p)
                ratio = hf * (-1 if (n * (p - 1) // 2) % 2 else 1) % p
                if idx2 != idx - (p - 1) or c2 != c * ratio % p or (z and not z2):
                    bad.append(f"constant recursion fails at eps={eps} s2={s2} n={n}")
    up = _shifted(ctx)
    valid_up = {
        (qc.gen.name, qc.word)
        for qc in enumerate_qset(up.generators, max_degree + 1, max_charge, up)
    }

    def single_terms(elt, n_floor, ctx_):
        keep = {}
        for mono, c in elt.terms.items():
            if len(mono) != 1:
                continue
            w = mono[0].word
            if excess(w, ctx_.p) + (w[0][0] if w else 0) > n_floor:
                keep[(mono[0].gen.name, w)] = c
        return keep

    for qc in enumerate_qset(ctx.generators, max_degree, max_charge, ctx):
        if (qc.gen.name, qc.word) not in valid_up:
            continue
        qc_up = QClass(up.generator(qc.gen.name), qc.word)
        n_deg = qc.degree(p)
        for eps in (0, 1):
            for s2 in range(n_deg - 2, n_deg + 2 * (p - 1) + 6):
                a = apply_op(eps, HalfInt(s2), AlgebraElement.from_monomial(ctx, (qc,)), ctx)
                b = apply_op(eps, HalfInt(s2), AlgebraElement.from_monomial(up, (qc_up,)), up)
                want = single_terms(a, qc.gen.n + 1, ctx)
                got = single_terms(b, qc.gen.n + 1, up)
                if want != got:
                    bad.append(
                        f"suspension mismatch at {qc.gen.name} word={qc.word} "
                        f"eps={eps} s2={s2}"
                    )
    return bad
