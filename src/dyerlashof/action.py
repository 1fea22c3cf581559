"""Applying operations beta^eps Q^s to elements of the free algebra.

The action is computed termwise.  On the unit monomial only Q^0 is nonzero.
On a single factor Q^I x the new letter is prepended and the word rewritten
to admissible form; each admissible output word J is then read off against
the degree n of x: strict excess (e(J) + eps_1 > n) gives a basis class,
equality with eps_1 = 0 gives a p-th power (iterated, per the excess lemma),
anything else is zero.  On longer monomials the Cartan formula splits off
the first factor and applies the rest of the operation to the remaining
factors; the suffixes of the monomial are summed shortest first, so each
finds the next shorter one cached.  The range of each inner sum is finite
because operations below the degree of their argument vanish.
"""

from __future__ import annotations

from itertools import accumulate

from .arith import HalfInt, half_factorial, is_int
from .dlalgebra import DLElement, excess, lower_from_upper, normalize
from .errors import ContractError, Meter, charge
from .freealg import (
    AlgebraElement,
    Context,
    Generator,
    QClass,
    _combine,
    enumerate_qset,
    multiply,
)


def _as_s2(s) -> int:
    if isinstance(s, HalfInt) and is_int(s.twice):
        return s.twice
    if is_int(s):
        return 2 * s
    raise ContractError(f"operation index must be an int or HalfInt, got {s!r}")


def apply_op(eps: int, s, e: AlgebraElement, ctx: Context) -> AlgebraElement:
    """beta^eps Q^s acting on an algebra element; linear over F_p."""
    if not is_int(eps) or eps not in (0, 1):
        raise ContractError(f"eps must be 0 or 1, got {eps}")
    s2 = _as_s2(s)
    with Meter(ctx.budget):
        return _combine(ctx, (
            (c, _apply_monomial(eps, s2, mono, ctx)) for mono, c in e.terms.items()
        ))


def _power_monomial(qc: QClass, reps: int, ctx: Context) -> AlgebraElement:
    if reps > 1 and not ctx.class_data[qc][3]:
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
    # normalize drops an index of the wrong parity.  Strict excess gives the
    # degree n of qc <= p*s2_1 - 2*eps_1, so for s2 <= n the word is admissible
    # and normalize returns it free; _realize_word reads zero or the p-th power.
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
    if not mono:
        if eps == 0 and s2 == 0:
            return AlgebraElement.unit(ctx)
        return AlgebraElement.zero(ctx)
    _, ns, pars, _ = zip(*[ctx.class_data[qc] for qc in mono])
    if (s2 - sum(pars)) % 2:
        return AlgebraElement.zero(ctx)
    if len(mono) == 1:
        return _apply_qclass(eps, s2, mono[0], ctx)
    # each suffix mono[i:]'s degree and parity, by a running sum from the
    # right (parities are summed, not reduced), and each factor's least
    # index: its degree rounded up to its parity
    n_suf = [*accumulate(reversed(ns), initial=0)][::-1]
    par_suf = [*accumulate(reversed(pars), initial=0)][::-1]
    los = [n + (n - par) % 2 for n, par in zip(ns, pars)]
    half = (ctx.p - 1) // 2
    cache = ctx.__dict__.setdefault("_monomial_op_cache", {})

    def pieces(i, e, t):
        # the pieces of beta^e Q^{t/2} on mono[i:], counted without
        # len(range), which overflows on a huge index
        return max(0, (t - n_suf[i + 1] - los[i]) // 2 + 1) * (e + 1)

    def cartan(i, e, t, rest):
        # beta^e Q^{t/2} on mono[i:], splitting off its first factor f;
        # rest[(e2, k2)] is beta^e2 Q^{k2/2} on mono[i+1:].  The formula is
        # stated through the shuffle (g+h)^p -> g^p + h^p, which scales the
        # twisted line by the braiding form p(p-1)/2 times
        f = mono[i]
        shuffle = -1 if (pars[i] * par_suf[i + 1] * half) % 2 else 1
        out = []
        for j2 in range(los[i], t - n_suf[i + 1] + 1, 2):
            k2 = t - j2
            sign = shuffle * (-1 if (j2 * k2 * half) % 2 else 1)
            for e1 in range(e, -1, -1):
                # beta^e acts as beta^e1 on f and beta^e2 on the rest; a
                # beta moved past f picks up (-1)^n(f)
                e2 = e - e1
                piece = multiply(_apply_qclass(e1, j2, f, ctx), rest[(e2, k2)], ctx)
                out.append((-sign if e2 * ns[i] % 2 else sign, piece))
        return _combine(ctx, out)

    # The top reads mono[1:] at each of its splits, each of those reads
    # mono[2:], and so on: suffix mono[i:] is read at every e <= eps and
    # every t of its parity from its degree up to s2 minus the least indices
    # of the factors before it.  No such list is longer than the top's
    # pieces, which are charged first.  The suffixes are summed shortest
    # first, each from the one before, through the per-context cache.
    charge("Cartan pieces", pieces(0, eps, s2))
    tops = [s2 - c for c in accumulate(los, initial=0)]
    rest = {}
    for i in range(len(mono) - 1, 0, -1):
        suffix, least = mono[i:], n_suf[i] + (n_suf[i] - par_suf[i]) % 2
        here = {}
        for t in range(least, tops[i] + 1, 2):
            for e in range(eps + 1):
                key = (e, t, suffix)
                hit = cache.get(key)
                if hit is None:
                    if i == len(mono) - 1:
                        hit = _apply_qclass(e, t, mono[i], ctx)
                    else:
                        charge("Cartan pieces", pieces(i, e, t))
                        hit = cartan(i, e, t, rest)
                    cache[key] = hit
                here[e, t] = hit
        rest = here
    return cartan(0, eps, s2, rest)


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
