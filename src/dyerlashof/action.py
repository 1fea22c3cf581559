"""Applying operations beta^eps Q^s to elements of the free algebra.

The action is computed termwise.  On the unit monomial only Q^0 is nonzero.
On any other monomial m, beta^eps Q^s m = 0 when 2s < |m| + eps (May's
vanishing law), read off before any work is done.  On a single factor
Q^I x the new letter is prepended and the word rewritten to admissible
form; each admissible output word J is then read off against the degree n
of x: strict excess (e(J) + eps_1 > n) gives a basis class,
equality with eps_1 = 0 gives a p-th power (iterated, per the excess lemma),
anything else is zero.  Every monomial is read as a product of blocks:
a run of r equal factors y (sorted, so adjacent) gives one block y^(p^i)
per unit of the base-p digit i of r, and any other factor is a block of
its own.  On a block y^q with q > 1 the Cartan formula collapses to the
Frobenius identity, beta^eps Q^s(y^q) = (Q^{s/q} y)^q when eps = 0 and q
divides 2s, and 0 otherwise.  The Cartan formula splits off the first
block and applies the rest of the operation to the remaining ones; the
block suffixes of the monomial are summed shortest first, so each finds
the next shorter one memoized.  The range of each inner sum is finite
because operations below the degree of their argument vanish, and a
pair of pieces one of which is zero is skipped.  The twist sign of the
formula, stated through the shuffle (g+h)^p -> g^p + h^p, is +1 at every
index the sum reaches, so it is not computed.

The action's one memo per context holds a record per monomial (_Record):
its degree and twist parity, summed once; its results, keyed (eps, 2s),
so that a class, a block and a block suffix each keep theirs in their own
record; and its block plan (_Plan), built on its first Cartan step: the
blocks, their degrees and least indices, the running sums and steps, and
the records of its block suffixes, which the Cartan step reads and fills.
So an op that the parity rule or the vanishing law makes zero costs one
lookup, and a Cartan step does only the work that depends on (eps, s).
"""

from __future__ import annotations

from itertools import accumulate, groupby

from .arith import HalfInt, _check_int, half_factorial, is_int
from .dlalgebra import DLElement, _check_word, excess, lower_from_upper, normalize
from .errors import ContractError, charge, metered
from .freealg import (
    AlgebraElement,
    Context,
    Generator,
    QClass,
    _check_context,
    _check_element,
    _combine,
    _from_sums,
    _multiply_into,
    enumerate_qset,
)


@metered
def apply_op(eps: int, s: HalfInt, e: AlgebraElement, ctx: Context) -> AlgebraElement:
    """beta^eps Q^s acting on an element of ctx; linear over F_p."""
    s2 = s.twice if isinstance(s, HalfInt) else None
    # exact ints are settled by their types, anything else by _checked_op
    if not (type(eps) is int and eps in (0, 1) and type(s2) is int):
        eps, s2 = _checked_op(eps, s)
    _check_element(e, ctx)
    terms = e.terms
    # the single-term fork skips _combine's dict merge: without it bench
    # `action` op_p50_ms rose by about 20 % (4 of 4 pairs)
    if len(terms) == 1:
        [(mono, c)] = terms.items()
        if c == 1:  # the memo's terms, copied: a result shares no dict with it
            return AlgebraElement._trusted(ctx, _apply_monomial(eps, s2, mono, ctx).terms.copy())
    return _combine(ctx, [(c, _apply_monomial(eps, s2, mono, ctx))
                          for mono, c in terms.items()])


def _checked_op(eps, s):
    """(eps, 2s) as plain ints, or ContractError unless eps is 0 or 1 and s
    a HalfInt, each by is_int.  An int subclass is stored as int, as
    _check_word stores it: the caches keep the first key object they meet."""
    if not is_int(eps) or eps not in (0, 1):
        raise ContractError(f"eps must be 0 or 1, got {eps}")
    if not (isinstance(s, HalfInt) and is_int(s.twice)):
        raise ContractError(f"operation index must be a HalfInt, got {s!r}")
    return int(eps), int(s.twice)


def _realize_word(word, gen, ctx: Context):
    """The monomial an admissible word makes of a generator, by the excess
    trichotomy: a basis class, or a p^t-th power of one with each stripped
    outer letter (0, s2) of excess n, or None for zero.  A stripped letter
    has s2 = n + the degree of the rest of the word, so t and the class fix
    the word, and no two words realize to the same monomial.  The power is
    never zero: the last letter stripped has s2 = the degree of the class,
    and s2 has the class's twist parity, so the class is repeatable."""
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
        return None
    return (QClass(gen, word),) * ctx.p**t


def _apply_qclass(eps, s2, qc: QClass, ctx: Context) -> AlgebraElement:
    """The one-factor action, read from the memo record of (qc,)."""
    return _apply_monomial(eps, s2, (qc,), ctx)


def _apply_qclass_raw(eps, s2, qc: QClass, ctx: Context) -> AlgebraElement:
    # normalize drops an index of the wrong parity.  Strict excess gives the
    # degree n of qc <= p*s2_1 - 2*eps_1, so for s2 <= n the word is admissible
    # and normalize returns it free; _realize_word reads zero or the p-th
    # power, distinct for distinct words, so each coefficient is copied
    twist = -1 if ctx.class_data[qc][2] else 1
    elt = DLElement._trusted(ctx.p, twist, {((eps, s2),) + qc.word: 1})
    out = {}
    for w, c in normalize(elt).terms.items():
        mono = _realize_word(w, qc.gen, ctx)
        if mono is not None:
            out[mono] = c
    return AlgebraElement._trusted(ctx, out)


class _Record:
    """One monomial's entry in ctx._monomial_op_cache: its degree n and its
    twist parity par (summed over its factors, not reduced), its results
    keyed (eps, s2), and its block plan (_Plan), built on its first Cartan
    step.  A record made for a block suffix takes its sums from the plan
    that made it, with no second pass over its factors."""

    __slots__ = ("n", "par", "results", "plan")

    def __init__(self, n, par):
        self.n = n
        self.par = par
        self.results = {}
        self.plan = None


def _apply_monomial(eps, s2, mono, ctx: Context) -> AlgebraElement:
    # one lookup, one hash of the monomial, reads both zeros: an index of
    # the wrong parity (not stored: the Cartan step never asks for one) and
    # the vanishing law, 2s < |m| + eps (stored, so that a Cartan step that
    # reads it as a suffix finds it and charges nothing, as at its first
    # reading).  Results are never mutated, so they are shared
    cache = ctx._monomial_op_cache
    rec = cache.get(mono)
    if rec is None:
        data = ctx.class_data
        n = par = 0
        for qc in mono:
            row = data[qc]
            n += row[1]
            par += row[2]
        rec = cache[mono] = _Record(n, par)
    if (s2 - rec.par) % 2:
        return AlgebraElement._trusted(ctx, {})
    results = rec.results
    hit = results.get((eps, s2))
    if hit is None:
        if s2 < rec.n + eps:
            hit = AlgebraElement._trusted(ctx, {})
        else:
            hit = _apply_monomial_raw(eps, s2, mono, rec, ctx)
        results[eps, s2] = hit
    return hit


def _apply_power(eps, s2, qc: QClass, q: int, ctx: Context) -> AlgebraElement:
    """beta^eps Q^{s2/2} on the block qc^q, q > 1 a power of p, by the Frobenius
    identity: zero unless eps = 0 and q divides s2, else (Q^{s2/2q} qc)^q.

    The identity follows from the Cartan formula.  A class that repeats in
    a monomial is repeatable, n = par mod 2, and repeatable classes commute
    with sign +1, since n n' + par par' = 2 n n' = 0 mod 2.  Each term of
    Q^j qc is a class over qc's generator, or a p^t-th power of one, and
    has the degree of Q^j qc, n(qc) mod 2; p being odd, each factor then
    has degree n(qc) and parity par(qc) mod 2, so it is repeatable and
    commutes with the factors of every other term.  The Cartan sum over q
    equal factors is then the q-th power of a sum of commuting terms: its
    cross terms carry multinomials q!/(k_1! ... k_r!) = 0 mod p, and c^q = c
    in F_p, so (sum c_m m)^q = sum c_m m^q.  A non-repeatable factor would
    square to zero, but none occurs, so m^q is m with each factor repeated
    q times, still sorted, with sign +1."""
    if eps or s2 % q:
        return AlgebraElement._trusted(ctx, {})
    return AlgebraElement._trusted(ctx, {
        tuple([f for f in m for _ in range(q)]): c
        for m, c in _apply_qclass(0, s2 // q, qc, ctx).terms.items()
    })


def _blocks(mono, p):
    """The first factor and size of each block of a monomial: a run of r
    equal factors gives, largest first, one block of p^i factors per unit
    of the base-p digit i of r."""
    starts, qs = [], []
    start = 0
    for _, run in groupby(mono):
        r, q = len([*run]), 1
        while q * p <= r:
            q *= p
        while r:
            for _ in range(r // q):
                starts.append(start)
                qs.append(q)
                start += q
            r %= q
            q //= p
    return starts, qs


class _Plan:
    """What the Cartan step on a monomial reads that does not depend on the
    operation, built once per monomial and context.  Per block i: its slice
    heads[i] of the monomial, its size qs[i], its degree ns[i] and its least
    index los[i] (its degree rounded up to its parity; a block of q > 1
    factors takes only indices q j2 with j2 of its parity, a step of 2q).  Per
    block suffix i..: its degree n_suf[i] (a running sum from the right,
    n_suf[last + 1] = 0), its least index leasts[i], the sum offs[i] of
    the least indices of the blocks before it, the step steps[i - 1] of the
    indices it is read at (twice the least block size before it), and its
    record suffixes[i], found or made in the context's memo."""

    __slots__ = ("heads", "qs", "ns", "los", "n_suf", "leasts", "offs", "steps", "suffixes")

    def __init__(self, mono, ctx: Context):
        starts, qs = _blocks(mono, ctx.p)
        data = ctx.class_data
        self.heads = [mono[i:i + q] for i, q in zip(starts, qs)]
        self.qs = qs
        rows = [data[mono[i]] for i in starts]
        self.ns = ns = [q * row[1] for q, row in zip(qs, rows)]
        pars = [q * row[2] for q, row in zip(qs, rows)]
        # parities are summed, not reduced
        self.n_suf = n_suf = [*accumulate(reversed(ns), initial=0)][::-1]
        par_suf = [*accumulate(reversed(pars), initial=0)][::-1]
        self.los = los = [n + (n - par) % 2 for n, par in zip(ns, pars)]
        self.leasts = [n + (n - par) % 2 for n, par in zip(n_suf, par_suf)]
        self.offs = [*accumulate(los, initial=0)]
        self.steps = [*accumulate([2 * q for q in qs], min)]
        cache = ctx._monomial_op_cache
        self.suffixes = suffixes = [None]
        for i in range(1, len(qs)):
            suffix = mono[starts[i]:]
            rec = cache.get(suffix)
            if rec is None:
                rec = cache[suffix] = _Record(n_suf[i], par_suf[i])
            suffixes.append(rec)


def _pieces(plan: _Plan, i, e, t):
    # the pieces of beta^e Q^{t/2} on blocks i.., counted without
    # len(range), which overflows on a huge index; the identity leaves no
    # beta on a block of q > 1
    q = plan.qs[i]
    return max(0, (t - plan.n_suf[i + 1] - plan.los[i]) // (2 * q) + 1) * (e + 1 if q == 1 else 1)


def _cartan(plan: _Plan, i, e, t, rest, ctx: Context) -> AlgebraElement:
    # beta^e Q^{t/2} on blocks i.., splitting off block i, f^q; rest[(e2,
    # k2)] is beta^e2 Q^{k2/2} on blocks i+1...  Stated through the shuffle
    # (g+h)^p -> g^p + h^p, the formula carries the twist sign
    # (-1)^((par_i par_rest + j2 k2)(p-1)/2), par_rest the parity of blocks
    # i+1..; it is +1 at every index reached.  j2 runs from los[i] in steps
    # of 2q, so j2 = par_i mod 2; t has the parity of blocks i.. (by
    # _apply_monomial's parity check at the top and by the ranges of the
    # suffix loop of _apply_monomial_raw), so k2 = t - j2 = par_rest mod 2,
    # and the exponent is 2 par_i par_rest (p-1)/2, even.  A pair of pieces
    # one of which is zero adds nothing and is skipped
    head, q, n_i = plan.heads[i], plan.qs[i], plan.ns[i]
    out = {}  # every piece is multiplied into this one dict
    for j2 in range(plan.los[i], t - plan.n_suf[i + 1] + 1, 2 * q):
        k2 = t - j2
        for e1 in range(e, -1, -1) if q == 1 else (0,):
            # beta^e acts as beta^e1 on f^q and beta^e2 on the rest; a beta
            # moved past f^q picks up (-1)^n(f^q)
            e2 = e - e1
            left = _apply_monomial(e1, j2, head, ctx)
            right = rest[e2, k2]
            if left.terms and right.terms:
                _multiply_into(out, left, right, -1 if e2 * n_i % 2 else 1, ctx)
    return _from_sums(ctx, out)


def _apply_monomial_raw(eps, s2, mono, rec: _Record, ctx: Context) -> AlgebraElement:
    if not mono:
        if eps == 0 and s2 == 0:
            return AlgebraElement._trusted(ctx, {(): 1})
        return AlgebraElement._trusted(ctx, {})
    if len(mono) == 1:
        return _apply_qclass_raw(eps, s2, mono[0], ctx)
    # _apply_monomial has read off an index of the wrong parity and the
    # vanishing law.  The Cartan formula is summed over blocks: a run of p
    # or more equal factors (sorted, so adjacent) is split into p^i-th
    # powers, each acted on by _apply_power; any other factor is a block of
    # its own.  A block's results live in the record of its slice of the
    # monomial.  The plan is built before any unit is charged
    plan = rec.plan
    if plan is None:
        plan = rec.plan = _Plan(mono, ctx)
    qs = plan.qs
    if len(qs) == 1:
        return _apply_power(eps, s2, mono[0], qs[0], ctx)
    # The top reads blocks 1.. at each of its splits, each of those reads
    # blocks 2.., and so on: the suffix from block i is read at every e <=
    # eps and every t from its least index up to s2 minus the least indices
    # of the blocks before it, in steps of twice the least block size among
    # them.  The top's pieces are charged first.  With blocks of one factor
    # no list is longer; a list that is, after a block of q > 1, is charged
    # its excess before it is read.  The suffixes are summed shortest
    # first, each from the one before, into the results of its record
    paid = _pieces(plan, 0, eps, s2)
    charge("Cartan pieces", paid)
    leasts, offs, steps, suffixes = plan.leasts, plan.offs, plan.steps, plan.suffixes
    last = len(qs) - 1
    for i in range(last, 0, -1):
        results = suffixes[i].results
        least, top, step = leasts[i], s2 - offs[i], steps[i - 1]
        size = max(0, (top - least) // step + 1) * (eps + 1)
        if size > paid:
            charge("Cartan pieces", size - paid)
            paid = size
        for t in range(least + (top - least) % step, top + 1, step):
            for e in range(eps + 1):
                if (e, t) not in results:
                    if i == last:  # this suffix is the last block
                        results[e, t] = _apply_monomial(e, t, plan.heads[i], ctx)
                    else:
                        charge("Cartan pieces", _pieces(plan, i, e, t))
                        results[e, t] = _cartan(plan, i, e, t, suffixes[i + 1].results, ctx)
    return _cartan(plan, 0, eps, s2, suffixes[1].results, ctx)


@metered
def apply_word(word, e: AlgebraElement, ctx: Context) -> AlgebraElement:
    """Apply a composite of operations, innermost (rightmost) letter first."""
    _check_element(e, ctx)
    for eps, s2 in reversed(_check_word(word)):
        e = apply_op(eps, HalfInt(s2), e, ctx)
    return e


# ---------------------------------------------------------------------------
# suspension validation


def _shifted(ctx: Context) -> Context:
    gens = [Generator(g.name, g.g, g.n + 1) for g in ctx.generators]
    return Context(ctx.p, ctx.group, ctx.chi, gens, ctx.max_degree, ctx.max_charge)


@metered
def suspension_check(ctx: Context, max_degree, max_charge):
    """Compare the action before and after shifting every generator degree
    up by one: Q^s commutes with the shift and beta Q^s anti-commutes, so
    matching basis terms must appear with equal coefficients, and the
    lower-index constants must follow the one-step recursion.  Returns a
    list of discrepancy descriptions (empty when everything agrees).
    """
    _check_context(ctx)
    _check_int("max_degree", max_degree)
    _check_int("max_charge", max_charge)
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
        for qc in enumerate_qset(up, max_degree + 1, max_charge)
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

    for qc in enumerate_qset(ctx, max_degree, max_charge):
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
