"""Test oracles kept on purpose beside the faster paths they check.

The Koszul sign one pair at a time, and the merge of two monomials built on
it: the oracles for freealg._merge_monomials, which reads each class's degree
and parity from its context's class-data table and sums the sign as one
exponent.  The Poincare table expanded one power at a time: the oracle
for freealg.poincare_table, which multiplies a class in by a running sum.
And the Cartan formula walked one factor at a time: the oracle for
action.apply_op, which acts on a p^k-th power as one block."""

from itertools import accumulate

from dyerlashof.action import _apply_qclass
from dyerlashof.errors import Meter
from dyerlashof.freealg import AlgebraElement, _candidates, _combine, multiply


def repeatable(qc, ctx) -> bool:
    """A class may repeat in a monomial when its degree plus twist parity is even."""
    g, n = qc.bidegree(ctx)
    return (n + ctx.chi.parity(g)) % 2 == 0


def swap_sign(chi, bideg_a, bideg_b) -> int:
    """Koszul sign (-1)^(n_a n_b + lambda(g_a) lambda(g_b)) for commuting two classes."""
    (g_a, n_a), (g_b, n_b) = bideg_a, bideg_b
    e = n_a * n_b + chi.parity(g_a) * chi.parity(g_b)
    return -1 if e % 2 else 1


def merge_pairwise(a, b, ctx):
    """(sorted tuple, sign) or None, with a swap_sign per factor of a that a
    factor y of b moves past and sort keys computed at each comparison."""
    sign = 1
    out = []
    i = 0
    for y in b:
        key = y.sort_key()
        j = i
        while i < len(a) and a[i].sort_key() <= key:
            i += 1
        out.extend(a[j:i])
        if i > j and a[i - 1] == y and not repeatable(y, ctx):
            return None
        for k in range(i, len(a)):
            sign *= swap_sign(ctx.chi, a[k].bidegree(ctx), y.bidegree(ctx))
        out.append(y)
    out.extend(a[i:])
    return tuple(out), sign


def poincare_table_by_powers(ctx, max_degree, max_charge):
    """freealg.poincare_table with each class's geometric series expanded in
    full: every partial product steps through every power the class may take,
    one group addition per step.  Charges the meter as poincare_table does."""
    with Meter() as meter:
        nu, cands = _candidates(ctx, max_degree, max_charge)
        add = ctx.group.add
        table = {(ctx.group.zero(), 0, 0): 1} if max_charge >= 0 else {}
        for _, bg, bn, bk, powers in cands:
            meter.charge("table count", len(table))
            grown = dict(table)
            for (g, n, c), dim in table.items():
                for _ in powers:
                    c, n = c + bk, n + bn
                    # n + nu * (max_charge - c) never falls as the power
                    # grows, since bn >= nu * bk
                    if c > max_charge or n + nu * (max_charge - c) > max_degree:
                        break
                    g = add(g, bg)
                    key = (g, n, c)
                    grown[key] = grown.get(key, 0) + dim
            table = grown
    return {key: dim for key, dim in table.items() if key[1] <= max_degree}


def apply_op_by_factors(eps, s2, elt, ctx):
    """action.apply_op, beta^eps Q^{s2/2}, with the Cartan formula summed
    over the suffixes of each monomial one factor at a time, a run of equal
    factors included.  Keeps its own per-context cache of suffix actions."""
    cache = ctx.__dict__.setdefault("_oracle_monomial_op_cache", {})
    return _combine(ctx, ((c, _act_by_factors(eps, s2, mono, ctx, cache))
                          for mono, c in elt.terms.items()))


def _act_by_factors(eps, s2, mono, ctx, cache):
    if not mono:
        if eps == 0 and s2 == 0:
            return AlgebraElement.unit(ctx)
        return AlgebraElement.zero(ctx)
    _, ns, pars, _ = zip(*[ctx.class_data[qc] for qc in mono])
    if (s2 - sum(pars)) % 2:
        return AlgebraElement.zero(ctx)
    if len(mono) == 1:
        return _apply_qclass(eps, s2, mono[0], ctx)
    n_suf = [*accumulate(reversed(ns), initial=0)][::-1]
    par_suf = [*accumulate(reversed(pars), initial=0)][::-1]
    los = [n + (n - par) % 2 for n, par in zip(ns, pars)]
    half = (ctx.p - 1) // 2

    def cartan(i, e, t, rest):
        f = mono[i]
        shuffle = -1 if (pars[i] * par_suf[i + 1] * half) % 2 else 1
        out = []
        for j2 in range(los[i], t - n_suf[i + 1] + 1, 2):
            k2 = t - j2
            sign = shuffle * (-1 if (j2 * k2 * half) % 2 else 1)
            for e1 in range(e, -1, -1):
                e2 = e - e1
                piece = multiply(_apply_qclass(e1, j2, f, ctx), rest[(e2, k2)], ctx)
                out.append((-sign if e2 * ns[i] % 2 else sign, piece))
        return _combine(ctx, out)

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
                        hit = cartan(i, e, t, rest)
                    cache[key] = hit
                here[e, t] = hit
        rest = here
    return cartan(0, eps, s2, rest)
