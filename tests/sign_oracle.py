"""Test oracles kept on purpose beside the faster paths they check.

The Koszul sign one pair at a time, and the merge of two monomials built on
it: the oracles for freealg._merge_monomials, which reads each class's degree
and parity from its context's class-data table and sums the sign as one
exponent.  And the Poincare table expanded one power at a time: the oracle
for freealg.poincare_table, which multiplies a class in by a running sum."""

from dyerlashof.errors import Meter
from dyerlashof.freealg import _candidates


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
    with Meter(ctx.budget) as meter:
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
