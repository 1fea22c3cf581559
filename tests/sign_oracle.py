"""The Koszul sign one pair at a time, and the merge of two monomials built
on it: the test oracles for freealg._merge_monomials, which reads each
class's degree and parity from its context's class-data table and sums the
sign as one exponent."""

from dyerlashof.freealg import _repeatable


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
        if i > j and a[i - 1] == y and not _repeatable(y, ctx):
            return None
        for k in range(i, len(a)):
            sign *= swap_sign(ctx.chi, a[k].bidegree(ctx), y.bidegree(ctx))
        out.append(y)
    out.extend(a[i:])
    return tuple(out), sign
