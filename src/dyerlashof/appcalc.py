"""Group-homology tables read off the free-algebra model.

The free E-infinity algebra on one degree-zero generator splits by charge,
and the charge-k piece computes H_*(S_k) with coefficients twisted by the
character chi.  With chi = -1 the table lists sign-representation homology,
with chi = +1 ordinary homology, and the alternating groups are the sum of
the two columns.  _swan_count gives the same dimensions for k < p^2 from
Swan's theorem, without the model: selfcheck and the tests compare the two.
"""

from typing import NamedTuple

from .arith import _check_int
from .errors import metered
from .freealg import Context, Generator, _enumerate_monomials, monomial_str
from .grading import GradingGroup, TwistCharacter

__all__ = [
    "GroupHomologyRow",
    "point_context",
    "sym_sign_table",
    "sym_trivial_table",
    "alternating_table",
]


class GroupHomologyRow(NamedTuple):
    """One homology group: label, symmetric-power level k, degree, dimension."""

    label: str
    charge: int
    degree: int
    dim: int
    basis_labels: tuple = ()


def point_context(p, twist, max_degree, max_charge):
    """Free-algebra context on a single generator x in bidegree (1, 0)."""
    group = GradingGroup(1)
    chi = TwistCharacter(group, (twist,))
    gen = Generator("x", (1,), 0)
    return Context(p, group, chi, [gen], max_degree=max_degree, max_charge=max_charge)


def _column(p, twist, max_k, max_degree, label_fmt):
    """The rows of one column: the monomials of point_context(p, twist)
    grouped by (charge, degree)."""
    _check_int("max_k", max_k)
    _check_int("max_degree", max_degree)
    ctx = point_context(p, twist, max_degree, max_k)
    grouped = {}
    for factors, _, n, charge in _enumerate_monomials(ctx, max_degree, max_k):
        grouped.setdefault((charge, n), []).append(monomial_str(factors))
    return {
        (k, q): GroupHomologyRow(label_fmt.format(k=k), k, q, len(labels),
                                 tuple(sorted(labels)))
        for (k, q), labels in grouped.items()
    }


def sym_sign_table(p, max_k, max_degree):
    """Dimensions of H_q(S_k; sign) for k <= max_k, q <= max_degree.

    Returned as a dict keyed by (k, q); a missing key means dimension zero.
    """
    return _column(p, -1, max_k, max_degree, "S_{k} sign")


def sym_trivial_table(p, max_k, max_degree):
    """Dimensions of H_q(S_k; F_p) for k <= max_k, q <= max_degree."""
    return _column(p, 1, max_k, max_degree, "S_{k} trivial")


@metered  # one budget for both columns
def alternating_table(p, max_k, max_degree):
    """Dimensions of H_q(A_k; F_p): trivial plus sign column, per degree.

    For odd p the transfer along the index-2 inclusion A_k < S_k splits off
    both coefficient systems, so for k >= 2 the alternating column is the
    termwise sum; for k < 2 the two groups coincide and only the trivial
    column counts.
    """
    triv = sym_trivial_table(p, max_k, max_degree)
    sgn = sym_sign_table(p, max_k, max_degree)
    rows = {}
    for key in sorted(set(triv) | set(sgn)):
        k, q = key
        labels = []
        dim = 0
        parts = (triv, sgn) if k >= 2 else (triv,)
        for part in parts:
            if key in part:
                dim += part[key].dim
                labels.extend(part[key].basis_labels)
        if dim:
            rows[key] = GroupHomologyRow("A_{}".format(k), k, q, dim, tuple(labels))
    return rows


def _swan_count(p, k, sign, top):
    """dim H_q(S_k; M), q <= top, for k < p^2 by Swan's theorem.  A Sylow
    p-subgroup is P = (Z/p)^r, r = k // p, abelian, so H_*(S_k; M) is the
    part of H_*(P) (x) M fixed by its normalizer, which acts through
    F_p^x wr S_r.  A block (eps, f) of H_*(Z/p), degree eps + 2f, is fixed
    by the scalings against M iff eps + f = c mod p - 1: c = 0 for M
    trivial and c = (p - 1)/2 for M = sign, since the sign of scaling one
    block by a is the Legendre symbol (a/p) (Zolotarev).  So H_q is spanned
    by the multisets of r such blocks of total degree q, where a block that
    occurs twice must be symmetric under their swap: eps = 0 for M trivial,
    and eps = 1 for M = sign, as a swap of two blocks has sign -1.  A
    transposition of two of the k - pr points left over fixes P and has sign
    -1, so the sign column is 0 when two points are left."""
    r = k // p
    if sign and k - p * r >= 2:
        return {}
    c, repeat_eps = ((p - 1) // 2, 1) if sign else (0, 0)
    counts = {(0, 0): 1}  # (blocks taken, degree) -> multisets
    for eps in (0, 1):
        for f in range((top - eps) // 2 + 1):
            if (eps + f - c) % (p - 1):
                continue
            d, most = eps + 2 * f, r if eps == repeat_eps else 1
            grown = dict(counts)
            for (m, q), v in counts.items():
                for j in range(1, min(most, r - m) + 1):
                    if q + j * d > top:
                        break
                    grown[m + j, q + j * d] = grown.get((m + j, q + j * d), 0) + v
            counts = grown
    return {q: v for (m, q), v in counts.items() if m == r}
