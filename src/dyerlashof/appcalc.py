"""Group-homology tables read off the free-algebra model.

The free E-infinity algebra on one degree-zero generator splits by charge,
and the charge-k piece computes H_*(S_k) with coefficients twisted by the
character chi.  With chi = -1 the table lists sign-representation homology,
with chi = +1 ordinary homology, and the alternating groups are the sum of
the two columns.
"""

from typing import NamedTuple

from .errors import ContractError, Meter
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
    if twist not in (1, -1):
        raise ContractError("twist must be +1 or -1")
    group = GradingGroup(1)
    chi = TwistCharacter(group, (twist,))
    gen = Generator("x", (1,), 0)
    return Context(p, group, chi, [gen], max_degree=max_degree, max_charge=max_charge)


def _column_rows(ctx, max_k, max_degree, label_fmt):
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
    ctx = point_context(p, -1, max_degree, max_k)
    return _column_rows(ctx, max_k, max_degree, "S_{k} sign")


def sym_trivial_table(p, max_k, max_degree):
    """Dimensions of H_q(S_k; F_p) for k <= max_k, q <= max_degree."""
    ctx = point_context(p, 1, max_degree, max_k)
    return _column_rows(ctx, max_k, max_degree, "S_{k} trivial")


def alternating_table(p, max_k, max_degree):
    """Dimensions of H_q(A_k; F_p): trivial plus sign column, per degree.

    For odd p the transfer along the index-2 inclusion A_k < S_k splits off
    both coefficient systems, so for k >= 2 the alternating column is the
    termwise sum; for k < 2 the two groups coincide and only the trivial
    column counts.
    """
    with Meter():  # one budget for both columns
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
