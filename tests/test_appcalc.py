import pytest

from dyerlashof.appcalc import (
    alternating_table,
    point_context,
    sym_sign_table,
    sym_trivial_table,
)
from dyerlashof.errors import ContractError, ValidationError
from dyerlashof.freealg import poincare_table


def dims(table):
    return {k: row.dim for k, row in table.items()}


def test_sign_examples_p3():
    t = sym_sign_table(3, 4, 6)
    assert t[(3, 1)].dim == 1
    assert t[(3, 1)].basis_labels == ("bQ^{1/2} x",)
    assert (2, 0) not in t  # x^2 = 0
    assert t[(4, 1)].basis_labels == ("x * bQ^{1/2} x",)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_charge_one_column(p):
    t = sym_sign_table(p, 1, 4)
    assert dims(t) == {(0, 0): 1, (1, 0): 1}
    u = sym_trivial_table(p, 1, 4)
    assert dims(u) == {(0, 0): 1, (1, 0): 1}


def test_sign_oracle_charge3():
    t = sym_sign_table(3, 3, 10)
    col = {q: row.dim for (k, q), row in t.items() if k == 3}
    assert col == {q: 1 for q in range(11) if q % 4 in (1, 2)}


def test_trivial_oracle_charge3():
    t = sym_trivial_table(3, 3, 10)
    col = {q: row.dim for (k, q), row in t.items() if k == 3}
    assert col == {q: 1 for q in range(11) if q % 4 in (0, 3)}


def test_alternating_examples():
    t = alternating_table(3, 4, 10)
    assert t[(3, 1)].dim == 1
    assert t[(4, 1)].dim == 1
    assert t[(4, 1)].basis_labels == ("x * bQ^{1/2} x",)
    assert t[(3, 2)].dim == 1
    # A_3 = Z/3 has one dimension of F_3-homology in every degree
    col = {q: row.dim for (k, q), row in t.items() if k == 3}
    assert col == {q: 1 for q in range(11)}


def test_sign_support_charge_p():
    # nonzero entries in the charge-p column sit exactly in degrees
    # (2s+1)(p-1) and (2s+1)(p-1)-1
    for p, top in ((3, 14), (5, 21)):
        t = sym_sign_table(p, p, top)
        got = sorted(q for (k, q) in t if k == p)
        want = sorted(
            q
            for s in range(0, top)
            for q in ((2 * s + 1) * (p - 1), (2 * s + 1) * (p - 1) - 1)
            if 0 <= q <= top
        )
        assert got == want


@pytest.mark.parametrize("p", [3, 5, 7])
def test_swan_oracles_below_2p(p):
    # For k < 2p a Sylow p-subgroup of S_k is Z/p (trivial for k < p), which
    # is abelian, so by Swan's theorem H_*(S_k; M) is read off H_*(Z/p; M)
    # and the action of its normalizer; that gives a period of 2(p - 1).
    top, period = 40, 2 * (p - 1)

    def trivial(k):
        if k < p:
            return {0: 1}
        return {q: 1 for q in range(top + 1) if q % period in (0, period - 1)}

    def sign(k):
        if k <= 1:
            return {0: 1}
        if k < p or k >= p + 2:
            return {}
        return {q: 1 for q in range(top + 1) if q % period in (p - 2, p - 1)}

    for twist, want, listed_table in ((1, trivial, sym_trivial_table),
                                      (-1, sign, sym_sign_table)):
        counted = poincare_table(point_context(p, twist, top, 2 * p - 1), top, 2 * p - 1)
        listed = dims(listed_table(p, 2 * p - 1, top))
        for k in range(2 * p):
            assert {n: d for (_, n, c), d in counted.items() if c == k} == want(k), (twist, k)
            assert {q: d for (c, q), d in listed.items() if c == k} == want(k), (twist, k)


def test_untwisted_stability():
    t = sym_trivial_table(3, 6, 8)
    for q in range(9):
        run = [t.get((k, q)).dim if (k, q) in t else 0 for k in range(7)]
        assert all(a <= b for a, b in zip(run, run[1:])), (q, run)


def test_point_context_validation():
    with pytest.raises(ContractError):
        point_context(3, 0, 4, 4)
    with pytest.raises(ValidationError):
        point_context(4, 1, 4, 4)
