from collections import Counter

import pytest

from dyerlashof.appcalc import (
    _swan_count,
    alternating_table,
    point_context,
    sym_sign_table,
    sym_trivial_table,
)
from dyerlashof.errors import ValidationError
from dyerlashof.freealg import Context, Generator, poincare_table
from dyerlashof.grading import GradingGroup, TwistCharacter


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


@pytest.mark.parametrize("p,max_k,top", [(3, 8, 40), (5, 24, 40), (7, 20, 36)])
def test_swan_count_below_p_squared(p, max_k, top):
    for sign, listed_table in ((False, sym_trivial_table), (True, sym_sign_table)):
        listed = dims(listed_table(p, max_k, top))
        for k in range(max_k + 1):
            got = {q: d for (c, q), d in listed.items() if c == k}
            assert got == _swan_count(p, k, sign, top), (sign, k)


def _one_generator_table(p, twist, n, max_degree, max_charge):
    group = GradingGroup(1)
    ctx = Context(p, group, TwistCharacter(group, (twist,)), [Generator("x", (1,), n)])
    return {(k, q): d for (_, q, k), d in poincare_table(ctx, max_degree, max_charge).items()}


@pytest.mark.parametrize("p", [3, 5, 7])
def test_twist_shift_identity(p):
    # The twisted point with x in degree n and the untwisted point with x in
    # degree n + 1 have the same table once a class of charge k is shifted up
    # k degrees: the map sending each letter s2 of charge p^j (counted from
    # the inside) to s2 + p^j preserves admissibility, excess and
    # repeatability, and so sends basis to basis.  It reads no Adem
    # coefficient.
    top, max_charge = (36 if p == 7 else 40), p * p
    for n in range(-1, 3):
        twisted = _one_generator_table(p, -1, n, top, max_charge)
        untwisted = _one_generator_table(p, 1, n + 1, top + max_charge, max_charge)
        shifted = {(k, q - k): d for (k, q), d in untwisted.items() if q - k <= top}
        assert twisted and twisted == shifted, n



# Context shapes as (free rank, torsion orders, signs, generators (g, n)):
# free ranks 0 to 2, torsion Z/2 and Z/4 with sign -1, and mixed, all-twisted
# and untwisted generators of degrees -1 to 3.
SHIFT_SHAPES = [
    (0, (), (), [((), 0)]),
    (1, (), (-1,), [((1,), 0)]),
    (1, (), (-1,), [((1,), -1), ((2,), 1)]),
    (2, (), (-1, 1), [((1, 0), 0), ((0, 1), 1), ((1, 1), -1)]),
    (2, (), (-1, -1), [((1, 0), 2), ((0, 1), 3), ((1, 1), 0)]),
    (2, (), (-1, -1), [((1, 0), -1), ((0, 1), -1)]),
    (0, (2,), (-1,), [((1,), 0), ((0,), 2)]),
    (0, (4,), (-1,), [((1,), 1), ((2,), -1), ((3,), 2)]),
    (1, (2,), (1, -1), [((1, 0), 0), ((0, 1), -1), ((1, 1), 3)]),
    (1, (4,), (-1, -1), [((1, 0), 1), ((0, 1), 0), ((1, 1), 2)]),
]


def _shape_context(p, free, torsion, signs, gens):
    group = GradingGroup(free, torsion)
    return Context(p, group, TwistCharacter(group, signs),
                   [Generator(f"x{i}", g, n) for i, (g, n) in enumerate(gens)])


def _refined_context(p, free, torsion, signs, gens, twin):
    """The shape over G + Z, the new coordinate (index free) 1 on twisted
    generators and 0 on the others, and chi +1 on it; the twin also makes
    chi trivial and raises each twisted generator's degree by 1."""
    chi = TwistCharacter(GradingGroup(free, torsion), signs)
    refined = []
    for g, n in gens:
        t = chi.parity(g)
        refined.append((g[:free] + (t,) + g[free:], n + t if twin else n))
    signs = (1,) * (len(signs) + 1) if twin else signs[:free] + (1,) + signs[free:]
    return _shape_context(p, free + 1, torsion, signs, refined)


@pytest.mark.parametrize("p,top,max_charge", [(3, 14, 18), (5, 24, 12), (7, 30, 14)])
def test_twist_shift_identity_on_every_shape(p, top, max_charge):
    # On G + Z the new coordinate of a monomial counts the charge its twisted
    # factors carry, which is the degree the twin adds: the twisted table is
    # the twin's shifted down by that coordinate.  The twin needs max_charge
    # more degrees, since the coordinate is at most the charge.
    for shape in SHIFT_SHAPES:
        free = shape[0]
        twisted = poincare_table(_refined_context(p, *shape, False), top, max_charge)
        twin = poincare_table(_refined_context(p, *shape, True), top + max_charge, max_charge)
        shifted = {(g, n - g[free], k): d for (g, n, k), d in twin.items() if n - g[free] <= top}
        assert twisted and twisted == shifted, shape
        # the refinement only splits the original table's entries
        projected = Counter()
        for (g, n, k), d in twisted.items():
            projected[g[:free] + g[free + 1:], n, k] += d
        assert dict(projected) == poincare_table(_shape_context(p, *shape), top, max_charge), shape


def test_untwisted_stability():
    t = sym_trivial_table(3, 6, 8)
    for q in range(9):
        run = [t.get((k, q)).dim if (k, q) in t else 0 for k in range(7)]
        assert all(a <= b for a, b in zip(run, run[1:])), (q, run)


def test_point_context_validation():
    with pytest.raises(ValidationError):
        point_context(3, 0, 4, 4)
    with pytest.raises(ValidationError):
        point_context(4, 1, 4, 4)
