import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from dyerlashof.errors import ValidationError
from dyerlashof.grading import GradingGroup, TwistCharacter
from sign_oracle import swap_sign


def test_group_basics():
    g = GradingGroup(free_rank=2, torsion_orders=(4,))
    assert g.rank == 3
    assert g.zero() == (0, 0, 0)
    assert g.validate((1, -2, 7)) == (1, -2, 3)
    assert g.add((1, 0, 3), (0, 1, 2)) == (1, 1, 1)
    assert g.scale(3, (1, 1, 3)) == (3, 3, 1)
    with pytest.raises(ValidationError):
        g.validate((1, 2))
    with pytest.raises(ValidationError):
        GradingGroup(free_rank=-1)
    with pytest.raises(ValidationError):
        GradingGroup(free_rank=0, torsion_orders=(1,))
    for free, orders in (("1", ()), (1.0, ()), (1, ("2",)), (1, 2)):
        with pytest.raises(ValidationError):
            GradingGroup(free, orders)


def test_twist_character():
    g = GradingGroup(free_rank=1)
    chi = TwistCharacter(g, (-1,))
    assert chi.chi((0,)) == 1
    assert chi.chi((1,)) == -1
    assert chi.chi((2,)) == 1
    assert chi.chi((-3,)) == -1
    assert chi.parity((3,)) == 1
    triv = TwistCharacter(g, (1,))
    assert triv.chi((5,)) == 1


def test_twist_character_torsion_rules():
    g = GradingGroup(free_rank=0, torsion_orders=(2, 3))
    TwistCharacter(g, (-1, 1))  # ok: even torsion may carry -1
    with pytest.raises(ValidationError):
        TwistCharacter(g, (1, -1))  # no sign character on Z/3
    with pytest.raises(ValidationError):
        TwistCharacter(g, (2, 1))
    with pytest.raises(ValidationError):
        TwistCharacter(g, (1,))


def test_chi_multiplicative():
    g = GradingGroup(free_rank=2, torsion_orders=(2,))
    chi = TwistCharacter(g, (-1, 1, -1))

    @settings(deadline=None)
    @given(
        st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)),
        st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)),
    )
    def inner(a, b):
        assert chi.chi(g.add(a, b)) == chi.chi(a) * chi.chi(b)
        # chi(g^p) = chi(g) for odd p
        assert chi.chi(g.scale(3, a)) == chi.chi(a)

    inner()


@settings(deadline=None)
@given(st.tuples(st.integers(-99, 99), st.integers(-99, 99), st.integers(-99, 99)))
def test_chi_ignores_reduction(a):
    # parity reads g without reducing it; that is sound because -1 sits only
    # on free or even-torsion coordinates
    g = GradingGroup(free_rank=1, torsion_orders=(2, 4))
    for signs in itertools.product((1, -1), repeat=3):
        chi = TwistCharacter(g, signs)
        assert chi.chi(a) == chi.chi(g.validate(a))


@pytest.mark.parametrize("free_rank,torsion_orders", [
    (0, ()), (1, ()), (3, ()), (1, (2,)), (1, (3,)),
])
def test_add_and_scale_equal_the_reduction(free_rank, torsion_orders):
    # with no torsion add and scale skip the reduction; either way they
    # equal reducing the coordinatewise sum and multiple
    g = GradingGroup(free_rank, torsion_orders)
    rng = random.Random(free_rank + sum(torsion_orders))
    for _ in range(300):
        a, b = (g.validate([rng.randint(-50, 50) for _ in range(g.rank)]) for _ in "ab")
        k = rng.randint(-7, 7)
        assert g.add(a, b) == g.validate([x + y for x, y in zip(a, b)])
        assert g.scale(k, a) == g.validate([k * x for x in a])
        assert type(g.add(a, b)) is type(g.scale(k, a)) is tuple


def test_swap_sign():
    g = GradingGroup(free_rank=1)
    chi = TwistCharacter(g, (-1,))
    # odd degree, untwisted gradings: anticommute
    assert swap_sign(chi, ((0,), 1), ((0,), 1)) == -1
    assert swap_sign(chi, ((0,), 2), ((0,), 1)) == 1
    # even degree but both twisted: lambda contributes
    assert swap_sign(chi, ((1,), 0), ((1,), 0)) == -1
    assert swap_sign(chi, ((1,), 0), ((2,), 0)) == 1
    # symmetric in its arguments
    a, b = ((1,), 3), ((2,), 2)
    assert swap_sign(chi, a, b) == swap_sign(chi, b, a)


def test_square_rule():
    # a class may square nontrivially iff n + lambda(g) is even
    g = GradingGroup(free_rank=1)
    chi = TwistCharacter(g, (-1,))
    for gv in ((0,), (1,)):
        for n in range(-3, 4):
            self_sign = swap_sign(chi, (gv, n), (gv, n))
            even = (n + chi.parity(gv)) % 2 == 0
            assert (self_sign == 1) == even
