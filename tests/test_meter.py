"""The work meter: one budget per call, shared by every stage below it."""

import pathlib
import re

import pytest

import dyerlashof
from dyerlashof.action import apply_op
from dyerlashof.appcalc import point_context
from dyerlashof.arith import HalfInt
from dyerlashof.cli import parse_element
from dyerlashof.dlalgebra import DLElement, _family_row, adem_expand, normalize
from dyerlashof.errors import Meter, ResourceError, charge
from dyerlashof.freealg import AlgebraElement, _enumerate_monomials, basis, multiply


def test_nested_meters_share_one_budget():
    with Meter(5) as outer:
        with Meter(100) as inner:
            assert inner is outer and Meter.running is outer
            inner.charge("a", 3)
        assert Meter.running is outer
        charge("b", 2)
        with pytest.raises(ResourceError, match=r"^b exceeded budget of 5 units \(a 3, b 3\)$"):
            charge("b")
    assert Meter.running is None
    charge("free", 10**9)  # no meter open: nothing is charged


def test_failed_call_leaves_no_meter():
    with pytest.raises(ResourceError):
        with Meter(0) as meter:
            meter.charge("x")
    assert Meter.running is None
    assert normalize(DLElement(3, 1, {((0, 4), (0, 0)): 1})).terms == {((0, 2), (0, 2)): 2}


def test_basis_draws_one_budget_for_words_and_walk():
    # the word search needs 17 units, the powers it lists 30 and the walk
    # 708: the walk fits 720 alone, but one call spends all three
    ctx = point_context(3, -1, 20, 27)
    with pytest.raises(ResourceError, match=r"^monomial enumeration .*\(enumeration 17, "):
        with Meter(720):
            basis(((27,), 20), 27, ctx)
    with Meter(755):
        assert len(basis(((27,), 20), 27, ctx)) == 1


def test_family_row_draws_on_the_budget():
    # Q^{3000000} Q^{0}: one family row of 2 * 10^6 binomials, charged
    # before it is computed
    adem_expand.cache_clear()
    _family_row.cache_clear()
    with pytest.raises(ResourceError, match="^Adem family rows"), Meter(10**6):
        normalize(DLElement(3, 1, {((0, 6_000_000), (0, 0)): 1}))
    with Meter(10**4) as meter:
        normalize(DLElement(3, 1, {((0, 6000), (0, 0)): 1}))
    assert meter.counts == {"rewriting": 1, "Adem family rows": 2000}


def test_products_and_the_cartan_step_draw_on_the_budget():
    ctx = point_context(3, 1, 8, 9)
    a = parse_element("x + 2 * x^2", ctx)
    with Meter(100) as meter:
        multiply(a, a, ctx)
    assert meter.counts == {"multiply": 4}  # pairs of terms
    # Q^1 on x^2, x untwisted in degree 0: the power makes two multiplies
    # and charges 1 + 0 and 1 + 1; the Cartan step has the two pieces
    # Q^0 x * Q^1 x and Q^1 x * Q^0 x, one multiply each
    with Meter(100) as meter:
        apply_op(0, HalfInt(2), parse_element("x^2", ctx), ctx)
    assert meter.counts == {"power": 3, "multiply": 4, "Cartan pieces": 2}


def test_multiply_opens_a_meter():
    # with no meter open, a product draws on a default one of 10^6 units:
    # 1,001 x 1,000 pairs of terms exit before the first is merged
    ctx = point_context(3, 1, 40, 81)
    monos = [m for m, _, _, _ in _enumerate_monomials(ctx, 40, 81)][:1001]
    a = AlgebraElement(ctx, dict.fromkeys(monos, 1))
    b = AlgebraElement(ctx, dict.fromkeys(monos[:1000], 1))
    with pytest.raises(ResourceError, match=r"^multiply exceeded budget of 1000000 units"):
        multiply(a, b, ctx)
    assert Meter.running is None


def test_only_the_meter_raises_for_the_budget():
    # a budget is enforced by Meter.charge alone; nothing catches the
    # interpreter running out of stack in its place
    src = pathlib.Path(dyerlashof.__file__).parent
    sites = {}
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        n = len(re.findall(r"(?<!class )\bResourceError\(", text))
        if n:
            sites[path.name] = n
        assert "RecursionError" not in text and "setrecursionlimit" not in text, path.name
    assert sites == {"errors.py": 1}
