"""Malformed input at every public entry ends in a typed error.

Each row calls one entry the README names, or one of the lower-indexing
API, with one malformed argument, and expects the exact DyerLashofError
subclass: ValidationError for bad input, ContractError for an argument of
the wrong kind of object (a context, an element).  No row may end in a
TypeError, AttributeError, KeyError or ValueError, nor return a value.
The last test pins what the checks take: an int subclass acts as its int,
and a bool or a float is refused.
"""

from enum import IntEnum

import pytest

from dyerlashof.action import apply_op, apply_word, suspension_check
from dyerlashof.appcalc import alternating_table, point_context, sym_sign_table, sym_trivial_table
from dyerlashof.arith import HalfInt
from dyerlashof.cli import parse_element, parse_word
from dyerlashof.dlalgebra import (
    _LETTERS,
    DLElement,
    adem_expand,
    adem_expand_lower,
    cross_check_composite,
    lower_from_upper,
    normalize,
)
from dyerlashof.errors import ContractError, DyerLashofError, Meter, ValidationError
from dyerlashof.freealg import (
    AlgebraElement,
    Context,
    Generator,
    QClass,
    basis,
    enumerate_dmodule_basis,
    enumerate_qset,
    multiply,
    poincare_table,
)
from dyerlashof.grading import GradingGroup, TwistCharacter

CTX = point_context(3, -1, 10, 9)
GEN = CTX.generator("x")
X = QClass(GEN, ())
ELT = AlgebraElement.from_monomial(CTX, (X,))
WORD = ((0, 3), (1, 1))  # Q^{3/2} bQ^{1/2}
GROUP = GradingGroup(1)
CHI = TwistCharacter(GROUP, (-1,))

V, C = ValidationError, ContractError

# (id, error class, call)
ROWS = [
    # the Dyer-Lashof algebra
    ("DLElement-p", V, lambda: DLElement(4, 1, {})),
    ("DLElement-twist", V, lambda: DLElement(3, 0, {})),
    ("DLElement-list", V, lambda: DLElement(3, 1, [1, 2])),
    ("DLElement-pairs", V, lambda: DLElement(3, -1, [(WORD, 1)])),
    ("DLElement-float-coeff", V, lambda: DLElement(3, 1, {((0, 4), (0, 0)): 2.5})),
    ("DLElement-bool-coeff", V, lambda: DLElement(3, -1, {WORD: True})),
    ("DLElement-word-str", V, lambda: DLElement(3, 1, {"xx": 1})),
    ("DLElement-word-int", V, lambda: DLElement(3, 1, {5: 1})),
    ("DLElement-bool-letter", V, lambda: DLElement(3, 1, {((True, 4),): 1})),
    ("normalize-not-element", C, lambda: normalize("Q^{2} Q^{0}")),
    ("normalize-strategy", C, lambda: normalize(DLElement(3, -1, {WORD: 1}), "middle")),
    ("adem_expand-bool-letter", V, lambda: adem_expand((True, 2), (0, 0), 1, 3)),
    # the lower-indexing API
    ("lower_from_upper-eps", V, lambda: lower_from_upper(2, 2, 0, 3)),
    ("lower_from_upper-bool-eps", V, lambda: lower_from_upper(True, 2, 0, 3)),
    ("lower_from_upper-float-s2", V, lambda: lower_from_upper(0, 2.5, 0, 3)),
    ("lower_from_upper-float-n", V, lambda: lower_from_upper(0, 2, 0.5, 3)),
    ("lower_from_upper-p", V, lambda: lower_from_upper(0, 2, 0, 4)),
    ("adem_expand_lower-chi", V, lambda: adem_expand_lower(3, 1, 0, 0, 3, "QQ")),
    ("adem_expand_lower-bool-chi", V, lambda: adem_expand_lower(3, 1, 0, True, 3, "QQ")),
    ("adem_expand_lower-float-n", V, lambda: adem_expand_lower(3, 1, 0.5, 1, 3, "QQ")),
    ("adem_expand_lower-float-r", V, lambda: adem_expand_lower(3.0, 1, 0, 1, 3, "QQ")),
    ("adem_expand_lower-p", V, lambda: adem_expand_lower(3, 1, 0, 1, 4, "QQ")),
    ("adem_expand_lower-case", C, lambda: adem_expand_lower(3, 1, 0, 1, 3, "XX")),
    ("adem_expand_lower-inner-s", C, lambda: adem_expand_lower(1, -1, 0, 1, 3, "QQ")),
    ("cross_check_composite-case", C, lambda: cross_check_composite(3, 1, "XX", 0, 3, 1)),
    # the checks run before the early zero of a composite with a zero operation
    ("cross_check_composite-p", V, lambda: cross_check_composite(0, 0, "QbQ", 0, 4, 1)),
    ("cross_check_composite-str-r", V, lambda: cross_check_composite("x", 0, "QbQ", 0, 3, 1)),
    # contexts and their parts
    ("GradingGroup-rank", V, lambda: GradingGroup(-1)),
    ("GradingGroup-validate-int", V, lambda: GROUP.validate(5)),
    ("TwistCharacter-sign", V, lambda: TwistCharacter(GROUP, (0,))),
    ("TwistCharacter-group", C, lambda: TwistCharacter("g", (1,))),
    ("Context-p", V, lambda: Context(4, GROUP, CHI, [])),
    ("Context-degree", V, lambda: Context(3, GROUP, CHI, [Generator("x", (1,), 0.5)])),
    ("Context-group", C, lambda: Context(3, "g", CHI, [])),
    ("Context-chi", C, lambda: Context(3, GROUP, "chi", [])),
    ("Context-generators-none", V, lambda: Context(3, GROUP, CHI, None)),
    ("Context-generator-str", V, lambda: Context(3, GROUP, CHI, ["x"])),
    ("point_context-twist", V, lambda: point_context(3, 0, 4, 4)),
    ("Meter-budget", V, lambda: Meter(-1)),
    # the free algebra
    ("AlgebraElement-ctx", C, lambda: AlgebraElement("c", {})),
    ("AlgebraElement-list", V, lambda: AlgebraElement(CTX, [1])),
    ("AlgebraElement-float-coeff", V, lambda: AlgebraElement(CTX, {(X,): 1.5})),
    ("AlgebraElement-bare-class", C, lambda: AlgebraElement(CTX, {X: 1})),
    ("zero-ctx", C, lambda: AlgebraElement.zero("c")),
    ("unit-ctx", C, lambda: AlgebraElement.unit("c")),
    ("from_monomial-ctx", C, lambda: AlgebraElement.from_monomial("c", (X,))),
    ("from_monomial-bare-class", C, lambda: AlgebraElement.from_monomial(CTX, X)),
    ("from_monomial-int", V, lambda: AlgebraElement.from_monomial(CTX, 5)),
    ("scale-float", V, lambda: ELT.scale(1.5)),
    ("add-not-element", C, lambda: ELT.add("x")),
    ("multiply-not-element", C, lambda: multiply(ELT, "x", CTX)),
    ("enumerate_qset-ctx", C, lambda: enumerate_qset("c", 4, 4)),
    ("enumerate_qset-cutoff", V, lambda: enumerate_qset(CTX, 4.0, 4)),
    ("enumerate_dmodule_basis-ctx", C, lambda: enumerate_dmodule_basis(GEN, 4, "c", 4)),
    ("enumerate_dmodule_basis-gen", V, lambda: enumerate_dmodule_basis("x", 4, CTX, 4)),
    ("basis-ctx", C, lambda: basis(((1,), 0), 4, "c")),
    ("basis-bidegree", V, lambda: basis(0, 4, CTX)),
    ("poincare_table-ctx", C, lambda: poincare_table("c", 4, 4)),
    ("poincare_table-cutoff", V, lambda: poincare_table(CTX, 4, None)),
    # the action
    ("apply_op-int-index", C, lambda: apply_op(0, 1, ELT, CTX)),
    ("apply_op-eps", C, lambda: apply_op(2, HalfInt(1), ELT, CTX)),
    ("apply_word-str", V, lambda: apply_word("xx", ELT, CTX)),
    ("apply_word-list", V, lambda: apply_word([1], ELT, CTX)),
    ("apply_word-not-element", C, lambda: apply_word(WORD, "x", CTX)),
    ("suspension_check-ctx", C, lambda: suspension_check("c", 4, 4)),
    ("suspension_check-cutoff", V, lambda: suspension_check(CTX, 4.0, 4)),
    # the group-homology tables
    ("sym_sign_table-cutoff", V, lambda: sym_sign_table(3, 2, None)),
    ("sym_trivial_table-cutoff", V, lambda: sym_trivial_table(3, None, 5)),
    ("alternating_table-cutoff", V, lambda: alternating_table(3, 2, None)),
    # the parsers
    ("parse_element-not-text", V, lambda: parse_element(5, CTX)),
    ("parse_element-syntax", V, lambda: parse_element("x +", CTX)),
    ("parse_element-ctx", C, lambda: parse_element("x", "c")),
    ("parse_word-not-text", V, lambda: parse_word(None)),
    ("parse_word-syntax", V, lambda: parse_word("Q^{2} x")),
]


@pytest.mark.parametrize("error,call", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS])
def test_malformed_input_raises_a_typed_error(error, call):
    assert issubclass(error, DyerLashofError)
    with pytest.raises(error):
        call()


def test_suspension_check_names_the_cutoff_it_was_given():
    # checked where it enters, not as the max_degree + 1 of the shifted context
    with pytest.raises(ValidationError, match=r"max_degree must be an integer, got 4\.0$"):
        suspension_check(CTX, 4.0, 4)


def _both_elements(coeff):
    """Calls that build a DLElement and an AlgebraElement of one term, each
    with coefficient coeff."""
    return (lambda: DLElement(3, -1, {WORD: coeff}),
            lambda: AlgebraElement(CTX, {(X,): coeff}))


@pytest.mark.parametrize("coeff", [True, False, 2.5, 1.0, "1", None],
                         ids=["true", "false", "float", "float-int", "str", "none"])
def test_both_algebras_refuse_the_same_coefficients(coeff):
    for build in _both_elements(coeff):
        with pytest.raises(ValidationError):
            build()


@pytest.mark.parametrize("coeff", [1, 4, -2, 3, 10**30])
def test_both_algebras_take_int_coefficients(coeff):
    dl, alg = (build() for build in _both_elements(coeff))
    c = coeff % 3
    assert dl.terms == ({WORD: c} if c else {})
    assert alg.terms == ({(X,): c} if c else {})


@pytest.mark.parametrize("terms", [[1, 2], [(WORD, 1)], "ab", 5, 0, (), []],
                         ids=["list", "pairs", "str", "int", "zero", "tuple", "empty-list"])
def test_both_algebras_refuse_the_same_non_mappings(terms):
    for build in (lambda: DLElement(3, -1, terms), lambda: AlgebraElement(CTX, terms)):
        with pytest.raises(ValidationError):
            build()


def test_both_algebras_read_none_and_empty_as_zero():
    for terms in (None, {}):
        assert DLElement(3, -1, terms).is_zero
        assert AlgebraElement(CTX, terms).is_zero


def _enum(value):
    """value as a member of an IntEnum: an int subclass that is not a bool."""
    return IntEnum("E", {"V": value}).V


def _act(eps):
    ctx = point_context(3, 1, 20, 9)  # fresh, so that its caches start empty
    x = AlgebraElement.from_monomial(ctx, (QClass(ctx.generator("x"), ()),))
    return apply_op(eps, HalfInt(2), x, ctx).terms


def _metered_table(budget):
    with Meter(budget) as meter:
        table = poincare_table(point_context(3, -1, 10, 9), 10, 9)
    return table, meter.counts, meter.left


# (place, int the boundary takes there, what a call with it returns, error
# class of a bool or a float there).  Q^4 Q^1 at p = 3 and Q^6 Q^1 at p = 5
# are inadmissible, so the DLElement places are rewritten.
PLACES = [
    ("letter-eps", 0, lambda v: normalize(DLElement(3, 1, {((v, 8), (0, 2)): 1})), V),
    ("letter-index", 8, lambda v: normalize(DLElement(3, 1, {((0, v), (0, 2)): 1})), V),
    ("coefficient", 2, lambda v: normalize(DLElement(3, 1, {((0, 8), (0, 2)): v})), V),
    ("p", 5, lambda v: normalize(DLElement(v, 1, {((0, 12), (0, 2)): 1})), V),
    ("twist", 1, lambda v: normalize(DLElement(3, v, {((0, 8), (0, 2)): 1})), V),
    ("eps", 1, _act, C),
    ("budget", 10**4, _metered_table, V),
]


@pytest.mark.parametrize("value,build,error", [row[1:] for row in PLACES],
                         ids=[row[0] for row in PLACES])
def test_the_boundary_takes_int_subclasses_and_refuses_bools_and_floats(value, build, error):
    # the int first, so the IntEnum call meets the caches it filled, and no
    # cache keeps an IntEnum member for a later test to read
    want = build(value)
    assert build(_enum(value)) == want
    for bad in (bool(value), float(value)):
        with pytest.raises(error):
            build(bad)


def _letter_types(words):
    return {type(v) for word in words for letter in word for v in letter}


def test_an_int_subclass_is_stored_as_int():
    # the IntEnum calls first, into empty Adem caches and a fresh context:
    # each cache keeps the first key object it meets, so an IntEnum stored
    # there would come back in the later calls' results
    adem_expand.cache_clear()
    _LETTERS.clear()
    ctx = point_context(3, 1, 20, 9)
    x = AlgebraElement.from_monomial(ctx, (QClass(ctx.generator("x"), ()),))
    calls = [
        lambda z, one, four, ten: list(normalize(DLElement(3, 1, {((z, four), (z, z)): 1})).terms),
        lambda z, one, four, ten: [w for w, _ in adem_expand((z, ten), (z, 2), 1, 3)],
        lambda z, one, four, ten: [
            q.word for m in apply_op(one, HalfInt(four), x, ctx).terms for q in m],
        lambda z, one, four, ten: [
            q.word for m in apply_word(((z, ten), (one, four)), x, ctx).terms for q in m],
    ]
    for call in calls:
        leaked = call(_enum(0), _enum(1), _enum(4), _enum(10))
        plain = call(0, 1, 4, 10)
        assert leaked == plain and plain
        assert _letter_types(leaked) == _letter_types(plain) == {int}


def test_an_int_subclass_in_a_class_is_stored_as_int():
    # a class with an IntEnum word, and one over a Generator with an IntEnum
    # degree, each first, on a fresh context: the boundary rebuilds them over
    # plain ints and the context's own Generator, so the action's memo, keyed
    # by monomial, keeps no IntEnum for the plain call after it
    ctx = point_context(3, 1, 20, 9)
    x = ctx.generator("x")
    repros = [
        (6, QClass(x, ((_enum(0), _enum(2)),)), QClass(x, ((0, 2),))),
        (2, QClass(Generator("x", (1,), _enum(0)), ()), QClass(x, ())),
    ]
    for s2, leaky, plain in repros:
        outs = [apply_op(0, HalfInt(s2), AlgebraElement.from_monomial(ctx, (qc,)), ctx)
                for qc in (leaky, plain)]
        assert outs[0] == outs[1] and not outs[1].is_zero
        for out in outs:
            for qc in (qc for mono in out.terms for qc in mono):
                assert qc.gen is ctx.generator("x")
                assert all(type(v) is int for letter in qc.word for v in letter)
    [leaky] = enumerate_dmodule_basis(Generator("x", (1,), _enum(0)), 0, ctx, 1)
    assert leaky.gen is x
