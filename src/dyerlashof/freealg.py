"""Basis enumeration for the homology of free E-infinity algebras.

The input is a list of generators x with bidegrees (g, n) in Gamma x Z.  The
homology of the free algebra on them is the free graded-commutative algebra
on the set Q(S) of classes Q^I x, where I ranges over admissible words with
e(I) + eps_1 > n whose index parity matches chi(g).  Such a class sits in
bidegree (p^l g, n + d_Z(I)) and carries charge p^l, l the word length.

Monomials in these classes, sorted under a fixed total order and with
repetition of a factor allowed only when its degree-plus-twist parity is
even, form a basis.  So the Poincare series is a product over Q(S):

    prod over repeatable b of 1/(1 - t^b)  *  prod over the others of (1 + t^b),

t^b standing for the class's (g, n, charge).  poincare_table expands this
product truncated at the charge and degree cutoffs, and counts without
building a monomial.  By the degree law a class of charge p^l over a
generator of degree n has degree >= p^l n, so with nu <= 0 the least
generator degree (or 0) every class has degree >= nu * charge.  A partial
product of degree n and charge c can then only complete to degree
>= n + nu * (max_charge - c), and is dropped when that exceeds max_degree.
_enumerate_monomials lists the monomials themselves, for callers that need
labels, and serves as the tests' oracle for the counts.

enumerate_dmodule_basis lists the larger free-module basis (weak inequality
e(I) >= n, no top-level product structure): the words excluded from Q(S) by
the strict inequality reappear in the algebra as p-th powers.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

from .arith import _check_int, check_odd_prime, is_int
from .dlalgebra import (_check_coeff, _check_word, _find_inadmissible, _read_terms, excess,
                        word_degree)
from .errors import ContractError, Meter, ValidationError, charge, metered
from .grading import GradingGroup, TwistCharacter


class Generator(NamedTuple):
    name: str
    g: tuple[int, ...]
    n: int


class Context:
    """A prime, a grading group with twist character, and named generators,
    each Generator checked here, where it enters the engine.  It owns the
    class_data table (_ClassData) and the action's one memo, a record per
    monomial (action._Record)."""

    def __init__(self, p, group: GradingGroup, chi: TwistCharacter, generators,
                 max_degree=None, max_charge=None):
        check_odd_prime(p)
        if not isinstance(group, GradingGroup):
            raise ContractError(f"expected a GradingGroup, got {type(group).__name__}")
        if not isinstance(chi, TwistCharacter):
            raise ContractError(f"expected a TwistCharacter, got {type(chi).__name__}")
        if chi.group != group:
            raise ValidationError("twist character is defined on a different group")
        if not isinstance(generators, (tuple, list)):
            raise ValidationError(f"generators must be a list, got {generators!r}")
        for name, value in (("max_degree", max_degree), ("max_charge", max_charge)):
            if value is not None:
                _check_int(name, value)
        self.p = p
        self.group = group
        self.chi = chi
        self.generators = []
        seen = set()
        for gen in generators:
            if not isinstance(gen, Generator):
                raise ValidationError(f"expected Generator, got {gen!r}")
            if not isinstance(gen.name, str) or not gen.name:
                raise ValidationError("generator name must be a nonempty string")
            _check_int("generator degree", gen.n)
            if not isinstance(gen.g, (tuple, list)):
                raise ValidationError(f"generator grading must be a list, got {gen.g!r}")
            if gen.name in seen:
                raise ValidationError(f"duplicate generator name {gen.name!r}")
            seen.add(gen.name)
            self.generators.append(Generator(gen.name, group.validate(gen.g), gen.n))
        self.max_degree = max_degree
        self.max_charge = max_charge
        self.class_data = _ClassData(self)
        self._monomial_op_cache = {}

    def generator(self, name: str) -> Generator:
        for gen in self.generators:
            if gen.name == name:
                return gen
        raise ValidationError(f"no generator named {name!r}")


def _check_context(ctx) -> None:
    """Raise ContractError unless ctx is a Context."""
    if not isinstance(ctx, Context):
        raise ContractError(f"expected a Context, got {type(ctx).__name__}")


class QClass(NamedTuple):
    """An admissible word applied to a generator: one element of Q(S)."""

    gen: Generator
    word: tuple[tuple[int, int], ...]  # (eps, s2), outermost first

    def sort_key(self):
        return (
            self.gen.name,
            len(self.word),
            tuple(s2 for _, s2 in self.word),
            tuple(e for e, _ in self.word),
        )

    def degree(self, p: int) -> int:
        return self.gen.n + word_degree(self.word, p)

    def charge(self, p: int) -> int:
        return p ** len(self.word)

    def bidegree(self, ctx: Context):
        return (ctx.group.scale(ctx.p ** len(self.word), self.gen.g), self.degree(ctx.p))


def _op_symbol(eps, s2):
    s = str(s2 // 2) if s2 % 2 == 0 else f"{s2}/2"
    return ("bQ^{%s}" if eps else "Q^{%s}") % s


def word_str(entries) -> str:
    return " ".join(_op_symbol(eps, s2) for eps, s2 in entries)


def qclass_str(qc: QClass) -> str:
    return f"{word_str(qc.word)} {qc.gen.name}" if qc.word else qc.gen.name


@metered
def _enumerate_words(ctx: Context, gen: Generator, max_degree, max_charge,
                     strict: bool):
    """The admissible words I with Q^I x of degree <= max_degree and charge
    p^len(I) <= max_charge, x = gen, as (I, degree of Q^I x) pairs, shorter
    words first; strict picks e(I) + eps_1 > n (Q(S)), otherwise e(I) >= n
    (the free module).

    The words of each length are those of the length before with one letter
    (eps, s2) prepended.  Over a word J with Q^J x of degree m the new word
    I has e(I) + eps = s2 - m + n, so strict asks s2 > m and weak s2 >= m +
    eps; admissibility asks s2 <= p s2' - 2 eps' against J's first letter.
    By the degree law rem more letters take a degree m to at least p^rem m,
    so a word that may still take rem letters can end at degree <=
    max_degree only if m <= max_degree, or m <= 0 and p^rem m <=
    max_degree: only if m <= cap(rem).  Each level's letters are capped so,
    and for max_degree >= 0 every word built is returned.  Each word built,
    the empty one included, costs a unit of the meter (errors.Meter).
    """
    p = ctx.p
    n = gen.n
    par = ctx.chi.parity(gen.g)
    levels = 0
    c = p
    while c <= max_charge:
        c *= p
        levels += 1

    def cap(rem):
        return max_degree if max_degree >= 0 else max_degree // p**rem

    if max_charge < 1 or n > cap(levels):
        return []
    meter = Meter.running
    meter.charge("enumeration")
    level = [((), n)]
    out = level[:] if n <= max_degree else []
    for rem in range(levels - 1, -1, -1):
        top = cap(rem)
        longer = []
        for word, m in level:
            for eps in (0, 1):
                lo = m + (1 if strict else eps)
                lo += (lo - par) % 2
                # the new degree m + s2 (p - 1) - eps is at most top
                hi = (top - m + eps) // (p - 1)
                if word:
                    hi = min(hi, p * word[0][1] - 2 * word[0][0])
                for s2 in range(lo, hi + 1, 2):
                    m2 = m + s2 * (p - 1) - eps
                    meter.charge("enumeration")
                    pair = (((eps, s2),) + word, m2)
                    if m2 <= max_degree:
                        out.append(pair)
                    longer.append(pair)
        level = longer
    return out


def _qset_degrees(ctx: Context, max_degree, max_charge):
    """enumerate_qset's classes, each paired with its internal degree."""
    out = [(QClass(gen, word), n) for gen in ctx.generators
           for word, n in _enumerate_words(ctx, gen, max_degree, max_charge, True)]
    out.sort(key=lambda row: row[0].sort_key())
    return out


@metered  # one budget for the searches of all the generators
def enumerate_qset(ctx: Context, max_degree, max_charge):
    """All Q^I x with internal degree <= max_degree and charge <= max_charge,
    x a generator of ctx."""
    _check_context(ctx)
    _check_int("max_degree", max_degree)
    _check_int("max_charge", max_charge)
    return [qc for qc, _ in _qset_degrees(ctx, max_degree, max_charge)]


def enumerate_dmodule_basis(gen: Generator, max_degree, ctx: Context, max_charge):
    """Free-module basis over one generator: admissible words with e(I) >= n.

    In degrees n <= 0 the weak inequality admits words of every length (for
    instance iterated Q^{n/2}), so the charge cutoff is required.
    """
    _check_context(ctx)
    gen = _check_generator(gen, ctx)
    _check_int("max_degree", max_degree)
    _check_int("max_charge", max_charge)
    out = [QClass(gen, word)
           for word, _ in _enumerate_words(ctx, gen, max_degree, max_charge, False)]
    out.sort(key=QClass.sort_key)
    return out


# ---------------------------------------------------------------------------
# monomials and the free commutative algebra


class _ClassData(dict):
    """ctx.class_data[qc] is (sort_key, degree n, twist parity, repeatable),
    computed on the class's first use in its context."""

    __slots__ = ("ctx",)

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def __missing__(self, qc: QClass):
        # chi(p^l g) = chi(g), p being odd
        n = qc.degree(self.ctx.p)
        par = self.ctx.chi.parity(qc.gen.g)
        data = self[qc] = (qc.sort_key(), n, par, (n + par) % 2 == 0)
        return data


def monomial_bidegree(factors, ctx: Context):
    g = ctx.group.zero()
    n = 0
    for qc in factors:
        qg, qn = qc.bidegree(ctx)
        g = ctx.group.add(g, qg)
        n += qn
    return (g, n)


def monomial_charge(factors, ctx: Context) -> int:
    return sum(qc.charge(ctx.p) for qc in factors)


def monomial_str(factors) -> str:
    """Render a monomial, collapsing repeated factors into a power."""
    if not factors:
        return "1"
    parts = []
    i = 0
    while i < len(factors):
        j = i
        while j < len(factors) and factors[j] == factors[i]:
            j += 1
        base = qclass_str(factors[i])
        parts.append(base if j - i == 1 else f"{base}^{j - i}")
        i = j
    return " * ".join(parts)


def element_str(elt: AlgebraElement) -> str:
    if elt.is_zero:
        return "0"
    data = elt.ctx.class_data
    parts = []
    for mono in sorted(elt.terms, key=lambda fs: tuple([data[q][0] for q in fs])):
        c = elt.terms[mono]
        s = monomial_str(mono)
        parts.append(s if c == 1 else f"{c} * {s}")
    return " + ".join(parts)


def _check_generator(gen, ctx: Context) -> Generator:
    """The context's own Generator equal to gen, or ValidationError unless
    gen is one of ctx's generators, with integer fields.  The caller keeps
    the one returned: an equal Generator may carry an int subclass (an
    IntEnum degree, say), which the action's caches would keep."""
    if type(gen) is Generator and is_int(gen.n) and type(gen.g) is tuple and all(
            map(is_int, gen.g)):
        for own in ctx.generators:
            if own == gen:
                return own
    raise ValidationError(f"{gen!r} is not a generator of the context")


def _check_class(qc, ctx: Context) -> QClass:
    """qc over the context's own Generator and with the word _check_word
    returns, or ValidationError unless qc is a class of Q(S) over a
    generator of ctx: an admissible word of letters (eps, s2) with s2 of the
    generator's twist parity and e(I) + eps_1 > n.  An exact class comes
    back as the same object."""
    if not isinstance(qc, QClass):
        raise ValidationError(f"a monomial factor must be a QClass, got {qc!r}")
    gen = _check_generator(qc.gen, ctx)
    word = _check_word(qc.word)
    par = ctx.chi.parity(gen.g)
    if any(s2 % 2 != par for _, s2 in word):
        raise ValidationError(f"{qclass_str(qc)}: an index of the wrong parity for its twist")
    if _find_inadmissible(word, ctx.p, "leftmost") is not None:
        raise ValidationError(f"{qclass_str(qc)} is not admissible")
    if word and excess(word, ctx.p) + word[0][0] <= gen.n:
        raise ValidationError(f"{qclass_str(qc)} has excess too low for a class of Q(S)")
    if type(qc) is QClass and gen is qc.gen and word is qc.word:
        return qc
    return QClass(gen, word)


def _check_monomial(mono, ctx: Context) -> tuple:
    """mono as a tuple of the classes _check_class returns, or
    ValidationError unless it is a monomial of ctx: classes of Q(S) in
    sort-key order, a class repeated only if repeatable."""
    if isinstance(mono, QClass):
        raise ContractError(f"a monomial is a tuple of QClasses, got {mono!r}")
    try:
        mono = tuple(mono)
    except TypeError:
        raise ValidationError(f"a monomial is a tuple of QClasses, got {mono!r}") from None
    data = ctx.class_data
    out = []
    last = checked = None
    for qc in mono:
        # a run of one factor object is checked once; a factor only equal
        # to the one before is checked in full, since a Generator with a
        # float degree equals its int twin
        if qc is not checked:
            checked, own = qc, _check_class(qc, ctx)
        row = data[own]
        if last is not None and (row[0] < last[0] or row is last and not row[3]):
            raise ValidationError(
                f"{monomial_str(mono)} is not a monomial: factors must be in sort-key "
                "order, and only a repeatable class may repeat")
        last = row
        out.append(own)
    return tuple(out)


_new = object.__new__  # AlgebraElement._trusted skips __init__ and its checks


class AlgebraElement:
    """A linear combination of sorted monomials in QClasses.

    The constructor checks its input as DLElement does (_read_terms, each key
    by _check_monomial).  The engine builds its results with _trusted."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms=None):
        _check_context(ctx)
        self.ctx = ctx
        self.terms: dict[tuple[QClass, ...], int] = _read_terms(
            terms, ctx.p, lambda mono: _check_monomial(mono, ctx))

    @staticmethod
    def _trusted(ctx: Context, terms: dict) -> "AlgebraElement":
        """Wrap terms the engine built itself: sorted monomials of ctx,
        coefficients reduced and nonzero.  Nothing is checked or copied."""
        elt = _new(AlgebraElement)
        elt.ctx = ctx
        elt.terms = terms
        return elt

    @classmethod
    def zero(cls, ctx):
        _check_context(ctx)
        return cls._trusted(ctx, {})

    @classmethod
    def unit(cls, ctx):
        _check_context(ctx)
        return cls._trusted(ctx, {(): 1})

    @classmethod
    def from_monomial(cls, ctx, factors):
        _check_context(ctx)
        # checked before it is hashed, which a factor may not allow
        return cls._trusted(ctx, {_check_monomial(factors, ctx): 1})

    @property
    def is_zero(self):
        return not self.terms

    def add(self, other: "AlgebraElement") -> "AlgebraElement":
        _check_element(other, self.ctx)
        return _combine(self.ctx, ((1, self), (1, other)))

    def scale(self, k: int) -> "AlgebraElement":
        return _combine(self.ctx, ((_check_coeff(k, self.ctx.p), self),))

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.ctx is other.ctx
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"AlgebraElement({element_str(self)})"


def _check_element(x, ctx: Context) -> None:
    """Raise ContractError unless x is an AlgebraElement of ctx."""
    if not isinstance(x, AlgebraElement):
        raise ContractError(f"expected an AlgebraElement, got {type(x).__name__}")
    if x.ctx is not ctx:
        raise ContractError("elements belong to different contexts")


def _from_sums(ctx: Context, out: dict) -> AlgebraElement:
    """Wrap a dict of sums already reduced mod p, dropping the zeros."""
    if 0 in out.values():
        out = {m: c for m, c in out.items() if c}
    return AlgebraElement._trusted(ctx, out)


def _combine(ctx: Context, pairs) -> AlgebraElement:
    """The sum of c * x over (c, x) pairs, in one new dict with coefficients
    reduced mod p as they are added.  If the first pair has c = 1 mod p,
    the dict starts as a copy of its x.terms, which keeps each key's stored
    hash, so a lone (1, x) hashes nothing.  The x are only read, so cached
    elements may be passed, and the result never shares a dict with them."""
    p = ctx.p
    out = None
    for c, x in pairs:
        if out is None:
            if c % p == 1:
                out = x.terms.copy()
                continue
            out = {}
        get = out.get
        for m, d in x.terms.items():
            out[m] = (get(m, 0) + c * d) % p
    return _from_sums(ctx, {} if out is None else out)


def _merge_monomials(a, b, ctx: Context):
    """Merge two sorted factor tuples; returns (sorted tuple, sign) or None
    when a repeated odd-parity factor kills the product.  Both are valid
    monomials, so a new repeat can only be a factor y of b placed right after
    an equal factor of a, and only there is it checked.  y moving past the
    factors of a left after it has Koszul sign (-1)^(n_y*sum n + par_y*sum par)."""
    data = ctx.class_data
    # a's class rows and both sums in one pass; each row is then read once
    rows = []
    n_left = par_left = 0
    for x in a:
        row = data[x]
        rows.append(row)
        n_left += row[1]
        par_left += row[2]
    e = 0
    out = []
    i = 0
    la = len(a)
    for k, y in enumerate(b):
        if i == la:  # the rest of b moves past nothing
            out += b[k:]
            break
        key, n, par, repeatable = data[y]
        j = i
        while i < la:
            row = rows[i]
            if row[0] > key:
                break
            n_left -= row[1]
            par_left -= row[2]
            i += 1
        if i > j:
            if a[i - 1] == y and not repeatable:
                return None
            out += a[j:i]
        e += n * n_left + par * par_left
        out.append(y)
    out += a[i:]
    return tuple(out), -1 if e % 2 else 1


def _multiply_into(out: dict, a: AlgebraElement, b: AlgebraElement, k: int,
                   ctx: Context) -> None:
    """Add k * a * b into out, its coefficients kept reduced mod p (a sum
    may reach 0 and stay).  Each pair of terms costs a unit of "multiply"."""
    charge("multiply", len(a.terms) * len(b.terms))
    p = ctx.p
    get = out.get
    for ma, ca in a.terms.items():
        kca = k * ca
        for mb, cb in b.terms.items():
            merged = _merge_monomials(ma, mb, ctx)
            if merged is not None:
                mono, sign = merged
                out[mono] = (get(mono, 0) + sign * kca * cb) % p


@metered
def multiply(a: AlgebraElement, b: AlgebraElement, ctx: Context) -> AlgebraElement:
    """The product a * b, by _multiply_into into a new dict."""
    _check_element(a, ctx)
    _check_element(b, ctx)
    out: dict = {}
    _multiply_into(out, a, b, 1, ctx)
    return _from_sums(ctx, out)


# ---------------------------------------------------------------------------
# basis enumeration per bidegree and Poincare tables


def _degree_floor(ctx: Context) -> int:
    """Lower bound for the internal degree of any QClass per unit of charge
    (degree law: d >= p^l n, so negative generator degrees set the floor)."""
    return min([0] + [gen.n for gen in ctx.generators])


def _candidates(ctx: Context, max_degree, max_charge):
    """The classes of Q(S) that can divide a monomial with degree <=
    max_degree and charge <= max_charge, with the powers each may appear in.

    Returns (nu, cands): nu is _degree_floor, and cands lists one row
    (qc, g, n, k, powers) per class with a power in range, in sort_key
    order: its bidegree, its charge k and the range of powers r a monomial
    may hold it in.  r <= max_charge // k for a repeatable class, r = 1 for
    an exterior one, and for both r * (n - nu*k) <= max_degree - nu *
    max_charge, since a monomial of degree n' and charge c' has n' >= nu * c'
    and the walk and the table count drop it once
    n' + r*n + nu * (max_charge - c' - r*k) > max_degree.  A class with no
    power in range would add nothing, so it gets no row, and the table
    count charges nothing for it.  Each power costs a unit of the meter.  A
    factor of charge k sits beside others of total charge <= max_charge - k
    and so of total degree >= nu * (max_charge - k), which caps its own
    degree at max_degree - nu * (max_charge - 1).
    """
    nu = _degree_floor(ctx)
    room = max_degree - nu * max_charge
    # chi(p^l g) = chi(g), p being odd, so a class has its generator's parity
    parity = {gen.name: ctx.chi.parity(gen.g) for gen in ctx.generators}
    cands = []
    for qc, n in _qset_degrees(ctx, max_degree - nu * (max_charge - 1), max_charge):
        k = ctx.p ** len(qc.word)
        top = max_charge // k if (n + parity[qc.gen.name]) % 2 == 0 else 1
        if n > nu * k:
            top = max(0, min(top, room // (n - nu * k)))
        charge("candidate powers", top)
        if top:
            cands.append((qc, ctx.group.scale(k, qc.gen.g), n, k, range(1, top + 1)))
    return nu, cands


@metered
def _enumerate_monomials(ctx: Context, max_degree, max_charge):
    """List (factors, g, n, charge) for every monomial with n <= max_degree
    and charge <= max_charge, the empty one included if max_charge >= 0.

    Each word the search builds and each node of the walk costs a unit of
    the meter.
    """
    meter = Meter.running
    nu, cands = _candidates(ctx, max_degree, max_charge)
    add = ctx.group.add
    results = []

    def walk(i, factors, g, n, charge):
        meter.charge("monomial enumeration")
        if n <= max_degree:
            results.append((factors, g, n, charge))
        for j in range(i, len(cands)):
            qc, bg, bn, bk, powers = cands[j]
            f2, g2, n2, c2 = factors, g, n, charge
            for _ in powers:
                # the degree bound of poincare_table: a node that fails it
                # has n2 > max_degree (nu <= 0) and so does every node
                # below it, and it fails for every larger power too
                c2, n2 = c2 + bk, n2 + bn
                if c2 > max_charge or n2 + nu * (max_charge - c2) > max_degree:
                    break
                f2, g2 = f2 + (qc,), add(g2, bg)
                walk(j + 1, f2, g2, n2, c2)

    if max_charge >= 0:
        walk(0, (), ctx.group.zero(), 0, 0)
    return results


def basis(bidegree, max_charge, ctx: Context):
    """All monomials of the requested bidegree (g, n) with charge <= max_charge."""
    _check_context(ctx)
    if not (isinstance(bidegree, (tuple, list)) and len(bidegree) == 2
            and isinstance(bidegree[0], (tuple, list))):
        raise ValidationError(f"a bidegree is a pair (g, n), g a tuple, got {bidegree!r}")
    g_want, n_want = ctx.group.validate(bidegree[0]), bidegree[1]
    _check_int("degree", n_want)
    _check_int("max_charge", max_charge)
    out = [
        factors
        for factors, g, n, _ in _enumerate_monomials(ctx, n_want, max_charge)
        if g == g_want and n == n_want
    ]
    data = ctx.class_data
    out.sort(key=lambda fs: tuple([data[q][0] for q in fs]))
    return out


@metered
def poincare_table(ctx: Context, max_degree, max_charge):
    """Dimensions of the free-algebra homology per (g, n, charge).

    The algebra is free graded-commutative on Q(S), so its Poincare series is
    the product of 1/(1 - t^b) over the repeatable classes b and of (1 + t^b)
    over the others, t^b standing for the class's (g, n, charge).  The
    product is expanded one class at a time, truncated at charge max_charge,
    with the partial counts kept as layers: charge c -> {(g, n): count}.
    Multiplying by 1/(1 - t^b), b of charge k, is one running sum: visiting
    the charges upward, layer c is added into layer c + k, and by then layer
    c already holds its own multiples of b.  Multiplying by 1 + t^b is the
    same step over the charges downward, so each entry moves once.  An entry
    of charge c is dropped once n + nu * (max_charge - c) > max_degree, nu =
    _degree_floor: every factor still to come has degree >= nu times its
    charge, and their charges add up to at most max_charge - c, so the
    finished monomial has degree at least that bound.  No monomial is built.

    Each word the search builds, and each entry of the partial table before
    a class is multiplied in, costs a meter unit.  A class reads each entry
    of the table it leaves at most once, so its work is bounded by the units
    the next class is charged (or by the finished table, for the last class).
    """
    _check_context(ctx)
    _check_int("max_degree", max_degree)
    _check_int("max_charge", max_charge)
    meter = Meter.running
    nu, cands = _candidates(ctx, max_degree, max_charge)
    add = ctx.group.add
    layers = {0: {(ctx.group.zero(), 0): 1}} if max_charge >= 0 else {}
    steps = {}  # bg -> {g: g + bg}, shared by the classes of one grading
    for _, bg, bn, bk, powers in cands:
        meter.charge("table count", sum(map(len, layers.values())))
        repeat = len(powers) > 1  # else b enters a monomial at most once
        step = steps.setdefault(bg, {})
        last = max_charge - bk  # the top charge that may take b
        # a sorted list is a heap: upward by heappop, downward by pop
        charges = sorted([c for c in layers if c <= last])
        while charges:
            c = heapq.heappop(charges) if repeat else charges.pop()
            # an entry (g, n) of charge c may take b iff n <= bound
            bound = max_degree - nu * (last - c) - bn
            dst = layers.get(c + bk)
            fresh = dst is None
            if fresh:
                dst = {}
            for (g, n), dim in layers[c].items():
                if n <= bound:
                    h = step.get(g)
                    if h is None:
                        h = step[g] = add(g, bg)
                    key = (h, n + bn)
                    dst[key] = dst.get(key, 0) + dim
            if fresh and dst:
                layers[c + bk] = dst
                if repeat and c + bk <= last:
                    heapq.heappush(charges, c + bk)
    return {(g, n, c): dim for c, layer in layers.items()
            for (g, n), dim in layer.items() if n <= max_degree}
