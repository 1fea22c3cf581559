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

from functools import cached_property
from typing import NamedTuple

from .arith import DEFAULT_BUDGET, check_odd_prime, is_int
from .dlalgebra import excess, word_degree
from .errors import ContractError, Meter, ValidationError, charge
from .grading import GradingGroup, TwistCharacter


class Generator(NamedTuple):
    name: str
    g: tuple[int, ...]
    n: int


class Context:
    """A prime, a grading group with twist character, and named generators,
    each Generator checked here, where it enters the engine."""

    def __init__(self, p, group: GradingGroup, chi: TwistCharacter, generators,
                 max_degree=None, max_charge=None, budget: int = DEFAULT_BUDGET):
        check_odd_prime(p)
        if chi.group != group:
            raise ValidationError("twist character is defined on a different group")
        for name, value in (("max_degree", max_degree), ("max_charge", max_charge)):
            if value is not None and not is_int(value):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if not is_int(budget):
            raise ValidationError(f"budget must be an integer, got {budget!r}")
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
            if not is_int(gen.n):
                raise ValidationError(f"generator degree must be an integer, got {gen.n!r}")
            if not isinstance(gen.g, (tuple, list)):
                raise ValidationError(f"generator grading must be a list, got {gen.g!r}")
            if gen.name in seen:
                raise ValidationError(f"duplicate generator name {gen.name!r}")
            seen.add(gen.name)
            self.generators.append(Generator(gen.name, group.validate(gen.g), gen.n))
        self.max_degree = max_degree
        self.max_charge = max_charge
        self.budget = budget

    def generator(self, name: str) -> Generator:
        for gen in self.generators:
            if gen.name == name:
                return gen
        raise ValidationError(f"no generator named {name!r}")

    @cached_property
    def class_data(self) -> "_ClassData":
        """Each class's sort key, degree, parity and repeat flag here."""
        return _ClassData(self)


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


def qclass_str(qc: QClass) -> str:
    return " ".join([_op_symbol(e, s2) for e, s2 in qc.word] + [qc.gen.name])


def _enumerate_words(ctx: Context, gen: Generator, max_degree, max_charge,
                     strict: bool):
    """Admissible words over one generator, innermost letter first in the
    recursion; strict picks e(I)+eps_1 > n (Q(S)) vs e(I) >= n (free module).

    Returns the words; each node costs a unit of the meter (errors.Meter).
    """
    p = ctx.p
    n = gen.n
    par = ctx.chi.parity(gen.g)
    if max_charge < 1:
        return []
    levels = 0
    c = 1
    while c * p <= max_charge:
        c *= p
        levels += 1
    out = []

    def minimum_final(m, remaining):
        # smallest internal degree reachable after `remaining` more letters:
        # from m >= 1 degrees never decrease; from m <= 0 the worst chain
        # multiplies by p and subtracts 1 at each level
        if m >= 1:
            return m
        for _ in range(remaining):
            m = p * m - 1
        return m

    def extend(word, m):
        # word is the already-built inner part (outermost letter first);
        # m = n + word_degree(word) is the degree of Q^word x.
        meter.charge("enumeration")
        depth = len(word)
        if m <= max_degree:
            if strict:
                ok = excess(word, p) + word[0][0] > n if word else True
            else:
                ok = excess(word, p) >= n if word else True
            if ok:
                out.append(word)
        if depth == levels:
            return
        lo = m if not strict else m + 1
        if (lo - par) % 2:
            lo += 1
        if word:
            e_h, s2_h = word[0]
            hi_adm = p * s2_h - 2 * e_h
        else:
            hi_adm = None
        rem = levels - depth - 1
        for eps in (0, 1):
            # degree viability: the smallest reachable final degree from
            # m' = m + s2(p-1) - eps must not exceed max_degree
            hi = (max(max_degree, -1) - m + eps) // (p - 1)
            if hi_adm is not None:
                hi = min(hi, hi_adm)
            s2 = lo
            while s2 <= hi:
                m2 = m + s2 * (p - 1) - eps
                if minimum_final(m2, rem) <= max_degree:
                    extend(((eps, s2),) + word, m2)
                s2 += 2

    with Meter(ctx.budget) as meter:
        extend((), n)
    return out


def enumerate_qset(gens, max_degree, max_charge, ctx: Context):
    """All Q^I x with internal degree <= max_degree and charge <= max_charge."""
    out = []
    for gen in gens:
        for word in _enumerate_words(ctx, gen, max_degree, max_charge, True):
            out.append(QClass(gen, word))
    out.sort(key=QClass.sort_key)
    return out


def enumerate_dmodule_basis(gen: Generator, max_degree, ctx: Context,
                            max_charge=None):
    """Free-module basis over one generator: admissible words with e(I) >= n.

    In degrees n <= 0 the weak inequality admits words of every length (for
    instance iterated Q^{n/2}), so a charge cutoff is always applied; when
    max_charge is None the context's cutoff is used.
    """
    if max_charge is None:
        max_charge = ctx.max_charge
    if max_charge is None:
        raise ContractError("enumerate_dmodule_basis needs a charge cutoff")
    out = [
        QClass(gen, word)
        for word in _enumerate_words(ctx, gen, max_degree, max_charge, False)
    ]
    out.sort(key=QClass.sort_key)
    return out


# ---------------------------------------------------------------------------
# monomials and the free commutative algebra


def _repeatable(qc: QClass, ctx: Context) -> bool:
    g, n = qc.bidegree(ctx)
    return (n + ctx.chi.parity(g)) % 2 == 0


class _ClassData(dict):
    """ctx.class_data[qc] is (sort_key, degree n, twist parity, repeatable),
    computed on the class's first use in its context."""

    __slots__ = ("ctx",)

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def __missing__(self, qc: QClass):
        g, n = qc.bidegree(self.ctx)
        data = self[qc] = (qc.sort_key(), n, self.ctx.chi.parity(g), _repeatable(qc, self.ctx))
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
    parts = []
    for mono in sorted(elt.terms, key=lambda fs: tuple(q.sort_key() for q in fs)):
        c = elt.terms[mono]
        s = monomial_str(mono)
        parts.append(s if c == 1 else f"{c} * {s}")
    return " + ".join(parts)


class AlgebraElement:
    """A linear combination of sorted monomials in QClasses."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms=None):
        self.ctx = ctx
        self.terms: dict[tuple[QClass, ...], int] = {}
        if terms:
            for mono, c in dict(terms).items():
                if isinstance(mono, QClass):
                    raise ContractError(f"a monomial is a tuple of QClasses, got {mono!r}")
                c %= ctx.p
                if c:
                    self.terms[tuple(mono)] = c

    @classmethod
    def zero(cls, ctx):
        return cls(ctx)

    @classmethod
    def unit(cls, ctx):
        return cls(ctx, {(): 1})

    @classmethod
    def from_monomial(cls, ctx, factors, coeff=1):
        return cls(ctx, {factors: coeff})

    @property
    def is_zero(self):
        return not self.terms

    def add(self, other: "AlgebraElement") -> "AlgebraElement":
        if other.ctx is not self.ctx:
            raise ContractError("elements belong to different contexts")
        return _combine(self.ctx, ((1, self), (1, other)))

    def scale(self, k: int) -> "AlgebraElement":
        return _combine(self.ctx, ((k, self),))

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.ctx is other.ctx
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"AlgebraElement({element_str(self)})"


def _combine(ctx: Context, pairs) -> AlgebraElement:
    """The sum of c * x over (c, x) pairs, built in one new dict and reduced
    mod p once; the x are only read, so cached elements may be passed."""
    out: dict = {}
    for c, x in pairs:
        for m, d in x.terms.items():
            out[m] = out.get(m, 0) + c * d
    return AlgebraElement(ctx, out)


def _merge_monomials(a, b, ctx: Context):
    """Merge two sorted factor tuples; returns (sorted tuple, sign) or None
    when a repeated odd-parity factor kills the product.  Both are valid
    monomials, so a new repeat can only be a factor y of b placed right after
    an equal factor of a, and only there is it checked.  y moving past the
    factors of a left after it has Koszul sign (-1)^(n_y*sum n + par_y*sum par)."""
    data = ctx.class_data
    rows = [data[x] for x in a]
    n_left = sum([r[1] for r in rows])
    par_left = sum([r[2] for r in rows])
    e = 0
    out = []
    i = 0
    for k, y in enumerate(b):
        if i == len(a):  # the rest of b moves past nothing
            out.extend(b[k:])
            break
        key, n, par, repeatable = data[y]
        j = i
        while i < len(a) and rows[i][0] <= key:
            n_left -= rows[i][1]
            par_left -= rows[i][2]
            i += 1
        out.extend(a[j:i])
        if i > j and a[i - 1] == y and not repeatable:
            return None
        e += n * n_left + par * par_left
        out.append(y)
    out.extend(a[i:])
    return tuple(out), -1 if e % 2 else 1


def multiply(a: AlgebraElement, b: AlgebraElement, ctx: Context) -> AlgebraElement:
    if a.ctx is not ctx or b.ctx is not ctx:
        raise ContractError("elements belong to different contexts")
    charge("multiply", len(a.terms) * len(b.terms))
    out: dict = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            merged = _merge_monomials(ma, mb, ctx)
            if merged is None:
                continue
            mono, sign = merged
            out[mono] = out.get(mono, 0) + sign * ca * cb
    return AlgebraElement(ctx, out)


# ---------------------------------------------------------------------------
# basis enumeration per bidegree and Poincare tables


def _degree_floor(ctx: Context) -> int:
    """Lower bound for the internal degree of any QClass per unit of charge
    (degree law: d >= p^l n, so negative generator degrees set the floor)."""
    return min([0] + [gen.n for gen in ctx.generators])


def _candidates(ctx: Context, max_degree, max_charge):
    """The classes of Q(S) that can divide a monomial with degree <=
    max_degree and charge <= max_charge, with the powers each may appear in.

    Returns (nu, cands): nu is _degree_floor, and cands lists (qc, powers)
    in sort_key order, where powers holds (r, r*g, r*n, r*charge) for r = 1
    only (an exterior class) or for every r with r*charge <= max_charge (a
    repeatable class).  A factor of charge k sits beside others of total
    charge <= max_charge - k and so of total degree >= nu * (max_charge - k),
    which caps its own degree at max_degree - nu * (max_charge - 1).
    """
    nu = _degree_floor(ctx)
    cands = []
    for qc in enumerate_qset(ctx.generators, max_degree - nu * (max_charge - 1),
                             max_charge, ctx):
        g, n = qc.bidegree(ctx)
        k = qc.charge(ctx.p)
        top = max_charge // k if _repeatable(qc, ctx) else 1
        powers = [(r, ctx.group.scale(r, g), r * n, r * k) for r in range(1, top + 1)]
        cands.append((qc, powers))
    return nu, cands


def _enumerate_monomials(ctx: Context, max_degree, max_charge):
    """List (factors, g, n, charge) for every monomial with n <= max_degree
    and charge <= max_charge (the empty monomial included).

    Each node of the word search and of the walk costs a unit of the meter.
    """
    with Meter(ctx.budget) as meter:
        nu, cands = _candidates(ctx, max_degree, max_charge)
        add = ctx.group.add
        results = []

        def walk(i, stack, g, n, charge):
            meter.charge("monomial enumeration")
            if n <= max_degree:
                results.append((tuple(stack), g, n, charge))
            for j in range(i, len(cands)):
                qc, powers = cands[j]
                for r, rg, rn, rk in powers:
                    # the degree bound of poincare_table: a node that fails it
                    # has n2 > max_degree (nu <= 0) and so does every node
                    # below it, and it fails for every larger r too
                    c2, n2 = charge + rk, n + rn
                    if c2 > max_charge or n2 + nu * (max_charge - c2) > max_degree:
                        break
                    walk(j + 1, stack + [qc] * r, add(g, rg), n2, c2)

        walk(0, [], ctx.group.zero(), 0, 0)
    return results


def basis(bidegree, max_charge, ctx: Context):
    """All monomials of the requested bidegree (g, n) with charge <= max_charge."""
    g_want, n_want = ctx.group.validate(bidegree[0]), bidegree[1]
    out = [
        factors
        for factors, g, n, _ in _enumerate_monomials(ctx, n_want, max_charge)
        if g == g_want and n == n_want
    ]
    out.sort(key=lambda fs: tuple(q.sort_key() for q in fs))
    return out


def poincare_table(ctx: Context, max_degree, max_charge):
    """Dimensions of the free-algebra homology per (g, n, charge).

    The algebra is free graded-commutative on Q(S), so its Poincare series is
    the product of 1/(1 - t^b) over the repeatable classes b and of (1 + t^b)
    over the others, t^b standing for the class's (g, n, charge).  The
    product is expanded one class at a time as a dict of partial counts,
    truncated at charge max_charge.  A partial product of charge c is dropped
    once n + nu * (max_charge - c) > max_degree, nu = _degree_floor: every
    factor still to come has degree >= nu times its charge, and their
    charges add up to at most max_charge - c, so the finished monomial has
    degree at least that bound.  No monomial is built.

    Each word node and (class, partial product) step costs a meter unit.
    """
    with Meter(ctx.budget) as meter:
        nu, cands = _candidates(ctx, max_degree, max_charge)
        add = ctx.group.add
        table = {(ctx.group.zero(), 0, 0): 1}
        for _, powers in cands:
            meter.charge("table count", len(table))
            grown = dict(table)
            for (g, n, c), dim in table.items():
                for _, rg, rn, rk in powers:
                    c2, n2 = c + rk, n + rn
                    # n2 + nu * (max_charge - c2) never falls as r grows, since
                    # rn - nu * rk = r * (n_b - nu * k_b) and n_b >= nu * k_b
                    if c2 > max_charge or n2 + nu * (max_charge - c2) > max_degree:
                        break
                    key = (add(g, rg), n2, c2)
                    grown[key] = grown.get(key, 0) + dim
            table = grown
    return {key: dim for key, dim in table.items() if key[1] <= max_degree}
