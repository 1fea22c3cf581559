"""Command-line frontend: parse expressions, run the engine, print tables.

Expression grammar (whitespace insignificant):

    element := term ('+' term)*
    term    := [coeff '*'] factor ('*' factor)*
    factor  := opword? genname ['^' int] | '1'
    opword  := (('b')? 'Q' '^' '{' rational '}')+

with rationals written `a` or `a/2`.  A trailing `^e` raises the whole
factor (operation word applied to the generator) to the e-th power.  A
numeral opens its term as the coefficient, except a 1 that is not followed
by '*', which is the unit factor; a bare coefficient is a multiple of 1.
Output uses the same grammar, so printing and parsing round-trip.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import __version__
from .arith import HalfInt, binom_mod_p, binom_walk_mod_p
from .action import apply_op, apply_word, suspension_check
from .appcalc import (_swan_count, alternating_table, point_context, sym_sign_table,
                      sym_trivial_table)
from .dlalgebra import (
    DLElement,
    cross_check_composite,
    normalize,
    word_degree,
)
from .errors import (DEFAULT_BUDGET, DyerLashofError, Meter, ResourceError,
                     ValidationError, charge, metered)
from .freealg import (
    AlgebraElement,
    Context,
    Generator,
    QClass,
    _check_context,
    _combine,
    _enumerate_monomials,
    basis,
    element_str,
    enumerate_dmodule_basis,
    enumerate_qset,
    monomial_bidegree,
    monomial_charge,
    monomial_str,
    multiply,
    poincare_table,
    qclass_str,
    word_str,
)
from .grading import GradingGroup, TwistCharacter

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3


# ---------------------------------------------------------------------------
# tokenizer and parsers

_TOKEN = re.compile(
    r"""(?P<ws>\s+)
      | (?P<op>(?P<beta>b?)Q\^\{(?P<index>-?\d+)(?P<half>/2)?\})
      | (?P<num>-?\d+)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<star>\*)
      | (?P<plus>\+)
      | (?P<caret>\^)
    """,
    re.VERBOSE,
)


def _int(numeral):
    try:
        return int(numeral)
    except ValueError:  # past the interpreter's limit on digits
        raise ValidationError(f"numeral of {len(numeral)} digits is too long") from None


def _tokenize(text):
    """(kind, text, position, letter) per token, letter the (eps, s2) of an op."""
    if not isinstance(text, str):
        raise ValidationError(f"expected text, got {type(text).__name__}")
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValidationError(f"parse error at position {pos}: {text[pos:pos + 8]!r}")
        pos = m.end()
        kind = m.lastgroup
        if kind == "op":
            a = _int(m["index"])
            letter = (1 if m["beta"] else 0, a if m["half"] else 2 * a)
            tokens.append((kind, m.group(), m.start(), letter))
        elif kind != "ws":
            tokens.append((kind, m.group(), m.start(), None))
    return tokens


class _Cursor:
    def __init__(self, tokens, text):
        self.tokens = tokens
        self.text = text
        self.i = 0

    def peek(self, ahead=0):
        i = self.i + ahead
        return self.tokens[i] if i < len(self.tokens) else (None, "", len(self.text), None)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def fail(self, expected):
        kind, value, pos, _ = self.peek()
        got = repr(value) if kind else "end of input"
        raise ValidationError(f"parse error at position {pos}: expected {expected}, got {got}")


def parse_word(text):
    """A bare operation word: one or more op letters, outermost first."""
    cur = _Cursor(_tokenize(text), text)
    entries = []
    while cur.peek()[0] == "op":
        entries.append(cur.take()[3])
    if not entries or cur.peek()[0] is not None:
        cur.fail("an operation letter like Q^{2} or bQ^{1/2}")
    return tuple(entries)


def _parse_factor(cur: _Cursor, ctx: Context) -> AlgebraElement:
    entries = []
    while cur.peek()[0] == "op":
        entries.append(cur.take()[3])
    kind, value, pos, _ = cur.peek()
    if kind == "num" and value == "1" and not entries:
        cur.take()
        base = AlgebraElement.unit(ctx)
    elif kind == "name":
        cur.take()
        try:
            gen = ctx.generator(value)
        except DyerLashofError:
            raise ValidationError(f"parse error at position {pos}: unknown generator {value!r}")
        base = apply_word(
            tuple(entries), AlgebraElement.from_monomial(ctx, (QClass(gen, ()),)), ctx
        )
    else:
        cur.fail("a generator name or '1'")
    if cur.peek()[0] == "caret":
        cur.take()
        kind, value, _, _ = cur.peek()
        if kind != "num" or _int(value) < 1:
            cur.fail("a positive exponent")
        cur.take()

        def times(a, b):
            # one unit per multiply and per factor it walks in its left operand
            charge("power", 1 + sum(len(m) for m in a.terms))
            return multiply(a, b, ctx)

        # by repeated squaring: base^(2^i) is taken for each bit i of exp
        exp, power = int(value), AlgebraElement.unit(ctx)
        while True:
            if exp & 1:
                power = times(power, base)
            exp >>= 1
            if not exp:
                break
            base = times(base, base)
        base = power
    return base


@metered
def parse_element(text, ctx: Context) -> AlgebraElement:
    """One pass: each term gives a (coefficient, product) pair, all summed once."""
    _check_context(ctx)
    cur = _Cursor(_tokenize(text), text)
    pairs = []
    while True:
        coeff, term = 1, None
        kind, value, _, _ = cur.peek()
        # a numeral is the coefficient, except a 1 not followed by '*': the unit
        if kind == "num" and (value != "1" or cur.peek(1)[0] == "star"):
            coeff = _int(cur.take()[1])
            if cur.peek()[0] == "star":
                cur.take()
            elif cur.peek()[0] in ("plus", None):
                term = AlgebraElement.unit(ctx)
            else:
                cur.fail("'*' or '+' after a coefficient")
        if term is None:
            term = _parse_factor(cur, ctx)
            while cur.peek()[0] == "star":
                cur.take()
                term = multiply(term, _parse_factor(cur, ctx), ctx)
        pairs.append((coeff, term))
        kind = cur.peek()[0]
        if kind is None:
            return _combine(ctx, pairs)
        if kind != "plus":
            cur.fail("'+' between terms")
        cur.take()


# ---------------------------------------------------------------------------
# printers

def dlelement_str(elt: DLElement) -> str:
    if not elt.terms:
        return "0"
    parts = []
    for entries in sorted(elt.terms):
        c = elt.terms[entries]
        w = word_str(entries) if entries else "1"
        parts.append(w if c == 1 else f"{c} {w}")
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# context configuration

CONFIG_VERSION = 1

_CONFIG_KEYS = {
    "version", "p", "grading", "chi", "generators",
    "max_degree", "max_charge", "budget",
}


def _pick(args, cfg: dict, name, default=None):
    """The flag's value if it was given, else the config's, else default."""
    override = getattr(args, name, None)
    return override if override is not None else cfg.get(name, default)


def context_from_config(cfg: dict, args=None) -> Context:
    if not isinstance(cfg, dict):
        raise ValidationError("context config must be a JSON object")
    unknown = set(cfg) - _CONFIG_KEYS
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    if cfg.get("version") != CONFIG_VERSION:
        raise ValidationError(f"config version must be {CONFIG_VERSION}")
    for key in ("p", "grading", "chi", "generators"):
        if key not in cfg:
            raise ValidationError(f"config is missing {key!r}")
    grading = cfg["grading"]
    if not isinstance(grading, dict):
        raise ValidationError("grading must be an object")
    group = GradingGroup(grading.get("free_rank", 0), grading.get("torsion_orders", ()))
    chi = TwistCharacter(group, cfg["chi"])
    if not isinstance(cfg["generators"], list):
        raise ValidationError(f"generators must be a list, got {cfg['generators']!r}")
    gens = []
    for item in cfg["generators"]:
        if not isinstance(item, dict) or set(item) != {"name", "g", "n"}:
            raise ValidationError(f"generator entries need name/g/n, got {item!r}")
        gens.append(Generator(item["name"], item["g"], item["n"]))
    return Context(
        _pick(args, cfg, "p"),
        group,
        chi,
        gens,
        max_degree=_pick(args, cfg, "max_degree"),
        max_charge=_pick(args, cfg, "max_charge"),
    )


def _read_config(path):
    if path is None:
        raise ValidationError("this command needs --context FILE")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read context file: {exc}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"context file is not valid JSON: {exc}")


def _need(value, flag):
    if value is None:
        raise ValidationError(f"set {flag} on the command line or in the context file")
    return value


# ---------------------------------------------------------------------------
# table emission

def _emit_table(rows, header, fmt, out):
    """rows: list of dicts with keys matching header order."""
    if fmt == "json":
        doc = {"version": CONFIG_VERSION, "rows": rows}
        out.write(json.dumps(doc, sort_keys=True) + "\n")
    else:
        out.write("\t".join(header) + "\n")
        for row in rows:
            out.write("\t".join(str(row[h]) for h in header) + "\n")


def _format_g(g):
    return ",".join(str(c) for c in g)


# ---------------------------------------------------------------------------
# commands

def cmd_rewrite(args, out):
    entries = parse_word(args.word)
    twist = -1 if entries[-1][1] % 2 else 1
    elt = DLElement(args.p, twist, {entries: 1})
    out.write(dlelement_str(normalize(elt)) + "\n")
    return EXIT_OK


def _parse_gvec(text, group):
    try:
        g = tuple(int(c) for c in text.split(",")) if text else ()
    except ValueError:
        raise ValidationError(f"grading vector must be comma-separated integers, got {text!r}")
    return group.validate(g)


def cmd_basis(args, out):
    ctx = args.ctx
    g = _parse_gvec(args.g, ctx.group)
    max_charge = _need(ctx.max_charge, "--max-charge")
    for mono in basis((g, args.n), max_charge, ctx):
        out.write(monomial_str(mono) + "\n")
    return EXIT_OK


def cmd_table(args, out):
    ctx = args.ctx
    max_degree = _need(ctx.max_degree, "--max-degree")
    max_charge = _need(ctx.max_charge, "--max-charge")
    table = poincare_table(ctx, max_degree, max_charge)
    rows = [
        {"charge": charge, "g": _format_g(g), "degree": n, "dim": dim}
        for (g, n, charge), dim in table.items()
    ]
    rows.sort(key=lambda r: (r["charge"], r["g"], r["degree"]))
    _emit_table(rows, ["charge", "g", "degree", "dim"], args.format, out)
    return EXIT_OK


def cmd_act(args, out):
    ctx = args.ctx
    letters = parse_word(args.op)
    if len(letters) != 1:
        raise ValidationError("act takes a single operation letter like Q^{1/2}")
    eps, s2 = letters[0]
    result = apply_op(eps, HalfInt(s2), parse_element(args.element, ctx), ctx)
    out.write(element_str(result) + "\n")
    return EXIT_OK


def cmd_dmodule(args, out):
    ctx = args.ctx
    if args.gen is not None:
        gen = ctx.generator(args.gen)
    elif len(ctx.generators) == 1:
        gen = ctx.generators[0]
    else:
        raise ValidationError("--gen NAME is required with several generators")
    max_degree = _need(ctx.max_degree, "--max-degree")
    max_charge = _need(ctx.max_charge, "--max-charge")
    for qc in enumerate_dmodule_basis(gen, max_degree, ctx, max_charge):
        out.write(qclass_str(qc) + "\n")
    return EXIT_OK


def cmd_example(args, out):
    make = sym_sign_table if args.which == "sym-sign" else alternating_table
    table = make(args.p, args.max_charge, args.max_degree)
    rows = [
        {
            "label": row.label,
            "charge": row.charge,
            "degree": row.degree,
            "dim": row.dim,
            "basis": "; ".join(row.basis_labels),
        }
        for (k, q), row in sorted(table.items())
    ]
    _emit_table(rows, ["label", "charge", "degree", "dim", "basis"], args.format, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# selfcheck suites

def _require(ok, what, *args):
    """An assert that python -O keeps; what % args is formatted only on failure."""
    if not ok:
        raise AssertionError(what % args)


def _check_binomials():
    import math

    for p in (3, 5):
        for m in range(61):
            for n in range(m + 1):
                _require(binom_mod_p(m, n, p) == math.comb(m, n) % p,
                         "binom(%d, %d) mod %d", m, n, p)
        # the walks through the same binomials: a walk keeps m + (p-1)n, so
        # one start per value, its top below p - 1
        for m in range(-p, p - 1):
            count = (60 - m) // (p - 1) + 1
            for n in range(-1, 60 * p // (p - 1) + 1):
                want = []
                for k in range(count):
                    top, bottom = m + k * (p - 1), n - k
                    if 0 <= bottom <= top and (c := math.comb(top, bottom) % p):
                        want.append((k, c))
                _require(list(binom_walk_mod_p(m, n, p, count)) == want,
                         "walk from binom(%d, %d) mod %d", m, n, p)


def _check_rewriter():
    import random

    rng = random.Random(5)
    for _ in range(200):
        p = rng.choice((3, 5))
        k = rng.randint(1, 3)
        par = rng.randint(0, 1)
        entries = tuple((rng.randint(0, 1), 2 * rng.randint(-3, 8) + par) for _ in range(k))
        elt = DLElement(p, -1 if par else 1, {entries: 1})
        left = normalize(elt, "leftmost")
        right = normalize(elt, "rightmost")
        _require(left.terms == right.terms, "strategies differ on %r at p = %d", entries, p)
        again = normalize(left)
        _require(again.terms == left.terms, "normalize(NF(%r)) != NF at p = %d", entries, p)
        d = word_degree(entries, p)
        for w in left.terms:
            _require(word_degree(w, p) == d, "%r -> %r changes degree at p = %d", entries, w, p)


def _check_crosscheck():
    for case in ("QQ", "bQQ", "QbQ", "bQbQ"):
        for chi_g in (1, -1):
            for n in (0, 1):
                for s in range(3):
                    for r in range(s + 1, 6):
                        a, b = cross_check_composite(r, s, case, n, 3, chi_g)
                        _require(a == b, "%s r=%d s=%d n=%d chi=%d", case, r, s, n, chi_g)


def _check_degree_law():
    # generator sits in degree 0, so d >= charge * 0 with equality iff empty
    for twist in (-1, 1):
        ctx = point_context(3, twist, 10, 27)
        for qc in enumerate_qset(ctx, 10, 27):
            d = qc.degree(ctx.p)
            _require(d >= 0 and (d == 0) == (not qc.word), "%r has degree %d", qc.word, d)


def _check_action():
    ctx = point_context(3, -1, 8, 9)
    for mono, g, deg, charge in _enumerate_monomials(ctx, 8, 9):
        if charge not in (1, 3):
            continue
        elt = AlgebraElement.from_monomial(ctx, mono)
        par = ctx.chi.parity(g)
        for eps in (0, 1):
            for s2 in range(par, deg + 7, 2):
                res = apply_op(eps, HalfInt(s2), elt, ctx)
                want = (ctx.group.scale(3, g), deg + s2 * 2 - eps, 3 * charge)
                for m2 in res.terms:
                    got = monomial_bidegree(m2, ctx) + (monomial_charge(m2, ctx),)
                    _require(got == want, "%r on %r gives (g, n, charge) %r, not %r",
                             (eps, s2), monomial_str(mono), got, want)


def _check_suspension():
    for twist in (-1, 1):
        ctx = point_context(3, twist, 8, 9)
        bad = suspension_check(ctx, max_degree=8, max_charge=3)
        _require(not bad, "%s (twist %d)", "; ".join(bad), twist)


def _check_oracles():
    sgn = sym_sign_table(3, 3, 10)
    col = {q for (k, q) in sgn if k == 3}
    want = {q for q in range(11) if q % 4 in (1, 2)}
    _require(col == want, "sym-sign degrees at charge 3 are %s, not %s", sorted(col), sorted(want))
    alt = {q for (k, q) in alternating_table(3, 3, 10) if k == 3}
    _require(alt == set(range(11)), "alternating degrees at charge 3 are %s", sorted(alt))
    # Swan's count below p^2 (appcalc._swan_count), each column to degree 40
    for sign, name, table in ((False, "sym-trivial", sym_trivial_table),
                              (True, "sym-sign", sym_sign_table)):
        rows = table(3, 8, 40)
        for k in range(9):
            got = {q: row.dim for (c, q), row in rows.items() if c == k}
            want = _swan_count(3, k, sign, 40)
            _require(got == want, "%s dimensions at charge %d are %s, not Swan's %s",
                     name, k, sorted(got.items()), sorted(want.items()))


_SELFCHECK_SUITES = [
    ("binomials", _check_binomials),
    ("rewriter", _check_rewriter),
    ("upper-lower-crosscheck", _check_crosscheck),
    ("degree-law", _check_degree_law),
    ("action-tridegree", _check_action),
    ("suspension", _check_suspension),
    ("homology-oracles", _check_oracles),
]


def cmd_selfcheck(args, out):
    failed = 0
    for name, fn in _SELFCHECK_SUITES:
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            out.write(f"FAIL {name}: {exc}\n")
        else:
            out.write(f"ok {name}\n")
    out.write(f"selfcheck: {len(_SELFCHECK_SUITES) - failed}/{len(_SELFCHECK_SUITES)} suites passed\n")
    return EXIT_OK if failed == 0 else 1


# ---------------------------------------------------------------------------
# argument parsing

_FLAGS = {
    "context": {"metavar": "FILE", "help": "JSON context configuration"},
    "p": {"type": int, "help": "odd prime"},
    "max_degree": {"type": int, "help": "internal degree cutoff"},
    "max_charge": {"type": int, "help": "charge cutoff"},
    "budget": {"type": int, "help": "cap on the work units of the command"},
}


def _add_flags(sub, *names, **defaults):
    """One --flag per setting.  A setting passed with a value takes it as its
    default, shown in --help; the others come from the context file if unset."""
    for name in names + tuple(defaults):
        spec = dict(_FLAGS[name], default=defaults.get(name))
        if name in defaults:
            spec["help"] += " (default: %(default)s)"
        sub.add_argument("--" + name.replace("_", "-"), **spec)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dyerlashof",
        description="Twisted Dyer-Lashof operations: rewriting, bases, tables.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("rewrite", help="admissible normal form of an operation word")
    sub.add_argument("word", help="operation word, e.g. 'Q^{2} Q^{0}' or 'bQ^{3/2} Q^{1/2}'")
    _add_flags(sub, p=3, budget=DEFAULT_BUDGET)
    sub.set_defaults(func=cmd_rewrite)

    sub = subs.add_parser("basis", help="basis monomials of one bidegree")
    sub.add_argument("g", help="grading vector, comma-separated integers")
    sub.add_argument("n", type=int, help="internal degree")
    _add_flags(sub, "context", "p", "max_charge", "budget")
    sub.set_defaults(func=cmd_basis)

    sub = subs.add_parser("table", help="dimension table per (charge, grading, degree)")
    _add_flags(sub, "context", "p", "max_degree", "max_charge", "budget")
    sub.add_argument("--format", choices=("tsv", "json"), default="tsv")
    sub.set_defaults(func=cmd_table)

    sub = subs.add_parser("act", help="apply one operation to an element")
    sub.add_argument("op", help="operation letter, e.g. 'bQ^{1/2}'")
    sub.add_argument("element", help="element expression, e.g. '2 * Q^{1/2} x + x'")
    _add_flags(sub, "context", "p", "budget")
    sub.set_defaults(func=cmd_act)

    sub = subs.add_parser("dmodule", help="free-module basis over one generator")
    sub.add_argument("--gen", default=None, help="generator name")
    _add_flags(sub, "context", "p", "max_degree", "max_charge", "budget")
    sub.set_defaults(func=cmd_dmodule)

    sub = subs.add_parser("example", help="built-in group-homology tables")
    sub.add_argument("which", choices=("sym-sign", "alternating"))
    _add_flags(sub, p=3, max_degree=10, max_charge=6, budget=DEFAULT_BUDGET)
    sub.add_argument("--format", choices=("tsv", "json"), default="tsv")
    sub.set_defaults(func=cmd_example)

    sub = subs.add_parser("selfcheck", help="run the built-in invariant suites")
    sub.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # one meter per command, its budget resolved as the context's settings
        cfg = {}
        if "context" in vars(args):
            cfg = _read_config(args.context)
            args.ctx = context_from_config(cfg, args)
        with Meter(_pick(args, cfg, "budget", DEFAULT_BUDGET)):
            code = args.func(args, sys.stdout)
        sys.stdout.flush()
    except DyerLashofError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE if isinstance(exc, ResourceError) else EXIT_VALIDATION
    except BrokenPipeError:
        # the reader closed stdout (`| head`): send what is still buffered to
        # devnull, so that the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
