"""The benchmark's seeded workloads.

Each workload builds one pass of ops from the seed in ``__init__`` (set-up,
not timed) and hands them out from ``ops()``; ``run()`` runs one op (the
timed part), ``check()`` checks its output, ``canonical()`` renders the
output for the digest and ``account()`` counts the input size.  A workload
whose ops keep no state between calls has ``repeats(op)``: an untraced pass
runs such an op that many times in a row and takes the median time.  A pass
is a fixed amount of work, so every pass of one seed does the same work and
a run's figures do not depend on how many ops fit into its time.  The engine
only ever sees the generated inputs.

Why these four: ``rewrite`` is almost all ``dlalgebra``/``arith`` and none of
``freealg``/``grading``/``action``; ``table`` does no rewriting, only
``freealg`` enumeration and ``grading``; ``action`` is Cartan products,
``multiply`` and ``grading`` with rare rewriting; ``cli`` is the only one
that pays interpreter start, imports and empty caches per call, and the only
one that reaches ``cli`` and ``appcalc``.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile

from dyerlashof.action import apply_op
from dyerlashof.appcalc import point_context
from dyerlashof.arith import HalfInt
from dyerlashof.cli import context_from_config, dlelement_str, parse_element, word_str
from dyerlashof.dlalgebra import DLElement, normalize, word_degree
from dyerlashof.freealg import (
    AlgebraElement,
    Context,
    Generator,
    _enumerate_monomials,
    monomial_bidegree,
    monomial_charge,
    monomial_str,
    multiply,
    poincare_table,
)
from dyerlashof.grading import GradingGroup, TwistCharacter
from launcher import cli_env


class CheckFailed(Exception):
    """An op returned a wrong result."""


class OpFailed(Exception):
    """An op did not complete (a CLI child exited with an unexpected code)."""


def require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _sorted_terms(elt: AlgebraElement):
    return sorted(
        ([q.sort_key() for q in mono], c) for mono, c in elt.terms.items())


def _tally(counts, key, k=1):
    counts[key] = counts.get(key, 0) + k


# ---------------------------------------------------------------------------
# rewrite

# The nine strata of the acceptance-4 rewriting corpus:
# (corpus count, primes, length, lo, hi) with indices 2s drawn from [2lo, 2hi].
STRATA = (
    (1800, (3, 5, 7), 1, -20, 20),
    (6000, (3, 5, 7), 2, -20, 20),
    (900, (3,), 3, -20, 20),
    (180, (5,), 3, -20, 20),
    (25, (7,), 3, -20, 20),
    (400, (7,), 3, -8, 20),
    (300, (3,), 4, -6, 20),
    (120, (5,), 4, -4, 20),
    (400, (7,), 4, -2, 20),
)


def draw_word(rng, stratum):
    """One word of a stratum, drawn as the acceptance-4 corpus draws it."""
    _, primes, k, lo, hi = STRATA[stratum]
    p = rng.choice(primes)
    par = rng.randint(0, 1)
    entries = tuple(
        (rng.randint(0, 1), 2 * rng.randint(lo, hi) + par) for _ in range(k))
    return p, -1 if par else 1, entries


# One rewrite pass: a fixed sample of strata 2-8 of the acceptance-4 corpus
# itself (its own seed), every HEAVY_STRIDE-th of their words, taken by
# position alone; then words of the light strata 0 and 1 (lengths 1 and 2 at
# every prime) drawn from the seed, a tenth of their corpus count each.
# Strata 2-8 cost too unevenly to draw per seed: single words take up to 5 s,
# and thirty words a stratum drawn per seed cost 9 s under one seed and 24 s
# under another; so the fixed sample measures the same heavy tail under
# every seed.
LIGHT_STRATA = (0, 1)
LIGHT_SHARE = 10
CORPUS_SEED = 2024
HEAVY_STRIDE = 30


def heavy_words():
    """Every HEAVY_STRIDE-th word of strata 2-8 of the acceptance-4 corpus."""
    rng = random.Random(CORPUS_SEED)
    corpus = [(h, *draw_word(rng, h)) for h, spec in enumerate(STRATA) for _ in range(spec[0])]
    return [w for w in corpus if w[0] not in LIGHT_STRATA][::HEAVY_STRIDE]


class Rewrite:
    """normalize leftmost, rightmost, then again on the result, per word.

    A pass runs the fixed heavy sample first, in corpus order, then the
    seeded light words in a seeded order.  The ``adem_expand`` cache is
    global, so a word's cost depends on the words before it; with the heavy
    words first their costs, and op_tail_ms among them, do not depend on
    the seed.
    """

    name = "rewrite"
    in_process = True

    def __init__(self, seed, tiny=False, root=None, trace=False):
        rng = random.Random(seed)
        if tiny:
            self.words = [(h, *draw_word(rng, h)) for h in LIGHT_STRATA]
        else:
            light = [h for h in LIGHT_STRATA for _ in range(STRATA[h][0] // LIGHT_SHARE)]
            rng.shuffle(light)
            self.words = heavy_words() + [(h, *draw_word(rng, h)) for h in light]
        self.per_stratum = {}
        self.terms_out = 0

    def ops(self):
        return self.words

    def run(self, op):
        _, p, twist, entries = op
        elt = DLElement(p, twist, {entries: 1})
        left = normalize(elt, "leftmost")
        right = normalize(elt, "rightmost")
        again = normalize(left)
        return left, right, again

    def check(self, op, out):
        _, p, twist, entries = op
        left, right, again = out
        require(left.terms == right.terms, f"leftmost != rightmost on {op}")
        require(again.terms == left.terms, f"normal form not idempotent on {op}")
        d = word_degree(entries, p)
        for w in left.terms:
            require(word_degree(w, p) == d, f"degree not conserved on {op}")
            require(len(w) == len(entries), f"charge not conserved on {op}")

    def canonical(self, op, out):
        return f"{op[1:]} {sorted(out[0].terms.items())}\n".encode()

    def account(self, op, out):
        _tally(self.per_stratum, f"stratum{op[0]}")
        self.terms_out += len(out[0].terms)

    def size(self):
        return {"words_per_stratum": self.per_stratum, "output_terms": self.terms_out}


# ---------------------------------------------------------------------------
# table


def _oracle_k3(p, twist, max_degree):
    """Hand-written k = 3 columns: H_q(S_3; F_p) and H_q(S_3; sign)."""
    if p == 3:
        residues = (1, 2) if twist == -1 else (0, 3)
        return {q: 1 for q in range(max_degree + 1) if q % 4 in residues}
    # 3 < p: S_3 has order prime to p, only H_0 with trivial coefficients
    return {0: 1} if twist == 1 else {}


# One table pass, (kind, shape), fixed sizes.  Three heavy shapes: many
# monomials, heavy pruning (large charge, few monomials), and a Z + Z/2 graded
# context with a negative-degree generator.  Then point contexts
# (p, twist, max_degree, max_charge) with twist +-1 at p = 3 and 5 over a
# ladder of sizes: 101 ops, so that op_tail_ms, the eleventh slowest op, sits
# near p90.  Sizes are fixed rather than drawn, so that every seed measures
# the same work and the median op is not whichever shape a seed's draw
# happened to put in the middle.
TABLE_SHAPES = (
    ("many", (3, -1, 44, 27)),
    ("prune", (3, -1, 12, 243)),
    ("torsion", (6, 9)),
    *[("point", (3, twist, d, 9)) for twist in (1, -1) for d in range(6, 21)],
    *[("point", (3, twist, d, 27)) for twist in (1, -1) for d in range(10, 19)],
    *[("point", (5, twist, d, 25)) for twist in (1, -1) for d in range(10, 35)],
)
TABLE_HEAVY = ("many", "prune", "torsion")  # about a second each; the point ops take 60 ms at most
TABLE_REPEATS = 3


class Table:
    """One poincare_table per op, over the contexts of TABLE_SHAPES.

    The contexts are built in set-up; the seed sets their order.
    """

    name = "table"
    in_process = True

    def __init__(self, seed, tiny=False, root=None, trace=False):
        rng = random.Random(seed)
        if tiny:
            shapes = [("point", (3, -1, 10, 9)), ("point", (5, 1, 20, 25)),
                      ("torsion", (2, 3))]
        else:
            shapes = list(TABLE_SHAPES)
            rng.shuffle(shapes)
        self.shapes = [(kind, shape, _table_context(kind, shape)) for kind, shape in shapes]
        self.per_shape = {}
        self.monomials = 0

    def ops(self):
        return self.shapes

    def repeats(self, op):
        """poincare_table keeps no state between calls, so a light op runs
        TABLE_REPEATS times and its time is the median of them."""
        return 1 if op[0] in TABLE_HEAVY else TABLE_REPEATS

    def run(self, op):
        _, _, ctx = op
        return poincare_table(ctx, ctx.max_degree, ctx.max_charge)

    def check(self, op, table):
        kind, shape, ctx = op
        if kind == "torsion":
            return
        p, twist, max_degree, max_charge = shape
        require(all(g == (charge,) for g, _, charge in table),
                f"grading and charge disagree in {shape}")
        if max_charge >= 3:
            col = {n: dim for (g, n, charge), dim in table.items() if charge == 3}
            require(col == _oracle_k3(p, twist, max_degree),
                    f"k = 3 column differs from the oracle in {shape}")

    def canonical(self, op, table):
        return f"{op[0]} {op[1]} {sorted(table.items())}\n".encode()

    def account(self, op, table):
        _tally(self.per_shape, op[0])
        self.monomials += sum(table.values())

    def size(self):
        return {"contexts_per_shape": self.per_shape, "monomials": self.monomials}


def _table_context(kind, shape):
    if kind == "torsion":
        # Z + Z/2 grading, both coordinates twisted; x in (1, 0) degree 0,
        # z in (0, 1) degree -1
        group = GradingGroup(1, (2,))
        gens = [Generator("x", (1, 0), 0), Generator("z", (0, 1), -1)]
        return Context(3, group, TwistCharacter(group, (-1, -1)), gens,
                       max_degree=shape[0], max_charge=shape[1])
    return point_context(*shape)


# ---------------------------------------------------------------------------
# action

# One action pass: point contexts (p, twist, max_degree, max_charge) at p = 3,
# one of each twist, fixed sizes.
ACTION_SPECS = ((3, 1, 8, 9), (3, -1, 13, 9))
S_WINDOW = range(-3, 13)  # 2s - n over the window around a monomial's degree n


class Action:
    """apply_op(eps, s, monomial) over every basis monomial of each context,
    for s in a window around the monomial's degree (acceptance 7's shape).

    The monomials are enumerated in set-up, and the ops run in enumeration
    order: monomial, then eps, then s.  The seed does not change them.  A
    seeded order made the slowest ops whichever happened to fill a cache
    first, and moved op_tail_ms by half between seeds.  Each context is
    rebuilt fresh when the pass reaches it, so its caches start empty.
    """

    name = "action"
    in_process = True

    def __init__(self, seed, tiny=False, root=None, trace=False):
        specs = [(3, -1, 6, 9), (3, 1, 6, 9)] if tiny else ACTION_SPECS
        self.plans = []
        self.monomials = 0
        for spec in specs:
            ctx = point_context(*spec)
            plan = []
            for mono, g, n, _ in _enumerate_monomials(ctx, spec[2], spec[3]):
                if n >= 0:
                    charge = monomial_charge(mono, ctx)
                    self.monomials += 1
                    plan += [(mono, g, n, charge, eps, n + d) for eps in (0, 1) for d in S_WINDOW]
            self.plans.append((spec, plan))
        self.contexts = 0
        self.cache_sizes = [0, 0]  # qclass, monomial cache entries of finished contexts
        self.ctx = None
        self.calls = 0
        self.terms_out = 0

    def ops(self):
        for spec, plan in self.plans:
            self.retire()
            ctx = self.ctx = point_context(*spec)
            self.contexts += 1
            for mono, g, n, charge, eps, s2 in plan:
                elt = AlgebraElement.from_monomial(ctx, mono)
                yield ctx, elt, g, n, charge, eps, s2
        self.retire()

    def run(self, op):
        ctx, elt, _, _, _, eps, s2 = op
        return apply_op(eps, HalfInt(s2), elt, ctx)

    def check(self, op, out):
        ctx, elt, g, n, charge, eps, s2 = op
        p = ctx.p
        if s2 % 2 != ctx.chi.parity(g) or s2 < n + eps:
            require(out.is_zero, f"vanishing rule broken at eps={eps} s2={s2}")
            return
        for mono in out.terms:
            require(monomial_bidegree(mono, ctx) ==
                    (ctx.group.scale(p, g), n + s2 * (p - 1) - eps),
                    f"tridegree law broken at eps={eps} s2={s2}")
            require(monomial_charge(mono, ctx) == p * charge,
                    f"charge law broken at eps={eps} s2={s2}")
        if eps == 0 and s2 == n:
            power = AlgebraElement.unit(ctx)
            for _ in range(p):
                power = multiply(power, elt, ctx)
            require(out == power, f"bottom operation is not the p-th power at n={n}")

    def canonical(self, op, out):
        ctx, elt, _, _, _, eps, s2 = op
        return f"{_sorted_terms(elt)} {eps} {s2} {_sorted_terms(out)}\n".encode()

    def account(self, op, out):
        self.calls += 1
        self.terms_out += len(out.terms)

    def retire(self):
        """Count the cache entries of the current context and let it go."""
        if self.ctx is not None:
            self.cache_sizes[0] += len(self.ctx.__dict__.get("_qclass_op_cache", ()))
            self.cache_sizes[1] += len(self.ctx.__dict__.get("_monomial_op_cache", ()))
            self.ctx = None

    def size(self):
        return {"contexts": self.contexts, "monomials_acted_on": self.monomials,
                "apply_op_calls": self.calls, "output_terms": self.terms_out}


# ---------------------------------------------------------------------------
# cli

_CLI_CONTEXTS = {
    "sign3": {"p": 3, "grading": {"free_rank": 1, "torsion_orders": []}, "chi": [-1],
              "generators": [{"name": "x", "g": [1], "n": 0}]},
    "triv3": {"p": 3, "grading": {"free_rank": 1, "torsion_orders": []}, "chi": [1],
              "generators": [{"name": "x", "g": [1], "n": 0}]},
    "tors": {"p": 3, "grading": {"free_rank": 1, "torsion_orders": [2]}, "chi": [-1, -1],
             "generators": [{"name": "x", "g": [1, 0], "n": 0},
                            {"name": "y", "g": [1, 1], "n": 1}]},
}
_CLI_CUTOFFS = {"version": 1, "max_degree": 12, "max_charge": 9}

# One cli pass: a fixed count of each command kind, weighted toward commands
# that do real work.  Where an argument sets a command's cost (a cutoff or
# which example), each value occurs a fixed number of times; the seed draws
# the words, elements, contexts of act and basis, and the order.
_CLI_PASS = (
    *[("rewrite", None)] * 6,
    *[("act", None)] * 6,
    *[("table", (name, d, c)) for name in sorted(_CLI_CONTEXTS) for d, c in ((10, 27), (20, 9))],
    *[("basis", name) for name in sorted(_CLI_CONTEXTS)],
    *[("dmodule", name) for name in sorted(_CLI_CONTEXTS)],
    *[("example", (which, d, c)) for which in ("sym-sign", "alternating")
      for d, c in ((12, 9), (16, 27), (20, 27), (20, 9))],
    *[("invalid", None)] * 2,
)


class Cli:
    """One ``python -m dyerlashof.cli ...`` child per op, one at a time.

    The traced run starts each child through bench/launcher.py instead, which
    installs the layer wrappers and then calls ``dyerlashof.cli.main``.
    """

    name = "cli"
    in_process = False

    def __init__(self, seed, tiny=False, root=".", trace=False):
        rng = random.Random(seed)
        self.root = os.path.abspath(root)
        self.trace = trace
        self.env = cli_env(self.root)
        out_dir = os.path.join(self.root, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="cli-", dir=out_dir)
        self.ctx_files = {}
        self.contexts = {}
        for name, spec in _CLI_CONTEXTS.items():
            cfg = {**spec, **_CLI_CUTOFFS}
            path = os.path.join(self.tmp, name + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            self.ctx_files[name] = path
            ctx = context_from_config(cfg)
            monos = [(m, g, n) for m, g, n, _ in
                     _enumerate_monomials(ctx, ctx.max_degree, ctx.max_charge) if m]
            self.contexts[name] = (ctx, monos)
        plan = list(_CLI_PASS)
        if tiny:
            plan = list({kind: (kind, arg) for kind, arg in plan}.values())
        self.commands = [self._command(rng, kind, arg) for kind, arg in plan]
        if not tiny:
            rng.shuffle(self.commands)
        self.per_kind = {}
        self.stdout_bytes = 0

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _command(self, rng, kind, arg):
        """(kind, argv, expected exit code, check data)."""
        if kind == "rewrite":
            p, twist, entries = draw_word(rng, 2)
            return kind, ["rewrite", word_str(entries), "--p", str(p)], 0, (p, twist, entries)
        if kind == "act":
            name = rng.choice(sorted(self.contexts))
            ctx, monos = self.contexts[name]
            picks = rng.sample(monos, 2)
            # at least one product or power
            picks[0] = rng.choice([m for m in monos if len(m[0]) > 1])
            text = " + ".join(f"{rng.randint(1, ctx.p - 1)} * {monomial_str(m)}"
                              for m, _, _ in picks)
            _, g, n = picks[0]
            eps = rng.randint(0, 1)
            s2 = n + rng.randint(0, 5)
            if s2 % 2 != ctx.chi.parity(g):
                s2 += 1
            letter = ("bQ^{%s}" if eps else "Q^{%s}") % (
                s2 // 2 if s2 % 2 == 0 else f"{s2}/2")
            argv = ["act", "--context", self.ctx_files[name], letter, text]
            return kind, argv, 0, (name, eps, s2, text)
        if kind == "table":
            name, d, c = arg
            argv = ["table", "--context", self.ctx_files[name],
                    "--max-degree", str(d), "--max-charge", str(c)]
            return kind, argv, 0, None
        if kind == "basis":
            _, monos = self.contexts[arg]
            _, g, n = rng.choice(monos)
            argv = ["basis", "--context", self.ctx_files[arg],
                    ",".join(str(c) for c in g), str(n)]
            return kind, argv, 0, None
        if kind == "dmodule":
            argv = ["dmodule", "--context", self.ctx_files[arg], "--gen", "x",
                    "--max-charge", "27"]
            return kind, argv, 0, None
        if kind == "example":
            which, d, c = arg
            argv = ["example", which, "--p", "3", "--max-degree", str(d), "--max-charge", str(c)]
            return kind, argv, 0, None
        # a malformed index must be refused with exit code 2
        return kind, ["rewrite", f"Q^{{{rng.randint(1, 9)}/3}}"], 2, None

    def ops(self):
        return self.commands

    def argv(self, op):
        if self.trace:
            launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launcher.py")
            return [sys.executable, launcher, *op[1]]
        return [sys.executable, "-m", "dyerlashof.cli", *op[1]]

    def run(self, op):
        try:
            proc = subprocess.run(self.argv(op), cwd=self.root, env=self.env,
                                  capture_output=True, timeout=120)
        except subprocess.TimeoutExpired as exc:
            raise OpFailed(f"{op[1]} timed out") from exc
        if proc.returncode != op[2]:
            raise OpFailed(f"{op[1]} exited {proc.returncode}: {proc.stderr[-500:]!r}")
        return proc

    def check(self, op, proc):
        kind, argv, _, data = op
        out = proc.stdout.decode()
        if kind == "invalid":
            require(out == "", f"{argv} wrote to stdout")
            return
        require(out.endswith("\n"), f"{argv} printed no complete line")
        if kind == "rewrite":
            p, twist, entries = data
            want = dlelement_str(normalize(DLElement(p, twist, {entries: 1}), "rightmost"))
            require(out == want + "\n", f"{argv}: stdout differs from the rightmost normal form")
        elif kind == "act":
            name, eps, s2, text = data
            ctx = self.contexts[name][0]
            want = apply_op(eps, HalfInt(s2), parse_element(text, ctx), ctx)
            require(parse_element(out.strip(), ctx) == want,
                    f"{argv}: output does not parse back to the element")

    def canonical(self, op, proc):
        return b"%d %s\n%s" % (proc.returncode, op[0].encode(), proc.stdout)

    def account(self, op, proc):
        _tally(self.per_kind, op[0])
        self.stdout_bytes += len(proc.stdout)

    def size(self):
        return {"commands_per_kind": self.per_kind, "stdout_bytes": self.stdout_bytes}


WORKLOADS = {w.name: w for w in (Rewrite, Table, Action, Cli)}
