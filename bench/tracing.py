"""Layer tracing from outside the package.

The tracer wraps module-level functions and methods of the ``dyerlashof``
modules and times every call into them.  Spans nest on a stack: a span's
self time is its duration minus the durations of the spans it encloses, so
the self times of one op add up to the op's wall time.

``from x import y`` binds ``y`` at import time, so a wrapper is rebound in
every ``dyerlashof`` module whose attribute is the original object, not only
in the module that defines it.

Hot leaf layers (binomials, pair expansions, grading arithmetic, element
addition) are aggregated per name only.  Every other span also keeps one
record (name, start, end, parent record, op id), written out at the end.
"""

from __future__ import annotations

import json
import sys
import time

# (module, attribute, kind); kind "leaf" aggregates only, "span" also records.
TARGETS = (
    ("arith", "binom_mod_p", "leaf"),
    ("dlalgebra", "adem_expand", "leaf"),
    ("dlalgebra", "normalize", "span"),
    ("grading", "GradingGroup.validate", "leaf"),
    ("grading", "GradingGroup.add", "leaf"),
    ("grading", "GradingGroup.scale", "leaf"),
    ("grading", "TwistCharacter.chi", "leaf"),
    ("freealg", "_enumerate_words", "span"),
    ("freealg", "_enumerate_monomials", "span"),
    ("freealg", "poincare_table", "span"),
    ("freealg", "basis", "span"),
    ("freealg", "enumerate_dmodule_basis", "span"),
    ("freealg", "multiply", "span"),
    ("freealg", "AlgebraElement.add", "leaf"),
    ("action", "apply_op", "span"),
    ("action", "_apply_qclass", "span"),
    ("action", "_apply_qclass_raw", "leaf"),
    ("action", "_apply_monomial", "span"),
    ("action", "_apply_monomial_raw", "leaf"),
    ("appcalc", "sym_sign_table", "span"),
    ("appcalc", "alternating_table", "span"),
    ("cli", "context_from_config", "span"),
    ("cli", "parse_word", "span"),
    ("cli", "parse_element", "span"),
    ("cli", "element_str", "span"),
    ("cli", "dlelement_str", "span"),
)

MAX_RECORDS = 200_000


def _admissible(elt):
    """True when every input word is already in admissible normal form."""
    from dyerlashof.dlalgebra import _find_inadmissible

    want = 0 if elt.twist == 1 else 1
    return all(
        all(s2 % 2 == want for _, s2 in w)
        and _find_inadmissible(w, elt.p, "leftmost") is None
        for w in elt.terms
    )


def _before_normalize(tr, args, kwargs):
    if _admissible(args[0]):
        tr.count("dlalgebra.normalize.admissible_in")


def _before_multiply(tr, args, kwargs):
    tr.count("freealg.multiply.pairs_in", len(args[0].terms) * len(args[1].terms))


def _before_element_add(tr, args, kwargs):
    tr.count("freealg.AlgebraElement.add.terms_copied", len(args[0].terms))


def _terms_out(name):
    def hook(tr, result):
        tr.count(name, len(result.terms))
    return hook


def _len_out(name):
    def hook(tr, result):
        tr.count(name, len(result) if result else 0)
    return hook


def _rows_out(tr, result):
    # alternating_table calls sym_sign_table; count only the rows handed back
    # to the caller outside appcalc
    if tr.depth("appcalc.sym_sign_table") + tr.depth("appcalc.alternating_table") == 0:
        tr.count("appcalc.rows_out", len(result))


BEFORE = {
    "dlalgebra.normalize": _before_normalize,
    "freealg.multiply": _before_multiply,
    "freealg.AlgebraElement.add": _before_element_add,
}

AFTER = {
    "dlalgebra.normalize": _terms_out("dlalgebra.normalize.terms_out"),
    "freealg.multiply": _terms_out("freealg.multiply.terms_out"),
    "action.apply_op": _terms_out("action.apply_op.terms_out"),
    "freealg._enumerate_words": _len_out("freealg._enumerate_words.words_out"),
    "freealg._enumerate_monomials": _len_out("freealg._enumerate_monomials.monomials_out"),
    "appcalc.sym_sign_table": _rows_out,
    "appcalc.alternating_table": _rows_out,
}


class Tracer:
    """Span stack, per-name aggregates and span records for one process."""

    def __init__(self):
        self.stats = {}  # name -> [calls, inclusive time, self time]
        self.counters = {}
        self.active = {}  # name -> open spans, so recursion counts time once
        self.stack = []  # open spans: [child time, record index]
        self.records = []
        self.names = []
        self.name_ids = {}
        self.truncated = False
        self.op = 0
        self.op_self = 0.0
        self.op_depth = 0  # deepest span nesting within the current op
        self.on = True
        self._saved = []
        # root(fn, *args) runs fn as an op's root span; its self time is the
        # op's own code outside the package
        self.root = self.wrap("op", lambda fn, *args: fn(*args), True)

    def count(self, name, k=1):
        self.counters[name] = self.counters.get(name, 0) + k

    def depth(self, name):
        return self.active.get(name, 0)

    def begin_op(self, op):
        self.op = op
        self.op_self = 0.0
        self.op_depth = 0

    def name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name, fn, record):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        name_id = self.name_id(name)
        before = BEFORE.get(name)
        after = AFTER.get(name)
        stack, active, records = self.stack, self.active, self.records
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer, args, kwargs)
            idx = -1
            if record and len(records) < MAX_RECORDS:
                idx = len(records)
                records.append(None)
            elif record:
                tracer.truncated = True
            parent = stack[-1][1] if stack else -1
            # a leaf has no record; its children hang off its nearest recorded ancestor
            frame = [0.0, idx if idx >= 0 else parent]
            stack.append(frame)
            if len(stack) > tracer.op_depth:
                tracer.op_depth = len(stack)
            depth = active.get(name, 0)
            active[name] = depth + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[name] = depth
                dur = t1 - t0
                own = dur - frame[0]
                stats[0] += 1
                if depth == 0:
                    stats[1] += dur
                stats[2] += own
                tracer.op_self += own
                if stack:
                    stack[-1][0] += dur
                if idx >= 0:
                    records[idx] = (name_id, t0, t1, parent, tracer.op)
            if after is not None:
                after(tracer, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, also=()):
        """Wrap every target and rebind it wherever it was imported: in the
        package's modules and in the modules named in ``also``."""
        mods = {
            name: mod for name, mod in sys.modules.items()
            if name == "dyerlashof" or name.startswith("dyerlashof.") or name in also
        }
        for mod_name, attr, kind in TARGETS:
            home = sys.modules["dyerlashof." + mod_name]
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._saved.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(name, orig, kind == "span"))
                continue
            orig = getattr(home, attr)
            wrapper = self.wrap(name, orig, kind == "span")
            for mod in mods.values():
                if getattr(mod, attr, None) is orig:
                    self._saved.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def merge(self, doc, op):
        """Fold in the aggregates and records a traced child process sent."""
        for name, (calls, total, own) in doc["stats"].items():
            s = self.stats.setdefault(name, [0, 0.0, 0.0])
            s[0] += calls
            s[1] += total
            s[2] += own
        for name, k in doc["counters"].items():
            self.count(name, k)
        base = len(self.records)
        for name_id, t0, t1, parent, _ in doc["records"]:
            if len(self.records) >= MAX_RECORDS:
                self.truncated = True
                break
            self.records.append((self.name_id(doc["names"][name_id]), t0, t1,
                                 parent + base if parent >= 0 else -1, op))
        self.truncated |= doc["truncated"]

    def export(self):
        return {
            "stats": self.stats,
            "counters": self.counters,
            "names": self.names,
            "records": self.records,
            "truncated": self.truncated,
        }

    def write_records(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "start", "end", "parent", "op"],
                "truncated": self.truncated,
                "spans": [
                    [self.names[n], t0, t1, parent, op]
                    for n, t0, t1, parent, op in self.records
                ],
            }, fh)


_STAT_FIELDS = {"calls": 0, "time_s": 1, "self_s": 2}
# metric name prefix -> traced span name, where the two differ
_SPAN_OF = {"grading.validate": "grading.GradingGroup.validate",
            "grading.add": "grading.GradingGroup.add",
            "grading.scale": "grading.GradingGroup.scale",
            "grading.chi": "grading.TwistCharacter.chi"}


def _ratio(num, den):
    # an undefined ratio (nothing to divide by) reads 0
    return num / den if den else 0.0


def layer_values(tr, names, extra):
    """The values of the per-layer metrics in names, from the traced aggregates.

    extra carries what the tracer cannot see itself: cache sizes read after
    the pass, CLI import times and stdout bytes.  A layer the pass never
    entered reads 0.
    """
    values = dict(extra)
    for name in names:
        if name in values:
            continue
        prefix, _, field = name.rpartition(".")
        if field in _STAT_FIELDS:
            stats = tr.stats.get(_SPAN_OF.get(prefix, prefix), (0, 0.0, 0.0))
            values[name] = stats[_STAT_FIELDS[field]]
        elif name in tr.counters:
            values[name] = tr.counters[name]
    calls = lambda span: tr.stats.get(span, (0,))[0]  # noqa: E731
    values["dlalgebra.terms_per_expansion"] = _ratio(
        tr.counters.get("dlalgebra.normalize.terms_out", 0),
        calls("dlalgebra.adem_expand"))
    values["freealg.multiply.kept_ratio"] = _ratio(
        tr.counters.get("freealg.multiply.terms_out", 0),
        tr.counters.get("freealg.multiply.pairs_in", 0))
    for short, span in (("qclass", "_apply_qclass"), ("monomial", "_apply_monomial")):
        total = calls(f"action.{span}")
        values[f"action.{short}_cache.hit_ratio"] = _ratio(
            total - calls(f"action.{span}_raw"), total)
    return {name: values.get(name, 0) for name in names}
