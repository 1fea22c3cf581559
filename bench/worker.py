"""One pass of a workload in a fresh process; started by bench/run.py.

Prints one JSON line: the set-up end time (``ready``, on the monotonic clock
the parent shares) with the speed scale right after it (bench/speed.py)
and, unless ``--setup-only``, the pass's measurements: the raw and scaled
time of every op, failures and correctness violations, the sha256 of the
canonical output, the input size and the peak RSS.  With ``--trace 1`` the
layer wrappers are installed for the pass, and the per-layer values and a
self-time check of one op with nested spans come back too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time


def _import_engine(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import dyerlashof

    if not os.path.abspath(dyerlashof.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"dyerlashof was imported from {dyerlashof.__file__}, not {src}")


def run_pass(w, tracer=None):
    """Run, check and digest every op of the pass."""
    from dyerlashof.errors import ResourceError
    from launcher import read_trace
    from speed import Meter
    from workloads import CheckFailed, OpFailed

    walls, spans_at, violations, cli_docs = [], [], [], []
    meter = Meter()
    attempted = failed = 0
    digest = hashlib.sha256()
    self_check = None
    in_process = tracer is not None and w.in_process
    for i, op in enumerate(w.ops(), 1):
        attempted += 1
        meter.tick()
        if tracer is not None:
            tracer.begin_op(i)
        # an untraced op runs repeats(op) times in a row and takes the median
        reps = w.repeats(op) if tracer is None and hasattr(w, "repeats") else 1
        times = []
        start = time.perf_counter()
        try:
            for _ in range(reps):
                t0 = time.perf_counter()
                out = tracer.root(w.run, op) if in_process else w.run(op)
                times.append(time.perf_counter() - t0)
        except (ResourceError, OpFailed) as exc:
            failed += 1
            violations.append(f"op {i} failed: {exc}")
            continue
        walls.append(statistics.median(times))
        spans_at.append((start, time.perf_counter()))
        if tracer is not None:
            tracer.on = False
            if in_process:
                spans = (walls[-1], tracer.op_self, tracer.op_depth)
            else:
                doc = read_trace(out.stderr)
                tracer.merge(doc, i)
                cli_docs.append(doc)
                spans = (doc["root_wall"], doc["self_sum"], doc["depth"])
            # the longest op whose spans nest at least two deep below its root
            if spans[2] >= 3 and (self_check is None or spans[0] > self_check[1]):
                self_check = (i, *spans)
        try:
            w.check(op, out)
        except CheckFailed as exc:
            violations.append(str(exc))
            break
        digest.update(w.canonical(op, out))
        w.account(op, out)
        if tracer is not None:
            tracer.on = True
    for _ in range(3):  # so that the last ops have chunks after them too
        meter.tick(force=True)
    scaled = [wall * meter.scale(t0, t1) for wall, (t0, t1) in zip(walls, spans_at)]
    return {
        "attempted": attempted, "failed": failed, "walls": walls, "scaled": scaled,
        "violations": violations, "digest": digest.hexdigest(),
        "self_check": self_check, "cli_docs": cli_docs,
    }


def layer_values(w, tracer, res, names):
    """Per-layer values of a traced pass, with what the tracer cannot see."""
    import tracing
    from dyerlashof import dlalgebra

    tracer.uninstall()
    docs = res.pop("cli_docs")
    extra = {}
    if w.in_process:
        info = dlalgebra.adem_expand.cache_info()
        hits, misses, size = info.hits, info.misses, info.currsize
    else:
        # each CLI child reports its own caches
        hits, misses, size = (sum(d["adem_cache"][i] for d in docs) for i in range(3))
        extra["cli.import_s"] = statistics.median(d["import_s"] for d in docs) if docs else 0.0
        extra["cli.stdout_bytes"] = w.stdout_bytes
    extra["dlalgebra.adem_expand.cache_hits"] = hits
    extra["dlalgebra.adem_expand.cache_misses"] = misses
    extra["dlalgebra.adem_expand.cache_size"] = size
    if hasattr(w, "cache_sizes"):
        extra["action.qclass_cache.size"], extra["action.monomial_cache.size"] = w.cache_sizes
    return tracing.layer_values(tracer, names, extra)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--root", required=True)
    args = ap.parse_args(argv)
    _import_engine(args.root)
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        if cls.in_process:
            tracer.install(also=("workloads",))
        # set-up is op 0 of the trace
        w = tracer.root(cls, args.seed, args.tiny, args.root, True)
    else:
        w = cls(args.seed, tiny=args.tiny, root=args.root, trace=False)
    ready = time.monotonic()
    from speed import burst_scale

    setup_scale = burst_scale()
    try:
        if args.setup_only:
            res = {}
        else:
            res = run_pass(w, tracer)
            res["size"] = w.size()
            who = resource.RUSAGE_SELF if cls.in_process else resource.RUSAGE_CHILDREN
            res["rss_kb"] = resource.getrusage(who).ru_maxrss
            if tracer is not None:
                with open(os.path.join(args.root, "BENCHMARK.json"), encoding="utf-8") as fh:
                    names = [m["name"] for m in json.load(fh)["per_layer"]]
                res["layers"] = layer_values(w, tracer, res, names)
                out_dir = os.path.join(args.root, ".bench_out")
                os.makedirs(out_dir, exist_ok=True)
                tracer.write_records(
                    os.path.join(out_dir, f"spans-{cls.name}-{args.seed}.json"))
            else:
                res.pop("cli_docs")
    finally:
        if hasattr(w, "close"):
            w.close()
    res["ready"] = ready
    res["setup_scale"] = setup_scale
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
