"""The repository benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload rewrite|table|action|cli --seed N \\
        --seconds S --trace 0|1 [--tiny]

A run is a series of passes.  A pass is a fixed amount of work built from
the seed (bench/workloads.py) and runs in a fresh worker process
(bench/worker.py), so the global ``adem_expand`` cache and the per-context
action caches start empty, as in every CLI invocation, and each pass has
its own peak RSS.  Passes run one at a time, at least MIN_PASSES of them,
and no new one starts once it would end after ``--seconds``.  Every pass of
one seed runs the same ops in the same order.  Op and set-up times are
scaled to a reference speed (bench/speed.py), and each op's time is its
median over the passes: on a shared machine the same op runs now and then
at up to twice its usual speed, so a best-of-passes time depends on whether
a pass happened to catch such a spell.  ``op_p50_ms`` is the median of the
ops' times, ``op_tail_ms`` the highest percentile of them with ten beyond
it, and ``ops_per_s`` the ops over the sum of them; ``peak_rss_mb``
and ``setup_s`` are medians over the passes and set-ups.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
BENCHMARK.json names; with ``--trace 1`` one traced pass gives the
per-layer metrics, and one untraced pass of the same inputs the trace's own
overhead.  The lines before it report the input size, the measures that are
not gated (``failed_ratio``), the tail percentile with its sample count and
a sha256 digest of the workload's canonical output.  A failed op or any
other correctness violation makes the run exit 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from speed import burst_scale

BENCH = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("rewrite", "table", "action", "cli")
MIN_PASSES = 3
SETUPS = 9  # set-up samples per run at least; setup_s is their median
PASS_LIMIT_S = 120  # no pass starts that would end after this, whatever --seconds says
CHILD_TIMEOUT = 150
TAIL_BEYOND = 10


def _child(argv, root, env=None):
    """Run one child to completion; returns (stdout, monotonic start time)."""
    t0 = time.monotonic()
    proc = subprocess.run(argv, cwd=root, env=env, stdout=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise SystemExit(f"child {argv[1:4]} exited with {proc.returncode}")
    return proc.stdout, t0


def _worker(args, root, trace, *extra):
    """One worker process; returns (its result, its set-up time)."""
    argv = [sys.executable, os.path.join(BENCH, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--trace", str(trace), "--root", root, *extra]
    if args.tiny:
        argv.append("--tiny")
    out, t0 = _child(argv, root)
    res = json.loads(out.splitlines()[-1])
    return res, res["ready"] - t0


def _cli_setups(root):
    """Set-up of the cli workload: a CLI child that only imports (``--version``)."""
    from launcher import cli_env

    env = cli_env(root)
    raw, scaled = [], []
    for _ in range(SETUPS):
        before = burst_scale()
        t0 = time.monotonic()
        _child([sys.executable, "-m", "dyerlashof.cli", "--version"], root, env)
        raw.append(time.monotonic() - t0)
        scaled.append(raw[-1] * (before + burst_scale()) / 2)
    return raw, scaled


def _passes(args, root):
    """Untraced passes until the next one would end after --seconds, or one
    has gone wrong."""
    passes, setups, pass_walls = [], [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        res, setup = _worker(args, root, 0)
        pass_walls.append(time.monotonic() - t0)
        passes.append(res)
        setups.append((setup, setup * res["setup_scale"]))
        end = time.monotonic() - start + statistics.median(pass_walls)
        if res["violations"] or end > PASS_LIMIT_S or (
                len(passes) >= MIN_PASSES and end > args.seconds):
            return passes, setups


def _tail(times):
    """The highest nearest-rank percentile with TAIL_BEYOND samples beyond it:
    (its value, the percentile)."""
    ordered = sorted(times)
    idx = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[idx], 100 * (idx + 1) / len(ordered)


def _timings(pass_times, setups):
    """The timing metrics from per-pass op times and set-up times.

    Every pass ran the same ops in the same order: each op's time is its
    median over the passes.
    """
    per_op = [statistics.median(times) for times in zip(*pass_times)]
    tail, pct = _tail(per_op)
    return {"setup_s": statistics.median(setups), "ops_per_s": len(per_op) / sum(per_op),
            "op_p50_ms": statistics.median(per_op) * 1000, "op_tail_ms": tail * 1000,
            "tail_pct": pct}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke check")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dyerlashof", "__init__.py")):
        print("error: run from the root of a checkout (src/dyerlashof is missing)",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    if args.trace:
        traced, _ = _worker(args, root, 1)
        plain, _ = _worker(args, root, 0)
        passes = [traced, plain]
    else:
        passes, setups = _passes(args, root)
        if args.workload == "cli":  # the cli worker's own set-up is no CLI user's cost
            setups = list(zip(*_cli_setups(root)))
        while len(setups) < SETUPS:
            res, setup = _worker(args, root, 0, "--setup-only")
            setups.append((setup, setup * res["setup_scale"]))

    print(f"input_size {json.dumps(passes[0]['size'], sort_keys=True)}")
    print(f"digest {passes[0]['digest']}")
    violations = list(dict.fromkeys(v for res in passes for v in res["violations"]))
    if len({res["digest"] for res in passes}) > 1:
        violations.append("the same inputs gave different outputs in different passes: "
                          f"digests {[res['digest'] for res in passes]}")
    for v in violations:
        print(f"VIOLATION {v}")
    attempted = sum(res["attempted"] for res in passes)
    failed = sum(res["failed"] for res in passes)
    print(f"failed_ratio {failed / attempted} ratio ({failed} of {attempted})")
    if failed:
        print("an op failed; no result", file=sys.stderr)
        return 1

    pass_walls = [res["walls"] for res in passes]
    if args.trace:
        wall, own = sum(pass_walls[0]), sum(pass_walls[1])
        print(f"op time traced {wall} s, untraced {own} s")
        values = dict(passes[0]["layers"], **{"trace.overhead_s": wall - own})
        check = passes[0]["self_check"]
        if check:
            print(f"self_check op {check[0]} wall {check[1]} s, "
                  f"sum of self times {check[2]} s, span depth {check[3]}")
        group = "per_layer"
    else:
        raw_setups, scaled_setups = zip(*setups)
        raw = _timings([res["walls"] for res in passes], raw_setups)
        values = _timings([res["scaled"] for res in passes], scaled_setups)
        values["peak_rss_mb"] = statistics.median(res["rss_kb"] for res in passes) / 1024
        print(f"passes {len(passes)} of {len(pass_walls[0])} ops; op_tail_ms is "
              f"p{values.pop('tail_pct'):.2f} of the ops' times, {TAIL_BEYOND} beyond it")
        print(f"setup_s samples {list(scaled_setups)}")
        raw.pop("tail_pct")
        print(f"unscaled {json.dumps(raw)}")
        group = "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[group]}
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    correct = not violations
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
