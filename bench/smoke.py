"""Smoke check of the benchmark itself, on tiny inputs.

Run from the root of a checkout: ``python3 bench/smoke.py``.  For every
workload it makes one untraced and one traced tiny run and checks that

- the run exits 0, reports ``correct`` and attempts at least one op;
- every metric BENCHMARK.json names appears with its unit (end-to-end
  metrics untraced, per-layer metrics traced), and no other metric does;
- in the traced run, the self times of the longest op whose spans nest two
  deep below its root add up to that op's wall time, within 2% of it plus
  SELF_SLACK_S for the root wrapper's own clock reads.  A wrapper that did
  not charge a child's time to its parent would count that time twice.

Last, it checks that the benchmark refuses to run, with a nonzero exit and
no result line, in a directory holding only BENCHMARK.json and bench/.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
SELF_SLACK_S = 5e-5


def run(root, workload, trace):
    argv = [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=170)


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            before = len(problems)
            proc = run(root, wl, trace)
            where = f"{wl} trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-800:]}")
                continue
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"attempted={result['attempted']}")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"units {[n for n in want if n in got and got[n] != want[n]]}")
            if trace:
                m = next((re.match(r"self_check op \d+ wall (\S+) s, sum of self times (\S+) s, "
                                   r"span depth (\d+)", ln)
                          for ln in lines if ln.startswith("self_check")), None)
                if m is None:
                    problems.append(f"{where}: no op with nested spans to check")
                else:
                    wall, own = float(m.group(1)), float(m.group(2))
                    if abs(wall - own) > 0.02 * wall + SELF_SLACK_S:
                        problems.append(f"{where}: op wall {wall} s but its self times "
                                        f"sum to {own} s")
            print(f"{'ok' if len(problems) == before else 'FAILED'} {where}")

    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=out_dir)
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip().endswith("}"):
            problems.append("the benchmark ran without the program's sources")
        else:
            print("ok refuses to run without src/")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("PROBLEM", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
