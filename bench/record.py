"""Record a trajectory point: every workload over several seeds, as one JSON file.

Run from the root of a checkout:

    python3 bench/record.py --out bench/BENCH_<n>.json [--seeds 101-110]

For each workload of BENCHMARK.json it makes one untraced run per seed
(``run_seconds`` each), then one traced run on the first seed.  It writes the
machine, the commit, each end-to-end metric's median, quartiles and spread
(the distance between the quartiles over the median, quartiles as
``statistics.quantiles(values, n=4)`` gives them), the per-layer values of
the traced run, and every run's input size, tail sample and digest.  It
prints each spread against the metric's bound and exits 1 if a run fails or
a spread other than that of ``setup_s`` exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    info = {ln.split(" ", 1)[0]: ln.split(" ", 1)[1] for ln in lines[:-1] if " " in ln}
    return json.loads(lines[-1]), info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", default="101-110", help="a range such as 101-110")
    ap.add_argument("--note", default="")
    args = ap.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seeds = _seeds(args.seeds)
    doc = {
        "commit": _commit(),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform(), "cpu_model": _cpu_model()},
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "note": args.note,
        "workloads": {},
    }
    too_wide = []
    for wl in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            result, info = _run(wl, seed, spec["run_seconds"], 0)
            runs.append({"seed": seed, "metrics": {k: m["value"] for k, m in
                                                   result["metrics"].items()},
                         "input_size": json.loads(info["input_size"]),
                         "passes": info["passes"], "digest": info["digest"]})
            print(wl, seed, runs[-1]["metrics"], flush=True)
        summary = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            summary[m["name"]] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                                  "spread": spread, "bound": m["bound"], "unit": m["unit"]}
            print(f"  {wl} {m['name']}: median {statistics.median(values):.6g} {m['unit']}, "
                  f"spread {spread:.3f} (bound {m['bound']})", flush=True)
            if m["name"] != "setup_s" and spread > m["bound"]:
                too_wide.append(f"{wl} {m['name']}")
        traced, info = _run(wl, seeds[0], spec["run_seconds"], 1)
        doc["workloads"][wl] = {
            "end_to_end": summary,
            "runs": runs,
            "per_layer": {"seed": seeds[0], "self_check": info.get("self_check"),
                          "op_time": info.get("op"),
                          "values": {k: m["value"] for k, m in traced["metrics"].items()}},
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for name in too_wide:
        print(f"spread above its bound: {name}")
    return 1 if too_wide else 0


if __name__ == "__main__":
    sys.exit(main())
