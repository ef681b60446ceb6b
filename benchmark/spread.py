"""Run workloads on several seeds and report each metric's spread.

    python3 benchmark/spread.py --seeds 10
    python3 benchmark/spread.py --workload desk_train --seeds 5
    python3 benchmark/spread.py --seeds 10 --first-seed 101 --write-baseline

Runs ``run.py`` once per seed and workload, one at a time, cycling
through the workloads for each seed so that every workload meets the
same stretches of machine noise. Then prints for every end-to-end metric
the median, the quartiles (``statistics.quantiles``, n=4) and the
spread: the interquartile distance as a share of the median, next to the
metric's bound from BENCHMARK.json. With ``--write-baseline`` the figures
and the machine record are stored in ``baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE = os.path.join(HERE, "baseline.json")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed} failed ({proc.returncode}):\n{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "runs": len(values)}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", nargs="+", help="default: every workload")
    p.add_argument("--seeds", type=int, default=10, help="how many seeds, one run each")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--write-baseline", action="store_true")
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    values: dict[str, dict[str, list[float]]] = {w: {} for w in names}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for w in names:
            result = run_once(w, seed, bench["run_seconds"], 0)
            if not result["correct"]:
                raise SystemExit(f"{w} seed {seed}: output check failed")
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v[-1]:.5g}" for k, v in values[w].items()), flush=True)

    summary = {}
    for w in names:
        print(f"\n{w:24s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} bound")
        summary[w] = {}
        for m in bench["end_to_end"]:
            s = summary[w][m["name"]] = summarize(values[w][m["name"]])
            flag = "" if s["spread"] < m["bound"] / 3 else "  <-- above bound/3"
            if s["spread"] > m["bound"]:
                flag = "  <-- ABOVE BOUND"
            print(f"{m['name']:24s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['spread']:8.4f} {m['bound']}{flag}")

    if args.write_baseline:
        sys.path.insert(0, HERE)
        from run import machine_record  # noqa: E402

        doc = {}
        if os.path.exists(BASELINE):
            with open(BASELINE) as f:
                doc = json.load(f)
        doc["machine"] = machine_record()
        doc["run_seconds"] = bench["run_seconds"]
        doc.setdefault("workloads", {}).update(summary)
        with open(BASELINE, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
