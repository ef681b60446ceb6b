"""gridseg benchmark: one workload, one closed-loop client, one process.

    python3 benchmark/run.py --workload desk_train --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json untraced;
``--trace 1`` makes a separate traced run that reports the per-layer
metrics. Every metric is printed by name with its unit, then the machine
record, then one JSON result line. The run exits 1 if an output check
fails and 2 if the library cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
BASELINE = os.path.join(HERE, "baseline.json")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _import_library() -> None:
    """Put the checkout's ``src/`` first on the path; refuse any other copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "gridseg", "__init__.py")):
        _fail(f"no gridseg sources under {src}")
    sys.path[:0] = [src, HERE]
    import gridseg
    if os.path.dirname(os.path.dirname(os.path.abspath(gridseg.__file__))) != src:
        _fail(f"imported gridseg from {gridseg.__file__}, not {src}")


def _fail(message: str) -> None:
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def metric_specs() -> dict[str, dict]:
    """End-to-end and per-layer metric declarations, keyed by name."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        doc = json.load(f)
    return {"end_to_end": {m["name"]: m for m in doc["end_to_end"]},
            "per_layer": {m["name"]: m for m in doc["per_layer"]}}


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine_record() -> dict:
    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
    }


def comparable_to_baseline(machine: dict) -> bool:
    """True when every machine field except the commit matches the baseline's."""
    try:
        with open(BASELINE) as f:
            base = json.load(f)["machine"]
    except (OSError, KeyError, ValueError):
        return False
    fields = (set(base) | set(machine)) - {"git_commit"}
    return all(base.get(k) == machine.get(k) for k in fields)


def main(argv=None) -> int:
    _import_library()
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be non-negative and --seconds positive")

    specs = metric_specs()["per_layer" if args.trace else "end_to_end"]
    w = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        if args.trace:
            result = workloads.run_traced(w, args.seed, workdir)
        else:
            result = workloads.run_untraced(w, args.seed, args.seconds, workdir)

    metrics = result["metrics"]
    if set(metrics) != set(specs):
        raise RuntimeError(f"metrics do not match BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(specs))}")
    samples = result.get("samples", {})
    for name, spec in specs.items():
        n = f"  (n={samples[name]})" if name in samples else ""
        print(f"{name:34s} {metrics[name]!r:>24} {spec['unit']}{n}")
    for name, value in result.get("extra", {}).items():
        print(f"{name:34s} {value!r:>24}")
    for check, ok in result["checks"].items():
        print(f"check: {'ok  ' if ok else 'FAIL'} {check}")
    machine = machine_record()
    comparable = comparable_to_baseline(machine)
    print("machine:", json.dumps(machine, sort_keys=True))
    print("comparable to baseline:", comparable)

    correct = all(result["checks"].values())
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "comparable": comparable,
              **{k: v for k, v in result.items() if k != "spans"}}
    with open(os.path.join(OUT_DIR, stem + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    if args.trace:
        with open(os.path.join(OUT_DIR, stem + ".spans.jsonl"), "w") as f:
            for span in result["spans"]:
                f.write(json.dumps(span) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": spec["unit"]}
                    for name, spec in specs.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
