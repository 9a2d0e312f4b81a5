#!/usr/bin/env python3
"""Measure how steady the benchmark is, and keep the runs as a baseline record.

    python3 perfbench/steady.py

For each of two sets, and each workload, this runs `run.py --trace 0` once
per seed 1-10, one run at a time, and reports for every end-to-end metric
the median, the quartiles of `statistics.quantiles(values, n=4)` and their
spread (q3 - q1) / median next to the metric's bound.  It then compares the
two sets' medians: their relative gap must stay within the bound.  Last it
makes two `--trace 1` runs per workload on seed 1, checks that every count
repeats exactly between them, and evaluates the layer-share predictions the
benchmark was designed around.  The record goes to
perfbench/results/steadiness-<commit>.json, named after the checked-out
commit of the code it measured.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

from run import HASH_SEED, HERE, ROOT

SEEDS = tuple(range(1, 11))
SETS = 2
TRACED_RUNS = 2

# layer shares the workloads were chosen to show: (numerator, denominator) metrics
PREDICTIONS = {
    "classify_share_of_build": (("cube.classify_s",), ("chain.build_s.homotopical",)),
    "rank_share_of_build_and_rank": (
        ("gf2.rank_s.homotopical", "gf2.rank_s.classical"),
        ("chain.build_s.homotopical", "chain.build_s.classical",
         "gf2.rank_s.homotopical", "gf2.rank_s.classical")),
    "classes_share_of_build": (("words.classes_s",), ("chain.build_s.homotopical",)),
}


def commit() -> str:
    """Short hash of the checked-out commit, or "unknown" outside a git checkout."""
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr}")
    out = json.loads(lines[-1])
    out["metrics"] = {k: v["value"] for k, v in out["metrics"].items()}
    print(f"{workload} seed={seed} trace={trace}: {lines[-2]}", file=sys.stderr)
    return out


def summarize(values: list[float], bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "within_third_of_bound": spread < bound / 3}


def ten_seeds(workload: str, spec: dict) -> dict:
    runs = [bench(workload, s, spec["run_seconds"], 0) for s in SEEDS]
    return {
        "runs": [{"seed": s, **r["metrics"]} for s, r in zip(SEEDS, runs)],
        "summary": {m["name"]: summarize([r["metrics"][m["name"]] for r in runs],
                                         m["bound"])
                    for m in spec["end_to_end"]},
        "all_correct": all(r["correct"] for r in runs),
    }


def agreement(first: dict, second: dict, metric: dict) -> dict:
    """How far the second set's median lies from the first's, as a share of it."""
    a, b = first["median"], second["median"]
    gap = (b - a) / a if a else 0.0
    worse = gap if metric["better"] == "lower" else -gap
    return {"first": a, "second": b, "gap": gap, "bound": metric["bound"],
            "within_bound": abs(gap) <= metric["bound"],
            "worse_by_more_than_bound": worse > metric["bound"]}


def share(layers: dict, num: tuple[str, ...], den: tuple[str, ...]) -> float:
    return sum(layers[k] for k in num) / sum(layers[k] for k in den)


def traced(workload: str, spec: dict) -> dict:
    runs = [bench(workload, SEEDS[0], spec["run_seconds"], 1)["metrics"]
            for _ in range(TRACED_RUNS)]
    counts = [k for k, v in runs[0].items() if isinstance(v, int)]
    return {"metrics": runs[0],
            "counts_repeat": all(r[k] == runs[0][k] for r in runs for k in counts),
            "shares": {name: share(runs[0], num, den)
                       for name, (num, den) in PREDICTIONS.items()}}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    record = {"commit": commit(), "run_seconds": spec["run_seconds"],
              "pythonhashseed": HASH_SEED, "python": platform.python_version(),
              "cpus": os.cpu_count(), "seeds": list(SEEDS),
              "sets": [{w: ten_seeds(w, spec) for w in workloads} for _ in range(SETS)]}
    first, second = record["sets"][0], record["sets"][-1]
    record["agreement"] = {
        w: {m["name"]: agreement(first[w]["summary"][m["name"]],
                                 second[w]["summary"][m["name"]], m)
            for m in spec["end_to_end"]}
        for w in workloads}
    record["traced"] = {w: traced(w, spec) for w in workloads}

    out = HERE / "results" / f"steadiness-{record['commit']}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    for w in workloads:
        for name, gap in record["agreement"][w].items():
            spreads = " ".join(f"{s[w]['summary'][name]['spread']:.4f}"
                               for s in record["sets"])
            print(f"{w:12s} {name:16s} median={gap['first']:.6g}/{gap['second']:.6g} "
                  f"gap={gap['gap']:+.4f} spreads={spreads} bound={gap['bound']}")
        for name, v in record["traced"][w]["shares"].items():
            print(f"{w:12s} {name:30s} {v:.4f}")
        print(f"{w:12s} counts_repeat={record['traced'][w]['counts_repeat']}")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
