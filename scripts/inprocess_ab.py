#!/usr/bin/env python3
"""CPU time of two checkouts on one benchmark workload, alternated in one process.

    python3 scripts/inprocess_ab.py A B [--workload braid_g1_12] [--reps 15] [--seed 1]

A and B are checkout roots.  Each one's `src/hkhovanov` is copied into a
temporary directory under its own package name (`hk_a`, `hk_b`; the package
imports itself relatively), so both load side by side.  The workload's
tasks come from this checkout's `perfbench/workloads.make_tasks`, as JSON
text.  A repetition times, on each side, the work of perfbench's timed
phase: per task, load the text, then per flavor `build_complex`,
`homology_table` and `poincare_report(..., "tsv")`, with
`differential_squares_to_zero` on `fuzz_mixed` only.  A goes first on even
repetitions and B on odd ones, with a garbage collection before each side,
and the two sides' reports must be equal.  Every load makes a fresh
`Surface`, so class memos start cold; module-level caches stay warm after
the first repetition.  The last line of output is one JSON object: each
side's `time.process_time` median and quartiles in seconds, the median of
the per-repetition ratios B / A, and how many repetitions B was faster.

Both sides share one process and one host state, so host drift moves them
together; compare fresh-process runs (perfbench/run.py) for end-to-end
metrics and memory.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import pathlib
import shutil
import statistics
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, make_tasks  # noqa: E402

FLAVORS = ("homotopical", "classical")
D2_TIMED = ("fuzz_mixed",)  # as in perfbench/passes.py


def load_side(checkout: pathlib.Path, name: str, into: pathlib.Path):
    """The checkout's hkhovanov package, copied into `into` and imported as `name`."""
    shutil.copytree(checkout / "src" / "hkhovanov", into / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return (importlib.import_module(f"{name}.diagram"), importlib.import_module(f"{name}.chain"),
            importlib.import_module(f"{name}.homology"))


def run_side(side, tasks: list[tuple[str, str]], d2: bool) -> tuple[float, list[str]]:
    """CPU seconds of one repetition over every task, and the reports made."""
    diagram, chain, homology = side
    gc.collect()
    reports = []
    start = time.process_time()
    for name, text in tasks:
        d = diagram.parse_diagram(text, name)
        for flavor in FLAVORS:
            cx = chain.build_complex(d, flavor)
            if d2 and not chain.differential_squares_to_zero(cx):
                raise AssertionError(f"{name} {flavor}: d^2 != 0")
            reports.append(homology.poincare_report(homology.homology_table(cx), "tsv"))
            del cx
    return time.process_time() - start, reports


def spread(xs: list[float]) -> dict[str, float]:
    if len(xs) < 2:
        return {"median": xs[0], "q1": xs[0], "q3": xs[0]}
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", type=pathlib.Path, help="checkout root of side A")
    ap.add_argument("b", type=pathlib.Path, help="checkout root of side B")
    ap.add_argument("--workload", choices=WORKLOADS, default="braid_g1_12")
    ap.add_argument("--reps", type=int, default=15)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.reps < 1:
        ap.error("--reps must be at least 1")
    tasks = make_tasks(args.workload, args.seed)
    d2 = args.workload in D2_TIMED
    times: dict[str, list[float]] = {"a": [], "b": []}
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = {"a": load_side(args.a.resolve(), "hk_a", pathlib.Path(tmp)),
                 "b": load_side(args.b.resolve(), "hk_b", pathlib.Path(tmp))}
        for rep in range(args.reps):
            reports = {}
            for key in ("ab" if rep % 2 == 0 else "ba"):
                spent, reports[key] = run_side(sides[key], tasks, d2)
                times[key].append(spent)
            if reports["a"] != reports["b"]:
                raise AssertionError(f"repetition {rep}: the two sides' reports differ")
    ratios = [b / a for a, b in zip(times["a"], times["b"])]
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "reps": args.reps,
        "a": {"checkout": str(args.a), **spread(times["a"])},
        "b": {"checkout": str(args.b), **spread(times["b"])},
        "ratio_b_over_a_median": statistics.median(ratios),
        "b_faster": sum(r < 1 for r in ratios),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
