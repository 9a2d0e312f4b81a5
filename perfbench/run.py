#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass runs in a fresh interpreter (perfbench/passes.py), one at a time,
with PYTHONHASHSEED pinned, so the peak RSS of a pass is its own.

--trace 0 repeats timed passes for about S seconds (at least three) and
reports the end-to-end metrics as medians over the passes; set-up time
comes from at least MIN_SETUPS processes.

--trace 1 alternates untraced and traced passes for about S seconds, then
measures peak memory in one pass per flavor, and reports the per-layer
metrics: median times, counts (which must repeat exactly) and the tracing
overhead.

Every table of every pass is checked against perfbench/reference.json and
every complex for d^2 = 0; a failed task makes the run exit 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
HASH_SEED = "0"
MIN_PASSES = 3
MIN_SETUPS = 11  # short runs add set-up-only passes up to this many samples
BUDGET_S = 170.0  # a run must end within 180 s


class PassFailed(RuntimeError):
    pass


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(mode: str, workload: str, seed: int, timeout: float) -> dict:
    """Run one pass in a fresh interpreter and return its result."""
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    argv = [sys.executable, str(HERE / "passes.py"), mode, workload, str(seed),
            repr(now())]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"{mode} pass did not end within {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise PassFailed(f"{mode} pass exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def repeat(modes: tuple[str, ...], workload: str, seed: int, seconds: float,
           started: float, min_rounds: int) -> list[list[dict]]:
    """Rounds of passes, one pass per mode each, for about `seconds` seconds."""
    rounds: list[list[dict]] = []
    first = now()
    while True:
        rounds.append([spawn(m, workload, seed, BUDGET_S - (now() - started))
                       for m in modes])
        elapsed = now() - first
        per_round = elapsed / len(rounds)
        if now() - started + per_round > BUDGET_S:
            break
        if len(rounds) >= min_rounds and elapsed + per_round > seconds:
            break
    return rounds


def gate(results: list[dict], reference: dict[str, dict[str, str]]) -> list[str]:
    """Why each failed task failed: exception, d^2 != 0 or a table that differs."""
    failures = []
    for r in results:
        name = r["task"]
        if "error" in r:
            failures.append(f"{name}: {r['error']}")
        elif not r["d2"]:
            failures.append(f"{name}: d^2 != 0")
        elif r["digests"] != reference.get(name):
            failures.append(f"{name}: table digest {r['digests']} != {reference.get(name)}")
    return failures


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: at least (1 - q) of the values lie at or above it."""
    if not values:  # every task of the pass failed
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(timed: list[dict], setup_s: list[float], attempted: int,
               failed: int) -> dict[str, float]:
    """Medians over the passes."""
    def med(values) -> float:
        return statistics.median(values)

    task_s = [[r["seconds"] for r in p["results"] if "seconds" in r] for p in timed]
    return {
        "wall_s": med(sum(s) for s in task_s),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in timed),
        "setup_s": med(setup_s),
        "ops_ok_frac": 1 - failed / attempted,
        "diagram_ms_p50": med(percentile(s, 0.50) for s in task_s) * 1e3,
        "diagram_ms_p95": med(percentile(s, 0.95) for s in task_s) * 1e3,
    }


def per_layer(timed: list[dict], traced: list[dict], alloc: list[dict]) -> dict[str, float]:
    """Median times over the traced passes; counts must agree across them."""
    first = traced[0]["layers"]
    out: dict[str, float] = {}
    for name, value in first.items():
        values = [p["layers"][name] for p in traced]
        if isinstance(value, int):
            if len(set(values)) != 1:
                raise PassFailed(f"count {name} differs between traced passes: {values}")
            out[name] = value
        else:
            out[name] = statistics.median(values)
    for p in alloc:
        out.update(p["layers"])
    out["trace.untraced_wall_s"] = statistics.median(p["wall_s"] for p in timed)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    return out


def render(values: dict[str, float], specs: list[dict]) -> dict[str, dict]:
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def failed_tasks(passes: list[dict], reference: dict) -> list[str]:
    return [f for p in passes for f in gate(p["results"], reference)]


def end_to_end_run(workload: str, seed: int, seconds: float, started: float,
                   reference: dict) -> tuple[list[dict], list[str], dict[str, float]]:
    timed = [r[0] for r in repeat(("timed",), workload, seed, seconds, started,
                                  MIN_PASSES)]
    setup_s = [p["setup_s"] for p in timed]
    while len(setup_s) < MIN_SETUPS:
        setup_s.append(spawn("setup", workload, seed,
                             BUDGET_S - (now() - started))["setup_s"])
    failures = failed_tasks(timed, reference)
    attempted = sum(len(p["results"]) for p in timed)
    return timed, failures, end_to_end(timed, setup_s, attempted, len(failures))


def layer_run(workload: str, seed: int, seconds: float, started: float,
              reference: dict) -> tuple[list[dict], list[str], dict[str, float]]:
    rounds = repeat(("timed", "traced"), workload, seed, seconds, started, 1)
    alloc = [spawn(f"alloc.{fl}", workload, seed, BUDGET_S - (now() - started))
             for fl in ("homotopical", "classical")]
    timed = [r[0] for r in rounds]
    traced = [r[1] for r in rounds]
    checked = timed + traced
    return checked, failed_tasks(checked, reference), per_layer(timed, traced, alloc)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = now()

    if not (ROOT / "src" / "hkhovanov" / "__init__.py").is_file():
        print(f"error: no hkhovanov sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())["tasks"]

    runner = layer_run if args.trace else end_to_end_run
    try:
        checked, failures, values = runner(args.workload, args.seed, args.seconds,
                                           started, reference)
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    walls = [round(p["wall_s"], 4) for p in checked if "wall_s" in p]
    print(f"# workload={args.workload} seed={args.seed} PYTHONHASHSEED={HASH_SEED} "
          f"pass_wall_s={walls} run_s={now() - started:.1f}")
    specs = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({"correct": not failures,
                      "attempted": sum(len(p["results"]) for p in checked),
                      "failed": len(failures), "metrics": render(values, specs)}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
