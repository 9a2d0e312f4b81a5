#!/usr/bin/env python3
"""Long-running differential fuzz: d^2 = 0 on seeded random diagrams.

The acceptance suite runs 1000 of these; this script is for overnight runs
with different seeds or bigger diagrams.
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hkhovanov.chain import build_complex, differential_squares_to_zero
from hkhovanov.cube import edge_circles, resolve
from hkhovanov.diagram import diagram_to_json
from hkhovanov.randgen import random_diagram_stream


def has_neutral_edge(d) -> bool:
    """Whether some cube edge of d keeps its circle count, read from the owner
    slots like the build does."""
    n = d.n_crossings
    owner = [resolve(d, s).owner for s in range(1 << n)]
    return any(edge_circles(d, owner[s], owner[s | 1 << c], s, c)[0] == "neutral"
               for s in range(1 << n) for c in range(n) if not (s >> c) & 1)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--count", type=int, default=1000)
    ap.add_argument("--max-crossings", type=int, default=8)
    ap.add_argument("--max-genus", type=int, default=2)
    args = ap.parse_args()

    t0 = time.time()
    neutral_count = 0
    for k, d in enumerate(random_diagram_stream(
            args.seed, args.count, max_crossings=args.max_crossings,
            max_genus=args.max_genus)):
        if has_neutral_edge(d):
            neutral_count += 1
        for flavor in ("homotopical", "classical"):
            cx = build_complex(d, flavor=flavor)
            if not differential_squares_to_zero(cx):
                print(f"FAIL seed={args.seed} index={k} flavor={flavor}")
                print(diagram_to_json(d))
                return 1
        if (k + 1) % 100 == 0:
            print(f"{k + 1} diagrams ok ({neutral_count} with neutral edges,"
                  f" {time.time() - t0:.1f}s)")
    print(f"all {args.count} diagrams pass; {neutral_count} had neutral edges")
    return 0


if __name__ == "__main__":
    sys.exit(main())
