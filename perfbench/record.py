#!/usr/bin/env python3
"""Record the reference table digests that every benchmark pass is checked against.

    python3 perfbench/record.py

For every task of every workload, and both flavors, this stores the first
16 hex digits of the SHA-256 of the rendered TSV table.  The references are
guarded as they are made: every complex must satisfy d^2 = 0 and
`euler_consistent`, and the classical table of each fuzz_mixed diagram that
is small enough (and has no neutral cube edge) must equal the independent
brute-force table of tests/oracles.classical_khovanov.  Homotopical tables
have no independent oracle, so d^2 = 0 and the Euler check are their guard.
"""

from __future__ import annotations

import json
import sys

from passes import FLAVORS, ROOT, digest, load
from steady import commit
from workloads import WORKLOADS, base_docs

sys.path.insert(0, str(ROOT / "tests"))

from hkhovanov.chain import build_complex, differential_squares_to_zero  # noqa: E402
from hkhovanov.homology import euler_consistent, homology_table, poincare_report  # noqa: E402
from oracles import classical_khovanov  # noqa: E402

ORACLE_MAX_GENERATORS = 3000


def main() -> int:
    tasks: dict[str, dict[str, str]] = {}
    oracle = {"checked": 0, "skipped_size": 0, "skipped_neutral": 0}
    for workload in WORKLOADS:
        for name, doc in base_docs(workload):
            d = load(json.dumps(doc))
            tasks[name] = {}
            for flavor in FLAVORS:
                cx = build_complex(d, flavor)
                table = homology_table(cx)
                if not differential_squares_to_zero(cx):
                    raise SystemExit(f"{name} {flavor}: d^2 != 0")
                if not euler_consistent(cx, table):
                    raise SystemExit(f"{name} {flavor}: Euler characteristics disagree")
                tasks[name][flavor] = digest(poincare_report(table, "tsv"))
                if workload != "fuzz_mixed" or flavor != "classical":
                    continue
                if cx.total_dim() > ORACLE_MAX_GENERATORS:
                    oracle["skipped_size"] += 1
                    continue
                try:
                    expect = classical_khovanov(d)
                except AssertionError:  # the oracle has no neutral cube edges
                    oracle["skipped_neutral"] += 1
                    continue
                got = {}
                for (i, j, _), dim in table.entries.items():
                    got[(i, j)] = got.get((i, j), 0) + dim
                if got != expect:
                    raise SystemExit(f"{name}: classical table differs from the oracle")
                oracle["checked"] += 1
        print(f"{workload}: recorded", file=sys.stderr)

    out = {
        "format": "first 16 hex digits of sha256 of poincare_report(table, 'tsv')",
        "commit": commit(),
        "oracle_cross_check": oracle,
        "tasks": tasks,
    }
    (ROOT / "perfbench" / "reference.json").write_text(
        json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(json.dumps(oracle))
    return 0


if __name__ == "__main__":
    sys.exit(main())
