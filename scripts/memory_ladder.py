#!/usr/bin/env python3
"""Peak memory of the cube build on a ladder of 4-braid closures.

    python3 scripts/memory_ladder.py [--min 8] [--max 16] [--cap-mb MB]

For each crossing count n it builds and ranks the closure of the braid word
([1,2,3]*k)[:n] on 4 strands at three points: genus 0 classical, genus 1
homotopical (the first closure arc reads `a`, so n = 12 is
corpus/perf12_genus1) and genus 2 homotopical (the first two read `a1` and
`a2`).  The classical flavor ignores circle words, so classical at genus 1 or
2, and homotopical at genus 0, would build the genus-0 classical cube again.
Every point runs in a fresh interpreter, so each peak RSS (the child's VmHWM,
so Linux only) is that build's own.  --cap-mb limits the address space of
that child only; a point that runs out reads MemoryError.  It prints the
generator count, build and rank seconds, peak RSS, a sha256 prefix of the
tsv table and the resident size when the build returned (VmRSS), which
splits the peak into what the built complex holds and what ranking adds,
then per genus the largest n whose peak stayed under LIMIT_MB.  A
point that fails or exceeds the limit ends its genus.  The default top is
n = 16, whose genus-0 point peaks near 615 MiB and takes about 7 s to build
and rank.  At n = 17 the genus-0 point peaked about 90 MiB under LIMIT_MB in
a single run, too narrow a margin to make it the default.
"""

import argparse
import hashlib
import json
import pathlib
import resource
import subprocess
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hkhovanov.braid import braid_closure
from hkhovanov.chain import build_complex
from hkhovanov.diagram import Diagram
from hkhovanov.homology import homology_table, poincare_report

LIMIT_MB = 2048  # criterion 10's budget
POINTS = ((0, "classical"), (1, "homotopical"), (2, "homotopical"))
CLOSURE_WORDS = {0: None, 1: ["a", "", "", ""], 2: ["a1", "a2", "", ""]}


def closure(genus: int, n: int) -> Diagram:
    """The n-crossing 4-braid closure of the ladder at this genus."""
    return braid_closure(([1, 2, 3] * (n // 3 + 1))[:n], 4, genus=genus,
                         closure_words=CLOSURE_WORDS[genus])


def status_mb(field: str) -> float:
    """One size field of /proc/self/status (VmRSS, VmHWM, ...), in MiB."""
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith(field + ":")) / 1024


def run_point(genus: int, flavor: str, n: int) -> dict:
    """Build and rank one point in this process; return its measurements."""
    d = closure(genus, n)
    t0 = time.perf_counter()
    cx = build_complex(d, flavor)
    t1 = time.perf_counter()
    built_mb = status_mb("VmRSS")
    table = homology_table(cx)
    t2 = time.perf_counter()
    tsv = poincare_report(table, "tsv").encode()
    # VmHWM, not ru_maxrss: Linux carries the launching process's peak into
    # ru_maxrss across exec
    return {"generators": cx.total_dim(), "build_s": t1 - t0, "rank_s": t2 - t1,
            "peak_mb": status_mb("VmHWM"), "built_mb": built_mb,
            "tsv_sha256": hashlib.sha256(tsv).hexdigest()[:12]}


def measure(genus: int, flavor: str, n: int, cap_mb: int | None) -> dict:
    """Run one point in a fresh interpreter, under an optional address-space cap."""
    argv = [sys.executable, __file__, "--point", str(genus), flavor, str(n)]
    if cap_mb:
        argv += ["--cap-mb", str(cap_mb)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode == 0:
        return json.loads(proc.stdout)
    if "MemoryError" in proc.stderr:
        return {"error": "MemoryError"}
    return {"error": f"exit {proc.returncode}"}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--min", type=int, default=8, help="least crossing count")
    ap.add_argument("--max", type=int, default=16, help="greatest crossing count")
    ap.add_argument("--cap-mb", type=int, default=None,
                    help="address-space limit of each child, in MiB")
    ap.add_argument("--point", nargs=3, metavar=("GENUS", "FLAVOR", "N"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.min < 1 or args.max < args.min:
        ap.error("need 1 <= --min <= --max")

    if args.point:
        if args.cap_mb:
            cap = args.cap_mb << 20
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
        genus, flavor, n = args.point
        print(json.dumps(run_point(int(genus), flavor, int(n))))
        return 0

    print("genus\tflavor\tn\tgenerators\tbuild_s\trank_s\tpeak_mb\ttsv_sha256\tbuilt_mb")
    fits = {}
    for genus, flavor in POINTS:
        fits[genus, flavor] = None
        for n in range(args.min, args.max + 1):
            r = measure(genus, flavor, n, args.cap_mb)
            if "error" in r:
                print(f"{genus}\t{flavor}\t{n}\t{r['error']}", flush=True)
                break
            print(f"{genus}\t{flavor}\t{n}\t{r['generators']}\t{r['build_s']:.2f}"
                  f"\t{r['rank_s']:.2f}\t{r['peak_mb']:.0f}\t{r['tsv_sha256']}"
                  f"\t{r['built_mb']:.0f}",
                  flush=True)
            if r["peak_mb"] >= LIMIT_MB:
                break
            fits[genus, flavor] = n
    for (genus, flavor), n in fits.items():
        print(f"largest n under {LIMIT_MB} MiB: genus {genus} {flavor}: "
              f"{n if n is not None else 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
