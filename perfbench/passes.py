"""One pass over a workload, run in a fresh interpreter by run.py.

    python3 perfbench/passes.py MODE WORKLOAD SEED SPAWNED

MODE is one of
  setup   set-up only: start, imports and inputs, then exit;
  timed   the end-to-end pass: JSON text to rendered tables, both flavors;
  traced  spans around each public call of every layer, plus layer counts;
  alloc.FLAVOR  peak memory of build_complex and of the ranks, nothing timed.
SPAWNED is the parent's CLOCK_MONOTONIC reading just before it started this
process, so set-up time covers interpreter start, imports and inputs.  The
pass prints one JSON object as its last line of standard output.  Nothing is
warmed up: like a `hkhovanov compute` call, every pass starts with cold
`Surface` memos and a cold `_dehn_tables` cache.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import resource
import sys
import time
import tracemalloc
from contextlib import contextmanager
from time import perf_counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from hkhovanov.chain import (  # noqa: E402
    build_complex,
    differential_squares_to_zero,
    merge_case,
    split_case,
)
from hkhovanov.cube import circle_classes, classify_edge, resolve  # noqa: E402
from hkhovanov.diagram import diagram_from_json, validate, validate_json  # noqa: E402
from hkhovanov.homology import homology_table, poincare_report  # noqa: E402
from hkhovanov.words import free_reduce  # noqa: E402

from workloads import make_tasks  # noqa: E402

FLAVORS = ("homotopical", "classical")
# dispatch labels per flavor; the classical flavor has only the plain m and Delta
TABLES = {"homotopical": ("m", "m0", "m1", "m2", "delta", "delta0", "delta1", "delta2",
                          "zero"),
          "classical": ("m", "delta")}
# workloads whose d^2 check belongs to the timed phase (verify-d2 traffic);
# elsewhere it runs untimed, between the timed steps
D2_TIMED = ("fuzz_mixed",)
MIB = 1 << 20
SPAN_DIR = ROOT / ".perfbench-out"


def load(text: str):
    """JSON text to a checked Diagram, the way `hkhovanov compute` loads a file."""
    obj = json.loads(text)
    problems = validate_json(obj)
    if problems:
        raise ValueError("; ".join(problems))
    d = diagram_from_json(obj)
    problems = validate(d)
    if problems:
        raise ValueError("; ".join(problems))
    return d


def digest(tsv: str) -> str:
    return hashlib.sha256(tsv.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# timed pass


def run_task(text: str, d2_timed: bool) -> tuple[float, dict[str, str], bool]:
    """Timed seconds, table digest per flavor, and whether d^2 = 0 held."""
    t = perf_counter()
    d = load(text)
    spent = perf_counter() - t
    digests: dict[str, str] = {}
    d2_ok = True
    for flavor in FLAVORS:
        t = perf_counter()
        cx = build_complex(d, flavor)
        if d2_timed:
            d2_ok &= differential_squares_to_zero(cx)
        tsv = poincare_report(homology_table(cx), "tsv")
        spent += perf_counter() - t
        if not d2_timed:
            d2_ok &= differential_squares_to_zero(cx)
        digests[flavor] = digest(tsv)
        del cx  # one complex alive at a time, as in one CLI call
    return spent, digests, d2_ok


def timed_pass(tasks: list[tuple[str, str]], d2_timed: bool) -> dict:
    results = []
    for name, text in tasks:
        try:
            spent, digests, d2_ok = run_task(text, d2_timed)
        except Exception as exc:  # a failed task is counted, not fatal
            results.append({"task": name, "error": repr(exc)})
            continue
        results.append({"task": name, "seconds": spent, "digests": digests, "d2": d2_ok})
    return {"wall_s": sum(r.get("seconds", 0.0) for r in results), "results": results}


# ---------------------------------------------------------------------------
# traced pass


class Tracer:
    """Spans (name, start, end, parent, attrs), kept in memory until the pass ends.

    A span opened with `repeat=True` times work that the untraced pass does
    not do (a layer re-run on its own, or an extra check); `repeated()` sums
    those spans so the tracing overhead can leave them out.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, repeat: bool = False, **attrs):
        rec = {"name": name, "parent": self._open[-1] if self._open else None,
               "repeat": repeat, "attrs": attrs}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = perf_counter()
        try:
            yield attrs
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def repeated(self) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["repeat"])

    def count(self, name: str, key: str) -> int:
        return sum(s["attrs"][key] for s in self.spans if s["name"] == name)

    def most(self, name: str, key: str) -> int:
        return max((s["attrs"][key] for s in self.spans if s["name"] == name), default=0)

    def write(self, path: pathlib.Path) -> None:
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(self.spans) + "\n")


def dispatch(edges, classes, flavor: str) -> list[str]:
    """Table label of every non-neutral cube edge; "zero" for the zero map."""
    out = []
    for e in edges:
        if e.kind == "neutral":
            continue
        if flavor == "classical":
            out.append("m" if e.kind == "merge" else "delta")
            continue
        i, j, k = e.indices
        src, tgt = classes[e.source], classes[e.target]
        if e.kind == "merge":
            case = merge_case(src[i], src[j], tgt[k])
        else:
            case = split_case(src[i], tgt[j], tgt[k])
        out.append(case or "zero")
    return out


def traced_task(tr: Tracer, text: str, d2_timed: bool) -> tuple[dict[str, str], bool]:
    """Spans around the timed phase's calls, plus the layers below it re-run
    on their own (spans with repeat=True)."""
    with tr.span("diagram.load", docs=1):
        d = load(text)
    # the layers below run on a copy of their own, so the words layer starts
    # with a cold memo and build_complex still gets a cold one of its own
    with tr.span("diagram.reload", repeat=True):
        fresh = load(text)
    n = fresh.n_crossings
    with tr.span("cube.resolve", repeat=True) as a:
        res = [resolve(fresh, s) for s in range(1 << n)]
    a.update(states=len(res), circles=sum(r.n_circles for r in res),
             max_circles=max(r.n_circles for r in res))
    with tr.span("cube.classify", repeat=True) as a:
        edges = [classify_edge(fresh, res[s], res[s | (1 << c)])
                 for s in range(1 << n) for c in range(n) if not (s >> c) & 1]
    kinds = [e.kind for e in edges]
    a.update(edges=len(edges), edges_merge=kinds.count("merge"),
             edges_split=kinds.count("split"), edges_neutral=kinds.count("neutral"))
    with tr.span("words.classes", repeat=True) as a:
        classes = [circle_classes(fresh, r) for r in res]
    words = [free_reduce(c.word) for r in res for c in r.circles]
    a.update(circle_words=len(words), distinct_words=len(set(words)),
             distinct_classes=len({c for cls in classes for c in cls}))

    digests: dict[str, str] = {}
    d2_ok = True
    for flavor in FLAVORS:
        with tr.span(f"chain.dispatch.{flavor}", repeat=True) as a:
            labels = dispatch(edges, classes, flavor)
        a.update({f"table.{t}": labels.count(t) for t in TABLES[flavor]})
        with tr.span(f"chain.build.{flavor}") as a:
            cx = build_complex(d, flavor)
        mats = [m for sc in cx.slices.values() for m in sc.mats.values()]
        a.update(generators=cx.total_dim(), slices=len(cx.slices),
                 max_slice_gens=max((sum(sc.dims.values()) for sc in cx.slices.values()),
                                    default=0),
                 maps=len(mats), nnz=sum(r.bit_count() for m in mats for r in m.rows))
        with tr.span(f"chain.d2.{flavor}", repeat=not d2_timed):
            d2_ok &= differential_squares_to_zero(cx)
        with tr.span(f"gf2.rank.{flavor}", repeat=True) as a:
            ranks = [m.rank() for m in mats]
        a.update(rows=sum(m.nrows for m in mats),
                 max_rows=max((m.nrows for m in mats), default=0),
                 rank_sum=sum(ranks),
                 row_bytes=sum(sys.getsizeof(r) for m in mats for r in m.rows))
        with tr.span("homology.table") as a:
            table = homology_table(cx)
        a["entries"] = len(table.entries)
        with tr.span("homology.render"):
            digests[flavor] = digest(poincare_report(table, "tsv"))
        del cx, mats
    return digests, d2_ok


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics of a traced pass, by the names BENCHMARK.json lists."""
    m: dict[str, float] = {
        "randgen.generate_s": tr.total("randgen.generate"),
        "diagram.load_s": tr.total("diagram.load"),
        "diagram.docs": tr.count("diagram.load", "docs"),
        "cube.resolve_s": tr.total("cube.resolve"),
        "cube.classify_s": tr.total("cube.classify"),
        "cube.max_circles": tr.most("cube.resolve", "max_circles"),
        "words.classes_s": tr.total("words.classes"),
        "homology.table_s": tr.total("homology.table"),
        "homology.render_s": tr.total("homology.render"),
        "homology.entries": tr.count("homology.table", "entries"),
        # the traced pass minus its repeated work: the untraced pass's work
        # plus the cost of tracing it (spans and gathering the counts)
        "trace.wall_s": tr.total("task") - tr.repeated(),
    }
    for key in ("states", "circles"):
        m[f"cube.{key}"] = tr.count("cube.resolve", key)
    for key in ("edges", "edges_merge", "edges_split", "edges_neutral"):
        m[f"cube.{key}"] = tr.count("cube.classify", key)
    for key in ("circle_words", "distinct_words", "distinct_classes"):
        m[f"words.{key}"] = tr.count("words.classes", key)
    m["words.memo_hit_ratio"] = 1 - m["words.distinct_words"] / max(1, m["words.circle_words"])
    for fl in FLAVORS:
        build = f"chain.build.{fl}"
        m[f"chain.dispatch_s.{fl}"] = tr.total(f"chain.dispatch.{fl}")
        m[f"chain.build_s.{fl}"] = tr.total(build)
        # what build_complex spends beyond the layers timed on their own;
        # the classical flavor computes no circle classes
        m[f"chain.build_rest_s.{fl}"] = (
            tr.total(build) - m["cube.resolve_s"] - m["cube.classify_s"]
            - (m["words.classes_s"] if fl == "homotopical" else 0.0))
        for t in TABLES[fl]:
            m[f"chain.table.{t}.{fl}"] = tr.count(f"chain.dispatch.{fl}", f"table.{t}")
        for key in ("generators", "slices", "maps", "nnz"):
            m[f"chain.{key}.{fl}"] = tr.count(build, key)
        m[f"chain.max_slice_gens.{fl}"] = tr.most(build, "max_slice_gens")
        m[f"chain.d2_s.{fl}"] = tr.total(f"chain.d2.{fl}")
        rank = f"gf2.rank.{fl}"
        m[f"gf2.rank_s.{fl}"] = tr.total(rank)
        for key in ("rows", "rank_sum", "row_bytes"):
            m[f"gf2.{key}.{fl}"] = tr.count(rank, key)
        m[f"gf2.max_rows.{fl}"] = tr.most(rank, "max_rows")
    return m


def traced_pass(tasks: list[tuple[str, str]], tr: Tracer, d2_timed: bool) -> dict:
    results = []
    for name, text in tasks:
        try:
            with tr.span("task", task=name):
                digests, d2_ok = traced_task(tr, text, d2_timed)
        except Exception as exc:  # a failed task is counted, not fatal
            results.append({"task": name, "error": repr(exc)})
            continue
        results.append({"task": name, "digests": digests, "d2": d2_ok})
    return {"layers": layer_metrics(tr), "results": results}


# ---------------------------------------------------------------------------
# allocation pass


def alloc_pass(tasks: list[tuple[str, str]], flavor: str) -> dict:
    """Peak memory of build_complex and of the ranks, for one flavor.

    tracemalloc slows build_complex twentyfold or more, which a run cannot
    afford, so the build peak is the growth of this process's RSS high-water
    mark over its resident size before the first build; that is why each
    flavor gets a process of its own.  The ranks allocate little, and their
    peak comes from tracemalloc, switched on around them alone.
    """
    resident = int(pathlib.Path("/proc/self/statm").read_text().split()[1])
    resident_mib = resident * os.sysconf("SC_PAGE_SIZE") / MIB
    rank_peak = 0.0
    for _, text in tasks:
        cx = build_complex(load(text), flavor)
        tracemalloc.start()
        try:
            for sc in cx.slices.values():
                for mat in sc.mats.values():
                    mat.rank()
            rank_peak = max(rank_peak, tracemalloc.get_traced_memory()[1] / MIB)
        finally:
            tracemalloc.stop()
        del cx
    build_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 - resident_mib
    return {"layers": {f"chain.build_alloc_peak_mb.{flavor}": build_peak,
                       f"gf2.rank_alloc_peak_mb.{flavor}": rank_peak}}


def main(argv: list[str]) -> int:
    mode, workload, seed, spawned = argv[1], argv[2], int(argv[3]), float(argv[4])
    tr = Tracer()
    with tr.span("randgen.generate"):
        tasks = make_tasks(workload, seed)
    out = {"setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - spawned}
    if mode == "timed":
        out.update(timed_pass(tasks, workload in D2_TIMED))
    elif mode == "traced":
        out.update(traced_pass(tasks, tr, workload in D2_TIMED))
        tr.write(SPAN_DIR / f"spans-{workload}-seed{seed}.json")
    elif mode in ("alloc.homotopical", "alloc.classical"):
        out.update(alloc_pass(tasks, mode.split(".")[1]))
    elif mode != "setup":
        raise ValueError(f"unknown pass mode {mode!r}")
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
