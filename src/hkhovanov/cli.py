"""Command-line front end.

Subcommands: compute (homology table of one diagram file), verify-d2
(differential squares to zero, on files and/or seeded random diagrams),
verify-moves (tables agree across local moves), verify-table1 (the face
identity suite), dump-cube (resolutions and edge classifications).

Identical invocations produce byte-identical output; all randomness is
seeded (default 0).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import pathlib
import sys

from .chain import build_complex, differential_squares_to_zero, edge_table, verify_table1
from .cube import circle_classes, edge_circles, resolve
from .diagram import Diagram, parse_diagram
from .homology import compare, homology_table, poincare_report
from .moves import MoveSpec, apply_move, param_lengths, r1_add_sites, r1_remove_sites, \
    r2_add_sites, r2_remove_sites
from .randgen import random_diagram_stream
from .words import word_to_str


def _load(path: str) -> tuple[Diagram, str]:
    data = pathlib.Path(path).read_bytes()
    return parse_diagram(data, path), hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# move list syntax: "r1+:edge=3,r2:edges=1,4"; a segment without a colon
# continues the previous parameter's value list.


def parse_moves(text: str) -> list[MoveSpec]:
    moves = []
    kind = None
    params: dict[str, list[int]] = {}
    last_key = None
    for seg in text.split(","):
        seg = seg.strip()
        if not seg:
            continue
        if ":" in seg:
            if kind is not None:
                moves.append(_make_spec(kind, params))
            kind, seg = seg.split(":", 1)
            params, last_key = {}, None
        if kind is None:
            raise ValueError(f"--moves: value {seg!r} before any move kind")
        if "=" in seg:
            key, seg = seg.split("=", 1)
            if key in params:
                raise ValueError(f"--moves: {kind}: parameter {key!r} given twice")
            params[key] = []
            last_key = key
        elif not seg:
            continue
        elif last_key is None:
            raise ValueError(f"--moves: dangling value {seg!r}")
        try:
            params[last_key].append(int(seg))
        except ValueError:
            raise ValueError(f"--moves: {kind}: parameter {last_key!r} takes integers,"
                             f" not {seg!r}") from None
    if kind is not None:
        moves.append(_make_spec(kind, params))
    if not moves:
        raise ValueError("--moves: empty move list")
    return moves


def _make_spec(kind: str, params: dict[str, list[int]]) -> MoveSpec:
    # a one-int parameter's single value goes bare, all else as a tuple for MoveSpec to check
    try:
        lengths = param_lengths(kind)
        return MoveSpec(kind, {key: vals[0] if len(vals) == 1 and lengths.get(key) is None
                               else tuple(vals) for key, vals in params.items()})
    except ValueError as exc:
        raise ValueError(f"--moves: {exc}") from exc


def spec_to_str(spec: MoveSpec) -> str:
    parts = [f"{k}={','.join(map(str, v)) if isinstance(v, tuple) else v}"
             for k, v in sorted(spec.params.items())]
    return spec.kind + ":" + ",".join(parts) if parts else spec.kind


# ---------------------------------------------------------------------------
# subcommands


def cmd_compute(args) -> int:
    d, digest = _load(args.input)
    table = homology_table(build_complex(d, args.flavor, shift=not args.no_shift))
    sys.stdout.write(poincare_report(table, args.format,
                                     meta={"diagram": digest}))
    return 0


def cmd_verify_d2(args) -> int:
    jobs: list[tuple[str, Diagram]] = []
    for path in args.inputs:
        d, _ = _load(path)
        jobs.append((path, d))
    if args.random:
        for i, d in enumerate(random_diagram_stream(args.seed, args.random)):
            jobs.append((f"random[{i}]", d))
    if not jobs:
        raise ValueError("verify-d2 needs input files and/or --random N")
    ok = True
    for name, d in jobs:
        for flavor in ("homotopical", "classical"):
            cx = build_complex(d, flavor=flavor)
            good = differential_squares_to_zero(cx)
            ok = ok and good
            status = "zero" if good else "NOT ZERO"
            print(f"{name}: {flavor} d^2 {status} across {len(cx.slices)} slices")
    print("all slices zero" if ok else "FAILED: some differential does not square to zero")
    return 0 if ok else 1


def cmd_verify_moves(args) -> int:
    d, _ = _load(args.input)
    base = homology_table(build_complex(d, args.flavor))
    if args.moves:
        specs = parse_moves(args.moves)
        sequential = True
    else:
        specs = (r1_add_sites(d) + r2_add_sites(d)
                 + r1_remove_sites(d) + r2_remove_sites(d))
        sequential = False
    if not specs:
        print("no applicable move sites")
        return 0
    ok = True
    cur = d
    for spec in specs:
        moved = apply_move(cur if sequential else d, spec)
        if sequential:
            cur = moved
        same, diff = compare(base, homology_table(build_complex(moved, args.flavor)))
        ok = ok and same
        print(f"{spec_to_str(spec)}: " +
              ("tables agree" if same else f"MISMATCH at {diff}"))
    print("all moves preserve the table" if ok else "FAILED: some move changed the table")
    return 0 if ok else 1


def cmd_verify_table1(args) -> int:
    report = verify_table1()
    print(report.summary())
    return 0 if report.all_ok else 1


def cmd_dump_cube(args) -> int:
    d, digest = _load(args.input)
    n = d.n_crossings

    def bits(state: int) -> str:
        return "".join(str((state >> c) & 1) for c in range(n)) or "-"

    def name(word) -> str:
        return word_to_str(word, d.genus) or "1"

    print(f"# diagram {digest}")
    print(f"# genus {d.genus}, {n} crossings, {len(d.free_loops)} free loops,"
          f" {1 << n} states (crossing 0 is the leftmost bit)")
    resolutions = [resolve(d, s) for s in range(1 << n)]
    classes = [circle_classes(d, res) for res in resolutions]
    for res, cls in zip(resolutions, classes):
        descr = " ".join(f"[{name(c.word)}~{name(k.letters)}]"
                         for c, k in zip(res.circles, cls))
        print(f"state {bits(res.state)}: {len(res.circles)} circles: {descr}")
    for s, src in enumerate(resolutions):
        for c in range(n):
            if (s >> c) & 1:
                continue
            t = s | (1 << c)
            kind, indices = edge_circles(d, src.owner, resolutions[t].owner, s, c)
            i, j, k = indices
            if kind == "neutral":
                what = f"neutral {i} -> {k}, differential zero"
            else:
                case = edge_table(kind, indices, classes[s], classes[t]) or "zero"
                moved = f"{i},{j} -> {k}" if kind == "merge" else f"{i} -> {j},{k}"
                what = f"{kind} {moved}, case {case}"
            print(f"edge {bits(s)} -> {bits(t)} (crossing {c}): {what}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hkhovanov",
        description="Triply graded homotopical Khovanov homology over GF(2) "
                    "for link diagrams on closed oriented surfaces.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_flavor(sp):
        sp.add_argument("--flavor", choices=["homotopical", "classical"],
                        default="homotopical")

    c = sub.add_parser("compute", help="homology table of a diagram file")
    c.add_argument("input")
    add_flavor(c)
    c.add_argument("--format", choices=["tsv", "json"], default="tsv")
    c.add_argument("--no-shift", action="store_true",
                   help="report unnormalized gradings")
    c.set_defaults(func=cmd_compute)

    d2 = sub.add_parser("verify-d2", help="check d^2 = 0 slice by slice")
    d2.add_argument("inputs", nargs="*")
    d2.add_argument("--random", type=int, default=0, metavar="N",
                    help="also check N seeded random diagrams")
    d2.add_argument("--seed", type=int, default=0)
    d2.set_defaults(func=cmd_verify_d2)

    vm = sub.add_parser("verify-moves",
                        help="compare tables across local moves")
    vm.add_argument("input")
    add_flavor(vm)
    vm.add_argument("--moves", default=None,
                    help='e.g. "r1+:edge=3,r2:edges=1,4"; default: all '
                         "applicable add/remove sites")
    vm.set_defaults(func=cmd_verify_moves)

    t1 = sub.add_parser("verify-table1", help="run the face identity suite")
    t1.set_defaults(func=cmd_verify_table1)

    dc = sub.add_parser("dump-cube",
                        help="print resolutions and edge classifications")
    dc.add_argument("input")
    dc.set_defaults(func=cmd_dump_cube)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early: drop what is still buffered
        # quietly (the SIGPIPE recipe of the Python docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
