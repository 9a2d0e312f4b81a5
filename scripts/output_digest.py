#!/usr/bin/env python3
"""One sha256 over the command line's output on a fixed set of diagrams.

    python3 scripts/output_digest.py

The inputs are the corpus files, copied as they are, and the 300 diagrams of
random_diagram_stream(11, 300, max_crossings=7, max_genus=3, max_word_len=4),
written as `random_NNN.json`, all in one temporary directory.  Per input it
runs `hkhovanov.cli.main` in this process, from that directory with the
file's bare name, with stdout captured: `compute` in tsv and json, in both
flavors, with and without --no-shift, then `dump-cube` and `verify-d2`.
Then it runs `verify-moves` at the default sites of every corpus file but
`perf12_genus1.json` (whose 12 crossings make that take minutes), the move
sequence `r1+:edge=3,r2:edges=1,4` on `trefoil_rh.json`, and
`verify-table1`.  It prints the number of runs and one sha256 over every
run's arguments, exit code and stdout bytes, so two checkouts whose command
line prints the same bytes print the same line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile
from typing import Iterable, Iterator

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from hkhovanov import cli
from hkhovanov.diagram import diagram_to_json
from hkhovanov.randgen import random_diagram_stream

Run = tuple[list[str], int, bytes]  # (arguments, exit code, stdout)


def invocations(name: str) -> Iterator[list[str]]:
    """The command lines run on one diagram file."""
    for fmt in ("tsv", "json"):
        for flavor in ("homotopical", "classical"):
            for shift in ([], ["--no-shift"]):
                yield ["compute", name, "--format", fmt, "--flavor", flavor, *shift]
    yield ["dump-cube", name]
    yield ["verify-d2", name]


def move_invocations(names: Iterable[str]) -> Iterator[list[str]]:
    """verify-moves at the default sites of each named file, one move
    sequence on trefoil_rh.json, and the face identity suite."""
    for name in names:
        yield ["verify-moves", name]
    yield ["verify-moves", "trefoil_rh.json", "--moves", "r1+:edge=3,r2:edges=1,4"]
    yield ["verify-table1"]


def run_cli(argv: list[str]) -> tuple[int, bytes]:
    """Exit code and stdout bytes of `cli.main(argv)` run in this process."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n")
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    out.flush()
    return code, out.buffer.getvalue()


def fold(runs: Iterable[Run]) -> tuple[int, str]:
    """Number of runs and the sha256 over them, in order."""
    h = hashlib.sha256()
    count = 0
    for argv, code, out in runs:
        h.update(f"{' '.join(argv)}\0{code}\0{len(out)}\0".encode())
        h.update(out)
        count += 1
    return count, h.hexdigest()


def digest(folder: pathlib.Path, argvs: Iterable[list[str]]) -> tuple[int, str]:
    """`fold` of every command line, each run from folder."""
    cwd = os.getcwd()
    os.chdir(folder)
    try:
        return fold((argv, *run_cli(argv)) for argv in argvs)
    finally:
        os.chdir(cwd)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        folder = pathlib.Path(tmp)
        names = []
        for path in sorted((ROOT / "corpus").glob("*.json")):
            (folder / path.name).write_bytes(path.read_bytes())
            names.append(path.name)
        move_names = [name for name in names if name != "perf12_genus1.json"]
        stream = random_diagram_stream(11, 300, max_crossings=7, max_genus=3, max_word_len=4)
        for k, d in enumerate(stream):
            names.append(f"random_{k:03d}.json")
            (folder / names[-1]).write_text(json.dumps(diagram_to_json(d), indent=1) + "\n")
        argvs = [argv for name in names for argv in invocations(name)]
        count, sha = digest(folder, argvs + list(move_invocations(move_names)))
    print(f"{count} runs sha256 {sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
