"""Homology tables of the sliced chain complexes, comparison and reporting.

Within one (quantum, class-weighted) slice the boundary maps are plain GF(2)
matrices, so the homology dimension at degree i is
dim ker(d_i) - rank(d_{i-1}) = dims[i] - rank(d_i) - rank(d_{i-1}).
The output is a finite table (i, j, h) -> dimension with zero entries
dropped; over a field that table is the whole invariant.

Each slice's maps are ranked in increasing degree, by clearing: d_i skips
its rows at the leading columns of d_{i-1}'s pivots (none where degree i - 1
has no map).  A pivot p of d_{i-1} is a sum of rows of d_{i-1}, so p lies in
im d_{i-1} and d_i(p) = 0: the row of d_i at p's lead L is the sum of its
rows at p's lower terms.  Pivots have distinct leads, so in order of L every
skipped row is a sum of rows kept, and the kept rows still span im d_i.
This is the clearing of Chen and Kerber, "Persistent homology computation
with a twist" (EuroCG 2011), and of Bauer, Kerber and Reininghaus, "Clear and
compress: computing persistent homology in chunks" (2014).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

from .chain import ChainComplex, build_complex
from .diagram import Diagram
from .words import (
    ConjClass,
    GradingElem,
    torus_class_exponents,
    word_to_str,
)

GradingTriple = tuple[int, int, GradingElem]


def triple_order(key: GradingTriple) -> tuple:
    """Sort key of a grading triple: i, then j, then the class-weighted grading."""
    return key[0], key[1], key[2].sort_key()


@dataclass
class HomologyTable:
    genus: int
    flavor: str
    entries: dict[GradingTriple, int] = field(default_factory=dict)

    def total_dim(self) -> int:
        return sum(self.entries.values())

    def sorted_items(self) -> list[tuple[GradingTriple, int]]:
        return sorted(self.entries.items(), key=lambda kv: triple_order(kv[0]))


def homology_table(cx: ChainComplex) -> HomologyTable:
    table = HomologyTable(cx.genus, cx.flavor)
    for (j, h), sc in cx.slices.items():
        ranks: dict[int, int] = {}
        for i in sorted(sc.mats):
            leads = sc.mats[i].leads(leads if i - 1 in ranks else ())
            ranks[i] = len(leads)
        for i, dim in sc.dims.items():
            r_out, r_in = ranks.get(i, 0), ranks.get(i - 1, 0)
            hom = dim - r_out - r_in
            if hom < 0:
                raise RuntimeError(f"rank bookkeeping produced a negative dimension at"
                                   f" (i={i}, j={j}, h={h}):"
                                   f" dim {dim}, rank d_i {r_out}, rank d_(i-1) {r_in}")
            if hom:
                table.entries[(i, j, h)] = hom
    return table


def kh_h(d: Diagram, shift: bool = True) -> HomologyTable:
    return homology_table(build_complex(d, "homotopical", shift=shift))


def kh_classical(d: Diagram, shift: bool = True) -> HomologyTable:
    return homology_table(build_complex(d, "classical", shift=shift))


def euler_consistent(cx: ChainComplex, table: HomologyTable) -> bool:
    """Alternating sums of chain and homology dimensions agree per slice."""
    hom_sums: dict[tuple[int, GradingElem], int] = {}
    for (i, j, h), dim in table.entries.items():
        hom_sums[j, h] = hom_sums.get((j, h), 0) + (-1) ** (i & 1) * dim
    return all(sum((-1) ** (i & 1) * dim for i, dim in sc.dims.items())
               == hom_sums.get(key, 0) for key, sc in cx.slices.items())


def compare(a: HomologyTable, b: HomologyTable,
            remap: Callable[[GradingTriple], GradingTriple] | None = None,
            ) -> tuple[bool, str | None]:
    """Entrywise equality, optionally after remapping a's grading triples."""
    left = a.entries
    if remap is not None:
        left = {}
        for key, dim in a.entries.items():
            new = remap(key)
            left[new] = left.get(new, 0) + dim
    if left == b.entries:
        return True, None
    for key in sorted(set(left) | set(b.entries), key=triple_order):
        x, y = left.get(key, 0), b.entries.get(key, 0)
        if x != y:
            i, j, h = key
            return False, f"({i},{j},{h}): {x} vs {y}"
    return True, None


# ---------------------------------------------------------------------------
# rendering


class _ClassNames(dict):
    """ConjClass -> its text form on one surface, spelled on first use."""

    def __init__(self, genus: int):
        super().__init__()
        self.genus = genus

    def __missing__(self, cls: ConjClass) -> str:
        text = self[cls] = word_to_str(cls.letters, self.genus)
        return text


def render_h(h: GradingElem, genus: int) -> str:
    return h.render(_ClassNames(genus).__getitem__)


def _legend(names: _ClassNames) -> list[tuple[str, tuple[int, int]]]:
    """Torus classes named in a rendered table, with their exponent pairs."""
    return sorted((f"[{text}]", torus_class_exponents(c)) for c, text in names.items())


def poincare_report(table: HomologyTable, fmt: str = "text",
                    meta: dict | None = None) -> str:
    """Deterministic rendering of a homology table.

    text: one "(i,j,h) : dim" line per entry; torus tables get a legend of
    (p,q) exponent pairs.  tsv: header plus tab-separated columns.  json: a
    single object with the table as a list, meta keys merged at top level.
    """
    if fmt not in ("text", "tsv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    names = _ClassNames(table.genus)  # each class is spelled once per report
    # a generator, so no second list of the entries is held; the legend is
    # read once the rows are used up, when every class has been named
    rows = ((i, j, h.render(names.__getitem__), dim)
            for (i, j, h), dim in table.sorted_items())
    if fmt == "json":
        doc = {**(meta or {}), "flavor": table.flavor, "genus": table.genus,
               "table": [{"i": i, "j": j, "h": h, "dim": dim} for i, j, h, dim in rows]}
        if table.genus == 1:
            doc["legend"] = {name: list(pq) for name, pq in _legend(names)}
        return json.dumps(doc, sort_keys=True, indent=1) + "\n"
    # an empty last line makes the final newline, so the text is joined once
    if fmt == "tsv":
        lines = ["i\tj\th\tdim"]
        lines += [f"{i}\t{j}\t{h}\t{dim}" for i, j, h, dim in rows]
    else:
        lines = [f"# flavor={table.flavor} genus={table.genus}"]
        if meta:
            lines += [f"# {k}={v}" for k, v in sorted(meta.items())]
        lines += [f"({i},{j},{h}) : {dim}" for i, j, h, dim in rows]
        lines.append(f"# total dimension {table.total_dim()}")
        if table.genus == 1:
            lines += [f"# {name} = {pq}" for name, pq in _legend(names)]
    lines.append("")
    return "\n".join(lines)
