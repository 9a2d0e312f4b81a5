"""Chain spaces and differentials of the resolution cube over GF(2).

Every circle of a resolution carries a label MINUS or PLUS.  A generator of
the chain space of a state is a choice of label per circle, packed into an
int mask (bit t = label of circle t).  A one-bit state change acts on the
labels of the participating circles through a merge table (two labels in,
one out) or a split table (one label in, two out); all other circles keep
their labels and move to their matched positions.

Two flavors are built from the same cube:

* "classical": every merge uses the plain Frobenius product, every split
  the plain coproduct, circle words are ignored.
* "homotopical": the table used at each cube edge is dispatched on which of
  the participating circles are contractible, and the differential then
  preserves the class-weighted grading of the labels.

Edges whose two resolutions have the same circle count contribute nothing
in either flavor.

The differential preserves the grading slice, so each slice's boundary maps
are separate GF(2) matrices.  The build collects one recipe per map, the
source states' masks and out-edges in column order, and packaging picks the
form by width: a narrow map becomes a `GF2Matrix` of the dense rows read
from its recipe once, a wide one (more than WIDE_BITS dense bits) a
`BoundaryMap` that keeps the recipe and makes the rows when they are read.

On a surface with many classes the homotopical grading cuts the cube into
thousands of small slices, so the bookkeeping is per grading, not per slice:
the build keys each slice by the (j, `GradingElem`) it reports, makes one
`GradingElem` per distinct grading when its first slice is met and one
(class, coeff) term tuple per distinct term, and every slice that has them
shares them.  The build state (templates, per-state arrays, the shape table)
is released before packaging, and each slice's build dims and rows as soon
as the slice is packaged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from operator import itemgetter
from typing import Container, Iterable, Iterator

from .cube import edge_circles, resolve
from .diagram import Diagram, crossing_signs
from .gf2 import GF2Matrix, leads_of, product_rows
from .words import TRIVIAL_CLASS, ConjClass, GradingElem

MINUS, PLUS = 0, 1

# Merge tables: (left label, right label) -> set of output labels.
# Split tables: input label -> set of (left label, right label) pairs.
# All sums are over GF(2), so a set of basis outputs is the whole story.

MERGE_TABLES: dict[str, dict[tuple[int, int], frozenset[int]]] = {
    "m": {
        (PLUS, PLUS): frozenset({PLUS}),
        (PLUS, MINUS): frozenset({MINUS}),
        (MINUS, PLUS): frozenset({MINUS}),
        (MINUS, MINUS): frozenset(),
    },
    "m0": {
        (PLUS, PLUS): frozenset(),
        (PLUS, MINUS): frozenset({MINUS}),
        (MINUS, PLUS): frozenset({MINUS}),
        (MINUS, MINUS): frozenset(),
    },
    "m1": {
        (PLUS, PLUS): frozenset({PLUS}),
        (PLUS, MINUS): frozenset(),
        (MINUS, PLUS): frozenset({MINUS}),
        (MINUS, MINUS): frozenset(),
    },
    "m2": {
        (PLUS, PLUS): frozenset({PLUS}),
        (PLUS, MINUS): frozenset({MINUS}),
        (MINUS, PLUS): frozenset(),
        (MINUS, MINUS): frozenset(),
    },
}

SPLIT_TABLES: dict[str, dict[int, frozenset[tuple[int, int]]]] = {
    "delta": {
        PLUS: frozenset({(PLUS, MINUS), (MINUS, PLUS)}),
        MINUS: frozenset({(MINUS, MINUS)}),
    },
    "delta0": {
        PLUS: frozenset({(PLUS, MINUS), (MINUS, PLUS)}),
        MINUS: frozenset(),
    },
    "delta1": {
        PLUS: frozenset({(PLUS, MINUS)}),
        MINUS: frozenset({(MINUS, MINUS)}),
    },
    "delta2": {
        PLUS: frozenset({(MINUS, PLUS)}),
        MINUS: frozenset({(MINUS, MINUS)}),
    },
}


def merge_case(c1: ConjClass, c2: ConjClass, c: ConjClass) -> str | None:
    """Pick the merge table for circles c1, c2 fusing into c.

    Returns a MERGE_TABLES key, or None for the zero map (all three
    noncontractible).  Raises ValueError on a triple that no honest
    resolution can produce.
    """
    suffix = _case(c, c1, c2, "merge of {a} and {b} into {whole}")
    return None if suffix is None else "m" + suffix


def split_case(c: ConjClass, c1: ConjClass, c2: ConjClass) -> str | None:
    """Pick the split table for a circle c dividing into c1, c2; dual of merge_case."""
    suffix = _case(c, c1, c2, "split of {whole} into {a} and {b}")
    return None if suffix is None else "delta" + suffix


def _case(whole: ConjClass, a: ConjClass, b: ConjClass, what: str) -> str | None:
    """Table suffix for the circles a, b on one side of an edge and ``whole``
    on the other: "" all trivial, "1" only a nontrivial, "2" only b
    nontrivial, "0" two nontrivial classes that cancel, None all nontrivial.

    A one-sided case must keep its class, and cancelling classes must be
    equal; otherwise ValueError names the three classes in ``what``.
    """
    if a.is_trivial and b.is_trivial:
        ok, suffix = whole.is_trivial, ""
    elif b.is_trivial:
        ok, suffix = whole == a, "1"
    elif a.is_trivial:
        ok, suffix = whole == b, "2"
    elif whole.is_trivial:
        ok, suffix = a == b, "0"
    else:
        return None
    if not ok:
        raise ValueError("corrupted resolution: " + what.format(a=a, b=b, whole=whole))
    return suffix


def edge_table(kind: str, indices: tuple, src: tuple[ConjClass, ...],
               tgt: tuple[ConjClass, ...]) -> str | None:
    """Table label of a cube edge (kind and indices as in ``CubeEdge``) from
    the circle classes of its two states.

    None stands for the zero map, which every neutral edge carries.  With
    all classes trivial this is the classical "m" / "delta".
    """
    if kind == "neutral":
        return None
    i, j, k = indices
    if kind == "merge":
        return merge_case(src[i], src[j], tgt[k])
    return split_case(src[i], tgt[j], tgt[k])


def _label_images(kind: str, indices: tuple, table: str
                  ) -> tuple[int, dict[int, tuple[int, ...]]]:
    """(bits of the consumed source circles, those bits' labels -> target bit patterns)."""
    i, j, k = indices
    if kind == "merge":
        return (1 << i) | (1 << j), {(x << i) | (y << j): tuple(o << k for o in outs)
                                     for (x, y), outs in MERGE_TABLES[table].items()}
    return 1 << i, {x << i: tuple((o1 << j) | (o2 << k) for o1, o2 in outs)
                    for x, outs in SPLIT_TABLES[table].items()}


# ---------------------------------------------------------------------------
# Dense matrices of the label maps on small tensor powers, for identity checks.
# Basis of the p-fold tensor power: masks 0..2^p-1, bit t = label of factor t.
# A map is stored with rows indexed by source basis elements, so f.multiply(g)
# is "apply f, then g".


def merge_matrix(table: str, p: int, pos: int) -> GF2Matrix:
    """The merge table applied to factors (pos, pos+1) of a p-fold power, identity elsewhere."""
    if not 0 <= pos <= p - 2:
        raise ValueError("merge position out of range")
    return _on_factors(p, pos, 2, 1, _label_images("merge", (pos, pos + 1, pos), table))


def split_matrix(table: str, p: int, pos: int) -> GF2Matrix:
    """The split table applied to factor pos of a p-fold power, identity elsewhere."""
    if not 0 <= pos <= p - 1:
        raise ValueError("split position out of range")
    return _on_factors(p, pos, 1, 2, _label_images("split", (pos, pos, pos + 1), table))


def _on_factors(p: int, pos: int, n_in: int, n_out: int,
                label_images: tuple[int, dict[int, tuple[int, ...]]]) -> GF2Matrix:
    """The label images the build scatters, on n_in factors at pos of a p-fold
    power turning into n_out factors; the other factors keep their order."""
    consumed, images = label_images
    low = (1 << pos) - 1
    entries = [(mask, (mask & low) | (mask >> (pos + n_in) << (pos + n_out)) | out)
               for mask in range(1 << p) for out in images[mask & consumed]]
    return GF2Matrix.from_entries(1 << p, 1 << (p - n_in + n_out), entries)


Op = tuple[str, str, int]  # ("merge"|"split", table, position)


def compose_ops(ops: Iterable[Op], p_in: int) -> GF2Matrix:
    """Matrix of a composition of merge/split steps, applied left to right."""
    mat = GF2Matrix.identity(1 << p_in)
    p = p_in
    for kind, table, pos in ops:
        if kind == "merge":
            step = merge_matrix(table, p, pos)
            p -= 1
        elif kind == "split":
            step = split_matrix(table, p, pos)
            p += 1
        else:
            raise ValueError(f"unknown op kind {kind!r}")
        mat = mat.multiply(step)
    return mat


# ---------------------------------------------------------------------------
# The two-crossing face identities, one row per pattern of contractible
# circles among the three strands' circles, columns A / B / C by face shape.
# Column A is a double split V -> V^3, column B mixes one split and one merge
# on V^2, column C is a double merge V^3 -> V.  None encodes the zero map.

_TABLE1_SHAPES = {"A": (1, 3), "B": (2, 2), "C": (3, 1)}

TABLE1: list[tuple[str, str, tuple[Op, ...] | None, tuple[Op, ...] | None]] = [
    ("2.a", "A", (("split", "delta1", 0), ("split", "delta1", 0)),
     (("split", "delta1", 0), ("split", "delta", 1))),
    ("2.a", "B", (("split", "delta", 1), ("merge", "m1", 0)),
     (("merge", "m1", 0), ("split", "delta1", 0))),
    ("2.a", "C", (("merge", "m1", 0), ("merge", "m1", 0)),
     (("merge", "m", 1), ("merge", "m1", 0))),

    ("2.b", "A", (("split", "delta1", 0), ("split", "delta2", 0)),
     (("split", "delta2", 0), ("split", "delta1", 1))),
    ("2.b", "B", (("split", "delta1", 1), ("merge", "m2", 0)),
     (("merge", "m2", 0), ("split", "delta1", 0))),
    ("2.b", "C", (("merge", "m2", 0), ("merge", "m1", 0)),
     (("merge", "m1", 1), ("merge", "m2", 0))),

    ("2.c", "A", (("split", "delta2", 0), ("split", "delta", 0)),
     (("split", "delta2", 0), ("split", "delta2", 1))),
    ("2.c", "B", (("split", "delta2", 1), ("merge", "m", 0)),
     (("merge", "m2", 0), ("split", "delta2", 0))),
    ("2.c", "C", (("merge", "m", 0), ("merge", "m2", 0)),
     (("merge", "m2", 1), ("merge", "m2", 0))),

    ("3.a.i", "A", (("split", "delta0", 0), ("split", "delta2", 0)),
     (("split", "delta", 0), ("split", "delta0", 1))),
    ("3.a.i", "B", (("split", "delta0", 1), ("merge", "m2", 0)),
     (("merge", "m", 0), ("split", "delta0", 0))),
    ("3.a.i", "C", (("merge", "m2", 0), ("merge", "m0", 0)),
     (("merge", "m0", 1), ("merge", "m", 0))),

    ("3.a.ii", "A", None, None),
    ("3.a.ii", "B", None, None),
    ("3.a.ii", "C", None, None),

    ("3.b.i", "A", (("split", "delta0", 0), ("split", "delta1", 0)),
     (("split", "delta0", 0), ("split", "delta2", 1))),
    ("3.b.i", "B", (("split", "delta2", 1), ("merge", "m1", 0)),
     (("merge", "m0", 0), ("split", "delta0", 0))),
    ("3.b.i", "C", (("merge", "m1", 0), ("merge", "m0", 0)),
     (("merge", "m2", 1), ("merge", "m0", 0))),

    ("3.b.ii", "A", None, None),
    ("3.b.ii", "B", (("split", "delta2", 1), ("merge", "m1", 0)), None),
    ("3.b.ii", "C", None, None),

    ("3.c.i", "A", (("split", "delta", 0), ("split", "delta0", 0)),
     (("split", "delta0", 0), ("split", "delta1", 1))),
    ("3.c.i", "B", (("split", "delta1", 1), ("merge", "m0", 0)),
     (("merge", "m0", 0), ("split", "delta", 0))),
    ("3.c.i", "C", (("merge", "m0", 0), ("merge", "m", 0)),
     (("merge", "m1", 1), ("merge", "m0", 0))),

    ("3.c.ii", "A", None, None),
    ("3.c.ii", "B", None, None),
    ("3.c.ii", "C", None, None),

    ("4.a", "A", (("split", "delta2", 0), ("split", "delta0", 0)),
     (("split", "delta1", 0), ("split", "delta0", 1))),
    ("4.a", "B", (("split", "delta0", 1), ("merge", "m0", 0)),
     (("merge", "m1", 0), ("split", "delta2", 0))),
    ("4.a", "C", (("merge", "m0", 0), ("merge", "m2", 0)),
     (("merge", "m0", 1), ("merge", "m1", 0))),

    ("4.b", "A", (("split", "delta2", 0), ("split", "delta0", 0)), None),
    ("4.b", "B", None, None),
    ("4.b", "C", (("merge", "m0", 0), ("merge", "m2", 0)), None),

    ("4.c", "A", None, (("split", "delta1", 0), ("split", "delta0", 1))),
    ("4.c", "B", None, None),
    ("4.c", "C", None, (("merge", "m0", 1), ("merge", "m1", 0))),

    ("4.d.i", "A", None, None),
    ("4.d.i", "B", None, (("merge", "m0", 0), ("split", "delta0", 0))),
    ("4.d.i", "C", None, None),
]

TABLE1_CLASSICAL: list[tuple[str, tuple[Op, ...], tuple[Op, ...]]] = [
    ("A", (("split", "delta", 0), ("split", "delta", 0)),
     (("split", "delta", 0), ("split", "delta", 1))),
    ("B", (("split", "delta", 1), ("merge", "m", 0)),
     (("merge", "m", 0), ("split", "delta", 0))),
    ("C", (("merge", "m", 0), ("merge", "m", 0)),
     (("merge", "m", 1), ("merge", "m", 0))),
]


@dataclass(frozen=True)
class Table1Report:
    cells: tuple[tuple[str, str, bool, int | None], ...]  # (row, col, ok, witness mask)
    classical_cells: tuple[tuple[str, bool], ...]
    final_cell_ok: bool

    @property
    def all_ok(self) -> bool:
        return (all(ok for _, _, ok, _ in self.cells)
                and all(ok for _, ok in self.classical_cells)
                and self.final_cell_ok)

    def summary(self) -> str:
        good = sum(1 for _, _, ok, _ in self.cells if ok)
        lines = [f"{good}/{len(self.cells)} cells hold"]
        for row, col, ok, witness in self.cells:
            if not ok:
                lines.append(f"FAIL {row} {col}: differs on basis mask {witness}")
        cl = sum(1 for _, ok in self.classical_cells if ok)
        lines.append(f"classical row: {cl}/{len(self.classical_cells)} cells hold")
        lines.append(f"final row: {'holds' if self.final_cell_ok else 'FAILS'}")
        return "\n".join(lines)


def _table1_witness(col: str, lhs: tuple[Op, ...] | None,
                    rhs: tuple[Op, ...] | None) -> int | None:
    """The first basis mask where a cell's two sides differ, or None if they
    agree; a side given as None is the zero map."""
    p_in, p_out = _TABLE1_SHAPES[col]
    sides = []
    for ops in (lhs, rhs):
        mat = GF2Matrix(1 << p_in, 1 << p_out) if ops is None else compose_ops(ops, p_in)
        if mat.ncols != 1 << p_out:
            raise ValueError("composition does not land in the expected power")
        sides.append(mat.rows)
    return next((mask for mask, (a, b) in enumerate(zip(*sides)) if a != b), None)


def verify_table1() -> Table1Report:
    """Check every face identity cell as an equality of dense GF(2) matrices."""
    cells = []
    for row, col, lhs, rhs in TABLE1:
        witness = _table1_witness(col, lhs, rhs)
        cells.append((row, col, witness is None, witness))
    classical = []
    for col, lhs, rhs in TABLE1_CLASSICAL:
        classical.append((col, _table1_witness(col, lhs, rhs) is None))
    # the last row asserts that every map of its configuration vanishes: an
    # edge whose three circles are all nontrivial must dispatch to no table
    x, y, z = ConjClass((1,)), ConjClass((2,)), ConjClass((1, 2))
    final_ok = merge_case(x, y, z) is None and split_case(z, x, y) is None
    return Table1Report(tuple(cells), tuple(classical), final_ok)


# ---------------------------------------------------------------------------
# Complex assembly.


WIDE_BITS = 1 << 16  # a map with more dense bits than this is kept as a recipe


def _rows(recipe: list, skip: Container[int]) -> Iterator[int]:
    """Boundary rows from a recipe, a flat list with two items per source
    state: its generators' masks and its out-edges, a flat tuple with two
    items per edge (its template, the target's column bases).  A template
    holds at 2 * mask the mask's target bits and at 2 * mask + 1 the slot of
    their target slice; each row is the OR of the out-edges' bits at the
    mask, shifted by the target's column base in that slot.  Each row walks
    the out-edges in pairs.  The rows at the positions in skip are not made
    at all: the rest come out in order."""
    it = iter(recipe)
    first = 0
    for masks, out_edges in zip(it, it):
        for k, mask in enumerate(masks, first):
            if k in skip:
                continue
            acc = 0
            at = 2 * mask
            slot_at = at + 1
            e = iter(out_edges)
            for template, bases in zip(e, e):
                x = template[at]
                if x:
                    acc |= x << bases[template[slot_at]]
            yield acc
        first += len(masks)


class BoundaryMap:
    """A wide boundary map of one slice, kept as the recipe of its rows.

    The recipe lists the map's source states in column order, as `_rows`
    reads them.  `rows` makes the same ints a `GF2Matrix` would hold, on
    every read; `is_zero` stops at the first nonzero row, and `leads`
    streams all but the skipped ones through `gf2.leads_of`; `rank` is the
    size of the leads with none skipped.
    """
    __slots__ = ("nrows", "ncols", "_recipe")

    def __init__(self, nrows: int, ncols: int, recipe: list):
        self.nrows, self.ncols, self._recipe = nrows, ncols, recipe

    @property
    def rows(self) -> list[int]:
        return list(_rows(self._recipe, ()))

    def is_zero(self) -> bool:
        return not any(_rows(self._recipe, ()))

    def rank(self) -> int:
        return len(self.leads(()))

    def leads(self, skip: Container[int]) -> set[int]:
        """Pivot leads of the rows whose index is not in skip; skipped rows are never made."""
        return leads_of(_rows(self._recipe, skip))

    def __repr__(self) -> str:
        return f"BoundaryMap({self.nrows}x{self.ncols})"


@dataclass(slots=True)
class SliceComplex:
    """One (quantum, class-weighted) grading slice: dims and boundary maps by degree."""
    dims: dict[int, int]
    # degree i -> map from slot i to slot i+1: dense rows, or a wide map's recipe
    mats: dict[int, GF2Matrix | BoundaryMap]


@dataclass(slots=True)
class ChainComplex:
    genus: int
    flavor: str
    slices: dict[tuple[int, GradingElem], SliceComplex]

    def total_dim(self) -> int:
        return sum(sum(sc.dims.values()) for sc in self.slices.values())


def _grading_key(nontrivial: tuple[tuple[ConjClass, int], ...],
                 mask: int) -> tuple[tuple[ConjClass, int], ...]:
    # nontrivial: (class, bit mask of the circles in that class), sorted by
    # class, so the (class, coeff) terms come out as a GradingElem's
    out = []
    for cls, bits in nontrivial:
        coeff = 2 * (mask & bits).bit_count() - bits.bit_count()
        if coeff:
            out.append((cls, coeff))
    return tuple(out)


class _Shape:
    """The generators of the states of one shape (β, class of each circle,
    TRIVIAL_CLASS if trivial); edge templates are keyed by the shapes
    themselves.

    Per mask: its slice id and its rank among the shape's masks in that
    slice.  ``slot_of`` numbers the shape's slices in mask order (slice id ->
    slot), ``masks`` lists the masks per slot and ``classes`` holds the class
    of each circle.
    """
    __slots__ = ("classes", "sids", "ranks", "slot_of", "masks")

    def __init__(self, classes: tuple[ConjClass, ...]):
        self.classes = classes
        self.sids: list[int] = []
        self.ranks: list[int] = []
        self.slot_of: dict[int, int] = {}
        self.masks: list[list[int]] = []

    def add(self, sid: int) -> None:
        """Append the next mask, in slice sid."""
        slot = self.slot_of.setdefault(sid, len(self.masks))
        if slot == len(self.masks):
            self.masks.append([])
        self.sids.append(sid)
        self.ranks.append(len(self.masks[slot]))
        self.masks[slot].append(len(self.sids) - 1)


def build_complex(d: Diagram, flavor: str = "homotopical", shift: bool = True) -> ChainComplex:
    """Assemble the graded boundary matrices of the resolution cube of d.

    The result is sliced by (quantum grading, class-weighted grading); the
    classical flavor slices by quantum grading alone and files everything
    under the zero class-weighted grading.
    """
    if flavor not in ("homotopical", "classical"):
        raise ValueError(f"unknown flavor {flavor!r}")
    homotopical = flavor == "homotopical"
    n = d.n_crossings
    n_plus, n_minus, _ = crossing_signs(d)
    di = -n_minus if shift else 0
    dj = n_plus - 2 * n_minus if shift else 0

    # one pass per state: read its resolution once, into its owner index and
    # anchors (bytes: 256 circles would make 2^256 generators), class each
    # distinct circle word once per build (the classical flavor takes every
    # circle as trivial) and key its shape by (β, class per circle), which
    # splits the states as (γ, β, class groups) would.  A new shape gives each
    # mask its slice id, slot and rank; the generator (s, mask) sits at column
    # state_bases[s][slot] + rank.  A slice's key is its final (j, h): the
    # first slice with a grading's terms makes its GradingElem, from interned
    # term tuples, and every slice with those terms shares it
    owners: list[bytes] = []
    anchors: list[bytes] = []
    class_of = cache(d.surface.canonical_class)
    term_pool: dict[tuple[ConjClass, int], tuple[ConjClass, int]] = {}
    # grading terms -> (its GradingElem, slice id by shifted j)
    gradings: dict[tuple, tuple[GradingElem, dict[int, int]]] = {}
    slice_keys: list[tuple[int, GradingElem]] = []
    dims: list[dict[int, int]] = []
    shapes: dict[tuple[int, tuple[ConjClass, ...]], _Shape] = {}
    state_shapes: list[_Shape] = []
    state_bases: list[tuple[int, ...]] = []
    for s in range(1 << n):
        res = resolve(d, s)
        owners.append(bytes(res.owner))
        anchors.append(bytes(res.anchors))
        classes = (tuple([class_of(circle.word) for circle in res.circles]) if homotopical
                   else (TRIVIAL_CLASS,) * len(res.circles))
        beta = s.bit_count()
        shape_key = beta, classes
        shape = shapes.get(shape_key)
        if shape is None:
            shape = shapes[shape_key] = _Shape(classes)
            groups: dict[ConjClass, int] = {}
            for t, cls in enumerate(classes):
                if not cls.is_trivial:
                    groups[cls] = groups.get(cls, 0) | (1 << t)
            class_groups = tuple(sorted(groups.items()))
            gamma = len(classes)
            for mask in range(1 << gamma):
                terms = _grading_key(class_groups, mask)
                entry = gradings.get(terms)
                if entry is None:
                    h = GradingElem(tuple(term_pool.setdefault(p, p) for p in terms))
                    entry = gradings[h.terms] = h, {}
                h, sids = entry
                j = 2 * mask.bit_count() - gamma + beta + dj
                sid = sids.get(j)
                if sid is None:
                    sid = sids[j] = len(slice_keys)
                    slice_keys.append((j, h))
                    dims.append({})
                shape.add(sid)
        bases = []
        for sid, masks in zip(shape.slot_of, shape.masks):
            bases.append(dims[sid].get(beta, 0))
            dims[sid][beta] = bases[-1] + len(masks)
        state_shapes.append(shape)
        state_bases.append(tuple(bases))
    del class_of, term_pool, gradings

    # boundary map recipes by source degree, then slice id.  An out-edge's
    # template is keyed by all that its label images, scatter table and slice
    # check read: both state shapes (which fix the table), the circle indices
    # and the target slots of the untouched circles.  The key holds the target
    # slot of every source anchor, gathered in one call; the consumed circles'
    # slots follow from kind and indices (see cube.py), so this makes no more
    # templates.  The untouched circles' target bits are made only when a
    # template is.  A template holds at 2 * mask the OR of 1 << rank of the
    # source mask's images in the target state and next to it the target's slot
    # of the mask's slice; the check keeps every image in that slice, so the
    # edge shifts the bits by the target's base in that slot.  A zero map's
    # template is empty.
    recipes: list[dict[int, list]] = [{} for _ in range(n + 1)]
    label_images = cache(_label_images)
    templates: dict[tuple, list[int]] = {}
    crossing_bits = [(c, 1 << c) for c in range(n)]
    for s in range(1 << n):
        shape_s, owner_s, anchors_s = state_shapes[s], owners[s], anchors[s]
        # reads the target slot of every source circle's anchor, an int when
        # γ = 1 (with a crossing, every state has a circle)
        gather = itemgetter(*anchors_s) if n else None
        out_edges = []
        for c, bit in crossing_bits:
            if s & bit:
                continue
            t = s | bit
            owner_t, shape_t = owners[t], state_shapes[t]
            kind, indices = edge_circles(d, owner_s, owner_t, s, c)
            key = (shape_s, shape_t, kind, indices, gather(owner_t))
            template = templates.get(key)
            if template is None:
                template = templates[key] = []
                table = edge_table(kind, indices, shape_s.classes, shape_t.classes)
                if table is not None:
                    consumed, images = label_images(kind, indices, table)
                    tbits = [1 << owner_t[a] for a in anchors_s]
                    tbits[indices[0]] = 0
                    if kind == "merge":
                        tbits[indices[1]] = 0
                    # scat: source label mask -> target bits of the untouched
                    # circles, each at the target position owning its anchor
                    scat = [0]
                    for b in tbits:
                        scat += [x | b for x in scat]
                    sids_t, ranks_t, slot_of_t = shape_t.sids, shape_t.ranks, shape_t.slot_of
                    for mask, sid in enumerate(shape_s.sids):
                        acc = 0
                        for out in images[mask & consumed]:
                            tmask = scat[mask] | out
                            if sids_t[tmask] != sid:
                                (ja, ha), (jb, hb) = slice_keys[sid], slice_keys[sids_t[tmask]]
                                raise RuntimeError(f"differential left its grading slice at"
                                                   f" state {s}, crossing {c}: slice (j={ja},"
                                                   f" h={ha}) -> (j={jb}, h={hb})")
                            acc |= 1 << ranks_t[tmask]
                        template += acc, slot_of_t[sid] if acc else 0
            if template:
                out_edges += template, state_bases[t]
        # each slice of the state with generators one degree up gets the
        # state's entry in that map's recipe (a top degree has no map)
        out_edges = tuple(out_edges)
        beta = s.bit_count()
        maps = recipes[beta]
        for sid, masks in zip(shape_s.slot_of, shape_s.masks):
            if beta + 1 in dims[sid]:
                maps.setdefault(sid, []).extend((masks, out_edges))

    # package, applying the orientation shift to the homological degrees, once
    # the build state is released (the recipes hold on to their own
    # templates and bases).  A map is a BoundaryMap over WIDE_BITS dense bits
    # and dense rows otherwise, and is left out if no row is nonzero
    del owners, anchors, shapes, state_shapes, state_bases, templates, label_images
    slices: dict[tuple[int, GradingElem], SliceComplex] = {}
    for sid, key in enumerate(slice_keys):
        sdims, dims[sid] = dims[sid], None
        smats: dict[int, GF2Matrix | BoundaryMap] = {}
        for beta, cnt in sdims.items():
            recipe = recipes[beta].pop(sid, None)
            if recipe is None:
                continue
            ncols = sdims[beta + 1]
            m = (BoundaryMap(cnt, ncols, recipe) if cnt * ncols > WIDE_BITS
                 else GF2Matrix(cnt, ncols, _rows(recipe, ())))
            if not m.is_zero():
                smats[beta + di] = m
        slices[key] = SliceComplex({beta + di: cnt for beta, cnt in sdims.items()}, smats)
    return ChainComplex(d.genus, flavor, slices)


def differential_squares_to_zero(cx: ChainComplex) -> bool:
    """Whether consecutive boundary maps compose to zero in every slice.

    Each map's rows are read once per call, in degree order.
    """
    for sc in cx.slices.values():
        prev_i, prev = None, None
        for i in sorted(sc.mats):
            rows = sc.mats[i].rows
            if prev_i == i - 1 and any(product_rows(prev, rows)):
                return False
            prev_i, prev = i, rows
    return True
