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
are separate GF(2) matrices.  A narrow one is a `GF2Matrix` of dense rows;
a wide one (more than WIDE_BITS dense bits) is a `BoundaryMap` that keeps
the recipe of its rows and makes them when they are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Iterator

from .cube import Resolution, circle_classes, edge_circles, resolve
from .diagram import Diagram, crossing_signs
from .gf2 import GF2Matrix, product_rows, rank_of
from .words import ConjClass, GradingElem

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


def _ops_or_zero(ops: tuple[Op, ...] | None, shape: tuple[int, int]) -> GF2Matrix:
    p_in, p_out = shape
    if ops is None:
        return GF2Matrix(1 << p_in, 1 << p_out, [0] * (1 << p_in))
    mat = compose_ops(ops, p_in)
    if mat.ncols != 1 << p_out:
        raise ValueError("composition does not land in the expected power")
    return mat


def _first_difference(a: GF2Matrix, b: GF2Matrix) -> int | None:
    for r in range(a.nrows):
        if a.rows[r] != b.rows[r]:
            return r
    return None


def verify_table1() -> Table1Report:
    """Check every face identity cell as an equality of dense GF(2) matrices."""
    cells = []
    for row, col, lhs, rhs in TABLE1:
        shape = _TABLE1_SHAPES[col]
        lm = _ops_or_zero(lhs, shape)
        rm = _ops_or_zero(rhs, shape)
        witness = _first_difference(lm, rm)
        cells.append((row, col, witness is None, witness))
    classical = []
    for col, lhs, rhs in TABLE1_CLASSICAL:
        shape = _TABLE1_SHAPES[col]
        witness = _first_difference(_ops_or_zero(lhs, shape), _ops_or_zero(rhs, shape))
        classical.append((col, witness is None))
    # the last row asserts that every map of its configuration vanishes,
    # which is the zero-equals-zero statement in all three shapes at once
    final_ok = all(_ops_or_zero(None, _TABLE1_SHAPES[c]).is_zero() for c in "ABC")
    return Table1Report(tuple(cells), tuple(classical), final_ok)


# ---------------------------------------------------------------------------
# Complex assembly.


WIDE_BITS = 1 << 16  # a map with more dense bits than this is kept as a recipe


def _rows(recipe: list) -> Iterator[int]:
    """Boundary rows from a recipe, a flat list with three items per source
    state: its generators' masks, its shape's mask -> slice id list and its
    out-edges (template, target's column bases).  Each row is the OR of the
    state's out-edges' template entries at the mask, shifted by the target's
    column base in the mask's slice."""
    it = iter(recipe)
    for masks, sids, out_edges in zip(it, it, it):
        for mask in masks:
            acc = 0
            sid = sids[mask]
            for template, bases in out_edges:
                x = template[mask]
                if x:
                    acc |= x << bases[sid]
            yield acc


class BoundaryMap:
    """A wide boundary map of one slice, kept as the recipe of its rows.

    The recipe lists the map's source states in column order, as `_rows`
    reads them.  `rows` makes the same ints a `GF2Matrix` would hold, on
    every read; `rank` streams them through `gf2.rank_of`.
    """
    __slots__ = ("nrows", "ncols", "_recipe")

    def __init__(self, nrows: int, ncols: int, recipe: list):
        self.nrows, self.ncols, self._recipe = nrows, ncols, recipe

    @property
    def rows(self) -> list[int]:
        return list(_rows(self._recipe))

    def rank(self) -> int:
        return rank_of(_rows(self._recipe))

    def __repr__(self) -> str:
        return f"BoundaryMap({self.nrows}x{self.ncols})"


@dataclass
class SliceComplex:
    """One (quantum, class-weighted) grading slice: dims and boundary maps by degree."""
    dims: dict[int, int]
    # degree i -> map from slot i to slot i+1: dense rows, or a wide map's recipe
    mats: dict[int, GF2Matrix | BoundaryMap]


@dataclass
class ChainComplex:
    genus: int
    flavor: str
    slices: dict[tuple[int, GradingElem], SliceComplex]

    def total_dim(self) -> int:
        return sum(sum(sc.dims.values()) for sc in self.slices.values())


def _grading_key(nontrivial: tuple[tuple[int, int], ...],
                 mask: int) -> tuple[tuple[int, int], ...]:
    # nontrivial: (class id, bit mask of the circles in that class), precomputed
    out = []
    for cid, bits in nontrivial:
        coeff = 2 * (mask & bits).bit_count() - bits.bit_count()
        if coeff:
            out.append((cid, coeff))
    return tuple(out)


def _slice_key(key: tuple[int, tuple[tuple[int, int], ...]], dj: int,
               class_pool: list[ConjClass]) -> tuple[int, GradingElem]:
    """Output slice key (shifted j, grading) of a (j, class id key) pair."""
    j, hkey = key
    return j + dj, GradingElem(tuple((class_pool[cid], coeff) for cid, coeff in hkey))


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

    resolutions: list[Resolution] = [resolve(d, s) for s in range(1 << n)]

    # per-circle conjugacy classes (all trivial in the classical flavor); the
    # nontrivial ones get ids in class order, so slice keys come out sorted
    trivial = d.surface.canonical_class(())
    state_classes: list[tuple[ConjClass, ...]] = [
        circle_classes(d, res) if homotopical else (trivial,) * res.n_circles
        for res in resolutions]
    class_pool = sorted({cls for classes in state_classes for cls in classes
                         if not cls.is_trivial})
    class_ids = {cls: cid for cid, cls in enumerate(class_pool)}
    state_groups: list[tuple[tuple[int, int], ...]] = []
    for classes in state_classes:
        groups: dict[int, int] = {}
        for t, cls in enumerate(classes):
            if not cls.is_trivial:
                cid = class_ids[cls]
                groups[cid] = groups.get(cid, 0) | (1 << t)
        state_groups.append(tuple(sorted(groups.items())))

    # enumerate generators by state shape (γ, β, class groups), which fixes
    # every mask's slice key.  The first state of a shape gives each mask its
    # slice id (new ids in mask order) and its rank among the shape's masks
    # in that slice; each state then takes a column base per slice from dims,
    # so the generator (s, mask) sits at column state_bases[s][sid] + rank.
    slice_ids: dict[tuple[int, tuple[tuple[int, int], ...]], int] = {}
    slice_keys: list[tuple[int, tuple[tuple[int, int], ...]]] = []
    dims: list[dict[int, int]] = []
    shapes: dict[tuple, tuple[int, list[int], list[int], dict[int, int]]] = {}
    state_shapes = []
    state_bases: list[dict[int, int]] = []
    for s, res in enumerate(resolutions):
        gamma, beta, groups = res.n_circles, s.bit_count(), state_groups[s]
        shape = shapes.get((gamma, beta, groups))
        if shape is None:
            sids, ranks, counts = [], [], {}
            for mask in range(1 << gamma):
                key = (2 * mask.bit_count() - gamma + beta, _grading_key(groups, mask))
                sid = slice_ids.get(key)
                if sid is None:
                    sid = len(slice_keys)
                    slice_ids[key] = sid
                    slice_keys.append(key)
                    dims.append({})
                sids.append(sid)
                ranks.append(counts.get(sid, 0))
                counts[sid] = ranks[-1] + 1
            shape = shapes[gamma, beta, groups] = (len(shapes), sids, ranks, counts)
        bases = {}
        for sid, cnt in shape[3].items():
            bases[sid] = dims[sid].get(beta, 0)
            dims[sid][beta] = bases[sid] + cnt
        state_shapes.append(shape)
        state_bases.append(bases)

    # A map from degree beta to beta + 1 of a slice with more than WIDE_BITS
    # dense bits is wide: the build keeps its recipe and writes no rows.  A
    # state shape with a wide map is split into the masks of its narrow maps
    # and, per wide slice, that slice's masks.
    recipes: list[dict[int, list]] = [{} for _ in range(n + 1)]
    for sid, sdims in enumerate(dims):
        for beta, cnt in sdims.items():
            if cnt * sdims.get(beta + 1, 0) > WIDE_BITS:
                recipes[beta][sid] = []
    splits: dict[int, tuple[list[int], dict[int, list[int]]]] = {}
    for (_, beta, _), (shape_id, sids, _, counts) in shapes.items():
        wide = {sid: [] for sid in counts if sid in recipes[beta]}
        if wide:
            narrow = []
            for mask, sid in enumerate(sids):
                (wide[sid] if sid in wide else narrow).append(mask)
            splits[shape_id] = (narrow, wide)

    # boundary rows by source degree, then slice id.  An out-edge's template
    # is keyed by all that its label images, scatter table and slice check
    # read: both state shapes (which fix the table), the circle indices and
    # the target bits of the untouched circles.  Per source mask it holds the
    # OR of 1 << rank of the mask's images in the target state; the check
    # keeps them all in the mask's slice, so the edge shifts it by the
    # target's base there.  A zero map's template is empty.
    di = -n_minus if shift else 0
    dj = n_plus - 2 * n_minus if shift else 0
    mats: list[dict[int, list[int]]] = [{} for _ in range(n + 1)]
    label_images = cache(_label_images)
    templates: dict[tuple, list[int]] = {}
    for s, src in enumerate(resolutions):
        shape_s, anchors = state_shapes[s], src.anchors
        out_edges = []
        for c in range(n):
            if (s >> c) & 1:
                continue
            t = s | (1 << c)
            tgt = resolutions[t]
            kind, indices = edge_circles(d, src, tgt, c)
            owner = tgt.owner
            tbits = [1 << owner[a] for a in anchors]
            tbits[indices[0]] = 0
            if kind == "merge":
                tbits[indices[1]] = 0
            shape_t = state_shapes[t]
            key = (shape_s[0], shape_t[0], kind, indices, tuple(tbits))
            template = templates.get(key)
            if template is None:
                template = templates[key] = []
                table = edge_table(kind, indices, state_classes[s], state_classes[t])
                if table is not None:
                    consumed, images = label_images(kind, indices, table)
                    # scat: source label mask -> target bits of the untouched
                    # circles, each at the target position owning its anchor
                    scat = [0]
                    for b in tbits:
                        scat += [x | b for x in scat]
                    _, sids_t, ranks_t, _ = shape_t
                    for mask, sid in enumerate(shape_s[1]):
                        acc = 0
                        for out in images[mask & consumed]:
                            tmask = scat[mask] | out
                            if sids_t[tmask] != sid:
                                (ja, ha), (jb, hb) = (_slice_key(slice_keys[x], dj, class_pool)
                                                      for x in (sid, sids_t[tmask]))
                                raise RuntimeError(f"differential left its grading slice at"
                                                   f" state {s}, crossing {c}: slice (j={ja},"
                                                   f" h={ha}) -> (j={jb}, h={hb})")
                            acc |= 1 << ranks_t[tmask]
                        template.append(acc)
            if template:
                out_edges.append((template, state_bases[t]))
        # a narrow map gets this state's rows now, each written once, ORed
        # across the out-edges; a wide one gets its recipe entry
        beta = s.bit_count()
        _, sids, ranks, _ = shape_s
        narrow = range(len(sids))
        if shape_s[0] in splits:
            narrow, wide = splits[shape_s[0]]
            for sid, masks in wide.items():
                recipes[beta][sid] += masks, sids, out_edges
        if not out_edges:
            continue
        rows, bases_s = mats[beta], state_bases[s]
        for mask, acc in zip(narrow, _rows([narrow, sids, out_edges])):
            if acc:
                sid = sids[mask]
                row = rows.get(sid)
                if row is None:
                    row = rows[sid] = [0] * dims[sid][beta]
                row[bases_s[sid] + ranks[mask]] = acc

    # package, applying the orientation shifts to the output gradings
    slices: dict[tuple[int, GradingElem], SliceComplex] = {}
    for sid, key in enumerate(slice_keys):
        sdims = {beta + di: cnt for beta, cnt in dims[sid].items()}
        smats: dict[int, GF2Matrix | BoundaryMap] = {}
        for beta, cnt in dims[sid].items():
            ncols = dims[sid].get(beta + 1, 0)
            rows = mats[beta].get(sid)
            if rows is not None:
                smats[beta + di] = GF2Matrix(cnt, ncols, rows)
            elif sid in recipes[beta] and any(_rows(recipes[beta][sid])):
                smats[beta + di] = BoundaryMap(cnt, ncols, recipes[beta][sid])
        slices[_slice_key(key, dj, class_pool)] = SliceComplex(sdims, smats)
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
