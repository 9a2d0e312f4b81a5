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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .cube import Circle, CubeEdge, Resolution, circle_classes, iter_edges, resolve
from .diagram import Diagram, crossing_signs
from .gf2 import GF2Matrix
from .words import (
    ConjClass,
    GradingElem,
    ZERO_GRADING,
    grading_add,
    grading_term,
    invert_word,
)

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
    t1, t2, t = c1.is_trivial, c2.is_trivial, c.is_trivial
    if t1 and t2:
        if not t:
            raise ValueError("corrupted resolution: trivial circles fused into a nontrivial one")
        return "m"
    if t2:  # c1 nontrivial
        if t or c != c1:
            raise ValueError("corrupted resolution: merge with a trivial side must keep the class")
        return "m1"
    if t1:  # c2 nontrivial
        if t or c != c2:
            raise ValueError("corrupted resolution: merge with a trivial side must keep the class")
        return "m2"
    # both sides nontrivial
    if t:
        if c1 != c2:
            raise ValueError("corrupted resolution: cancelling circles must share a class")
        return "m0"
    return None


def split_case(c: ConjClass, c1: ConjClass, c2: ConjClass) -> str | None:
    """Pick the split table for a circle c dividing into c1, c2; dual of merge_case."""
    t1, t2, t = c1.is_trivial, c2.is_trivial, c.is_trivial
    if t1 and t2:
        if not t:
            raise ValueError("corrupted resolution: nontrivial circle split into trivial pieces")
        return "delta"
    if t2:
        if t or c != c1:
            raise ValueError("corrupted resolution: split with a trivial side must keep the class")
        return "delta1"
    if t1:
        if t or c != c2:
            raise ValueError("corrupted resolution: split with a trivial side must keep the class")
        return "delta2"
    if t:
        if c1 != c2:
            raise ValueError("corrupted resolution: a trivial circle splits into a class and its mirror")
        return "delta0"
    return None


def edge_table(edge: CubeEdge, src: tuple[ConjClass, ...],
               tgt: tuple[ConjClass, ...]) -> str | None:
    """Table label of a cube edge from the circle classes of its two states.

    None stands for the zero map, which every neutral edge carries.  With
    all classes trivial this is the classical "m" / "delta".
    """
    if edge.kind == "neutral":
        return None
    i, j, k = edge.indices
    if edge.kind == "merge":
        return merge_case(src[i], src[j], tgt[k])
    return split_case(src[i], tgt[j], tgt[k])


def _label_images(edge: CubeEdge, table: str) -> tuple[int, dict[int, tuple[int, ...]]]:
    """(bits of the consumed source circles, those bits' labels -> target bit patterns)."""
    i, j, k = edge.indices
    if edge.kind == "merge":
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
    tab = MERGE_TABLES[table]
    entries = []
    low = (1 << pos) - 1
    for mask in range(1 << p):
        x = (mask >> pos) & 1
        y = (mask >> (pos + 1)) & 1
        rest = (mask & low) | ((mask >> (pos + 2)) << (pos + 1))
        for out in tab[(x, y)]:
            entries.append((mask, rest | (out << pos)))
    return GF2Matrix.from_entries(1 << p, 1 << (p - 1), entries)


def split_matrix(table: str, p: int, pos: int) -> GF2Matrix:
    """The split table applied to factor pos of a p-fold power, identity elsewhere."""
    if not 0 <= pos <= p - 1:
        raise ValueError("split position out of range")
    tab = SPLIT_TABLES[table]
    entries = []
    low = (1 << pos) - 1
    for mask in range(1 << p):
        x = (mask >> pos) & 1
        rest = (mask & low) | ((mask >> pos >> 1) << (pos + 2))
        for o1, o2 in tab[x]:
            entries.append((mask, rest | (o1 << pos) | (o2 << (pos + 1))))
    return GF2Matrix.from_entries(1 << p, 1 << (p + 1), entries)


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


@dataclass
class SliceComplex:
    """One (quantum, class-weighted) grading slice: dims and boundary maps by degree."""
    dims: dict[int, int]
    mats: dict[int, GF2Matrix]  # degree i -> matrix from slot i to slot i+1


@dataclass
class ChainComplex:
    genus: int
    flavor: str
    n_plus: int
    n_minus: int
    shifted: bool
    slices: dict[tuple[int, GradingElem], SliceComplex]

    def total_dim(self) -> int:
        return sum(sum(sc.dims.values()) for sc in self.slices.values())


def _transform_resolution(res: Resolution, reverse_circles: bool,
                          invert_circle_words: bool) -> Resolution:
    circles, owner = res.circles, res.owner
    if invert_circle_words:
        circles = tuple(Circle(c.darts, invert_word(c.word), c.loop) for c in circles)
    if reverse_circles:
        circles = tuple(reversed(circles))
        owner = tuple(len(circles) - 1 - i for i in owner)
    if circles is res.circles:
        return res
    return Resolution(res.state, circles, owner)


def _grading_key(nontrivial: tuple[tuple[int, int], ...],
                 mask: int) -> tuple[tuple[int, int], ...]:
    # nontrivial: (class id, bit mask of the circles in that class), precomputed
    out = []
    for cid, bits in nontrivial:
        coeff = 2 * (mask & bits).bit_count() - bits.bit_count()
        if coeff:
            out.append((cid, coeff))
    return tuple(out)


def build_complex(d: Diagram, flavor: str = "homotopical", shift: bool = True,
                  reverse_circles: bool = False,
                  invert_circle_words: bool = False) -> ChainComplex:
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

    resolutions: list[Resolution] = [
        _transform_resolution(resolve(d, s), reverse_circles, invert_circle_words)
        for s in range(1 << n)
    ]

    # per-circle conjugacy classes (all trivial in the classical flavor);
    # the nontrivial ones are interned
    trivial = d.surface.canonical_class(())
    class_pool: list[ConjClass] = []
    class_ids: dict[ConjClass, int] = {}
    state_classes: list[tuple[ConjClass, ...]] = []
    state_groups: list[tuple[tuple[int, int], ...]] = []
    for res in resolutions:
        classes = circle_classes(d, res) if homotopical else (trivial,) * res.n_circles
        state_classes.append(classes)
        groups: dict[int, int] = {}
        for t, cls in enumerate(classes):
            if cls.is_trivial:
                continue
            cid = class_ids.get(cls)
            if cid is None:
                cid = len(class_pool)
                class_ids[cls] = cid
                class_pool.append(cls)
            groups[cid] = groups.get(cid, 0) | (1 << t)
        state_groups.append(tuple(sorted(groups.items())))

    # enumerate generators: assign each (state, mask) a slice and a column
    slice_ids: dict[tuple[int, tuple[tuple[int, int], ...]], int] = {}
    slice_keys: list[tuple[int, tuple[tuple[int, int], ...]]] = []
    dims: list[dict[int, int]] = []
    gen_pos: dict[int, tuple[int, int]] = {}
    mask_bits = max((res.n_circles for res in resolutions), default=0)
    for s in range(1 << n):
        gamma = resolutions[s].n_circles
        beta = s.bit_count()
        groups = state_groups[s]
        for mask in range(1 << gamma):
            j = 2 * mask.bit_count() - gamma + beta
            key = (j, _grading_key(groups, mask))
            sid = slice_ids.get(key)
            if sid is None:
                sid = len(slice_keys)
                slice_ids[key] = sid
                slice_keys.append(key)
                dims.append({})
            col = dims[sid].get(beta, 0)
            dims[sid][beta] = col + 1
            gen_pos[(s << mask_bits) | mask] = (sid, col)

    # boundary matrices, one per (slice, degree) that has a source generator
    mats: dict[tuple[int, int], list[int]] = {}
    for edge in iter_edges(d, resolutions):
        s, t = edge.source, edge.target
        table = edge_table(edge, state_classes[s], state_classes[t])
        if table is None:
            continue
        consumed, images = _label_images(edge, table)
        gamma = resolutions[s].n_circles
        beta = s.bit_count()

        # scatter: source label mask -> target bits of the unchanged circles
        # (the consumed circles add none)
        contrib = [0] * gamma
        for sp, tp in edge.unchanged:
            contrib[sp] = 1 << tp
        scat = [0] * (1 << gamma)
        for mask in range(1, 1 << gamma):
            low = mask & -mask
            scat[mask] = scat[mask ^ low] | contrib[low.bit_length() - 1]

        for mask in range(1 << gamma):
            outs = images[mask & consumed]
            if not outs:
                continue
            sid, col = gen_pos[(s << mask_bits) | mask]
            row = mats.get((sid, beta))
            if row is None:
                row = [0] * dims[sid][beta]
                mats[(sid, beta)] = row
            base = (t << mask_bits) | scat[mask]
            for out in outs:
                tsid, tcol = gen_pos[base | out]
                if tsid != sid:
                    raise RuntimeError("differential left its grading slice")
                row[col] |= 1 << tcol

    # package, applying the orientation shifts to the output gradings
    di = -n_minus if shift else 0
    dj = n_plus - 2 * n_minus if shift else 0
    slices: dict[tuple[int, GradingElem], SliceComplex] = {}
    for sid, (j, hkey) in enumerate(slice_keys):
        h = ZERO_GRADING
        for cid, coeff in hkey:
            h = grading_add(h, grading_term(class_pool[cid], coeff))
        sdims = {beta + di: cnt for beta, cnt in dims[sid].items()}
        smats = {}
        for beta, cnt in dims[sid].items():
            rows = mats.get((sid, beta))
            if rows is not None:
                smats[beta + di] = GF2Matrix(cnt, dims[sid].get(beta + 1, 0), rows)
        slices[(j + dj, h)] = SliceComplex(sdims, smats)
    return ChainComplex(d.genus, flavor, n_plus, n_minus, shift, slices)


def differential_squares_to_zero(cx: ChainComplex) -> bool:
    """Whether consecutive boundary maps compose to zero in every slice."""
    for sc in cx.slices.values():
        for i, mat in sc.mats.items():
            nxt = sc.mats.get(i + 1)
            if nxt is not None and not mat.multiply(nxt).is_zero():
                return False
    return True


def generator_gradings(d: Diagram, state: int, labels: tuple[int, ...],
                       shift: bool = True) -> tuple[int, int, GradingElem]:
    """Gradings of a single labelled state, mostly for tests and debugging."""
    res = resolve(d, state)
    if len(labels) != res.n_circles:
        raise ValueError("one label per circle required")
    n_plus, n_minus, _ = crossing_signs(d)
    beta = state.bit_count()
    i = beta - (n_minus if shift else 0)
    j = sum(2 * x - 1 for x in labels) + beta + ((n_plus - 2 * n_minus) if shift else 0)
    h = ZERO_GRADING
    for cls, x in zip(circle_classes(d, res), labels):
        h = grading_add(h, grading_term(cls, 2 * x - 1))
    return i, j, h
