"""Resolutions of a diagram and the cube of states.

A state is an n-bit mask, bit c giving the smoothing of crossing c: the
0-smoothing joins slot pairs (0,1) and (2,3), the 1-smoothing joins (0,3)
and (1,2).  Circles are traced through darts (edge, direction), stepping
through the diagram's dart table (``Diagram.dart_steps``, built once per
diagram); each circle is read from its least edge, traversed tail-to-head,
concatenating edge words (inverted against the traversal).  Circles are
listed sorted by least visited edge, with crossing-free loops appended after
them in input order.  ``circle_counts`` makes the same walks for every state
and only counts them.  A resolution also keeps an owner index: for each edge
the position of the circle through it, then one slot per free loop; and per
circle its anchor, the owner slot of its least edge or of its loop.

A cube edge flips one crossing from 0 to 1.  Only the circles through that
crossing change, so the owner index at its slots tells the edge apart: a
merge (two circles become one), a split, or neutral (one circle re-glues to
one circle); neutral edges only occur when the diagram has no source-sink
structure.  Every other circle keeps its darts and is matched to the target
circle that owns its anchor.  That owner-slot decision is made in one place,
``edge_circles``, which reads only the two owner indices at the crossing's
slot edges (``Diagram.slot_edges``, built once per diagram):
``chain.build_complex`` (which keeps each state's owner index and anchors as
bytes and drops the resolution) and the ``dump-cube`` command call it
directly, walking each state's out-edges by crossing, and ``classify_edge``
wraps it in a ``CubeEdge`` with the matched pairs.  ``CubeEdge`` and
``classify_edge`` stay here because the benchmark's traced classify pass
imports them; the tests walk every cube edge with them.

The least-edge order fixes more than the untouched circles' relative order:
a consumed circle's anchor lands at a target slot given by the kind and
indices alone (a merge's two at k; a split's at j, the piece holding the
least edge; a neutral edge's at k).  So the target slots of all the source
anchors, which the build keys its edge templates by, tell no more edges
apart than those of the untouched circles would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .diagram import Diagram
from .words import ConjClass, Word

__all__ = ["Circle", "Resolution", "CubeEdge", "resolve", "circle_counts", "edge_circles",
           "classify_edge"]


@dataclass(frozen=True, slots=True)
class Circle:
    """One smoothed component: its darts and traced word.

    Free loops carry no darts; ``loop`` is their index in the diagram.
    """

    darts: tuple[tuple[int, int], ...]
    word: Word
    loop: int | None = None


@dataclass(frozen=True, slots=True)
class Resolution:
    state: int
    circles: tuple[Circle, ...]
    # circle position per edge id, then per free loop (slot n_edges + loop)
    owner: tuple[int, ...]
    # per circle, the owner slot of its least edge or of its loop
    anchors: tuple[int, ...]

    @property
    def n_circles(self) -> int:
        return len(self.circles)


def resolve(d: Diagram, state: int) -> Resolution:
    """Trace the circles of one state through the diagram's dart table."""
    steps = d.dart_steps
    n_edges = len(d.edge_words)
    owner: list[int | None] = [None] * n_edges
    circles: list[Circle] = []
    anchors: list[int] = []
    for e0 in range(n_edges):
        if owner[e0] is not None:
            continue
        pos = len(circles)
        darts: list[tuple[int, int]] = []
        word: list[int] = []
        dart = start = 2 * e0
        while True:
            e = dart >> 1
            if owner[e] is not None:
                raise RuntimeError(f"corrupted diagram at state {state}:"
                                   f" edge {e} traversed twice")
            owner[e] = pos
            c, nxt0, nxt1, w, pair = steps[dart]
            darts.append(pair)
            word += w
            dart = nxt1 if (state >> c) & 1 else nxt0
            if dart == start:
                break
        circles.append(Circle(tuple(darts), tuple(word)))
        anchors.append(e0)
    for k, w in enumerate(d.free_loops):
        anchors.append(len(owner))
        owner.append(len(circles))
        circles.append(Circle((), tuple(w), loop=k))
    return Resolution(state, tuple(circles), tuple(owner), tuple(anchors))


def circle_counts(d: Diagram) -> list[int]:
    """Circle count of every state, in state order: the closed walks of
    ``resolve`` through the dart table, counted without darts or words."""
    steps = [step[:3] for step in d.dart_steps]
    n_edges = len(d.edge_words)
    counts = []
    for state in range(1 << d.n_crossings):
        seen = [False] * n_edges
        count = len(d.free_loops)
        for e0 in range(n_edges):
            if seen[e0]:
                continue
            count += 1
            dart = start = 2 * e0
            while True:
                e = dart >> 1
                if seen[e]:
                    raise RuntimeError(f"corrupted diagram at state {state}:"
                                       f" edge {e} traversed twice")
                seen[e] = True
                c, nxt0, nxt1 = steps[dart]
                dart = nxt1 if (state >> c) & 1 else nxt0
                if dart == start:
                    break
        counts.append(count)
    return counts


@dataclass(frozen=True, slots=True)
class CubeEdge:
    """One differential edge of the cube: state -> state | (1 << crossing)."""

    source: int
    crossing: int
    kind: str  # "merge" | "split" | "neutral"
    # merge: (i, j, k) with circles i, j of the source joining into k of the
    # target; split: (i, j, k) with circle i splitting into j, k.  Neutral
    # carries the single re-glued circle as (i, None, k).
    indices: tuple
    # position pairs (source index, target index) of the untouched circles
    unchanged: tuple[tuple[int, int], ...] = ()

    @property
    def target(self) -> int:
        return self.source | (1 << self.crossing)


def edge_circles(d: Diagram, src_owner: Sequence[int], tgt_owner: Sequence[int],
                 state: int, crossing: int) -> tuple[str, tuple]:
    """Kind and circle indices (see ``CubeEdge``) of the cube edge from
    ``state`` that 1-smoothes ``crossing``, read from the owner indices of its
    source and target resolutions at that crossing's slots."""
    # the 0-smoothing joins slots 0 and 1, the 1-smoothing slots 0 and 3
    e0, e1, e2 = d.slot_edges[crossing]
    i, j = src_owner[e0], src_owner[e2]
    if i > j:
        i, j = j, i
    k, m = tgt_owner[e0], tgt_owner[e1]
    if k > m:
        k, m = m, k
    if i == j and k == m:
        return "neutral", (i, None, k)
    if i == j:
        return "split", (i, k, m)
    if k == m:
        return "merge", (i, j, k)
    raise RuntimeError(f"corrupted diagram at state {state}, crossing {crossing}:"
                       " 2 circles become 2")


def classify_edge(d: Diagram, src: Resolution, tgt: Resolution) -> CubeEdge:
    """Classify the cube edge from src to tgt, which 1-smoothes one more crossing."""
    crossing = (src.state ^ tgt.state).bit_length() - 1
    kind, indices = edge_circles(d, src.owner, tgt.owner, src.state, crossing)
    # the consumed source circles; a re-glued (neutral) circle keeps its
    # darts, so it is matched too
    changed = indices[:2] if kind == "merge" else indices[:1] if kind == "split" else ()
    owner = tgt.owner
    pairs = tuple([(p, owner[a]) for p, a in enumerate(src.anchors) if p not in changed])
    return CubeEdge(src.state, crossing, kind, indices, pairs)


def circle_classes(d: Diagram, res: Resolution) -> tuple[ConjClass, ...]:
    """Canonical class of each circle, in circle order."""
    return tuple(d.surface.canonical_class(c.word) for c in res.circles)
