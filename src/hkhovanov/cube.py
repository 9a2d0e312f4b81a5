"""Resolutions of a diagram and the cube of states.

A state is an n-bit mask, bit c giving the smoothing of crossing c: the
0-smoothing joins slot pairs (0,1) and (2,3), the 1-smoothing joins (0,3)
and (1,2).  Circles are traced through darts (edge, direction); each circle
is read from its least edge, traversed tail-to-head, concatenating edge
words (inverted against the traversal).  Circles are listed sorted by least
visited edge, with crossing-free loops appended after them in input order.
A resolution also keeps an owner index: for each edge the position of the
circle through it, then one slot per free loop.

A cube edge flips one crossing from 0 to 1.  Only the circles through that
crossing change, so the owner index at its four slots tells the edge apart:
a merge (two circles become one), a split, or neutral (one circle re-glues
to one circle); neutral edges only occur when the diagram has no
source-sink structure.  Every other circle keeps its darts and is matched
to the target circle that owns its least edge, or its loop slot.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .diagram import Diagram, HEAD, TAIL
from .words import ConjClass, Word, free_reduce, invert_word

__all__ = ["Circle", "Resolution", "CubeEdge", "resolve", "classify_edge", "iter_edges",
           "cube_edges"]

_PAIRS0 = (1, 0, 3, 2)  # partner slot under the 0-smoothing
_PAIRS1 = (3, 2, 1, 0)  # partner slot under the 1-smoothing


@dataclass(frozen=True)
class Circle:
    """One smoothed component: its darts, traced word, and edge support.

    Free loops carry no darts; ``loop`` is their index in the diagram.
    """

    darts: tuple[tuple[int, int], ...]
    word: Word
    loop: int | None = None

    @property
    def support(self) -> frozenset[int]:
        return frozenset(e for e, _ in self.darts)


@dataclass(frozen=True)
class Resolution:
    state: int
    circles: tuple[Circle, ...]
    # circle position per edge id, then per free loop (slot n_edges + loop)
    owner: tuple[int, ...]

    @property
    def n_circles(self) -> int:
        return len(self.circles)


def resolve(d: Diagram, state: int) -> Resolution:
    """Trace the circles of one state."""
    n_edges = len(d.edge_words)
    partners = [_PAIRS1 if (state >> c) & 1 else _PAIRS0 for c in range(d.n_crossings)]
    ends = d.edge_ends
    owner: list[int | None] = [None] * n_edges
    circles: list[Circle] = []
    for e0 in range(n_edges):
        if owner[e0] is not None:
            continue
        pos = len(circles)
        darts: list[tuple[int, int]] = []
        word: list[int] = []
        e, direction = e0, 1
        while True:
            if owner[e] is not None:
                raise RuntimeError("corrupted diagram: edge traversed twice")
            owner[e] = pos
            darts.append((e, direction))
            w = d.edge_words[e]
            word.extend(w if direction > 0 else invert_word(w))
            arrive = ends[e][HEAD if direction > 0 else TAIL]
            assert arrive is not None
            c, s = arrive
            s2 = partners[c][s]
            e, end = d.crossings[c][s2]
            direction = 1 if end == TAIL else -1
            if (e, direction) == (e0, 1):
                break
        circles.append(Circle(tuple(darts), tuple(word)))
    for k, w in enumerate(d.free_loops):
        owner.append(len(circles))
        circles.append(Circle((), tuple(w), loop=k))
    return Resolution(state, tuple(circles), tuple(owner))


@dataclass(frozen=True)
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


def classify_edge(d: Diagram, src: Resolution, tgt: Resolution) -> CubeEdge:
    """Classify the cube edge between two states one crossing apart."""
    crossing = (src.state ^ tgt.state).bit_length() - 1
    at_crossing = [e for e, _ in d.crossings[crossing]]
    ins = sorted({src.owner[e] for e in at_crossing})
    outs = sorted({tgt.owner[e] for e in at_crossing})
    if len(ins) == len(outs) == 2:
        raise RuntimeError(
            f"corrupted diagram: state {src.state:b} -> {tgt.state:b} changes "
            "2 circles into 2"
        )
    if len(ins) == len(outs):
        kind, indices, changed = "neutral", (ins[0], None, outs[0]), ()
    else:
        kind = "merge" if len(ins) == 2 else "split"
        indices, changed = (*ins, *outs), ins
    # a re-glued (neutral) circle keeps its support, so it is matched too
    n_edges = len(d.edge_words)
    pairs = tuple(
        (i, tgt.owner[circ.darts[0][0] if circ.darts else n_edges + circ.loop])
        for i, circ in enumerate(src.circles) if i not in changed
    )
    return CubeEdge(src.state, crossing, kind, indices, pairs)


def iter_edges(d: Diagram, resolutions: list[Resolution]) -> Iterator[CubeEdge]:
    """Classify the cube edges one at a time, by source state then crossing.

    ``resolutions`` holds the resolution of every state, indexed by state.
    """
    for s, src in enumerate(resolutions):
        for c in range(d.n_crossings):
            if not (s >> c) & 1:
                yield classify_edge(d, src, resolutions[s | (1 << c)])


def cube_edges(d: Diagram) -> list[CubeEdge]:
    """All n * 2^(n-1) cube edges, classified."""
    return list(iter_edges(d, [resolve(d, s) for s in range(1 << d.n_crossings)]))


def circle_classes(d: Diagram, res: Resolution) -> tuple[ConjClass, ...]:
    """Canonical class of each circle, in circle order."""
    surf = d.surface
    return tuple(surf.canonical_class(free_reduce(c.word)) for c in res.circles)
