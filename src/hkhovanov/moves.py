"""Local diagram moves: kink add/remove, poke add/remove, triangle slide.

Moves are applied at caller-specified sites and return a new Diagram with
edges renumbered contiguously.  Interior arcs of a site (the kink loop, the
two middle arcs of a poke, the three triangle arcs) must carry empty words;
sites that do not match raise ValueError.  Word bookkeeping: adding a kink
or a poke splits an arc's word at a caller-chosen point, and a free loop is
cut open at a chosen rotation.

Slot conventions follow the diagram module: slot 0/2 are the understrand
in/out, the crossing is positive when the overstrand enters at slot 3.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .diagram import Diagram, HEAD, SlotRef, TAIL, crossing_sign, validate
from .words import Word


# per move kind, the forms of the parameters it needs, which exclude each
# other (r1 names its arc by an edge or a loop; r2 its two strands by edges,
# by loops, or by an edge and a loop), and those it may take.  Each parameter
# maps to the length of its tuple value, or None for a single int.
MOVE_PARAMS: dict[str, tuple[tuple[dict[str, int | None], ...], dict[str, int | None]]] = {
    "r1+": (({"edge": None}, {"loop": None}), {"split": None}),
    "r1-": (({"edge": None}, {"loop": None}), {"split": None}),
    "r1rm": (({"crossing": None},), {}),
    "r2": (({"edges": 2}, {"loops": 2}, {"edge": None, "loop": None}),
           {"splits": 2, "over": None}),
    "r2rm": (({"crossings": 2},), {}),
    "r3": (({"edges": 3},), {}),
}


def param_lengths(kind: str) -> dict[str, int | None]:
    """Each parameter of a move kind -> the length of its tuple, None for an int."""
    if kind not in MOVE_PARAMS:
        raise ValueError(f"unknown move kind {kind!r}")
    forms, may = MOVE_PARAMS[kind]
    return {key: n for form in (*forms, may) for key, n in form.items()}


@dataclass(frozen=True)
class MoveSpec:
    kind: str  # a MOVE_PARAMS key
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        lengths = param_lengths(self.kind)
        for key, value in self.params.items():
            if key not in lengths:
                raise ValueError(f"{self.kind}: unknown parameter {key!r}")
            n = lengths[key]
            if n is None and not isinstance(value, int):
                raise ValueError(f"{self.kind}: parameter {key!r} takes one value")
            if n is not None and not (isinstance(value, tuple) and len(value) == n):
                raise ValueError(f"{self.kind}: parameter {key!r} takes {n} values")
        forms, _ = MOVE_PARAMS[self.kind]
        given = [form for form in forms if form.keys() & self.params.keys()]
        if len(given) > 1:
            a, b = (min(form.keys() & self.params.keys()) for form in given[:2])
            raise ValueError(f"{self.kind}: parameters {a!r} and {b!r} exclude each other")
        for key in (given or forms)[0]:
            if key not in self.params:
                raise ValueError(f"{self.kind}: missing parameter {key!r}")


Strand = tuple[str, int]  # ("edge", id) or ("loop", index)


def _strands(p: dict) -> tuple[Strand, ...]:
    """The arcs that a move's edge/loop parameters name, edges first."""
    return tuple((kind, i) for kind in ("edge", "loop")
                 for i in ((p[kind],) if kind in p else p.get(kind + "s", ())))


def _strand_params(strands: tuple[Strand, ...]) -> dict:
    """The edge/loop parameters naming strands: a same-kind pair as edges/loops."""
    kinds = {kind for kind, _ in strands}
    if len(strands) == 2 and len(kinds) == 1:
        return {kinds.pop() + "s": tuple(i for _, i in strands)}
    return dict(strands)


def apply_move(d: Diagram, spec: MoveSpec) -> Diagram:
    p = spec.params
    if spec.kind in ("r1+", "r1-"):
        chirality = 1 if spec.kind == "r1+" else -1
        return r1_add(d, *_strands(p), split=p.get("split"), chirality=chirality)
    if spec.kind == "r1rm":
        return r1_remove(d, p["crossing"])
    if spec.kind == "r2":
        return r2_add(d, _strands(p), splits=p.get("splits", (None, None)),
                      over=p.get("over", 2))
    if spec.kind == "r2rm":
        c1, c2 = p["crossings"]
        return r2_remove(d, c1, c2)
    ta, tb, tc = p["edges"]
    return r3(d, ta, tb, tc)


# ---------------------------------------------------------------------------
# cutting arcs open for new crossings


def _cut(d: Diagram, words: list[Word], crossings: list[list[SlotRef]],
         strand: Strand, split: int | None) -> tuple[int, int, int]:
    """Cut an arc open around a new empty middle arc; (front, middle, rear).

    An edge keeps its tail and its first ``split`` letters (default all); an
    appended rear arc takes the rest of the word and the head slot.  A free
    loop is rotated by ``split`` and opened into one appended arc that is both
    front and rear.  New arcs are appended to ``words``.
    """
    kind, idx = strand
    if kind == "edge":
        if not 0 <= idx < len(d.edge_words):
            raise ValueError(f"pattern-mismatch: no edge {idx}")
        w = d.edge_words[idx]
        k = len(w) if split is None else split
        if not 0 <= k <= len(w):
            raise ValueError(f"pattern-mismatch: split {k} outside word of edge {idx}")
        head_loc = d.edge_ends[idx][HEAD]
        if head_loc is None:
            raise RuntimeError("edge without a head end")
        mid = len(words)
        words[idx] = w[:k]
        words += [(), w[k:]]
        hc, hs = head_loc
        crossings[hc][hs] = (mid + 1, HEAD)
        return idx, mid, mid + 1
    if not 0 <= idx < len(d.free_loops):
        raise ValueError(f"pattern-mismatch: no free loop {idx}")
    w = d.free_loops[idx]
    k = 0 if split is None else split % (len(w) or 1)
    arc = len(words)
    words += [w[k:] + w[:k], ()]
    return arc, arc + 1, arc


def _with_cuts(d: Diagram, words: list[Word], crossings: list[list[SlotRef]],
               strands: tuple[Strand, ...]) -> Diagram:
    """The Diagram after cutting ``strands``: the free loops among them are gone."""
    loops = tuple(w for l, w in enumerate(d.free_loops) if ("loop", l) not in strands)
    return Diagram(d.genus, tuple(words), tuple(tuple(c) for c in crossings), loops)


# ---------------------------------------------------------------------------
# kinks


def r1_add(d: Diagram, strand: Strand, split: int | None = None,
           chirality: int = 1) -> Diagram:
    """Add a kink on an arc.  chirality is the sign of the new crossing.

    On an edge, ``split`` letters of its word stay before the kink (default
    all); on a free loop, ``split`` rotates the word before cutting it open.
    """
    words = list(d.edge_words)
    crossings = [list(slots) for slots in d.crossings]
    u, kink, v = _cut(d, words, crossings, strand, split)
    if chirality > 0:
        crossings.append([(kink, HEAD), (kink, TAIL), (v, TAIL), (u, HEAD)])
    else:
        crossings.append([(kink, HEAD), (u, HEAD), (v, TAIL), (kink, TAIL)])
    return _with_cuts(d, words, crossings, (strand,))


def kink_at(d: Diagram, c: int) -> tuple[int, int, int] | None:
    """(kink edge, incoming outer edge, outgoing outer edge) if crossing c is
    a kink: one empty-word edge occupying two cyclically adjacent slots."""
    slots = d.crossings[c]
    for s in range(4):
        e1, _ = slots[s]
        e2, _ = slots[(s + 1) % 4]
        if e1 != e2 or d.edge_words[e1]:
            # not a lobe, or a decorated one; the opposite lobe may still do
            continue
        rest = [slots[(s + 2) % 4], slots[(s + 3) % 4]]
        u = next(e for e, end in rest if end == HEAD)
        v = next(e for e, end in rest if end == TAIL)
        return e1, u, v
    return None


def r1_remove(d: Diagram, c: int) -> Diagram:
    if not 0 <= c < d.n_crossings:
        raise ValueError(f"pattern-mismatch: no crossing {c}")
    found = kink_at(d, c)
    if found is None:
        raise ValueError(f"pattern-mismatch: crossing {c} is not a clean kink")
    kink, u, v = found
    return _splice(d, {c}, {kink}, {u: v})


# ---------------------------------------------------------------------------
# pokes


def r2_add(d: Diagram, strands: tuple[Strand, Strand],
           splits: tuple[int | None, int | None] = (None, None),
           over: int = 2) -> Diagram:
    """Push one arc under another, creating a cancelling pair of crossings.

    ``over`` picks which of the two strands passes over (1 or 2).
    """
    if over not in (1, 2):
        raise ValueError("pattern-mismatch: over must be 1 or 2")
    if strands[0] == strands[1]:
        raise ValueError("pattern-mismatch: r2 needs two distinct arcs")
    if over == 2:
        (under, overs), (u_split, o_split) = strands, splits
    else:
        (overs, under), (o_split, u_split) = strands, splits
    words = list(d.edge_words)
    crossings = [list(slots) for slots in d.crossings]
    u_a, u_m, u_b = _cut(d, words, crossings, under, u_split)
    o_a, o_m, o_b = _cut(d, words, crossings, overs, o_split)
    crossings.append([(u_a, HEAD), (o_m, TAIL), (u_m, TAIL), (o_a, HEAD)])  # sign +
    crossings.append([(u_m, HEAD), (o_m, HEAD), (u_b, TAIL), (o_b, TAIL)])  # sign -
    return _with_cuts(d, words, crossings, strands)


def bigon_at(d: Diagram, c1: int, c2: int):
    """(under middle, over middle, outer under pair, outer over pair) of a
    removable poke between crossings c1 and c2, else None.

    Removable means one strand passes over at both crossings, both middle
    arcs are undecorated, and the crossing signs cancel.
    """
    if c1 == c2:
        return None
    under_slots = {(c1, 0), (c1, 2), (c2, 0), (c2, 2)}
    mu = mo = None
    for e in range(len(d.edge_words)):
        if d.edge_words[e]:
            continue
        t, h = d.edge_ends[e]
        if {t[0], h[0]} != {c1, c2}:
            continue
        t_under, h_under = t in under_slots, h in under_slots
        if t_under and h_under and mu is None:
            mu = e
        elif not t_under and not h_under and mo is None:
            mo = e
    if mu is None or mo is None:
        return None
    if crossing_sign(d, c1) + crossing_sign(d, c2) != 0:
        return None
    cu_from, cu_to = d.edge_ends[mu][TAIL][0], d.edge_ends[mu][HEAD][0]
    u_a = d.crossings[cu_from][0][0]
    u_b = d.crossings[cu_to][2][0]
    (cf, sf), (ct, st) = d.edge_ends[mo][TAIL], d.edge_ends[mo][HEAD]
    o_a = d.crossings[cf][sf ^ 2][0]  # the other over slot: 1 <-> 3
    o_b = d.crossings[ct][st ^ 2][0]
    return mu, mo, (u_a, u_b), (o_a, o_b)


def r2_remove(d: Diagram, c1: int, c2: int) -> Diagram:
    for c in (c1, c2):
        if not 0 <= c < d.n_crossings:
            raise ValueError(f"pattern-mismatch: no crossing {c}")
    found = bigon_at(d, c1, c2)
    if found is None:
        raise ValueError(
            f"pattern-mismatch: crossings {c1},{c2} do not bound a removable poke")
    mu, mo, (u_a, u_b), (o_a, o_b) = found
    return _splice(d, {c1, c2}, {mu, mo}, {u_a: u_b, o_a: o_b})


# ---------------------------------------------------------------------------
# triangle slide


def r3(d: Diagram, ta: int, tb: int, tc: int) -> Diagram:
    """Slide a strand across a crossing: the three undecorated arcs bounding
    the triangle reverse, every strand meets its two crossings in the other
    order, and all crossing signs and over/under assignments stay put.
    """
    tri = (ta, tb, tc)
    if len(set(tri)) != 3:
        raise ValueError("pattern-mismatch: r3 needs three distinct arcs")
    for t in tri:
        if not 0 <= t < len(d.edge_words):
            raise ValueError(f"pattern-mismatch: no edge {t}")
        if d.edge_words[t]:
            raise ValueError(f"nonlocal-words: triangle arc {t} is decorated")
    pairs = []
    for t in tri:
        tail, head = d.edge_ends[t]
        pairs.append((tail[0], head[0]))
    crossings = {c for pq in pairs for c in pq}
    sides = {frozenset(pq) for pq in pairs}
    if (len(crossings) != 3 or len(sides) != 3
            or any(len(s) != 2 for s in sides)):
        raise ValueError("pattern-mismatch: arcs do not bound a triangle")
    ends_by_crossing: dict[int, list[int]] = {c: [] for c in crossings}
    for t in tri:
        for loc in d.edge_ends[t]:
            ends_by_crossing[loc[0]].append(loc[1])
    for c, ss in ends_by_crossing.items():
        if sorted(s % 2 for s in ss) != [0, 1]:
            raise ValueError(
                f"pattern-mismatch: triangle meets both passages of crossing {c}"
                " unevenly")

    new = [list(slots) for slots in d.crossings]
    for t in tri:
        (pc, ps), (qc, qs) = d.edge_ends[t]
        # passage slots at the first crossing: t leaves it, so ps is an out slot
        in_p = 0 if ps % 2 == 0 else (ps ^ 2)
        u = d.crossings[pc][in_p][0]
        # passage slots at the second crossing: t enters it, so qs is an in slot
        out_q = 2 if qs % 2 == 0 else (qs ^ 2)
        v = d.crossings[qc][out_q][0]
        new[pc][in_p] = (t, HEAD)
        new[pc][ps] = (v, TAIL)
        new[qc][qs] = (u, HEAD)
        new[qc][out_q] = (t, TAIL)
    out = Diagram(d.genus, d.edge_words, tuple(tuple(c) for c in new), d.free_loops)
    problems = validate(out)
    if problems:
        raise ValueError("pattern-mismatch: slide produced an invalid diagram: "
                         + "; ".join(problems))
    return out


# ---------------------------------------------------------------------------
# joining arcs end to end: removed kinks and pokes, braid closures


def _splice(d: Diagram, dead_crossings: set[int], dead_edges: set[int],
            succ: dict[int, int]) -> Diagram:
    """Rebuild after deleting crossings/arcs, joining arcs end to end.

    succ maps an arc to the arc its head now feeds.  Each chain of succ
    concatenates into one edge named by its first arc; a chain that comes
    back to its start becomes a free loop, read from its least arc and
    appended in the order succ lists it.
    """
    words = list(d.edge_words)
    loops = list(d.free_loops)
    alias: dict[int, int] = {}
    gone = set(dead_edges)
    heads = set(succ.values())
    for start in [e for e in succ if e not in heads] + list(succ):
        if start in alias:
            continue
        chain = [start]
        while chain[-1] in succ and succ[chain[-1]] != start:
            chain.append(succ[chain[-1]])
        closed = chain[-1] in succ
        if closed:
            k = chain.index(min(chain))
            chain = chain[k:] + chain[:k]
        word = sum((d.edge_words[e] for e in chain), ())
        for e in chain:
            alias[e] = chain[0]
        if closed:
            loops.append(word)
            gone.update(chain)
        else:
            words[chain[0]] = word
            gone.update(chain[1:])

    keep = [e for e in range(len(words)) if e not in gone]
    renum = {e: n for n, e in enumerate(keep)}
    crossings = tuple(tuple((renum[alias.get(e, e)], end) for e, end in slots)
                      for c, slots in enumerate(d.crossings) if c not in dead_crossings)
    return Diagram(d.genus, tuple(words[e] for e in keep), crossings, tuple(loops))


# ---------------------------------------------------------------------------
# site enumeration for the invariance harness


def r1_remove_sites(d: Diagram) -> list[MoveSpec]:
    return [MoveSpec("r1rm", {"crossing": c})
            for c in range(d.n_crossings) if kink_at(d, c) is not None]


def r2_remove_sites(d: Diagram) -> list[MoveSpec]:
    out = []
    for c1 in range(d.n_crossings):
        for c2 in range(c1 + 1, d.n_crossings):
            if bigon_at(d, c1, c2) is not None:
                out.append(MoveSpec("r2rm", {"crossings": (c1, c2)}))
    return out


def _arcs(d: Diagram) -> list[Strand]:
    """Every arc of d: its edges, then its free loops."""
    return ([("edge", e) for e in range(len(d.edge_words))]
            + [("loop", l) for l in range(len(d.free_loops))])


def r1_add_sites(d: Diagram) -> list[MoveSpec]:
    return [MoveSpec(kind, _strand_params((s,)))
            for s in _arcs(d) for kind in ("r1+", "r1-")]


def r2_add_sites(d: Diagram) -> list[MoveSpec]:
    return [MoveSpec("r2", {**_strand_params(pair), "over": over})
            for pair in itertools.combinations(_arcs(d), 2) for over in (1, 2)]
