"""Link diagrams on a closed oriented genus-g surface.

A diagram is a 4-valent graph with over/under data at each vertex plus a
word in the surface group on every directed edge: the diagram lives in the
fundamental polygon and the word records which sides an edge crosses.
Crossing-free components are kept separately as free loops (bare words).

Crossing slots are in counterclockwise cyclic order starting from the
incoming understrand, so slot 0 is the incoming and slot 2 the outgoing
understrand; the overstrand occupies slots 1 and 3.  The file format stores
bare edge ids per slot; which end of an edge sits in a slot is inferred by
one XOR-constraint solver (slot 0 takes a head, slot 2 a tail, the two over
slots take one head and one tail, and every edge has one of each).
Components that never pass under are orientation-ambiguous; their direction
is fixed deterministically by orienting the least (crossing, slot)
appearance as incoming.  The same solver finds source-sink orientations,
in which the least edge of each component keeps its direction.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from functools import cached_property

from .words import Surface, Word, check_word, invert_word, parse_word, word_to_str

__all__ = [
    "Diagram",
    "TAIL",
    "HEAD",
    "validate_json",
    "diagram_from_json",
    "diagram_to_json",
    "parse_diagram",
    "load_diagram",
    "validate",
    "crossing_sign",
    "crossing_signs",
    "source_sink_orientation",
    "has_source_sink",
    "reverse_orientation",
    "mirror",
]

TAIL, HEAD = 0, 1

# slot holds (edge index, end): HEAD means the edge flows into the crossing.
SlotRef = tuple[int, int]
Crossing = tuple[SlotRef, SlotRef, SlotRef, SlotRef]


@dataclass(frozen=True)
class Diagram:
    genus: int
    edge_words: tuple[Word, ...]
    crossings: tuple[Crossing, ...]
    free_loops: tuple[Word, ...]

    @cached_property
    def surface(self) -> Surface:
        return Surface(self.genus)

    @cached_property
    def edge_ends(self) -> tuple[tuple[SlotRef | None, SlotRef | None], ...]:
        """Per edge: ((crossing, slot) of its tail, (crossing, slot) of its head)."""
        locs: list[list[SlotRef | None]] = [[None, None] for _ in self.edge_words]
        for c, slots in enumerate(self.crossings):
            for s, (e, end) in enumerate(slots):
                locs[e][end] = (c, s)
        return tuple((t, h) for t, h in locs)

    @cached_property
    def dart_steps(self) -> tuple[tuple[int, int, int, Word], ...]:
        """Per dart ``2*edge + (direction < 0)``: the crossing it reaches, the
        dart leaving there under the 0-smoothing (slot s joined to s ^ 1) and
        under the 1-smoothing (slot s joined to 3 - s), and the word read
        along it."""
        steps = []
        for e, (tail, head) in enumerate(self.edge_ends):
            for direction, (c, s) in ((1, head), (-1, tail)):
                w = self.edge_words[e] if direction > 0 else invert_word(self.edge_words[e])
                # the dart leaving c through each of its slots
                leave = [2 * x + (end == HEAD) for x, end in self.crossings[c]]
                steps.append((c, leave[s ^ 1], leave[3 - s], w))
        return tuple(steps)

    @cached_property
    def slot_edges(self) -> tuple[tuple[int, int, int], ...]:
        """Per crossing, the edges at its slots 0, 1 and 2."""
        return tuple((a[0], b[0], c[0]) for a, b, c, _ in self.crossings)

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)


# ---------------------------------------------------------------------------
# file format


def validate_json(obj) -> list[str]:
    """Structural violations of a raw diagram object; empty iff loadable."""
    return _read_json(obj)[0]


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _read_json(obj) -> tuple[list[str], Diagram | None]:
    """Violations of a raw diagram object, and the Diagram when there are none."""
    out: list[str] = []
    if not isinstance(obj, dict):
        return ["diagram must be a JSON object"], None
    genus = obj.get("genus")
    if not _is_int(genus) or genus < 0:
        out.append("genus must be a nonnegative integer")
        genus = 0
    lists = []
    for key in ("edges", "crossings", "free_loops"):
        got = obj.get(key, [])
        if not isinstance(got, list):
            out.append(f"{key} must be a list")
            got = []
        lists.append(got)
    edges, crossings, raw_loops = lists
    words: dict[int, Word] = {}
    ids: list[int] = []
    for k, e in enumerate(edges):
        if not isinstance(e, dict) or not _is_int(e.get("id")):
            out.append(f"edge #{k}: missing integer id")
            continue
        ids.append(e["id"])
        try:
            words[e["id"]] = parse_word(str(e.get("word", "")), genus)
        except ValueError as exc:
            out.append(f"edge id {e['id']}: {exc}")
    if len(set(ids)) != len(ids):
        out.append("duplicate edge ids")
    known = set(ids)
    uses: dict[int, int] = {i: 0 for i in known}
    crossing_ids: list[int] = []  # a missing id reads as 0, as the ordering below does
    for k, c in enumerate(crossings):
        if not isinstance(c, dict) or not isinstance(c.get("slots"), list):
            out.append(f"crossing #{k}: missing slots")
            continue
        if not _is_int(c.get("id", 0)):
            out.append(f"crossing #{k}: id must be an integer")
        else:
            crossing_ids.append(c.get("id", 0))
        slots = c["slots"]
        if len(slots) != 4:
            out.append(f"crossing #{k}: needs exactly 4 slots")
            continue
        for e in slots:
            if not _is_int(e):
                out.append(f"crossing #{k}: slots must hold integer edge ids, not {e!r}")
            elif e not in known:
                out.append(f"crossing #{k}: slot references unknown edge {e}")
            else:
                uses[e] += 1
    if len(set(crossing_ids)) != len(crossing_ids):
        out.append("duplicate crossing ids")
    for i in sorted(known):
        if uses[i] != 2:
            out.append(f"edge id {i}: used {uses[i]} times, expected 2")
    loops: list[Word] = []
    for k, w in enumerate(raw_loops):
        try:
            loops.append(parse_word(str(w), genus))
        except ValueError as exc:
            out.append(f"free loop #{k}: {exc}")
    if out:
        return out, None
    # orientation consistency needs the structural part to be sound
    idx = {eid: n for n, eid in enumerate(sorted(known))}
    slot_tables = [tuple(idx[e] for e in c["slots"])
                   for c in sorted(crossings, key=lambda c: c.get("id", 0))]
    ends = _infer_ends(len(known), slot_tables)
    if ends is None:
        return ["orientation-inconsistent slot structure"], None
    return [], Diagram(genus, tuple(words[i] for i in sorted(known)), ends, tuple(loops))


def _solve_parity(n: int, relations: list[tuple[int, int, int]],
                  pins: dict[int, int], free: int) -> list[int] | None:
    """Values 0/1 of nodes 0..n-1 with val[u] ^ val[v] == parity for every
    (u, v, parity) in relations, or None on a contradiction.

    A connected component takes its values from its pinned nodes; one with no
    pinned node gives its least node the value ``free``.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, parity in relations:
        adj[u].append((v, parity))
        adj[v].append((u, parity))
    val: list[int | None] = [None] * n
    for start in [*pins, *range(n)]:  # pinned nodes seed their components first
        if val[start] is not None:
            continue
        val[start] = pins.get(start, free)
        queue = [start]
        for u in queue:
            for v, parity in adj[u]:
                if val[v] is None:
                    val[v] = val[u] ^ parity
                    queue.append(v)
                elif val[v] != val[u] ^ parity:
                    return None
    if any(val[u] != want for u, want in pins.items()):
        return None
    return val


def _infer_ends(n_edges: int, slot_tables: list[tuple[int, int, int, int]]
                ) -> tuple[Crossing, ...] | None:
    """Which end of each edge sits in each slot, or None when no choice fits.

    Slot s of crossing c is node 4c+s, valued HEAD (flows into the crossing)
    or TAIL.  Slot 0 is pinned to HEAD and slot 2 to TAIL; the two over slots
    differ, and the two appearances of an edge differ.  A strand that only
    passes over takes HEAD at its least slot.
    """
    apps: list[list[int]] = [[] for _ in range(n_edges)]
    pins: dict[int, int] = {}
    relations = []
    for c, slots in enumerate(slot_tables):
        for s, e in enumerate(slots):
            apps[e].append(4 * c + s)
        pins[4 * c], pins[4 * c + 2] = HEAD, TAIL
        relations.append((4 * c + 1, 4 * c + 3, 1))
    relations += [(a, b, 1) for a, b in apps]
    val = _solve_parity(4 * len(slot_tables), relations, pins, free=HEAD)
    if val is None:
        return None
    return tuple(tuple((e, val[4 * c + s]) for s, e in enumerate(slots))
                 for c, slots in enumerate(slot_tables))


def diagram_from_json(obj) -> Diagram:
    """Build a Diagram from a raw dict, raising on any violation."""
    problems, d = _read_json(obj)
    if problems:
        raise ValueError("invalid diagram: " + "; ".join(problems))
    return d


def diagram_to_json(d: Diagram) -> dict:
    """Raw dict form.  End data is dropped; reloading re-infers it, which is
    stable unless a component never passes under."""
    return {
        "genus": d.genus,
        "edges": [
            {"id": i, "word": word_to_str(w, d.genus)}
            for i, w in enumerate(d.edge_words)
        ],
        "crossings": [
            {"id": c, "slots": [e for e, _ in slots]}
            for c, slots in enumerate(d.crossings)
        ],
        "free_loops": [word_to_str(w, d.genus) for w in d.free_loops],
    }


def parse_diagram(data: bytes | str, source: str) -> Diagram:
    """Build a Diagram from JSON text; every parse or schema failure is a
    ValueError whose message starts with ``source``."""
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{source}: line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ValueError(f"{source}: JSON nested too deeply to parse") from exc
    try:
        return diagram_from_json(obj)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from exc


def load_diagram(path: str) -> Diagram:
    return parse_diagram(pathlib.Path(path).read_bytes(), path)


def validate(d: Diagram) -> list[str]:
    """Invariant violations of a built Diagram (defensive, e.g. after moves)."""
    out: list[str] = []
    seen: dict[tuple[int, int], int] = {}
    for c, slots in enumerate(d.crossings):
        if len(slots) != 4:
            out.append(f"crossing {c}: wrong slot count")
            continue
        for s, (e, end) in enumerate(slots):
            if not 0 <= e < len(d.edge_words):
                out.append(f"crossing {c} slot {s}: dangling edge {e}")
                continue
            key = (e, end)
            if key in seen:
                out.append(f"edge {e}: duplicate {'head' if end else 'tail'}")
            seen[key] = c
        if [end for _, end in slots][0::2] != [HEAD, TAIL]:
            out.append(f"crossing {c}: understrand ends inconsistent")
        over = sorted(end for _, end in slots[1::2])
        if over != [TAIL, HEAD]:
            out.append(f"crossing {c}: overstrand ends inconsistent")
    for e, w in enumerate(d.edge_words):
        if (e, TAIL) not in seen or (e, HEAD) not in seen:
            out.append(f"edge {e}: missing an end")
        try:
            check_word(w, d.genus)
        except ValueError as exc:
            out.append(f"edge {e}: {exc}")
    for k, w in enumerate(d.free_loops):
        try:
            check_word(w, d.genus)
        except ValueError as exc:
            out.append(f"free loop {k}: {exc}")
    return out


# ---------------------------------------------------------------------------
# crossing signs and source-sink structures


def crossing_sign(d: Diagram, c: int) -> int:
    """+1 when the overstrand comes in at slot 3, -1 at slot 1.

    Equivalently: the frame (overstrand direction, understrand direction)
    is positively oriented.
    """
    slots = d.crossings[c]
    if slots[3][1] == HEAD:
        return 1
    return -1


def crossing_signs(d: Diagram) -> tuple[int, int, tuple[int, ...]]:
    """(n_plus, n_minus, per-crossing signs)."""
    signs = tuple(crossing_sign(d, c) for c in range(d.n_crossings))
    return sum(1 for s in signs if s > 0), sum(1 for s in signs if s < 0), signs


def source_sink_orientation(d: Diagram) -> list[int] | None:
    """Edge re-orientation making every crossing a source-sink vertex.

    Source-sink: the two incoming slots are opposite (0,2 or 1,3).  Returns
    +1 (keep direction) / -1 (flip) per edge, or None when impossible.  The
    least edge of each set of edges tied together by the crossings keeps its
    direction.  Free loops are unconstrained.
    """
    # toward(s) = head(s) xor flip(e); need toward0 == toward2,
    # toward1 == toward3 and toward0 != toward1
    relations = []
    for (e0, h0), (e1, h1), (e2, h2), (e3, h3) in d.crossings:
        relations += [(e0, e2, h0 ^ h2), (e1, e3, h1 ^ h3), (e0, e1, h0 ^ h1 ^ 1)]
    flips = _solve_parity(len(d.edge_words), relations, {}, free=0)
    return None if flips is None else [-1 if f else 1 for f in flips]


def has_source_sink(d: Diagram) -> bool:
    return source_sink_orientation(d) is not None


# ---------------------------------------------------------------------------
# whole-diagram symmetries


def reverse_orientation(d: Diagram) -> Diagram:
    """Reverse every component: words invert, slots rotate by two."""
    words = tuple(invert_word(w) for w in d.edge_words)
    crossings = tuple(
        tuple((slots[(s + 2) % 4][0], 1 - slots[(s + 2) % 4][1]) for s in range(4))
        for slots in d.crossings
    )
    loops = tuple(invert_word(w) for w in d.free_loops)
    return Diagram(d.genus, words, crossings, loops)


def mirror(d: Diagram) -> Diagram:
    """Exchange over and under everywhere (reflection through the surface).

    Slots rotate by one so that the old overstrand entry becomes slot 0;
    every crossing sign negates.
    """
    crossings = []
    for slots in d.crossings:
        shift = 1 if slots[1][1] == HEAD else 3
        crossings.append(tuple(slots[(s + shift) % 4] for s in range(4)))
    return Diagram(d.genus, d.edge_words, tuple(crossings), d.free_loops)
