"""Independent reference implementations used to cross-check the package.

Everything here is written the dumb way on purpose: dict-of-tuples vector
spaces, list-of-lists elimination, exhaustive searches.  No imports from
hkhovanov internals beyond the Diagram data itself and the free-group
reductions of words, except in the last section: test-only readings and
rewritings of the package's own resolutions and gradings, which are not
independent checks.
"""

from __future__ import annotations

import itertools
import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache

from hkhovanov import chain, cube
from hkhovanov.cube import Circle, CubeEdge, Resolution, circle_classes, cube_edges, resolve
from hkhovanov.diagram import Diagram, HEAD, TAIL, crossing_sign, crossing_signs
from hkhovanov.words import (
    TRIVIAL_CLASS,
    ZERO_GRADING,
    ConjClass,
    GradingElem,
    cyclic_reduce,
    free_reduce,
    invert_word,
    word_key,
)

Word = tuple[int, ...]


def naive_rank(rows: list[list[int]]) -> int:
    """GF(2) rank by textbook elimination on lists of 0/1."""
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    cols = len(rows[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for k in range(len(rows)):
            if k != r and rows[k][c]:
                rows[k] = [(a + b) % 2 for a, b in zip(rows[k], rows[r])]
        r += 1
        rank += 1
    return rank


def bit_lists(rows: list[int], ncols: int) -> list[list[int]]:
    """Bit-packed rows (column j = bit j) as lists of 0/1."""
    return [[(row >> c) & 1 for c in range(ncols)] for row in rows]


def kernel_dim(rows: list[int], ncols: int) -> int:
    """ncols minus the GF(2) rank of the bit-packed rows."""
    return ncols - naive_rank(bit_lists(rows, ncols))


def transpose(rows: list[int], ncols: int) -> list[int]:
    """Bit-packed rows of the transpose: row c has bit r set where row r has bit c."""
    return [sum(((row >> c) & 1) << r for r, row in enumerate(rows)) for c in range(ncols)]


def rational_rank(rows: list[list[int]]) -> int:
    """Rank over Q, for sanity checks where char 2 does not matter."""
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    r = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        piv = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for k in range(len(rows)):
            if k != r and rows[k][c]:
                f = rows[k][c] / rows[r][c]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[r])]
        r += 1
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# torus words: the genus-1 class is just the exponent pair up to sign


def torus_class(word: tuple[int, ...]) -> tuple[int, int]:
    p = sum(1 if x == 1 else -1 for x in word if abs(x) == 1)
    q = sum(1 if x == 2 else -1 for x in word if abs(x) == 2)
    if (p, q) < (0, 0) or (p == 0 and q < 0) or (p < 0):
        p, q = -p, -q
    return (p, q)


# ---------------------------------------------------------------------------
# Dehn's algorithm for the genus-g relator [a1,b1]...[ag,bg], by lookup in
# tables of every relator subword longer than half of it: O(g^3) letters


def _relator(genus: int) -> Word:
    r: list[int] = []
    for i in range(1, genus + 1):
        a, b = 2 * i - 1, 2 * i
        r.extend((a, b, -a, -b))
    return tuple(r)


@lru_cache(maxsize=None)
def _dehn_tables(genus: int):
    """Replacement tables for subwords of cyclic rotations of the relator.

    A subword u of a rotation rho = u v of r or r^-1 equals v^-1 in the group.
    ``long`` maps each u with len(u) > len(r)/2 to that shorter complement;
    ``half`` maps the len(r)/2 subwords to their equal-length complements.
    """
    if genus < 2:
        raise ValueError("Dehn reduction needs genus >= 2")
    r = _relator(genus)
    n = len(r)
    half = n // 2
    long_repl: dict[Word, Word] = {}
    half_repl: dict[Word, Word] = {}
    for base in (r, invert_word(r)):
        for rot in range(n):
            rho = base[rot:] + base[:rot]
            for length in range(half, n + 1):
                u, v = rho[:length], rho[length:]
                repl = invert_word(v)
                if length == half:
                    half_repl[u] = repl
                else:
                    long_repl[u] = repl
    return long_repl, half_repl, n


def table_dehn_reduce(w: Word, genus: int) -> Word:
    """Shorten w by replacing any subword longer than half the relator.

    The result is empty iff w is trivial in the genus-g surface group.
    Length never increases.
    """
    long_repl, _, rel_len = _dehn_tables(genus)
    half = rel_len // 2
    w = free_reduce(w)
    changed = True
    while changed and w:
        changed = False
        m = len(w)
        for length in range(min(rel_len, m), half, -1):
            for i in range(m - length + 1):
                seg = w[i : i + length]
                if seg in long_repl:
                    w = free_reduce(w[:i] + long_repl[seg] + w[i + length :])
                    changed = True
                    break
            if changed:
                break
    return w


def table_cyclic_dehn_reduce(w: Word, genus: int) -> Word:
    """Dehn-reduce a cyclic word: replacements may wrap around the end."""
    long_repl, _, rel_len = _dehn_tables(genus)
    half = rel_len // 2
    w = cyclic_reduce(w)
    changed = True
    while changed and w:
        changed = False
        m = len(w)
        dbl = w + w
        for length in range(min(rel_len, m), half, -1):
            for i in range(m):
                seg = dbl[i : i + length]
                if seg in long_repl:
                    w = cyclic_reduce(
                        free_reduce(long_repl[seg] + dbl[i + length : i + m])
                    )
                    changed = True
                    break
            if changed:
                break
    return w


def table_class_word(w: Word, genus: int) -> Word:
    """Canonical cyclic word of the conjugacy class of w, up to inversion.

    Dehn-and-cyclically reduce w and w^-1, saturate the resulting set under
    replacements of subwords of length exactly half the relator (these
    preserve length but can relate distinct minimal words), and take the
    lexicographically least cyclic rotation over the whole set.  Any
    saturation step that shortens the word restarts from the shorter one.
    """
    _, half_repl, rel_len = _dehn_tables(genus)
    half = rel_len // 2
    seeds = {table_cyclic_dehn_reduce(w, genus),
             table_cyclic_dehn_reduce(invert_word(w), genus)}
    while True:
        pool: set[Word] = set()
        queue = list(seeds)
        shorter: Word | None = None
        while queue:
            u = queue.pop()
            if u in pool:
                continue
            pool.add(u)
            m = len(u)
            if m < half:
                continue
            dbl = u + u
            for i in range(m):
                seg = dbl[i : i + half]
                if seg not in half_repl:
                    continue
                v = cyclic_reduce(free_reduce(half_repl[seg] + dbl[i + half : i + m]))
                if len(v) < m:
                    shorter = v
                    break
                if v not in pool:
                    queue.append(v)
            if shorter is not None:
                break
        if shorter is None:
            break
        seeds = {
            table_cyclic_dehn_reduce(shorter, genus),
            table_cyclic_dehn_reduce(invert_word(shorter), genus),
        }
    # the key of a rotation is the rotation of the key: key each word once
    return min(((m, ku[r:] + ku[:r]), u[r:] + u[:r])
               for u in pool for m, ku in (word_key(u),) for r in range(max(1, m)))[1]


# ---------------------------------------------------------------------------
# circles of a state, by union-find over crossing dart joins


def state_circles(d: Diagram, state: int) -> int:
    """Number of circles of a resolution, counted independently of cube.py:
    union-find on edge ends plus free loops."""
    # nodes: (edge, end) pairs; a smoothing joins slot pairs, an edge joins
    # its own two ends
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    for e in range(len(d.edge_words)):
        union((e, TAIL), (e, HEAD))
    for c, slots in enumerate(d.crossings):
        if (state >> c) & 1:
            pairs = ((0, 3), (1, 2))
        else:
            pairs = ((0, 1), (2, 3))
        for s1, s2 in pairs:
            union(d.crossings[c][s1], d.crossings[c][s2])
    roots = {find((e, end)) for e in range(len(d.edge_words))
             for end in (TAIL, HEAD)}
    return len(roots) + len(d.free_loops)


def trace_circles(d: Diagram, state: int):
    """Circles of a resolution, traced independently of cube.py.

    Returns (circles, owner): each circle is (darts, word) with darts the
    (edge, +1 | -1) steps walked from its least edge tail to head, and word
    the edge words read along them, an edge walked backwards read inverted;
    circles are sorted by least edge, then the free loops as ((), word).
    owner gives the circle of each edge, then of each free loop.
    """
    # which (edge, end) meets each (edge, end) across its smoothed crossing
    across = {}
    for c, slots in enumerate(d.crossings):
        pairs = ((0, 3), (1, 2)) if (state >> c) & 1 else ((0, 1), (2, 3))
        for s1, s2 in pairs:
            across[slots[s1]] = slots[s2]
            across[slots[s2]] = slots[s1]
    n_edges = len(d.edge_words)
    owner = [None] * n_edges
    circles = []
    for first in range(n_edges):
        if owner[first] is not None:
            continue
        darts, word = [], []
        edge, forward = first, True
        while owner[edge] is None:
            owner[edge] = len(circles)
            darts.append((edge, 1 if forward else -1))
            w = d.edge_words[edge]
            word += w if forward else [-x for x in reversed(w)]
            arrive = (edge, HEAD if forward else TAIL)
            edge, end = across[arrive]
            forward = end == TAIL
        assert (edge, forward) == (first, True), "walk did not close up"
        circles.append((tuple(darts), tuple(word)))
    for k, w in enumerate(d.free_loops):
        owner.append(len(circles))
        circles.append(((), tuple(w)))
    return circles, tuple(owner)


# ---------------------------------------------------------------------------
# classical Khovanov homology over GF(2), dict-based


def classical_khovanov(d: Diagram) -> dict[tuple[int, int], int]:
    """(i, j) -> dim table, built from scratch: generators are (state,
    labels) pairs, the differential toggles one crossing and applies m or
    delta to explicit circle membership sets."""
    n = d.n_crossings
    n_plus = sum(1 for c in range(n) if crossing_sign(d, c) > 0)
    n_minus = n - n_plus

    def circles(state):
        parent = {}

        def find(x):
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in range(len(d.edge_words)):
            parent[find((e, TAIL))] = find((e, HEAD))
        for c in range(n):
            pairs = ((0, 3), (1, 2)) if (state >> c) & 1 else ((0, 1), (2, 3))
            for s1, s2 in pairs:
                parent[find(d.crossings[c][s1])] = find(d.crossings[c][s2])
        groups: dict = {}
        for e in range(len(d.edge_words)):
            groups.setdefault(find((e, TAIL)), set()).add(e)
        ordered = sorted(groups.values(), key=min)
        ordered += [{("loop", k)} for k in range(len(d.free_loops))]
        return ordered

    meta = {s: circles(s) for s in range(1 << n)}

    def gens(state):
        return itertools.product((0, 1), repeat=len(meta[state]))

    # basis index per (i, j): list of (state, labels)
    basis: dict[tuple[int, int], list] = {}
    for s in range(1 << n):
        beta = bin(s).count("1")
        for labels in gens(s):
            j = sum(1 if x else -1 for x in labels) + beta
            key = (beta - n_minus, j + n_plus - 2 * n_minus)
            basis.setdefault(key, []).append((s, labels))
    index = {}
    for key, items in basis.items():
        for k, g in enumerate(items):
            index[g] = (key, k)

    def boundary(state, labels):
        out = []
        for c in range(n):
            if (state >> c) & 1:
                continue
            t = state | (1 << c)
            src, tgt = meta[state], meta[t]
            if len(tgt) == len(src) - 1:  # merge
                # the two source circles that fused
                fused = [k for k, grp in enumerate(src)
                         if not any(grp == g2 for g2 in tgt)]
                a, b = fused
                merged = src[a] | src[b]
                k_t = next(k for k, g2 in enumerate(tgt) if g2 == merged)
                la, lb = labels[a], labels[b]
                if la and lb:
                    outs = [1]
                elif la or lb:
                    outs = [0]
                else:
                    outs = []
                for o in outs:
                    new = []
                    for k2, grp in enumerate(tgt):
                        if k2 == k_t:
                            new.append(o)
                        else:
                            k_s = next(ks for ks, g1 in enumerate(src)
                                       if g1 == grp)
                            new.append(labels[k_s])
                    out.append((t, tuple(new)))
            elif len(tgt) == len(src) + 1:  # split
                split_k = next(k for k, grp in enumerate(src)
                               if not any(grp == g2 for g2 in tgt))
                parts = [k for k, g2 in enumerate(tgt)
                         if not any(g2 == g1 for g1 in src)]
                pa, pb = parts
                x = labels[split_k]
                pairs = [(1, 0), (0, 1)] if x else [(0, 0)]
                for oa, ob in pairs:
                    new = []
                    for k2, grp in enumerate(tgt):
                        if k2 == pa:
                            new.append(oa)
                        elif k2 == pb:
                            new.append(ob)
                        else:
                            k_s = next(ks for ks, g1 in enumerate(src)
                                       if g1 == grp)
                            new.append(labels[k_s])
                    out.append((t, tuple(new)))
            else:  # same circle count: no classical analogue, skip
                raise AssertionError("resolution circle count changed by 0")
        return out

    # assemble per-(i,j) matrices into the next (i+1, j) block and diff dims
    mats: dict[tuple[int, int], list[list[int]]] = {}
    for key, items in sorted(basis.items()):
        i, j = key
        nxt = basis.get((i + 1, j), [])
        if not nxt:
            continue
        mat = [[0] * len(nxt) for _ in items]
        for r, (s, labels) in enumerate(items):
            for g in boundary(s, labels):
                key2, col = index[g]
                assert key2 == (i + 1, j)
                mat[r][col] ^= 1
        mats[key] = mat

    table = {}
    for (i, j), items in sorted(basis.items()):
        r_out = naive_rank(mats.get((i, j), [])) if (i, j) in mats else 0
        r_in = naive_rank(mats.get((i - 1, j), [])) if (i - 1, j) in mats else 0
        dim = len(items) - r_out - r_in
        if dim:
            table[(i, j)] = dim
    return table


# published GF(2) Khovanov dimensions of the right-handed trefoil
TREFOIL_RH_GF2 = {(0, 1): 1, (0, 3): 1, (2, 5): 1, (2, 7): 1,
                  (3, 7): 1, (3, 9): 1}


# ---------------------------------------------------------------------------
# source-sink orientations by exhaustive search


def source_sink_exhaustive(d: Diagram) -> bool:
    """Try all edge re-orientations; alternation means the four slots read
    in, out, in, out or out, in, out, in around the crossing."""
    m = len(d.edge_words)
    if m > 16:
        raise ValueError("too big for the exhaustive oracle")
    for flips in range(1 << m):
        ok = True
        for slots in d.crossings:
            flow = []
            for e, end in slots:
                inward = end == HEAD
                if (flips >> e) & 1:
                    inward = not inward
                flow.append(inward)
            if flow not in ([True, False, True, False],
                            [False, True, False, True]):
                ok = False
                break
        if ok:
            return True
    return False


# ---------------------------------------------------------------------------
# test-only readings of the package's resolutions and gradings (not independent)


def support(circle: Circle) -> frozenset[int]:
    """The edges a circle runs through."""
    return frozenset(e for e, _ in circle.darts)


def grading_term(cls: ConjClass, coeff: int) -> GradingElem:
    """coeff * [cls]; the trivial class is the group identity."""
    if cls.is_trivial or coeff == 0:
        return ZERO_GRADING
    return GradingElem(((cls, coeff),))


def grading_add(x: GradingElem, y: GradingElem) -> GradingElem:
    if not x.terms:
        return y
    if not y.terms:
        return x
    acc = dict(x.terms)
    for cls, k in y.terms:
        v = acc.get(cls, 0) + k
        if v:
            acc[cls] = v
        else:
            del acc[cls]
    return GradingElem(tuple(sorted(acc.items(), key=lambda t: t[0].key)))


def grading_negate(x: GradingElem) -> GradingElem:
    return GradingElem(tuple((c, -k) for c, k in x.terms))


def generator_gradings(d: Diagram, state: int, labels: tuple[int, ...],
                       shift: bool = True) -> tuple[int, int, GradingElem]:
    """Gradings (i, j, h) of a single labelled state."""
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


def transform_resolution(res: Resolution, reverse_circles: bool,
                         invert_circle_words: bool) -> Resolution:
    """The same resolution with its circles listed in reverse order (owner
    index and anchors renumbered to match) and/or every circle word read
    backwards.  Neither changes a circle's free homotopy class up to
    inversion, so neither may change a table."""
    circles, owner, anchors = res.circles, res.owner, res.anchors
    if invert_circle_words:
        circles = tuple(Circle(c.darts, invert_word(c.word), c.loop) for c in circles)
    if reverse_circles:
        circles = tuple(reversed(circles))
        owner = tuple(len(circles) - 1 - i for i in owner)
        anchors = tuple(reversed(anchors))
    return Resolution(res.state, circles, owner, anchors)


@contextmanager
def transformed_circles(reverse_circles: bool = False, invert_circle_words: bool = False):
    """Within the block, ``build_complex`` (and so ``kh_h``) sees every
    resolution through ``transform_resolution``."""
    real = chain.resolve

    def transformed(d: Diagram, state: int) -> Resolution:
        return transform_resolution(real(d, state), reverse_circles, invert_circle_words)

    chain.resolve = transformed
    try:
        yield
    finally:
        chain.resolve = real


@contextmanager
def shuffled_circles(seed: int):
    """Within the block, the build, ``cube_edges`` and this module's oracles
    list every state's circles in a seeded order of that state's own (owner
    index and anchors renumbered to match), so the circles an edge leaves
    alone need not keep their relative order."""
    real = cube.resolve

    def shuffled(d: Diagram, state: int) -> Resolution:
        res = real(d, state)
        perm = list(range(res.n_circles))
        random.Random(seed * 65537 + state).shuffle(perm)
        circles, anchors = [None] * len(perm), [0] * len(perm)
        for old, new in enumerate(perm):
            circles[new], anchors[new] = res.circles[old], res.anchors[old]
        return Resolution(state, tuple(circles), tuple(perm[i] for i in res.owner),
                          tuple(anchors))

    sites = (chain, cube, sys.modules[__name__])
    for module in sites:
        module.resolve = shuffled
    try:
        yield
    finally:
        for module in sites:
            module.resolve = real


def hand_images(d: Diagram, edge: CubeEdge, classes_by_state, mask: int) -> list[int]:
    """Images of one labelled state under one cube edge, straight off the tables."""
    src_classes = classes_by_state[edge.source]
    tgt_classes = classes_by_state[edge.target]
    if edge.kind == "neutral":
        return []
    move = {sp: tp for sp, tp in edge.unchanged}
    if edge.kind == "merge":
        i, j, k = edge.indices
        table = chain.merge_case(src_classes[i], src_classes[j], tgt_classes[k])
        if table is None:
            return []
        outs = chain.MERGE_TABLES[table][((mask >> i) & 1, (mask >> j) & 1)]
        images = []
        for out in outs:
            t = out << k
            for sp, tp in move.items():
                t |= ((mask >> sp) & 1) << tp
            images.append(t)
        return images
    i, j, k = edge.indices
    table = chain.split_case(src_classes[i], tgt_classes[j], tgt_classes[k])
    if table is None:
        return []
    images = []
    for o1, o2 in chain.SPLIT_TABLES[table][(mask >> i) & 1]:
        t = (o1 << j) | (o2 << k)
        for sp, tp in move.items():
            t |= ((mask >> sp) & 1) << tp
        images.append(t)
    return images


def naive_rows(d: Diagram, flavor: str) -> dict[tuple[int, int], tuple]:
    """(state, mask) -> (slice key (j, h), degree i, column, boundary row) of
    every generator of ``build_complex(d, flavor)``, edge by edge: columns
    number each slice and degree's generators in (state, mask) order, and a
    row has one bit per ``hand_images`` image over the ``cube_edges``."""
    classes_by_state = {}
    out = {}
    counts: dict[tuple, int] = {}
    for s in range(1 << d.n_crossings):
        classes = circle_classes(d, resolve(d, s))
        if flavor == "classical":
            classes = (TRIVIAL_CLASS,) * len(classes)
        classes_by_state[s] = classes
        for mask in range(1 << len(classes)):
            labels = tuple((mask >> t) & 1 for t in range(len(classes)))
            i, j, h = generator_gradings(d, s, labels)
            key = (j, h if flavor == "homotopical" else ZERO_GRADING), i
            counts[key] = col = counts.get(key, -1) + 1
            out[s, mask] = (*key, col, 0)
    for edge in cube_edges(d):
        for mask in range(1 << len(classes_by_state[edge.source])):
            for image in hand_images(d, edge, classes_by_state, mask):
                key, i, col, row = out[edge.source, mask]
                tkey, ti, tcol, _ = out[edge.target, image]
                assert (tkey, ti) == (key, i + 1)
                out[edge.source, mask] = (key, i, col, row ^ (1 << tcol))
    return out
