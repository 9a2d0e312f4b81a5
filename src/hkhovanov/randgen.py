"""Seeded random diagram generation for fuzz checks.

Diagrams are built by wiring crossing out-ports to in-ports with a random
bijection, which always yields a valid oriented diagram; random words then
spread the circles across homotopy classes.  A size cap on the total state
cube keeps downstream homology runs fast.
"""

from __future__ import annotations

import random

from .cube import circle_counts
from .diagram import Diagram, HEAD, TAIL
from .words import Word


def random_word(rng: random.Random, genus: int, max_len: int) -> Word:
    if genus == 0 or max_len == 0:
        return ()
    n = rng.randint(0, max_len)
    letters = []
    for _ in range(n):
        base = rng.randint(1, 2 * genus)
        letters.append(base if rng.random() < 0.5 else -base)
    return tuple(letters)


def random_diagram(rng: random.Random, n_crossings: int, genus: int,
                   max_word_len: int = 2, n_loops: int = 0) -> Diagram:
    over_in = [rng.choice((1, 3)) for _ in range(n_crossings)]
    out_ports = []
    in_ports = []
    for c in range(n_crossings):
        out_ports += [(c, 2), (c, over_in[c] ^ 2)]
        in_ports += [(c, 0), (c, over_in[c])]
    rng.shuffle(in_ports)
    slots: list[list] = [[None] * 4 for _ in range(n_crossings)]
    for e, ((oc, os), (ic, isl)) in enumerate(zip(out_ports, in_ports)):
        slots[oc][os] = (e, TAIL)
        slots[ic][isl] = (e, HEAD)
    words = tuple(random_word(rng, genus, max_word_len)
                  for _ in range(2 * n_crossings))
    loops = tuple(random_word(rng, genus, max_word_len) for _ in range(n_loops))
    return Diagram(genus, words, tuple(tuple(c) for c in slots), loops)


def cube_size(d: Diagram) -> int:
    """Total generator count of the unreduced cube, sum over states of
    2**(number of circles)."""
    return sum(1 << k for k in circle_counts(d))


def random_diagram_stream(seed: int, count: int, max_crossings: int = 6,
                          max_genus: int = 3, max_word_len: int = 2,
                          size_cap: int = 40000):
    """Yields `count` seeded random diagrams whose cube fits under the cap."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        n = rng.randint(1, max_crossings)
        g = rng.randint(0, max_genus)
        n_loops = rng.randint(0, 1)
        d = random_diagram(rng, n, g, max_word_len, n_loops)
        if cube_size(d) > size_cap:
            continue
        yield d
        made += 1
