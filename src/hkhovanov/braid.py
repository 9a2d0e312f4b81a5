"""Closures of braid words as surface diagrams.

A braid word is a list of nonzero integers: k means strand k-1 passes over
strand k (positions are 0-based, generators 1-based as usual), -k the
reverse.  Every crossing made by generator k is positive, by -k negative.
The closure arcs may carry words, which is how a classical braid gets
embedded in a higher genus surface in an interesting way.
"""

from __future__ import annotations

from .diagram import Diagram, HEAD, TAIL
from .moves import _splice
from .words import parse_word


def braid_closure(letters: list[int], strands: int, genus: int = 0,
                  closure_words: list[str] | None = None) -> Diagram:
    if strands < 1:
        raise ValueError("need at least one strand")
    if closure_words is None:
        closure_words = [""] * strands
    if len(closure_words) != strands:
        raise ValueError("one closure word per strand position")
    # strand p starts on edge p; crossing n makes edges strands + 2n, strands + 2n + 1
    cur = list(range(strands))
    crossings = []
    for n, v in enumerate(letters):
        k = abs(v)
        if v == 0 or k >= strands:
            raise ValueError(f"generator {v} out of range for {strands} strands")
        a, b = strands + 2 * n, strands + 2 * n + 1
        # slots run counterclockwise from the under-in ray; with the braid
        # flowing downward the rays read NW, SW, SE, NE
        if v > 0:
            crossings.append(((cur[k - 1], HEAD), (a, TAIL), (b, TAIL),
                              (cur[k], HEAD)))
        else:
            crossings.append(((cur[k], HEAD), (cur[k - 1], HEAD), (a, TAIL),
                              (b, TAIL)))
        cur[k - 1], cur[k] = a, b

    words = [()] * (strands + 2 * len(letters))
    for p in range(strands):
        words[p] = parse_word(closure_words[p], genus)
    # each strand's last arc feeds its first, which carries the closure word
    open_braid = Diagram(genus, tuple(words), tuple(crossings), ())
    return _splice(open_braid, set(), set(), {cur[p]: p for p in range(strands)})
