"""Words in the fundamental group of a closed oriented genus-g surface.

A word is a tuple of nonzero ints.  The generator pair of handle i (1-based)
is encoded as a_i = 2i-1 and b_i = 2i; negation is inversion.  The text form
is whitespace separated, lowercase for a generator, uppercase for its inverse,
with the handle index as a digit suffix ("a1 B2 a1").  The index may be
omitted for handle 1 ("a B").

Triviality and conjugacy are decided per genus: everything is trivial on the
sphere, the torus group is Z^2 (abelianization is faithful), and for genus
>= 2 we run Dehn's algorithm for the standard one-relator presentation
r = [a1,b1]...[ag,bg].  The relator uses each of its 4g letters once, so a
segment of at most 4g letters is a subword of a rotation of r^+-1 exactly when
each letter is followed by its successor around r^+-1.  One left-to-right scan
over the maximal successor runs of a word finds all of them; the two successor
maps, filled in letter by letter as words use them, are all the state kept,
so a huge genus costs no more than the letters of its words.  Conjugacy
classes are taken up to inversion, since the circles they grade are
unoriented.  A class keeps its order key (length, then letter order) and its
hash from when it is made, so sorting, grading sums and tables never key a
class's word again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

__all__ = [
    "Word",
    "parse_word",
    "word_to_str",
    "invert_word",
    "free_reduce",
    "cyclic_reduce",
    "ConjClass",
    "Surface",
    "GradingElem",
]

Word = tuple[int, ...]


# ---------------------------------------------------------------------------
# letters and text form


def _letter_str(letter: int, show_index: bool = True) -> str:
    idx = (abs(letter) + 1) // 2
    kind = "a" if abs(letter) % 2 == 1 else "b"
    if letter < 0:
        kind = kind.upper()
    return f"{kind}{idx}" if show_index else kind


class _LetterKeys(dict):
    """Letter -> rank in a1 < a1^-1 < b1 < b1^-1 < a2 < ...; each letter's
    rank is computed on its first lookup and stored."""

    def __missing__(self, letter: int) -> int:
        self[letter] = key = 2 * abs(letter) + (letter < 0)
        return key


_LETTER_KEY = _LetterKeys()


def word_key(w: Word) -> tuple:
    """Sort key: length first, then letter order."""
    return (len(w), tuple(map(_LETTER_KEY.__getitem__, w)))


def parse_word(text: str, genus: int) -> Word:
    """Parse the text form of a word, validating handle indices against genus.

    >>> parse_word("a1 B2 a1", 2)
    (1, -4, 1)
    >>> parse_word("a B", 1)
    (1, -2)
    """
    letters = []
    for tok in text.split():
        kind = tok[0]
        if kind not in "abAB":
            raise ValueError(f"malformed word token {tok!r}: expected a/b generator")
        suffix = tok[1:]
        if suffix and not (suffix.isascii() and suffix.isdigit()):
            raise ValueError(f"malformed word token {tok!r}: bad handle index")
        idx = int(suffix) if suffix else 1
        if idx < 1 or idx > genus:
            raise ValueError(
                f"malformed word token {tok!r}: handle index exceeds genus {genus}"
            )
        letter = 2 * idx - 1 if kind.lower() == "a" else 2 * idx
        if kind.isupper():
            letter = -letter
        letters.append(letter)
    return tuple(letters)


def word_to_str(w: Word, genus: int = 0) -> str:
    """Text form of a word; handle indices are omitted on the torus."""
    show = genus != 1
    return " ".join(_letter_str(x, show) for x in w)


def check_word(w: Word, genus: int) -> None:
    for x in w:
        if x == 0 or abs(x) > 2 * genus:
            raise ValueError(
                f"malformed word: letter {x} out of range for genus {genus}"
            )


# ---------------------------------------------------------------------------
# free group reductions


def invert_word(w: Word) -> Word:
    return tuple(-x for x in reversed(w))


def free_reduce(w: Word) -> Word:
    """Cancel adjacent inverse pairs until none remain.

    >>> free_reduce((1, 2, -2, -1, 3))
    (3,)
    """
    out: list[int] = []
    for x in w:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def cyclic_reduce(w: Word) -> Word:
    """Freely reduce, then strip inverse pairs from the two ends.

    >>> cyclic_reduce((1, 2, 3, -2, -1))
    (3,)
    """
    w = free_reduce(w)
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i += 1
        j -= 1
    return w[i:j]


# ---------------------------------------------------------------------------
# Dehn's algorithm for the genus-g relator [a1,b1]...[ag,bg]


class _Successors(dict):
    """The letter after each letter around r (step 1) or r^-1 (step -1), filled
    in when first asked for.  Handle indices wrap mod g: a_i b_i A_i B_i a_(i+1)
    around r, and b_i a_i B_i A_i b_(i-1) around r^-1."""

    def __init__(self, genus: int, step: int):
        super().__init__()
        self.genus, self.step = genus, step

    def __missing__(self, x: int) -> int:
        i = (abs(x) + 1) // 2
        a, b, nxt = 2 * i - 1, 2 * i, (i - 1 + self.step) % self.genus + 1
        cycle = [a, b, -a, -b, 2 * nxt - 1] if self.step > 0 else [b, a, -b, -a, 2 * nxt]
        y = self[x] = cycle[cycle.index(x) + 1]
        return y


@lru_cache(maxsize=None)
def _successors(genus: int) -> tuple[_Successors, _Successors]:
    """The successor maps around r and around r^-1."""
    if genus < 2:
        raise ValueError("Dehn reduction needs genus >= 2")
    return _Successors(genus, 1), _Successors(genus, -1)


def _runs(w: Word, stop: int, genus: int):
    """Maximal successor runs of w that start before ``stop``, left to right.

    Yields (start, end, succ): every letter of w[start:end - 1] is followed by
    its successor under succ, one of the two maps of ``_successors``, and the
    run extends neither way.  No letter pair follows both maps, so two runs
    share at most one letter.  A run of up to 4g letters is a subword of a
    rotation of r or r^-1, and every such subword lies in one run.
    """
    maps = _successors(genus)
    last = len(w) - 1
    s = 0
    while s < stop and s < last:
        for succ in maps:
            if succ[w[s]] == w[s + 1]:
                e = s + 2
                while e <= last and succ[w[e - 1]] == w[e]:
                    e += 1
                yield s, e, succ
                s = e - 1
                break
        else:
            s += 1


def _complement(w: Word, i: int, length: int, succ: _Successors) -> Word:
    """v^-1 for the rotation u v of r^+-1 that starts with u = w[i:i + length]:
    u v = 1, so u = v^-1.  v has 4g - length letters, read along succ on from
    the last letter of u."""
    x, rest = w[i + length - 1], []
    for _ in range(4 * succ.genus - length):
        x = succ[x]
        rest.append(-x)
    return tuple(reversed(rest))


def _longest_run(w: Word, stop: int, genus: int):
    """(start, length, complement) of the leftmost longest run segment of w that
    starts before ``stop``, longer than 2g and at most min(4g, stop); or None."""
    cap = min(4 * genus, stop)
    best, size = None, 2 * genus
    for s, e, succ in _runs(w, stop, genus):
        length = min(e - s, cap)
        if length > size:
            best, size = (s, succ), length
            if size == cap:
                break
    if best is None:
        return None
    return best[0], size, _complement(w, best[0], size, best[1])


def _cyclic_dehn_reduce(w: Word, genus: int) -> Word:
    """Dehn-reduce a cyclic word: replacements may wrap around the end."""
    w = cyclic_reduce(w)
    while w and (hit := _longest_run(dbl := w + w, len(w), genus)):
        i, length, repl = hit
        w = cyclic_reduce(repl + dbl[i + length : i + len(w)])
    return w


def _hyperbolic_class_word(w: Word, genus: int) -> Word:
    """Canonical cyclic word of the conjugacy class of w, up to inversion.

    Dehn-and-cyclically reduce w and w^-1, saturate the resulting set under
    replacements of subwords of length exactly half the relator (these
    preserve length but can relate distinct minimal words), and take the
    lexicographically least cyclic rotation over the whole set.  Any
    saturation step that shortens the word restarts from the shorter one.
    """
    half = 2 * genus
    seed: Word | None = w
    while seed is not None:
        queue = list({_cyclic_dehn_reduce(seed, genus),
                      _cyclic_dehn_reduce(invert_word(seed), genus)})
        pool: set[Word] = set()
        seed = None
        while queue:
            u = queue.pop()
            if u in pool:
                continue
            pool.add(u)
            m = len(u)
            if m < half:
                continue
            dbl = u + u
            starts = ((i, succ) for s, e, succ in _runs(dbl, m, genus)
                      for i in range(s, min(e - half + 1, m)))
            for i, succ in starts:
                v = cyclic_reduce(_complement(dbl, i, half, succ)
                                  + dbl[i + half : i + m])
                if len(v) < m:
                    seed = v
                    break
                if v not in pool:
                    queue.append(v)
            if seed is not None:
                break
    # the key of a rotation is the rotation of the key: key each word once.
    # Letters have distinct keys, so only a rotation that starts at its
    # word's least letter can be least
    rotations = [((m, ku[r:] + ku[:r]), u[r:] + u[:r])
                 for u in pool for m, ku in (word_key(u),) for lo in (min(ku, default=0),)
                 for r in range(m) if ku[r] == lo]
    return min(rotations)[1] if rotations else ()


# ---------------------------------------------------------------------------
# conjugacy classes and the surface backend


@dataclass(frozen=True, slots=True)
class ConjClass:
    """Free homotopy class of an unoriented loop: a canonical cyclic word.

    Equality and hashing are those of ``letters``; the order key
    ``word_key(letters)`` and the hash are computed once, when it is made.
    """

    letters: Word
    key: tuple = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", word_key(self.letters))
        object.__setattr__(self, "_hash", hash(self.letters))

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_trivial(self) -> bool:
        return not self.letters

    def __lt__(self, other: "ConjClass") -> bool:
        return self.key < other.key

    def __str__(self) -> str:
        return word_to_str(self.letters) if self.letters else "1"


TRIVIAL_CLASS = ConjClass(())


def _torus_exponents(w: Word) -> tuple[int, int]:
    p = sum(1 if x == 1 else -1 for x in w if abs(x) == 1)
    q = sum(1 if x == 2 else -1 for x in w if abs(x) == 2)
    return p, q


def torus_class_exponents(c: ConjClass) -> tuple[int, int]:
    """(p, q) of a canonical torus class word a^p b^q."""
    return _torus_exponents(c.letters)


class Surface:
    """Triviality and conjugacy decisions for one closed oriented surface.

    Canonical class words are memoized per instance: the state cube revisits
    the same circle words many times.  Classes are interned per instance too,
    so every word of one class maps to one ConjClass object.
    """

    def __init__(self, genus: int):
        if genus < 0:
            raise ValueError("genus must be >= 0")
        self.genus = genus
        self._classes: dict[Word, ConjClass] = {}
        self._interned: dict[Word, ConjClass] = {(): TRIVIAL_CLASS}

    def is_trivial(self, w: Word) -> bool:
        return self.canonical_class(w).is_trivial

    def canonical_class(self, w: Word) -> ConjClass:
        """The class of w, which need not be reduced."""
        w = tuple(w)
        hit = self._classes.get(w)
        if hit is not None:
            return hit
        check_word(w, self.genus)
        # traced circle words come unreduced: words that differ by cancelling
        # pairs share the memo entry of their free reduction
        reduced = free_reduce(w)
        cls = self._classes.get(reduced)
        if cls is None:
            if self.genus == 0:
                letters: Word = ()
            elif self.genus == 1:
                p, q = _torus_exponents(reduced)
                if p < 0 or (p == 0 and q < 0):
                    p, q = -p, -q
                letters = (1,) * p + ((2,) * q if q >= 0 else (-2,) * -q)
            else:
                letters = _hyperbolic_class_word(reduced, self.genus)
            cls = self._interned.get(letters)
            if cls is None:
                cls = self._interned[letters] = ConjClass(letters)
            self._classes[reduced] = cls
        self._classes[w] = cls
        return cls


# ---------------------------------------------------------------------------
# the grading group: free abelian on nontrivial classes


@dataclass(frozen=True, slots=True)
class GradingElem:
    """Element of the free abelian group on nontrivial unoriented classes.

    ``terms`` is sorted by class and carries no zero coefficients, so equality
    and hashing are structural.
    """

    terms: tuple[tuple[ConjClass, int], ...] = ()

    def sort_key(self) -> tuple:
        return tuple((c.key, k) for c, k in self.terms)

    def render(self, name: Callable[[ConjClass], str]) -> str:
        """The text form, "0" or "k*[class]" terms, each class spelled by name."""
        if not self.terms:
            return "0"
        return "+".join(f"{k}*[{name(c)}]" for c, k in self.terms).replace("+-", "-")

    def __str__(self) -> str:
        return self.render(str)


ZERO_GRADING = GradingElem()
