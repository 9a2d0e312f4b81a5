"""Words in the fundamental group of a closed oriented genus-g surface.

A word is a tuple of nonzero ints.  The generator pair of handle i (1-based)
is encoded as a_i = 2i-1 and b_i = 2i; negation is inversion.  The text form
is whitespace separated, lowercase for a generator, uppercase for its inverse,
with the handle index as a digit suffix ("a1 B2 a1").  The index may be
omitted for handle 1 ("a B").

Triviality and conjugacy are decided per genus: everything is trivial on the
sphere, the torus group is Z^2 (abelianization is faithful), and for genus
>= 2 we run Dehn's algorithm for the standard one-relator presentation
[a1,b1]...[ag,bg].  Conjugacy classes are taken up to inversion, since the
circles they grade are unoriented.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "Word",
    "parse_word",
    "word_to_str",
    "invert_word",
    "free_reduce",
    "cyclic_reduce",
    "dehn_reduce",
    "ConjClass",
    "Surface",
    "GradingElem",
    "grading_term",
    "grading_add",
    "grading_negate",
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


def _letter_key(letter: int) -> int:
    # lexicographic order a1 < a1^-1 < b1 < b1^-1 < a2 < ...
    return 2 * abs(letter) + (1 if letter < 0 else 0)


def word_key(w: Word) -> tuple:
    """Sort key: length first, then letter order."""
    return (len(w), tuple(_letter_key(x) for x in w))


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
        if suffix and not suffix.isdigit():
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


def dehn_reduce(w: Word, genus: int) -> Word:
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


def _cyclic_dehn_reduce(w: Word, genus: int) -> Word:
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


def _hyperbolic_class_word(w: Word, genus: int) -> Word:
    """Canonical cyclic word of the conjugacy class of w, up to inversion.

    Dehn-and-cyclically reduce w and w^-1, saturate the resulting set under
    replacements of subwords of length exactly half the relator (these
    preserve length but can relate distinct minimal words), and take the
    lexicographically least cyclic rotation over the whole set.  Any
    saturation step that shortens the word restarts from the shorter one.
    """
    _, half_repl, rel_len = _dehn_tables(genus)
    half = rel_len // 2
    seeds = {_cyclic_dehn_reduce(w, genus), _cyclic_dehn_reduce(invert_word(w), genus)}
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
            _cyclic_dehn_reduce(shorter, genus),
            _cyclic_dehn_reduce(invert_word(shorter), genus),
        }
    best: Word | None = None
    best_key = None
    for u in pool:
        for rot in range(max(1, len(u))):
            cand = u[rot:] + u[:rot]
            k = word_key(cand)
            if best_key is None or k < best_key:
                best, best_key = cand, k
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# conjugacy classes and the surface backend


@dataclass(frozen=True, slots=True)
class ConjClass:
    """Free homotopy class of an unoriented loop: a canonical cyclic word."""

    letters: Word

    @property
    def is_trivial(self) -> bool:
        return not self.letters

    def __lt__(self, other: "ConjClass") -> bool:
        return word_key(self.letters) < word_key(other.letters)

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
    the same circle words many times.
    """

    def __init__(self, genus: int):
        if genus < 0:
            raise ValueError("genus must be >= 0")
        self.genus = genus
        self._classes: dict[Word, ConjClass] = {}

    def is_trivial(self, w: Word) -> bool:
        check_word(w, self.genus)
        if self.genus == 0:
            return True
        if self.genus == 1:
            return _torus_exponents(w) == (0, 0)
        return not dehn_reduce(w, self.genus)

    def canonical_class(self, w: Word) -> ConjClass:
        w = tuple(w)
        hit = self._classes.get(w)
        if hit is not None:
            return hit
        check_word(w, self.genus)
        if self.genus == 0:
            cls = TRIVIAL_CLASS
        elif self.genus == 1:
            p, q = _torus_exponents(w)
            if (p, q) == (0, 0):
                cls = TRIVIAL_CLASS
            else:
                if p < 0 or (p == 0 and q < 0):
                    p, q = -p, -q
                letters = (1,) * p if p >= 0 else (-1,) * (-p)
                letters += (2,) * q if q >= 0 else (-2,) * (-q)
                cls = ConjClass(letters)
        else:
            reduced = _hyperbolic_class_word(w, self.genus)
            cls = TRIVIAL_CLASS if not reduced else ConjClass(reduced)
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

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def sort_key(self) -> tuple:
        return tuple((word_key(c.letters), k) for c, k in self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        body = "+".join(f"{k}*[{c}]" for c, k in self.terms)
        return body.replace("+-", "-")


ZERO_GRADING = GradingElem()


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
    return GradingElem(tuple(sorted(acc.items(), key=lambda t: word_key(t[0].letters))))


def grading_negate(x: GradingElem) -> GradingElem:
    return GradingElem(tuple((c, -k) for c, k in x.terms))
