"""Dense GF(2) matrices with rows bit-packed into python ints.

Column j of a row is bit j.  Matrices are immutable after construction.
`leads_of` is the one leading-bit echelon reduction: it reads its rows once,
in order, so a caller may stream rows it makes on the fly (chain's wide
boundary maps do), and hands back the leading columns of its pivots as a set
of ints, whose size is the rank.  `product_rows` composes two row lists.
A row already in range is kept as the int it was given, so a matrix shares
its rows with its builder instead of holding a second copy of each.

The leads serve clearing (Chen and Kerber, "Persistent homology computation
with a twist", EuroCG 2011; Bauer, Kerber and Reininghaus, "Clear and
compress", 2014).  For maps A, B with A·B = 0, the rank of B is the rank of
its rows outside A's leads: a pivot p of A is a sum of A's rows, so the sum
of B's rows at p's set bits is 0, and B's row at p's lead L is the sum of its
rows at p's lower bits.  The leads are distinct, so in increasing order each
skipped row is a sum of rows kept.  `GF2Matrix.leads` ranks with a skip set;
`rank` is the size of the leads with none skipped.
"""

from __future__ import annotations

from typing import Container, Iterable, Sequence

__all__ = ["GF2Matrix", "leads_of", "product_rows"]


def leads_of(rows: Iterable[int]) -> set[int]:
    """Leading columns of the pivots of the rows, each read once; only the
    pivots are kept, and only their leads outlive the call.  Each pivot is
    dropped before the set of leads is made, so the two never coexist."""
    pivots: dict[int, int] = {}
    for row in rows:
        x = row
        while x:
            lead = x.bit_length() - 1
            p = pivots.get(lead)
            if p is None:
                pivots[lead] = x
                break
            x ^= p
    for lead in pivots:
        pivots[lead] = 0
    return set(pivots)


def product_rows(rows: Iterable[int], other: Sequence[int]) -> list[int]:
    """Rows of the product: each row is the XOR of the rows of `other` at its set bits."""
    out = []
    for row in rows:
        acc = 0
        x = row
        while x:
            low = x & -x
            acc ^= other[low.bit_length() - 1]
            x ^= low
        out.append(acc)
    return out


class GF2Matrix:
    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows: Iterable[int] | None = None):
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.nrows = nrows
        self.ncols = ncols
        mask = (1 << ncols) - 1
        self.rows = ([0] * nrows if rows is None
                     else [r if 0 <= r <= mask else r & mask for r in rows])
        if len(self.rows) != nrows:
            raise ValueError("row count mismatch")

    @classmethod
    def from_entries(cls, nrows: int, ncols: int, entries) -> "GF2Matrix":
        rows = [0] * nrows
        for r, c in entries:
            rows[r] ^= 1 << c
        return cls(nrows, ncols, rows)

    @classmethod
    def identity(cls, n: int) -> "GF2Matrix":
        return cls(n, n, [1 << i for i in range(n)])

    def get(self, r: int, c: int) -> int:
        return (self.rows[r] >> c) & 1

    def is_zero(self) -> bool:
        return not any(self.rows)

    def rank(self) -> int:
        return len(self.leads(()))

    def leads(self, skip: Container[int]) -> set[int]:
        """Pivot leads of the rows whose index is not in skip."""
        return leads_of(r for k, r in enumerate(self.rows) if k not in skip)

    def multiply(self, other: "GF2Matrix") -> "GF2Matrix":
        """self @ other, composing self after other would be other-first;
        here rows(self) x cols(other) with self.ncols == other.nrows."""
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch in GF(2) product")
        return GF2Matrix(self.nrows, other.ncols, product_rows(self.rows, other.rows))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GF2Matrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        return f"GF2Matrix({self.nrows}x{self.ncols})"
