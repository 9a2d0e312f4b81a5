"""Bit-packed GF(2) matrices against naive list-of-lists oracles."""

import random

from hypothesis import given, strategies as st

from hkhovanov.gf2 import GF2Matrix, leads_of, product_rows

from oracles import kernel_dim, naive_rank, transpose

import pytest


def to_lists(m: GF2Matrix) -> list[list[int]]:
    return [[m.get(r, c) for c in range(m.ncols)] for r in range(m.nrows)]


def random_matrix(rng: random.Random, nrows: int, ncols: int) -> GF2Matrix:
    rows = [rng.getrandbits(ncols) if ncols else 0 for _ in range(nrows)]
    return GF2Matrix(nrows, ncols, rows)


def test_rank_examples():
    assert GF2Matrix.identity(3).rank() == 3
    assert kernel_dim(GF2Matrix.identity(3).rows, 3) == 0
    ones = GF2Matrix(2, 2, [0b11, 0b11])
    assert ones.rank() == 1
    assert kernel_dim(ones.rows, 2) == 1
    zero = GF2Matrix(4, 7)
    assert zero.rank() == 0
    assert kernel_dim(zero.rows, 7) == 7
    assert zero.is_zero()


def test_rank_matches_oracle_on_200_random_matrices():
    rng = random.Random(0)
    for _ in range(200):
        nrows = rng.randrange(0, 65)
        ncols = rng.randrange(0, 65)
        m = random_matrix(rng, nrows, ncols)
        r = m.rank()
        assert r == naive_rank(to_lists(m))
        assert r == GF2Matrix(ncols, nrows, transpose(m.rows, ncols)).rank()
        assert kernel_dim(m.rows, ncols) == ncols - r


def test_rank_of_reads_a_stream_of_rows_once():
    # the elimination behind GF2Matrix.rank also takes rows made on the fly
    rng = random.Random(2)
    for _ in range(50):
        m = random_matrix(rng, rng.randrange(0, 40), rng.randrange(0, 40))
        assert len(leads_of(iter(m.rows))) == m.rank() == naive_rank(to_lists(m))


def left_kernel(rows: list[int]) -> list[int]:
    """A basis of the vectors v (bit t picks row t) whose picked rows XOR to 0."""
    pivots: dict[int, tuple[int, int]] = {}
    basis = []
    for t, row in enumerate(rows):
        x, v = row, 1 << t
        while x:
            lead = x.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = x, v
                break
            px, pv = pivots[lead]
            x, v = x ^ px, v ^ pv
        else:
            basis.append(v)
    return basis


def test_clearing_keeps_the_rank_of_the_next_map():
    # for A·B = 0, a pivot of A with lead L is a sum of A's rows, so B's row
    # L is the sum of B's rows at the pivot's lower bits: B ranked without
    # its rows at A's leads has B's rank
    rng = random.Random(5)
    cleared = 0
    for _ in range(200):
        k, r, n = rng.randrange(1, 40), rng.randrange(0, 12), rng.randrange(0, 30)
        # B of rank at most r, so its left kernel has dimension k - rank(B)
        b = random_matrix(rng, k, r).multiply(random_matrix(rng, r, n))
        kernel = left_kernel(b.rows)
        a_rows = []
        for _ in range(rng.randrange(0, 30)):
            acc = 0
            for v in kernel:
                acc ^= v if rng.getrandbits(1) else 0
            a_rows.append(acc)
        a = GF2Matrix(len(a_rows), k, a_rows)
        assert a.multiply(b).is_zero()
        leads = leads_of(a.rows)
        assert type(leads) is set and len(leads) == a.rank()
        assert len(b.leads(leads)) == b.rank() == naive_rank(to_lists(b))
        cleared += len(leads)
    assert cleared > 1000


def test_product_rows_is_the_product_of_row_lists():
    rng = random.Random(3)
    for _ in range(50):
        k = rng.randrange(1, 20)
        a = random_matrix(rng, rng.randrange(0, 20), k)
        b = random_matrix(rng, k, rng.randrange(0, 20))
        assert product_rows(iter(a.rows), b.rows) == a.multiply(b).rows


def test_multiply_examples():
    a = GF2Matrix(1, 2, [0b11])
    b = GF2Matrix(2, 1, [1, 1])
    assert a.multiply(b) == GF2Matrix(1, 1, [0])
    m = random_matrix(random.Random(1), 5, 5)
    assert m.multiply(GF2Matrix.identity(5)) == m
    assert GF2Matrix.identity(5).multiply(m) == m
    assert m.multiply(GF2Matrix(5, 3)).is_zero()


def test_multiply_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        GF2Matrix(2, 3).multiply(GF2Matrix(2, 3))


@given(st.integers(0, 2**30), st.data())
def test_multiply_is_associative(seed, data):
    rng = random.Random(seed)
    p, q, r, s = (rng.randrange(0, 7) for _ in range(4))
    a = random_matrix(rng, p, q)
    b = random_matrix(rng, q, r)
    c = random_matrix(rng, r, s)
    assert a.multiply(b).multiply(c) == a.multiply(b.multiply(c))


def test_multiply_agrees_with_entrywise_product():
    rng = random.Random(2)
    for trial in range(36):
        # the last few span several machine words per row
        size = 9 if trial < 30 else 90
        a = random_matrix(rng, rng.randrange(1, size), rng.randrange(1, size))
        b = random_matrix(rng, a.ncols, rng.randrange(1, size))
        prod = a.multiply(b)
        for i in range(a.nrows):
            for k in range(b.ncols):
                want = sum(a.get(i, j) * b.get(j, k) for j in range(a.ncols)) % 2
                assert prod.get(i, k) == want


def test_from_entries_xors_duplicates():
    m = GF2Matrix.from_entries(2, 2, [(0, 1), (0, 1), (1, 0)])
    assert m == GF2Matrix(2, 2, [0, 1])


def test_transpose_is_an_involution():
    rng = random.Random(3)
    for trial in range(24):
        size = 10 if trial < 20 else 90
        m = random_matrix(rng, rng.randrange(0, size), rng.randrange(0, size))
        t = GF2Matrix(m.ncols, m.nrows, transpose(m.rows, m.ncols))
        assert to_lists(t) == [[m.get(r, c) for r in range(m.nrows)]
                               for c in range(m.ncols)]
        assert GF2Matrix(m.nrows, m.ncols, transpose(t.rows, t.ncols)) == m


def test_in_range_rows_are_kept_without_a_copy():
    rng = random.Random(4)
    for ncols in (0, 1, 63, 64, 65, 300):
        rows = [0, (1 << ncols) - 1] + [rng.getrandbits(ncols) for _ in range(5)]
        m = GF2Matrix(len(rows), ncols, rows)
        assert all(m.rows[i] is rows[i] for i in range(len(rows)))


def test_row_masking_and_validation():
    m = GF2Matrix(1, 2, [0b111])
    assert m.rows == [0b11]
    # out-of-range and negative rows keep their low ncols bits
    rng = random.Random(5)
    for ncols in (0, 1, 2, 63, 64, 65, 300):
        mask = (1 << ncols) - 1
        rows = [-1, -(1 << 400), 1 << ncols, -rng.getrandbits(350),
                rng.getrandbits(350), (1 << 500) | rng.getrandbits(ncols)]
        assert GF2Matrix(len(rows), ncols, rows).rows == [r & mask for r in rows]
    assert GF2Matrix(2, 3, [-1, 0b1010]).rows == [0b111, 0b010]
    with pytest.raises(ValueError, match="row count"):
        GF2Matrix(2, 2, [0])
    with pytest.raises(ValueError, match="nonnegative"):
        GF2Matrix(-1, 2)


def test_rows_may_be_any_iterable():
    # packaging hands over a generator of rows, whose list is made once
    assert GF2Matrix(2, 3, iter([1, 9])).rows == [1, 1]
    assert GF2Matrix(2, 3, (r for r in [0b111, 0b110])).rows == [0b111, 0b110]
    for rows in ([0], [1, 2, 3]):
        with pytest.raises(ValueError, match="row count mismatch"):
            GF2Matrix(2, 3, iter(rows))
