import math
import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsagg import gf
from hsagg.gf import (
    DuplicatePointsError,
    Matrix,
    PrimeField,
    SingularMatrixError,
    every_subset_full_rank,
    is_prime,
    matmul_mod,
    vandermonde,
)


def brute_force_rank(m: Matrix) -> int:
    """Span enumeration: grow the row span set by set; rank = log_q |span|."""
    q = m.field.q
    span = {(0,) * m.ncols}
    for row in m.rows:
        additions = set()
        for v in span:
            for c in range(1, q):
                additions.add(tuple((a + c * b) % q for a, b in zip(v, row)))
        span |= additions
    r = round(math.log(len(span), q))
    assert q**r == len(span)
    return r


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 53, 4001, 5953, 2147483647}
    for p in primes:
        assert is_prime(p)
    for n in (0, 1, 4, 9, 3953, 3961, 5921):
        assert not is_prime(n)


def test_field_construction_rejects_bad_moduli():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField(2**31 + 11)


def test_inverse_known_values():
    for q in (3, 7, 53):
        assert PrimeField(q).inv(1) == 1
    assert PrimeField(3).inv(2) == 2
    assert PrimeField(7).inv(5) == 3


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        PrimeField(7).inv(0)


@given(st.sampled_from([2, 3, 7, 31, 101]), st.integers(min_value=1, max_value=10**6))
def test_inverse_involution(q, raw):
    field = PrimeField(q)
    a = raw % q
    if a == 0:
        a = 1
    inv = field.inv(a)
    assert a * inv % q == 1
    assert field.inv(inv) == a


def test_rank_trivial_cases():
    gf5 = PrimeField(5)
    assert Matrix.identity(gf5, 3).rank() == 3
    assert Matrix.zeros(gf5, 2, 2).rank() == 0
    assert Matrix(gf5, [[1, 2], [2, 4]]).rank() == 1


def test_rank_matches_span_enumeration_oracle():
    rng = random.Random(20240917)
    for q in (2, 3):
        field = PrimeField(q)
        for _ in range(25):
            n = rng.randint(1, 4)
            m = Matrix(field, [[rng.randrange(q) for _ in range(n)] for _ in range(n)])
            assert m.rank() == brute_force_rank(m)


def test_inverse_round_trips():
    gf3 = PrimeField(3)
    ident = Matrix.identity(gf3, 4)
    assert ident.inverse() == ident
    assert Matrix(gf3, [[2]]).inverse() == Matrix(gf3, [[2]])

    gf7 = PrimeField(7)
    v = vandermonde(gf7, (1, 2, 3), 3)
    assert v @ v.inverse() == Matrix.identity(gf7, 3)
    assert v.inverse() @ v == Matrix.identity(gf7, 3)


def test_singular_inverse_reports_rank():
    gf5 = PrimeField(5)
    with pytest.raises(SingularMatrixError) as err:
        Matrix(gf5, [[1, 2], [2, 4]]).inverse()
    assert err.value.rank == 1


def test_nullspace_cases():
    gf3 = PrimeField(3)
    assert Matrix.identity(gf3, 3).nullspace() is None

    m = Matrix(gf3, [[1, 1]])
    basis = m.nullspace()
    assert basis.ncols == 1
    assert (m @ basis).is_zero()
    # the basis vector is a nonzero multiple of (1, 2)
    col = basis.column(0)
    assert col in {(1, 2), (2, 1)}


def test_nullspace_dimension_property():
    rng = random.Random(7)
    gf5 = PrimeField(5)
    for _ in range(30):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = Matrix(gf5, [[rng.randrange(5) for _ in range(cols)] for _ in range(rows)])
        basis = m.nullspace()
        dim = 0 if basis is None else basis.ncols
        assert dim == cols - m.rank()
        if basis is not None:
            assert (m @ basis).is_zero()
            assert basis.rank() == dim


def test_vandermonde_shapes_and_values():
    gf7 = PrimeField(7)
    assert vandermonde(gf7, (1,), 3).rows == ((1, 1, 1),)
    assert vandermonde(gf7, (1, 2, 3), 3).rank() == 3
    assert vandermonde(gf7, (0, 1), 2).rows == ((1, 0), (1, 1))
    with pytest.raises(DuplicatePointsError):
        vandermonde(gf7, (1, 8), 2)  # collide mod 7


def test_vandermonde_full_column_rank():
    gf31 = PrimeField(31)
    for ncols in range(1, 6):
        assert vandermonde(gf31, (1, 4, 9, 16, 25), ncols).rank() == ncols


def test_matrix_multiply_and_stack():
    gf5 = PrimeField(5)
    a = Matrix(gf5, [[1, 2], [3, 4]])
    b = Matrix(gf5, [[0, 1], [1, 0]])
    assert a @ b == Matrix(gf5, [[2, 1], [4, 3]])
    assert a.hstack(b).ncols == 4
    assert a.take_rows([1]).rows == ((3, 4),)
    assert a.take_cols([0]).column(0) == (1, 3)
    assert a.transpose().rows == ((1, 3), (2, 4))


def _matmul_reference(a, b, q):
    return [[sum(x * y for x, y in zip(row, col)) % q for col in zip(*b)] for row in a]


def test_matmul_mod_matches_python_ints_at_largest_field():
    q = 2147483629  # largest prime below 2**31 with q = 1 mod 12
    rng = random.Random(5)
    # q - 1 is the largest element; 0x7FFEFFFF has all-ones low 16 bits.
    extremes = (q - 1, 0x7FFEFFFF)
    for m, n, p in [(1, 1, 1), (3, 5, 4), (6, 7, 40)]:
        a = [[rng.choice(extremes) if rng.random() < 0.3 else rng.randrange(q) for _ in range(n)]
             for _ in range(m)]
        b = [[rng.choice(extremes) if rng.random() < 0.3 else rng.randrange(q) for _ in range(p)]
             for _ in range(n)]
        got = matmul_mod(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), q)
        assert got.tolist() == _matmul_reference(a, b, q)
    stack_a = np.array([[[q - 1] * 3] * 2, [[1, 2, 3], [4, 5, 6]]], dtype=np.int64)
    stack_b = np.full((2, 3, 4), 0x7FFEFFFF, dtype=np.int64)
    got = matmul_mod(stack_a, stack_b, q)
    for s in range(2):
        assert got[s].tolist() == _matmul_reference(stack_a[s].tolist(), stack_b[s].tolist(), q)


def _one_product_edge(n):
    """The largest prime q with n * (q-1)**2 < 2**63, and the next prime."""
    below = math.isqrt(((1 << 63) - 1) // n) + 1
    while not is_prime(below):
        below -= 1
    above = below + 1
    while not is_prime(above):
        above += 1
    return below, above


@pytest.mark.parametrize("n", [3, 7, 40])
def test_matmul_mod_on_both_sides_of_the_one_product_bound(n):
    # Below the bound one int64 product cannot wrap; at the next prime a
    # row of q - 1 against a column of q - 1 would, so it takes the split.
    below, above = _one_product_edge(n)
    assert n * (below - 1) ** 2 < 1 << 63 <= n * (above - 1) ** 2 and above < 1 << 31
    rng = random.Random(n)
    for q in (below, above):
        a = [[q - 1] * n, [rng.randrange(q) for _ in range(n)]]
        b = [[q - 1, rng.randrange(q), 0x7FFEFFFF % q] for _ in range(n)]
        got = matmul_mod(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), q)
        assert got.tolist() == _matmul_reference(a, b, q)
        stack_a = np.array([a, a[::-1]], dtype=np.int64)
        stack_b = np.array([b, [row[::-1] for row in b]], dtype=np.int64)
        got = matmul_mod(stack_a, stack_b, q)
        for s in range(2):
            assert got[s].tolist() == _matmul_reference(
                stack_a[s].tolist(), stack_b[s].tolist(), q
            )


def test_matmul_mod_largest_inner_dimension():
    q = 2147483629
    n = (1 << 16) - 1
    a = np.full((1, n), q - 1, dtype=np.int64)
    b = np.full((n, 1), 0x7FFEFFFF, dtype=np.int64)
    assert matmul_mod(a, b, q).tolist() == [[(q - 1) * 0x7FFEFFFF * n % q]]
    with pytest.raises(ValueError):
        matmul_mod(np.zeros((1, n + 1), dtype=np.int64), np.zeros((n + 1, 1), dtype=np.int64), q)
    with pytest.raises(ValueError):
        matmul_mod(a[:, :1], b[:1], 1 << 31)


def subsets_full_rank_reference(m: Matrix, size: int) -> bool:
    return all(m.take_rows(rows).rank() == size for rows in combinations(range(m.nrows), size))


@pytest.mark.parametrize("q", [2, 3, 5, 7, 13, 305017, 2147483629, 2147483647])
def test_every_subset_full_rank_matches_per_subset_rank(q, monkeypatch):
    rng = random.Random(q)
    field = PrimeField(q)
    verdicts, shapes = set(), set()
    for _ in range(300):
        monkeypatch.setattr(gf, "_SUBSET_CHUNK", rng.choice([1, 2, 3, 4096]))
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 6)
        size = rng.randint(1, nrows)
        rows = [[rng.randrange(q) for _ in range(ncols)] for _ in range(nrows)]
        if nrows >= 3 and rng.random() < 0.5:
            # Large fields almost never draw a dependent subset; plant one.
            i, *others = rng.sample(range(nrows), rng.randint(2, min(nrows, 4)))
            rows[i] = [sum(rng.randrange(q) * rows[j][c] for j in others) % q for c in range(ncols)]
        m = Matrix(field, rows)
        expected = subsets_full_rank_reference(m, size)
        assert every_subset_full_rank(m, size) == expected, (rows, size)
        verdicts.add(expected)
        shapes.add((size > ncols) - (size < ncols))
    assert verdicts == {True, False} and shapes == {-1, 0, 1}


def test_every_subset_full_rank_at_int64_headroom():
    # Entries at or just below q - 1 make each fraction-free product
    # pv * t and c * pivot_row about (q - 1)**2, just under 2**62.
    q = 2147483647
    field = PrimeField(q)
    flat = Matrix(field, [[q - 1] * 4 for _ in range(5)])
    assert every_subset_full_rank(flat, 1)
    assert not every_subset_full_rank(flat, 2)
    near = Matrix(field, [[-v % q for v in row] for row in vandermonde(field, range(1, 8), 3).rows])
    assert every_subset_full_rank(near, 3)
    planted_row = tuple((a + b) % q for a, b in zip(near.rows[1], near.rows[4]))
    planted = Matrix(field, near.rows + (planted_row,))
    assert min(x for row in planted.rows for x in row) >= q - 100
    for m, size in [(flat, 1), (flat, 2), (near, 3), (planted, 2), (planted, 3)]:
        assert every_subset_full_rank(m, size) == subsets_full_rank_reference(m, size)
    assert not every_subset_full_rank(planted, 3)


def test_every_subset_full_rank_finds_singular_subset_past_first_chunk():
    field = PrimeField(2147483629)
    mds = vandermonde(field, range(1, 17), 8)  # any 8 of the 16 rows are independent
    assert every_subset_full_rank(mds, 8)
    rng = random.Random(0)
    coeffs = [rng.randrange(1, field.q) for _ in range(7)]
    rows = list(mds.rows)
    rows[15] = [sum(c * x for c, x in zip(coeffs, col)) % field.q for col in zip(*rows[8:15])]
    broken = Matrix(field, rows)
    subsets = list(combinations(range(16), 8))
    assert len(subsets) > 3 * gf._SUBSET_CHUNK
    # Row 15 is the only changed row, and no subset with it in the first
    # chunk is singular: the only singular subset found is rows 8..15.
    assert all(
        broken.take_rows(s).rank() == 8 for s in subsets[: gf._SUBSET_CHUNK] if 15 in s
    )
    assert broken.take_rows(subsets[-1]).rank() == 7
    assert not every_subset_full_rank(broken, 8)


@pytest.mark.parametrize("chunk", [1, 2, 3, 4096])
def test_every_subset_full_rank_below_ncols_and_single_rows(chunk, monkeypatch):
    monkeypatch.setattr(gf, "_SUBSET_CHUNK", chunk)
    field = PrimeField(13)
    mds = vandermonde(field, range(1, 10), 6)  # any 6 of the 9 rows are independent
    for size in range(1, 7):
        assert every_subset_full_rank(mds, size)
    rows = list(mds.rows)
    rows[7] = [(2 * a + 5 * b) % 13 for a, b in zip(rows[1], rows[4])]
    planted = Matrix(field, rows)  # rows 1, 4 and 7 are dependent, no two are
    rows[2] = [0] * 6
    zero_row = Matrix(field, rows)
    cases = [(planted, 1, True), (planted, 2, True), (planted, 3, False), (planted, 5, False),
             (zero_row, 1, False), (zero_row, 2, False), (mds, 7, False)]
    for m, size, expected in cases:
        assert every_subset_full_rank(m, size) == expected
        assert subsets_full_rank_reference(m, size) == expected


def test_every_subset_full_rank_peak_memory_at_20_by_10():
    # All C(20, 10) = 184756 subsets pass, so the whole prefix tree is
    # walked.  Batches of _SUBSET_CHUNK prefixes peak near 10.3 MiB here;
    # extending a whole level at once would hold every prefix's basis.
    field = PrimeField(2147483629)
    mds = vandermonde(field, range(1, 21), 10)
    tracemalloc.start()
    try:
        assert every_subset_full_rank(mds, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20
