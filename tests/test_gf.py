import math
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsagg.gf import (
    DuplicatePointsError,
    Matrix,
    PrimeField,
    SingularMatrixError,
    every_subset_full_rank,
    is_prime,
    matmul_mod,
    mod,
    one_product_fits,
    power_table,
    rank_mod,
    vandermonde,
)


def brute_force_rank(m: Matrix) -> int:
    """Span enumeration: grow the row span set by set; rank = log_q |span|."""
    q = m.field.q
    span = {(0,) * m.ncols}
    for row in m.a.tolist():
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
    for m, rank in [
        (Matrix.identity(gf5, 3), 3),
        (Matrix(gf5, np.zeros((2, 2), np.int64)), 0),
        (Matrix(gf5, [[1, 2], [2, 4]]), 1),
    ]:
        assert m.rank() == rank_mod(m.a, 5) == rank
    assert rank_mod(np.zeros((0, 3), np.int64), 5) == 0


def test_rank_matches_span_enumeration_oracle():
    rng = random.Random(20240917)
    for q in (2, 3):
        field = PrimeField(q)
        for _ in range(25):
            n = rng.randint(1, 4)
            m = Matrix(field, [[rng.randrange(q) for _ in range(n)] for _ in range(n)])
            assert m.rank() == rank_mod(m.a, q) == brute_force_rank(m)


def _oracle_rank_cases(rng, q):
    """Random matrices of every shape, rank-deficient ones and zero rows and columns among them.

    A planted matrix has one row replaced by a combination of others,
    which large fields almost never draw by chance.
    """
    for _ in range(60):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        shape = rng.choice(["dense", "sparse", "low rank", "zero lines", "planted"])
        if shape == "low rank":
            # A product through an inner dimension below both sides.
            inner = rng.randint(0, min(nrows, ncols) - 1)
            left = [[rng.randrange(q) for _ in range(inner)] for _ in range(nrows)]
            right = [[rng.randrange(q) for _ in range(ncols)] for _ in range(inner)]
            rows = [
                [sum(row[t] * right[t][j] for t in range(inner)) for j in range(ncols)]
                for row in left
            ]
        else:
            density = 0.3 if shape == "sparse" else 1.0
            rows = [
                [rng.randrange(q) if rng.random() < density else 0 for _ in range(ncols)]
                for _ in range(nrows)
            ]
        if shape == "zero lines":
            zero_row, zero_col = rng.randrange(nrows), rng.randrange(ncols)
            rows[zero_row] = [0] * ncols
            for row in rows:
                row[zero_col] = 0
        if shape == "planted" and nrows >= 2:
            i, *others = rng.sample(range(nrows), rng.randint(2, min(nrows, 4)))
            rows[i] = [sum(rng.randrange(q) * rows[j][c] for j in others) % q for c in range(ncols)]
        yield Matrix(PrimeField(q), rows)


@pytest.mark.parametrize("q", [2, 3, 73, 2147483647])
def test_rank_equals_gauss_jordan_pivot_count(q):
    # rank_mod's forward elimination against Matrix's Gauss-Jordan, which
    # share no code; at q = 2**31 - 1 their products reach about 2**62.
    rng = random.Random(q)
    shapes = set()
    for m in _oracle_rank_cases(rng, q):
        rank = len(m._echelon()[1])
        assert rank_mod(m.a, q) == m.rank() == rank, m
        shapes.add((m.nrows > m.ncols) - (m.nrows < m.ncols))
    assert shapes == {-1, 0, 1}  # wide, square and tall all met


def test_inverse_round_trips():
    gf3 = PrimeField(3)
    ident = Matrix.identity(gf3, 4)
    assert ident.inverse() == ident
    assert Matrix(gf3, [[2]]).inverse() == Matrix(gf3, [[2]])

    gf7 = PrimeField(7)
    v = Matrix(gf7, vandermonde(gf7, (1, 2, 3), 3))
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
    assert not (m @ basis).a.any()
    # the basis vector is a nonzero multiple of (1, 2)
    assert basis.a[:, 0].tolist() in ([1, 2], [2, 1])


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
            assert not (m @ basis).a.any()
            assert basis.rank() == dim


def test_vandermonde_shapes_and_values():
    gf7 = PrimeField(7)
    assert vandermonde(gf7, (1,), 3).tolist() == [[1, 1, 1]]
    assert rank_mod(vandermonde(gf7, (1, 2, 3), 3), 7) == 3
    v = vandermonde(gf7, (0, 1, 9), 2)
    assert v.tolist() == [[1, 0], [1, 1], [1, 2]]
    assert v.dtype == np.int64 and not v.flags.writeable
    with pytest.raises(DuplicatePointsError):
        vandermonde(gf7, (1, 8), 2)  # collide mod 7


@pytest.mark.parametrize("q", [2, 73, 2147483647])
def test_power_table_matches_pow(q):
    rng = random.Random(q)
    points = [rng.randrange(q) for _ in range(6)]
    for ncols in range(1, 20):
        table = power_table(points, ncols, q)
        assert table.dtype == np.int64
        assert table.tolist() == [[pow(p, j, q) for j in range(ncols)] for p in points]


def test_vandermonde_full_column_rank():
    gf31 = PrimeField(31)
    for ncols in range(1, 6):
        assert rank_mod(vandermonde(gf31, (1, 4, 9, 16, 25), ncols), 31) == ncols


def test_matrix_multiply_and_stack():
    gf5 = PrimeField(5)
    a = Matrix(gf5, [[1, 2], [3, 4]])
    b = Matrix(gf5, [[0, 1], [1, 0]])
    assert a @ b == Matrix(gf5, [[2, 1], [4, 3]])
    assert a.hstack(b).a.tolist() == [[1, 2, 0, 1], [3, 4, 1, 0]]


def test_matrix_reduces_entries_and_refuses_ragged_rows():
    gf7 = PrimeField(7)
    for rows, want in [
        ([[-1, 7, 15]], ((6, 0, 1),)),
        (([x, x + 8] for x in (-1, 20)), ((6, 0), (6, 0))),
        (np.array([[-1, 7], [15, 3]], dtype=np.int64), ((6, 0), (1, 3))),
        (np.array([[2**64 - 1, 2**63 + 5]], dtype=np.uint64), ((1, 6),)),  # exact, not wrapped
    ]:
        got = Matrix(gf7, rows).a
        assert got.dtype == np.int64
        assert got.tolist() == [list(row) for row in want]
    for bad in ([[1.5, 2], [3, 4]], [[1, "2"], [3, 4]], np.array([[1.0, 2.0]])):
        with pytest.raises(TypeError):
            Matrix(gf7, bad)
    with pytest.raises(ValueError, match="ragged"):
        Matrix(gf7, [[1, 2], [3]])
    with pytest.raises(ValueError):
        Matrix(gf7, [[]])
    with pytest.raises(ValueError):
        Matrix(gf7, [])


def test_matrix_array_is_read_only_and_its_own():
    gf7 = PrimeField(7)
    source = np.array([[1, 2], [3, 4]], dtype=np.int64)
    m = Matrix(gf7, source)
    with pytest.raises(ValueError):
        m.a[0, 0] = 5
    source[0, 0] = 6
    assert m.a.tolist() == [[1, 2], [3, 4]]
    assert (m @ m).a.flags.writeable is False


def test_matrix_equality_and_hash_follow_entries_and_shape():
    gf7 = PrimeField(7)
    from_list = Matrix(gf7, [[1, 9], [-3, 4]])
    from_array = Matrix(gf7, np.array([[1, 2], [4, 4]], dtype=np.int32))
    assert from_list == from_array
    assert Matrix(gf7, [[0, 0, 0, 0]]) != Matrix(gf7, [[0, 0], [0, 0]])
    assert from_list != Matrix(PrimeField(11), [[1, 9], [8, 4]])
    with pytest.raises(TypeError):  # equal by entries, so it is not hashed
        hash(from_list)


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


@pytest.mark.parametrize("q", [2, 73, 2147483647])
def test_mod_equals_remainder_on_int64_extremes(q):
    top = (1 << 63) - 1
    values = [0, 1, -1, q - 1, q, -q, -q - 1, top, -top, -top - 1, top - q, 1 - q * (top // q)]
    rng = random.Random(q)
    values += [rng.randint(-top - 1, top) for _ in range(204)]
    a = np.array(values, dtype=np.int64)
    got = mod(a, q)
    assert got.dtype == np.int64
    assert got.tolist() == (a % q).tolist() == [v % q for v in values]
    stacked = a.reshape(4, -1, 2)
    assert np.array_equal(mod(stacked, q), stacked % q)
    out = np.full_like(stacked, -5)
    assert mod(stacked, q, out=out) is out and np.array_equal(out, stacked % q)
    assert a.tolist() == values  # the input is left as it was


def test_one_product_fits_is_the_int64_bound():
    q = 2147483647
    assert one_product_fits(2, q) and not one_product_fits(3, q)
    assert one_product_fits(((1 << 63) - 1) // (q - 1) ** 2, q)
    assert not one_product_fits(((1 << 63) - 1) // (q - 1) ** 2 + 1, q)


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


def subsets_full_rank_reference(a: np.ndarray, q: int, size: int) -> bool:
    """One Gauss-Jordan rank of the exact oracle per size-row subset."""
    field = PrimeField(q)
    return all(
        Matrix(field, a[list(rows)]).rank() == size for rows in combinations(range(len(a)), size)
    )


@pytest.mark.parametrize("q", [2, 3, 5, 7, 13, 305017, 2147483629, 2147483647])
def test_every_subset_full_rank_matches_per_subset_rank(q):
    rng = random.Random(q)
    verdicts, shapes = set(), set()
    for _ in range(300):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 6)
        size = rng.randint(1, nrows)
        rows = [[rng.randrange(q) for _ in range(ncols)] for _ in range(nrows)]
        if nrows >= 3 and rng.random() < 0.5:
            # Large fields almost never draw a dependent subset; plant one.
            i, *others = rng.sample(range(nrows), rng.randint(2, min(nrows, 4)))
            rows[i] = [sum(rng.randrange(q) * rows[j][c] for j in others) % q for c in range(ncols)]
        m = np.array(rows, np.int64)
        expected = subsets_full_rank_reference(m, q, size)
        assert every_subset_full_rank(m, q, size) == expected, (rows, size)
        verdicts.add(expected)
        shapes.add((size > ncols) - (size < ncols))
    assert verdicts == {True, False} and shapes == {-1, 0, 1}


def test_every_subset_full_rank_at_int64_headroom():
    # Entries at or just below q - 1, for the largest prime under the
    # 2**31 modulus cap: each elimination product is about (q - 1)**2,
    # just under 2**62, and the verdicts must still be exact.
    q = 2147483647
    flat = np.full((5, 4), q - 1, np.int64)
    assert every_subset_full_rank(flat, q, 1)
    assert not every_subset_full_rank(flat, q, 2)
    near = -vandermonde(PrimeField(q), range(1, 8), 3) % q
    assert every_subset_full_rank(near, q, 3)
    planted = np.vstack([near, (near[1] + near[4]) % q])
    assert planted.min() >= q - 100
    for m, size in [(flat, 1), (flat, 2), (near, 3), (planted, 2), (planted, 3)]:
        assert every_subset_full_rank(m, q, size) == subsets_full_rank_reference(m, q, size)
    assert not every_subset_full_rank(planted, q, 3)


@pytest.mark.parametrize("seed", [1, 2, 3, 4096])
def test_every_subset_full_rank_below_ncols_and_single_rows(seed):
    # Each seed shuffles the row order, which moves the dependent subsets
    # to other places in the combinations order that the check stops in;
    # the verdicts do not depend on row order.
    order = list(range(9))
    random.Random(seed).shuffle(order)
    # Any 6 of the 9 rows are independent.
    mds = vandermonde(PrimeField(13), [p + 1 for p in order], 6)
    for size in range(1, 7):
        assert every_subset_full_rank(mds, 13, size)
    planted = mds.copy()
    a, b, c = (order.index(i) for i in (1, 4, 7))
    planted[c] = (2 * planted[a] + 5 * planted[b]) % 13  # rows a, b and c are dependent, no two are
    zero_row = planted.copy()
    zero_row[order.index(2)] = 0
    cases = [(planted, 1, True), (planted, 2, True), (planted, 3, False), (planted, 5, False),
             (zero_row, 1, False), (zero_row, 2, False), (mds, 7, False)]
    for m, size, expected in cases:
        assert every_subset_full_rank(m, 13, size) == expected
        assert subsets_full_rank_reference(m, 13, size) == expected
