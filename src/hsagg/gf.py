"""Exact arithmetic and linear algebra over a prime field GF(q).

Field elements are plain Python ints reduced into [0, q).  Everything in
this layer is integer-exact; the security audits downstream compare
matrices for literal equality, so floats are banned throughout.  The
module holds the field, a dense ``Matrix`` with one exact elimination
and the Vandermonde constructor; the message design keeps its
polynomials as plain coefficient rows (``code_design.family_rows``).
Every system construction meets has a closed-form solution (Lagrange
rows, and the circulant key design's Fourier eigenvalues), so no
library code calls ``Matrix.solve``; it, ``inverse`` and ``nullspace``
remain as the exact oracles that check those closed forms.

The modulus is capped below 2**31 so that a product of two reduced
elements always fits in a 64-bit intermediate.  ``mod`` reduces an
int64 array as a - (a // q) * q, which numpy computes by a multiply and
a shift where ``%`` takes a hardware remainder per entry, and
``one_product_fits`` is the bound below which a sum of n products
cannot wrap int64.  Two array kernels work on int64 arrays:
``power_table``, the rows [1, p, ..., p**(n-1)] of a Vandermonde block,
and ``matmul_mod``, an exact matrix product mod q that the protocol runs
every round stage on, and that construction and validation take every
product with (one int64 product when its sums cannot wrap, as at every
default field, and a 16-bit split of one operand otherwise).
``every_subset_full_rank``, the all-subsets certificate, takes one
``Matrix.rank`` per row subset; ``key_design.mds_proof`` calls it only
where no closed-form proof applies, which no constructed key design
reaches.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

MAX_MODULUS = 1 << 31

# Deterministic Miller-Rabin witness set, valid for all n < 3.3e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        if a >= n:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """Arithmetic modulo a prime q.  Elements are ints in [0, q)."""

    __slots__ = ("q",)

    def __init__(self, q: int):
        if not isinstance(q, int) or q < 2:
            raise ValueError(f"modulus must be an integer >= 2, got {q!r}")
        if q >= MAX_MODULUS:
            raise ValueError(f"modulus {q} exceeds the 2**31 cap")
        if not is_prime(q):
            raise ValueError(f"modulus {q} is not prime")
        self.q = q

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises ZeroDivisionError on 0."""
        a %= self.q
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.q})")
        return pow(a, self.q - 2, self.q)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("PrimeField", self.q))

    def __repr__(self) -> str:
        return f"PrimeField({self.q})"


class SingularMatrixError(ValueError):
    """Raised when inverting or solving against a rank-deficient matrix."""

    def __init__(self, rank: int, size: int):
        self.rank = rank
        self.size = size
        super().__init__(f"matrix is singular: rank {rank} < {size}")


class DuplicatePointsError(ValueError):
    pass


class Matrix:
    """Immutable dense matrix over a prime field.

    Rows are tuples of reduced ints.  Solve, inverse and null space share
    one Gauss-Jordan elimination with first-nonzero pivoting, so every
    derived matrix is reproducible bit for bit.  Rank takes its own
    forward pass, which clears only the rows below each pivot.
    """

    __slots__ = ("field", "rows")

    def __init__(self, field: PrimeField, rows: Iterable[Sequence[int]]):
        q = field.q
        self.field = field
        self.rows = tuple(tuple([x % q for x in row]) for row in rows)
        if not self.rows or not self.rows[0]:
            raise ValueError("matrix must have at least one row and column")
        ncols = len(self.rows[0])
        if any(len(row) != ncols for row in self.rows):
            raise ValueError("ragged rows")

    @classmethod
    def zeros(cls, field: PrimeField, nrows: int, ncols: int) -> "Matrix":
        return cls(field, [[0] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "Matrix":
        return cls(field, [[int(i == j) for j in range(n)] for i in range(n)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def row(self, i: int) -> tuple:
        return self.rows[i]

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.rows)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, zip(*self.rows))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.ncols} vs {other.nrows}")
        q = self.field.q
        cols = other.transpose().rows
        return Matrix(
            self.field,
            [[sum(a * b for a, b in zip(row, col)) % q for col in cols] for row in self.rows],
        )

    def take_rows(self, indices: Sequence[int]) -> "Matrix":
        return Matrix(self.field, [self.rows[i] for i in indices])

    def take_cols(self, indices: Sequence[int]) -> "Matrix":
        return Matrix(self.field, [[row[j] for j in indices] for row in self.rows])

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch")
        return Matrix(self.field, [a + b for a, b in zip(self.rows, other.rows)])

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.rows for x in row)

    def _echelon(self):
        """Reduce a working copy to reduced row echelon form; returns (rows, pivot_cols)."""
        q = self.field.q
        work = [list(row) for row in self.rows]
        pivots: list[int] = []
        r = 0
        for c in range(self.ncols):
            piv = next((i for i in range(r, self.nrows) if work[i][c]), None)
            if piv is None:
                continue
            work[r], work[piv] = work[piv], work[r]
            scale = pow(work[r][c], q - 2, q)
            work[r] = [x * scale % q for x in work[r]]
            for i in range(self.nrows):
                if i != r and work[i][c]:
                    f = work[i][c]
                    work[i] = [(x - f * y) % q for x, y in zip(work[i], work[r])]
            pivots.append(c)
            r += 1
            if r == self.nrows:
                break
        return work, pivots

    def rank(self) -> int:
        """Number of pivots of a forward elimination, which equals ``len(self._echelon()[1])``.

        The rows still to be reduced are kept as their suffixes from the
        current column, where every earlier entry is 0.  A pivot row
        leaves them, and clears column c of only those that remain.
        """
        q = self.field.q
        rows, rank = list(self.rows), 0
        for _ in range(self.ncols):
            pivot = next((row for row in rows if row[0]), None)
            if pivot is None:
                rows = [row[1:] for row in rows]
                continue
            rank += 1
            rows.remove(pivot)
            if not rows:
                break
            scale, tail = q - pow(pivot[0], q - 2, q), pivot[1:]  # -1 / pivot
            rows = [
                [(x + f * y) % q for x, y in zip(row[1:], tail)]
                if (f := row[0] * scale % q)
                else row[1:]
                for row in rows
            ]
        return rank

    def solve(self, rhs: "Matrix") -> "Matrix":
        """Solve self @ X = rhs for square self; exact.

        [self | rhs] is reduced once.  Self's n columns pivot first, so when
        self is invertible they fill every row and the right block is X; a
        singular self raises with the rank counted on those n columns.
        """
        n = self.ncols
        if self.nrows != n:
            raise ValueError("solve requires a square matrix")
        if rhs.nrows != n:
            raise ValueError("right-hand side row count mismatch")
        work, pivots = self.hstack(rhs)._echelon()
        rank = sum(c < n for c in pivots)
        if rank < n:
            raise SingularMatrixError(rank, n)
        return Matrix(self.field, [row[n:] for row in work])

    def inverse(self) -> "Matrix":
        return self.solve(Matrix.identity(self.field, self.nrows))

    def nullspace(self) -> "Matrix | None":
        """Basis of {x : self @ x = 0} as columns; None if only the zero vector."""
        q = self.field.q
        work, pivots = self._echelon()
        free = [c for c in range(self.ncols) if c not in pivots]
        if not free:
            return None
        basis = []
        for c in free:
            vec = [0] * self.ncols
            vec[c] = 1
            for r, pc in enumerate(pivots):
                vec[pc] = -work[r][c] % q
            basis.append(vec)
        return Matrix(self.field, basis).transpose()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and other.field == self.field
            and other.rows == self.rows
        )

    def __hash__(self) -> int:
        return hash((self.field, self.rows))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"Matrix(GF({self.field.q}), [{body}])"


def vandermonde(field: PrimeField, points: Sequence[int], ncols: int) -> Matrix:
    """Rows [1, p, p**2, ..., p**(ncols-1)] for each evaluation point p."""
    reduced = [p % field.q for p in points]
    if len(set(reduced)) != len(reduced):
        raise DuplicatePointsError(f"evaluation points collide mod {field.q}: {points}")
    if ncols < 1:
        raise ValueError("ncols must be positive")
    return Matrix(field, power_table(reduced, ncols, field.q).tolist())


def power_table(points: Sequence[int], ncols: int, q: int) -> np.ndarray:
    """int64 array whose row r is [1, p, p**2, ..., p**(ncols-1)] mod q for p = points[r].

    Columns [k, 2k) are columns [0, k) times p**k, so the table takes
    about log2(ncols) array products, each of two entries below q.
    """
    step = np.array(points, dtype=np.int64)[:, None] % q
    table = np.ones((len(points), ncols), dtype=np.int64)
    k = 1
    while k < ncols:
        block = table[:, k:2 * k]
        np.multiply(table[:, :block.shape[1]], step, out=block)
        block %= q
        step = step * step % q
        k *= 2
    return table


def mod(a: np.ndarray, q: int, out: "np.ndarray | None" = None) -> np.ndarray:
    """``a % q`` for an int64 array and a modulus 2 <= q, exact for every int64 entry.

    numpy divides an integer array by a scalar through libdivide, a
    multiply and a shift, but takes a hardware remainder per entry for
    ``%``, so a - (a // q) * q is about twice as fast.  ``//`` is floor
    division, so the result lies in [0, q) for negative entries too; the
    one product that can leave int64, (a // q) * q for a near -2**63,
    wraps modulo 2**64 and the difference wraps back.  The quotient's
    buffer holds the result: a new array, or ``out``, an int64 array of
    a's shape that shares no memory with a, so that the call allocates
    nothing.
    """
    t = np.floor_divide(a, q, out=out)
    t *= q
    return np.subtract(a, t, out=t)


def one_product_fits(n: int, q: int) -> bool:
    """Whether an int64 sum of n products of entries in [0, q) cannot wrap."""
    return n * (q - 1) ** 2 < 1 << 63


def matmul_mod(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Exact ``a @ b mod q`` for int64 arrays with entries in [0, q).

    When n * (q-1)**2 < 2**63, for inner dimension n, no int64 sum of n
    products wraps, and the result is one product reduced once: at
    q = 305017 that holds up to n of about 9.9e7.  Otherwise b is split
    into 16-bit halves, so no int64 partial sum wraps when q < 2**31 and
    n is below 2**16: a @ (b >> 16) stays below n * 2**31 * 2**15, and
    (a @ (b >> 16) mod q) * 2**16 + a @ (b & 0xFFFF) below
    2**47 + n * 2**47 <= 2**63.  Stacked operands broadcast as in
    ``np.matmul``.  q must be below 2**31 on either path.
    """
    n = a.shape[-1]
    one_product = one_product_fits(n, q)
    if not (q < MAX_MODULUS and (one_product or n < 1 << 16)):
        raise ValueError(
            f"matmul_mod needs q < 2**31 and, unless n * (q-1)**2 < 2**63, "
            f"inner dimension n < 2**16; got q={q}, n={n}"
        )
    if one_product:
        return mod(a @ b, q)
    high = mod(a @ (b >> 16), q)
    high *= 65536
    high += a @ (b & 0xFFFF)
    return mod(high, q)


def every_subset_full_rank(M: Matrix, size: int) -> bool:
    """True iff every ``size``-row subset of M is linearly independent.

    One ``Matrix.rank`` per subset, in ``itertools.combinations`` order;
    the check returns False at the first dependent subset.  It is True
    when size is 0 (the empty subset) or exceeds M.nrows (no subset).
    """
    return size == 0 or all(
        M.take_rows(rows).rank() == size for rows in combinations(range(M.nrows), size)
    )
