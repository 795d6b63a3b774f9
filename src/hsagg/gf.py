"""Exact arithmetic and linear algebra over a prime field GF(q).

Field elements are plain Python ints reduced into [0, q).  Everything in
this layer is integer-exact; the security audits downstream compare
matrices for literal equality, so floats are banned throughout.  The
module holds the field, a dense ``Matrix`` with one exact elimination
and the Vandermonde constructor; the message design keeps its
polynomials as plain coefficient rows (``code_design.family_rows``).
Construction's Vandermonde systems have closed-form Lagrange solutions
(``code_design.lagrange_rows``), so ``Matrix.solve`` runs only on the
circulant key system; ``inverse`` and ``nullspace`` remain to check
such results.

The modulus is capped below 2**31 so that a product of two reduced
elements always fits in a 64-bit intermediate.  Two array kernels work
on int64 arrays: ``matmul_mod``, an exact matrix product mod q that the
protocol runs every round stage on (one int64 product when its sums
cannot wrap, as at every default field the protocol uses, and a 16-bit
split of one operand otherwise), and ``every_subset_full_rank``, the
batched, fraction-free all-subsets rank certificate that the key
designs and their validation share.
"""

from __future__ import annotations

from itertools import combinations, islice
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

    Rows are tuples of reduced ints.  Rank, solve and null space share
    one Gauss-Jordan elimination with first-nonzero pivoting, so every
    derived matrix is reproducible bit for bit.
    """

    __slots__ = ("field", "rows")

    def __init__(self, field: PrimeField, rows: Iterable[Sequence[int]]):
        q = field.q
        self.field = field
        self.rows = tuple(tuple(x % q for x in row) for row in rows)
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
        return len(self._echelon()[1])

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
    return Matrix(field, [[pow(p, j, field.q) for j in range(ncols)] for p in reduced])


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
    one_product = n * (q - 1) ** 2 < 1 << 63
    if not (q < MAX_MODULUS and (one_product or n < 1 << 16)):
        raise ValueError(
            f"matmul_mod needs q < 2**31 and, unless n * (q-1)**2 < 2**63, "
            f"inner dimension n < 2**16; got q={q}, n={n}"
        )
    if one_product:
        return (a @ b) % q
    high = (a @ (b >> 16)) % q
    return (high * 65536 + a @ (b & 0xFFFF)) % q


# Row subsets eliminated per batch by every_subset_full_rank: about 3 MB
# of int64 at 10 x 10 subsets, and a singular subset ends the check after
# at most one batch of wasted work.
_SUBSET_CHUNK = 4096


def every_subset_full_rank(M: Matrix, size: int) -> bool:
    """True iff every ``size``-row subset of M is linearly independent.

    The subsets are eliminated in batches of int64 arrays: each subset is
    transposed, so its rows become the columns of an ncols x size matrix
    that has full column rank iff every column, in turn, finds a nonzero
    pivot pv.  The elimination is fraction-free: every row t becomes
    pv * t - c * pivot_row, where c is t's entry in the pivot column, so
    the pivot row is cleared with the rest and the column is dropped.
    Scaling a row by the nonzero pv keeps the rank, and no pivot is ever
    inverted.  Each product is of two entries in [0, q), so it stays below
    q**2 < 2**62, and so does their difference.  The check returns False
    after the first batch that holds a singular subset.
    """
    q = M.field.q
    rows = np.array(M.rows, dtype=np.int64)
    subsets = combinations(range(M.nrows), size)
    while chunk := list(islice(subsets, _SUBSET_CHUNK)):
        t = rows[np.array(chunk, dtype=np.intp)].transpose(0, 2, 1)  # (n, ncols, size)
        batch = np.arange(len(t))
        for _ in range(size):
            col = t[:, :, 0]
            nonzero = col != 0
            if not nonzero.any(axis=1).all():
                return False
            pivot = nonzero.argmax(axis=1)
            pv = col[batch, pivot][:, None, None]
            # Clear the column and drop it; the pivot row becomes zero.
            t = (pv * t[:, :, 1:] - col[:, :, None] * t[batch, pivot, 1:][:, None, :]) % q
    return True
