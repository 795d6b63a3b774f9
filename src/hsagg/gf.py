"""Exact arithmetic and linear algebra over a prime field GF(q).

Field elements are ints reduced into [0, q), held in int64 arrays.
Everything in this layer is integer-exact; the security audits
downstream compare matrices for literal equality, so floats are banned
throughout.  The module holds the field, ``field_array``, the one
strict converter from Python ints or integer arrays to reduced int64
arrays, ``rank_mod``, the one rank of the library, and the Vandermonde
constructor, which returns a read-only int64 array as every scheme
matrix is held.  The message design evaluates its polynomials at the
links in closed form (``code_design.build_code_design``).  Every system
construction meets has a closed-form solution (Lagrange rows, and the
circulant key design's Fourier eigenvalues), so the library solves
nothing.  ``Matrix``, a read-only int64 array with one Gauss-Jordan
elimination behind its rank, solve, inverse and null space, is the
exact oracle that checks those closed forms and ``rank_mod``; no
library code builds one.

The modulus is capped below 2**31 so that a product of two reduced
elements always fits in a 64-bit intermediate.  ``mod`` reduces an
int64 array as a - (a // q) * q, which numpy computes by a multiply and
a shift where ``%`` takes a hardware remainder per entry, and
``one_product_fits`` is the bound below which a sum of n products
cannot wrap int64.  Two array kernels work on int64 arrays:
``power_table``, the rows [1, p, ..., p**(n-1)] of a Vandermonde block,
and ``matmul_mod``, an exact matrix product mod q, the one product of
the library: ``Matrix.__matmul__``, every round stage of the protocol,
and construction and validation all take it (one int64 product when its
sums cannot wrap, as at every default field, and a 16-bit split of one
operand otherwise).
``every_subset_full_rank``, the all-subsets certificate, takes one
``rank_mod`` per row subset; ``key_design.mds_proof`` calls it only
where no closed-form proof applies, which no constructed key design
reaches.
"""

from __future__ import annotations

import struct
from array import array
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
    """Immutable matrix over a prime field, held as one read-only 2-D int64 array ``a``.

    The exact oracle the tests check the library against; no library
    code builds one.  The entries are reduced into [0, q) by
    ``field_array`` and copied when they come from a caller's array, so
    no later write to that array reaches the matrix.  Products are
    ``matmul_mod`` products; rank, solve, inverse and null space share
    one Gauss-Jordan elimination with first-nonzero pivoting on Python
    ints from ``a.tolist()``, so every derived matrix is reproducible bit
    for bit, and the rank shares no code with ``rank_mod``.
    """

    __slots__ = ("field", "a")

    def __init__(self, field: PrimeField, rows: "np.ndarray | Iterable[Sequence[int]]"):
        rows = rows if isinstance(rows, np.ndarray) else list(rows)
        a = field_array(rows, field.q)
        if a.ndim != 2 or 0 in a.shape:
            raise ValueError("matrix must have at least one row and column")
        if a is rows:
            a = a.copy()
        a.flags.writeable = False
        self.field = field
        self.a = a

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "Matrix":
        return cls(field, np.eye(n, dtype=np.int64))

    @property
    def nrows(self) -> int:
        return self.a.shape[0]

    @property
    def ncols(self) -> int:
        return self.a.shape[1]

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.ncols} vs {other.nrows}")
        return Matrix(self.field, matmul_mod(self.a, other.a, self.field.q))

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch")
        return Matrix(self.field, np.hstack([self.a, other.a]))

    def _echelon(self):
        """Reduce a working copy to reduced row echelon form; returns (rows, pivot_cols)."""
        q = self.field.q
        work = self.a.tolist()
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
        """Number of pivots of the Gauss-Jordan elimination."""
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
        return Matrix(self.field, np.array(basis, np.int64).T)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and other.field == self.field
            and np.array_equal(other.a, self.a)
        )

    def __repr__(self) -> str:
        body = "; ".join(" ".join(map(str, row)) for row in self.a.tolist())
        return f"Matrix(GF({self.field.q}), [{body}])"


def rank_mod(a: np.ndarray, q: int) -> int:
    """Rank over GF(q) of a 2-D int64 array with entries in [0, q), by forward elimination.

    Runs on Python ints from ``a.tolist()``.  The rows still to be
    reduced are kept as their suffixes from the current column, where
    every earlier entry is 0.  A pivot row leaves them, and clears
    column c of only those that remain.
    """
    rows, rank = a.tolist(), 0
    for _ in range(a.shape[1]):
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


def vandermonde(field: PrimeField, points: Sequence[int], ncols: int) -> np.ndarray:
    """Read-only int64 rows [1, p, p**2, ..., p**(ncols-1)] for each evaluation point p."""
    reduced = [p % field.q for p in points]
    if len(set(reduced)) != len(reduced):
        raise DuplicatePointsError(f"evaluation points collide mod {field.q}: {points}")
    if ncols < 1:
        raise ValueError("ncols must be positive")
    table = power_table(reduced, ncols, field.q)
    table.flags.writeable = False
    return table


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


def field_array(rows, q: int) -> np.ndarray:
    """Symbols as a reduced int64 array; input already in [0, q) is not reduced again.

    rows is an integer numpy array, kept in its shape and returned as it
    is when it is int64 and reduced, or a sequence of equal-length rows
    of ints, which gives a (len(rows), L) array.  This is the one
    converter of every ``Matrix`` and every protocol entry point, and it
    is strict: a float, a string or a float array raises TypeError
    instead of being truncated, and rows of unequal length raise
    ValueError.

    Each row of ints is packed straight into its row of the array by one
    ``struct`` call, whose "q" code takes only objects with __index__
    that fit in int64.  Anything else raises struct.error, and then the
    rows are taken again by ``array("q")``, which raises TypeError for a
    non-integer and OverflowError for an int beyond int64, which is then
    reduced exactly as a Python int.
    """
    if isinstance(rows, np.ndarray):
        if rows.dtype.kind not in "iu":
            raise TypeError(f"symbols must be integers, got an array of dtype {rows.dtype}")
        if rows.dtype == np.uint64:
            rows = rows % q  # exact in uint64; a cast first would wrap above 2**63
        a = rows.astype(np.int64, copy=False)
    else:
        a = np.empty((len(rows), len(rows[0]) if rows else 0), np.int64)
        pack = struct.Struct(f"{a.shape[1]}q").pack_into
        try:
            for r, row in enumerate(rows):
                pack(a[r], 0, *row)
        except struct.error:
            for r, row in enumerate(rows):
                if len(row) != a.shape[1]:
                    raise ValueError("ragged rows") from None
                try:
                    a[r] = array("q", row)
                except OverflowError:
                    a[r] = array("q", [v % q for v in row])
    # Read as uint64, a negative entry is at least 2**63, so one max finds both kinds.
    if a.size and a.view(np.uint64).max() >= q:
        a = mod(a, q)
    return a


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


def every_subset_full_rank(a: np.ndarray, q: int, size: int) -> bool:
    """True iff every ``size``-row subset of the reduced int64 array a is independent over GF(q).

    One ``rank_mod`` per subset, in ``itertools.combinations`` order;
    the check returns False at the first dependent subset.  It is True
    when size is 0 (the empty subset) or exceeds a's row count (no
    subset).
    """
    return size == 0 or all(
        rank_mod(a[list(rows)], q) == size for rows in combinations(range(len(a)), size)
    )
