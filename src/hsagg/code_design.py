"""Gradient-coding style message design for the relay layer.

Relay i's evaluation point p_i is i, or w**(i-1) for a primitive K-th
root of unity w in the circulant regime (``evaluation_points``); either
way the K points are distinct and nonzero.  Polynomials here are plain
coefficient rows of length K, entry j multiplying x**j.  Each user k
starts from the indicator polynomial that vanishes exactly at the points
of the relays it does NOT upload to:

    p_k(x) = prod over non-associated relays i of (x - p_i)

From p_k a family of B rows is generated recursively; member b has
degree K - B + b - 1, leading coefficient 1, and zero coefficients in the
band just below the leading term.  ``_family_table`` builds every user's
family at once, as one (K, B, K) int64 array: the indicators take K - B
multiply-by-(x - p) steps and the recursion B - 1 steps, each step one
array operation over all K users.  Stacking all rows gives a BK x K code
matrix whose last B columns are stacked identity blocks.  That identity
tail is what makes the column combinations e_{K-B+1..K} reproduce the B
coordinates of the input sum, and the recovery matrix is the last B
columns of the inverse evaluation matrix (the K x K Vandermonde matrix
of the points).  Row r of that inverse holds the coefficients of the
Lagrange basis polynomial l_r of the points, so ``lagrange_rows`` writes
it in closed form: prod (x - p) divided synthetically by (x - p_r), then
scaled by 1 / prod_{j != r} (p_r - p_j), with no elimination.

The per-link input coefficients are user k's rows evaluated at the
receiving relay's point.  ``build_code_design`` computes the points once
and takes one ``gf.matmul_mod`` product of the points' power table with
the family table, viewed as the BK x K code matrix, so a single
table holds every row at every point; each link reads its B entries
from it.  Links outside the association pattern get no entry at all,
which makes "relay i never mixes non-associated inputs" a structural
fact rather than a numerical one.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import prod
from typing import Iterable, Mapping, Sequence

import numpy as np

from .gf import DuplicatePointsError, Matrix, PrimeField, matmul_mod, power_table, vandermonde
from .topology import Topology, _check_index, relays_of_user


class ConstructionError(RuntimeError):
    """A key design or its field could not be constructed."""


def evaluation_points(field: PrimeField, K: int, B: int) -> tuple[int, ...]:
    """Relay i's point: w**(i-1) in the circulant regime 2 <= B <= K/2, and i otherwise.

    w = g**((q-1)/K) for the smallest g >= 2 that gives w order exactly K,
    so K | q - 1 is needed; the circulant key design needs these roots of
    unity.  Both kinds of point are distinct and nonzero once q > K.
    """
    q = field.q
    if q <= K:
        raise ValueError(f"need q > K for K distinct evaluation points, got q={q}, K={K}")
    if not 2 <= B <= K // 2:
        return tuple(range(1, K + 1))
    if (q - 1) % K:
        raise ConstructionError(f"circulant regime needs K | (q-1); q={q}, K={K}")
    for g in range(2, q):
        points = tuple(pow(g, (q - 1) // K * i, q) for i in range(K))
        if len(set(points)) == K:
            return points


def evaluation_matrix(field: PrimeField, K: int, B: int) -> Matrix:
    """K x K matrix whose column j is [1, p_j, p_j**2, ..., p_j**(K-1)]."""
    return vandermonde(field, evaluation_points(field, K, B), K).transpose()


def _root_product(q: int, roots: Iterable[int]) -> list[int]:
    """Coefficient row of prod (x - p) over the roots, built one factor at a time."""
    poly = [1]
    for p in roots:
        poly = [(a - p * b) % q for a, b in zip([0] + poly, poly + [0])]
    return poly


def lagrange_rows(q: int, points: Sequence[int]) -> list[list[int]]:
    """Coefficient rows of the Lagrange basis polynomials of distinct points mod q.

    Row r is l_r, which is 1 at points[r] and 0 at every other point, so
    row r is column r of the inverse of ``vandermonde(field, points, n)``.
    The full product is divided synthetically by (x - p_r) and the
    quotient scaled by 1 / prod_{j != r} (p_r - p_j): one inverse per row.
    """
    points = [p % q for p in points]
    if len(set(points)) != len(points):
        raise DuplicatePointsError(f"interpolation points collide mod {q}: {points}")
    n = len(points)
    full = _root_product(q, points)
    rows = []
    for p in points:
        quotient = [0] * n
        carry = 0
        for t in range(n - 1, -1, -1):
            carry = quotient[t] = (full[t + 1] + p * carry) % q
        scale = pow(prod(p - other for other in points if other != p), -1, q)
        rows.append([c * scale % q for c in quotient])
    return rows


def recovery_matrix(field: PrimeField, K: int, B: int) -> Matrix:
    """The last B columns of the evaluation matrix's inverse: the top B coefficients of each l_r."""
    return _recovery_matrix(field, evaluation_points(field, K, B), B)


def _recovery_matrix(field: PrimeField, points: tuple[int, ...], B: int) -> Matrix:
    return Matrix(field, [row[len(points) - B:] for row in lagrange_rows(field.q, points)])


def _require_family(topo: Topology) -> None:
    if topo.B == topo.K:
        raise ValueError("full association has no recursive family; code at B = K-1")


def family_rows(topo: Topology, field: PrimeField, k: int) -> tuple[tuple[int, ...], ...]:
    """User k's B coefficient rows, each of length K.

    Row 1 is the monic degree K-B indicator polynomial, which vanishes at
    relay j's point exactly when relay j is outside user k's association
    set.  Row b is x times row b-1 minus the coefficient of x^(K-B-1) in
    row b-1 times row 1.  The subtraction index stays fixed at K-B-1;
    that is what zeroes the coefficient band under the leading 1 while
    keeping every row divisible by the indicator polynomial.
    """
    _require_family(topo)
    _check_index(topo, k, "user")
    table = _family_table(topo, field.q, evaluation_points(field, topo.K, topo.B))
    return tuple(map(tuple, table[k - 1].tolist()))


def _family_table(topo: Topology, q: int, points: tuple[int, ...]) -> np.ndarray:
    """int64 array of shape (K, B, K) whose slice k-1 is ``family_rows(topo, field, k)``.

    User k's non-associated relays are k+B, ..., k+K-1, taken cyclically,
    so step j multiplies every user's indicator by (x - p) at the point
    of its relay k+B+j: K-B steps, each over all K users at once.  The
    recursion then takes B-1 steps, each over all users too.  Every
    product is of two entries in [0, q), below q**2 < 2**62.
    """
    K, B = topo.K, topo.B
    P = np.array(points, dtype=np.int64) % q
    roots = P[(np.arange(K)[:, None] + np.arange(B, K)) % K]  # row k-1: relays k+B, ..., k+K-1
    # Each row sits after a zero column, so shifting a row's window one
    # column left reads x times it.
    table = np.zeros((K, B, K + 1), dtype=np.int64)
    base = table[:, 0]
    base[:, 1] = 1
    for j in range(K - B):  # base has degree j, in columns 1 .. j+1
        shifted, row = base[:, :j + 2], base[:, 1:j + 3]
        np.remainder(shifted - roots[:, j, None] * row, q, out=row)
    drop = K - B  # the column of x**(K-B-1)
    for b in range(1, B):
        prev = table[:, b - 1]
        np.remainder(prev[:, :-1] - prev[:, drop, None] * base[:, 1:], q, out=table[:, b, 1:])
    return table[:, :, 1:]


@dataclass(frozen=True, eq=False)
class CodeDesign:
    """Compiled message design for one (topology, field) choice.

    Rows (k-1)B through kB-1 of the code matrix, counted from 0, are
    ``family_rows(topo, field, k)``.
    """

    topo: Topology
    field: PrimeField
    code_matrix: Matrix
    recovery: Matrix
    input_coeffs: Mapping[tuple[int, int], tuple[int, ...]] = dc_field(repr=False)
    points: tuple[int, ...]  # evaluation_points(field, K, B); relay i's is points[i-1]


def build_code_design(topo: Topology, field: PrimeField) -> CodeDesign:
    """Code matrix, recovery matrix and per-link coefficients; absent links mean zero.

    Entry (k, i) of the coefficient table holds user k's B rows evaluated
    at relay i's point: column (k-1)B .. kB-1 of row i-1 of the one
    product of the points' power table with the stacked code matrix.
    Only associated links appear.
    """
    _require_family(topo)
    K, B, q = topo.K, topo.B, field.q
    points = evaluation_points(field, K, B)
    rows = _family_table(topo, q, points).reshape(K * B, K)
    at_relay = matmul_mod(power_table(points, K, q), rows.T, q).tolist()
    input_coeffs = {
        (k, i): tuple(at_relay[i - 1][(k - 1) * B:k * B])
        for k in topo.users()
        for i in relays_of_user(topo, k)
    }
    return CodeDesign(
        topo=topo,
        field=field,
        code_matrix=Matrix(field, rows),
        recovery=_recovery_matrix(field, points, B),
        input_coeffs=input_coeffs,
        points=points,
    )
