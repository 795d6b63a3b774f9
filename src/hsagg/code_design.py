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
array operation over all K users.  Stacked, the rows form a BK x K code
matrix whose last B columns are stacked identity blocks.  That identity
tail is what makes the column combinations e_{K-B+1..K} reproduce the B
coordinates of the input sum, and the recovery matrix is the last B
columns of the inverse evaluation matrix (the K x K Vandermonde matrix
of the points).  Row r of that inverse holds the coefficients of the
Lagrange basis polynomial l_r of the points, so ``lagrange_rows`` writes
it in closed form: prod (x - p) divided synthetically by (x - p_r), then
scaled by 1 / prod_{j != r} (p_r - p_j), with no elimination.  The
recovery matrix is held as a read-only (K, B) int64 array.

The per-link input coefficients are user k's rows evaluated at the
points of its own B relays: one stacked ``gf.matmul_mod`` product of
those points' power rows with every user's family rows gives them all as
one read-only (K, B, B) int64 array, entry [k-1, j] for link j of user
k.  Links outside the association pattern have no entry at all, which
makes "relay i never mixes non-associated inputs" a structural fact
rather than a numerical one.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import prod
from typing import Iterable, Sequence

import numpy as np

from .gf import DuplicatePointsError, PrimeField, matmul_mod, power_table, vandermonde
from .topology import Topology, _check_index, _read_only


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


def evaluation_matrix(field: PrimeField, K: int, B: int) -> np.ndarray:
    """Read-only K x K int64 array whose column j is [1, p_j, p_j**2, ..., p_j**(K-1)]."""
    return vandermonde(field, evaluation_points(field, K, B), K).T


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


def recovery_matrix(field: PrimeField, K: int, B: int) -> np.ndarray:
    """The last B columns of the evaluation matrix's inverse, the top B coefficients
    of each l_r, as a read-only (K, B) int64 array."""
    return _recovery_matrix(field.q, evaluation_points(field, K, B), B)


def _recovery_matrix(q: int, points: tuple[int, ...], B: int) -> np.ndarray:
    rows = [row[len(points) - B:] for row in lagrange_rows(q, points)]
    return _read_only(np.array(rows, np.int64))


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

    Step j multiplies every user's indicator by (x - p) at the point of
    its j-th non-associated relay, ``topo.skipped_relay``: K-B steps, each
    over all K users at once.  The recursion then takes B-1 steps, each
    over all users too.  Every product is of two entries in [0, q), below
    q**2 < 2**62.
    """
    K, B = topo.K, topo.B
    P = np.array(points, dtype=np.int64) % q
    roots = P[topo.skipped_relay]
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

    input_coeffs[k-1, j] holds the B coefficients of link j of user k:
    ``family_rows(topo, field, k)`` evaluated at the point of relay
    ``relays_of_user(topo, k)[j]``.
    """

    topo: Topology
    field: PrimeField
    recovery: np.ndarray  # read-only (K, B) int64
    input_coeffs: np.ndarray = dc_field(repr=False)  # read-only (K, B, B) int64
    points: tuple[int, ...]  # evaluation_points(field, K, B); relay i's is points[i-1]


def build_code_design(topo: Topology, field: PrimeField) -> CodeDesign:
    """Recovery matrix and per-link coefficients; absent links mean zero.

    Row j of user k's (B, K) slice of the gathered power table holds the
    powers of the point of its link j's relay, so one stacked product with
    the transposed family table gives every link's coefficients.
    """
    _require_family(topo)
    K, B, q = topo.K, topo.B, field.q
    points = evaluation_points(field, K, B)
    family = _family_table(topo, q, points)
    input_coeffs = matmul_mod(power_table(points, K, q)[topo.link_relay], family.swapaxes(1, 2), q)
    input_coeffs.flags.writeable = False
    return CodeDesign(
        topo=topo,
        field=field,
        recovery=_recovery_matrix(q, points, B),
        input_coeffs=input_coeffs,
        points=points,
    )
