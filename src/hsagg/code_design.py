"""Gradient-coding style message design for the relay layer.

Relay i's evaluation point p_i is i, or w**(i-1) for a primitive K-th
root of unity w in the circulant regime (``evaluation_points``); either
way the K points are distinct and nonzero.  Each user k starts from the
indicator polynomial that vanishes exactly at the points of the n = K - B
relays it does NOT upload to:

    I_k(x) = prod over non-associated relays i of (x - p_i)

Member b = 0..B-1 of user k's family is I_k(x) * g_b(x), with

    g_0 = 1,  g_b(x) = x * g_(b-1)(x) + h_b,

where h_l is the complete homogeneous symmetric polynomial of degree l in
I_k's roots.  g_b is the polynomial part of x**(n+b) / I_k(x), so member
b is x**(n+b) less a remainder of degree below n: monic of degree n + b,
with zero coefficients in the band just below its leading 1.  Written as
coefficient rows of length K and stacked, the members form a BK x K code
matrix whose last B columns are stacked identity blocks.  That identity
tail is what makes the column combinations e_{K-B+1..K} reproduce the B
coordinates of the input sum, and the recovery matrix is the last B
columns of the inverse evaluation matrix (the K x K Vandermonde matrix
of the points).  Row r of that inverse holds the coefficients of the
Lagrange basis polynomial l_r of the points, so ``lagrange_rows`` writes
its top B coefficients in closed form, with no elimination.  The
recovery matrix is held as a read-only (K, B) int64 array.

The per-link input coefficients are user k's members evaluated at the
points of its own B relays, and no coefficient row is ever expanded:
``build_code_design`` evaluates I_k and every g_b at those points as
(K, B) arrays over all links at once, taking the h_l from the top B
coefficients of I_k alone.  The result is one read-only (K, B, B) int64
array, entry [k-1, j] for link j of user k.  Links outside the
association pattern have no entry at all, which makes "relay i never
mixes non-associated inputs" a structural fact rather than a numerical
one.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import prod
from typing import Iterable, Sequence

import numpy as np

from .gf import DuplicatePointsError, PrimeField, vandermonde
from .topology import Topology, _read_only


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


def lagrange_rows(q: int, points: Sequence[int], count: int) -> list[list[int]]:
    """The top ``count`` coefficients of each Lagrange basis polynomial of distinct points mod q.

    Row r ends with the coefficient of x**(n-1) of l_r, which is 1 at
    points[r] and 0 at every other point; with count = n, row r is column
    r of the inverse of ``vandermonde(field, points, n)``.  The full
    product is divided synthetically by (x - p_r) from the top down,
    stopping after ``count`` quotient coefficients, and the quotient is
    scaled by 1 / prod_{j != r} (p_r - p_j): one inverse per row.
    """
    points = [p % q for p in points]
    if len(set(points)) != len(points):
        raise DuplicatePointsError(f"interpolation points collide mod {q}: {points}")
    n = len(points)
    full = _root_product(q, points)
    rows = []
    for p in points:
        quotient = [0] * count
        carry = 0
        for t in range(count - 1, -1, -1):  # quotient[t] multiplies x**(n-count+t)
            carry = quotient[t] = (full[n - count + t + 1] + p * carry) % q
        scale = pow(prod(p - other for other in points if other != p), -1, q)
        rows.append([c * scale % q for c in quotient])
    return rows


def recovery_matrix(field: PrimeField, K: int, B: int) -> np.ndarray:
    """The last B columns of the evaluation matrix's inverse, the top B coefficients
    of each l_r, as a read-only (K, B) int64 array."""
    return _recovery_matrix(field.q, evaluation_points(field, K, B), B)


def _recovery_matrix(q: int, points: tuple[int, ...], B: int) -> np.ndarray:
    return _read_only(np.array(lagrange_rows(q, points, B), np.int64))


@dataclass(frozen=True, eq=False)
class CodeDesign:
    """Compiled message design for one (topology, field) choice.

    input_coeffs[k-1, j, b] is member b of user k's family, I_k * g_b,
    evaluated at the point of relay ``relays_of_user(topo, k)[j]``.
    """

    topo: Topology
    field: PrimeField
    recovery: np.ndarray  # read-only (K, B) int64
    input_coeffs: np.ndarray = dc_field(repr=False)  # read-only (K, B, B) int64
    points: tuple[int, ...]  # evaluation_points(field, K, B); relay i's is points[i-1]


def build_code_design(topo: Topology, field: PrimeField) -> CodeDesign:
    """Recovery matrix and per-link coefficients; absent links mean zero.

    Every array below is (K, B): entry [k-1, j] is link j of user k's,
    or, in the band and the h, entry [k-1, i] is user k's.  Each of the
    K - B steps over ``topo.skipped_relay`` multiplies (x - p) into I_k
    at every link's point x and into a_0 = 1, a_1, ..., a_(B-1), the
    coefficients of x**n, ..., x**(n-B+1) of I_k.  Since the sum over
    i <= l of a_i * h_(l-i) is 0 for l >= 1, B - 1 steps give h_1 ..
    h_(B-1) from that band, and B steps give the g_b.  Every product is
    of two entries in (-q, q), below q**2 < 2**62, and each h_l sums l
    reduced products, below B * q.
    """
    if topo.B == topo.K:
        raise ValueError("full association has no recursive family; code at B = K-1")
    K, B, q = topo.K, topo.B, field.q
    # Allocated first, so a (K, B) too large to hold fails before any work.
    input_coeffs = np.empty((K, B, B), np.int64)
    points = evaluation_points(field, K, B)
    P = np.array(points, dtype=np.int64) % q
    x = P[topo.link_relay]
    indicator = np.ones((K, B), np.int64)  # I_k at the point of link j
    band = np.zeros((K, B), np.int64)  # column i is a_i of user k's I_k
    band[:, 0] = 1
    for column in topo.skipped_relay.T:
        root = P[column, None]
        indicator = indicator * (x - root) % q
        band[:, 1:] = (band[:, 1:] - root * band[:, :-1]) % q
    h = np.zeros((K, B), np.int64)  # column l is h_l of user k's roots
    h[:, 0] = 1
    for l in range(1, B):
        h[:, l] = -(band[:, 1:l + 1] * h[:, l - 1::-1] % q).sum(axis=1) % q
    g = np.ones((K, B), np.int64)
    for b in range(B):
        if b:
            g = (x * g + h[:, b, None]) % q
        input_coeffs[:, :, b] = indicator * g % q
    return CodeDesign(
        topo=topo,
        field=field,
        recovery=_recovery_matrix(q, points, B),
        input_coeffs=_read_only(input_coeffs),
        points=points,
    )
