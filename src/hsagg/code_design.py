"""Gradient-coding style message design for the relay layer.

Relay i's evaluation point is i, so the points 1..K are distinct and
nonzero whenever q > K.  Polynomials here are plain coefficient rows of
length K, entry j multiplying x**j.  Each user k starts from the
indicator polynomial that vanishes exactly at the points of the relays
it does NOT upload to:

    p_k(x) = prod over non-associated relays i of (x - i)

From p_k a family of B rows is generated recursively; member b has
degree K - B + b - 1, leading coefficient 1, and zero coefficients in the
band just below the leading term.  Stacking all rows gives a BK x K code
matrix whose last B columns are stacked identity blocks.  That identity
tail is what makes the column combinations e_{K-B+1..K} reproduce the B
coordinates of the input sum, and the recovery matrix is simply the last
B columns of the inverse of the evaluation matrix (the K x K Vandermonde
matrix of the points).

The per-link input coefficients are user k's rows dotted with the powers
of the receiving relay's point; links outside the association pattern
get no entry at all, which makes "relay i never mixes non-associated
inputs" a structural fact rather than a numerical one.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from operator import mul
from typing import Mapping

from .gf import Matrix, PrimeField, vandermonde
from .topology import Topology, relays_of_user


def evaluation_points(field: PrimeField, K: int) -> tuple[int, ...]:
    """The point of user or relay j is j: distinct and nonzero whenever q > K."""
    if field.q <= K:
        raise ValueError(f"need q > K for evaluation points 1..K, got q={field.q}, K={K}")
    return tuple(range(1, K + 1))


def evaluation_matrix(field: PrimeField, K: int) -> Matrix:
    """K x K matrix whose column j is [1, j, j**2, ..., j**(K-1)]."""
    return vandermonde(field, evaluation_points(field, K), K).transpose()


def family_rows(topo: Topology, field: PrimeField, k: int) -> tuple[tuple[int, ...], ...]:
    """User k's B coefficient rows, each of length K.

    Row 1 is the monic degree K-B indicator polynomial, which vanishes at
    relay j's point exactly when relay j is outside user k's association
    set.  Row b is x times row b-1 minus the coefficient of x^(K-B-1) in
    row b-1 times row 1.  The subtraction index stays fixed at K-B-1;
    that is what zeroes the coefficient band under the leading 1 while
    keeping every row divisible by the indicator polynomial.
    """
    K, B, q = topo.K, topo.B, field.q
    if B == K:
        raise ValueError("full association has no recursive family; code at B = K-1")
    assoc = set(relays_of_user(topo, k))
    base = [1]
    for i, x in zip(topo.relays(), evaluation_points(field, K)):
        if i not in assoc:
            base = [(a - x * b) % q for a, b in zip([0] + base, base + [0])]
    base += [0] * (K - len(base))
    rows = [base]
    drop = K - B - 1
    for _ in range(B - 1):
        prev = rows[-1]
        rows.append([(a - prev[drop] * b) % q for a, b in zip([0] + prev, base)])
    return tuple(map(tuple, rows))


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


def build_code_design(topo: Topology, field: PrimeField) -> CodeDesign:
    """Code matrix, recovery matrix and per-link coefficients; absent links mean zero.

    Entry (k, i) of the coefficient table holds user k's B rows dotted
    with the powers of relay i's point.  Only associated links appear.
    """
    K, B, q = topo.K, topo.B, field.q
    families = [family_rows(topo, field, k) for k in topo.users()]
    theta = evaluation_matrix(field, K)
    powers = theta.transpose().rows
    input_coeffs = {
        (k, i): tuple(sum(map(mul, row, powers[i - 1])) % q for row in rows)
        for k, rows in zip(topo.users(), families)
        for i in relays_of_user(topo, k)
    }
    return CodeDesign(
        topo=topo,
        field=field,
        code_matrix=Matrix(field, [row for rows in families for row in rows]),
        recovery=theta.inverse().take_cols(range(K - B, K)),
        input_coeffs=input_coeffs,
    )
