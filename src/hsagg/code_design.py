"""Gradient-coding style message design for the relay layer.

Relay i's evaluation point is i, so the points 1..K are distinct and
nonzero whenever q > K.  Each user k gets an indicator polynomial that
vanishes exactly at the points of the relays it does NOT upload to:

    p_k(x) = prod over non-associated relays i of (x - i)

From p_k a family of B polynomials is generated recursively; member b has
degree K - B + b - 1, leading coefficient 1, and zero coefficients in the
band just below the leading term.  Stacking all coefficient vectors gives
a BK x K code matrix whose last B columns are stacked identity blocks.
That identity tail is what makes the column combinations e_{K-B+1..K}
reproduce the B coordinates of the input sum, and the recovery matrix is
simply the last B columns of the inverse of the evaluation matrix (the
K x K Vandermonde matrix of the points).

The per-link input coefficients are the family polynomials evaluated at
the receiving relay's point; links outside the association pattern get no
entry at all, which makes "relay i never mixes non-associated inputs" a
structural fact rather than a numerical one.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Mapping

from .gf import Matrix, Polynomial, PrimeField, vandermonde
from .topology import Topology, relays_of_user


def evaluation_points(field: PrimeField, K: int) -> tuple[int, ...]:
    """The point of user or relay j is j: distinct and nonzero whenever q > K."""
    if field.q <= K:
        raise ValueError(f"need q > K for evaluation points 1..K, got q={field.q}, K={K}")
    return tuple(range(1, K + 1))


def association_polynomial(topo: Topology, field: PrimeField, k: int) -> Polynomial:
    """Monic degree K-B indicator polynomial for user k.

    Vanishes at relay j's point exactly when relay j is outside user k's
    association set.  With B = K the product is empty and the constant 1
    is returned; that degenerate case is only reachable through the
    full-association reduction, which codes at B = K - 1.
    """
    assoc = set(relays_of_user(topo, k))
    points = evaluation_points(field, topo.K)
    roots = [points[i - 1] for i in topo.relays() if i not in assoc]
    return Polynomial.monic_from_roots(field, roots)


def recursive_family(topo: Topology, field: PrimeField, k: int) -> tuple[Polynomial, ...]:
    """The B polynomials derived from user k's indicator polynomial.

    Member b is x times member b-1 minus the coefficient of x^(K-B-1) in
    member b-1 times member 1.  The subtraction index stays fixed at
    K-B-1; that is what zeroes the coefficient band under the leading 1
    while keeping every member divisible by the indicator polynomial.
    """
    K, B = topo.K, topo.B
    if B == K:
        raise ValueError("full association has no recursive family; code at B = K-1")
    base = association_polynomial(topo, field, k)
    family = [base]
    drop = K - B - 1
    for _ in range(B - 1):
        prev = family[-1]
        family.append(prev.times_x() - base.scale(prev.coeff(drop)))
    return tuple(family)


def build_code_matrix(
    field: PrimeField, families: tuple[tuple[Polynomial, ...], ...], K: int
) -> Matrix:
    """BK x K matrix; row (k-1)B + b holds the coefficients of family member b of user k."""
    rows = []
    for fam in families:
        for p in fam:
            rows.append([p.coeff(j) for j in range(K)])
    return Matrix(field, rows)


def evaluation_matrix(field: PrimeField, K: int) -> Matrix:
    """K x K matrix whose column j is [1, j, j**2, ..., j**(K-1)]."""
    return vandermonde(field, evaluation_points(field, K), K).transpose()


def input_coefficients(
    topo: Topology, field: PrimeField, families: tuple[tuple[Polynomial, ...], ...]
) -> dict[tuple[int, int], tuple[int, ...]]:
    """Per-link coefficient table keyed by (user, relay); absent means zero.

    Entry (k, i) holds the B family polynomials of user k evaluated at
    relay i's point.  Only associated links appear.
    """
    points = evaluation_points(field, topo.K)
    table: dict[tuple[int, int], tuple[int, ...]] = {}
    for k in topo.users():
        fam = families[k - 1]
        for i in relays_of_user(topo, k):
            table[(k, i)] = tuple(p(points[i - 1]) for p in fam)
    return table


@dataclass(frozen=True, eq=False)
class CodeDesign:
    """Compiled message design for one (topology, field) choice."""

    topo: Topology
    field: PrimeField
    families: tuple[tuple[Polynomial, ...], ...]
    code_matrix: Matrix
    eval_matrix: Matrix
    recovery: Matrix
    input_coeffs: Mapping[tuple[int, int], tuple[int, ...]] = dc_field(repr=False)


def build_code_design(topo: Topology, field: PrimeField) -> CodeDesign:
    if topo.B == topo.K:
        raise ValueError("code designs exist for B <= K-1; reduce full association first")
    families = tuple(recursive_family(topo, field, k) for k in topo.users())
    theta = evaluation_matrix(field, topo.K)
    recovery = theta.inverse().take_cols(range(topo.K - topo.B, topo.K))
    return CodeDesign(
        topo=topo,
        field=field,
        families=families,
        code_matrix=build_code_matrix(field, families, topo.K),
        eval_matrix=theta,
        recovery=recovery,
        input_coeffs=input_coefficients(topo, field, families),
    )
