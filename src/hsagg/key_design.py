"""Key generation: the matrices that mask inputs and cancel at the server.

Each user's key is one fresh symbol per block, derived linearly from a
pool of max(B, K-B) independent source symbols via a K-row key matrix.
The key coefficient matrix (K x K, row k supported exactly on user k's
associated relays) scales that key inside each outgoing message.  Two
joint conditions drive every construction here:

  cancellation   key_matrix^T @ key_coeffs @ recovery == 0
  tightness      rank(key_coeffs^T @ key_matrix) == K - B, so the only
                 combinations of relay messages that cancel the keys are
                 spanned by the recovery matrix

plus the MDS condition that any B rows of the key matrix are linearly
independent, which hands every relay B mutually independent masks.
``mds_proof`` checks it in polynomial time wherever a proof exists: the
single, vandermonde and full key matrices are a Vandermonde block times
an invertible matrix.  The circulant key matrices fall back to the
all-subsets certificate ``gf.every_subset_full_rank``, which the ratio
walk runs once on the accepted design and the gate then reuses.  No
certificate starts on more than MAX_SUBSETS row subsets; past that cap
the build raises ConstructionError.

Every Vandermonde block below is taken at the message design's
evaluation points 1..K (code_design.evaluation_points), and each regime
takes the smallest valid parameter, so a key design is a function of
(K, B, q) alone.  Four regimes, by association count B:

  single       B = 1.  Key coefficients are the identity; the key matrix
               is an extended Vandermonde block with rows rescaled so the
               keys cancel under the actual recovery column.
  circulant    2 <= B <= K/2.  The coefficient matrix is a circulant
               whose first row is the geometric progression 1, r, ...,
               r**(B-1); r is the smallest ratio >= 2 for which the
               coefficient matrix is invertible and the solved key
               matrix is MDS.
  vandermonde  K/2 < B <= K-1.  The key matrix is a K x B Vandermonde
               block; each relay's coefficient vector is solved, in
               closed form from its senders' Lagrange basis polynomials,
               from a target row whose leading entry (the anchor) is the
               smallest nonzero element outside a bad set of at most K*B
               elements, so no coefficient collapses to 0.
  full         B = K.  Reduction: run the B = K-1 regime and disable the
               last outgoing link of each user.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import lru_cache
from math import comb
from operator import mul

from .code_design import CodeDesign, evaluation_points, lagrange_rows, recovery_matrix
from .gf import (
    MAX_MODULUS,
    Matrix,
    PrimeField,
    SingularMatrixError,
    every_subset_full_rank,
    is_prime,
    vandermonde,
)
from .topology import Topology, relays_of_user, users_of_relay

REGIME_SINGLE = "single"
REGIME_CIRCULANT = "circulant"
REGIME_VANDERMONDE = "vandermonde"
REGIME_FULL = "full"


class ConstructionError(RuntimeError):
    """A key design or its field could not be constructed."""


@dataclass(frozen=True)
class KeyDesign:
    """Key matrix, coefficient matrix, and the regime that produced them."""

    key_matrix: Matrix
    key_coeffs: Matrix
    regime: str
    ratio: "int | None" = None   # circulant progression ratio
    anchor: "int | None" = None  # leading target entry of the vandermonde solve


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class AuditReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


def regime_for(K: int, B: int) -> str:
    if not 1 <= B <= K:
        raise ValueError(f"B must lie in [1, {K}], got {B}")
    if B == K:
        return REGIME_FULL
    if B == 1:
        return REGIME_SINGLE
    if 2 * B <= K:
        return REGIME_CIRCULANT
    return REGIME_VANDERMONDE


def sufficient_field_size(K: int, B: int) -> int:
    """Field size above which some circulant ratio is always valid."""
    return comb(K, B) * (K - B) * (K - 1) * (B - 1) + B * K + 2


def select_field(K: int, B: int) -> PrimeField:
    """Smallest prime field with the guarantees of the (K, B) regime.

    Callers may override with any prime; below-bound overrides are still
    attempted and fail with ConstructionError only if no valid ratio or
    anchor exists.  A (K, B) whose smallest such prime reaches the 2**31
    modulus cap fails with ConstructionError; every (K, B) with K <= 22
    has a field below the cap.
    """
    regime = regime_for(K, B)
    if regime == REGIME_CIRCULANT:
        lo, step = sufficient_field_size(K, B), K
        q = ((lo - 2) // K + 1) * K + 1  # smallest q >= lo with q % K == 1
    else:
        lo = q = K * B + 1 if regime == REGIME_VANDERMONDE else K + 2
        step = 1
    while q < MAX_MODULUS and not is_prime(q):
        q += step
    if q >= MAX_MODULUS:
        raise ConstructionError(
            f"(K, B) = ({K}, {B}) needs a prime field of size at least {lo}, and the "
            f"{regime} regime has none below the 2**31 modulus cap; every (K, B) "
            "with K <= 22 has one, and (23, 10) is the first that does not"
        )
    return PrimeField(q)


def _circulant(field: PrimeField, K: int, B: int, ratio: int) -> Matrix:
    rows = []
    for k in range(K):
        row = [0] * K
        for j in range(B):
            row[(k + j) % K] = pow(ratio, j, field.q)
        rows.append(row)
    return Matrix(field, rows)


# One entry: the walk's accepted ratio is the last one solved, so
# circulant_keygen takes that design from here instead of solving again.
@lru_cache(maxsize=1)
def _circulant_design(field: PrimeField, K: int, B: int, ratio: int) -> "KeyDesign | None":
    """The circulant design of one ratio, or None when its system is singular."""
    coeffs = _circulant(field, K, B, ratio)
    target = vandermonde(field, evaluation_points(field, K), K - B)
    try:
        key_matrix = coeffs.transpose().solve(target)
    except SingularMatrixError:
        return None
    return KeyDesign(key_matrix, coeffs, REGIME_CIRCULANT, ratio=ratio)


# Most row subsets one all-subsets certificate may eliminate.  It admits
# C(22, 11) = 705432, the largest count of any circulant scheme with a
# default field, which certifies in about a second.
MAX_SUBSETS = 1 << 20


def _check_subset_budget(K: int, size: int) -> None:
    count = comb(K, size)
    if count > MAX_SUBSETS:
        raise ConstructionError(
            f"certifying every {size} of {K} key-matrix rows independent needs "
            f"{count} subsets, above the cap of {MAX_SUBSETS}"
        )


# One entry: the walk certifies the accepted ratio's key matrix last, so
# the key-matrix-mds gate of the same build reads that verdict from here.
@lru_cache(maxsize=1)
def _certificate(M: Matrix, size: int) -> bool:
    return every_subset_full_rank(M, size)


def circulant_ratio_valid(field: PrimeField, K: int, B: int, ratio: int) -> bool:
    """Full validity predicate of the ratio walk and its sampler."""
    _check_subset_budget(K, K - B)
    q = field.q
    if ratio % q == 0 or pow(ratio, K, q) == 1:
        return False
    design = _circulant_design(field, K, B, ratio)
    return design is not None and _certificate(design.key_matrix, K - B)


def circulant_keygen(K: int, B: int, field: PrimeField) -> KeyDesign:
    """Regime 2 <= B <= K/2 with the smallest valid ratio; requires K | (q - 1)."""
    if not (2 <= B and 2 * B <= K):
        raise ValueError(f"circulant regime needs 2 <= B <= K/2, got K={K}, B={B}")
    if (field.q - 1) % K != 0:
        raise ConstructionError(
            f"circulant regime needs K | (q-1); q={field.q}, K={K}"
        )
    ratio = next((r for r in range(2, field.q) if circulant_ratio_valid(field, K, B, r)), None)
    if ratio is None:
        raise ConstructionError(
            f"no valid circulant ratio in GF({field.q}); "
            f"size {sufficient_field_size(K, B)} suffices"
        )
    return _circulant_design(field, K, B, ratio)


def sample_circulant_validity(
    K: int, B: int, field: PrimeField, samples: int, seed: int = 0
) -> int:
    """Count valid ratios among uniform draws from the whole field."""
    rng = random.Random(seed)
    return sum(
        circulant_ratio_valid(field, K, B, rng.randrange(field.q))
        for _ in range(samples)
    )


def _relay_solve_data(
    field: PrimeField, K: int, B: int
) -> dict[int, tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
    """Per relay of the K x B Vandermonde key block: (senders, first, rest).

    The relay's coefficient vector is anchor * first + rest.  It solves the
    transposed B x B block of the senders' key rows, a Vandermonde matrix
    at the senders' points, against the target (anchor, p, p**2, ...,
    p**(K-B-1), 0, ..., 0) at the relay's point p.  That block's inverse
    has the coefficient rows of the senders' Lagrange basis polynomials
    l_j as its rows, so entry j of first is the constant term of l_j and
    entry j of rest is the sum over 1 <= t <= K-B-1 of coef_t(l_j) * p**t.
    A constant term l_j(0) is a product of nonzero differences, so first
    has no zero entry.
    """
    q = field.q
    topo = Topology(K, B)
    points = evaluation_points(field, K)
    out: dict[int, tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]] = {}
    for i, p in zip(topo.relays(), points):
        senders = users_of_relay(topo, i)
        rows = lagrange_rows(q, [points[u - 1] for u in senders])
        powers = [pow(p, t, q) for t in range(1, K - B)]
        first = tuple(row[0] for row in rows)
        rest = tuple(sum(map(mul, row[1:K - B], powers)) % q for row in rows)
        out[i] = (senders, first, rest)
    return out


def _bad_sets(field: PrimeField, per_relay: dict) -> dict[int, set[int]]:
    # The anchor c zeroes coefficient c * f + r exactly when c = -r / f.
    return {
        i: {-r * field.inv(f) % field.q for f, r in zip(first, rest)}
        for i, (_, first, rest) in per_relay.items()
    }


def anchor_bad_sets(K: int, B: int, field: PrimeField) -> dict[int, set[int]]:
    """Anchors that zero some coefficient of a relay; at most B per relay."""
    return _bad_sets(field, _relay_solve_data(field, K, B))


def vandermonde_keygen(K: int, B: int, field: PrimeField) -> KeyDesign:
    """Regime K/2 < B <= K-1 with the smallest valid anchor; requires q > K."""
    if not (2 * B > K and B <= K - 1):
        raise ValueError(f"vandermonde regime needs K/2 < B <= K-1, got K={K}, B={B}")
    q = field.q
    key_matrix = vandermonde(field, evaluation_points(field, K), B)
    per_relay = _relay_solve_data(field, K, B)
    bad = set().union(*_bad_sets(field, per_relay).values())

    # |bad| <= K*B, so this takes at most K*B + 1 tries.
    anchor = next((c for c in range(1, q) if c not in bad), None)
    if anchor is None:
        raise ConstructionError(
            f"every nonzero anchor lies in the bad set over GF({q}); "
            f"q > {K * B} suffices"
        )

    coeff_rows = [[0] * K for _ in range(K)]
    for i, (senders, first, rest) in per_relay.items():
        for j, u in enumerate(senders):
            coeff_rows[u - 1][i - 1] = (anchor * first[j] + rest[j]) % q
    return KeyDesign(
        key_matrix, Matrix(field, coeff_rows), REGIME_VANDERMONDE, anchor=anchor
    )


def single_assoc_keygen(K: int, field: PrimeField) -> KeyDesign:
    """Regime B = 1: identity coefficients, extended Vandermonde key matrix.

    Rows 1..K-1 are Vandermonde rows and row K is the negated sum of the
    others, so the unscaled rows sum to zero.  Each row is then divided by
    the matching entry of the recovery column, which moves the zero-sum
    property to exactly the combination the server applies.
    """
    if field.q <= K + 1:
        raise ConstructionError(f"single-association regime needs q > K+1, got q={field.q}")
    q = field.q
    points = evaluation_points(field, K)
    ext = [[pow(points[k], j, q) for j in range(K - 1)] for k in range(K - 1)]
    ext.append([-sum(col) % q for col in zip(*ext)])
    recovery_col = recovery_matrix(field, K, 1).column(0)
    rows = [
        [v * field.inv(r) % q for v in row]
        for row, r in zip(ext, recovery_col)
    ]
    key_matrix = Matrix(field, rows)
    if mds_proof(key_matrix, K - 1, points) is None:
        raise ConstructionError(
            f"single-association key matrix lost full rank on some K-1 rows over GF({q}); "
            "choose another field"
        )
    return KeyDesign(key_matrix, Matrix.identity(field, K), REGIME_SINGLE)


def full_assoc_keygen(K: int, field: PrimeField) -> KeyDesign:
    """Regime B = K: reuse the B = K-1 design (one link per user is disabled)."""
    if K < 2:
        raise ValueError("full-association regime needs K >= 2")
    return replace(build_keys(K, K - 1, field), regime=REGIME_FULL)


def build_keys(K: int, B: int, field: PrimeField) -> KeyDesign:
    regime = regime_for(K, B)
    evaluation_points(field, K)  # q > K, before any regime's own field checks
    if regime == REGIME_SINGLE:
        return single_assoc_keygen(K, field)
    if regime == REGIME_CIRCULANT:
        return circulant_keygen(K, B, field)
    if regime == REGIME_VANDERMONDE:
        return vandermonde_keygen(K, B, field)
    return full_assoc_keygen(K, field)


def _vandermonde_witness(M: Matrix, points: tuple[int, ...]) -> bool:
    """True iff M = V @ T for V with rows [1, p, ..., p**(m-1)] at distinct points and T invertible.

    The top m rows give T = V_top**-1 @ M_top in closed form: row r of
    ``lagrange_rows`` is column r of V_top's inverse.  Then V @ T is
    compared with M on every row, and rank T is counted on its columns.
    """
    q, K, m = M.field.q, M.nrows, M.ncols
    points = [p % q for p in points]
    if len(points) != K or len(set(points)) != K or m > K:
        return False
    inverse = lagrange_rows(q, points[:m])
    T_cols = [
        [sum(map(mul, inverse_col, col)) % q for inverse_col in zip(*inverse)]
        for col in zip(*M.rows[:m])
    ]
    for k in [*range(m, K), *range(m)]:  # the rows below the top first
        powers = [1] * m
        for j in range(1, m):
            powers[j] = powers[j - 1] * points[k] % q
        if any(sum(map(mul, powers, col)) % q != x for col, x in zip(T_cols, M.rows[k])):
            return False
    return Matrix(M.field, T_cols).rank() == m


def mds_proof(M: Matrix, size: int, points: tuple[int, ...]) -> "str | None":
    """How every ``size`` rows of M were proven independent, or None when some are not.

    The verdict always equals ``every_subset_full_rank(M, size)``; the
    name says which proof gave it:

      "vandermonde"  M = V @ T with T invertible, for the Vandermonde rows
                     V at the distinct points (``_vandermonde_witness``).
                     Any size <= m rows of V are independent, and T keeps
                     them so.  This covers the single, vandermonde and
                     full regimes.
      "implication"  size < m = M.ncols and every m rows are independent,
                     so every smaller subset is too.  The circulant walk
                     has already certified its key matrix's m rows.
      "subsets"      every size-row subset eliminated.

    The implication is skipped when certifying every m rows would take
    more than MAX_SUBSETS subsets, and the last step raises
    ConstructionError, before any elimination, when it would.
    """
    K, m = M.nrows, M.ncols
    if size <= m and _vandermonde_witness(M, points):
        return "vandermonde"
    if size < m and comb(K, m) <= MAX_SUBSETS and _certificate(M, m):
        return "implication"
    _check_subset_budget(K, size)
    return "subsets" if _certificate(M, size) else None


@dataclass(frozen=True)
class MaskedKeySpan:
    """Facts about the masked key matrix key_matrix^T @ key_coeffs."""

    rank: int
    null_dim: int
    recovery_rank: int
    cancels: bool  # masked @ recovery == 0
    spans: bool    # cancels, and its nullspace and the recovery span both have dimension B


def masked_key_span(
    key_matrix: Matrix, key_coeffs: Matrix, recovery: Matrix, B: int
) -> MaskedKeySpan:
    """Rank, nullspace dimension and recovery-span verdicts of the masked key matrix.

    The relay-message combinations that cancel every key are the nullspace
    of the masked matrix; the server learns only the sum exactly when that
    nullspace is B-dimensional and spanned by the recovery columns.
    """
    masked = key_matrix.transpose() @ key_coeffs
    cancels = (masked @ recovery).is_zero()
    rank = masked.rank()
    null_dim = masked.ncols - rank
    recovery_rank = recovery.rank()
    # Cancelling recovery columns lie in the nullspace, so B independent
    # ones span it exactly when it is B-dimensional (rank-nullity).
    spans = cancels and null_dim == B and recovery_rank == B
    return MaskedKeySpan(rank, null_dim, recovery_rank, cancels, spans)


def validate_scheme(keys: KeyDesign, code: CodeDesign) -> AuditReport:
    """Run the five structural checks every emitted scheme must pass.

    Failures land in the report instead of raising; the builder treats a
    failing report as a construction error, while tests mutate schemes and
    assert on individual entries.
    """
    topo = code.topo
    K, B = topo.K, topo.B
    coeffs, key_matrix = keys.key_coeffs, keys.key_matrix
    checks = []

    assoc = {k: relays_of_user(topo, k) for k in topo.users()}
    supported = all(
        (coeffs.rows[k - 1][i - 1] != 0) == (i in assoc[k])
        for k in topo.users()
        for i in topo.relays()
    )
    checks.append(
        CheckResult(
            "coefficient-support",
            supported,
            "nonzero exactly on associated links",
        )
    )

    span = masked_key_span(key_matrix, coeffs, code.recovery, B)
    checks.append(
        CheckResult("key-cancellation", span.cancels, "key_matrix^T @ coeffs @ recovery == 0")
    )
    checks.append(
        CheckResult(
            "mixed-rank",
            span.rank == K - B,
            f"rank(coeffs^T @ key_matrix) = {span.rank}, expected {K - B}",
        )
    )
    checks.append(
        CheckResult(
            "nullspace-equals-recovery-span",
            span.spans,
            f"null dim {span.null_dim}, recovery rank {span.recovery_rank}, expected both {B}",
        )
    )

    mds = mds_proof(key_matrix, B, evaluation_points(code.field, K)) is not None
    checks.append(
        CheckResult("key-matrix-mds", mds, f"every {B} rows independent")
    )
    return AuditReport(tuple(checks))
