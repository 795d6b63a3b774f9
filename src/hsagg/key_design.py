"""Key generation: the matrices that mask inputs and cancel at the server.

Each user's key is one fresh symbol per block, derived linearly from a
pool of n = max(B, K-B) independent source symbols via the key matrix H,
a read-only (K, n) int64 array.
The (K, B) key coefficients, laid out like the input coefficients, scale
that key on each link, so relay i's sum carries the key part m_i, the
sum over its links j of users k of key_coeffs[k-1, j] * H[k-1].  Two
joint conditions on M = [m_1 ... m_K] drive every construction here:

  cancellation   M @ recovery == 0
  tightness      rank M == K - B, so the only combinations of relay
                 messages that cancel the keys are spanned by the
                 recovery matrix

plus the MDS condition that any B rows of the key matrix are linearly
independent, which hands every relay B mutually independent masks.
``mds_proof`` proves it in polynomial time: every key matrix built here
is a Vandermonde block at the evaluation points times an invertible
matrix.  For other matrices it falls back on one rank per row subset
(``gf.every_subset_full_rank``), and refuses with ConstructionError,
before any elimination, more than MAX_SUBSETS subsets.  Every rank here
is one ``gf.rank_mod`` of an int64 array.

Every Vandermonde block below is taken at the message design's
evaluation points (code_design.evaluation_points): 1..K, or the K-th
roots of unity in the circulant regime.  Each regime takes the smallest
valid parameter, so a key design is a function of (K, B, q) alone.
Four regimes, by association count B:

  single       B = 1.  Key coefficients are 1; the key matrix is an
               extended Vandermonde block with rows rescaled so the
               keys cancel under the actual recovery column.
  circulant    2 <= B <= K/2.  Every user's links carry 1, r, ...,
               r**(B-1), so M = H^T C for the circulant C with that
               zero-padded first row; r is the smallest ratio >= 2 for
               which C is invertible.  At the points w**t the Fourier
               vectors are C^T's eigenvectors, with eigenvalues mu_t, so
               the key matrix C^(-T) V is the Vandermonde block V with
               column t divided by mu_t: closed form, and MDS.
  vandermonde  K/2 < B <= K-1.  The key matrix is a K x B Vandermonde
               block; each relay's coefficients, one per sender, solve
               its senders' B x B Vandermonde system in closed form: the
               K-B low coefficients of each sender's Lagrange basis
               polynomial, taken from the low coefficients of the
               senders' root product and a barycentric weight, against
               a target row whose leading entry (the anchor) is the
               smallest nonzero element outside a bad set of at most K*B
               elements, so no coefficient collapses to 0.
  full         B = K.  Reduction: run the B = K-1 regime and disable the
               last outgoing link of each user.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb, gcd, prod

import numpy as np

from .code_design import CodeDesign, ConstructionError, evaluation_points, lagrange_rows
from .gf import MAX_MODULUS, PrimeField, every_subset_full_rank, is_prime, matmul_mod
from .gf import power_table, rank_mod, vandermonde
from .topology import Topology, _read_only

REGIME_SINGLE = "single"
REGIME_CIRCULANT = "circulant"
REGIME_VANDERMONDE = "vandermonde"
REGIME_FULL = "full"


@dataclass(frozen=True, eq=False)
class KeyDesign:
    """Key matrix, key coefficients, and the regime that produced them.

    key_matrix is read-only (K, n) int64, with n source symbols per
    block.  key_coeffs is read-only (K, B) int64, laid out like
    ``input_coeffs``, with B the coded B: K - 1 when B = K was requested."""

    key_matrix: np.ndarray
    key_coeffs: np.ndarray
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
    """Field size above which some circulant ratio is always valid: at most
    K(B-1) nonzero ratios fail (``circulant_valid_ratios``), and r = 0."""
    return K * (B - 1) + 2


def select_field(K: int, B: int) -> PrimeField:
    """Smallest prime field with the guarantees of the (K, B) regime.

    Callers may override with any prime; below-bound overrides are still
    attempted and fail with ConstructionError only if no valid ratio or
    anchor exists.  A (K, B) whose smallest such prime reaches the 2**31
    modulus cap fails with ConstructionError.
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
            f"{regime} regime has none below the 2**31 modulus cap"
        )
    return PrimeField(q)


def _eigenvalues(q: int, points: tuple[int, ...], B: int, ratio: int) -> list[int]:
    """mu_t = sum over j < B of (ratio * w**-t)**j for t = 0..K-1, at the points w**t.

    Column t of the Vandermonde block at the points is an eigenvector of
    the circulant's transpose with eigenvalue mu_t.  These K columns are
    independent, so the circulant is invertible iff no mu_t is 0.  Each
    sum is taken by Horner's rule, mu = mu * x + 1, one step per term.
    """
    inverses = points[:1] + points[:0:-1]  # w**-t = w**(K-t)
    mus = []
    for inverse in inverses:
        x, mu = ratio * inverse % q, 1
        for _ in range(B - 1):
            mu = (mu * x + 1) % q
        mus.append(mu)
    return mus


# Most row subsets one all-subsets certificate may eliminate, one rank
# each.  It admits C(16, 8) = 12870, which certifies in 1.5 to 2.0 s on
# a 2-vCPU Intel Xeon VM (115 to 155 us a subset); 2**20 subsets would
# take minutes.
MAX_SUBSETS = 1 << 14


def circulant_ratio_valid(field: PrimeField, K: int, B: int, ratio: int) -> bool:
    """Predicate of the ratio walk: the ratio is nonzero, so that every link has a
    coefficient, and its circulant is invertible."""
    q = field.q
    return ratio % q != 0 and all(_eigenvalues(q, evaluation_points(field, K, B), B, ratio))


def circulant_valid_ratios(field: PrimeField, K: int, B: int) -> int:
    """How many r in GF(q) satisfy ``circulant_ratio_valid``, in closed form.

    r = 0 fails, and a nonzero r fails exactly when some y = r * w**-t has
    y**B = 1 and y != 1 (at y = 1 eigenvalue t is B, and B < q).  With W
    the K-th and U the B-th roots of unity, g = |U| = gcd(B, q-1) and
    d = |W & U| = gcd(g, K), the failing r fill the cosets W * u, u != 1
    in U, of W in the group W * U of K*g/d elements: all its cosets when
    d > 1, and all but W itself when d = 1.  So q - 1 - K*g/d or
    q - 1 - K*(g-1) ratios are valid.  Refuses as ``circulant_keygen`` does.
    """
    if not (2 <= B and 2 * B <= K):
        raise ValueError(f"circulant regime needs 2 <= B <= K/2, got K={K}, B={B}")
    evaluation_points(field, K, B)  # refuses unless q > K and K | (q - 1)
    q = field.q
    g, d = gcd(B, q - 1), gcd(B, q - 1, K)
    return q - 1 - (K * g // d if d > 1 else K * (g - 1))


def circulant_keygen(K: int, B: int, field: PrimeField) -> KeyDesign:
    """Regime 2 <= B <= K/2 with the smallest valid ratio; requires K | (q - 1)."""
    if not (2 <= B and 2 * B <= K):
        raise ValueError(f"circulant regime needs 2 <= B <= K/2, got K={K}, B={B}")
    q = field.q
    points = evaluation_points(field, K, B)
    ratio = next((r for r in range(2, q) if circulant_ratio_valid(field, K, B, r)), None)
    if ratio is None:
        raise ConstructionError(
            f"no valid circulant ratio in GF({q}); size {sufficient_field_size(K, B)} suffices"
        )
    inv = [field.inv(mu) for mu in _eigenvalues(q, points, B, ratio)[: K - B]]
    key_matrix = _read_only(power_table(points, K - B, q) * inv % q)
    coeffs = _read_only(np.repeat(power_table([ratio], B, q), K, axis=0))
    return KeyDesign(key_matrix, coeffs, REGIME_CIRCULANT, ratio=ratio)


def _inverses(a: np.ndarray, q: int) -> np.ndarray:
    """Entrywise inverses mod q of an int64 array with no entry divisible by q."""
    return np.array([pow(x, -1, q) for x in a.ravel().tolist()], np.int64).reshape(a.shape)


def _relay_solve_data(field: PrimeField, K: int, B: int) -> tuple[np.ndarray, ...]:
    """Every relay's solve of the K x B Vandermonde key block, as (first,
    rest), and the bad anchors -rest / first that zero each coefficient.

    All three are (K, B) int64 arrays laid out like ``topo.relay_links``,
    so row i-1 is relay i's, by ascending sender.  The relay's
    coefficients are anchor * first + rest.  They solve the transposed
    B x B block of the senders' key rows, a Vandermonde matrix at the
    senders' points, against the target (anchor, p, p**2, ..., p**T, 0,
    ..., 0) at the relay's point p, with T = K-B-1.  That block's inverse
    has the coefficient rows of the senders' Lagrange basis polynomials
    as its rows, so entry u of first is the constant term of l_u and
    entry u of rest is the sum over 1 <= t <= T of coef_t(l_u) * p**t.
    Only those T + 1 low coefficients are computed.

    With N(x) the product of (x - p_v) over the senders v, the Lagrange
    basis polynomial is l_u = w_u * N / (x - p_u), with the barycentric
    weight w_u = 1 / prod over senders v != u of (p_u - p_v).  Matching
    coefficients in N = (x - p_u) * Q gives Q's low coefficients from N's:
    Q_0 = -N_0 / p_u and Q_t = (Q_(t-1) - N_t) / p_u, as every point is
    nonzero.  These are the same values ``lagrange_rows`` holds, so the
    solve is unchanged.  Every step below runs on all K relays at once:
    each of the B senders' columns multiplies its factor into N's low
    coefficients and its difference into the other senders' weight
    products.  The constant term w_u * Q_0 is, up to sign, a product of
    nonzero differences over p_u, so first has no zero entry, and with R
    the sum that rest weights by w_u, -rest / first = R * p_u / N_0, which
    inverts only each relay's N_0.
    """
    q = field.q
    topo = Topology(K, B)
    points = evaluation_points(field, K, B)
    senders, pts = topo.relay_links // B, np.array(points, np.int64)
    p = pts[senders]
    T = K - B - 1
    low = np.zeros((K, T + 1), np.int64)  # N_0..N_T of each relay
    low[:, 0] = 1
    prods = np.ones((K, B), np.int64)  # 1 / w_u
    for s in range(B):
        ps = p[:, s, None]
        low[:, 1:] = (low[:, :-1] - ps * low[:, 1:]) % q
        low[:, :1] = -ps * low[:, :1] % q
        diff = p - ps
        diff[:, s] = 1
        prods = prods * diff % q
    weight = _inverses(prods, q)
    inv_p = _inverses(pts, q)[senders]
    c = -low[:, :1] * inv_p % q  # Q_0
    first = weight * c % q
    powers = power_table(points, T + 1, q)  # row i-1: powers of relay i's point
    rest = np.zeros((K, B), np.int64)
    for t in range(1, T + 1):
        c = (c - low[:, t, None]) * inv_p % q
        rest = (rest + c * powers[:, t, None]) % q
    bad = rest * p % q * _inverses(low[:, :1], q) % q
    return first, weight * rest % q, bad


def anchor_bad_sets(K: int, B: int, field: PrimeField) -> dict[int, set[int]]:
    """Anchors that zero some coefficient of a relay; at most B per relay."""
    bad = _relay_solve_data(field, K, B)[2]
    return {i: set(row) for i, row in enumerate(bad.tolist(), 1)}


def vandermonde_keygen(K: int, B: int, field: PrimeField) -> KeyDesign:
    """Regime K/2 < B <= K-1 with the smallest valid anchor; requires q > K."""
    if not (2 * B > K and B <= K - 1):
        raise ValueError(f"vandermonde regime needs K/2 < B <= K-1, got K={K}, B={B}")
    q = field.q
    key_matrix = vandermonde(field, evaluation_points(field, K, B), B)
    first, rest, anchors = _relay_solve_data(field, K, B)
    bad = set(anchors.ravel().tolist())

    # |bad| <= K*B, so this takes at most K*B + 1 tries.
    anchor = next((c for c in range(1, q) if c not in bad), None)
    if anchor is None:
        raise ConstructionError(
            f"every nonzero anchor lies in the bad set over GF({q}); "
            f"q > {K * B} suffices"
        )

    coeffs = np.empty((K, B), np.int64)
    coeffs.reshape(-1)[Topology(K, B).relay_links] = (anchor * first + rest) % q
    return KeyDesign(key_matrix, _read_only(coeffs), REGIME_VANDERMONDE, anchor=anchor)


def single_assoc_keygen(K: int, field: PrimeField) -> KeyDesign:
    """Regime B = 1: unit key coefficients, extended Vandermonde key matrix.

    Rows 1..K-1 are Vandermonde rows and row K is the negated sum of the
    others, so the unscaled rows sum to zero.  Each row is then divided by
    the matching entry of the recovery column, which moves the zero-sum
    property to exactly the combination the server applies.  Any K-1
    rows stay independent: rows 1..K-1 form an invertible Vandermonde
    block at distinct points, row K is minus their sum, and the scales
    are nonzero.  Entry r of the recovery column is the top coefficient
    of the Lagrange basis polynomial l_r, 1 / prod_{j != r} (p_r - p_j),
    so dividing row r by it multiplies the row by that product.
    ``validate_scheme``'s nullspace-equals-recovery-span gate checks it:
    the rows' only dependency is then the recovery column, which has no
    zero entry.
    """
    if field.q <= K + 1:
        raise ConstructionError(f"single-association regime needs q > K+1, got q={field.q}")
    q = field.q
    points = evaluation_points(field, K, 1)
    ext = power_table(points[: K - 1], K - 1, q)
    ext = np.vstack([ext, -ext.sum(axis=0) % q])
    scales = [prod(p - other for other in points if other != p) % q for p in points]
    key_matrix = _read_only(ext * np.array(scales)[:, None] % q)
    return KeyDesign(key_matrix, _read_only(np.ones((K, 1), np.int64)), REGIME_SINGLE)


def full_assoc_keygen(K: int, field: PrimeField) -> KeyDesign:
    """Regime B = K: reuse the B = K-1 design (one link per user is disabled)."""
    if K < 2:
        raise ValueError("full-association regime needs K >= 2")
    return replace(build_keys(K, K - 1, field), regime=REGIME_FULL)


def build_keys(K: int, B: int, field: PrimeField) -> KeyDesign:
    regime = regime_for(K, B)
    evaluation_points(field, K, B)  # q > K, before any regime's own field checks
    if regime == REGIME_SINGLE:
        return single_assoc_keygen(K, field)
    if regime == REGIME_CIRCULANT:
        return circulant_keygen(K, B, field)
    if regime == REGIME_VANDERMONDE:
        return vandermonde_keygen(K, B, field)
    return full_assoc_keygen(K, field)


def _vandermonde_witness(M: np.ndarray, q: int, points: tuple[int, ...]) -> bool:
    """True iff M = V @ T over GF(q) for V with rows [1, p, ..., p**(m-1)] at distinct
    points and T invertible.

    Column c of M is V @ T's exactly when the polynomial interpolating it
    at the points has degree below m, that is, when its coefficients of
    x**m .. x**(K-1) vanish.  Those are the top K - m coefficients of the
    Lagrange basis polynomials (``lagrange_rows``) applied to the column,
    so one ``matmul_mod`` of that tail with M decides it.  Then the top m
    rows give M[:m] = V_top @ T with V_top invertible, so rank T is the
    rank of M[:m].
    """
    K, m = M.shape
    points = [p % q for p in points]
    if len(points) != K or len(set(points)) != K or m > K:
        return False
    tail = np.array(lagrange_rows(q, points, K - m), dtype=np.int64)
    return not matmul_mod(tail.T, M, q).any() and rank_mod(M[:m], q) == m


def mds_proof(M: np.ndarray, q: int, size: int, points: tuple[int, ...]) -> "str | None":
    """How every ``size`` rows of M were proven independent over GF(q), or None when some are not.

    The verdict always equals ``every_subset_full_rank(M, q, size)``; the
    name says which proof gave it:

      "vandermonde"  M = V @ T with T invertible, for the Vandermonde rows
                     V at the distinct points: every column of M
                     interpolates to a polynomial of degree below m, and
                     M's top m rows have full rank (``_vandermonde_witness``).
                     Any size <= m rows of V are independent, and T keeps
                     them so.  This covers every key design built here.
      "subsets"      one rank per size-row subset.

    More rows than M has columns are dependent, so such a size gets None
    before either proof.  The subsets step raises ConstructionError,
    before any elimination, when it would take more than MAX_SUBSETS
    subsets.
    """
    nrows, ncols = M.shape
    if ncols < size <= nrows:
        return None
    if size <= ncols and _vandermonde_witness(M, q, points):
        return "vandermonde"
    count = comb(nrows, size)
    if count > MAX_SUBSETS:
        raise ConstructionError(
            f"certifying every {size} of {nrows} key-matrix rows independent needs "
            f"{count} subsets, above the cap of {MAX_SUBSETS}"
        )
    return "subsets" if every_subset_full_rank(M, q, size) else None


@dataclass(frozen=True)
class MaskedKeySpan:
    """Facts about the masked key matrix, whose column i sums relay i's masked key rows."""

    rank: int
    null_dim: int
    recovery_rank: int
    cancels: bool  # masked @ recovery == 0
    spans: bool    # cancels, and its nullspace and the recovery span both have dimension B


def _check_key_coeffs(key_coeffs: np.ndarray, topo: Topology) -> None:
    """A key_coeffs array not of shape (K, B), one per link, raises ValueError."""
    K, B = topo.K, topo.B
    if key_coeffs.shape != (K, B):
        raise ValueError(
            f"key_coeffs must have shape ({K}, {B}), one per link, got {key_coeffs.shape}"
        )


def _relay_masks(
    key_matrix: np.ndarray, key_coeffs: np.ndarray, topo: Topology, q: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each relay's (K, B) link coefficients and (K, B, n) masked key rows.

    Row i-1 of each holds relay i's links in ``topo.relay_links`` order; a
    masked row is the link's coefficient times its sender's key row."""
    _check_key_coeffs(key_coeffs, topo)
    lam = key_coeffs.reshape(-1)[topo.relay_links]
    return lam, lam[:, :, None] * key_matrix[topo.relay_links // topo.B] % q


def masked_key_span(
    key_matrix: np.ndarray, key_coeffs: np.ndarray, recovery: np.ndarray, topo: Topology, q: int
) -> MaskedKeySpan:
    """Rank, nullspace dimension and recovery-span verdicts of the masked key matrix.

    The relay-message combinations that cancel every key are the nullspace
    of the (n, K) masked matrix, whose column i sums relay i's masked key
    rows (``_relay_masks``); the server learns only the sum exactly when
    that nullspace is B-dimensional and spanned by the recovery columns.
    The matrix is one product: entry [i-1, k-1] of the (K, K) weights is
    user k's key coefficient on its link to relay i, and 0 when there is
    no such link.
    """
    _check_key_coeffs(key_coeffs, topo)
    weights = np.zeros((topo.K, topo.K), np.int64)
    weights[topo.link_relay, np.arange(topo.K)[:, None]] = key_coeffs
    masked = matmul_mod(weights, key_matrix, q).T
    cancels = not matmul_mod(masked, recovery, q).any()
    rank = rank_mod(masked, q)
    null_dim = masked.shape[1] - rank
    recovery_rank = rank_mod(recovery, q)
    # Cancelling recovery columns lie in the nullspace, so B independent
    # ones span it exactly when it is B-dimensional (rank-nullity).
    spans = cancels and null_dim == topo.B and recovery_rank == topo.B
    return MaskedKeySpan(rank, null_dim, recovery_rank, cancels, spans)


def validate_scheme(keys: KeyDesign, code: CodeDesign) -> AuditReport:
    """Run the five structural checks every emitted scheme must pass.

    Failures land in the report instead of raising; the builder treats a
    failing report as a construction error, while tests mutate schemes and
    assert on individual entries.
    """
    topo, q = code.topo, code.field.q
    K, B = topo.K, topo.B
    coeffs, key_matrix = keys.key_coeffs, keys.key_matrix

    # One coefficient per link, so none zero means nonzero exactly on the links.
    supported = bool(coeffs.all())
    checks = [CheckResult("coefficient-support", supported, "nonzero exactly on associated links")]

    span = masked_key_span(key_matrix, coeffs, code.recovery, topo, q)
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

    mds = mds_proof(key_matrix, q, B, code.points) is not None
    checks.append(
        CheckResult("key-matrix-mds", mds, f"every {B} rows independent")
    )
    return AuditReport(tuple(checks))
