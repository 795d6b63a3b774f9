import hashlib
import random
import tracemalloc
from dataclasses import replace
from math import comb, gcd

import numpy as np
import pytest

from hsagg import key_design
from hsagg.code_design import build_code_design, evaluation_points, recovery_matrix
from hsagg.gf import Matrix, PrimeField, every_subset_full_rank, field_array, is_prime
from hsagg.gf import matmul_mod, one_product_fits, vandermonde
from hsagg.key_design import (
    REGIME_CIRCULANT,
    REGIME_FULL,
    REGIME_SINGLE,
    REGIME_VANDERMONDE,
    ConstructionError,
    anchor_bad_sets,
    build_keys,
    circulant_keygen,
    circulant_ratio_valid,
    circulant_valid_ratios,
    full_assoc_keygen,
    mds_proof,
    regime_for,
    select_field,
    single_assoc_keygen,
    sufficient_field_size,
    validate_scheme,
    vandermonde_keygen,
    MaskedKeySpan,
    masked_key_span,
    _relay_solve_data,
    _vandermonde_witness,
)
from hsagg.protocol import build_scheme
from hsagg.topology import Topology, users_of_relay

# sha256 over every key design build_keys gives for 2 <= K <= 12 and
# 1 <= B <= K, at select_field(K, B) and at GF(2**31 - 1), with the
# circulant regime at its roots of unity; a regime that cannot build at
# a field contributes its ConstructionError message instead.
KEY_DESIGN_DIGEST = "f164095888157886a6e06e9b219033a8fb83523e19a7b4fddfa28d32ff785f32"
# The same digest over the non-circulant (K, B) alone, as the integer
# points of every regime built them before the circulant regime moved to
# roots of unity: those designs are unchanged.
NON_CIRCULANT_KEY_DESIGN_DIGEST = "41340e4931e24a7afa620160019dfc7d37021187b98c5b7fe9faf3ec7d3e6d66"


def coeff_matrix(key_coeffs):
    """The K x K array the (K, B) key coefficients fill on the association, zero elsewhere."""
    K, B = key_coeffs.shape
    rows = np.zeros((K, K), np.int64)
    rows[np.arange(K)[:, None], Topology(K, B).link_relay] = key_coeffs
    return rows


def as_rows(a):
    """An array as the tuples of Python ints the pinned digests hash."""
    return tuple(map(tuple, a.tolist()))


def smallest_qualifying_prime_oracle(K, B):
    """Independent search for the circulant-regime field."""
    q = sufficient_field_size(K, B)
    while not (is_prime(q) and q % K == 1):
        q += 1
    return q


def test_regime_boundaries():
    assert regime_for(4, 2) == REGIME_CIRCULANT
    assert regime_for(8, 4) == REGIME_CIRCULANT
    assert regime_for(3, 2) == REGIME_VANDERMONDE
    assert regime_for(5, 3) == REGIME_VANDERMONDE
    assert regime_for(7, 3) == REGIME_CIRCULANT
    assert regime_for(7, 4) == REGIME_VANDERMONDE
    assert regime_for(6, 1) == REGIME_SINGLE
    assert regime_for(6, 6) == REGIME_FULL
    with pytest.raises(ValueError):
        regime_for(4, 5)


def test_sufficient_field_size_worked_values():
    assert sufficient_field_size(4, 2) == 6
    assert sufficient_field_size(8, 3) == 18
    assert sufficient_field_size(40, 20) == 762


def test_select_field_values():
    assert select_field(3, 2).q == 7  # smallest prime above K*B = 6
    assert select_field(5, 4).q == 23
    assert select_field(2, 1).q == 5  # smallest prime above K+1
    assert select_field(6, 6).q == 11
    for (K, B) in [(4, 2), (6, 3), (8, 4), (12, 6), (16, 8), (40, 20)]:
        assert select_field(K, B).q == smallest_qualifying_prime_oracle(K, B)
    assert [select_field(K, B).q for K, B in [(4, 2), (12, 6), (16, 8), (40, 20)]] == [
        13, 73, 193, 881,
    ]


def test_select_field_refuses_fields_over_the_cap(monkeypatch):
    assert select_field(65536, 32766).q == 2147352577
    # 2147418113 is the only candidate q = 1 mod 65536 at or above the
    # bound and below the cap, and it is not prime
    with pytest.raises(ConstructionError, match=r"\(65536, 32767\).*2\*\*31"):
        select_field(65536, 32767)
    # the vandermonde bound K * B + 1 is already past the cap, so no prime is tested
    monkeypatch.setattr(key_design, "is_prime", lambda n: pytest.fail(f"tested {n}"))
    with pytest.raises(
        ConstructionError, match=r"\(65536, 32769\).*at least 2147549185.*2\*\*31"
    ):
        select_field(65536, 32769)


def test_select_field_covers_every_K_up_to_22():
    for K in range(2, 23):
        for B in range(1, K + 1):
            assert select_field(K, B).q < 2**31
    # the circulant bound K(B-1) + 2 is far below the cap past K = 22 too
    assert (select_field(23, 10).q, select_field(24, 12).q) == (277, 313)


def test_circulant_keygen_structure():
    for K, B, q in [(4, 2, None), (8, 3, None), (12, 6, None), (9, 4, 2147483647)]:
        field = select_field(K, B) if q is None else PrimeField(q)
        keys = circulant_keygen(K, B, field)
        assert keys.regime == REGIME_CIRCULANT
        assert circulant_ratio_valid(field, K, B, keys.ratio)

        # every user's links carry the circulant progression
        assert keys.key_coeffs.tolist() == [[pow(keys.ratio, j, field.q) for j in range(B)]] * K

        # the defining identity: coeffs^T @ key_matrix reproduces the target block
        target = vandermonde(field, evaluation_points(field, K, B), K - B)
        mixed = matmul_mod(coeff_matrix(keys.key_coeffs).T, keys.key_matrix, field.q)
        assert np.array_equal(mixed, target)


@pytest.mark.parametrize(
    "K, B, q", [(4, 2, 5), (4, 2, 13), (6, 2, 7), (6, 3, 13), (8, 4, 17), (9, 3, 19), (9, 4, 37)]
)
def test_circulant_ratio_valid_is_circulant_invertibility(K, B, q):
    # The eigenvalue predicate against an elimination on the circulant
    # itself, for every element of the field.
    field = PrimeField(q)

    def circulant(r):
        # row k, column i holds r**((i - k) mod K) on the association
        return Matrix(field, [[pow(r, (i - k) % K, q) * ((i - k) % K < B) for i in range(K)]
                              for k in range(K)])

    valid = [circulant_ratio_valid(field, K, B, r) for r in range(q)]
    assert valid == [r != 0 and circulant(r).rank() == K for r in range(q)]
    # at most K(B-1) nonzero ratios and r = 0 fail, which sizes the field
    assert valid.count(False) <= sufficient_field_size(K, B) - 1
    # a K-th root of unity r fails iff gcd(K, B) > 1: then r * w**-t is a
    # B-th root of unity other than 1 for some t
    roots = [r for r in range(1, q) if pow(r, K, q) == 1]
    assert any(valid[r] for r in roots) == (gcd(K, B) == 1)


def test_circulant_requires_divisibility():
    with pytest.raises(ConstructionError):
        circulant_keygen(4, 2, PrimeField(7))  # 4 does not divide 6


def test_circulant_below_bound_field_still_attempts():
    # q = 17 is below the sufficient size 26 but satisfies 8 | 16; the
    # walk is attempted anyway and happens to succeed here.
    keys = circulant_keygen(8, 4, PrimeField(17))
    code = build_code_design(Topology(8, 4), PrimeField(17))
    assert validate_scheme(keys, code).passed


def test_circulant_valid_ratios_matches_brute_force():
    # Every circulant (K, B) with 4 <= K <= 16 over every prime q = 1 mod K
    # below 400: 607 cases, fields with no valid ratio among them.
    cases = [(K, B, q) for K in range(4, 17) for B in range(2, K // 2 + 1)
             for q in range(K + 1, 400, K) if is_prime(q)]
    assert len(cases) == 607
    for K, B, q in cases:
        field = PrimeField(q)
        brute = sum(circulant_ratio_valid(field, K, B, r) for r in range(q))
        assert circulant_valid_ratios(field, K, B) == brute, (K, B, q)
    assert circulant_valid_ratios(PrimeField(5), 4, 2) == 0
    assert circulant_valid_ratios(PrimeField(17), 8, 4) == 8
    # it refuses what circulant_keygen refuses
    with pytest.raises(ValueError):
        circulant_valid_ratios(PrimeField(13), 4, 3)
    with pytest.raises(ConstructionError):
        circulant_valid_ratios(PrimeField(7), 4, 2)


def test_vandermonde_keygen_structure():
    for (K, B, q) in [(3, 2, None), (5, 3, None), (5, 3, 101), (7, 4, None), (6, 5, None),
                      (8, 5, None)]:
        field = select_field(K, B) if q is None else PrimeField(q)
        points = evaluation_points(field, K, B)
        keys = vandermonde_keygen(K, B, field)
        assert keys.regime == REGIME_VANDERMONDE
        q = field.q
        mixed = matmul_mod(coeff_matrix(keys.key_coeffs).T, keys.key_matrix, q)
        for k in range(1, K + 1):
            row = mixed[k - 1].tolist()
            assert row[0] == keys.anchor % q
            for t in range(1, K - B):
                assert row[t] == pow(points[k - 1], t, q)
            assert all(x == 0 for x in row[K - B :])
        assert Matrix(field, mixed).rank() == K - B

        assert keys.key_coeffs.shape == (K, B) and keys.key_coeffs.all()


def test_anchor_bad_sets_bounded_per_relay():
    for (K, B) in [(3, 2), (5, 3), (6, 4), (8, 5)]:
        field = select_field(K, B)
        sets = anchor_bad_sets(K, B, field)
        assert set(sets) == set(range(1, K + 1))
        assert all(len(s) <= B for s in sets.values())
        total = set().union(*sets.values())
        assert len(total) <= K * B


def test_single_assoc_keygen():
    for K in (2, 3, 5, 7):
        field = select_field(K, 1)
        keys = single_assoc_keygen(K, field)
        assert keys.key_coeffs.tolist() == [[1]] * K
        assert keys.key_matrix.shape == (K, K - 1)
        code = build_code_design(Topology(K, 1), field)
        assert validate_scheme(keys, code).passed
    # Each row is divided by its entry of the recovery column, which
    # recovery_matrix takes from the Lagrange rows: the first K - 1 rows
    # start with 1 before scaling, and the scaled rows cancel exactly
    # under the combination the server applies.
    for K in range(2, 40):
        field = select_field(K, 1)
        column = recovery_matrix(field, K, 1)[:, 0]
        key_matrix = single_assoc_keygen(K, field).key_matrix
        assert (column[:-1] * key_matrix[:-1, 0] % field.q == 1).all(), K
        assert not (column @ key_matrix % field.q).any(), K


def test_single_assoc_key_matrix_is_mds_without_its_own_proof():
    # Rows 1..K-1 are an invertible Vandermonde block, row K is minus
    # their sum, and every row is scaled by a nonzero recovery entry.
    for K in range(2, 15):
        for field in (select_field(K, 1), PrimeField(2**31 - 1)):
            key_matrix = single_assoc_keygen(K, field).key_matrix
            assert every_subset_full_rank(key_matrix, field.q, K - 1), (K, field)


def test_single_assoc_requires_margin():
    with pytest.raises(ConstructionError):
        single_assoc_keygen(4, PrimeField(5))


def test_extended_vandermonde_pattern_examples():
    # the classic zero-sum pattern: rows sum to zero, any K-1 independent
    gf7 = PrimeField(7)
    m = Matrix(gf7, [[1, 0], [0, 1], [-1, -1]]).a
    assert not (m.sum(axis=0) % 7).any()
    for drop in range(3):
        rows = [r for r in range(3) if r != drop]
        assert Matrix(gf7, m[rows]).rank() == 2
    # the golden instance's key map shows the same any-2-rows property
    gf3 = PrimeField(3)
    g = np.array([[1, 0], [0, 1], [1, 1]], np.int64)
    for drop in range(3):
        rows = [r for r in range(3) if r != drop]
        assert Matrix(gf3, g[rows]).rank() == 2


def test_full_assoc_reduction():
    field = select_field(3, 3)
    keys = full_assoc_keygen(3, field)
    assert keys.regime == REGIME_FULL
    assert keys.anchor is not None  # built by the (3, 2) vandermonde regime
    inner = vandermonde_keygen(3, 2, field)
    assert np.array_equal(keys.key_matrix, inner.key_matrix)
    assert np.array_equal(keys.key_coeffs, inner.key_coeffs)

    two = full_assoc_keygen(2, select_field(2, 2))
    assert two.key_coeffs.tolist() == [[1], [1]]


def test_validate_scheme_passes_for_all_regimes():
    for (K, B) in [(2, 1), (5, 1), (4, 2), (8, 3), (3, 2), (6, 5), (4, 4), (6, 6)]:
        field = select_field(K, B)
        coded_B = B if B < K else K - 1
        code = build_code_design(Topology(K, coded_B), field)
        keys = build_keys(K, B, field)
        report = validate_scheme(keys, code)
        assert report.passed, (K, B, [c.name for c in report.failures()])
        assert len(report.checks) == 5


def test_validate_flags_support_violation():
    field = select_field(3, 2)
    code = build_code_design(Topology(3, 2), field)
    keys = build_keys(3, 2, field)
    coeffs = keys.key_coeffs.copy()
    coeffs[0, 0] = 0  # user 1's link 0, to relay 1; zeroing breaks support
    broken = replace(keys, key_coeffs=coeffs)
    report = validate_scheme(broken, code)
    assert not report.passed
    assert any(c.name == "coefficient-support" and not c.passed for c in report.checks)


def test_validate_flags_rank_deficient_key_matrix():
    field = select_field(4, 2)
    code = build_code_design(Topology(4, 2), field)
    keys = build_keys(4, 2, field)
    flat = np.ones(keys.key_matrix.shape, np.int64)
    broken = replace(keys, key_matrix=flat)
    report = validate_scheme(broken, code)
    failed = {c.name for c in report.checks if not c.passed}
    assert "mixed-rank" in failed
    assert "key-matrix-mds" in failed


def test_validate_reports_mismatched_key_width_without_enumerating():
    # A key matrix for B = 16 has 16 columns, so no 17 of its rows are
    # independent; the gate says so at once, where C(30, 17) = 119759850
    # subsets would exceed the certificate's budget.  The coefficients
    # take the (30, 17) code's per-link shape, which the masked span needs.
    field = PrimeField(521)
    keys = replace(build_keys(30, 16, field), key_coeffs=np.ones((30, 17), np.int64))
    report = validate_scheme(keys, build_code_design(Topology(30, 17), field))
    assert {c.name: c.passed for c in report.checks}["key-matrix-mds"] is False


@pytest.mark.parametrize("K, B, q", [(4, 2, 53), (4, 2, None), (6, 3, None)])
def test_circulant_takes_smallest_valid_ratio(K, B, q):
    field = select_field(K, B) if q is None else PrimeField(q)
    smallest = min(r for r in range(2, field.q) if circulant_ratio_valid(field, K, B, r))
    keys = circulant_keygen(K, B, field)
    assert keys.ratio == smallest
    assert _key_design_item(keys) == _key_design_item(circulant_keygen(K, B, field))


@pytest.mark.parametrize(
    "K, B, q", [(3, 2, None), (5, 3, None), (5, 3, 101), (7, 4, None), (8, 5, None), (6, 5, None)]
)
def test_vandermonde_takes_smallest_anchor_outside_bad_set(K, B, q):
    field = select_field(K, B) if q is None else PrimeField(q)
    bad = set().union(*anchor_bad_sets(K, B, field).values())
    smallest = min(c for c in range(1, field.q) if c not in bad)
    keys = vandermonde_keygen(K, B, field)
    assert keys.anchor == smallest <= K * B + 1
    assert _key_design_item(keys) == _key_design_item(vandermonde_keygen(K, B, field))


def relay_solve_reference(field, K, B):
    """Each relay's generic B x B solve against e_0 and (0, p, ..., p**(K-B-1), 0, ...),
    as the lists of first and of rest entries, one row per relay, by ascending sender."""
    q = field.q
    points = evaluation_points(field, K, B)
    key_matrix = vandermonde(field, points, B)
    topo = Topology(K, B)
    first, rest = [], []
    for i, p in zip(topo.relays(), points):
        senders = users_of_relay(topo, i)
        target = [[int(t == 0), pow(p, t, q) if 0 < t < K - B else 0] for t in range(B)]
        sub = Matrix(field, key_matrix[[u - 1 for u in senders]].T)
        solution = sub.solve(Matrix(field, target)).a
        first.append(solution[:, 0].tolist())
        rest.append(solution[:, 1].tolist())
    return first, rest


def test_relay_solve_data_matches_the_generic_solve():
    # Up to K = 20 many sender windows wrap past user K, so the senders'
    # differences behind each barycentric weight are taken across the
    # wrap as well as inside it.
    checked = 0
    for K in range(2, 21):
        for B in range(1, K + 1):
            regime = regime_for(K, B)
            if regime not in (REGIME_VANDERMONDE, REGIME_FULL) or K < 3:
                continue
            solved_B = K - 1 if regime == REGIME_FULL else B
            for field in (select_field(K, B), PrimeField(2147483647)):
                # Row i-1 of both arrays is relay i's, entry j its sender
                # relay_links[i-1, j] // B + 1: users_of_relay's order.
                senders = Topology(K, solved_B).relay_links // solved_B + 1
                assert senders.tolist() == [
                    list(users_of_relay(Topology(K, solved_B), i)) for i in range(1, K + 1)
                ]
                first, rest, bad = _relay_solve_data(field, K, solved_B)
                for got in (first, rest, bad):
                    assert got.dtype == np.int64 and got.shape == (K, solved_B)
                expected = relay_solve_reference(field, K, solved_B)
                assert (first.tolist(), rest.tolist()) == expected, (K, B, field.q)
                # the anchor that zeroes each coefficient, -rest / first
                q = field.q
                assert bad.tolist() == [
                    [-r * pow(f, -1, q) % q for f, r in zip(*rows)] for rows in zip(*expected)
                ], (K, B, q)
                checked += 1
    assert checked == 2 * sum(K - K // 2 for K in range(3, 21))  # vandermonde B, and B = K


def _key_design_item(d):
    """A key design's fields as plain values, its coefficients as the K x K rows they fill."""
    coeffs = coeff_matrix(d.key_coeffs)
    return (d.regime, d.ratio, d.anchor, as_rows(d.key_matrix), as_rows(coeffs))


def _key_design_digest(keep):
    big = PrimeField(2147483647)
    h = hashlib.sha256()
    for K in range(2, 13):
        for B in range(1, K + 1):
            if not keep(K, B):
                continue
            for field in (select_field(K, B), big):
                try:
                    item = (K, B, field.q, *_key_design_item(build_keys(K, B, field)))
                except ConstructionError as e:
                    item = (K, B, field.q, str(e))  # e.g. circulant needs K | q - 1
                h.update(repr(item).encode())
    return h.hexdigest()


def test_key_design_bytes_are_pinned():
    assert _key_design_digest(lambda K, B: True) == KEY_DESIGN_DIGEST


def test_non_circulant_key_design_bytes_are_unchanged():
    assert _key_design_digest(lambda K, B: regime_for(K, B) != REGIME_CIRCULANT) == (
        NON_CIRCULANT_KEY_DESIGN_DIGEST
    )


def mds_mutations(M: np.ndarray, q: int, points: tuple[int, ...]):
    """(name, matrix, points) variants of M that the gate must judge as the oracle does."""
    K, m = M.shape
    rows = M.tolist()
    perturbed = [r[:] for r in rows]
    perturbed[K // 2][m // 2] += 1
    repeated = field_array(rows[:-1] + [rows[0]], q)
    yield "perturbed entry", field_array(perturbed, q), points
    yield "zero row scale", field_array(rows[:-1] + [[0] * m], q), points
    if m >= 2:
        yield "proportional columns", field_array([r[:-1] + [3 * r[0]] for r in rows], q), points
    yield "repeated row", repeated, points
    # With the repeated point too, the repeated row is V @ T at the points.
    yield "repeated row and point", repeated, points[:-1] + points[:1]


def test_mds_proof_agrees_with_every_subset_full_rank():
    regimes = (REGIME_SINGLE, REGIME_CIRCULANT, REGIME_VANDERMONDE, REGIME_FULL)
    proofs = {regime: [] for regime in regimes}
    for K in range(2, 15):
        for B in range(1, K + 1):
            field = select_field(K, B)
            coded_B = B if B < K else K - 1
            M = build_keys(K, B, field).key_matrix
            points = evaluation_points(field, K, coded_B)
            q = field.q
            proof = mds_proof(M, q, coded_B, points)
            assert every_subset_full_rank(M, q, coded_B) and proof is not None, (K, B)
            proofs[regime_for(K, B)].append(proof)
            for name, mutant, mutant_points in mds_mutations(M, q, points):
                verdict = mds_proof(mutant, q, coded_B, mutant_points)
                # One column is V @ T whenever its rows are equal (K = 2).
                assert verdict != "vandermonde" or M.shape[1] == 1, (K, B, name)
                expected = every_subset_full_rank(mutant, q, coded_B)
                assert (verdict is not None) == expected, (K, B, name)
    assert sum(map(len, proofs.values())) == 104
    assert {proof for found in proofs.values() for proof in found} == {"vandermonde"}


def masked_key_span_reference(key_matrix, key_coeffs, recovery, q, B):
    """``masked_key_span`` from the exact ``Matrix`` product and Gauss-Jordan rank
    of key_matrix^T @ the K x K coefficient matrix."""
    field = PrimeField(q)
    masked = Matrix(field, key_matrix.T) @ Matrix(field, coeff_matrix(key_coeffs))
    recovery = Matrix(field, recovery)
    cancels = not (masked @ recovery).a.any()
    rank, recovery_rank = masked.rank(), recovery.rank()
    null_dim = masked.ncols - rank
    spans = cancels and null_dim == B and recovery_rank == B
    return MaskedKeySpan(rank, null_dim, recovery_rank, cancels, spans)


# Every (K, B) with K <= 12 at its default field, and (12, 6) near the
# modulus cap, where an inner dimension of 12 takes matmul_mod's split path.
SPAN_SCHEMES = [(K, B, None) for K in range(2, 13) for B in range(1, K + 1)] + [(12, 6, 2147483629)]


def test_masked_key_span_matches_the_python_reference():
    assert not one_product_fits(12, 2147483629)
    for K, B, q in SPAN_SCHEMES:
        params = build_scheme(K, B, q)
        topo, field_q = params.topo, params.field.q
        args = (params.key_matrix, params.key_coeffs, params.recovery)
        span = masked_key_span(*args, topo, field_q)
        assert span == masked_key_span_reference(*args, field_q, topo.B), (K, B, q)
        assert span.cancels and span.spans and span.rank == K - topo.B, (K, B, q)
        # Zero user 1's coefficient on relay 1, its link 0: the masked
        # matrix loses a nonzero rank-one term, and the top recovery entry
        # of relay 1's row is nonzero, so the keys no longer cancel.
        coeffs = params.key_coeffs.copy()
        coeffs[0, 0] = 0
        mutant = (params.key_matrix, coeffs, params.recovery)
        broken = masked_key_span(*mutant, topo, field_q)
        assert broken == masked_key_span_reference(*mutant, field_q, topo.B), (K, B, q)
        assert not broken.cancels and not broken.spans, (K, B, q)


@pytest.mark.parametrize("K, B", [(3, 2), (4, 2), (5, 1), (6, 6)])
def test_misshaped_key_coeffs_are_refused_before_any_product(K, B, monkeypatch):
    # The K x K matrix of earlier releases, or a link too many, would
    # otherwise be read silently as link coefficients.
    params = build_scheme(K, B)

    def no_product(*args):
        raise AssertionError("a product ran before the shape check")

    monkeypatch.setattr(key_design, "matmul_mod", no_product)
    monkeypatch.setattr(key_design, "rank_mod", no_product)
    coded_B = params.topo.B
    coeffs = params.key_coeffs
    square = coeff_matrix(coeffs)
    wide = np.hstack([coeffs, coeffs[:, :1]])
    for bad in (square, wide):
        message = rf"key_coeffs must have shape \({K}, {coded_B}\).*got \({K}, {bad.shape[1]}\)"
        with pytest.raises(ValueError, match=message):
            masked_key_span(params.key_matrix, bad, params.recovery, params.topo, params.field.q)
        with pytest.raises(ValueError, match=message):
            validate_scheme(replace(params.keys, key_coeffs=bad), params.code)


def test_validation_takes_the_masked_key_matrix_as_one_product():
    # At (120, 60) the (K, B, n) masked key rows and their reduced copy
    # took 6.71 MiB; the (K, K) weights and their (K, n) product with the
    # key matrix take 0.16 MiB.
    params = build_scheme(120, 60)
    tracemalloc.start()
    try:
        report = validate_scheme(params.keys, params.code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 2 * 2**20, peak / 2**20


def vandermonde_witness_reference(M, q, points):
    """``_vandermonde_witness`` with T from the Gauss-Jordan inverse of the top Vandermonde rows."""
    field, (K, m) = PrimeField(q), M.shape
    points = [p % q for p in points]
    if len(points) != K or len(set(points)) != K or m > K:
        return False
    V = Matrix(field, [[pow(p, j, q) for j in range(m)] for p in points])
    T = Matrix(field, V.a[:m]).inverse() @ Matrix(field, M[:m])
    return V @ T == Matrix(field, M) and T.rank() == m


def test_vandermonde_witness_matches_the_python_reference():
    verdicts = set()
    for K, B, q in SPAN_SCHEMES + [(K, B, None) for K in (13, 14) for B in range(1, K + 1)]:
        field = select_field(K, B) if q is None else PrimeField(q)
        coded_B = B if B < K else K - 1
        M, q = build_keys(K, B, field).key_matrix, field.q
        points = evaluation_points(field, K, coded_B)
        assert _vandermonde_witness(M, q, points) and vandermonde_witness_reference(M, q, points)
        for name, mutant, mutant_points in mds_mutations(M, q, points):
            verdict = _vandermonde_witness(mutant, q, mutant_points)
            expected = vandermonde_witness_reference(mutant, q, mutant_points)
            assert verdict == expected, (K, B, q, name)
            verdicts.add(verdict)
    assert verdicts == {False, True}  # one-column mutants stay V @ T at K = 2


def _no_elimination(*args):
    raise AssertionError("construction ran an elimination that has a closed form")


def test_no_build_solves_or_enumerates_row_subsets(monkeypatch):
    # No build constructs a Matrix, so none solves.  mds_proof's subset
    # budget either refuses, which fails the build, or hands over to
    # every_subset_full_rank, so no build reaches it either.
    monkeypatch.setattr(Matrix, "__init__", _no_elimination)
    monkeypatch.setattr(key_design, "every_subset_full_rank", _no_elimination)
    for K in range(2, 17):
        for B in range(1, K + 1):
            assert build_scheme(K, B).validation.passed, (K, B)


@pytest.mark.parametrize("K, B", [(6, 2), (8, 4), (9, 3), (10, 5)])
def test_circulant_build_certifies_its_key_matrix_once(K, B, monkeypatch):
    # The one certificate is the key-matrix-mds gate's V @ T witness.
    proofs = []

    def recording(M, q, size, points):
        proofs.append((M, size, mds_proof(M, q, size, points)))
        return proofs[-1][2]

    monkeypatch.setattr(key_design, "mds_proof", recording)
    monkeypatch.setattr(key_design, "every_subset_full_rank", _no_elimination)
    field = select_field(K, B)
    keys = build_keys(K, B, field)
    code = build_code_design(Topology(K, B), field)
    assert validate_scheme(keys, code).passed
    assert [(M is keys.key_matrix, size, proof) for M, size, proof in proofs] == [
        (True, B, "vandermonde")
    ]


def test_subset_budget_refuses_before_any_elimination(monkeypatch):
    assert comb(16, 8) <= key_design.MAX_SUBSETS < comb(40, 20) == 137846528820
    monkeypatch.setattr(key_design, "every_subset_full_rank", _no_elimination)
    field = PrimeField(241)  # 40 divides 240
    points = evaluation_points(field, 40, 20)
    # The circulant key matrix needs no certificate at any size.
    keys = circulant_keygen(40, 20, field)
    assert mds_proof(keys.key_matrix, 241, 20, points) == "vandermonde"
    # The gate's fallback, on a matrix that no proof covers.
    rng = random.Random(0)
    M = np.array([[rng.randrange(241) for _ in range(20)] for _ in range(40)], np.int64)
    with pytest.raises(ConstructionError, match="137846528820 subsets"):
        mds_proof(M, 241, 20, points)
