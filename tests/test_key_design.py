import hashlib
import random
from dataclasses import replace
from math import comb

import pytest

from hsagg import key_design
from hsagg.code_design import build_code_design, evaluation_points
from hsagg.gf import Matrix, PrimeField, every_subset_full_rank, is_prime, vandermonde
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
    full_assoc_keygen,
    mds_proof,
    regime_for,
    sample_circulant_validity,
    select_field,
    single_assoc_keygen,
    sufficient_field_size,
    validate_scheme,
    vandermonde_keygen,
    _relay_solve_data,
)
from hsagg.topology import Topology, relays_of_user, users_of_relay

# sha256 over every key design build_keys gives for 2 <= K <= 12 and
# 1 <= B <= K, at select_field(K, B) and at GF(2**31 - 1), as the
# inverse-based solves built them; a regime that cannot build at a field
# contributes its ConstructionError message instead.
KEY_DESIGN_DIGEST = "718156e2373608d50ea1982317a6da5132842d601c58ddb26df338c63c051d34"


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
    assert sufficient_field_size(4, 2) == 46
    assert sufficient_field_size(8, 3) == 3946


def test_select_field_values():
    assert select_field(3, 2).q == 7  # smallest prime above K*B = 6
    assert select_field(5, 4).q == 23
    assert select_field(2, 1).q == 5  # smallest prime above K+1
    assert select_field(6, 6).q == 11
    for (K, B) in [(4, 2), (6, 3), (8, 4)]:
        assert select_field(K, B).q == smallest_qualifying_prime_oracle(K, B)


def test_select_field_refuses_fields_over_the_cap(monkeypatch):
    from hsagg import key_design

    assert select_field(23, 9).q < 2**31
    with pytest.raises(ConstructionError, match=r"\(23, 10\).*2\*\*31"):
        select_field(23, 10)
    # the bound for (24, 12) is already past the cap, so no prime is tested
    monkeypatch.setattr(key_design, "is_prime", lambda n: pytest.fail(f"tested {n}"))
    with pytest.raises(ConstructionError, match=r"\(24, 12\).*2\*\*31"):
        select_field(24, 12)


def test_select_field_covers_every_K_up_to_22():
    # The over-cap message promises this range.
    for K in range(2, 23):
        for B in range(1, K + 1):
            assert select_field(K, B).q < 2**31
    with pytest.raises(ConstructionError, match=r"at least \d+.*K <= 22.*\(23, 10\) is the first"):
        select_field(23, 10)


def test_circulant_keygen_structure():
    K, B = 4, 2
    field = select_field(K, B)
    keys = circulant_keygen(K, B, field)
    assert keys.regime == REGIME_CIRCULANT
    assert keys.ratio is not None and pow(keys.ratio, K, field.q) != 1

    # coefficient rows follow the circulant progression on the association
    topo = Topology(K, B)
    for k in topo.users():
        for pos, i in enumerate(relays_of_user(topo, k)):
            assert keys.key_coeffs.rows[k - 1][i - 1] == pow(keys.ratio, pos, field.q)

    # the defining identity: coeffs^T @ key_matrix reproduces the target block
    target = vandermonde(field, evaluation_points(field, K), K - B)
    assert keys.key_coeffs.transpose() @ keys.key_matrix == target


def test_circulant_rejects_root_of_unity_ratio():
    K, B = 4, 2
    field = select_field(K, B)
    roots = [g for g in range(1, field.q) if pow(g, K, field.q) == 1]
    assert roots, "K | q-1 so roots of unity exist"
    for g in roots:
        assert not circulant_ratio_valid(field, K, B, g)
    assert not circulant_ratio_valid(field, K, B, 0)


def test_circulant_requires_divisibility():
    with pytest.raises(ConstructionError):
        circulant_keygen(4, 2, PrimeField(7))  # 4 does not divide 6


def test_circulant_below_bound_field_still_attempts():
    # q = 13 is far below the sufficient size 46 but satisfies 4 | 12; the
    # walk is attempted anyway and happens to succeed here.
    keys = circulant_keygen(4, 2, PrimeField(13))
    code = build_code_design(Topology(4, 2), PrimeField(13))
    assert validate_scheme(keys, code).passed


def test_circulant_validity_fraction_reasonable():
    K, B = 4, 2
    field = select_field(K, B)
    valid = sample_circulant_validity(K, B, field, samples=60, seed=5)
    assert valid >= 30  # loose floor; the acceptance suite pins the bound


def test_vandermonde_keygen_structure():
    for (K, B, q) in [(3, 2, None), (5, 3, None), (5, 3, 101), (7, 4, None), (6, 5, None),
                      (8, 5, None)]:
        field = select_field(K, B) if q is None else PrimeField(q)
        points = evaluation_points(field, K)
        keys = vandermonde_keygen(K, B, field)
        assert keys.regime == REGIME_VANDERMONDE
        q = field.q
        mixed = keys.key_coeffs.transpose() @ keys.key_matrix
        for k in range(1, K + 1):
            row = mixed.row(k - 1)
            assert row[0] == keys.anchor % q
            for t in range(1, K - B):
                assert row[t] == pow(points[k - 1], t, q)
            assert all(x == 0 for x in row[K - B :])
        assert mixed.rank() == K - B

        topo = Topology(K, B)
        for k in topo.users():
            for i in relays_of_user(topo, k):
                assert keys.key_coeffs.rows[k - 1][i - 1] != 0


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
        assert keys.key_coeffs == Matrix.identity(field, K)
        assert keys.key_matrix.ncols == K - 1
        code = build_code_design(Topology(K, 1), field)
        assert validate_scheme(keys, code).passed


def test_single_assoc_requires_margin():
    with pytest.raises(ConstructionError):
        single_assoc_keygen(4, PrimeField(5))


def test_extended_vandermonde_pattern_examples():
    # the classic zero-sum pattern: rows sum to zero, any K-1 independent
    gf7 = PrimeField(7)
    m = Matrix(gf7, [[1, 0], [0, 1], [-1, -1]])
    assert all(sum(m.column(j)) % 7 == 0 for j in range(2))
    for drop in range(3):
        rows = [r for r in range(3) if r != drop]
        assert m.take_rows(rows).rank() == 2
    # the golden instance's key map shows the same any-2-rows property
    g = Matrix(PrimeField(3), [[1, 0], [0, 1], [1, 1]])
    for drop in range(3):
        rows = [r for r in range(3) if r != drop]
        assert g.take_rows(rows).rank() == 2


def test_full_assoc_reduction():
    field = select_field(3, 3)
    keys = full_assoc_keygen(3, field)
    assert keys.regime == REGIME_FULL
    assert keys.anchor is not None  # built by the (3, 2) vandermonde regime
    inner = vandermonde_keygen(3, 2, field)
    assert keys.key_matrix == inner.key_matrix
    assert keys.key_coeffs == inner.key_coeffs

    two = full_assoc_keygen(2, select_field(2, 2))
    assert two.key_coeffs == Matrix.identity(select_field(2, 2), 2)


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
    rows = [list(r) for r in keys.key_coeffs.rows]
    rows[0][0] = 0  # relay 1 is associated with user 1; zeroing breaks support
    broken = replace(keys, key_coeffs=Matrix(field, rows))
    report = validate_scheme(broken, code)
    assert not report.passed
    assert any(c.name == "coefficient-support" and not c.passed for c in report.checks)


def test_validate_flags_rank_deficient_key_matrix():
    field = select_field(4, 2)
    code = build_code_design(Topology(4, 2), field)
    keys = build_keys(4, 2, field)
    flat = Matrix(field, [[1] * keys.key_matrix.ncols for _ in range(4)])
    broken = replace(keys, key_matrix=flat)
    report = validate_scheme(broken, code)
    failed = {c.name for c in report.checks if not c.passed}
    assert "mixed-rank" in failed
    assert "key-matrix-mds" in failed


@pytest.mark.parametrize("K, B, q", [(4, 2, 13), (4, 2, None), (6, 3, None)])
def test_circulant_takes_smallest_valid_ratio(K, B, q):
    field = select_field(K, B) if q is None else PrimeField(q)
    smallest = min(r for r in range(2, field.q) if circulant_ratio_valid(field, K, B, r))
    keys = circulant_keygen(K, B, field)
    assert keys.ratio == smallest
    assert keys == circulant_keygen(K, B, field)


@pytest.mark.parametrize(
    "K, B, q", [(3, 2, None), (5, 3, None), (5, 3, 101), (7, 4, None), (8, 5, None), (6, 5, None)]
)
def test_vandermonde_takes_smallest_anchor_outside_bad_set(K, B, q):
    field = select_field(K, B) if q is None else PrimeField(q)
    bad = set().union(*anchor_bad_sets(K, B, field).values())
    smallest = min(c for c in range(1, field.q) if c not in bad)
    keys = vandermonde_keygen(K, B, field)
    assert keys.anchor == smallest <= K * B + 1
    assert keys == vandermonde_keygen(K, B, field)


def relay_solve_reference(field, K, B):
    """Each relay's generic B x B solve against e_0 and (0, p, ..., p**(K-B-1), 0, ...)."""
    q = field.q
    key_matrix = vandermonde(field, evaluation_points(field, K), B)
    topo = Topology(K, B)
    out = {}
    for i, p in zip(topo.relays(), evaluation_points(field, K)):
        senders = users_of_relay(topo, i)
        target = [[int(t == 0), pow(p, t, q) if 0 < t < K - B else 0] for t in range(B)]
        sub = key_matrix.take_rows([u - 1 for u in senders]).transpose()
        solution = sub.solve(Matrix(field, target))
        out[i] = (senders, solution.column(0), solution.column(1))
    return out


def test_relay_solve_data_matches_the_generic_solve():
    checked = 0
    for K in range(2, 15):
        for B in range(1, K + 1):
            regime = regime_for(K, B)
            if regime not in (REGIME_VANDERMONDE, REGIME_FULL) or K < 3:
                continue
            solved_B = K - 1 if regime == REGIME_FULL else B
            for field in (select_field(K, B), PrimeField(2147483647)):
                expected = relay_solve_reference(field, K, solved_B)
                assert _relay_solve_data(field, K, solved_B) == expected, (K, B, field.q)
                checked += 1
    assert checked == 2 * sum(K - K // 2 for K in range(3, 15))  # vandermonde B, and B = K


def test_key_design_bytes_are_pinned():
    big = PrimeField(2147483647)
    h = hashlib.sha256()
    for K in range(2, 13):
        for B in range(1, K + 1):
            for field in (select_field(K, B), big):
                try:
                    d = build_keys(K, B, field)
                    item = (
                        K,
                        B,
                        field.q,
                        d.regime,
                        d.ratio,
                        d.anchor,
                        d.key_matrix.rows,
                        d.key_coeffs.rows,
                    )
                except ConstructionError as e:
                    item = (K, B, field.q, str(e))  # e.g. circulant needs K | q - 1
                h.update(repr(item).encode())
    assert h.hexdigest() == KEY_DESIGN_DIGEST


def mds_mutations(M: Matrix, points: tuple[int, ...]):
    """(name, matrix, points) variants of M that the gate must judge as the oracle does."""
    K, m = M.nrows, M.ncols
    rows = [list(r) for r in M.rows]
    perturbed = [r[:] for r in rows]
    perturbed[K // 2][m // 2] += 1
    repeated = Matrix(M.field, rows[:-1] + [rows[0]])
    yield "perturbed entry", Matrix(M.field, perturbed), points
    yield "zero row scale", Matrix(M.field, rows[:-1] + [[0] * m]), points
    if m >= 2:
        yield "proportional columns", Matrix(M.field, [r[:-1] + [3 * r[0]] for r in rows]), points
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
            points = evaluation_points(field, K)
            proof = mds_proof(M, coded_B, points)
            assert every_subset_full_rank(M, coded_B) and proof is not None, (K, B)
            proofs[regime_for(K, B)].append(proof)
            for name, mutant, mutant_points in mds_mutations(M, points):
                verdict = mds_proof(mutant, coded_B, mutant_points)
                # One column is V @ T whenever its rows are equal (K = 2).
                assert verdict != "vandermonde" or M.ncols == 1, (K, B, name)
                expected = every_subset_full_rank(mutant, coded_B)
                assert (verdict is not None) == expected, (K, B, name)
    structural = proofs[REGIME_SINGLE] + proofs[REGIME_VANDERMONDE] + proofs[REGIME_FULL]
    assert len(structural) == 68 and set(structural) == {"vandermonde"}
    # B < K/2 reuses the walk's (K - B)-row certificate; at B = K/2 it is the B-row one.
    assert len(proofs[REGIME_CIRCULANT]) == 36
    assert set(proofs[REGIME_CIRCULANT]) == {"implication", "subsets"}


@pytest.mark.parametrize("K, B", [(6, 2), (8, 4), (9, 3), (10, 5)])
def test_circulant_build_certifies_its_key_matrix_once(K, B, monkeypatch):
    calls = []

    def counting(M, size):
        calls.append((M, size))
        return every_subset_full_rank(M, size)

    monkeypatch.setattr(key_design, "every_subset_full_rank", counting)
    key_design._certificate.cache_clear()
    field = select_field(K, B)
    keys = build_keys(K, B, field)
    code = build_code_design(Topology(K, B), field)
    assert validate_scheme(keys, code).passed
    assert calls.count((keys.key_matrix, K - B)) == 1
    # One certificate per ratio the walk solved, and none from the gate.
    assert len(set(calls)) == len(calls) and {size for _, size in calls} == {K - B}
    assert calls[-1] == (keys.key_matrix, K - B)


def test_subset_budget_refuses_before_any_elimination(monkeypatch):
    assert comb(22, 11) <= key_design.MAX_SUBSETS < comb(40, 20) == 137846528820

    def no_elimination(*args):
        raise AssertionError("eliminated past the subset budget")

    monkeypatch.setattr(key_design, "_circulant_design", no_elimination)
    monkeypatch.setattr(key_design, "every_subset_full_rank", no_elimination)
    key_design._certificate.cache_clear()
    field = PrimeField(241)  # 40 divides 240
    with pytest.raises(ConstructionError, match="137846528820 subsets"):
        circulant_keygen(40, 20, field)
    with pytest.raises(ConstructionError, match="137846528820 subsets"):
        sample_circulant_validity(40, 20, field, samples=5)
    # The gate's fallback, on a matrix that no proof covers.
    rng = random.Random(0)
    M = Matrix(field, [[rng.randrange(241) for _ in range(20)] for _ in range(40)])
    with pytest.raises(ConstructionError, match="137846528820 subsets"):
        mds_proof(M, 20, evaluation_points(field, 40))
