import hashlib
import random
import tracemalloc

import numpy as np
import pytest

import hsagg.code_design
from hsagg.code_design import (
    ConstructionError,
    _root_product,
    build_code_design,
    evaluation_matrix,
    evaluation_points,
    lagrange_rows,
)
from hsagg.gf import DuplicatePointsError, Matrix, PrimeField, is_prime, matmul_mod, vandermonde
from hsagg.key_design import REGIME_CIRCULANT, regime_for, select_field
from hsagg.topology import Topology, relays_of_user

GF7 = PrimeField(7)
# Large prime standing in for characteristic 0: coefficient values of the
# desk-scale families never reach it, so the zero pattern seen here is the
# pattern of the construction itself, not a small-field accident.
BIG = PrimeField(2147483647)
# The same stand-in for every regime: the largest prime below 2**31 with
# q = 1 mod 2520, so each K <= 10 divides q - 1 and the circulant
# regime's K-th roots of unity exist.
ROOTS = PrimeField(2147478481)

# sha256 over the input coefficients, the code matrix rows of
# ``reference_code_matrix`` and the recovery matrix of every (K, B < K)
# with K <= 10, at select_field(K, B) and at BIG, with the circulant
# regime at its roots of unity; a field without them contributes its
# ConstructionError message instead.
DESIGN_DIGEST = "e2daee6132b041286d62d0d7a2d60140999122a963900b74d5e540b5ffe130d5"
# The same digest over the non-circulant (K, B) alone, as the integer
# points of every regime built them before the circulant regime moved to
# roots of unity: those designs are unchanged.
NON_CIRCULANT_DESIGN_DIGEST = "87246aad0012329289e86492a5b72b9aaf7be3dbda58b783fd918c4bd3a93a67"


def _first_user_rows(K, B, field):
    return reference_code_matrix(build_code_design(Topology(K, B), field))[:B].tolist()


def test_association_polynomial_single_factor():
    rows = _first_user_rows(3, 2, GF7)
    assert rows[0] == [-3 % 7, 1, 0]  # x - 3


def test_association_polynomial_two_factors():
    rows = _first_user_rows(5, 3, PrimeField(53))
    assert rows[0] == [20, -9 % 53, 1, 0, 0]  # (x-4)(x-5) = x^2 - 9x + 20
    # circulant points 1, 8, 12, 5 mod 13: (x-12)(x-5) = x^2 - 17x + 60
    rows = _first_user_rows(4, 2, PrimeField(13))
    assert rows[0] == [60 % 13, -17 % 13, 1, 0]


def test_recursion_hand_expanded_example():
    # base x - 3; subtract coefficient index K-B-1 = 0 holds -3, so the
    # second member is x(x-3) - (-3)(x-3) = x^2 - 9.
    assert _first_user_rows(3, 2, GF7) == [[-3 % 7, 1, 0], [-9 % 7, 0, 1]]


def test_recursive_family_rejects_full_association():
    with pytest.raises(ValueError):
        build_code_design(Topology(3, 3), GF7)


def test_degree_ladder_and_leading_band():
    for K in range(2, 9):
        for B in range(1, K):
            topo = Topology(K, B)
            code = build_code_design(topo, select_field(K, B))
            matrix = reference_code_matrix(code).tolist()
            for k in topo.users():
                rows = matrix[(k - 1) * B : k * B]
                for b, row in enumerate(rows, start=1):
                    assert len(row) == K
                    assert row[K - B + b - 1] == 1
                    for above in range(K - B + b, K):
                        assert row[above] == 0
                    # zero band directly below the leading coefficient
                    for l in range(1, b):
                        assert row[K - B + b - 1 - l] == 0


def family_table_reference(topo, q, points):
    """Each user's rows one at a time: the indicator factor by factor, then the list recursion."""
    K, B = topo.K, topo.B
    drop = K - B - 1
    table = []
    for k in topo.users():
        assoc = set(relays_of_user(topo, k))
        base = _root_product(q, (x for i, x in zip(topo.relays(), points) if i not in assoc))
        base += [0] * (K - len(base))
        rows = [base]
        for _ in range(B - 1):
            prev = rows[-1]
            rows.append([(a - prev[drop] * b) % q for a, b in zip([0] + prev, base)])
        table.append(rows)
    return table


@pytest.mark.parametrize("q", [None, 2147483647])  # None: select_field(K, B)
def test_family_table_matches_the_per_user_recursion(q, monkeypatch):
    # Every link's coefficients are the reference rows of its user
    # evaluated at its relay's point.  At q = 2**31 - 1 the points are the
    # K largest field elements, so every product the closed form takes
    # lies near its q**2 < 2**62 headroom.
    if q is not None:
        monkeypatch.setattr(
            hsagg.code_design,
            "evaluation_points",
            lambda field, K, B: tuple(range(q - 1, q - 1 - K, -1)),
        )
    for K in range(2, 20):
        for B in range(1, K):
            topo = Topology(K, B)
            code = build_code_design(topo, select_field(K, B) if q is None else PrimeField(q))
            field_q, points = code.field.q, code.points
            assert code.input_coeffs.dtype == np.int64 and code.input_coeffs.shape == (K, B, B)
            expected = [
                [
                    [_horner(row, points[i - 1], field_q) for row in rows]
                    for i in relays_of_user(topo, k)
                ]
                for k, rows in zip(topo.users(), family_table_reference(topo, field_q, points))
            ]
            assert code.input_coeffs.tolist() == expected, (K, B)


def _horner(row, x, q):
    value = 0
    for c in reversed(row):
        value = (value * x + c) % q
    return value


def reference_code_matrix(code):
    """The BK x K code matrix: every user's reference family rows, stacked in user order."""
    table = family_table_reference(code.topo, code.field.q, code.points)
    return np.array(table, dtype=np.int64).reshape(-1, code.topo.K)


def _row_values(code):
    """Entry (r, j-1) is code row r evaluated at relay j's point."""
    evaluation = evaluation_matrix(code.field, code.topo.K, code.topo.B)
    return matmul_mod(reference_code_matrix(code), evaluation, code.field.q).tolist()


def test_zero_on_non_associated_relays_any_field():
    for K in range(2, 9):
        for B in range(1, K):
            code = build_code_design(Topology(K, B), select_field(K, B))
            values = _row_values(code)
            for k in range(1, K + 1):
                assoc = set(relays_of_user(code.topo, k))
                for r in range((k - 1) * B, k * B):
                    for j in range(1, K + 1):
                        if j not in assoc:
                            assert values[r][j - 1] == 0


def test_zero_pattern_biconditional_in_characteristic_zero():
    for K in range(2, 9):
        for B in range(1, K):
            code = build_code_design(Topology(K, B), ROOTS)
            values = _row_values(code)
            for k in range(1, K + 1):
                assoc = set(relays_of_user(code.topo, k))
                for r in range((k - 1) * B, k * B):
                    for j in range(1, K + 1):
                        assert (values[r][j - 1] != 0) == (j in assoc)


def test_code_matrix_shape_and_identity_tail():
    for (K, B) in [(3, 2), (5, 2), (5, 4), (8, 3)]:
        field = select_field(K, B)
        code = build_code_design(Topology(K, B), field)
        m = reference_code_matrix(code)
        assert m.shape == (B * K, K)
        tail = m[:, K - B:]
        for u in range(K):
            assert np.array_equal(tail[u * B:(u + 1) * B], np.eye(B, dtype=np.int64))


def test_code_matrix_rows_for_first_user():
    code = build_code_design(Topology(3, 2), GF7)
    assert reference_code_matrix(code)[:2].tolist() == [[-3 % 7, 1, 0], [-9 % 7, 0, 1]]


def test_recovery_matrix_is_inverse_tail():
    for (K, B) in [(3, 2), (6, 3), (7, 5)]:
        field = select_field(K, B)
        code = build_code_design(Topology(K, B), field)
        prod = matmul_mod(evaluation_matrix(field, K, B), code.recovery, field.q)
        for b in range(B):
            expect = [int(r == K - B + b) for r in range(K)]
            assert prod[:, b].tolist() == expect
        assert Matrix(field, code.recovery).rank() == B


@pytest.mark.parametrize("q", [None, 31, 2147483629])  # None: the smallest prime above K
def test_lagrange_rows_are_columns_of_the_vandermonde_inverse(q):
    rng = random.Random(7)
    for K in range(1, 15):
        field = PrimeField(q or next(p for p in range(K + 1, 100) if is_prime(p)))
        scattered = rng.sample(range(field.q), K)
        for points in (range(1, K + 1), scattered):
            inverse = Matrix(field, vandermonde(field, points, K)).inverse()
            rows = inverse.a.T.tolist()
            for count in range(K + 1):
                assert lagrange_rows(field.q, points, count) == [row[K - count:] for row in rows]


def test_lagrange_rows_refuse_colliding_points():
    with pytest.raises(DuplicatePointsError):
        lagrange_rows(7, [1, 8], 2)


def test_recovery_reproduces_sums_for_random_inputs():
    # [w . code . eval] . recovery must equal the B componentwise sums,
    # checked directly against plain summation for 20 random inputs.
    K, B = 3, 2
    code = build_code_design(Topology(K, B), GF7)
    rng = random.Random(99)
    for _ in range(20):
        w = [rng.randrange(7) for _ in range(B * K)]
        code_rows = reference_code_matrix(code)
        relay_values = np.array([w]) @ code_rows @ evaluation_matrix(GF7, K, B) % 7
        decoded = relay_values @ code.recovery % 7
        sums = [sum(w[u * B + b] for u in range(K)) % 7 for b in range(B)]
        assert decoded[0].tolist() == sums


def test_input_coefficients_worked_values():
    code = build_code_design(Topology(3, 2), GF7)
    # family of user 1 at point 1, its link 0: (1 - 3, 1 - 9) = (-2, -8)
    assert code.input_coeffs[0, 0].tolist() == [-2 % 7, -8 % 7]


def test_input_coefficients_sparse_on_association():
    # One entry of B coefficients per associated link, and no other.
    for (K, B) in [(3, 2), (5, 3), (6, 2)]:
        code = build_code_design(Topology(K, B), select_field(K, B))
        assert code.input_coeffs.shape == (K, B, B)


def test_default_points_need_room():
    with pytest.raises(ValueError):
        evaluation_points(PrimeField(5), 5, 1)
    for B in (1, 3, 4, 5):
        assert evaluation_points(PrimeField(7), 5, B) == (1, 2, 3, 4, 5)


def _order(x, q):
    return next(n for n in range(1, q) if pow(x, n, q) == 1)


@pytest.mark.parametrize("K, q", [(4, 13), (4, 5), (6, 7), (8, 17), (12, 73), (10, 2147478481)])
def test_circulant_points_are_powers_of_the_first_root_of_order_K(K, q):
    points = evaluation_points(PrimeField(q), K, 2)
    g = next(g for g in range(2, q) if _order(pow(g, (q - 1) // K, q), q) == K)
    w = pow(g, (q - 1) // K, q)
    assert points == tuple(pow(w, i, q) for i in range(K))
    assert len(set(points)) == K and all(pow(p, K, q) == 1 for p in points)
    for B in range(2, K // 2 + 1):
        assert evaluation_points(PrimeField(q), K, B) == points
    assert evaluation_points(PrimeField(q), K, K // 2 + 1) == tuple(range(1, K + 1))


def test_circulant_points_need_K_to_divide_q_minus_1():
    assert evaluation_points(PrimeField(13), 4, 2) == (1, 8, 12, 5)
    with pytest.raises(ConstructionError, match=r"K \| \(q-1\)"):
        evaluation_points(PrimeField(7), 4, 2)
    with pytest.raises(ValueError):  # q > K comes first
        evaluation_points(PrimeField(5), 6, 2)


def test_build_rejects_full_association():
    with pytest.raises(ValueError):
        build_code_design(Topology(4, 4), GF7)


def test_input_coefficients_are_rows_at_relay_points():
    for (K, B) in [(3, 2), (5, 3), (7, 1)]:
        field = select_field(K, B)
        code = build_code_design(Topology(K, B), field)
        values = _row_values(code)
        for k in code.topo.users():
            for j, i in enumerate(relays_of_user(code.topo, k)):
                expected = [values[(k - 1) * B + b][i - 1] for b in range(B)]
                assert code.input_coeffs[k - 1, j].tolist() == expected


@pytest.mark.parametrize(
    "field_of",
    [select_field, lambda K, B: GF7, lambda K, B: BIG, lambda K, B: ROOTS],
    ids=["select_field", "GF7", "GF2147483647", "GF2147478481"],
)
def test_link_coefficients_times_relay_recovery_rows_is_identity(field_of):
    # User k's B inputs reach relays_of_user(k); the server's recovery rows
    # of exactly those relays must undo the link coefficients, so each
    # user's contribution to the decoded sum is its own input.
    for K in range(2, 9):
        for B in range(1, K):
            field = field_of(K, B)
            if field.q <= K or regime_for(K, B) == REGIME_CIRCULANT and (field.q - 1) % K:
                continue  # no K distinct points, or no K-th roots of unity
            topo = Topology(K, B)
            code = build_code_design(topo, field)
            ident = np.eye(B, dtype=np.int64)
            for k in topo.users():
                rows = code.recovery[[i - 1 for i in relays_of_user(topo, k)]]
                assert np.array_equal(matmul_mod(code.input_coeffs[k - 1].T, rows, field.q), ident)


def _design_digest(keep):
    h = hashlib.sha256()
    for K in range(2, 11):
        for B in range(1, K):
            if not keep(K, B):
                continue
            for field in (select_field(K, B), BIG):
                topo = Topology(K, B)
                try:
                    code = build_code_design(topo, field)
                    # The pinned digests hash the links as ((user, relay),
                    # coefficients) items in user order, then every user's
                    # reference family rows, stacked.
                    links = [
                        ((k, i), tuple(code.input_coeffs[k - 1, j].tolist()))
                        for k in topo.users()
                        for j, i in enumerate(relays_of_user(topo, k))
                    ]
                    rows = tuple(map(tuple, reference_code_matrix(code).tolist()))
                    recovery = tuple(map(tuple, code.recovery.tolist()))
                    item = (K, B, field.q, links, rows, recovery)
                except ConstructionError as e:
                    item = (K, B, field.q, str(e))  # circulant needs K | q - 1
                h.update(repr(item).encode())
    return h.hexdigest()


def test_design_bytes_are_pinned():
    assert _design_digest(lambda K, B: True) == DESIGN_DIGEST


def test_non_circulant_design_bytes_are_unchanged():
    assert _design_digest(lambda K, B: regime_for(K, B) != REGIME_CIRCULANT) == (
        NON_CIRCULANT_DESIGN_DIGEST
    )


def test_build_allocates_no_more_than_twice_its_coefficients():
    # The link coefficients of (120, 61) take 3.4 MiB.  The design holds no
    # (K, B, K) family table or gathered power rows, each 6.7 MiB there.
    topo, field = Topology(120, 61), select_field(120, 61)
    tracemalloc.start()
    try:
        code = build_code_design(topo, field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * code.input_coeffs.nbytes, (peak, code.input_coeffs.nbytes)
