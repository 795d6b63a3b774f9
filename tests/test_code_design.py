import hashlib
import random

import pytest

from hsagg.code_design import (
    build_code_design,
    evaluation_matrix,
    evaluation_points,
    family_rows,
)
from hsagg.gf import Matrix, PrimeField
from hsagg.key_design import select_field
from hsagg.topology import Topology, relays_of_user

GF7 = PrimeField(7)
# Large prime standing in for characteristic 0: coefficient values of the
# desk-scale families never reach it, so the zero pattern seen here is the
# pattern of the construction itself, not a small-field accident.
BIG = PrimeField(2147483647)

# sha256 over the input coefficients, code matrix and recovery matrix of
# every (K, B < K) with K <= 10, at select_field(K, B) and at BIG, as the
# polynomial-class implementation of the message design built them.
DESIGN_DIGEST = "1f75c7169694d96c8f7f6e83504e80d37d375f6cd138a1209b77fab483f0bf14"


def test_association_polynomial_single_factor():
    rows = family_rows(Topology(3, 2), GF7, 1)
    assert rows[0] == (-3 % 7, 1, 0)  # x - 3


def test_association_polynomial_two_factors():
    rows = family_rows(Topology(4, 2), PrimeField(53), 1)
    assert rows[0] == (12, -7 % 53, 1, 0)  # (x-3)(x-4) = x^2 - 7x + 12


def test_recursion_hand_expanded_example():
    # base x - 3; subtract coefficient index K-B-1 = 0 holds -3, so the
    # second member is x(x-3) - (-3)(x-3) = x^2 - 9.
    rows = family_rows(Topology(3, 2), GF7, 1)
    assert rows == ((-3 % 7, 1, 0), (-9 % 7, 0, 1))


def test_recursive_family_rejects_full_association():
    with pytest.raises(ValueError):
        family_rows(Topology(3, 3), GF7, 1)


def test_degree_ladder_and_leading_band():
    for K in range(2, 9):
        for B in range(1, K):
            field = select_field(K, B)
            topo = Topology(K, B)
            code = build_code_design(topo, field)
            for k in topo.users():
                rows = family_rows(topo, field, k)
                assert rows == code.code_matrix.rows[(k - 1) * B : k * B]
                for b, row in enumerate(rows, start=1):
                    assert len(row) == K
                    assert row[K - B + b - 1] == 1
                    for above in range(K - B + b, K):
                        assert row[above] == 0
                    # zero band directly below the leading coefficient
                    for l in range(1, b):
                        assert row[K - B + b - 1 - l] == 0


def _row_values(code):
    """Entry (r, j-1) is code row r evaluated at relay j's point."""
    return (code.code_matrix @ evaluation_matrix(code.field, code.topo.K)).rows


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
            code = build_code_design(Topology(K, B), BIG)
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
        m = code.code_matrix
        assert (m.nrows, m.ncols) == (B * K, K)
        tail = m.take_cols(range(K - B, K))
        ident = Matrix.identity(field, B)
        for u in range(K):
            assert tail.take_rows(range(u * B, (u + 1) * B)) == ident


def test_code_matrix_rows_for_first_user():
    code = build_code_design(Topology(3, 2), GF7)
    assert code.code_matrix.row(0) == (-3 % 7, 1, 0)
    assert code.code_matrix.row(1) == (-9 % 7, 0, 1)


def test_recovery_matrix_is_inverse_tail():
    for (K, B) in [(3, 2), (6, 3), (7, 5)]:
        field = select_field(K, B)
        code = build_code_design(Topology(K, B), field)
        prod = evaluation_matrix(field, K) @ code.recovery
        for b in range(B):
            expect = tuple(int(r == K - B + b) for r in range(K))
            assert prod.column(b) == expect
        assert code.recovery.rank() == B


def test_recovery_reproduces_sums_for_random_inputs():
    # [w . code . eval] . recovery must equal the B componentwise sums,
    # checked directly against plain summation for 20 random inputs.
    K, B = 3, 2
    code = build_code_design(Topology(K, B), GF7)
    rng = random.Random(99)
    for _ in range(20):
        w = [rng.randrange(7) for _ in range(B * K)]
        relay_values = (Matrix(GF7, [w]) @ code.code_matrix) @ evaluation_matrix(GF7, K)
        decoded = relay_values @ code.recovery
        sums = tuple(sum(w[u * B + b] for u in range(K)) % 7 for b in range(B))
        assert decoded.row(0) == sums


def test_input_coefficients_worked_values():
    code = build_code_design(Topology(3, 2), GF7)
    # family of user 1 at point 1: (1 - 3, 1 - 9) = (-2, -8)
    assert code.input_coeffs[(1, 1)] == (-2 % 7, -8 % 7)


def test_input_coefficients_sparse_on_association():
    for (K, B) in [(3, 2), (5, 3), (6, 2)]:
        code = build_code_design(Topology(K, B), select_field(K, B))
        for (k, i), coeffs in code.input_coeffs.items():
            assert i in relays_of_user(code.topo, k)
            assert len(coeffs) == B
        assert len(code.input_coeffs) == K * B


def test_default_points_need_room():
    with pytest.raises(ValueError):
        evaluation_points(PrimeField(5), 5)
    assert evaluation_points(PrimeField(7), 5) == (1, 2, 3, 4, 5)


def test_build_rejects_full_association():
    with pytest.raises(ValueError):
        build_code_design(Topology(4, 4), GF7)


def test_input_coefficients_are_rows_at_relay_points():
    for (K, B) in [(3, 2), (5, 3), (7, 1)]:
        field = select_field(K, B)
        code = build_code_design(Topology(K, B), field)
        values = _row_values(code)
        for (k, i), coeffs in code.input_coeffs.items():
            assert coeffs == tuple(values[(k - 1) * B + b][i - 1] for b in range(B))


@pytest.mark.parametrize(
    "field_of",
    [select_field, lambda K, B: GF7, lambda K, B: BIG],
    ids=["select_field", "GF7", "GF2147483647"],
)
def test_link_coefficients_times_relay_recovery_rows_is_identity(field_of):
    # User k's B inputs reach relays_of_user(k); the server's recovery rows
    # of exactly those relays must undo the link coefficients, so each
    # user's contribution to the decoded sum is its own input.
    for K in range(2, 9):
        for B in range(1, K):
            field = field_of(K, B)
            if field.q <= K:
                continue
            topo = Topology(K, B)
            code = build_code_design(topo, field)
            ident = Matrix.identity(field, B)
            for k in topo.users():
                relays = relays_of_user(topo, k)
                links = Matrix(field, [code.input_coeffs[(k, i)] for i in relays]).transpose()
                assert links @ code.recovery.take_rows([i - 1 for i in relays]) == ident


def test_design_bytes_are_pinned():
    h = hashlib.sha256()
    for K in range(2, 11):
        for B in range(1, K):
            for field in (select_field(K, B), BIG):
                code = build_code_design(Topology(K, B), field)
                h.update(
                    repr(
                        (
                            K,
                            B,
                            field.q,
                            list(code.input_coeffs.items()),
                            code.code_matrix.rows,
                            code.recovery.rows,
                        )
                    ).encode()
                )
    assert h.hexdigest() == DESIGN_DIGEST
