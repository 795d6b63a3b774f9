import random

import pytest

from hsagg.code_design import (
    association_polynomial,
    build_code_design,
    evaluation_points,
    recursive_family,
)
from hsagg.gf import Matrix, PrimeField
from hsagg.key_design import select_field
from hsagg.topology import Topology, relays_of_user

GF7 = PrimeField(7)
# Large prime standing in for characteristic 0: coefficient values of the
# desk-scale families never reach it, so the zero pattern seen here is the
# pattern of the construction itself, not a small-field accident.
BIG = PrimeField(2147483647)


def test_association_polynomial_single_factor():
    p = association_polynomial(Topology(3, 2), GF7, 1)
    assert p.coeffs == (-3 % 7, 1)  # x - 3


def test_association_polynomial_two_factors():
    p = association_polynomial(Topology(4, 2), PrimeField(53), 1)
    assert p.coeffs == (12, -7 % 53, 1)  # (x-3)(x-4) = x^2 - 7x + 12


def test_association_polynomial_full_association_is_one():
    p = association_polynomial(Topology(4, 4), GF7, 2)
    assert p.coeffs == (1,)


def test_recursion_hand_expanded_example():
    # base x - 3; subtract coefficient index K-B-1 = 0 holds -3, so the
    # second member is x(x-3) - (-3)(x-3) = x^2 - 9.
    fam = recursive_family(Topology(3, 2), GF7, 1)
    assert fam[0].coeffs == (-3 % 7, 1)
    assert fam[1].coeffs == (-9 % 7, 0, 1)


def test_recursive_family_rejects_full_association():
    with pytest.raises(ValueError):
        recursive_family(Topology(3, 3), GF7, 1)


def test_degree_ladder_and_leading_band():
    for K in range(2, 9):
        for B in range(1, K):
            field = select_field(K, B)
            topo = Topology(K, B)
            code = build_code_design(topo, field)
            for fam in code.families:
                for b, p in enumerate(fam, start=1):
                    assert p.degree == K - B + b - 1
                    assert p.coeff(K - B + b - 1) == 1
                    for above in range(K - B + b, K):
                        assert p.coeff(above) == 0
                    # zero band directly below the leading coefficient
                    for l in range(1, b):
                        assert p.coeff(K - B + b - 1 - l) == 0


def test_zero_on_non_associated_relays_any_field():
    for K in range(2, 9):
        for B in range(1, K):
            code = build_code_design(Topology(K, B), select_field(K, B))
            for k in range(1, K + 1):
                assoc = set(relays_of_user(code.topo, k))
                for p in code.families[k - 1]:
                    for j in range(1, K + 1):
                        if j not in assoc:
                            assert p(evaluation_points(code.field, K)[j - 1]) == 0


def test_zero_pattern_biconditional_in_characteristic_zero():
    for K in range(2, 9):
        for B in range(1, K):
            code = build_code_design(Topology(K, B), BIG)
            for k in range(1, K + 1):
                assoc = set(relays_of_user(code.topo, k))
                for p in code.families[k - 1]:
                    for j in range(1, K + 1):
                        assert (p(evaluation_points(BIG, K)[j - 1]) != 0) == (j in assoc)


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
        prod = code.eval_matrix @ code.recovery
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
        relay_values = (Matrix(GF7, [w]) @ code.code_matrix) @ code.eval_matrix
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
