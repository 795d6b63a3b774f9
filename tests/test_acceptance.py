"""Acceptance suite: one test per criterion, one printed verdict line each.

Run standalone with:  pytest tests/test_acceptance.py -v -s
Every comparison is exact (integers and rationals); the only inequalities
are the stated bounds and the wall-clock budgets.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from hsagg.audit import (
    algebraic_audit,
    exhaustive_mi_audit,
    exhaustive_recovery_audit,
    golden_example1,
)
from hsagg.code_design import build_code_design, evaluation_matrix
from hsagg.gf import Matrix, PrimeField
from hsagg.key_design import (
    REGIME_CIRCULANT,
    circulant_valid_ratios,
    regime_for,
    select_field,
    sufficient_field_size,
    validate_scheme,
)
from hsagg.protocol import build_scheme, direct_sum, random_inputs, run_round
from hsagg.rates import achievable_rates, converse_bounds, measured_rates
from hsagg.topology import Topology, relays_of_user, users_of_relay

from test_code_design import reference_code_matrix

SWEEP = [(K, B) for K in range(2, 9) for B in range(1, K)]
FULL_ASSOC = [(K, K) for K in range(2, 7)]


def coeff_matrix(params) -> Matrix:
    """The K x K matrix the per-link key coefficients fill on the association, zero elsewhere."""
    K = params.K
    rows = np.zeros((K, K), np.int64)
    rows[np.arange(K)[:, None], params.topo.link_relay] = params.key_coeffs
    return Matrix(params.field, rows)


def verdict(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def sweep_runs():
    """Schemes, trial outcomes and one transcript per sweep configuration."""
    runs = {}
    started = time.monotonic()
    for K, B in SWEEP:
        params = build_scheme(K, B)
        report = validate_scheme(params.keys, params.code)
        exact = 0
        transcript = None
        for trial in range(100):
            inputs = random_inputs(params, params.block_size, seed=trial * 7 + 1)
            result = run_round(params, inputs, seed=trial * 7 + 2)
            exact += result.recovered_sum == direct_sum(params, inputs)
            if transcript is None:
                transcript = result.transcript
        runs[(K, B)] = (params, report, exact, transcript)
    return runs, time.monotonic() - started


@pytest.fixture(scope="module")
def full_assoc_runs():
    runs = {}
    for K, _ in FULL_ASSOC:
        params = build_scheme(K, K)
        result = run_round(
            params, random_inputs(params, params.block_size, seed=3), seed=4
        )
        runs[K] = (params, result.transcript)
    return runs


def test_criterion_1_golden_instance_exhaustive():
    started = time.monotonic()
    params = golden_example1()
    recovery = exhaustive_recovery_audit(params, L=2)
    mi = exhaustive_mi_audit(params, L=2)
    relay_ok = all(c.passed for c in mi.checks if c.name.startswith("relay-mi"))
    server_ok = all(c.passed for c in mi.checks if c.name == "server-mi")
    result = run_round(params, {1: (1, 2), 2: (0, 1), 3: (2, 2)}, seed=5)
    rates_ok = measured_rates(result.transcript, 2) == achievable_rates(3, 2)
    elapsed = time.monotonic() - started
    verdict(
        "criterion 1 (golden instance, 3^8 realizations)",
        recovery.passed and relay_ok and server_ok and rates_ok and elapsed < 5.0,
        f"recovery {recovery.passed}, relay MI {relay_ok}, server MI {server_ok}, "
        f"rates (1,1/2,1/2,1) {rates_ok}, {elapsed:.2f}s < 5s",
    )


def test_criterion_2_construction_sweep(sweep_runs):
    runs, elapsed = sweep_runs
    all_valid = all(report.passed for _, report, _, _ in runs.values())
    checks_counted = all(len(report.checks) == 5 for _, report, _, _ in runs.values())
    all_exact = all(exact == 100 for _, _, exact, _ in runs.values())
    verdict(
        "criterion 2 (construction sweep K=2..8, B=1..K-1)",
        all_valid and checks_counted and all_exact and elapsed < 120.0,
        f"{len(runs)} configs, validation 5/5 everywhere {all_valid}, "
        f"100/100 exact recoveries everywhere {all_exact}, {elapsed:.1f}s < 120s",
    )


def test_criterion_3_rate_equalities(sweep_runs):
    runs, _ = sweep_runs
    mismatches = []
    for (K, B), (params, _, _, transcript) in runs.items():
        measured = measured_rates(transcript, params.block_size)
        expected = achievable_rates(K, B)
        if measured != expected:
            mismatches.append((K, B))
        assert expected.source_key == max(Fraction(1), Fraction(K, B) - 1)
    verdict(
        "criterion 3 (measured rates equal the optimal corner)",
        not mismatches,
        f"exact rational equality (1, 1/B, 1/B, max(1, K/B - 1)) on {len(runs)} configs"
        + (f"; mismatches {mismatches}" if mismatches else ""),
    )


def test_criterion_4_full_association_regime(full_assoc_runs):
    bad_rates, bad_audits = [], []
    for K, (params, transcript) in full_assoc_runs.items():
        expected = achievable_rates(K, K)
        assert expected.relay_upload == Fraction(1, K - 1)
        if measured_rates(transcript, params.block_size) != expected:
            bad_rates.append(K)
        if not algebraic_audit(params).passed:
            bad_audits.append(K)
    verdict(
        "criterion 4 (B = K reduction, K = 2..6)",
        not bad_rates and not bad_audits,
        f"measured rates (1, 1/(K-1), 1/(K-1), 1) and algebraic audits pass"
        + (f"; rate failures {bad_rates}" if bad_rates else "")
        + (f"; audit failures {bad_audits}" if bad_audits else ""),
    )


def test_criterion_5_converse_table(sweep_runs, full_assoc_runs):
    runs, _ = sweep_runs
    assert converse_bounds(8, 3).source_key == Fraction(5, 3)

    dominance_failures, equality_failures = [], []
    for (K, B), (params, _, _, transcript) in runs.items():
        measured = measured_rates(transcript, params.block_size)
        bound = converse_bounds(K, B)
        if not measured.dominates(bound):
            dominance_failures.append((K, B))
        if not (
            measured.relay_upload == bound.relay_upload
            and measured.user_key == bound.user_key
            and measured.source_key == bound.source_key
        ):
            equality_failures.append((K, B))
    for K, (params, transcript) in full_assoc_runs.items():
        if not measured_rates(transcript, params.block_size).dominates(
            converse_bounds(K, K)
        ):
            dominance_failures.append((K, K))
    verdict(
        "criterion 5 (converse bounds)",
        not dominance_failures and not equality_failures,
        "bound(8,3) source-key rate = 5/3; componentwise dominance everywhere; "
        "relay/key/source bounds met with equality for B <= K-1"
        + (f"; dominance failures {dominance_failures}" if dominance_failures else "")
        + (f"; equality failures {equality_failures}" if equality_failures else ""),
    )


def test_criterion_6_ratio_search_probability():
    # The exact fraction of valid ratios at select_field's q meets the
    # floor 1 - (K(B-1) + 2) / q for every circulant (K, B) with K <= 24.
    started = time.monotonic()
    cases = [(K, B) for K in range(4, 25) for B in range(2, K)
             if regime_for(K, B) == REGIME_CIRCULANT]
    below = []
    for K, B in cases:
        field = select_field(K, B)
        fraction = Fraction(circulant_valid_ratios(field, K, B), field.q)
        if fraction < 1 - Fraction(sufficient_field_size(K, B), field.q):
            below.append((K, B, field.q, fraction))
    elapsed = time.monotonic() - started
    q = select_field(4, 2).q
    valid = circulant_valid_ratios(select_field(4, 2), 4, 2)
    verdict(
        "criterion 6 (ratio search success probability)",
        not below and elapsed < 30.0,
        f"valid/q >= 1 - sufficient_field_size/q on all {len(cases)} circulant (K, B) "
        f"with K <= 24 ((4, 2): {valid}/{q} >= 1 - {sufficient_field_size(4, 2)}/{q}), "
        f"{elapsed:.1f}s < 30s" + (f"; below the floor {below}" if below else ""),
    )


def test_criterion_7_exhaustive_mi_on_constructed_scheme():
    cap = 10**8
    q = 7 if 7 ** (3 * 2 + 2) <= cap else 5
    params = build_scheme(3, 2, q=q)
    mi = exhaustive_mi_audit(params, L=2, max_states=cap)
    recovery = exhaustive_recovery_audit(params, L=2, max_states=cap)
    verdict(
        "criterion 7 (exhaustive MI on the constructed scheme)",
        mi.passed and recovery.passed,
        f"(K=3, B=2, q={q}, L=2): {q**8} realizations, all MI checks exact-zero, "
        f"recovery exact",
    )


def test_criterion_8_property_suites():
    # topology duality, exhaustively to K = 12
    duality = all(
        (i in relays_of_user(Topology(K, B), k)) == (k in users_of_relay(Topology(K, B), i))
        for K in range(1, 13)
        for B in range(1, K + 1)
        for k in range(1, K + 1)
        for i in range(1, K + 1)
    )

    # zero pattern of the code rows at the relay points (characteristic-zero
    # proxy field, with the K-th roots of unity of every K <= 8 that the
    # circulant regime's points need) and the leading-coefficient ladder, to K = 8
    big = PrimeField(2147478481)
    pattern = True
    ladder = True
    for K in range(2, 9):
        for B in range(1, K):
            code = build_code_design(Topology(K, B), big)
            rows = reference_code_matrix(code).tolist()
            values = (Matrix(big, rows) @ Matrix(big, evaluation_matrix(big, K, B))).a.tolist()
            for k in range(1, K + 1):
                assoc = set(relays_of_user(code.topo, k))
                for b in range(1, B + 1):
                    r = (k - 1) * B + b - 1
                    row = rows[r]
                    degree = max(j for j, c in enumerate(row) if c)
                    ladder &= degree == K - B + b - 1 and row[degree] == 1
                    for j in range(1, K + 1):
                        pattern &= (values[r][j - 1] != 0) == (j in assoc)

    # key cancellation, nullspace = recovery span, per-relay rank B
    cancellation = True
    nullspace = True
    relay_rank = True
    for K, B in [(2, 1), (4, 2), (3, 2), (6, 3), (7, 5), (8, 4), (4, 4), (6, 6)]:
        params = build_scheme(K, B)
        masked = Matrix(params.field, params.key_matrix.T) @ coeff_matrix(params)
        recovery = Matrix(params.field, params.recovery)
        cancellation &= not (masked @ recovery).a.any()
        null = masked.nullspace()
        nullspace &= (
            null is not None
            and null.ncols == params.topo.B
            and null.hstack(recovery).rank() == params.topo.B
        )
        relay_rank &= algebraic_audit(params).passed

    verdict(
        "criterion 8 (standalone property suites)",
        duality and pattern and ladder and cancellation and nullspace and relay_rank,
        f"duality {duality}, zero-pattern {pattern}, leading-coefficient ladder {ladder}, "
        f"cancellation {cancellation}, nullspace-span {nullspace}, relay ranks {relay_rank}",
    )
