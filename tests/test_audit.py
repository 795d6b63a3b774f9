import math
from collections import Counter
from dataclasses import replace
from itertools import product
from random import Random
from types import SimpleNamespace

import numpy as np
import pytest

from hsagg import audit
from hsagg.audit import (
    StateSpaceError,
    algebraic_audit,
    exhaustive_mi_audit,
    exhaustive_recovery_audit,
    full_audit,
    golden_example1,
    relay_security_algebraic,
    server_security_algebraic,
)
from hsagg.gf import Matrix
from hsagg.protocol import (
    build_scheme,
    derive_keys,
    direct_sum,
    relay_encode,
    server_decode,
    user_encode,
)
from hsagg.topology import users_of_relay


def test_golden_relay_checks_pass_with_worked_key_rows():
    params = golden_example1()
    for i in (1, 2, 3):
        assert relay_security_algebraic(params, i).passed
    # relay 1 sees -N1 (from user 1) and 2(N1+N2) (from user 3): rows
    # lam * h are (2,0) and (2,2) over GF(3), which indeed have rank 2
    lam11 = params.key_coeffs[0, 0]  # user 1's link 0, to relay 1
    lam31 = params.key_coeffs[2, 1]  # user 3's link 1, to relay 1
    assert (lam11, lam31) == (2, 2)
    rows = Matrix(params.field, [[2, 0], [2, 2]])
    assert rows.rank() == 2


@pytest.mark.parametrize(
    "make", [golden_example1, lambda: build_scheme(5, 3)], ids=["golden", "vandermonde"]
)
def test_algebraic_audit_refuses_misshaped_key_coeffs(make):
    # The K x K coefficient matrix, zero off the association, and an
    # array with one link too many both fail the shape check.
    params = make()
    K, B = params.K, params.topo.B
    square = np.zeros((K, K), np.int64)
    square[np.arange(K)[:, None], params.topo.link_relay] = params.key_coeffs
    for bad in (square, np.hstack([params.key_coeffs, params.key_coeffs[:, :1]])):
        broken = replace(params, key_coeffs=bad)
        for check in (algebraic_audit, lambda p: relay_security_algebraic(p, 1)):
            with pytest.raises(ValueError, match=rf"shape \({K}, {B}\)"):
                check(broken)


def test_golden_server_check_passes():
    assert server_security_algebraic(golden_example1()).passed


def test_algebraic_audit_sweep():
    for (K, B) in [(2, 1), (4, 2), (3, 2), (6, 3), (5, 4), (4, 4), (6, 6)]:
        report = algebraic_audit(build_scheme(K, B))
        assert report.passed, (K, B, report.failures())


def test_duplicated_key_row_breaks_relay_security():
    params = golden_example1()
    h = [list(r) for r in params.key_matrix.rows]
    h[2] = h[0]  # users 1 and 3 now share a key row; relay 1 sees rank 1
    broken = replace(params, key_matrix=Matrix(params.field, h))
    check = relay_security_algebraic(broken, 1)
    assert not check.passed
    assert "rank 1/2" in check.detail


def test_zeroed_key_column_breaks_server_security():
    # needs K - B >= 2 so losing one key dimension drops the mixed rank
    params = build_scheme(4, 2)
    h = [list(row[:-1]) + [0] for row in params.key_matrix.rows]
    broken = replace(params, key_matrix=Matrix(params.field, h))
    assert not server_security_algebraic(broken).passed


def test_exhaustive_audits_pass_golden():
    params = golden_example1()
    mi = exhaustive_mi_audit(params, L=2)
    assert mi.passed and len(mi.checks) == 4
    rec = exhaustive_recovery_audit(params, L=2)
    assert rec.passed


def test_exhaustive_audits_pass_constructed_small_field():
    params = build_scheme(3, 2, q=5)
    assert exhaustive_mi_audit(params, L=2).passed
    assert exhaustive_recovery_audit(params, L=2).passed


def test_exhaustive_audit_single_association():
    params = build_scheme(2, 1)
    assert exhaustive_mi_audit(params, L=2).passed
    assert exhaustive_recovery_audit(params, L=2).passed


def test_zeroed_coefficient_exposes_inputs_to_relay():
    params = build_scheme(3, 2, q=5)
    coeffs = params.key_coeffs.copy()
    coeffs[0, 0] = 0  # user 1's input reaches relay 1 in the clear
    broken = replace(params, key_coeffs=coeffs)
    report = exhaustive_mi_audit(broken, L=2)
    failed = {c.name for c in report.checks if not c.passed}
    assert "relay-mi[1]" in failed
    # the algebraic check agrees, as it must on any instance both can see
    assert not relay_security_algebraic(broken, 1).passed



@pytest.mark.parametrize("make", [lambda: build_scheme(3, 2, q=5), golden_example1])
def test_corrupted_input_coefficient_is_hidden_from_relays_not_server(make):
    # the keys still mask every message, so no relay learns anything, but
    # the relay sums now carry input information beyond the total and no
    # longer determine it
    params = make()
    coeffs = params.input_coeffs.copy()  # link 0 of user 1 goes to relay 1
    coeffs[0, 0, 0] = (coeffs[0, 0, 0] + 1) % params.field.q
    broken = replace(params, input_coeffs=coeffs)
    full = full_audit(broken, level="exhaustive", L=2)
    for report in (exhaustive_mi_audit(broken, L=2), full):
        verdicts = {c.name: c.passed for c in report.checks}
        assert all(verdicts[f"relay-mi[{i}]"] for i in (1, 2, 3))
        assert verdicts["server-mi"] is False
    for recovery in (exhaustive_recovery_audit(broken, L=2), full.checks[-1]):
        assert not recovery.passed
        assert "messages determine the sum: False" in recovery.detail


def test_corrupted_recovery_matrix_fails_recovery_audit():
    params = build_scheme(3, 2, q=5)
    rows = [list(r) for r in params.recovery.rows]
    rows[0][0] = (rows[0][0] + 1) % 5
    broken = replace(params, recovery=Matrix(params.field, rows))
    assert not exhaustive_recovery_audit(broken, L=2).passed


def test_algebraic_and_exhaustive_verdicts_agree_on_tiny_instances():
    for (K, B, q) in [(3, 2, 3), (3, 2, 5), (2, 1, 5)]:
        params = golden_example1() if q == 3 else build_scheme(K, B, q=q)
        alg = algebraic_audit(params)
        mi = exhaustive_mi_audit(params, L=params.block_size)
        assert alg.passed and mi.passed



def _factorizes(pairs):
    """Reference count-table test: total * joint == marginal * marginal on
    every cell of the observed values, zero cells included."""
    joint = Counter(pairs)
    count_a = Counter(a for a, _ in pairs)
    count_b = Counter(b for _, b in pairs)
    return all(
        len(pairs) * joint[a, b] == count_a[a] * count_b[b] for a in count_a for b in count_b
    )


def _reference_verdicts(params, L):
    """Exhaustive verdicts from a plain loop over every realization, run
    through the protocol functions and tested on count tables."""
    users, relays = params.topo.users(), params.topo.relays()
    senders = {i: users_of_relay(params.topo, i) for i in relays}
    n_w = params.K * L
    n_z = L // params.block_size * params.source_key_len
    received = {i: [] for i in relays}
    server = {}
    decode_ok, sum_of = True, {}
    for values in product(range(params.field.q), repeat=n_w + n_z):
        w = {k: values[(k - 1) * L : k * L] for k in users}
        z = derive_keys(params, values[n_w:])
        msgs = {k: user_encode(params, k, w[k], z[k]) for k in users}
        y = {i: relay_encode(params, i, {k: msgs[k][i] for k in senders[i]}) for i in relays}
        total = direct_sum(params, w)
        for i in relays:
            received[i].append((tuple(msgs[k][i] for k in senders[i]), values[:n_w]))
        server.setdefault(total, []).append((tuple(y.values()), values[:n_w]))
        decode_ok &= server_decode(params, y) == total
        sum_of.setdefault(tuple(y.values()), set()).add(total)
    verdicts = {f"relay-mi[{i}]": _factorizes(received[i]) for i in relays}
    verdicts["server-mi"] = all(_factorizes(pairs) for pairs in server.values())
    verdicts["recovery-exhaustive"] = decode_ok and all(len(s) == 1 for s in sum_of.values())
    return verdicts


def _corrupt(params, **entries):
    """Copy of params with single matrix entries or link coefficients changed.

    A matrix entry is named by its row, its column and its value, a key
    coefficient by user - 1, link and its value, and an input coefficient
    by (user - 1, link), its index and its value.
    """
    changes = {}
    for name, (r, c, value) in entries.items():
        if isinstance(getattr(params, name), Matrix):
            rows = [list(row) for row in getattr(params, name).rows]
            rows[r][c] = value
            changes[name] = Matrix(params.field, rows)
        else:
            coeffs = getattr(params, name).copy()
            coeffs[r][c] = value
            changes[name] = coeffs
    return replace(params, **changes)


@pytest.mark.parametrize(
    "params, L",
    [
        (golden_example1(), 2),
        (_corrupt(golden_example1(), input_coeffs=((0, 0), 0, 2)), 2),
        (_corrupt(golden_example1(), key_coeffs=(0, 0, 0)), 2),
        (_corrupt(golden_example1(), key_matrix=(2, 1, 0), recovery=(0, 1, 1)), 2),
        (build_scheme(2, 1), 2),
        (_corrupt(build_scheme(2, 1), key_matrix=(1, 0, 0)), 2),
    ],
)
def test_exhaustive_verdicts_match_count_table_reference(params, L):
    report = full_audit(params, level="exhaustive", L=L)
    got = {c.name: c.passed for c in report.checks[len(algebraic_audit(params).checks) :]}
    assert got == _reference_verdicts(params, L)

def _input_coeff_shifted(params):
    """params with the first input coefficient of user 1's link 0, to relay 1, raised by one."""
    first = int(params.input_coeffs[0, 0, 0])
    return _corrupt(params, input_coeffs=((0, 0), 0, (first + 1) % params.field.q))


@pytest.mark.parametrize(
    "params, functional",
    [
        (golden_example1(), True),
        (_corrupt(golden_example1(), input_coeffs=((0, 0), 0, 2)), False),
        (_corrupt(golden_example1(), key_coeffs=(0, 0, 0)), False),
        (_corrupt(golden_example1(), key_matrix=(2, 1, 0), recovery=(0, 1, 1)), False),
        (_input_coeff_shifted(build_scheme(3, 2, q=5)), False),
        (_input_coeff_shifted(build_scheme(2, 1)), False),
    ],
    ids=[
        "golden", "golden-input", "golden-key-coeff", "golden-key-recovery", "q5-input",
        "single-input",
    ],
)
def test_chunked_row_comparison_matches_one_chunk(monkeypatch, params, functional):
    # one row and three rows per chunk must give the same checks,
    # verdicts and details as the default size; a check's rows span only
    # the source symbols it reads, so three rows are sized from each array.
    # The recovery table is scattered in chunks of the same size, and each
    # corrupted scheme makes it no function of the messages; the last one
    # zeroes an input coefficient at (2, 1).
    whole = full_audit(params, level="exhaustive", L=2)
    detail = whole.checks[-1].detail
    assert f"messages determine the sum: {functional}" in detail
    monkeypatch.setattr(audit, "_COMPARE_CHUNK", 1)
    assert full_audit(params, level="exhaustive", L=2) == whole
    rows_match = audit._rows_match
    widths = []

    def three_rows(rows, group=None):
        widths.append(rows.shape[1])
        monkeypatch.setattr(audit, "_COMPARE_CHUNK", 3 * rows.shape[1])
        return rows_match(rows, group)

    monkeypatch.setattr(audit, "_rows_match", three_rows)
    assert full_audit(params, level="exhaustive", L=2) == whole
    assert widths


@pytest.mark.parametrize("spans", [True, False], ids=["packed-in-place", "broadcast-last"])
@pytest.mark.parametrize("n_forms, dtype", [(1, np.int16), (5, np.int16), (6, np.int32)])
def test_evaluate_packs_in_narrowest_16_bit_or_wider_type(n_forms, dtype, spans):
    # q = 7: 7**5 = 16807 fits int16 and 7**6 = 117649 needs int32; one
    # form would fit 8 bits, which evaluate never uses
    space = audit._StateSpace(build_scheme(2, 1, q=7), 2, 10**8)
    q, n = space.q, space.n_vars
    rng = Random(n_forms)
    # Either the first form reads every variable, so its term spans the
    # grid and the others are added to the code in place, or every form
    # leaves the last variable out, so its axis stays length 1.  Zero
    # coefficients read nothing.
    forms = [
        {v: rng.randrange(q) for v in rng.sample(range(n - 1), rng.randint(1, n - 1))}
        for _ in range(n_forms)
    ]
    if spans:
        forms[0] = {v: rng.randrange(1, q) for v in range(n)}
    code = space.evaluate("test", *forms)
    read = {v for form in forms for v, c in form.items() if c}
    assert code.dtype == dtype
    assert code.shape == tuple(q if v in read else 1 for v in range(n))
    assert (np.broadcast_to(code, (q,) * n).reshape(-1) == _every_state(space, forms)).all()


def _every_state(space, forms):
    """The packed code at every state in grid order, from a table of every
    variable's value at every state."""
    q = space.q
    values = np.indices((q,) * space.n_vars).reshape(space.n_vars, -1)
    code = np.zeros(space.size, dtype=np.int64)
    for form in forms:
        code = code * q + sum(c * values[v] for v, c in form.items()) % q
    return code


def _shuffled(forms, seed):
    return Random(seed).sample(forms, len(forms))


def _random_forms(space, count, seed):
    rng = Random(seed)
    return [
        {v: rng.randrange(space.q) for v in rng.sample(range(space.n_vars), rng.randint(1, 3))}
        for _ in range(count)
    ]


_Q7 = audit._StateSpace(build_scheme(2, 1, q=7), 2, 10**8)
_GOLDEN = audit._StateSpace(golden_example1(), 2, 10**8)


@pytest.mark.parametrize("inner", [1, audit._INNER_AXIS, 10**9], ids=["one", "default", "all"])
@pytest.mark.parametrize(
    "space, forms, dtype",
    [
        (_GOLDEN, _shuffled(_GOLDEN.joint_forms(), 1), np.int16),
        (_Q7, _shuffled(_Q7.joint_forms(), 2), np.int32),
        (_Q7, [{0: 1, 1: 2}, {2: 3}, {3: 1, 4: 5}, {5: 6}], np.int16),
        (_Q7, [{1: 3}, {}, {2: 5, 4: 1}, {0: 0, 3: 0}, {4: 2}], np.int16),
        (_Q7, _random_forms(_Q7, 11, 5), np.int32),
        (_Q7, _random_forms(_Q7, 12, 6), np.int64),
        (_GOLDEN, [{v: 1 + v % 2 for v in range(8)}, {0: 1, 7: 2}], np.int16),
    ],
    ids=[
        "golden-joint-shuffled", "q7-joint-shuffled", "disjoint", "zero-forms",
        "int32-top", "int64-bottom", "inputs-in-inner",
    ],
)
def test_evaluate_matches_every_state(monkeypatch, space, forms, dtype, inner):
    # 7**11 < 2**31 - 1 < 7**12, and the test above takes the int16
    # boundary.  The joint forms come in shuffled order.  One variable
    # per merged axis, the default split, and every read variable merged
    # must all give the same code; the golden space's default inner axis
    # holds its last 6 variables, 4 of them inputs, so rows() must still
    # split inputs from source symbols.
    monkeypatch.setattr(audit, "_INNER_AXIS", inner)
    code = space.evaluate("test", *forms)
    read = sorted({v for form in forms for v, c in form.items() if c})
    assert code.dtype == dtype
    assert code.shape == tuple(space.q if v in read else 1 for v in range(space.n_vars))
    full = _every_state(space, forms).reshape((space.q,) * space.n_vars)
    assert (np.broadcast_to(code, full.shape) == full).all()
    # one row per value of the inputs read, one column per value of the
    # source symbols read, as a view of the code
    rows = space.rows(code)
    kept = tuple(slice(None) if v in read else slice(0, 1) for v in range(space.n_vars))
    n_rows = space.q ** sum(v < space.n_w for v in read)
    assert rows.shape == (n_rows, code.size // n_rows)
    assert np.shares_memory(rows, code)
    assert (rows == full[kept].reshape(rows.shape)).all()


@pytest.mark.parametrize("chunk", [1, audit._COMPARE_CHUNK])
@pytest.mark.parametrize("dtype", [np.int16, np.int32])
def test_rows_match_compares_each_row_with_its_group_leader(monkeypatch, dtype, chunk):
    monkeypatch.setattr(audit, "_COMPARE_CHUNK", chunk)
    # groups 20000, 3 and 500 lead at rows 0, 1 and 4; rows of a group
    # hold its leader's multiset in any order
    group = np.array([20000, 3, 20000, 3, 500, 3], dtype=dtype)
    rows = [[4, 1, 1], [2, 7, 5], [1, 4, 1], [5, 2, 7], [0, 0, 9], [7, 5, 2]]
    got = np.array(rows, dtype=dtype)
    assert audit._rows_match(got, group.copy())
    assert (got == np.sort(rows, axis=1)).all()
    # row 3 now holds group 20000's multiset, not its own group's
    rows[3] = [1, 1, 4]
    assert not audit._rows_match(np.array(rows, dtype=dtype), group.copy())
    # without groups every row is compared with row 0
    assert not audit._rows_match(np.array(rows, dtype=dtype))
    assert audit._rows_match(np.array([[3, 1], [1, 3], [3, 1]], dtype=dtype))


def test_checks_hold_only_the_variables_their_forms_read(monkeypatch):
    # At (3, 2) over GF(7) with L = 2 a relay reads its 2 senders' 4 input
    # symbols and 2 source symbols, and the joint code reads every input
    # but drops a source symbol that no relay message reads.
    shapes = []
    rows_match = audit._rows_match

    def spy(rows, group=None):
        shapes.append(rows.shape)
        return rows_match(rows, group)

    monkeypatch.setattr(audit, "_rows_match", spy)
    report = exhaustive_mi_audit(build_scheme(3, 2, q=7), L=2)
    assert report.passed
    *relays, joint = shapes
    assert [math.prod(shape) for shape in relays] == [7**6] * 3
    assert joint[0] == 7 ** (3 * 2) and math.prod(joint) < 7**8
    # every detail still names the full realization count
    assert all(f"over {7**8} realizations" in c.detail for c in report.checks[:3])


def _key_row_times_three(params):
    """params with user 2's key row set to 3 times user 1's."""
    rows = [list(r) for r in params.key_matrix.rows]
    rows[1] = [3 * h % params.field.q for h in rows[0]]
    return replace(params, key_matrix=Matrix(params.field, rows))


@pytest.mark.parametrize(
    "params",
    [
        _key_row_times_three(build_scheme(3, 2, q=7)),
        _key_row_times_three(golden_example1()),
        _corrupt(build_scheme(3, 2, q=7), key_coeffs=(0, 0, 0)),
        _corrupt(golden_example1(), key_coeffs=(0, 0, 0)),
    ],
    ids=["q7-key-row", "golden-key-row", "q7-key-coeff", "golden-key-coeff"],
)
def test_relay_mi_agrees_with_algebraic_on_planted_dependence(params):
    report = full_audit(params, level="exhaustive", L=2)
    verdicts = {c.name: c.passed for c in report.checks}
    relays = params.topo.relays()
    assert not all(verdicts[f"relay-mi[{i}]"] for i in relays)
    for i in relays:
        assert verdicts[f"relay-mi[{i}]"] == verdicts[f"relay-security-algebraic[{i}]"], i


def _unallocatable(monkeypatch, only=None):
    """np.zeros in hsagg.audit raises MemoryError, as numpy does for an
    array it cannot allocate, for every dtype or only the given one."""
    zeros = np.zeros

    def refuse(shape, dtype):
        if only is None or dtype is only:
            raise MemoryError
        return zeros(shape, dtype=dtype)

    monkeypatch.setattr(audit, "np", SimpleNamespace(**{**vars(np), "zeros": refuse}))


@pytest.mark.parametrize(
    "run, only, check, nbytes",
    [
        (exhaustive_mi_audit, None, "relay-mi[1]", 7**6 * 2),
        (exhaustive_recovery_audit, None, "recovery-exhaustive", 7**7 * 2),
        (exhaustive_recovery_audit, bool, "recovery-exhaustive", 7 ** (3 + 2)),
    ],
    ids=["relay-code", "joint-code", "recovery-table"],
)
def test_unallocatable_check_array_raises_state_space_error(monkeypatch, run, only, check, nbytes):
    params = build_scheme(3, 2, q=7)
    _unallocatable(monkeypatch, only)
    with pytest.raises(StateSpaceError) as err:
        run(params, L=2)
    assert (err.value.required, err.value.cap) == (nbytes, None)
    assert str(err.value) == f"{check} needs {nbytes} bytes, more than numpy can allocate"


def test_state_space_cap_enforced():
    params = build_scheme(3, 2, q=7)
    with pytest.raises(StateSpaceError) as err:
        exhaustive_mi_audit(params, L=2, max_states=1000)
    assert err.value.required == 7**8
    with pytest.raises(StateSpaceError):
        exhaustive_recovery_audit(params, L=2, max_states=1000)


def test_full_audit_levels():
    params = golden_example1()
    assert len(full_audit(params, level="algebraic").checks) == 4
    full = full_audit(params, level="exhaustive", L=2).checks
    assert len(full) == 9
    # the one-space exhaustive path reports exactly what the separate
    # audits report, in order: name, verdict and detail
    separate = (
        algebraic_audit(params).checks
        + exhaustive_mi_audit(params, L=2).checks
        + (exhaustive_recovery_audit(params, L=2),)
    )
    assert [(c.name, c.passed, c.detail) for c in full] == [
        (c.name, c.passed, c.detail) for c in separate
    ]
    with pytest.raises(ValueError):
        full_audit(params, level="sampled")


def test_report_serialization():
    report = full_audit(golden_example1(), level="exhaustive", L=2)
    data = report.to_dict()
    assert data["passed"] is True
    assert len(data["checks"]) == 9
    assert all(set(c) == {"name", "passed", "detail"} for c in data["checks"])
