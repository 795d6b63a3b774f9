import math
import tracemalloc
from collections import Counter
from dataclasses import replace
from itertools import product
from random import Random
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hsagg import audit
from hsagg.audit import (
    StateSpaceError,
    algebraic_audit,
    exhaustive_mi_audit,
    exhaustive_recovery_audit,
    full_audit,
    golden_decode,
    golden_example1,
    relay_security_algebraic,
    server_security_algebraic,
)
from hsagg.gf import Matrix
from hsagg.key_design import CheckResult
from hsagg.protocol import (
    build_scheme,
    derive_keys,
    direct_sum,
    random_inputs,
    relay_encode,
    run_round,
    sample_source_key,
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
    "make, exhaustive",
    [(golden_example1, True), (lambda: build_scheme(5, 3), False)],
    ids=["golden", "vandermonde"],
)
def test_algebraic_audit_refuses_misshaped_key_coeffs(make, exhaustive):
    # The K x K coefficient matrix, zero off the association, and an
    # array with one link too many both fail the shape check, in the
    # exhaustive audits too where the state space is small enough to
    # build their forms.
    params = make()
    K, B = params.K, params.topo.B
    square = np.zeros((K, K), np.int64)
    square[np.arange(K)[:, None], params.topo.link_relay] = params.key_coeffs
    checks = [algebraic_audit, lambda p: relay_security_algebraic(p, 1)]
    if exhaustive:
        checks += [
            lambda p: exhaustive_mi_audit(p, L=2),
            lambda p: exhaustive_recovery_audit(p, L=2),
        ]
    for bad in (square, np.hstack([params.key_coeffs, params.key_coeffs[:, :1]])):
        broken = replace(params, key_coeffs=bad)
        for check in checks:
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
    h = params.key_matrix.copy()
    h[2] = h[0]  # users 1 and 3 now share a key row; relay 1 sees rank 1
    broken = replace(params, key_matrix=h)
    check = relay_security_algebraic(broken, 1)
    assert not check.passed
    assert "rank 1/2" in check.detail


def test_zeroed_key_column_breaks_server_security():
    # needs K - B >= 2 so losing one key dimension drops the mixed rank
    params = build_scheme(4, 2)
    h = params.key_matrix.copy()
    h[:, -1] = 0
    broken = replace(params, key_matrix=h)
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
    rows = params.recovery.copy()
    rows[0, 0] = (rows[0, 0] + 1) % 5
    broken = replace(params, recovery=rows)
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
        changes[name] = getattr(params, name).copy()
        changes[name][r][c] = value
    return replace(params, **changes)


def _unread_input(params):
    """params with user 1's first input coefficient zeroed on every link,
    so that no relay symbol reads user 1's first input symbol."""
    coeffs = params.input_coeffs.copy()
    coeffs[0, :, 0] = 0
    return replace(params, input_coeffs=coeffs)


def _silent_relay(params):
    """params with every input and key coefficient zeroed on the links
    into relay 1, so that relay 1's check reads no variable."""
    inputs, keys = params.input_coeffs.copy(), params.key_coeffs.copy()
    users, links = np.divmod(params.topo.relay_links[0], params.topo.B)
    inputs[users, links] = 0
    keys[users, links] = 0
    return replace(params, input_coeffs=inputs, key_coeffs=keys)


@pytest.mark.parametrize(
    "params, L",
    [
        (golden_example1(), 2),
        (_corrupt(golden_example1(), input_coeffs=((0, 0), 0, 2)), 2),
        (_corrupt(golden_example1(), key_coeffs=(0, 0, 0)), 2),
        (_corrupt(golden_example1(), key_matrix=(2, 1, 0), recovery=(0, 1, 1)), 2),
        (build_scheme(2, 1), 2),
        (_corrupt(build_scheme(2, 1), key_matrix=(1, 0, 0)), 2),
        (_unread_input(golden_example1()), 2),
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
    # Recovery decodes its pairs in chunks of the same size, and each
    # corrupted scheme makes the sum no function of the messages; the last
    # one shifts an input coefficient at (2, 1).
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
    forms = np.zeros((n_forms, n), np.int64)
    for form in forms:
        for v in rng.sample(range(n - 1), rng.randint(1, n - 1)):
            form[v] = rng.randrange(q)
    if spans:
        forms[0] = [rng.randrange(1, q) for _ in range(n)]
    code = space.evaluate("test", forms)
    assert code.dtype == dtype
    assert code.shape == tuple(q if read else 1 for read in forms.any(axis=0))
    assert (np.broadcast_to(code, (q,) * n).reshape(-1) == _every_state(space, forms)).all()


def _every_state(space, forms):
    """The packed code at every state in grid order, from a table of every
    variable's value at every state."""
    q = space.q
    values = np.indices((q,) * space.n_vars).reshape(space.n_vars, -1)
    code = np.zeros(space.size, dtype=np.int64)
    for form in forms:
        code = code * q + form @ values % q
    return code


def _shuffled(forms, seed):
    return forms[Random(seed).sample(range(len(forms)), len(forms))]


def _random_forms(space, count, seed):
    """count forms, each with 1 to 3 random coefficients, zero included."""
    rng = Random(seed)
    forms = np.zeros((count, space.n_vars), np.int64)
    for form in forms:
        for v in rng.sample(range(space.n_vars), rng.randint(1, 3)):
            form[v] = rng.randrange(space.q)
    return forms


def _relay_and_sum_forms(space):
    """The forms of the (relay messages, sum) code: every relay symbol,
    relay-major, then every sum symbol."""
    return np.vstack([space.joint_forms(), space.sum_forms()])


_Q7 = audit._StateSpace(build_scheme(2, 1, q=7), 2, 10**8)
_GOLDEN = audit._StateSpace(golden_example1(), 2, 10**8)


@pytest.mark.parametrize("inner", [1, audit._INNER_AXIS, 10**9], ids=["one", "default", "all"])
@pytest.mark.parametrize(
    "space, forms, dtype",
    [
        (_GOLDEN, _shuffled(_relay_and_sum_forms(_GOLDEN), 1), np.int16),
        (_Q7, _shuffled(_relay_and_sum_forms(_Q7), 2), np.int32),
        (
            _Q7,
            np.array(
                [[1, 2, 0, 0, 0, 0], [0, 0, 3, 0, 0, 0], [0, 0, 0, 1, 5, 0], [0, 0, 0, 0, 0, 6]]
            ),
            np.int16,
        ),
        (
            _Q7,
            np.array(
                [[0, 3, 0, 0, 0, 0], [0] * 6, [0, 0, 5, 0, 1, 0], [0] * 6, [0, 0, 0, 0, 2, 0]]
            ),
            np.int16,
        ),
        (_Q7, _random_forms(_Q7, 11, 5), np.int32),
        (_Q7, _random_forms(_Q7, 12, 6), np.int64),
        (_GOLDEN, np.array([[1, 2, 1, 2, 1, 2, 1, 2], [1, 0, 0, 0, 0, 0, 0, 2]]), np.int16),
        (_Q7, np.array([[1, 2, 3, 4, 0, 0], [0, 5, 0, 1, 0, 2], [0, 0, 6, 0, 0, 0]]), np.int16),
        (_Q7, np.array([[1, 2, 3, 4, 0, 1], [0, 0, 0, 0, 3, 2]]), np.int16),
    ],
    ids=[
        "golden-joint-shuffled", "q7-joint-shuffled", "disjoint", "zero-forms",
        "int32-top", "int64-bottom", "inputs-in-inner", "source-major", "wide",
    ],
)
def test_evaluate_matches_every_state(monkeypatch, space, forms, dtype, inner):
    # 7**11 < 2**31 - 1 < 7**12, and the test above takes the int16
    # boundary.  The joint forms come in shuffled order.  One variable
    # per merged axis, the default split, and every read variable merged
    # must all give the same code; the golden space's default inner axis
    # holds its last 6 variables, 4 of them inputs, so rows() must still
    # split inputs from source symbols.  The "source-major" forms read 7**4
    # inputs and one source symbol, whose rows the network sorts; the
    # "wide" ones read both source symbols, 49 entries a row.
    monkeypatch.setattr(audit, "_INNER_AXIS", inner)
    code = space.evaluate("test", forms)
    read = forms.any(axis=0)
    assert code.dtype == dtype
    assert code.shape == tuple(space.q if r else 1 for r in read)
    full = _every_state(space, forms).reshape((space.q,) * space.n_vars)
    assert (np.broadcast_to(code, full.shape) == full).all()
    # one row per value of the inputs read, one column per value of the
    # source symbols read, as a view of the code
    rows = space.rows(code)
    kept = tuple(slice(None) if r else slice(0, 1) for r in read)
    n_rows = space.q ** int(read[: space.n_w].sum())
    assert rows.shape == (n_rows, code.size // n_rows)
    assert np.shares_memory(rows, code)
    assert (rows == full[kept].reshape(rows.shape)).all()
    # rows the network sorts are the transposed view of a C-contiguous
    # array; a single row or column is both layouts at once
    if min(rows.shape) > 1:
        assert rows.T.flags.c_contiguous == _networked(rows) != rows.flags.c_contiguous


def _networked(rows):
    """Whether evaluate lays rows out for the network: at least
    _NETWORK_ROWS of them, of at most _NETWORK_BYTES each."""
    n, width = rows.shape
    return n >= audit._NETWORK_ROWS and width * rows.itemsize <= audit._NETWORK_BYTES


def _source_major(rows):
    """rows as the transposed view of a C-contiguous array, the layout in
    which evaluate hands the network its rows."""
    return np.ascontiguousarray(np.asarray(rows).T).T


def _counting_minimum():
    """numpy's namespace with an np.minimum that counts its calls, one per
    compare-exchange round of the network, and the list that counts them."""
    rounds = []
    minimum = np.minimum

    def spy(*args, **kwargs):
        rounds.append(1)
        return minimum(*args, **kwargs)

    spy.at = minimum.at
    return SimpleNamespace(**{**vars(np), "minimum": spy}), rounds


@pytest.mark.parametrize("chunk", [1, audit._COMPARE_CHUNK])
@pytest.mark.parametrize("dtype", [np.int16, np.int32])
def test_rows_match_compares_each_row_with_its_group_leader(monkeypatch, dtype, chunk):
    monkeypatch.setattr(audit, "_COMPARE_CHUNK", chunk)
    counting, rounds = _counting_minimum()
    monkeypatch.setattr(audit, "np", counting)
    # the network sorts source-major rows, and numpy's per-row sort
    # row-major ones; either is sorted in place, and the leaders are
    # gathered along its contiguous axis
    for layout, network in ((np.array, False), (_source_major, True)):
        rounds.clear()
        # groups 20000, 3 and 500 lead at rows 0, 1 and 4; rows of a group
        # hold its leader's multiset in any order, so only the leaders'
        # rows come back
        group = np.array([20000, 3, 20000, 3, 500, 3], dtype=dtype)
        rows = [[4, 1, 1], [2, 7, 5], [1, 4, 1], [5, 2, 7], [0, 0, 9], [7, 5, 2]]
        got = layout(np.array(rows, dtype=dtype))
        ok, marked = audit._rows_match(got, group.copy())
        assert ok and marked.tolist() == [0, 1, 4]
        assert (got == np.sort(rows, axis=1)).all()
        assert bool(rounds) == network
        # row 3 now holds group 20000's multiset, not its own group's, so
        # it comes back with the leaders
        rows[3] = [1, 1, 4]
        ok, marked = audit._rows_match(layout(np.array(rows, dtype=dtype)), group.copy())
        assert not ok and marked.tolist() == [0, 1, 3, 4]
        # without groups every row is compared with row 0, which leads them
        ok, marked = audit._rows_match(layout(np.array(rows, dtype=dtype)))
        assert not ok and marked.tolist() == [0, 1, 4, 5]
        ok, marked = audit._rows_match(layout(np.array([[3, 1], [1, 3], [3, 1]], dtype=dtype)))
        assert ok and marked.tolist() == [0]
        # one row, and rows of one entry
        ok, marked = audit._rows_match(layout(np.array([[2, 0, 1]], dtype=dtype)))
        assert ok and marked.tolist() == [0]
        one = layout(np.array([[5], [4], [5]], dtype=dtype))
        ok, marked = audit._rows_match(one, np.array([1, 0, 1], dtype=dtype))
        assert ok and marked.tolist() == [0, 1]
        ok, marked = audit._rows_match(one)
        assert not ok and marked.tolist() == [0, 1]


def _network_width(dtype):
    """Widest row, in entries, that evaluate lays out for the network."""
    return audit._NETWORK_BYTES // np.dtype(dtype).itemsize


@st.composite
def _row_arrays(draw):
    """Row arrays as _sort_rows may meet them: a dtype, any width from 1
    to two past the widest that evaluate lays out for the network, one row
    or many, and entries from either a few values, so rows hold ties, or
    the dtype's whole range."""
    dtype = draw(st.sampled_from([np.int16, np.int32, np.int64]))
    width = draw(st.integers(min_value=1, max_value=_network_width(dtype) + 2))
    n_rows = draw(st.sampled_from([1, 2, 7, 40]))
    info = np.iinfo(dtype)
    low, high = draw(st.sampled_from([(0, 2), (-3, 3), (int(info.min), int(info.max))]))
    return draw(hnp.arrays(dtype, (n_rows, width), elements=st.integers(low, high)))


@given(_row_arrays(), st.integers(min_value=1, max_value=5))
@settings(max_examples=200, deadline=None)
def test_sort_rows_matches_np_sort(rows, block_rows):
    # Source-major rows of at most _NETWORK_BYTES take the network, in
    # slabs of block_rows columns of the array under them, so slabs end
    # inside the array; W rounds sort each slab.  So does a single narrow
    # row or column, which is both layouts at once.  Wider rows and other
    # row-major ones take numpy's sort.  Both sort in place.
    want = np.sort(rows, axis=1)
    n, width = rows.shape
    block = block_rows * width * rows.itemsize
    network = width * -(-n // block_rows) if width <= _network_width(rows.dtype) else 0
    for layout, n_rounds in (
        (np.copy, network if min(n, width) == 1 else 0),
        (_source_major, network),
    ):
        got = layout(rows)
        counting, rounds = _counting_minimum()
        with mock.patch.object(audit, "_NETWORK_BLOCK", block), mock.patch.object(
            audit, "np", counting
        ):
            audit._sort_rows(got)
        assert got.dtype == want.dtype and (got == want).all()
        assert len(rounds) == n_rounds


@pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
def test_sort_network_sorts_every_zero_one_row(monkeypatch, dtype):
    # A comparator network that sorts every row of zeros and ones sorts
    # every row (Knuth, TAOCP vol. 3, 5.3.4, Theorem Z), so this proves
    # the network at each width that evaluate lays out for it.
    counting, rounds = _counting_minimum()
    monkeypatch.setattr(audit, "np", counting)
    for width in range(1, _network_width(dtype) + 1):
        rows = _source_major((np.arange(2**width)[:, None] >> np.arange(width) & 1).astype(dtype))
        want = np.sort(rows, axis=1)
        rounds.clear()
        audit._sort_rows(rows)
        assert (rows == want).all() and len(rounds) == width, width


# The schemes and L of the audit-exhaustive benchmark workload, each
# with one block or blocks of one symbol, and one with two blocks of two.
_FORM_CASES = {
    "golden": (golden_example1(), 2),
    "full-3": (build_scheme(3, 3), 2),
    "single-4": (build_scheme(4, 1), 1),
    "single-L3": (build_scheme(2, 1), 3),
    "q5": (build_scheme(3, 2, q=5), 2),
    "q7": (build_scheme(3, 2, q=7), 2),
    "q5-L4": (build_scheme(3, 2, q=5), 4),
}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("params, L", list(_FORM_CASES.values()), ids=list(_FORM_CASES))
def test_forms_evaluate_to_the_messages_a_round_sends(params, L, seed):
    # A state lists the round's inputs, user-major, then its source key,
    # block-major, which is the order of the grid's variables.  Every link
    # form and relay form, evaluated there, must give the symbols the
    # round sends; a link that the full-association regime disables has
    # no form and sends nothing.  Nothing is enumerated, so no cap applies.
    space = audit._StateSpace(params, L, math.inf)
    inputs = random_inputs(params, L, seed)
    key = sample_source_key(params, space.blocks, seed)
    state = np.array([x for k in params.topo.users() for x in inputs[k]] + list(key))
    transcript = run_round(params, inputs, seed).transcript
    links = (space.forms @ state % space.q).tolist()
    sent = {
        (link // params.topo.B + 1, i): tuple(symbols)
        for i, relay_links in zip(params.topo.relays(), params.topo.relay_links.tolist())
        for link, symbols in zip(relay_links, links[i - 1])
    }
    assert sent == {k_i: m for k_i, m in transcript.user_messages.items() if m}
    relays = (space.joint_forms() @ state % space.q).reshape(params.K, space.blocks)
    assert dict(zip(params.topo.relays(), map(tuple, relays.tolist()))) == transcript.relay_messages


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
    rows = params.key_matrix.copy()
    rows[1] = 3 * rows[0] % params.field.q
    return replace(params, key_matrix=rows)


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


def _recovery_shifted(params):
    """params with the first recovery entry raised by one."""
    first = int(params.recovery[0, 0])
    return _corrupt(params, recovery=(0, 0, (first + 1) % params.field.q))


def _full_scatter_recovery(params, L):
    """recovery-exhaustive from every code of the (relay messages, sum)
    array: each code is marked in a table of pairs, and the pairs that
    occur are decoded through server_decode until one decodes wrong."""
    space = audit._StateSpace(params, L, 10**8)
    q, relays, blocks = space.q, params.topo.relays(), space.blocks
    table = np.zeros(q ** (params.K * blocks + L), dtype=bool)
    table[space.evaluate("reference", _relay_and_sum_forms(space)).reshape(-1)] = True
    y, s = np.divmod(np.flatnonzero(table), q**L)
    functional = len(set(y.tolist())) == len(y)

    def decodes(code, total):
        digits = [code // q**e % q for e in range(params.K * blocks - 1, -1, -1)]
        msgs = {i: tuple(digits[(i - 1) * blocks : i * blocks]) for i in relays}
        return server_decode(params, msgs) == tuple(total // q**e % q for e in range(L - 1, -1, -1))

    decode_ok = all(decodes(code, total) for code, total in zip(y.tolist(), s.tolist()))
    return CheckResult(
        "recovery-exhaustive",
        decode_ok and functional,
        f"decode exact: {decode_ok}; messages determine the sum: {functional}"
        f" ({space.size} realizations)",
    )


# Every scheme and mutant of this file that the exhaustive audits take at
# L = 2, with its id.
_EXHAUSTIVE_SCHEMES = {
    "golden": golden_example1(),
    "golden-input": _corrupt(golden_example1(), input_coeffs=((0, 0), 0, 2)),
    "golden-key-coeff": _corrupt(golden_example1(), key_coeffs=(0, 0, 0)),
    "golden-key-row-copy": _corrupt(golden_example1(), key_matrix=(2, 1, 0)),
    "golden-key-recovery": _corrupt(golden_example1(), key_matrix=(2, 1, 0), recovery=(0, 1, 1)),
    "golden-input-shift": _input_coeff_shifted(golden_example1()),
    "golden-key-row": _key_row_times_three(golden_example1()),
    "golden-recovery": _recovery_shifted(golden_example1()),
    "golden-silent-relay": _silent_relay(golden_example1()),
    "q5": build_scheme(3, 2, q=5),
    "q5-key-coeff": _corrupt(build_scheme(3, 2, q=5), key_coeffs=(0, 0, 0)),
    "q5-input": _input_coeff_shifted(build_scheme(3, 2, q=5)),
    "q5-recovery": _recovery_shifted(build_scheme(3, 2, q=5)),
    "single": build_scheme(2, 1),
    "single-key": _corrupt(build_scheme(2, 1), key_matrix=(1, 0, 0)),
    "single-input": _input_coeff_shifted(build_scheme(2, 1)),
    "q7": build_scheme(3, 2, q=7),
    "q7-key-row": _key_row_times_three(build_scheme(3, 2, q=7)),
    "q7-key-coeff": _corrupt(build_scheme(3, 2, q=7), key_coeffs=(0, 0, 0)),
}

# Mutants that leave an input unread by every relay symbol, with their L.
_UNREAD_INPUT = {
    "golden-unread": (_unread_input(golden_example1()), 2),
    "single-unread-L3": (_unread_input(build_scheme(2, 1)), 3),
    "q7-unread": (_unread_input(build_scheme(3, 2, q=7)), 2),
}


@pytest.mark.parametrize("chunk", [1, audit._COMPARE_CHUNK])
@pytest.mark.parametrize(
    "params", list(_EXHAUSTIVE_SCHEMES.values()), ids=list(_EXHAUSTIVE_SCHEMES)
)
def test_recovery_marks_every_pair_a_full_scatter_marks(monkeypatch, params, chunk):
    # Recovery marks only the rows the server row match returns: every
    # leader, and every row that differs from its leader when server-mi
    # fails.  Its check must equal one read off every code, on passing
    # schemes and on mutants that fail any of the checks.
    want = _full_scatter_recovery(params, 2)
    monkeypatch.setattr(audit, "_COMPARE_CHUNK", chunk)
    assert full_audit(params, level="exhaustive", L=2).checks[-1] == want
    assert exhaustive_recovery_audit(params, L=2) == want


def _full_joint_match(params, L):
    """server-mi's verdict, and the rows recovery marks, from the (relay
    messages, sum) code: each row sorted, grouped by the sum digits of its
    first code, and compared with the first row of its group.  Returns
    them with the sorted rows."""
    space = audit._StateSpace(params, L, 10**8)
    code = space.evaluate("reference", _relay_and_sum_forms(space))
    rows = np.sort(code.reshape(space.q**space.n_w, -1), axis=1)
    _, first, inverse = np.unique(rows[:, 0] % space.q**L, return_index=True, return_inverse=True)
    lead = first[inverse.reshape(-1)]
    differs = (rows != rows[lead]).any(axis=1)
    marked = np.flatnonzero((lead == np.arange(len(rows))) | differs)
    return not differs.any(), marked, rows


_SERVER_MATCH_CASES = {
    **{name: (params, 2) for name, params in _EXHAUSTIVE_SCHEMES.items()},
    **_UNREAD_INPUT,
}


@pytest.mark.parametrize("chunk", [1, audit._COMPARE_CHUNK])
@pytest.mark.parametrize(
    "params, L", list(_SERVER_MATCH_CASES.values()), ids=list(_SERVER_MATCH_CASES)
)
def test_server_match_equals_a_match_on_the_full_joint_code(monkeypatch, params, L, chunk):
    # The server code holds the relay symbols only, and each row's sum
    # comes from the input grid.  Its verdict, its sorted rows with their
    # sums packed back in, the rows it marks, and the codes and sums of
    # those rows that it returns for recovery must equal a match on the
    # code that packs every sum symbol into every state.
    want_ok, want_marked, want_rows = _full_joint_match(params, L)
    monkeypatch.setattr(audit, "_COMPARE_CHUNK", chunk)
    server_match, rows_match = audit._server_match, audit._rows_match
    got, matched = [], []

    def server_spy(space, check):
        got.append(server_match(space, check))
        return got[-1]

    def rows_spy(rows, group=None):
        result = rows_match(rows, group)
        if group is not None:
            # rows are sorted in place, so they are kept as sorted
            matched.append((rows, group, result))
        return result

    monkeypatch.setattr(audit, "_server_match", server_spy)
    monkeypatch.setattr(audit, "_rows_match", rows_spy)
    report = full_audit(params, level="exhaustive", L=L)
    assert report.checks[-2].name == "server-mi" and report.checks[-2].passed == want_ok
    exhaustive_recovery_audit(params, L=L)
    assert len(got) == len(matched) == 2
    n_s = params.field.q**L
    for (ok, (codes, code_sums)), (rows, sums, (match_ok, marked)) in zip(got, matched):
        assert ok == match_ok == want_ok
        assert marked.tolist() == want_marked.tolist()
        assert sums.shape == (len(rows),)
        # every sorted row, not only the marked ones
        assert (rows.astype(np.int64) * n_s + sums[:, None] == want_rows).all()
        assert codes.shape == (len(want_marked), rows.shape[1]) and code_sums.shape == (len(codes),)
        assert (codes.astype(np.int64) * n_s + code_sums[:, None] == want_rows[want_marked]).all()


@pytest.mark.parametrize("params, L", list(_UNREAD_INPUT.values()), ids=list(_UNREAD_INPUT))
def test_unread_input_keeps_every_row_with_its_own_sum(params, L):
    # No relay symbol reads user 1's first input, so the relay code has a
    # length-1 axis there; each row must still be one value of every input,
    # with its own sum.  Every exhaustive verdict and detail must equal the
    # references on the full (relay messages, sum) code.  Over GF(7) the
    # joint's 7-entry rows are sorted by the network, so the code spread
    # over the missing axis must stay source-major: its rows a transposed
    # view of one C-contiguous array.
    space = audit._StateSpace(params, L, 10**8)
    # User 1's first input symbol is variable 0.
    read = space.evaluate("test", space.joint_forms()).shape
    assert read[0] == 1
    joint = space.joint("test")
    assert joint.shape == (space.q,) * space.n_w + read[space.n_w :]
    rows = space.rows(joint)
    assert rows.shape == (space.q**space.n_w, math.prod(read[space.n_w :]))
    assert np.shares_memory(rows, joint)
    assert rows.T.flags.c_contiguous == _networked(rows) != rows.flags.c_contiguous
    server_ok, _, _ = _full_joint_match(params, L)
    recovery = _full_scatter_recovery(params, L)
    assert not server_ok and not recovery.passed
    full = full_audit(params, level="exhaustive", L=L).checks
    exhaustive = exhaustive_mi_audit(params, L=L).checks + (exhaustive_recovery_audit(params, L=L),)
    n_algebraic = len(algebraic_audit(params).checks)
    assert full[n_algebraic:] == exhaustive
    assert full[-2] == CheckResult(
        "server-mi",
        server_ok,
        f"relay messages conditionally independent of inputs given the sum: {server_ok}",
    )
    assert full[-1] == recovery
    # the keys still mask every message, so every relay sees nothing
    for i in params.topo.relays():
        detail = f"received messages independent of inputs over {space.size} realizations"
        assert full[n_algebraic + i - 1] == CheckResult(f"relay-mi[{i}]", True, detail)


def _unallocatable(monkeypatch, name):
    """np.<name> in hsagg.audit raises MemoryError, as numpy does for an
    array it cannot allocate."""

    def refuse(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(audit, "np", SimpleNamespace(**{**vars(np), name: refuse}))


@pytest.mark.parametrize(
    "run, name, check, nbytes",
    [
        (exhaustive_mi_audit, "zeros", "relay-mi[1]", 7**6 * 2),
        (exhaustive_recovery_audit, "zeros", "recovery-exhaustive", 7**7 * 2),
        # the int64 pair index of each of the 7 codes of the 49 leaders
        (exhaustive_recovery_audit, "multiply", "recovery-exhaustive", 7**2 * 7 * 8),
    ],
    ids=["relay-code", "joint-code", "recovery-pairs"],
)
def test_unallocatable_check_array_raises_state_space_error(monkeypatch, run, name, check, nbytes):
    params = build_scheme(3, 2, q=7)
    _unallocatable(monkeypatch, name)
    with pytest.raises(StateSpaceError) as err:
        run(params, L=2)
    assert (err.value.required, err.value.cap) == (nbytes, None)
    assert str(err.value) == f"{check} needs {nbytes} bytes, more than numpy can allocate"


@pytest.mark.parametrize(
    "params, L, code_mib, limit_mib",
    [(build_scheme(2, 1), 3, 3.73, 5.5), (build_scheme(3, 2, q=7), 2, 1.57, 4.0)],
    ids=["single-L3", "q7"],
)
def test_exhaustive_audit_holds_little_beyond_its_code(params, L, code_mib, limit_mib):
    # The largest check array is the int16 server code of 5**9 states
    # (3.73 MiB) at (2, 1), and the int16 joint code of 7**7 states
    # (1.57 MiB) over GF(7).  Beside it a check holds one bool per row and
    # chunk-bounded temporaries, and recovery holds its table beside the
    # marked rows only: with three int64 arrays per row and every server
    # row kept for recovery the peaks were 7.29 and 4.92 MiB.
    space = audit._StateSpace(params, L, 10**8)
    assert space.joint("test").nbytes / 2**20 == pytest.approx(code_mib, abs=0.01)
    tracemalloc.start()
    try:
        report = full_audit(params, level="exhaustive", L=L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < limit_mib * 2**20, peak / 2**20


def test_server_rows_are_source_major_and_sorted_in_place():
    # The (3, 2) server rows over GF(7) are 7**6 rows of 7 int16 entries:
    # a transposed view of the C-contiguous code, which the network sorts
    # with no copy.  The 125-entry rows of (2, 1) at L = 3 and the 49-entry
    # relay rows over GF(7) stay row-major for numpy's sort.
    space = audit._StateSpace(build_scheme(3, 2, q=7), 2, 10**8)
    code = space.joint("test")
    rows = space.rows(code)
    assert rows.shape == (7**6, 7) and rows.dtype == np.int16
    assert rows.T.flags.c_contiguous and not rows.flags.c_contiguous
    assert np.shares_memory(rows, code) and rows.T.base is code.base
    want = np.sort(rows, axis=1)
    sums = space.evaluate("test", space.sum_forms()).reshape(-1)
    ok, marked = audit._rows_match(rows, sums)
    assert ok and len(marked) == 7**2
    assert (rows == want).all() and (space.rows(code) == want).all()
    relay = space.rows(space.evaluate("test", space.forms[0].reshape(-1, space.n_vars)))
    wide = audit._StateSpace(build_scheme(2, 1), 3, 10**8)
    for rows, shape in ((relay, (7**4, 49)), (wide.rows(wide.joint("test")), (5**6, 125))):
        assert rows.shape == shape and rows.flags.c_contiguous


def test_recovery_holds_little_beyond_its_pairs():
    # Recovery reads the pairs that occur off the sorted int64 pair
    # indices of the marked codes, 125 leaders of 125 codes at (2, 1) with
    # L = 3, with no table over every (messages, sum) value: 5**9 bytes,
    # and 3.53 MiB traced with its decode arrays.
    space = audit._StateSpace(build_scheme(2, 1), 3, 10**8)
    _, (codes, sums) = audit._server_match(space, "test")
    assert codes.shape == (125, 125)
    tracemalloc.start()
    try:
        check = audit._recovery_check(space, codes, sums)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert check.passed
    assert peak < 2.5 * 2**20, peak / 2**20


@pytest.mark.parametrize("chunk", [1, 2, audit._COMPARE_CHUNK])
def test_recovery_reads_each_verdict_to_the_last_chunk(monkeypatch, chunk):
    # Recovery may stop early only once both verdicts have failed: a wrong
    # decode in the first pair must not hide a message that repeats in a
    # later chunk, a repeat across two chunks must be seen, and repeated
    # pairs count once.  Golden relay messages are 3 digits base 3, and
    # message 26 sets every relay symbol to 2.
    monkeypatch.setattr(audit, "_COMPARE_CHUNK", chunk)
    space = audit._StateSpace(golden_example1(), 2, 10**8)
    a, b = golden_decode({1: (2,), 2: (2,), 3: (2,)})
    right = 3 * a + b

    def detail(pairs):
        codes = np.array([[y] for y, _ in pairs], np.int16)
        sums = np.array([s for _, s in pairs], np.int16)
        return audit._recovery_check(space, codes, sums).detail

    realizations = f" ({space.size} realizations)"
    assert detail([(0, 5), (26, right), (26, (right + 1) % 9)]) == (
        "decode exact: False; messages determine the sum: False" + realizations
    )
    assert detail([(26, right), (0, 5)]) == (
        "decode exact: False; messages determine the sum: True" + realizations
    )
    assert detail([(26, right), (0, 0), (26, right), (0, 0)]) == (
        "decode exact: True; messages determine the sum: True" + realizations
    )


def test_failing_recovery_decodes_in_bounded_chunks():
    # With one input coefficient shifted at (2, 1), L = 3, the server match
    # marks most of the 5**6 rows, and about 2 M pairs occur.  They are
    # decoded _COMPARE_CHUNK at a time, with no whole-length message,
    # sum, digit or decode array: 199.7 MiB traced when those were whole.
    params = _input_coeff_shifted(build_scheme(2, 1))
    tracemalloc.start()
    try:
        report = full_audit(params, level="exhaustive", L=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.checks[-1] == CheckResult(
        "recovery-exhaustive",
        False,
        "decode exact: False; messages determine the sum: False (1953125 realizations)",
    )
    assert peak < 100 * 2**20, peak / 2**20


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


def test_full_audit_refuses_unknown_level_before_any_audit(monkeypatch):
    ran = []
    monkeypatch.setattr(audit, "algebraic_audit", lambda params: ran.append("algebraic"))
    monkeypatch.setattr(audit, "_StateSpace", lambda *args: ran.append("exhaustive"))
    with pytest.raises(ValueError, match="unknown audit level 'sampled'"):
        full_audit(golden_example1(), level="sampled")
    assert ran == []


def test_report_serialization():
    report = full_audit(golden_example1(), level="exhaustive", L=2)
    data = report.to_dict()
    assert data["passed"] is True
    assert len(data["checks"]) == 9
    assert all(set(c) == {"name", "passed", "detail"} for c in data["checks"])
