"""Security audits: algebraic for any size, exhaustive and exact at toy size.

The algebraic checks are the literal hypotheses the security arguments
rest on: every relay's B masked messages carry B linearly independent key
rows, and the only relay-message combinations that cancel the keys are
the recovery combinations.

The exhaustive audits enumerate every realization of (inputs, source key)
and test the two independence statements exactly, in integers.  Every
input vector meets every source key value once, so messages carry no
information about the inputs (given the sum) exactly when every input
vector sees the same multiset of message values as every other (with the
same sum).  The audits compare those multisets as sorted rows, so the
verdicts are never thresholded.  State spaces above the cap are refused
rather than sampled.

Each check evaluates its messages over only the variables they read (an
unread one only repeats rows or values, so no verdict changes), in the
narrowest integer type of at least 16 bits that holds them, and sorts
it in place.  The packed code is a sum of one weighted digit per form,
each computed on the grid of the variables its form reads; the sum runs
in the order that grows the grid least, over a grid whose trailing
variables share one inner axis of about 1k entries, so no pass runs a
length-q inner loop.  The server check finds each group's first row in a
table indexed by the sum.  Recovery scatters the joint code into a bool
table of (messages, sum) pairs in bounded chunks and reads the pairs
that occur from the flat table, in increasing order.

This module also carries the worked 3-user instance over GF(3) as a
hard-coded golden scheme; its coefficients come from a manual design and
are intentionally not regenerated by the general constructions.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .gf import Matrix, PrimeField
from .key_design import AuditReport, CheckResult, _relay_masks, masked_key_span
from .protocol import SchemeParams
from .topology import Topology, _check_index, _read_only


class StateSpaceError(RuntimeError):
    """An exhaustive audit too large to run: required exceeds cap, or, when
    cap is None, the check named what needs required bytes that numpy
    cannot allocate."""

    def __init__(self, required: int, cap: "int | None", what: str = "realizations"):
        self.required = required
        self.cap = cap
        super().__init__(
            f"state space of {required} {what} exceeds cap {cap}"
            if cap is not None
            else f"{what} needs {required} bytes, more than numpy can allocate"
        )


# ---------------------------------------------------------------------------
# Algebraic checks
# ---------------------------------------------------------------------------


def relay_security_algebraic(params: SchemeParams, i: int) -> CheckResult:
    """Relay i's masks: scaled key rows of its senders must have rank B."""
    _check_index(params.topo, i, "relay")
    return _relay_checks(params, [i])[0]


def _relay_checks(params: SchemeParams, relays: Sequence[int]) -> list[CheckResult]:
    """``relay_security_algebraic`` of each relay: one gather of every relay's
    link coefficients and masked key rows (``key_design._relay_masks``, the
    rows ``masked_key_span`` sums), then one rank per relay."""
    want = params.topo.B
    index = np.array(relays) - 1
    lam, masked = _relay_masks(params.key_matrix, params.key_coeffs, params.topo)
    checks = []
    for i, zero_coeff, rows in zip(relays, (lam[index] == 0).any(axis=1).tolist(), masked[index]):
        rank = Matrix(params.field, rows).rank()
        checks.append(
            CheckResult(
                f"relay-security-algebraic[{i}]",
                not zero_coeff and rank == want,
                f"masked key rows rank {rank}/{want}"
                + (", zero coefficient on an associated link" if zero_coeff else ""),
            )
        )
    return checks


def server_security_algebraic(params: SchemeParams) -> CheckResult:
    """Key-canceling combinations must be exactly the recovery combinations."""
    K, B = params.K, params.topo.B
    span = masked_key_span(params.key_matrix, params.key_coeffs, params.recovery, params.topo)
    return CheckResult(
        "server-security-algebraic",
        span.rank == K - B and span.spans,
        f"masked rank {span.rank}/{K - B}, null dim {span.null_dim}/{B}, "
        f"cancellation {span.cancels}",
    )


def algebraic_audit(params: SchemeParams) -> AuditReport:
    checks = _relay_checks(params, params.topo.relays())
    checks.append(server_security_algebraic(params))
    return AuditReport(tuple(checks))


# ---------------------------------------------------------------------------
# Exhaustive enumeration
# ---------------------------------------------------------------------------


# Most entries of evaluate's inner axis.  numpy runs each add's innermost
# loop along the last axis, and with one length-q axis per variable an add
# that broadcast along it ran about ten times slower than a contiguous
# one.  On a 2-vCPU Intel Xeon VM the (2, 1) L = 3 joint code took 8.8 ms
# with no merged axis, 3.1 ms at 1 << 10, and 10 ms at 1 << 14, where a
# term that reads one merged variable spans the whole axis.
_INNER_AXIS = 1 << 10


class _StateSpace:
    """All realizations of (inputs, source key) as a q x ... x q grid.

    Axis v holds variable v, so in the flattened grid variable 0 varies
    slowest.  Input symbols come first, source symbols last.  L defaults
    to one block.
    """

    def __init__(self, params: SchemeParams, L: "int | None", max_states: int):
        bs = params.block_size
        L = bs if L is None else L
        if L <= 0 or L % bs:
            raise ValueError(f"L={L} is not a positive multiple of block size {bs}")
        self.params = params
        self.q = params.field.q
        self.K = params.K
        self.L = L
        self.blocks = L // bs
        self.n_w = self.K * L
        self.n_z = self.blocks * params.source_key_len
        self.n_vars = self.n_w + self.n_z
        self.size = self.q**self.n_vars
        if self.size > max_states:
            raise StateSpaceError(self.size, max_states)
        # The widest code packed below is every relay symbol plus every sum
        # symbol, and it must fit the widest integer type.
        bound = self.q ** (self.K * self.blocks + L)
        if bound > np.iinfo(np.int64).max:
            raise StateSpaceError(bound, np.iinfo(np.int64).max, "(relay messages, sum) values")

    def w_var(self, k: int, pos: int) -> int:
        return (k - 1) * self.L + pos

    def z_var(self, block: int, m: int) -> int:
        return self.n_w + block * self.params.source_key_len + m

    def evaluate(self, check: str, *forms: dict[int, int]) -> np.ndarray:
        """Values of the linear forms, packed base q with the first form
        most significant, as an array the caller owns: axis v has length q
        if some form reads variable v and length 1 if none does.  An array
        numpy cannot allocate raises StateSpaceError naming check."""
        # The code is the sum of one term per form, q**(F-1-f) times form f
        # mod q, and each term lives on the grid of the variables its form
        # reads.  The narrowest type of at least 16 bits moves the least
        # memory through each pass; numpy sorts 8-bit rows about 20 times
        # slower than 16-bit ones.  q is tiny whenever enumeration is
        # feasible, so unreduced sums stay far below 2**63.
        q = self.q
        bound = q ** len(forms)
        dtype = next(t for t in (np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max)
        read = sorted({v for form in forms for v, c in form.items() if c})
        # The last read variables, as many as fit _INNER_AXIS entries and at
        # least one, share the inner axis; every other one keeps its own.
        n_inner = min(len(read), 1)
        while n_inner < len(read) and q ** (n_inner + 1) <= _INNER_AXIS:
            n_inner += 1
        outer, inner = read[: len(read) - n_inner], read[len(read) - n_inner :]
        sizes = [q] * len(outer) + [q**n_inner]
        # digits[x, j] is the value of variable inner[j] at inner index x.
        digits = np.arange(q**n_inner)[:, None] // q ** np.arange(n_inner - 1, -1, -1) % q
        axes = [
            {a for a, v in enumerate(outer) if form.get(v)}
            | ({len(outer)} if any(form.get(v) for v in inner) else set())
            for form in forms
        ]
        try:
            code = np.zeros([1] * len(sizes), dtype=dtype)
            grid: set[int] = set()
            # Terms are added in the order that grows the grid least, ties
            # to the first form, so the early adds run on small grids, and a
            # term that reads nothing new is added in place.  A form that
            # reads nothing adds zero.
            todo = [f for f in range(len(forms)) if axes[f]]
            while todo:
                f = min(todo, key=lambda f: math.prod(sizes[a] for a in grid | axes[f]))
                todo.remove(f)
                # The form's outer part is summed on its own small grid; one
                # row per residue of that sum, gathered from a table over
                # the inner axis, adds the inner part and the weight, so
                # nothing of the term's size runs a mod.
                head = np.zeros([1] * len(outer), dtype=np.int64)
                for a in axes[f] - {len(outer)}:
                    axis = [q if b == a else 1 for b in range(len(outer))]
                    head = head + (np.arange(q) * forms[f][outer[a]]).reshape(axis)
                tail = digits @ [forms[f].get(v, 0) for v in inner]
                if len(outer) not in axes[f]:
                    tail = tail[:1]
                weight = q ** (len(forms) - 1 - f)
                table = ((np.arange(q)[:, None] + tail) % q * weight).astype(dtype)
                term = table[head % q]
                if axes[f] <= grid:
                    code += term
                else:
                    code = code + term
                    grid |= axes[f]
        except MemoryError as exc:
            nbytes = q ** len(read) * np.dtype(dtype).itemsize
            raise StateSpaceError(nbytes, None, check) from exc
        return code.reshape([q if v in read else 1 for v in range(self.n_vars)])

    def rows(self, code: np.ndarray) -> np.ndarray:
        """View of code with one row per value of the inputs it reads."""
        return code.reshape(math.prod(code.shape[: self.n_w]), -1)

    def message_form(self, link: int, block: int) -> dict[int, int]:
        """Linear form of the block-th symbol sent on link (k-1)*B + j, link j of user k."""
        p, q, bs = self.params, self.q, self.params.block_size
        k, j = divmod(link, bs)  # user k + 1
        form: dict[int, int] = {}
        for b, c in enumerate(p.input_coeffs[k, j].tolist()):
            if c:
                form[self.w_var(k + 1, block * bs + b)] = c
        for m, c in enumerate((p.key_coeffs[k, j] * p.key_matrix.a[k] % q).tolist()):
            if c:
                form[self.z_var(block, m)] = c
        return form

    def relay_form(self, i: int, block: int) -> dict[int, int]:
        form: dict[int, int] = {}
        for link in self.params.topo.relay_links[i - 1].tolist():
            for v, c in self.message_form(link, block).items():
                form[v] = (form.get(v, 0) + c) % self.q
        return form

    def joint_forms(self) -> list[dict[int, int]]:
        """Every relay symbol, relay-major, then every sum symbol."""
        relays = self.params.topo.relays()
        return [
            *(self.relay_form(i, t) for i in relays for t in range(self.blocks)),
            *({self.w_var(k, pos): 1 for k in range(1, self.K + 1)} for pos in range(self.L)),
        ]

    def joint(self, check: str) -> np.ndarray:
        """The joint forms, packed."""
        return self.evaluate(check, *self.joint_forms())


# Elements compared per step when rows are checked against a reference
# row, which bounds the comparison's temporaries.
_COMPARE_CHUNK = 1 << 16


def _rows_match(rows: np.ndarray, group: "np.ndarray | None" = None) -> bool:
    """Exact test that rows tell nothing about the inputs beyond group.

    Each row holds the code on one value of the inputs it reads, over
    every value of the source symbols it reads; group gives one value per
    row, a function of the inputs, and without it every row is compared
    with the first.  The mutual information of the code and the inputs
    given group is zero exactly when every row holds the same multiset of
    values as the first row of its group; sorted rows compare those
    multisets.  rows are sorted in place, so the audit must own them.
    """
    rows.sort(axis=1)
    if group is not None:
        first = np.full(int(group.max()) + 1, len(rows))
        np.minimum.at(first, group, np.arange(len(rows)))
        lead = first[group]
    step = max(1, _COMPARE_CHUNK // rows.shape[1])
    for start in range(0, len(rows), step):
        ref = rows[0] if group is None else rows[lead[start : start + step]]
        if not (rows[start : start + step] == ref).all():
            return False
    return True


def _mi_checks(space: _StateSpace) -> tuple[list[CheckResult], np.ndarray]:
    """Relay and server MI checks, plus the joint code they evaluated."""
    params = space.params
    checks = []
    for i in params.topo.relays():
        forms = [
            space.message_form(link, t)
            for link in params.topo.relay_links[i - 1].tolist()
            for t in range(space.blocks)
        ]
        # Passed without a name, so each relay's array is freed before the
        # next one is evaluated.
        ok = _rows_match(space.rows(space.evaluate(f"relay-mi[{i}]", *forms)))
        checks.append(
            CheckResult(
                f"relay-mi[{i}]",
                ok,
                f"received messages {'independent of' if ok else 'correlated with'} inputs"
                f" over {space.size} realizations",
            )
        )

    joint = space.joint("server-mi")
    # The sum depends on the inputs only, so it is constant along a row,
    # and within a group of equal sums rows of joint codes match exactly
    # when rows of relay messages do.  For the same reason sorting a row
    # keeps every symbol's sum digits, and the recovery table that reads
    # joint afterwards does not depend on order.
    rows = space.rows(joint)
    server_ok = _rows_match(rows, rows[:, 0] % space.q**space.L)
    checks.append(
        CheckResult(
            "server-mi",
            server_ok,
            f"relay messages conditionally independent of inputs given the sum: {server_ok}",
        )
    )
    return checks, joint


def _recovery_check(space: _StateSpace, joint: np.ndarray) -> CheckResult:
    """Decode equals the true sum on every realization, and the relay
    messages determine the sum as a function.

    Both are read off one table of the (relay messages, sum) pairs that
    occur: decoding every pair that occurs covers every realization.
    """
    q, K, blocks, bs = space.q, space.K, space.blocks, space.params.block_size
    n_s = q**space.L
    try:
        pairs = np.zeros(q ** (K * blocks) * n_s, dtype=bool)
    except MemoryError as exc:
        raise StateSpaceError(q ** (K * blocks) * n_s, None, "recovery-exhaustive") from exc
    # numpy would index with an intp copy of all of joint at once.
    codes = joint.reshape(-1)
    for start in range(0, len(codes), _COMPARE_CHUNK):
        pairs[codes[start : start + _COMPARE_CHUNK].astype(np.intp)] = True
    # Pairs come in increasing order, so the messages y determine the sum
    # s exactly when no y repeats.
    y, s = np.divmod(np.flatnonzero(pairs), n_s)
    functional = bool((y[1:] > y[:-1]).all())

    # relay i's block-t symbol is base-q digit i * blocks + t of y
    digits = y[:, None] // q ** np.arange(K * blocks - 1, -1, -1) % q
    recovery = space.params.recovery.a
    decoded = np.zeros_like(s)
    for t in range(blocks):
        for symbol in (digits[:, t::blocks] @ recovery % q).T:
            decoded = decoded * q + symbol
    decode_ok = bool((decoded == s).all())

    return CheckResult(
        "recovery-exhaustive",
        decode_ok and functional,
        f"decode exact: {decode_ok}; messages determine the sum: {functional}"
        f" ({space.size} realizations)",
    )


def exhaustive_mi_audit(
    params: SchemeParams, L: "int | None" = None, max_states: int = 10**8
) -> AuditReport:
    """Exact zero-information verdicts for every relay and for the server."""
    checks, _ = _mi_checks(_StateSpace(params, L, max_states))
    return AuditReport(tuple(checks))


def exhaustive_recovery_audit(
    params: SchemeParams, L: "int | None" = None, max_states: int = 10**8
) -> CheckResult:
    """Decode equals the true sum on every realization, and the relay
    messages determine the sum as a function."""
    space = _StateSpace(params, L, max_states)
    return _recovery_check(space, space.joint("recovery-exhaustive"))


def full_audit(
    params: SchemeParams,
    level: str = "algebraic",
    L: "int | None" = None,
    max_states: int = 10**8,
) -> AuditReport:
    checks = list(algebraic_audit(params).checks)
    if level == "exhaustive":
        # One space for both audits, so every output is evaluated once.
        space = _StateSpace(params, L, max_states)
        mi_checks, joint = _mi_checks(space)
        checks += mi_checks
        checks.append(_recovery_check(space, joint))
    elif level != "algebraic":
        raise ValueError(f"unknown audit level {level!r}")
    return AuditReport(tuple(checks))


# ---------------------------------------------------------------------------
# Golden scheme: 3 users, 2 relays each, GF(3), inputs of length 2
# ---------------------------------------------------------------------------


def golden_example1() -> SchemeParams:
    """The worked 3-user scheme over GF(3), stored symbol for symbol.

    Keys: Z1 = N1, Z2 = N2, Z3 = N1 + N2.  Writing (a, b) for the two
    symbols of each input, the messages are (all mod 3):

        user 1:  to relay 1: -2 W1a - Z1
                 to relay 2: -(W1a + W1b) + Z1
        user 2:  to relay 2:  W2a - W2b + 2 Z2
                 to relay 3:  2 W2a + Z2
        user 3:  to relay 3:  W3a + W3b + Z3
                 to relay 1:  W3b - W3a + 2 Z3

    The server recovers (sum_a, sum_b) via (Y3 - Y1)/2 and
    (Y1 - 2 Y2 + Y3)/2; those combinations are the two recovery columns.
    """
    field = PrimeField(3)
    # Row k-1: user k's links in the order above, to relays k and k+1.
    input_coeffs = np.array([[[1, 0], [2, 2]], [[1, 2], [2, 0]], [[1, 1], [2, 1]]], np.int64)
    return SchemeParams(
        topo=Topology(3, 2),
        requested_B=2,
        field=field,
        input_coeffs=_read_only(input_coeffs),
        key_coeffs=_read_only(np.array([[2, 1], [2, 1], [1, 2]], np.int64)),
        key_matrix=Matrix(field, [[1, 0], [0, 1], [1, 1]]),
        recovery=Matrix(field, [[1, 2], [0, 2], [2, 2]]),
    )


def golden_decode(relay_msgs: dict[int, tuple[int, ...]]) -> tuple[int, ...]:
    """The decode exactly as worked in the golden instance: (Y3 - Y1)/2,
    then (Y1 - 2 Y2 + Y3)/2, per block; 1/2 == 2 in GF(3)."""
    y1, y2, y3 = relay_msgs[1], relay_msgs[2], relay_msgs[3]
    out = []
    for t in range(len(y1)):
        out.append((y3[t] - y1[t]) * 2 % 3)
        out.append((y1[t] - 2 * y2[t] + y3[t]) * 2 % 3)
    return tuple(out)
