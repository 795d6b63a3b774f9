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

Every message is a linear form in the inputs and source symbols.  A
check's forms are one int64 array, one row of coefficients per message
symbol, cut from one array of every link's forms that each audit builds
once from ``input_coeffs`` and the ``key_design._relay_masks`` rows that
the algebraic audit reads: a relay check takes its links' rows, the
server check each relay's sum of them.  Each check evaluates its
messages over only the variables they read (an unread one only repeats
rows or values, so no verdict changes), in the narrowest integer type of
at least 16 bits that holds them, and sorts its rows in place: many
narrow rows through a compare-exchange network, other rows with one
ndarray.sort.  A check whose rows the network sorts is evaluated
source-major, its source variables' axes first, so its rows are the
transposed view of a C-contiguous (W, n) array: each of the network's
columns is one contiguous row of it, and the network runs on it with no
transposed copy.  Wide rows stay row-major, which numpy's per-row sort
reads about twice as fast.  The packed code is a sum of one weighted
digit per form, each computed on the grid of the variables its form
reads; the sum runs in the order that grows the grid least, over a grid
whose trailing variables share one inner axis of about 1k entries, so no
pass runs a length-q inner loop.  The server check's code holds the
relay symbols only, on the grid of every input (an input no relay reads
still gets its own axis there), at (s, w_2, ..., w_K, z) with s = w_1 +
... + w_K symbolwise: a bijection of the inputs, the same for every
scheme, so each realization is still enumerated once, by brute force.
Each sum's rows are one contiguous block, and a row's packed sum is its
block index; relay checks, whose forms read fewer inputs, keep the input
coordinates.  Row matches compare each block with its first row, its
leader.  Recovery reads the (messages, sum) pairs that occur from the
leaders' rows and any row that differs from its leader, which between
them hold every one: their int64 pair indices messages * q**L + sum,
sorted with adjacent repeats dropped, in increasing order, with no table
over every possible pair.

At its peak a check holds its code array, one bool per row that marks
the rows recovery reads, the numbers of the marked rows, and slices of
at most ``_COMPARE_CHUNK`` rows, entries or pairs.  The server match
returns only the marked rows' codes and sums, so the other rows are
freed before recovery forms one int64 pair index per marked code.

This module also carries the worked 3-user instance over GF(3) as a
hard-coded golden scheme; its coefficients come from a manual design and
are intentionally not regenerated by the general constructions.
"""

from __future__ import annotations

import bisect
import math
from typing import Sequence

import numpy as np

from .gf import PrimeField, rank_mod
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
    link coefficients and masked key rows (``key_design._relay_masks``),
    then one rank per relay."""
    want, q = params.topo.B, params.field.q
    index = np.array(relays) - 1
    lam, masked = _relay_masks(params.key_matrix, params.key_coeffs, params.topo, q)
    checks = []
    for i, zero_coeff, rows in zip(relays, (lam[index] == 0).any(axis=1).tolist(), masked[index]):
        rank = rank_mod(rows, q)
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
    span = masked_key_span(
        params.key_matrix, params.key_coeffs, params.recovery, params.topo, params.field.q
    )
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

# The types a packed code may take, narrowest first, with their largest
# values; np.iinfo takes about half a microsecond a call.
_CODE_TYPES = {np.dtype(t): int(np.iinfo(t).max) for t in (np.int16, np.int32, np.int64)}


class _StateSpace:
    """All realizations of (inputs, source key) as a q x ... x q grid, and
    the linear forms of the messages sent on it.

    Axis v holds variable v, so in the flattened grid variable 0 varies
    slowest.  Input symbols come first, user-major, source symbols last,
    block-major.  L defaults to one block.  A form is one row of n_vars
    coefficients.  forms, a read-only (K, B, blocks, n_vars) int64 array,
    holds in entry [i-1, j, t] the block-t symbol on relay i's j-th link
    in ``topo.relay_links`` order, built from ``input_coeffs`` and the
    ``key_design._relay_masks`` rows that the algebraic audit reads; a
    misshaped key_coeffs raises validation's ValueError.
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
        # Recovery's (messages, sum) pair index packs every relay symbol
        # and every sum symbol, so it must fit int64.
        bound = self.q ** (self.K * self.blocks + L)
        if bound > np.iinfo(np.int64).max:
            raise StateSpaceError(bound, np.iinfo(np.int64).max, "(relay messages, sum) values")
        # Link j of relay i carries, in block t, its input coefficients at
        # its sender's block-t input symbols plus its masked key row at
        # block t's source symbols.
        topo = params.topo
        _, masked = _relay_masks(params.key_matrix, params.key_coeffs, topo, self.q)
        coeffs = params.input_coeffs.reshape(self.K * bs, bs)[topo.relay_links]
        sender = np.eye(self.K, dtype=np.int64)[topo.relay_links // bs]
        block = np.eye(self.blocks, dtype=np.int64)
        w = np.einsum("ijk,tu,ijb->ijtkub", sender, block, coeffs)
        z = np.einsum("tu,ijm->ijtum", block, masked)
        shape = (self.K, bs, self.blocks, -1)
        self.forms = _read_only(np.concatenate([w.reshape(shape), z.reshape(shape)], axis=-1))

    def evaluate(self, check: str, forms: np.ndarray, every_input: bool = False) -> np.ndarray:
        """Values of the (F, n_vars) linear forms, one per row, packed base
        q with the first form most significant, as an array the caller
        owns: axis v has length q if some form reads variable v, a nonzero
        column, or with every_input if v is an input, and length 1
        otherwise.  A code of at least _NETWORK_ROWS rows, one per value of
        the inputs its axes span, of at most _NETWORK_BYTES each, is
        source-major for ``_sort_rows``' network: a view, in that axis
        order, of a C-contiguous array whose source axes come first, so
        that ``rows`` is the transposed view of a (W, n) array.  An array
        numpy cannot allocate raises StateSpaceError naming check."""
        # The code is the sum of one term per form, q**(F-1-f) times form f
        # mod q, and each term lives on the grid of the variables its form
        # reads.  The narrowest type of at least 16 bits moves the least
        # memory through each pass; numpy sorts 8-bit rows about 20 times
        # slower than 16-bit ones.  q is tiny whenever enumeration is
        # feasible, so unreduced sums stay far below 2**63.
        q, n_w = self.q, self.n_w
        bound = q ** len(forms)
        dtype = next(t for t in _CODE_TYPES if bound <= _CODE_TYPES[t])
        read = np.flatnonzero(forms.any(axis=0)).tolist()
        n_in = bisect.bisect_left(read, n_w)
        n_rows = q ** (n_w if every_input else n_in)
        width = q ** (len(read) - n_in)
        source_major = n_rows >= _NETWORK_ROWS and width * dtype.itemsize <= _NETWORK_BYTES
        # The code's axes follow read, and a source-major code reads its
        # source variables first; full spans every input with every_input.
        order = range(self.n_vars)
        if source_major:
            order = [*range(n_w, self.n_vars), *range(n_w)]
            read = read[n_in:] + read[:n_in]
        shape = [q if v in read else 1 for v in order]
        full = [q if v < n_w else n for v, n in zip(order, shape)] if every_input else shape
        # Python ints index and multiply faster than numpy scalars.
        forms = forms.tolist()
        # The last read variables, as many as fit _INNER_AXIS entries and at
        # least one, share the inner axis; every other one keeps its own.
        n_inner = min(len(read), 1)
        while n_inner < len(read) and q ** (n_inner + 1) <= _INNER_AXIS:
            n_inner += 1
        outer, inner = read[: len(read) - n_inner], read[len(read) - n_inner :]
        sizes = [q] * len(outer) + [q**n_inner]
        # digits[x, j] is the value of variable inner[j] at inner index x,
        # one empty row when nothing is read; np.indices builds it about
        # three times faster than dividing an arange by an array of powers.
        digits = np.indices((q,) * n_inner).reshape(n_inner, q**n_inner).T
        axes = [
            {a for a, v in enumerate(outer) if form[v]}
            | ({len(outer)} if any(form[v] for v in inner) else set())
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
                tail = digits @ [forms[f][v] for v in inner]
                if len(outer) not in axes[f]:
                    tail = tail[:1]
                weight = q ** (len(forms) - 1 - f)
                table = ((np.arange(q)[:, None] + tail) % q * weight).astype(dtype)
                term = table[head % q]
                # A term whose grid covers the code's holds the new code.
                if axes[f] <= grid:
                    code += term
                elif axes[f] >= grid:
                    term += code
                    code = term
                else:
                    code = code + term
                grid |= axes[f]
            code = code.reshape(shape)
            if shape != full:
                code = np.broadcast_to(code, full).copy()
        except MemoryError as exc:
            nbytes = math.prod(full) * dtype.itemsize
            raise StateSpaceError(nbytes, None, check) from exc
        if source_major:
            return code.transpose([*range(self.n_z, self.n_vars), *range(self.n_z)])
        return code

    def rows(self, code: np.ndarray) -> np.ndarray:
        """View of code with one row per value of the inputs it reads: the
        reshape of a row-major code, and the transposed view of the (W, n)
        array under a source-major one."""
        n = math.prod(code.shape[: self.n_w])
        if code.flags.c_contiguous:
            return code.reshape(n, -1)
        return code.transpose([*range(self.n_w, self.n_vars), *range(self.n_w)]).reshape(-1, n).T

    def joint_forms(self) -> np.ndarray:
        """Every relay symbol, relay-major: the sum of its links' forms."""
        return (self.forms.sum(axis=1) % self.q).reshape(-1, self.n_vars)

    def server_forms(self) -> np.ndarray:
        """The joint forms in the sum-major coordinates (s, w_2, ..., w_K, z),
        with s = w_1 + ... + w_K symbolwise: a form with coefficients a_k on
        w_k reads a_1 on s and a_k - a_1 on w_k, for k >= 2, there."""
        forms, L = self.joint_forms(), self.L
        forms[:, L : self.n_w] -= np.tile(forms[:, :L], self.K - 1)
        return forms % self.q

    def joint(self, check: str) -> np.ndarray:
        """The relay symbols, packed, on the grid of every sum-major input:
        an input that no relay symbol reads still gets its own axis, so
        each row is one value of all the inputs.  Rows of sum s, packed
        base q, are the s-th contiguous block of q**(L*(K-1)) rows."""
        return self.evaluate(check, self.server_forms(), every_input=True)


# Elements compared per step when rows are checked against their leaders,
# and pairs decoded per step by recovery, which bounds the temporaries of
# both.
_COMPARE_CHUNK = 1 << 16

# evaluate lays out source-major, for _sort_rows' network, the codes of at
# least _NETWORK_ROWS rows of at most _NETWORK_BYTES bytes: 13 int16
# entries, 6 int32 or 3 int64.  numpy sorts each row of an array with its
# own kernel call, about 65 ns per int16 row whatever its width, while
# each network round costs some microseconds of fixed numpy overhead plus
# passes over the rows' bytes.  On a 2-vCPU Intel Xeon VM the network won
# on about 800k entries in rows of up to about 15 int16, 8 int32 and 5
# int64 entries, and lost at 16, 10 and 7; on 9-entry int16 rows it lost
# below about 2k rows.  Wide rows stay row-major: numpy sorted the
# (15625, 125) int16 server rows of (2, 1) at L = 3 in 2.2 ms row-major
# and in 4.0 ms as the transposed view of a source-major code.
_NETWORK_BYTES = 26
_NETWORK_ROWS = 1 << 11

# Bytes of a source-major code that the network sorts as one slab of
# columns, so each round's passes stay in cache.  On the VM above the
# (7, 117649) int16 server code of (3, 2) over GF(7) sorted in about 940,
# 800, 750, 780 and 1000 us in slabs of 128 KB to 2 MB; 256 and 512 KB
# were within 10% of each other in every type.
_NETWORK_BLOCK = 1 << 19


def _sort_rows(rows: np.ndarray) -> None:
    """Sort each row of rows in place.

    Rows of at most _NETWORK_BYTES that are the transposed view of a
    C-contiguous (W, n) array, as the rows of a source-major code are, go
    through an odd-even transposition network (Knuth, TAOCP vol. 3,
    5.3.4): W rounds of compare-exchange on adjacent columns, starting
    alternately at column 0 and column 1, sort any W entries.  Each column
    is one contiguous row of that array, so a round is one np.minimum and
    one np.maximum over all its pairs; the rounds run on one slab of
    columns at a time, a view of the array, and nothing is copied.  Other
    rows take one ndarray.sort.
    """
    cols = rows.T
    width, n = cols.shape
    if width * rows.itemsize > _NETWORK_BYTES or not cols.flags.c_contiguous:
        rows.sort(axis=1)
        return
    step = _NETWORK_BLOCK // (width * rows.itemsize)
    for start in range(0, n, step):
        t = cols[:, start : start + step]
        for r in range(width):
            a, b = t[r % 2 : width - 1 : 2], t[r % 2 + 1 : width : 2]
            low = np.minimum(a, b)
            np.maximum(a, b, out=b)
            a[...] = low


def _take_rows(rows: np.ndarray, index: np.ndarray) -> np.ndarray:
    """rows[index], gathered along the contiguous axis of rows or of the
    array under their transposed view: np.take first copies a
    non-contiguous array whole."""
    if rows.flags.c_contiguous:
        return np.take(rows, index, axis=0)
    return np.take(rows.T, index, axis=1).T


def _rows_match(rows: np.ndarray, groups: int = 1) -> tuple[bool, np.ndarray]:
    """Exact test that rows tell nothing about the inputs beyond their
    block, and the rows that hold every value of rows.

    Each row holds the code on one value of the inputs it reads, over
    every value of the source symbols it reads, and the rows fall into
    groups contiguous blocks of equal length, one per value of a function
    of the inputs.  The mutual information of the code and the inputs
    given the block is zero exactly when every row holds the same multiset
    of values as the first row of its block, its leader; sorted rows
    compare those multisets, each block with its leader by broadcasting.
    rows are sorted in place, so the audit must own them.

    The rows returned, in increasing order, are every leader and every row
    whose multiset differs from its leader's.  Any other row holds its
    leader's values, so the rows returned hold every value that occurs;
    when the test passes they are the leaders alone.
    """
    _sort_rows(rows)
    n, width = rows.shape
    size = n // groups
    # A view under either layout, as only the row axis is split.
    blocks = rows.reshape(groups, size, width)
    # Each step compares whole blocks, or slices of one block, of at most
    # _COMPARE_CHUNK entries in all.
    step = max(1, _COMPARE_CHUNK // width)
    per, part = max(1, step // size), min(step, size)
    marked = np.full((groups, size), False)
    marked[:, 0] = True
    ok = True
    for g in range(0, groups, per):
        lead = blocks[g : g + per, :1]
        for start in range(0, size, part):
            block = blocks[g : g + per, start : start + part]
            if not (block == lead).all():
                ok = False
                marked[g : g + per, start : start + part] |= (block != lead).any(axis=2)
    return ok, np.flatnonzero(marked)


def _server_match(space: _StateSpace, check: str) -> tuple[bool, tuple[np.ndarray, np.ndarray]]:
    """``_rows_match`` of the relay symbols' rows, one block per sum.

    The joint code is enumerated sum-major, so the rows of each sum are
    one contiguous block and a row's block index is its packed sum; within
    a block rows of (messages, sum) codes match exactly when rows of relay
    messages do.  Returns the verdict, and for ``_recovery_check`` the
    sorted codes of the rows it marks and their packed sums, so the other
    rows are freed before recovery forms its pair indices.
    """
    rows = space.rows(space.joint(check))
    n_s = space.q**space.L
    ok, marked = _rows_match(rows, n_s)
    return ok, (_take_rows(rows, marked), marked // (len(rows) // n_s))


def _mi_checks(space: _StateSpace) -> tuple[list[CheckResult], tuple[np.ndarray, np.ndarray]]:
    """Relay and server MI checks, plus the marked rows' codes and sums of
    the server match, which recovery reads."""
    checks = []
    for i in space.params.topo.relays():
        forms = space.forms[i - 1].reshape(-1, space.n_vars)
        # Passed without a name, so each relay's array is freed before the
        # next one is evaluated.
        ok, _ = _rows_match(space.rows(space.evaluate(f"relay-mi[{i}]", forms)))
        checks.append(
            CheckResult(
                f"relay-mi[{i}]",
                ok,
                f"received messages {'independent of' if ok else 'correlated with'} inputs"
                f" over {space.size} realizations",
            )
        )

    server_ok, match = _server_match(space, "server-mi")
    checks.append(
        CheckResult(
            "server-mi",
            server_ok,
            f"relay messages conditionally independent of inputs given the sum: {server_ok}",
        )
    )
    return checks, match


def _recovery_check(space: _StateSpace, codes: np.ndarray, sums: np.ndarray) -> CheckResult:
    """Decode equals the true sum on every realization, and the relay
    messages determine the sum as a function.

    Both are read off the (relay messages, sum) pairs that occur: decoding
    every pair that occurs covers every realization.  Each code of the
    rows ``_server_match`` marked, one row of codes and one sum each, its
    block index, which hold every code of the relay symbols, gives the
    int64 pair index messages * q**L + sum; sorted, with adjacent repeats
    dropped, these are the pairs that occur, in increasing order, decoded
    ``_COMPARE_CHUNK`` at a time.
    """
    q, K, blocks = space.q, space.K, space.blocks
    n_s = q**space.L
    try:
        pairs = np.multiply(codes, n_s, dtype=np.int64)
    except MemoryError as exc:
        raise StateSpaceError(codes.size * 8, None, "recovery-exhaustive") from exc
    pairs += sums[:, None]
    # pairs is laid out as codes are, so raveled in that order it is a view.
    pairs = pairs.ravel(order="K")
    pairs.sort()
    pairs = pairs[np.concatenate(([True], pairs[1:] != pairs[:-1]))]

    # The messages y determine the sum s exactly when no y repeats; each
    # chunk starts one pair early, so a repeat across chunks is seen too.
    recovery = space.params.recovery.T
    decode_ok = functional = True
    for start in range(0, len(pairs), _COMPARE_CHUNK):
        y, s = np.divmod(pairs[max(start - 1, 0) : start + _COMPARE_CHUNK], n_s)
        functional = functional and bool((y[1:] > y[:-1]).all())
        if decode_ok:
            # relay i's block-t symbol is base-q digit i * blocks + t of y,
            # row i * blocks + t of digits, peeled off in the codes' type
            # by a scalar division each, which numpy runs several times
            # faster than dividing by an array of powers.
            digits = np.empty((K * blocks, len(y)), dtype=codes.dtype)
            rest = y.astype(codes.dtype)
            for d in range(K * blocks - 1, -1, -1):
                quotient = rest // q
                digits[d] = rest - quotient * q
                rest = quotient
            # symbols[l, t] is sum symbol l of block t.
            symbols = (recovery @ digits.reshape(K, -1) % q).reshape(len(recovery), blocks, -1)
            decoded = np.zeros_like(s)
            for t in range(blocks):
                for symbol in symbols[:, t]:
                    decoded = decoded * q + symbol
            decode_ok = bool((decoded == s).all())
        if not (decode_ok or functional):
            break

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
    _, match = _server_match(space, "recovery-exhaustive")
    return _recovery_check(space, *match)


def full_audit(
    params: SchemeParams,
    level: str = "algebraic",
    L: "int | None" = None,
    max_states: int = 10**8,
) -> AuditReport:
    if level not in ("algebraic", "exhaustive"):
        raise ValueError(f"unknown audit level {level!r}")
    checks = list(algebraic_audit(params).checks)
    if level == "exhaustive":
        # One space and one server row match for both audits, so every
        # output is evaluated and sorted once.
        space = _StateSpace(params, L, max_states)
        mi_checks, match = _mi_checks(space)
        checks += mi_checks
        checks.append(_recovery_check(space, *match))
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
    # Row k-1: user k's links in the order above, to relays k and k+1.
    input_coeffs = np.array([[[1, 0], [2, 2]], [[1, 2], [2, 0]], [[1, 1], [2, 1]]], np.int64)
    return SchemeParams(
        topo=Topology(3, 2),
        requested_B=2,
        field=PrimeField(3),
        input_coeffs=_read_only(input_coeffs),
        key_coeffs=_read_only(np.array([[2, 1], [2, 1], [1, 2]], np.int64)),
        key_matrix=_read_only(np.array([[1, 0], [0, 1], [1, 1]], np.int64)),
        recovery=_read_only(np.array([[1, 2], [0, 2], [2, 2]], np.int64)),
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
