"""One aggregation round: sample keys, encode, relay, decode.

Inputs of length L are processed in independent blocks of block_size
symbols (L must be a multiple; no padding, since padding would distort
the rate identities the audits assert).  Per block, every user sends one
symbol to each associated relay, reusing a single key symbol across its
outgoing messages; every relay forwards the sum of what it received; the
server multiplies the relay symbols by the recovery matrix and reads off
the blockwise input sum.  Each stage is one exact int64 array operation
over GF(q) for all users, blocks and relays at once (``gf.matmul_mod``),
and the kernels reduce with ``gf.mod``, which spares numpy's per-entry
hardware remainder; ``direct_sum``, the oracle, keeps plain ``%``.  A
user's message adds its key product to its B input products with no
concatenated operand.  Every entry point takes its symbols through
``gf.field_array``, the strict converter of the whole library: Python
ints, packed row by row into int64 by ``struct``, or an integer
numpy array; a float or a string raises TypeError instead of being
truncated.  Symbols outside [0, q) are reduced on entry, and reduced
input is taken as it is.  The kernels multiply by the scheme's read-only
int64 matrices and per-link coefficients as they are, and take the
relay of each link and the links each relay sums from ``Topology``.
``run_rounds`` runs a batch of rounds of one input length, given as one
mapping per round or as an (R, K, L) integer array: blocks are
independent, so the rounds' blocks stack along the block axis and each
stage is still one operation for the whole batch, while every round
draws its own source key from its own seed.  The batch's sums come back
as one (R, L) array; a round's ``RoundResult`` is built when it is read,
and its transcript from its message arrays when that is first read.

Source keys and simulated inputs are the values of
``random.Random(seed).randrange(q)``.  ``_uniform_rows`` draws them for
a whole batch of seeds at once: one ``Random.getrandbits`` call per seed
takes the generator's 32-bit outputs in bulk, and numpy keeps, row by
row, the shifted outputs that randrange would accept, so it gives the
same symbols without a Python call per symbol; it does not use
``numpy.random``, whose import alone costs about 6 MB of resident memory.

For B = K the scheme is the B = K-1 design with the last outgoing link
of each user disabled; the disabled link carries an explicit empty
message so transcripts and rate accounting can see it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .code_design import CodeDesign, build_code_design
from .gf import PrimeField, field_array, matmul_mod, mod, one_product_fits
from .key_design import (
    AuditReport,
    ConstructionError,
    KeyDesign,
    build_keys,
    select_field,
    validate_scheme,
)
from .topology import Topology, relays_of_user, users_of_relay


class SizeMismatchError(ValueError):
    pass


class MissingMessageError(LookupError):
    def __init__(self, sender: str, receiver: str):
        super().__init__(f"missing message from {sender} to {receiver}")


@dataclass(frozen=True, eq=False)
class SchemeParams:
    """Everything the protocol needs to run rounds, plus provenance.

    topo is the association actually coded: for requested B = K it is the
    inner (K, K-1) topology and requested_B records the original K.
    input_coeffs, a read-only (K, B, B) int64 array, holds in entry
    [k-1, j] the input coefficients of link j of user k, the link to relay
    ``relays_of_user(topo, k)[j]``; key_coeffs, a read-only (K, B) int64
    array, holds in the same entry that link's key coefficient.
    key_matrix, read-only (K, source_key_len) int64, derives the keys, and
    recovery, read-only (K, B) int64, decodes the relay symbols.
    """

    topo: Topology
    requested_B: int
    field: PrimeField
    input_coeffs: np.ndarray
    key_coeffs: np.ndarray
    key_matrix: np.ndarray
    recovery: np.ndarray
    code: "CodeDesign | None" = dc_field(default=None, repr=False)
    keys: "KeyDesign | None" = dc_field(default=None, repr=False)
    validation: "AuditReport | None" = dc_field(default=None, repr=False)

    @property
    def K(self) -> int:
        return self.topo.K

    @property
    def block_size(self) -> int:
        return self.topo.B

    @property
    def source_key_len(self) -> int:
        """Fresh source symbols consumed per block."""
        return self.key_matrix.shape[1]

    @property
    def reduced(self) -> bool:
        """True when requested B = K runs on the inner B = K-1 design."""
        return self.requested_B > self.topo.B

    def disabled_relay(self, k: int) -> "int | None":
        """The relay user k skips in the full-association reduction."""
        if not self.reduced:
            return None
        return (k - 2) % self.K + 1

    def disabled_user(self, i: int) -> "int | None":
        """The user whose link to relay i is disabled, if any."""
        if not self.reduced:
            return None
        return i % self.K + 1


@dataclass(frozen=True)
class Transcript:
    """Messages and symbol counts of one round, for rates and audits."""

    user_messages: Mapping[tuple[int, int], tuple[int, ...]]
    relay_messages: Mapping[int, tuple[int, ...]]
    input_len: int
    user_symbols: int
    relay_symbols: Mapping[int, int]
    key_symbols: int
    source_key_symbols: int

    def to_dict(self) -> dict:
        return {
            "input_len": self.input_len,
            "user_messages": {
                f"{k}->{i}": list(v) for (k, i), v in sorted(self.user_messages.items())
            },
            "relay_messages": {str(i): list(v) for i, v in sorted(self.relay_messages.items())},
            "sizes": {
                "per_user": self.user_symbols,
                "per_relay": {str(i): n for i, n in sorted(self.relay_symbols.items())},
                "per_user_key": self.key_symbols,
                "source_key": self.source_key_symbols,
            },
        }


class RoundResult:
    """A round's recovered sum, and its transcript, built on first read.

    x holds the round's (K, B, blocks) link symbols and y its (K, blocks)
    relay symbols; most rounds a caller runs are only checked by their sum.
    Two results are equal when their sums and transcripts are.
    """

    def __init__(
        self, params: SchemeParams, recovered_sum: tuple[int, ...], x: np.ndarray, y: np.ndarray
    ):
        self.recovered_sum = recovered_sum
        self._params = params
        self._x = x
        self._y = y

    @cached_property
    def transcript(self) -> Transcript:
        params = self._params
        user_msgs: dict[tuple[int, int], tuple[int, ...]] = {}
        for k, links in zip(params.topo.users(), self._x.tolist()):
            for i, msg in _user_messages(params, k, links).items():
                user_msgs[(k, i)] = msg
        relay_msgs = {i: tuple(m) for i, m in zip(params.topo.relays(), self._y.tolist())}
        blocks = self._y.shape[1]
        return Transcript(
            user_messages=user_msgs,
            relay_messages=relay_msgs,
            input_len=blocks * params.block_size,
            user_symbols=sum(len(m) for (k, _), m in user_msgs.items() if k == 1),
            relay_symbols={i: len(m) for i, m in relay_msgs.items()},
            key_symbols=blocks,
            source_key_symbols=blocks * params.source_key_len,
        )

    def __eq__(self, other):
        if not isinstance(other, RoundResult):
            return NotImplemented
        return self.recovered_sum == other.recovered_sum and self.transcript == other.transcript


class RoundBatch(Sequence):
    """The results of one ``run_rounds`` batch, in round order.

    sums is the read-only (R, L) int64 array of recovered sums.  Item r is
    round r's ``RoundResult``, built each time it is read, with its sum as
    a tuple of ints; a batch equals any sequence of equal results.
    """

    def __init__(self, params: SchemeParams, sums: np.ndarray, x: np.ndarray, y: np.ndarray):
        sums.flags.writeable = False
        self.sums = sums
        self._params = params
        self._x = x  # (K, B, R, blocks)
        self._y = y  # (K, R, blocks)

    def __len__(self) -> int:
        return len(self.sums)

    def __getitem__(self, r):
        if isinstance(r, slice):
            return [self[i] for i in range(len(self))[r]]
        return RoundResult(
            self._params, tuple(self.sums[r].tolist()), self._x[:, :, r], self._y[:, r]
        )

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)


def build_scheme(
    K: int,
    B: int,
    q: "int | None" = None,
    seed: int = 0,  # unused: construction draws nothing; perfbench/workloads.py still passes it
) -> SchemeParams:
    """Construct and validate the scheme of (K, B, q); q defaults to select_field's."""
    if K < 2:
        raise ValueError(f"need at least 2 users, got K={K}")
    if not 1 <= B <= K:
        raise ValueError(f"B must lie in [1, {K}], got {B}")
    field = select_field(K, B) if q is None else PrimeField(q)
    coded_B = B if B < K else K - 1
    topo = Topology(K, coded_B)
    try:
        code = build_code_design(topo, field)
        keys = build_keys(K, B, field)
        report = validate_scheme(keys, code)
    except MemoryError as exc:
        raise ConstructionError(f"(K, B) = {(K, B)} needs more than numpy can allocate") from exc
    if not report.passed:
        names = ", ".join(c.name for c in report.failures())
        raise ConstructionError(f"construction failed validation: {names}")
    return SchemeParams(
        topo=topo,
        requested_B=B,
        field=field,
        input_coeffs=code.input_coeffs,
        key_coeffs=keys.key_coeffs,
        key_matrix=keys.key_matrix,
        recovery=code.recovery,
        code=code,
        keys=keys,
        validation=report,
    )


def _block_count(params: SchemeParams, L: int) -> int:
    if L <= 0 or L % params.block_size:
        raise SizeMismatchError(
            f"input length {L} is not a positive multiple of block size {params.block_size}"
        )
    return L // params.block_size


# Round kernels.  Each takes reduced int64 arrays, holds one stage for any
# number of users, blocks or relays, and returns reduced int64 arrays; the
# per-user public functions below and run_rounds, for a whole batch of
# rounds, are the only callers.


def _derive(params: SchemeParams, source: np.ndarray) -> np.ndarray:
    """(blocks, n) source segments -> (blocks, K) key symbols."""
    return matmul_mod(source, params.key_matrix.T, params.field.q)


def _encode(params: SchemeParams, users: slice, w: np.ndarray, z: np.ndarray) -> np.ndarray:
    """(U, B, blocks) input blocks, one per column, and (U, blocks) key
    symbols of a slice of users -> (U, B, blocks) messages, row j for link j.

    Link j of user k takes input_coeffs[k-1, j] and key_coeffs[k-1, j].
    A message sums B input products and one key product.  When those
    B + 1 products cannot wrap int64, the sum is reduced once; otherwise
    the input part goes through ``matmul_mod`` and the key product, below
    q**2 < 2**62, is added to its reduced result.  The key products'
    array then takes the reduced messages.
    """
    q = params.field.q
    coeffs = params.input_coeffs[users]
    if one_product_fits(coeffs.shape[-1] + 1, q):
        x = coeffs @ w
    else:
        x = matmul_mod(coeffs, w, q)
    keys = params.key_coeffs[users, :, None] * z[:, None, :]
    x += keys
    return mod(x, q, out=keys)


def _relay_sums(received: np.ndarray, q: int) -> np.ndarray:
    """(..., senders, blocks) received symbols -> (..., blocks) relay symbols."""
    return mod(received.sum(axis=-2), q)


def _decode(params: SchemeParams, y: np.ndarray) -> np.ndarray:
    """(K, blocks) relay symbols -> the blockwise sum, block by block."""
    return matmul_mod(y.T, params.recovery, params.field.q).ravel()


def _user_messages(params: SchemeParams, k: int, links: list) -> dict[int, tuple[int, ...]]:
    """User k's messages by relay, from its per-link symbol lists."""
    out = dict(zip(relays_of_user(params.topo, k), map(tuple, links)))
    disabled = params.disabled_relay(k)
    if disabled is not None:
        out[disabled] = ()
    return out


# Words per getrandbits call: its bit count is a C int, so one call
# cannot take much more than 2**26 words.
_MAX_WORDS = 1 << 20


def _words(n: int, q: int) -> int:
    """Words for a pass that should yield n values below q: the expected
    count plus a margin of at least two standard deviations."""
    return min(n * (1 << q.bit_length()) // q + 64 + n // 32, _MAX_WORDS)


def _shifted(rngs, m: int, shift: int) -> np.ndarray:
    """The next m 32-bit outputs of each generator, shifted right, one row each."""
    buf = b"".join(rng.getrandbits(32 * m).to_bytes(4 * m, "little") for rng in rngs)
    return np.frombuffer(buf, "<u4").reshape(-1, m) >> shift


def _uniform_rows(seeds: Sequence[int], n: int, q: int) -> np.ndarray:
    """Row r holds the first n values of ``random.Random(seeds[r]).randrange(q)``.

    For q < 2**32, randrange(q) takes one 32-bit MT19937 output, keeps its
    top q.bit_length() bits, and draws again while that is >= q, so the
    values are the shifted outputs below q, in stream order.
    ``getrandbits(32 * m)`` returns the next m outputs of the same stream,
    the first in the least significant word.  One such call per seed fills
    one row of a single buffer, and a running count of the outputs below q
    takes the first n of every row at once.  No generator outlives its
    call: a row that falls short, which the margin of ``_words`` makes
    rare, seeds its generator again and draws its row pass by pass, the
    only loop over rows.
    """
    shift = 32 - q.bit_length()
    v = _shifted(map(random.Random, seeds), _words(n, q), shift)
    keep = v < q
    kept = np.cumsum(keep, axis=1)
    keep &= kept <= n
    short = kept[:, -1] < n
    if not short.any():
        return v[keep].reshape(len(v), n).astype(np.int64)
    out = np.empty((len(v), n), np.int64)
    out[~short] = v[~short][keep[~short]].reshape(-1, n)
    for r in np.flatnonzero(short):
        rng, parts, missing = random.Random(seeds[r]), [], n
        while missing:
            more = _shifted([rng], _words(missing, q), shift)[0]
            parts.append(more[more < q][:missing])
            missing -= len(parts[-1])
        out[r] = np.concatenate(parts)
    return out


def sample_source_key(params: SchemeParams, block_count: int, seed: int) -> tuple[int, ...]:
    """Fresh i.i.d. uniform source symbols, one segment per block."""
    n = block_count * params.source_key_len
    return tuple(_uniform_rows([seed], n, params.field.q)[0].tolist())


def derive_keys(params: SchemeParams, source_key: Sequence[int]) -> dict[int, tuple[int, ...]]:
    """Per-user keys, one symbol per block: row k of the key matrix times each segment."""
    n = params.source_key_len
    if len(source_key) == 0 or len(source_key) % n:
        raise SizeMismatchError(
            f"source key length {len(source_key)} is not a positive multiple of {n}"
        )
    z = _derive(params, field_array([source_key], params.field.q).reshape(-1, n))
    return {k: tuple(keys) for k, keys in zip(params.topo.users(), z.T.tolist())}


def user_encode(
    params: SchemeParams, k: int, w: Sequence[int], z: Sequence[int]
) -> dict[int, tuple[int, ...]]:
    """Messages of user k: per block, coeffs . input-block + coeff * key."""
    bs = params.block_size
    blocks = _block_count(params, len(w))
    if len(z) != blocks:
        raise SizeMismatchError(f"expected {blocks} key symbols, got {len(z)}")
    relays_of_user(params.topo, k)  # rejects an out-of-range k
    q = params.field.q
    x = _encode(
        params,
        slice(k - 1, k),
        field_array([w], q).reshape(1, blocks, bs).transpose(0, 2, 1),
        field_array([z], q),
    )
    return _user_messages(params, k, x[0].tolist())


def relay_encode(
    params: SchemeParams, i: int, incoming: Mapping[int, Sequence[int]]
) -> tuple[int, ...]:
    """Symbolwise sum of the messages relay i received."""
    senders = users_of_relay(params.topo, i)
    msgs = []
    for k in senders:
        if k not in incoming:
            raise MissingMessageError(f"user {k}", f"relay {i}")
        msgs.append(incoming[k])
    silent = params.disabled_user(i)
    if silent is not None:
        if silent not in incoming:
            raise MissingMessageError(f"user {silent}", f"relay {i}")
        if len(incoming[silent]) != 0:
            raise SizeMismatchError(f"disabled link {silent}->{i} must carry an empty message")
    n = len(msgs[0])
    if any(len(m) != n for m in msgs):
        raise SizeMismatchError(f"relay {i} received messages of unequal length")
    q = params.field.q
    return tuple(_relay_sums(field_array(msgs, q), q).tolist())


def server_decode(params: SchemeParams, relay_msgs: Mapping[int, Sequence[int]]) -> tuple[int, ...]:
    """Recover the blockwise input sum by applying the recovery matrix."""
    for i in params.topo.relays():
        if i not in relay_msgs:
            raise MissingMessageError(f"relay {i}", "server")
    blocks = len(relay_msgs[1])
    if any(len(relay_msgs[i]) != blocks for i in params.topo.relays()):
        raise SizeMismatchError("relay messages of unequal length")
    y = field_array([relay_msgs[i] for i in params.topo.relays()], params.field.q)
    return tuple(_decode(params, y).tolist())


def run_rounds(
    params: SchemeParams,
    inputs: "Sequence[Mapping[int, Sequence[int]]] | np.ndarray",
    seeds: Sequence[int],
) -> RoundBatch:
    """Execute one round per (inputs, seed) pair as one batch.

    inputs holds one mapping of user -> symbols per round, or is an
    (R, K, L) integer array whose row k-1 of round r is user k's input.
    Every round of a batch has the same input length.  Blocks are
    independent in every stage, so the rounds stack along the block axis
    and each stage runs once for the whole batch; each round still draws
    its own source key from its own seed, and its result is the one
    ``run_round(params, inputs[r], seeds[r])`` gives.
    """
    K, bs, q = params.K, params.block_size, params.field.q
    if len(seeds) != len(inputs):
        raise SizeMismatchError(f"{len(inputs)} input sets but {len(seeds)} seeds")
    if isinstance(inputs, np.ndarray):
        if inputs.ndim != 3 or inputs.shape[1] != K:
            raise SizeMismatchError(
                f"input array must have shape (rounds, {K}, L), got {inputs.shape}"
            )
        L = inputs.shape[2]
    elif not inputs:
        L = bs  # an empty batch runs no round; any valid length does
        inputs = np.empty((0, K, L), np.int64)
    else:
        users = params.topo.users()
        if any(sorted(r) != list(users) for r in inputs):
            raise SizeMismatchError(f"inputs must cover users 1..{K}")
        L = len(inputs[0][1])
        if any(len(r[k]) != L for r in inputs for k in users):
            raise SizeMismatchError("all users of every round in a batch must share one input length")
        inputs = [r[k] for r in inputs for k in users]  # row r * K + k - 1 is round r's user k
    blocks = _block_count(params, L)
    rounds = len(seeds)
    width = rounds * blocks  # block t of round r is column r * blocks + t

    n = params.source_key_len
    z = _derive(params, _uniform_rows(seeds, blocks * n, q).reshape(width, n))
    w = field_array(inputs, q).reshape(rounds, K, blocks, bs).transpose(1, 3, 0, 2)
    x = _encode(params, slice(None), w.reshape(K, bs, width), z.T)
    y = _relay_sums(x.reshape(K * bs, width)[params.topo.relay_links], q)
    sums = _decode(params, y).reshape(rounds, L)
    return RoundBatch(params, sums, x.reshape(K, bs, rounds, blocks), y.reshape(K, rounds, blocks))


def run_round(
    params: SchemeParams, inputs: Mapping[int, Sequence[int]], seed: int = 0
) -> RoundResult:
    """Execute one full round; the recovered sum is exact by construction."""
    return run_rounds(params, [inputs], [seed])[0]


def random_inputs(params: SchemeParams, L: int, seed: int) -> dict[int, tuple[int, ...]]:
    """Uniform inputs for simulation; one length-L vector per user."""
    _block_count(params, L)
    draws = _uniform_rows([seed], params.K * L, params.field.q).reshape(params.K, L).tolist()
    return {k: tuple(row) for k, row in zip(params.topo.users(), draws)}


def direct_sum(params: SchemeParams, inputs: Mapping[int, Sequence[int]]) -> tuple[int, ...]:
    """Componentwise input sum, the oracle every decode is compared against."""
    q = params.field.q
    L = len(inputs[1])
    return tuple(sum(inputs[k][t] for k in params.topo.users()) % q for t in range(L))
