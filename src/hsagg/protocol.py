"""One aggregation round: sample keys, encode, relay, decode.

Inputs of length L are processed in independent blocks of block_size
symbols (L must be a multiple; no padding, since padding would distort
the rate identities the audits assert).  Per block, every user sends one
symbol to each associated relay, reusing a single key symbol across its
outgoing messages; every relay forwards the sum of what it received; the
server multiplies the relay symbols by the recovery matrix and reads off
the blockwise input sum.  Each stage is one exact int64 array operation
over GF(q) for all users, blocks and relays at once (``gf.matmul_mod``);
input symbols outside [0, q) are reduced on entry, and reduced input is
taken as it is.
``run_rounds`` runs a batch of rounds of one input length: blocks are
independent, so the rounds' blocks stack along the block axis and each
stage is still one operation for the whole batch, while every round
draws its own source key from its own seed.  A round's transcript is
built from its message arrays only when it is first read.

Source keys and simulated inputs are the values of
``random.Random(seed).randrange(q)``.  A long draw (``_uniform``) takes
the generator's 32-bit outputs in bulk from ``Random.getrandbits`` and
keeps, in numpy, the shifted outputs that randrange would accept, so it
gives the same symbols without a Python call per symbol; it does not use
``numpy.random``, whose import alone costs about 6 MB of resident memory.

For B = K the scheme is the B = K-1 design with the last outgoing link
of each user disabled; the disabled link carries an explicit empty
message so transcripts and rate accounting can see it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from itertools import repeat
from typing import Mapping, Sequence

import numpy as np

from .code_design import CodeDesign, build_code_design
from .gf import Matrix, PrimeField, matmul_mod
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


@dataclass(frozen=True)
class _RoundArrays:
    """A scheme as the arrays the round kernels multiply by.

    Link j of user k goes to relay relays[k-1][j].  Row j of encode[k-1]
    holds the link's B input coefficients and then its key coefficient,
    so one product with [input block, key symbol] gives its message.
    Relay i sums the links received[i-1], numbered (k-1)*B + j.
    """

    key_matrix_t: np.ndarray  # (n, K)
    encode: np.ndarray  # (K, B, B + 1)
    recovery: np.ndarray  # (K, B)
    relays: tuple[tuple[int, ...], ...]
    received: np.ndarray  # (K, B)


@dataclass(frozen=True, eq=False)
class SchemeParams:
    """Everything the protocol needs to run rounds, plus provenance.

    topo is the association actually coded: for requested B = K it is the
    inner (K, K-1) topology and requested_B records the original K.
    """

    topo: Topology
    requested_B: int
    field: PrimeField
    input_coeffs: Mapping[tuple[int, int], tuple[int, ...]]
    key_coeffs: Matrix
    key_matrix: Matrix
    recovery: Matrix
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
        return self.key_matrix.ncols

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

    @cached_property
    def _arrays(self) -> _RoundArrays:
        """Built on first use and kept for every later round of the scheme."""
        topo, bs = self.topo, self.block_size
        relays = tuple(relays_of_user(topo, k) for k in topo.users())
        encode = np.array(
            [
                [self.input_coeffs[(k, i)] + (self.key_coeffs.rows[k - 1][i - 1],) for i in rs]
                for k, rs in zip(topo.users(), relays)
            ],
            dtype=np.int64,
        )
        received = [
            [(k - 1) * bs + relays[k - 1].index(i) for k in users_of_relay(topo, i)]
            for i in topo.relays()
        ]
        return _RoundArrays(
            key_matrix_t=np.array(self.key_matrix.transpose().rows, dtype=np.int64),
            encode=encode,
            recovery=np.array(self.recovery.take_cols(range(bs)).rows, dtype=np.int64),
            relays=relays,
            received=np.array(received),
        )


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
    code = build_code_design(topo, field)
    keys = build_keys(K, B, field)
    report = validate_scheme(keys, code)
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


def _field_array(values, q: int) -> np.ndarray:
    """Symbols as a reduced int64 array; input already in [0, q) is not reduced again."""
    try:
        a = np.asarray(values, dtype=np.int64)
    except OverflowError:  # ints beyond int64, reduced exactly as Python ints
        return (np.asarray(values, dtype=object) % q).astype(np.int64)
    if a.size and (a.min() < 0 or a.max() >= q):
        a = a % q
    return a


def _derive(params: SchemeParams, source: np.ndarray) -> np.ndarray:
    """(blocks, n) source segments -> (blocks, K) key symbols."""
    return matmul_mod(source, params._arrays.key_matrix_t, params.field.q)


def _encode(params: SchemeParams, users: slice, w: np.ndarray, z: np.ndarray) -> np.ndarray:
    """(U, B, blocks) input blocks, one per column, and (U, blocks) key
    symbols of a slice of users -> (U, B, blocks) messages, row j for link j."""
    wz = np.concatenate((w, z[:, None, :]), axis=1)
    return matmul_mod(params._arrays.encode[users], wz, params.field.q)


def _relay_sums(received: np.ndarray, q: int) -> np.ndarray:
    """(..., senders, blocks) received symbols -> (..., blocks) relay symbols."""
    return received.sum(axis=-2) % q


def _decode(params: SchemeParams, y: np.ndarray) -> np.ndarray:
    """(K, blocks) relay symbols -> the blockwise sum, block by block."""
    return matmul_mod(y.T, params._arrays.recovery, params.field.q).ravel()


def _user_messages(params: SchemeParams, k: int, links: list) -> dict[int, tuple[int, ...]]:
    """User k's messages by relay, from its per-link symbol lists."""
    out = dict(zip(params._arrays.relays[k - 1], map(tuple, links)))
    disabled = params.disabled_relay(k)
    if disabled is not None:
        out[disabled] = ()
    return out


# Draws shorter than this call randrange once per symbol: the two arms
# cost the same near 16 draws at q = 7, 17, 305017 and 2147483629.
_STREAM_CUTOFF = 16

# Words per getrandbits call: its bit count is a C int, so one call
# cannot take much more than 2**26 words.
_MAX_WORDS = 1 << 20


def _uniform(seed: int, n: int, q: int) -> np.ndarray:
    """The first n values of ``random.Random(seed).randrange(q)``, as int64.

    For q < 2**32, randrange(q) takes one 32-bit MT19937 output, keeps its
    top q.bit_length() bits, and draws again while that is >= q, so the
    values are the shifted outputs below q, in stream order.
    ``getrandbits(32 * m)`` returns the next m outputs of the same stream,
    the first in the least significant word, so a draw of at least
    _STREAM_CUTOFF values reads its outputs that way, m at a time; a
    shorter one calls randrange.
    """
    rng = random.Random(seed)
    if n < _STREAM_CUTOFF:
        return np.fromiter(map(rng.randrange, repeat(q, n)), np.int64, n)
    bits = q.bit_length()
    parts, short = [], n
    while short:
        # The expected word count plus a margin of at least two standard
        # deviations; a pass that still falls short draws again.
        m = min(short * (1 << bits) // q + 64 + short // 32, _MAX_WORDS)
        words = np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"), "<u4")
        v = words >> (32 - bits)
        v = v[v < q][:short]
        parts.append(v)
        short -= len(v)
    return np.concatenate(parts).astype(np.int64)


def sample_source_key(params: SchemeParams, block_count: int, seed: int) -> tuple[int, ...]:
    """Fresh i.i.d. uniform source symbols, one segment per block."""
    n = block_count * params.source_key_len
    return tuple(_uniform(seed, n, params.field.q).tolist())


def derive_keys(params: SchemeParams, source_key: Sequence[int]) -> dict[int, tuple[int, ...]]:
    """Per-user keys, one symbol per block: row k of the key matrix times each segment."""
    n = params.source_key_len
    if len(source_key) == 0 or len(source_key) % n:
        raise SizeMismatchError(
            f"source key length {len(source_key)} is not a positive multiple of {n}"
        )
    z = _derive(params, _field_array(source_key, params.field.q).reshape(-1, n))
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
        _field_array(w, q).reshape(1, blocks, bs).transpose(0, 2, 1),
        _field_array(z, q).reshape(1, blocks),
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
    return tuple(_relay_sums(_field_array(msgs, q), q).tolist())


def server_decode(params: SchemeParams, relay_msgs: Mapping[int, Sequence[int]]) -> tuple[int, ...]:
    """Recover the blockwise input sum by applying the recovery matrix."""
    for i in params.topo.relays():
        if i not in relay_msgs:
            raise MissingMessageError(f"relay {i}", "server")
    blocks = len(relay_msgs[1])
    if any(len(relay_msgs[i]) != blocks for i in params.topo.relays()):
        raise SizeMismatchError("relay messages of unequal length")
    y = _field_array([relay_msgs[i] for i in params.topo.relays()], params.field.q)
    return tuple(_decode(params, y).tolist())


def run_rounds(
    params: SchemeParams,
    inputs: Sequence[Mapping[int, Sequence[int]]],
    seeds: Sequence[int],
) -> list[RoundResult]:
    """Execute one round per (inputs, seed) pair as one batch.

    Every round of a batch has the same input length.  Blocks are
    independent in every stage, so the rounds stack along the block axis
    and each stage runs once for the whole batch; each round still draws
    its own source key from its own seed, and its result is the one
    ``run_round(params, inputs[r], seeds[r])`` gives.
    """
    if len(seeds) != len(inputs):
        raise SizeMismatchError(f"{len(inputs)} input sets but {len(seeds)} seeds")
    if not inputs:
        return []
    K = params.K
    users = params.topo.users()
    if any(sorted(r) != list(users) for r in inputs):
        raise SizeMismatchError(f"inputs must cover users 1..{K}")
    L = len(inputs[0][1])
    if any(len(r[k]) != L for r in inputs for k in users):
        raise SizeMismatchError("all users of every round in a batch must share one input length")
    blocks = _block_count(params, L)
    q = params.field.q
    rounds = len(inputs)
    width = rounds * blocks  # block t of round r is column r * blocks + t

    n = blocks * params.source_key_len
    source = np.concatenate([_uniform(seed, n, q) for seed in seeds])
    z = _derive(params, source.reshape(width, -1))
    w = _field_array([[r[k] for k in users] for r in inputs], q)
    w = w.reshape(rounds, K, blocks, params.block_size).transpose(1, 3, 0, 2)
    x = _encode(params, slice(None), w.reshape(K, params.block_size, width), z.T)
    y = _relay_sums(x.reshape(-1, width)[params._arrays.received], q)
    recovered = _decode(params, y).reshape(rounds, L).tolist()
    x = x.reshape(K, params.block_size, rounds, blocks)
    y = y.reshape(K, rounds, blocks)
    return [RoundResult(params, tuple(recovered[r]), x[:, :, r], y[:, r]) for r in range(rounds)]


def run_round(
    params: SchemeParams, inputs: Mapping[int, Sequence[int]], seed: int = 0
) -> RoundResult:
    """Execute one full round; the recovered sum is exact by construction."""
    return run_rounds(params, [inputs], [seed])[0]


def random_inputs(params: SchemeParams, L: int, seed: int) -> dict[int, tuple[int, ...]]:
    """Uniform inputs for simulation; one length-L vector per user."""
    _block_count(params, L)
    draws = _uniform(seed, params.K * L, params.field.q).reshape(params.K, L).tolist()
    return {k: tuple(row) for k, row in zip(params.topo.users(), draws)}


def direct_sum(params: SchemeParams, inputs: Mapping[int, Sequence[int]]) -> tuple[int, ...]:
    """Componentwise input sum, the oracle every decode is compared against."""
    q = params.field.q
    L = len(inputs[1])
    return tuple(sum(inputs[k][t] for k in params.topo.users()) % q for t in range(L))
