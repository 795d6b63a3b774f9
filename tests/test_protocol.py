import hashlib
import itertools
import os
import random
import struct
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsagg import cli, gf, protocol
from hsagg.audit import golden_decode, golden_example1
from hsagg.gf import PrimeField
from hsagg.protocol import (
    MissingMessageError,
    SizeMismatchError,
    build_scheme,
    derive_keys,
    direct_sum,
    random_inputs,
    relay_encode,
    run_round,
    run_rounds,
    sample_source_key,
    server_decode,
    user_encode,
)
from hsagg.rates import achievable_rates, measured_rates
from hsagg.topology import relays_of_user, users_of_relay

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_derive_keys_worked_example():
    # key matrix [[1,0],[0,1],[1,1]]: source (N1, N2) -> (N1, N2, N1+N2)
    params = golden_example1()
    for n1, n2 in itertools.product(range(3), repeat=2):
        keys = derive_keys(params, (n1, n2))
        assert keys == {1: (n1,), 2: (n2,), 3: ((n1 + n2) % 3,)}


def test_derive_keys_linearity():
    params = build_scheme(4, 2)
    q = params.field.q
    rng = random.Random(0)
    a = tuple(rng.randrange(q) for _ in range(params.source_key_len))
    b = tuple(rng.randrange(q) for _ in range(params.source_key_len))
    zero = (0,) * params.source_key_len
    ka, kb = derive_keys(params, a), derive_keys(params, b)
    ksum = derive_keys(params, tuple((x + y) % q for x, y in zip(a, b)))
    assert derive_keys(params, zero) == {k: (0,) for k in range(1, 5)}
    for k in range(1, 5):
        assert ksum[k][0] == (ka[k][0] + kb[k][0]) % q


def test_derive_keys_length_check():
    params = golden_example1()
    with pytest.raises(SizeMismatchError):
        derive_keys(params, (1, 2, 3))


def test_golden_message_formulas():
    """Every message matches its worked closed form, on all realizations."""
    params = golden_example1()
    for w1a, w1b, w2a, w2b, w3a, w3b, n1, n2 in itertools.product(range(3), repeat=8):
        keys = derive_keys(params, (n1, n2))
        z1, z2, z3 = keys[1][0], keys[2][0], keys[3][0]
        x1 = user_encode(params, 1, (w1a, w1b), (z1,))
        x2 = user_encode(params, 2, (w2a, w2b), (z2,))
        x3 = user_encode(params, 3, (w3a, w3b), (z3,))
        assert x1[1] == ((-2 * w1a - z1) % 3,)
        assert x1[2] == ((-(w1a + w1b) + z1) % 3,)
        assert x2[2] == ((w2a - w2b + 2 * z2) % 3,)
        assert x2[3] == ((2 * w2a + z2) % 3,)
        assert x3[3] == ((w3a + w3b + z3) % 3,)
        assert x3[1] == ((w3b - w3a + 2 * z3) % 3,)

        y1 = relay_encode(params, 1, {1: x1[1], 3: x3[1]})
        y2 = relay_encode(params, 2, {1: x1[2], 2: x2[2]})
        y3 = relay_encode(params, 3, {2: x2[3], 3: x3[3]})
        assert y1 == ((-2 * w1a + w3b - w3a + n1 + 2 * n2) % 3,)
        assert y2 == ((-(w1a + w1b) + w2a - w2b + n1 + 2 * n2) % 3,)
        assert y3 == ((2 * w2a + w3a + w3b + n1 + 2 * n2) % 3,)

        decoded = server_decode(params, {1: y1, 2: y2, 3: y3})
        assert decoded == golden_decode({1: y1, 2: y2, 3: y3})
        assert decoded == ((w1a + w2a + w3a) % 3, (w1b + w2b + w3b) % 3)


@pytest.mark.parametrize(
    "make",
    [lambda: build_scheme(5, 3), lambda: build_scheme(4, 4), golden_example1],
    ids=["build_scheme", "build_scheme_full", "golden_example1"],
)
def test_input_coeffs_is_one_read_only_array(make):
    params = make()
    K, B = params.K, params.block_size
    arrays = [params.input_coeffs]
    if params.code is not None:
        arrays.append(params.code.input_coeffs)
    for coeffs in arrays:
        assert coeffs.dtype == np.int64 and coeffs.shape == (K, B, B)
        assert not coeffs.flags.writeable
        with pytest.raises(ValueError):
            coeffs[0, 0, 0] = 1


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_scheme(5, 1),
        lambda: build_scheme(6, 3),
        lambda: build_scheme(5, 3),
        lambda: build_scheme(4, 4),
        lambda: build_scheme(2, 2),
        golden_example1,
    ],
    ids=["single", "circulant", "vandermonde", "full", "full_single", "golden_example1"],
)
def test_key_coeffs_is_one_read_only_per_link_array(make):
    # The key matrix and the recovery matrix are read-only int64 arrays too,
    # on the scheme and on the key and code designs it was built from.
    params = make()
    K, B = params.K, params.block_size
    n = max(B, K - B)  # source symbols per block, B the coded block size
    assert params.source_key_len == n
    arrays = [
        (params.key_coeffs, (K, B)),
        (params.key_matrix, (K, n)),
        (params.recovery, (K, B)),
    ]
    if params.keys is not None:
        arrays += [(params.keys.key_coeffs, (K, B)), (params.keys.key_matrix, (K, n))]
    if params.code is not None:
        arrays.append((params.code.recovery, (K, B)))
    for a, shape in arrays:
        assert a.dtype == np.int64 and a.shape == shape
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 1


def test_key_symbol_reused_across_outgoing_messages():
    params = build_scheme(5, 3)
    z = (4,)
    msgs = user_encode(params, 2, (0,) * 3, z)
    # zero inputs isolate the key part: every message is coeff * key symbol
    for j, i in enumerate(relays_of_user(params.topo, 2)):
        lam = params.key_coeffs[1, j]
        assert msgs[i] == ((lam * 4) % params.field.q,)


def test_zero_inputs_zero_keys_give_zero_messages():
    params = build_scheme(4, 2)
    msgs = user_encode(params, 1, (0, 0), (0,))
    assert all(m == (0,) for m in msgs.values())


def test_zero_inputs_decode_to_zero_for_every_source_key():
    # keys must cancel: with all-zero inputs the decoded sum is zero no
    # matter which of the 49 source keys is drawn
    params = build_scheme(3, 2, q=7)
    zeros = {k: (0, 0) for k in (1, 2, 3)}
    for n1, n2 in itertools.product(range(7), repeat=2):
        keys = derive_keys(params, (n1, n2))
        user_msgs = {}
        for k in (1, 2, 3):
            for i, m in user_encode(params, k, zeros[k], keys[k]).items():
                user_msgs[(k, i)] = m
        relay_msgs = {
            i: relay_encode(params, i, {k: user_msgs[(k, i)] for k in users_of_relay(params.topo, i)})
            for i in (1, 2, 3)
        }
        assert server_decode(params, relay_msgs) == (0, 0)


@pytest.mark.parametrize("K,B", [(3, 2), (4, 2), (5, 4), (2, 1), (6, 6)])
def test_round_recovers_exact_sum(K, B):
    params = build_scheme(K, B)
    for trial in range(20):
        inputs = random_inputs(params, params.block_size * 2, seed=trial)
        result = run_round(params, inputs, seed=1000 + trial)
        assert result.recovered_sum == direct_sum(params, inputs)


def test_scheme2_hundred_random_trials():
    params = build_scheme(5, 4)
    for trial in range(100):
        inputs = random_inputs(params, params.block_size, seed=trial)
        result = run_round(params, inputs, seed=trial)
        assert result.recovered_sum == direct_sum(params, inputs)


def test_full_association_round_and_empty_links():
    params = build_scheme(4, 4)
    assert params.block_size == 3
    L = 3
    inputs = random_inputs(params, L, seed=5)
    result = run_round(params, inputs, seed=6)
    assert result.recovered_sum == direct_sum(params, inputs)
    # each user sends K-1 nonempty messages plus one explicit empty one
    for k in range(1, 5):
        sent = {i: m for (u, i), m in result.transcript.user_messages.items() if u == k}
        assert len(sent) == 4
        empties = [i for i, m in sent.items() if len(m) == 0]
        assert empties == [params.disabled_relay(k)]
    assert result.transcript.user_symbols == L


def test_rate_accounting_identities():
    for (K, B, blocks) in [(3, 2, 1), (3, 2, 3), (6, 3, 2), (5, 5, 2)]:
        params = build_scheme(K, B)
        L = params.block_size * blocks
        result = run_round(params, random_inputs(params, L, seed=2), seed=3)
        t = result.transcript
        assert t.user_symbols == L
        assert all(n == blocks for n in t.relay_symbols.values())
        assert len(t.relay_symbols) == K
        assert t.key_symbols == blocks
        assert t.source_key_symbols == blocks * params.source_key_len
        assert measured_rates(t, L) == achievable_rates(K, B)


def test_round_linearity_in_inputs():
    params = build_scheme(3, 2, q=7)
    a = random_inputs(params, 4, seed=11)
    b = random_inputs(params, 4, seed=12)
    ra = run_round(params, a, seed=77)
    rb = run_round(params, b, seed=77)
    q = params.field.q
    diff = tuple(
        (x - y) % q for x, y in zip(ra.recovered_sum, rb.recovered_sum)
    )
    expected = tuple(
        (sa - sb) % q for sa, sb in zip(direct_sum(params, a), direct_sum(params, b))
    )
    assert diff == expected


def test_result_invariant_under_key_rerandomization():
    params = build_scheme(4, 3)
    inputs = random_inputs(params, params.block_size, seed=21)
    sums = {run_round(params, inputs, seed=s).recovered_sum for s in range(10)}
    assert sums == {direct_sum(params, inputs)}


def test_round_determinism():
    params = build_scheme(3, 2)
    inputs = random_inputs(params, 2, seed=4)
    r1 = run_round(params, inputs, seed=9)
    r2 = run_round(params, inputs, seed=9)
    assert r1 == r2


def test_source_key_determinism_and_freshness():
    params = build_scheme(3, 2, q=7)
    a = sample_source_key(params, 3, seed=1)
    assert a == sample_source_key(params, 3, seed=1)
    assert len(a) == 3 * params.source_key_len
    blocks = [a[i : i + params.source_key_len] for i in range(0, len(a), 2)]
    assert len(set(blocks)) > 1 or len(blocks) == 1


# The named seeds, then simulate's trial seeds at --seed 3 and 2**20 + 7.
DRAW_SEEDS = [0, 1, -3, 2**40 + 5] + [
    cli._trial_seed(seed, t, half) for seed in (3, 2**20 + 7) for t in range(74) for half in (0, 1)
]


def _randrange_rows(seeds, n, q):
    """The reference: the first n values of random.Random(seed).randrange(q) per seed."""
    rows = []
    for seed in seeds:
        rng = random.Random(seed)
        rows.append(list(map(rng.randrange, itertools.repeat(q, n))))
    return rows


Q_VALUES = [2, 3, 7, 4096, 65536, 65537, 305017, 2147483629, 2147483647]


@pytest.mark.parametrize("q", Q_VALUES)
@pytest.mark.parametrize("cap", [None, 1], ids=["default-cutoff", "stream-only"])
def test_uniform_matches_randrange(monkeypatch, q, cap):
    # One seed per call.  At the default cap on words per pass a row is
    # one getrandbits call; a cap of one word makes every row fall short
    # and be drawn again pass by pass, one output of the stream at a time.
    if cap is not None:
        monkeypatch.setattr(protocol, "_MAX_WORDS", cap)
    lengths = (1, 2, 15, 16, 17, 227, 455, 1500)
    for seed, expected in zip(DRAW_SEEDS[:4], _randrange_rows(DRAW_SEEDS[:4], max(lengths), q)):
        for n in lengths:
            got = protocol._uniform_rows([seed], n, q)
            assert got.dtype == np.int64 and got.shape == (1, n)
            assert got[0].tolist() == expected[:n], (seed, n)


@pytest.mark.parametrize("q", Q_VALUES)
@pytest.mark.parametrize("rows", [1, 300], ids=["1-row", "300-rows"])
def test_uniform_rows_match_randrange(q, rows):
    # randrange(q) keeps the top q.bit_length() bits of one MT19937 output
    # and retries above q; powers of two and q = 2 reject about half.
    # Batches of one row take the four named seeds and four trial seeds.
    seeds = DRAW_SEEDS if rows == 300 else DRAW_SEEDS[:8]
    lengths = (1, 2, 15, 16, 17, 227, 455, 1500)
    expected = _randrange_rows(seeds, max(lengths), q)
    for n in lengths:
        got = [protocol._uniform_rows(seeds[i : i + rows], n, q) for i in range(0, len(seeds), rows)]
        assert all(g.dtype == np.int64 and g.shape == (rows, n) for g in got)
        assert np.concatenate(got).tolist() == [row[:n] for row in expected], n


def test_uniform_draws_again_when_a_pass_falls_short(monkeypatch):
    # At q = 2 and seed 161, the first pass's 1104 words hold fewer than
    # 512 values below q; the rows of seeds 0 and 2 hold enough.  Only
    # seed 161's generator is seeded again, and draws the same first pass
    # and then a second.
    seeds = [0, 161, 2]
    expected = _randrange_rows(seeds, 512, 2)
    passes = []

    class Recording(random.Random):
        def seed(self, a=None, version=2):
            self.drawn_seed = a
            super().seed(a, version)

        def getrandbits(self, k):
            passes.append((self.drawn_seed, k))
            return super().getrandbits(k)

    monkeypatch.setattr(protocol.random, "Random", Recording)
    assert protocol._uniform_rows(seeds, 512, 2).tolist() == expected
    assert passes[:3] == [(seed, 32 * 1104) for seed in seeds]
    assert passes[3] == (161, 32 * 1104)
    assert [seed for seed, _ in passes[4:]] == [161]


@pytest.mark.parametrize("seed", [0, 7, 2**40 + 5])
def test_getrandbits_returns_successive_words_least_significant_first(seed):
    # The one CPython fact the batched draw, _uniform_rows, relies on.
    for m in (1, 2, 3, 624, 625, 1500):
        bulk = random.Random(seed).getrandbits(32 * m)
        rng = random.Random(seed)
        assert bulk == sum(rng.getrandbits(32) << (32 * i) for i in range(m)), (seed, m)


@pytest.mark.parametrize("q", [2, 17, 305017, 2147483629])
def test_uniform_matches_randrange_across_capped_passes(monkeypatch, q):
    # Every row needs more than one pass of at most 100 words.
    monkeypatch.setattr(protocol, "_MAX_WORDS", 100)
    seeds = [3, 2**40 + 5]
    assert protocol._uniform_rows(seeds, 1000, q).tolist() == _randrange_rows(seeds, 1000, q)


def test_samplers_keep_the_randrange_stream():
    params = build_scheme(12, 6)
    q, n = params.field.q, params.source_key_len
    for blocks, L in ((1, 6), (1000, 600)):
        rng = random.Random(5)
        assert sample_source_key(params, blocks, seed=5) == tuple(
            rng.randrange(q) for _ in range(blocks * n)
        )
        rng = random.Random(6)
        expected = {k: tuple(rng.randrange(q) for _ in range(L)) for k in range(1, 13)}
        assert random_inputs(params, L, seed=6) == expected


def test_long_round_does_not_import_numpy_random():
    code = (
        "import sys\n"
        "from hsagg.protocol import build_scheme, direct_sum, random_inputs, run_round\n"
        "params = build_scheme(12, 6)\n"
        "inputs = random_inputs(params, 6000, seed=1)\n"
        "result = run_round(params, inputs, seed=2)\n"
        "exact = result.recovered_sum == direct_sum(params, inputs)\n"
        "print(exact, 'numpy.random' in sys.modules)\n"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False"]


def test_unreduced_inputs_give_the_reduced_results():
    # Symbols off by +-q, by q * 2**56, near the int64 limit, whose
    # products with the coefficients would wrap if they reached the
    # kernels unreduced, and by q * 2**70, beyond int64 altogether.
    params = build_scheme(4, 2)
    q = params.field.q
    shifts = itertools.cycle((q, 0, -q, q << 56, q << 70))

    def shifted(symbols):
        return tuple(v + s for v, s in zip(symbols, shifts))

    inputs = random_inputs(params, 8, seed=3)
    far = {k: shifted(w) for k, w in inputs.items()}
    assert min(min(w) for w in far.values()) < 0 and max(max(w) for w in far.values()) >= q
    reduced = run_round(params, inputs, seed=4)
    assert run_round(params, far, seed=4) == reduced
    source = sample_source_key(params, 4, seed=5)
    keys = derive_keys(params, source)
    assert derive_keys(params, shifted(source)) == keys
    messages = user_encode(params, 2, inputs[2], keys[2])
    assert user_encode(params, 2, far[2], shifted(keys[2])) == messages
    t = reduced.transcript
    incoming = {k: shifted(m) for (k, i), m in t.user_messages.items() if i == 1}
    assert relay_encode(params, 1, incoming) == t.relay_messages[1]
    relayed = {i: shifted(m) for i, m in t.relay_messages.items()}
    assert server_decode(params, relayed) == reduced.recovered_sum


def test_input_validation_errors():
    params = build_scheme(3, 2)
    with pytest.raises(SizeMismatchError):
        run_round(params, {k: (1, 2, 3) for k in (1, 2, 3)}, seed=0)  # L=3 not multiple
    with pytest.raises(SizeMismatchError):
        run_round(params, {1: (1, 2), 2: (1, 2)}, seed=0)  # missing user
    with pytest.raises(SizeMismatchError):
        user_encode(params, 1, (1, 2), (3, 4))  # too many key symbols
    with pytest.raises(MissingMessageError):
        relay_encode(params, 1, {1: (0,)})  # user 3's message absent
    with pytest.raises(MissingMessageError):
        server_decode(params, {1: (0,), 2: (0,)})


def test_run_rounds_refusals_and_empty_batch():
    params = build_scheme(3, 2)
    two, four = random_inputs(params, 2, seed=1), random_inputs(params, 4, seed=2)
    assert run_rounds(params, [], []) == []
    with pytest.raises(SizeMismatchError):
        run_rounds(params, [two, two], [1])
    with pytest.raises(SizeMismatchError):
        run_rounds(params, [two], [])
    with pytest.raises(SizeMismatchError):
        run_rounds(params, [two, four], [1, 2])


@pytest.mark.parametrize("K,B", [(4, 1), (5, 3), (6, 3), (4, 4)])
def test_run_rounds_on_an_array_matches_tuples(K, B):
    # The single, vandermonde, circulant and full regimes.  The array's
    # entries are shifted by +-q and by q << 56, or by the largest shift
    # of q that int64 holds; a uint64 copy is shifted past 2**63.
    params = build_scheme(K, B)
    q, L = params.field.q, params.block_size * 2
    batch = [random_inputs(params, L, seed=30 + r) for r in range(3)]
    seeds = [40, 41, 42]
    w = np.array([[inputs[k] for k in range(1, K + 1)] for inputs in batch], dtype=np.int64)
    big = q << min(56, 62 - q.bit_length())
    far = w + np.resize(np.array([q, 0, -q, big, -big]), w.shape)
    assert far.min() < 0 and far.max() >= q
    expected = run_rounds(params, batch, seeds)
    assert [r.recovered_sum for r in expected] == [direct_sum(params, x) for x in batch]
    above = w.astype(np.uint64) + np.uint64(q * (2**63 // q + 1))
    for arr in (w, far, w.astype(np.int32), above):
        results = run_rounds(params, arr, seeds)
        assert results.sums.dtype == np.int64 and results.sums.shape == (3, L)
        assert np.array_equal(results.sums, expected.sums)
        assert np.array_equal(results.sums, w.sum(axis=1) % q)
        assert results == expected and list(results) == list(expected)
        assert results[-1] == expected[2] and results[1:] == list(expected)[1:]


def test_run_rounds_array_refusals():
    params = build_scheme(3, 2)
    w = np.zeros((2, 3, 4), dtype=np.int64)
    assert run_rounds(params, w[:0], []).sums.shape == (0, 4)
    with pytest.raises(SizeMismatchError):
        run_rounds(params, np.zeros((2, 4, 4), dtype=np.int64), [1, 2])  # K axis of 4 users
    with pytest.raises(SizeMismatchError):
        run_rounds(params, w[0], [1, 2])  # no round axis
    with pytest.raises(SizeMismatchError):
        run_rounds(params, w[:, :, :3], [1, 2])  # L = 3 is not a multiple of B = 2
    with pytest.raises(SizeMismatchError):
        run_rounds(params, w, [1])  # two rounds, one seed
    with pytest.raises(TypeError):
        run_rounds(params, w.astype(np.float64), [1, 2])


@pytest.mark.parametrize("bad", [1.7, 2.0, "1", np.float64(3.0)])
def test_non_integer_symbols_raise_type_error(bad):
    # np.asarray(..., dtype=np.int64) would truncate 1.7 to 1 and parse "1".
    params = build_scheme(3, 2)
    with pytest.raises(TypeError):
        run_round(params, {1: (1.7, 2.2), 2: (0.9, 1.0), 3: (2.5, 3.9)})
    inputs = random_inputs(params, 2, seed=1)
    with pytest.raises(TypeError):
        run_round(params, {**inputs, 2: (inputs[2][0], bad)}, seed=2)
    with pytest.raises(TypeError):
        run_round(params, {**inputs, 2: (1 << 70, bad)}, seed=2)  # past int64 first
    with pytest.raises(TypeError):
        derive_keys(params, (bad, 1))
    with pytest.raises(TypeError):
        user_encode(params, 1, (1, bad), (3,))
    with pytest.raises(TypeError):
        user_encode(params, 1, (1, 2), (bad,))
    with pytest.raises(TypeError):
        user_encode(params, 1, np.array([1.0, 2.0]), (3,))
    with pytest.raises(TypeError):
        relay_encode(params, 1, {1: (bad,), 3: (1,)})
    with pytest.raises(TypeError):
        server_decode(params, {1: (1,), 2: (bad,), 3: (1,)})


class _NoPack:
    """A struct.Struct whose every pack fails, so the array("q") rows run."""

    def __init__(self, fmt):
        pass

    def pack_into(self, *args):
        raise struct.error("packing refused")


@pytest.mark.parametrize(
    "rows",
    [
        [(1, 2, 3), (4, 5, 6)],
        [[0, 6, 7], [8, 9, 10]],
        [(True, np.int64(5), False), [np.int64(12), True, 3]],
        [(-1, -13, -(1 << 63)), (-14, 0, -(1 << 62))],
        [(1 << 63, (1 << 64) + 5, 13 << 70), (1, 2, 3)],
        [(1, 2, 3), (-(1 << 63) - 1, 5, 6)],
    ],
    ids=["tuples", "lists", "bool-and-int64", "negative", "above-int64", "below-int64"],
)
def test_packed_rows_match_array_rows(rows, monkeypatch):
    q = 13
    packed = gf.field_array(rows, q)
    assert packed.dtype == np.int64
    assert packed.tolist() == [[int(v) % q for v in row] for row in rows]
    monkeypatch.setattr(struct, "Struct", _NoPack)
    assert np.array_equal(gf.field_array(rows, q), packed)


@pytest.mark.parametrize("bad", [1.5, "1"])
def test_bad_symbol_after_packed_rows_raises_type_error(bad):
    rows = [(1, 2), (3, 4), (5, bad)]
    with pytest.raises(TypeError):
        gf.field_array(rows, 13)
    params = build_scheme(3, 2)
    inputs = random_inputs(params, 2, seed=1)
    with pytest.raises(TypeError):
        run_round(params, {**inputs, 3: (inputs[3][0], bad)}, seed=2)
    with pytest.raises(TypeError):
        run_rounds(params, [inputs, {**inputs, 3: (inputs[3][0], bad)}], [2, 3])


@pytest.mark.parametrize("B", [2, 3])
def test_encode_guards_its_sum_at_the_largest_field(B):
    # B input products and one key product of (q - 1)**2 each sum to
    # about (B + 1) * 2**62, which an unguarded int64 sum would wrap;
    # at B = 2 the B input products alone would not.
    q, U, blocks = 2147483647, 2, 5
    top = q - 1
    # Three users of B links each; the slice encodes the first two.
    params = SimpleNamespace(
        field=PrimeField(q),
        input_coeffs=np.full((3, B, B), top, np.int64),
        key_coeffs=np.full((3, B), top, np.int64),
    )
    w = np.full((U, B, blocks), top, np.int64)
    z = np.full((U, blocks), top, np.int64)
    z[1, 0] = w[0, 1, 2] = 0x7FFEFFFF
    got = protocol._encode(params, slice(0, U), w, z)
    expected = [
        [[(sum(top * int(w[u, i, t]) for i in range(B)) + top * int(z[u, t])) % q
          for t in range(blocks)] for _ in range(B)]
        for u in range(U)
    ]
    assert got.tolist() == expected
    assert got[0, 0, 0] == (B + 1) * top * top % q


@pytest.mark.parametrize("K, B, q", [(5, 3, 2147483647), (4, 2, 2147483629)])
def test_round_matches_reference_on_all_top_inputs_at_largest_fields(K, B, q):
    params = build_scheme(K, B, q=q)
    L = params.block_size * 3
    _assert_matches_reference(params, {k: (q - 1,) * L for k in range(1, K + 1)}, seed=9)
    _assert_matches_reference(params, random_inputs(params, L, seed=4), seed=5)


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_round_property_random_seeds(offset, seed):
    params = build_scheme(3, 2, q=7)
    inputs = random_inputs(params, 2, seed=seed)
    result = run_round(params, inputs, seed=seed + offset)
    assert result.recovered_sum == direct_sum(params, inputs)


def _reference_round(params, inputs, seed):
    """One round as plain loops over Python ints: (sum, user messages, relay messages)."""
    q = params.field.q
    bs, n = params.block_size, params.source_key_len
    users, relays = params.topo.users(), params.topo.relays()
    blocks = len(inputs[1]) // bs
    key_matrix, recovery = params.key_matrix.tolist(), params.recovery.tolist()
    s = sample_source_key(params, blocks, seed)
    z = {
        k: [sum(h * s[t * n + m] for m, h in enumerate(key_matrix[k - 1])) % q
            for t in range(blocks)]
        for k in users
    }
    msgs = {}
    for k in users:
        for j, i in enumerate(relays_of_user(params.topo, k)):
            c, lam = params.input_coeffs[k - 1, j].tolist(), int(params.key_coeffs[k - 1, j])
            msgs[(k, i)] = tuple(
                (sum(cj * inputs[k][t * bs + j] for j, cj in enumerate(c)) + lam * z[k][t]) % q
                for t in range(blocks)
            )
        if params.disabled_relay(k) is not None:
            msgs[(k, params.disabled_relay(k))] = ()
    y = {
        i: tuple(sum(msgs[(k, i)][t] for k in users_of_relay(params.topo, i)) % q
                 for t in range(blocks))
        for i in relays
    }
    total = tuple(
        sum(y[i][t] * recovery[i - 1][b] for i in relays) % q
        for t in range(blocks)
        for b in range(bs)
    )
    return total, msgs, y


def _assert_matches_reference(params, inputs, seed, result=None):
    if result is None:
        result = run_round(params, inputs, seed=seed)
    total, msgs, y = _reference_round(params, inputs, seed)
    assert result.recovered_sum == total == direct_sum(params, inputs)
    assert result.transcript.user_messages == msgs
    assert result.transcript.relay_messages == y


@pytest.mark.parametrize("K,B", [(K, B) for K in range(2, 7) for B in range(1, K + 1)])
def test_round_matches_plain_loop_reference(K, B):
    params = build_scheme(K, B)
    for trial in range(3):
        inputs = random_inputs(params, params.block_size * (trial + 1), seed=trial)
        _assert_matches_reference(params, inputs, seed=100 + trial)
    # One batch of three rounds of one length, each with its own seed.
    L = params.block_size * 2
    batch = [random_inputs(params, L, seed=10 + r) for r in range(3)]
    seeds = [200 + r for r in range(3)]
    results = run_rounds(params, batch, seeds)
    assert len(results) == 3
    for inputs, seed, result in zip(batch, seeds, results):
        _assert_matches_reference(params, inputs, seed, result)


def test_round_matches_reference_at_largest_field():
    # q is the largest prime below 2**31 with q = 1 mod 12: products of two
    # field elements reach about 2**62, where an unsplit int64 sum would wrap.
    q = 2147483629
    params = build_scheme(4, 1, q=q)
    for seed in range(5):
        _assert_matches_reference(params, random_inputs(params, 6, seed=seed), seed)
    _assert_matches_reference(params, {k: (q - 1,) * 6 for k in range(1, 5)}, seed=9)


@pytest.mark.parametrize("K, B, q", [(4, 2, 2147483629), (5, 3, 2147483647)])
def test_build_at_largest_fields_is_fast(K, B, q):
    # The ratio and anchor walks start at the smallest candidate; nothing
    # lists the field's elements.
    started = time.perf_counter()
    params = build_scheme(K, B, q=q)
    assert time.perf_counter() - started < 1.0
    assert params.validation.passed


def test_default_field_build_fits_a_memory_limit():
    # (18, 9) builds at q = 163 in a process that caps its own
    # address space at 1 GB; the timeout is the time budget.
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from hsagg.protocol import build_scheme\n"
        "params = build_scheme(18, 9)\n"
        "print(params.field.q, params.validation.passed)\n"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["163", "True"]


@pytest.mark.parametrize("K,B", [(4, 2), (4, 4)])
def test_round_outputs_are_python_ints(K, B):
    params = build_scheme(K, B)
    inputs = random_inputs(params, params.block_size * 2, seed=1)
    result = run_round(params, inputs, seed=2)
    t = result.transcript
    symbols = [*result.recovered_sum]
    for msg in (*t.user_messages.values(), *t.relay_messages.values()):
        assert type(msg) is tuple
        symbols.extend(msg)
    keys = derive_keys(params, sample_source_key(params, 2, seed=3))
    symbols.extend(x for z in keys.values() for x in z)
    symbols.extend(x for m in user_encode(params, 1, inputs[1], keys[1]).values() for x in m)
    symbols.extend(relay_encode(params, 1, {k: m for (k, i), m in t.user_messages.items() if i == 1}))
    symbols.extend(server_decode(params, t.relay_messages))
    assert symbols and all(type(x) is int for x in symbols)


@pytest.mark.parametrize(
    "argv, digest",
    [
        ("simulate --K 12 --B 6 --L 60 --trials 3 --seed 1 --transcript",
         "3ef9180326582429beff5a3de3747c1bb53edbbc68b649918df40af5a106a5de"),
        ("simulate --K 5 --B 5 --L 8 --trials 7 --seed 2 --transcript",
         "aad2edab4b70c36d28fee2d10d14fda0fb89ffeba24b63158ea9f12e80012faa"),
        ("simulate --K 4 --B 1 --L 8 --trials 3 --seed 5 --transcript",
         "3d0902ee50f9758717fe3d5fb8872ef11bdabab7fd394ce0d652fd3e8317efa8"),
        ("audit --K 6 --B 3",
         "4c94bfde9184c706cac4128543610fd8366efa251420f4ba127c4bd3e90e6f5e"),
        ("audit --K 7 --B 5",
         "f7236e19d3d6f9133cd6fbbb49a3c9535d424a1a836b2f9f748976d30b9f5de3"),
        ("search-params --K 4 --B 2",
         "5a81ce6fb898736a57dc6b742dfa1ccceba37cb2b0538342639dab8a2eb87b48"),
        ("search-params --K 6 --B 4",
         "06940a49e11cd69fdaab466d9c27d7288f9223337af0dc73c5a233dfdec36166"),
        # These two span more than one batch of simulate rounds.
        ("simulate --K 3 --B 2 --trials 3000 --seed 7",
         "b1a912113f7c4968daf570f27f29c192699f3893fa02e73315fe9393e322bb5b"),
        ("simulate --K 4 --B 4 --L 6 --trials 1200 --seed 8 --transcript",
         "efea195c53ff1d8669842b72cf1363d65b9d3b24b1c115b0071732053f1f008f"),
        # Its source-key and input draws both run the numpy stream.
        ("simulate --K 12 --B 6 --L 600 --trials 2 --seed 3 --transcript",
         "3ad18b2906c45a59fc94cd5c5e35845c80716d7f9ab46e0dbdae7df9f39eb63b"),
        # Exhaustive audits: every relay and joint code over every state.
        ("audit --golden-example1 --level exhaustive",
         "849e080d6f27d27128c2e8b8925c7e34ab876ff52cbaffbe922010fd68b157e0"),
        ("audit --K 2 --B 1 --level exhaustive --L 3",
         "92943c6266c04d4081208d49f8e58c150f12b1d0f3f4a6e1067c6310ff55cf0b"),
        ("audit --K 3 --B 2 --q 7 --level exhaustive --L 2",
         "818d8ac16fd7d850f5005517a2f27e7a6eea25ed2084e417573b9ab8441a0a7b"),
        ("audit --K 4 --B 1 --level exhaustive --L 1",
         "4c4b3cd6aac39248c2390864234710bd003224c24006e7da95d1375fe4e81248"),
        ("audit --K 3 --B 3 --level exhaustive --L 2",
         "76134942d5c32b34b5258db45746c5078eab27e698ce17528ce6b3aeb09724ad"),
        ("audit --K 3 --B 2 --q 5 --level exhaustive --L 2",
         "7ec4e5fc8bcfd0b4fd47d81ebf2e6343853e2bb753f12cd59d7126f14b16d706"),
    ],
)
def test_seeded_reports_are_pinned(capsys, argv, digest):
    assert cli.main(argv.split()) == 0
    # Each digest is over the report with its closing "version" line read
    # as 2, so a version bump pins a report again only where its other
    # bytes change; the line itself must carry REPORT_VERSION.
    head, version = capsys.readouterr().out.rsplit('  "version": ', 1)
    assert version == f"{cli.REPORT_VERSION}\n}}\n"
    assert hashlib.sha256(f'{head}  "version": 2\n}}\n'.encode()).hexdigest() == digest
