import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hsagg.topology import InvalidIndexError, Topology, relays_of_user, users_of_relay


def interval_relays(K, B, k):
    """Direct transcription of the two-interval closed form."""
    part1 = list(range(k, min(K, k + B - 1) + 1))
    part2 = list(range(1, B - K + k - 1 + 1))
    return tuple(part1 + part2)


def interval_users(K, B, i):
    part1 = list(range(max(1, i - B + 1), i + 1))
    part2 = list(range(K - B + i + 1, K + 1))
    return tuple(sorted(part1 + part2))


def test_worked_association_sets():
    t32 = Topology(3, 2)
    assert relays_of_user(t32, 1) == (1, 2)
    assert relays_of_user(t32, 3) == (3, 1)
    assert relays_of_user(Topology(5, 3), 4) == (4, 5, 1)

    assert users_of_relay(t32, 1) == (1, 3)
    assert users_of_relay(t32, 2) == (1, 2)
    assert users_of_relay(t32, 3) == (2, 3)
    assert users_of_relay(Topology(5, 3), 2) == (1, 2, 5)


def test_matches_interval_closed_form():
    for K in range(1, 13):
        for B in range(1, K + 1):
            topo = Topology(K, B)
            for idx in range(1, K + 1):
                assert relays_of_user(topo, idx) == interval_relays(K, B, idx)
                assert users_of_relay(topo, idx) == interval_users(K, B, idx)


def test_duality_exhaustive_to_K12():
    for K in range(1, 13):
        for B in range(1, K + 1):
            topo = Topology(K, B)
            for k in topo.users():
                for i in topo.relays():
                    assert (i in relays_of_user(topo, k)) == (k in users_of_relay(topo, i))


def test_cardinality():
    for K in range(1, 13):
        for B in range(1, K + 1):
            topo = Topology(K, B)
            assert all(len(relays_of_user(topo, k)) == B for k in topo.users())
            assert all(len(users_of_relay(topo, i)) == B for i in topo.relays())


def test_full_association_is_complete_bipartite():
    topo = Topology(6, 6)
    for k in topo.users():
        assert set(relays_of_user(topo, k)) == set(range(1, 7))
        assert users_of_relay(topo, k) == tuple(range(1, 7))


def test_index_validation():
    topo = Topology(4, 2)
    for bad in (0, 5, -1):
        with pytest.raises(InvalidIndexError):
            relays_of_user(topo, bad)
        with pytest.raises(InvalidIndexError):
            users_of_relay(topo, bad)
    with pytest.raises(ValueError):
        Topology(3, 4)
    with pytest.raises(ValueError):
        Topology(3, 0)


@given(st.integers(min_value=1, max_value=40), st.data())
def test_duality_sampled_larger(K, data):
    B = data.draw(st.integers(min_value=1, max_value=K))
    k = data.draw(st.integers(min_value=1, max_value=K))
    i = data.draw(st.integers(min_value=1, max_value=K))
    topo = Topology(K, B)
    assert (i in relays_of_user(topo, k)) == (k in users_of_relay(topo, i))


def test_arrays_agree_with_the_index_functions():
    for K in range(1, 13):
        for B in range(1, K + 1):
            topo = Topology(K, B)
            arrays = (topo.link_relay, topo.skipped_relay, topo.relay_links)
            assert [a.shape for a in arrays] == [(K, B), (K, K - B), (K, B)]
            for a in arrays:
                assert a.dtype == np.int64 and not a.flags.writeable
                with pytest.raises(ValueError):
                    a[...] = 0
            for k in topo.users():
                relays = relays_of_user(topo, k)
                assert tuple(topo.link_relay[k - 1] + 1) == relays
                skipped = tuple((k - 1 + t) % K + 1 for t in range(B, K))
                assert tuple(topo.skipped_relay[k - 1] + 1) == skipped
                assert set(relays).isdisjoint(skipped)
            for i in topo.relays():
                links = topo.relay_links[i - 1].tolist()
                # link (k-1)*B + j is link j of user k, and it reaches relay i
                assert tuple(link // B + 1 for link in links) == users_of_relay(topo, i)
                assert all(topo.link_relay[link // B, link % B] == i - 1 for link in links)
