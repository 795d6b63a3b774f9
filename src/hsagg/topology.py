"""Cyclic wrap-around user-relay association.

K users face K relays.  User k uploads to the B consecutive relays
k, k+1, ..., k+B-1, with indices wrapping past K back to 1.  All public
indices are 1-based; off-by-one bugs here would poison every matrix built
downstream, so the wrap arithmetic lives only in this module.  Link j of
user k goes to relay ``relays_of_user(topo, k)[j]`` and has the id
(k-1)*B + j.  Array code reads the association from a ``Topology``'s
three read-only int64 arrays of 0-based indices, each built on first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


class InvalidIndexError(IndexError):
    pass


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Topology:
    """K users/relays with association count B, 1 <= B <= K."""

    K: int
    B: int

    def __post_init__(self):
        if self.K < 1:
            raise ValueError(f"K must be positive, got {self.K}")
        if not 1 <= self.B <= self.K:
            raise ValueError(f"B must lie in [1, {self.K}], got {self.B}")

    def users(self) -> range:
        return range(1, self.K + 1)

    def relays(self) -> range:
        return range(1, self.K + 1)

    @cached_property
    def link_relay(self) -> np.ndarray:
        """Entry [k-1, j] is relays_of_user(self, k)[j] - 1."""
        return _read_only((np.arange(self.K)[:, None] + np.arange(self.B)) % self.K)

    @cached_property
    def skipped_relay(self) -> np.ndarray:
        """Row k-1 holds the relays user k skips, k+B, ..., k+K-1 taken cyclically, less 1."""
        return _read_only((np.arange(self.K)[:, None] + np.arange(self.B, self.K)) % self.K)

    @cached_property
    def relay_links(self) -> np.ndarray:
        """Row i-1 holds the ids (k-1)*B + j of the links to relay i, by ascending user k."""
        j = np.arange(self.B)
        senders = (np.arange(self.K)[:, None] - j) % self.K  # whose link j reaches relay i
        return _read_only(np.sort(senders * self.B + j, axis=1))


def _check_index(topo: Topology, idx: int, kind: str) -> None:
    if not 1 <= idx <= topo.K:
        raise InvalidIndexError(f"{kind} index {idx} outside [1, {topo.K}]")


def relays_of_user(topo: Topology, k: int) -> tuple[int, ...]:
    """Relays receiving user k's uploads, in cyclic order starting at k."""
    _check_index(topo, k, "user")
    return tuple((k - 1 + t) % topo.K + 1 for t in range(topo.B))


def users_of_relay(topo: Topology, i: int) -> tuple[int, ...]:
    """Users uploading to relay i, in ascending index order."""
    _check_index(topo, i, "relay")
    return tuple(sorted((i - 1 - t) % topo.K + 1 for t in range(topo.B)))
