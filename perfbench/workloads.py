"""The four benchmark workloads.

Each workload is a closed loop with one client.  ``prepare`` is its
set-up and builds every input from the seed; ``ops`` lists one pass of
ops, identical on every pass so that per-op counts do not depend on how
many passes fit in a run; ``run`` is the only timed call; ``check``
verifies the op's output outside the timed region; ``work`` gives the
units behind work_per_s.  Every call into hsagg goes through a module
attribute at call time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import json
import random
import re
import tempfile
from pathlib import Path

from hsagg import audit, cli, protocol

from tracer import audit_states


class Workload:
    """Defaults for the workloads below: no set-up, nothing to release."""

    def __init__(self, seed: int, tiny: bool, out_dir: Path):
        self.seed = seed
        self.tiny = tiny
        self.out_dir = out_dir

    def prepare(self) -> None:
        pass

    def close(self) -> None:
        pass


class RoundStream(Workload):
    """Long blockwise rounds on one prebuilt scheme: the protocol layer."""

    name = "round-stream"
    work_name = "input_symbols_per_s"
    input_sets = 4

    def __init__(self, seed: int, tiny: bool, out_dir: Path):
        super().__init__(seed, tiny, out_dir)
        self.K, self.B, self.L = (4, 2, 40) if tiny else (12, 6, 6000)

    def prepare(self) -> None:
        self.params = protocol.build_scheme(self.K, self.B, seed=self.seed)
        q = self.params.field.q
        rng = random.Random(self.seed)
        self.inputs = [
            {k: tuple(rng.randrange(q) for _ in range(self.L)) for k in range(1, self.K + 1)}
            for _ in range(self.input_sets)
        ]

    def ops(self) -> list:
        return list(range(self.input_sets))

    def run(self, op):
        return protocol.run_round(self.params, self.inputs[op], seed=self.seed * 16 + op)

    def check(self, op, result) -> bool:
        return result.recovered_sum == protocol.direct_sum(self.params, self.inputs[op])

    def work(self, op) -> int:
        return self.K * self.L


class BuildGrid(Workload):
    """Every (K, B) with 2 <= K <= 12, plus (14, 7): key search, MDS check, gf."""

    name = "build-grid"
    work_name = "schemes_per_s"

    def __init__(self, seed: int, tiny: bool, out_dir: Path):
        super().__init__(seed, tiny, out_dir)
        k_max = 5 if tiny else 12
        self.grid = [(K, B) for K in range(2, k_max + 1) for B in range(1, K + 1)]
        if not tiny:
            self.grid.append((14, 7))

    def ops(self) -> list:
        return self.grid

    def run(self, op):
        K, B = op
        return protocol.build_scheme(K, B, seed=self.seed)

    def check(self, op, result) -> bool:
        K, B = op
        return (
            (result.K, result.requested_B) == (K, B)
            and result.validation is not None
            and result.validation.passed
            and audit.algebraic_audit(result).passed
        )

    def work(self, op) -> int:
        return 1


_REALIZATIONS = re.compile(r"(\d+) realizations")


class AuditExhaustive(Workload):
    """Exhaustive exact-MI and recovery audits: numpy enumeration and count tables."""

    name = "audit-exhaustive"
    work_name = "states_per_s"

    def prepare(self) -> None:
        build = protocol.build_scheme
        s = self.seed
        self.items = [(audit.golden_example1(), 2), (build(2, 1, seed=s), 1)]
        if not self.tiny:
            self.items[1:] = [
                (build(3, 3, seed=s), 2),
                (build(4, 1, seed=s), 1),
                (build(2, 1, seed=s), 3),
                (build(3, 2, q=5, seed=s), 2),
                (build(3, 2, q=7, seed=s), 2),
            ]
        self.states = [audit_states(p, L) for p, L in self.items]

    def ops(self) -> list:
        return list(range(len(self.items)))

    def run(self, op):
        params, L = self.items[op]
        return audit.full_audit(params, level="exhaustive", L=L)

    def check(self, op, result) -> bool:
        # K relay-MI verdicts and the recovery verdict each name the
        # number of realizations they enumerated.
        params, _ = self.items[op]
        counts = [int(m) for c in result.checks for m in _REALIZATIONS.findall(c.detail)]
        return (
            result.passed
            and len(counts) == params.K + 1
            and all(n == self.states[op] for n in counts)
        )

    def work(self, op) -> int:
        return self.states[op]


class SimulateCli(Workload):
    """In-process ``hsagg simulate`` calls: CLI overhead and many tiny rounds."""

    name = "simulate-cli"
    work_name = "input_symbols_per_s"
    cli_seeds = 4

    def __init__(self, seed: int, tiny: bool, out_dir: Path):
        super().__init__(seed, tiny, out_dir)
        self.K, self.B, self.trials = (3, 2, 20) if tiny else (5, 3, 2000)

    def prepare(self) -> None:
        self.tmp = tempfile.TemporaryDirectory(dir=self.out_dir)
        self.reference: dict[int, bytes] = {}

    def ops(self) -> list:
        return [self.seed * self.cli_seeds + j for j in range(self.cli_seeds)]

    def _out(self, op) -> str:
        return str(Path(self.tmp.name) / f"simulate-{op}.json")

    def run(self, op):
        argv = [
            "simulate", "--K", str(self.K), "--B", str(self.B),
            "--trials", str(self.trials), "--seed", str(op), "--out", self._out(op),
        ]
        return cli.main(argv)

    def check(self, op, result) -> bool:
        if result != 0:
            return False
        data = Path(self._out(op)).read_bytes()
        trials = json.loads(data)["trials"]
        first = self.reference.setdefault(op, data)
        return trials["requested"] == trials["exact_recoveries"] == self.trials and data == first

    def work(self, op) -> int:
        # L defaults to the block size B; one extra round samples the rates.
        return self.K * self.B * (self.trials + 1)

    def close(self) -> None:
        self.tmp.cleanup()


WORKLOADS = {w.name: w for w in (RoundStream, BuildGrid, AuditExhaustive, SimulateCli)}
