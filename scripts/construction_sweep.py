#!/usr/bin/env python3
"""Build every (K, B) scheme in a range and summarize what came out.

For each configuration: the selected field, the key regime and its
chosen ratio or anchor (the smallest valid one), the five structural
validation checks, the algebraic security audit, and one ``run_rounds``
batch of seeded random rounds, each checked against the plain
componentwise sum.

    python scripts/construction_sweep.py --K-max 8 --trials 50
"""

import argparse
import sys
import time

from hsagg.audit import algebraic_audit
from hsagg.protocol import build_scheme, direct_sum, random_inputs, run_rounds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--K-min", type=int, default=2)
    parser.add_argument("--K-max", type=int, default=8)
    parser.add_argument("--trials", type=int, default=50)
    args = parser.parse_args()

    failures = 0
    header = f"{'K':>2} {'B':>2} {'q':>10} {'regime':<11} {'param':>10} {'valid':>5} {'audit':>5} {'recover':>9} {'secs':>6}"
    print(header)
    print("-" * len(header))
    for K in range(args.K_min, args.K_max + 1):
        for B in range(1, K + 1):
            started = time.monotonic()
            params = build_scheme(K, B)
            param = params.keys.ratio if params.keys.ratio is not None else params.keys.anchor
            valid = params.validation.passed
            audit = algebraic_audit(params).passed
            inputs = [random_inputs(params, params.block_size, seed=t) for t in range(args.trials)]
            results = run_rounds(params, inputs, [t + 1 for t in range(args.trials)])
            exact = sum(r.recovered_sum == direct_sum(params, w) for r, w in zip(results, inputs))
            elapsed = time.monotonic() - started
            ok = valid and audit and exact == args.trials
            failures += not ok
            print(
                f"{K:>2} {B:>2} {params.field.q:>10} {params.keys.regime:<11} "
                f"{param if param is not None else '-':>10} {str(valid):>5} {str(audit):>5} "
                f"{exact:>4}/{args.trials:<4} {elapsed:>6.2f}"
            )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
