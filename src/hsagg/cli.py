"""Batch entry point: build schemes, simulate rounds, audit, tabulate rates.

Subcommands:

    simulate       construct a scheme and run seeded random rounds
    audit          algebraic checks, optionally exhaustive enumeration;
                   --golden-example1 audits the hard-coded GF(3) instance
    rates          achievable vs converse table over ranges of K and B
    search-params  circulant ratio search diagnostics and Monte Carlo
                   validity fraction

A JSON config file (--config, top-level "version": 1) may supply any
option; explicit flags win.  Reports are JSON with sorted keys, so an
identical config and seed produces byte-identical output.  Exit codes:
0 all pass, 2 construction failure, 3 audit/recovery failure, 4 bad
configuration.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from .audit import StateSpaceError, full_audit, golden_example1
from .key_design import ConstructionError, select_field, sufficient_field_size
from .protocol import build_scheme, direct_sum, random_inputs, run_round
from .rates import achievable_rates, converse_bounds, measured_rates

EXIT_OK = 0
EXIT_CONSTRUCTION = 2
EXIT_AUDIT = 3
EXIT_CONFIG = 4

CSV_COLUMNS = [
    "K", "B", "q",
    "RX_ach", "RY_ach", "RZ_ach", "RZS_ach",
    "RX_lb", "RY_lb", "RZ_lb", "RZS_lb",
    "gap_flags",
]


class ConfigError(ValueError):
    pass


def _emit(report: dict, out: "str | None") -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _scheme_summary(params) -> dict:
    summary = {
        "K": params.K,
        "B": params.requested_B,
        "coded_B": params.topo.B,
        "q": params.field.q,
        "block_size": params.block_size,
        "source_key_len": params.source_key_len,
    }
    if params.keys is not None:
        summary["regime"] = params.keys.regime
        if params.keys.ratio is not None:
            summary["ratio"] = params.keys.ratio
        if params.keys.anchor is not None:
            summary["anchor"] = params.keys.anchor
    return summary


def _require(args, names) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        raise ConfigError(f"missing required option(s): {', '.join('--' + m for m in missing)}")


def _trial_seed(seed: int, trial: int, half: int) -> int:
    # Stable across processes; do not use hash() here, string hashing is
    # randomized per interpreter run.
    return (seed << 21) ^ (trial << 1) ^ half


def cmd_simulate(args) -> int:
    _require(args, ["K", "B"])
    params = build_scheme(args.K, args.B, q=args.q, seed=args.seed)
    L = args.L if args.L is not None else params.block_size
    if L % params.block_size:
        raise ConfigError(f"L={L} is not a multiple of block size {params.block_size}")
    trials = args.trials
    passed = 0
    for t in range(trials):
        inputs = random_inputs(params, L, seed=_trial_seed(args.seed, t, 0))
        result = run_round(params, inputs, seed=_trial_seed(args.seed, t, 1))
        passed += result.recovered_sum == direct_sum(params, inputs)

    sample = run_round(params, random_inputs(params, L, seed=_trial_seed(args.seed, 0, 0)),
                       seed=_trial_seed(args.seed, 0, 1))
    measured = measured_rates(sample.transcript, L)
    achievable = achievable_rates(args.K, args.B)
    bounds = converse_bounds(args.K, args.B)
    report = {
        "version": 1,
        "command": "simulate",
        "scheme": _scheme_summary(params),
        "L": L,
        "trials": {"requested": trials, "exact_recoveries": passed},
        "rates": {
            "measured": measured.to_dict(),
            "achievable": achievable.to_dict(),
            "converse": bounds.to_dict(),
            "matches_achievable": measured == achievable,
            "dominates_converse": measured.dominates(bounds),
        },
    }
    if args.transcript:
        report["sample_transcript"] = sample.transcript.to_dict()
    _emit(report, args.out)
    return EXIT_OK if passed == trials else EXIT_AUDIT


def cmd_audit(args) -> int:
    if args.golden_example1:
        params = golden_example1()
        L = args.L if args.L is not None else 2
    else:
        _require(args, ["K", "B"])
        params = build_scheme(args.K, args.B, q=args.q, seed=args.seed)
        L = args.L if args.L is not None else params.block_size
    if L % params.block_size:
        raise ConfigError(f"L={L} is not a multiple of block size {params.block_size}")
    report_obj = full_audit(params, level=args.level, L=L, max_states=args.max_states)
    report = {
        "version": 1,
        "command": "audit",
        "scheme": _scheme_summary(params),
        "L": L,
        "level": args.level,
        "report": report_obj.to_dict(),
    }
    if params.validation is not None:
        report["construction_validation"] = params.validation.to_dict()
    _emit(report, args.out)
    return EXIT_OK if report_obj.passed else EXIT_AUDIT


def _parse_range(text: str) -> list[int]:
    lo, sep, hi = str(text).partition(":")
    try:
        if not sep:
            return [int(lo)]
        return list(range(int(lo), int(hi) + 1))
    except ValueError as exc:
        raise ConfigError(f"bad range {text!r}; expected N or LO:HI") from exc


def cmd_rates(args) -> int:
    if args.K_range is None:
        raise ConfigError("missing required option --K")
    ks = _parse_range(args.K_range)
    rows = []
    for K in ks:
        bs = _parse_range(args.B_range) if args.B_range else list(range(1, K + 1))
        for B in bs:
            if not 1 <= B <= K:
                continue
            ach = achievable_rates(K, B)
            lb = converse_bounds(K, B)
            rows.append(
                {
                    "K": K,
                    "B": B,
                    "q": select_field(K, B).q,
                    "RX_ach": str(ach.user_upload),
                    "RY_ach": str(ach.relay_upload),
                    "RZ_ach": str(ach.user_key),
                    "RZS_ach": str(ach.source_key),
                    "RX_lb": str(lb.user_upload),
                    "RY_lb": str(lb.relay_upload),
                    "RZ_lb": str(lb.user_key),
                    "RZS_lb": str(lb.source_key),
                    "gap_flags": "|".join(ach.gap_flags(lb)),
                }
            )
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    else:
        _emit({"version": 1, "command": "rates", "rows": rows}, args.out)
    return EXIT_OK


def cmd_search_params(args) -> int:
    _require(args, ["K", "B"])
    from .code_design import default_points
    from .key_design import (
        REGIME_CIRCULANT,
        build_keys,
        regime_for,
        sample_circulant_validity,
    )
    from .gf import PrimeField

    field = PrimeField(args.q) if args.q else select_field(args.K, args.B)
    points = default_points(field, args.K)
    regime = regime_for(args.K, args.B)
    report = {
        "version": 1,
        "command": "search-params",
        "K": args.K,
        "B": args.B,
        "q": field.q,
        "regime": regime,
    }
    if regime == REGIME_CIRCULANT:
        bound = sufficient_field_size(args.K, args.B)
        valid = sample_circulant_validity(
            args.K, args.B, field, points, args.samples, args.seed
        )
        report["sufficient_field_size"] = bound
        report["samples"] = args.samples
        report["valid"] = valid
        report["valid_fraction"] = str(Fraction(valid, args.samples))
        report["success_floor"] = str(max(Fraction(0), 1 - Fraction(bound, field.q)))
    keys = build_keys(args.K, args.B, field, points, args.seed)
    report["chosen"] = {"regime": keys.regime}
    if keys.ratio is not None:
        report["chosen"]["ratio"] = keys.ratio
    if keys.anchor is not None:
        report["chosen"]["anchor"] = keys.anchor
    _emit(report, args.out)
    return EXIT_OK


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; explicit flags win")
    sub.add_argument("--seed", type=int, default=None, help="seed for searches and rounds")
    sub.add_argument("--out", default=None, help="write the report to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsagg",
        description="Hierarchical secure aggregation with cyclic association",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run seeded random rounds")
    sim.add_argument("--K", type=int)
    sim.add_argument("--B", type=int)
    sim.add_argument("--q", type=int, default=None)
    sim.add_argument("--L", type=int, default=None)
    sim.add_argument("--trials", type=int, default=None)
    sim.add_argument(
        "--transcript",
        action="store_true",
        help="include one round's full transcript in the report",
    )
    _add_common(sim)
    sim.set_defaults(func=cmd_simulate)

    aud = sub.add_parser("audit", help="security and recovery audits")
    aud.add_argument("--K", type=int)
    aud.add_argument("--B", type=int)
    aud.add_argument("--q", type=int, default=None)
    aud.add_argument("--L", type=int, default=None)
    aud.add_argument("--level", choices=["algebraic", "exhaustive"], default=None)
    aud.add_argument("--max-states", dest="max_states", type=int, default=None)
    aud.add_argument(
        "--golden-example1",
        action="store_true",
        help="audit the hard-coded 3-user GF(3) scheme",
    )
    _add_common(aud)
    aud.set_defaults(func=cmd_audit)

    rts = sub.add_parser("rates", help="achievable vs converse rate table")
    rts.add_argument("--K", dest="K_range", default=None, help="K or LO:HI")
    rts.add_argument("--B", dest="B_range", default=None, help="B or LO:HI; default 1..K")
    rts.add_argument("--format", choices=["json", "csv"], default=None)
    _add_common(rts)
    rts.set_defaults(func=cmd_rates)

    srch = sub.add_parser("search-params", help="parameter search diagnostics")
    srch.add_argument("--K", type=int)
    srch.add_argument("--B", type=int)
    srch.add_argument("--q", type=int, default=None)
    srch.add_argument("--samples", type=int, default=None)
    _add_common(srch)
    srch.set_defaults(func=cmd_search_params)
    return parser


_DEFAULTS = {
    "seed": 0,
    "trials": 100,
    "level": "algebraic",
    "max_states": 10**8,
    "samples": 200,
    "format": "json",
    "K_range": None,
    "B_range": None,
}


def _apply_config(args: argparse.Namespace) -> None:
    """Fill unset options from the config file, then from defaults."""
    config = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(config, dict):
            raise ConfigError("config file must hold a JSON object")
        version = config.pop("version", 1)
        if version != 1:
            raise ConfigError(f"unsupported config version {version}")
    for key, value in config.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr) and hasattr(args, attr + "_range"):
            attr += "_range"
        if hasattr(args, attr) and getattr(args, attr) in (None, False):
            setattr(args, attr, value)
    for key, value in _DEFAULTS.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, value)


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, StateSpaceError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConstructionError as exc:
        print(f"construction error: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION


if __name__ == "__main__":
    sys.exit(main())
