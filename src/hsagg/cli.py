"""Batch entry point: build schemes, simulate rounds, audit, tabulate rates.

Subcommands:

    simulate       construct a scheme and run seeded random rounds
    audit          algebraic checks, optionally exhaustive enumeration;
                   --golden-example1 audits the hard-coded GF(3) instance
                   and takes no --K, --B or --q
    rates          achievable vs converse table over ranges of K and B
    search-params  the ratio or anchor of the validated scheme, and the
                   exact count of valid circulant ratios

A scheme is a function of (K, B, q): construction takes the smallest
valid ratio or anchor and draws nothing, so only simulate's rounds take
a --seed.  A JSON config file (--config, top-level "version": 1) may
supply any option: its keys are flag names, parsed with the same types
and choices (true gives a bare flag), and explicit flags win.  Reports
are JSON with sorted keys and carry "version": REPORT_VERSION, so an
identical config produces byte-identical output.  Exit codes: 0 all
pass, 2 construction failure, 3 audit/recovery failure, 4 bad
configuration, usage errors and unknown config keys too.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from .audit import StateSpaceError, full_audit, golden_example1
from .key_design import (
    REGIME_CIRCULANT,
    ConstructionError,
    circulant_valid_ratios,
    select_field,
    sufficient_field_size,
)
from .protocol import _uniform_rows, build_scheme, run_rounds
from .rates import achievable_rates, converse_bounds, measured_rates

EXIT_OK = 0
EXIT_CONSTRUCTION = 2
EXIT_AUDIT = 3
EXIT_CONFIG = 4

# Every report's "version"; it changes when identical flags can give a
# different report (2: construction takes the smallest valid ratio and
# anchor; 3: circulant points are the K-th roots of unity, with new fields,
# ratios and keys; 4: search-params counts valid ratios instead of sampling).
REPORT_VERSION = 4

# Most rows one rates table may select.  Every row, and the whole report
# text, are held before writing: at the cap the process peaks at about
# 220 MB for JSON and 110 MB for CSV on a 2-vCPU Intel Xeon VM.
MAX_RATE_ROWS = 50_000

CSV_COLUMNS = [
    "K", "B", "q",
    "RX_ach", "RY_ach", "RZ_ach", "RZS_ach",
    "RX_lb", "RY_lb", "RZ_lb", "RZS_lb",
    "gap_flags",
]


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ConfigError, so they exit 4 like bad values."""

    def error(self, message: str):
        raise ConfigError(message)


def _emit(text: "str | dict", out: "str | None") -> None:
    """Write text, or a report as sorted JSON, to out or stdout."""
    if isinstance(text, dict):
        text = json.dumps(text, indent=2, sort_keys=True) + "\n"
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write report {out}: {exc}") from exc
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
        summary.update(_chosen(params.keys))
    return summary


def _chosen(keys) -> dict:
    """A key design's regime, with its ratio or anchor where it has one."""
    found = {"ratio": keys.ratio, "anchor": keys.anchor}
    return {"regime": keys.regime, **{n: v for n, v in found.items() if v is not None}}


def _require(args, names) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        raise ConfigError(f"missing required option(s): {', '.join('--' + m for m in missing)}")


# Input symbols per batch of simulate rounds.  Larger batches buy little
# more speed and raise peak memory: all 2000 rounds of a (5, 3) run in one
# batch (30 000 symbols) cost 8% more peak RSS than batches of 4096.
_BATCH_SYMBOLS = 1 << 12


def _trial_seed(seed: int, trial: int, half: int) -> int:
    # Stable across processes; do not use hash() here, string hashing is
    # randomized per interpreter run.
    return (seed << 21) ^ (trial << 1) ^ half


def cmd_simulate(args) -> int:
    _require(args, ["K", "B"])
    params = build_scheme(args.K, args.B, q=args.q)
    L = args.L if args.L is not None else params.block_size
    if L % params.block_size:
        raise ConfigError(f"L={L} is not a multiple of block size {params.block_size}")
    trials = args.trials
    # With no trials, one round with trial 0's seeds still gives the rates.
    rounds = max(trials, 1)
    K, q = params.K, params.field.q
    per_batch = max(1, _BATCH_SYMBOLS // (K * L))
    passed = 0
    sample = None
    for start in range(0, rounds, per_batch):
        batch = range(start, min(start + per_batch, rounds))
        # One draw for the batch: each round's inputs are the ones
        # random_inputs(params, L, seed) gives for its input seed.
        w = _uniform_rows([_trial_seed(args.seed, t, 0) for t in batch], K * L, q)
        w = w.reshape(len(batch), K, L)
        results = run_rounds(params, w, [_trial_seed(args.seed, t, 1) for t in batch])
        if sample is None:
            sample = results[0]
        # The plain column sum of each round's inputs, independent of the
        # round kernels; the sample round of no trials is not counted.
        exact = (results.sums == w.sum(axis=1) % q).all(axis=1)
        passed += int(exact[: trials - start].sum())
    measured = measured_rates(sample.transcript, L)
    achievable = achievable_rates(args.K, args.B)
    bounds = converse_bounds(args.K, args.B)
    report = {
        "version": REPORT_VERSION,
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
        given = [f"--{n}" for n in ("K", "B", "q") if getattr(args, n) is not None]
        if given:
            raise ConfigError(
                f"--golden-example1 audits the fixed GF(3) scheme; drop {', '.join(given)}"
            )
        params = golden_example1()
        L = args.L if args.L is not None else 2
    else:
        _require(args, ["K", "B"])
        params = build_scheme(args.K, args.B, q=args.q)
        L = args.L if args.L is not None else params.block_size
    if L % params.block_size:
        raise ConfigError(f"L={L} is not a multiple of block size {params.block_size}")
    report_obj = full_audit(params, level=args.level, L=L, max_states=args.max_states)
    report = {
        "version": REPORT_VERSION,
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


def cmd_rates(args) -> int:
    _require(args, ["K"])
    # Rows need 2 <= K and 1 <= B <= K; B defaults to 1..K.
    Ks = range(max(args.K.start, 2), max(args.K.stop, 2))
    if args.B is None:
        Bs = range(1, Ks.stop)
        count = len(Ks) * (Ks.start + Ks.stop - 1) // 2  # K rows for each K
    else:
        Bs = range(max(args.B.start, 1), min(args.B.stop, Ks.stop))
        count = len(Ks) * len(Bs)
    if count > MAX_RATE_ROWS:
        raise ConfigError(
            f"--K and --B select up to {count} rows, above the cap of {MAX_RATE_ROWS}"
        )
    rows = []
    for K in Ks:
        for B in range(Bs.start, min(Bs.stop, K + 1)):
            ach = achievable_rates(K, B)
            lb = converse_bounds(K, B)
            try:
                q = select_field(K, B).q
            except ConstructionError:
                q = None  # above the modulus cap; the rates are closed-form
            rows.append(
                {
                    "K": K,
                    "B": B,
                    "q": q,
                    **{f"{name}_ach": v for name, v in ach.to_dict().items()},
                    **{f"{name}_lb": v for name, v in lb.to_dict().items()},
                    "gap_flags": "|".join(ach.gap_flags(lb)),
                }
            )
    if not rows:
        raise ConfigError("--K and --B select no (K, B) with 2 <= K and 1 <= B <= K")
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
        _emit(buf.getvalue(), args.out)
    else:
        _emit({"version": REPORT_VERSION, "command": "rates", "rows": rows}, args.out)
    return EXIT_OK


def cmd_search_params(args) -> int:
    _require(args, ["K", "B"])
    params = build_scheme(args.K, args.B, q=args.q)
    keys, q = params.keys, params.field.q
    report = {
        "version": REPORT_VERSION,
        "command": "search-params",
        "K": args.K,
        "B": args.B,
        "q": q,
        "regime": keys.regime,
    }
    if keys.regime == REGIME_CIRCULANT:
        bound = sufficient_field_size(args.K, args.B)
        valid = circulant_valid_ratios(params.field, args.K, args.B)
        report["sufficient_field_size"] = bound
        report["valid"] = valid
        report["valid_fraction"] = str(Fraction(valid, q))
        report["success_floor"] = str(max(Fraction(0), 1 - Fraction(bound, q)))
    report["chosen"] = _chosen(keys)
    _emit(report, args.out)
    return EXIT_OK


def _parse_range(text: str) -> range:
    lo, sep, hi = text.partition(":")
    try:
        lo = int(lo)
        hi = int(hi) if sep else lo
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad range {text!r}; expected N or LO:HI") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}; LO must not exceed HI")
    return range(lo, hi + 1)


def _at_least(minimum: int):
    """Argparse type for an integer no smaller than minimum."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; explicit flags win")
    sub.add_argument("--out", help="write the report to this path")


def build_parser() -> argparse.ArgumentParser:
    # Subparsers do not inherit allow_abbrev, so every parser sets it: a
    # prefix such as --trial or a config key "trial" is an unknown option.
    parser = _Parser(
        prog="hsagg",
        description="Hierarchical secure aggregation with cyclic association",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run seeded random rounds", allow_abbrev=False)
    sim.add_argument("--K", type=int)
    sim.add_argument("--B", type=int)
    sim.add_argument("--q", type=int)
    sim.add_argument("--L", type=_at_least(1))
    sim.add_argument("--trials", type=_at_least(0), default=100)
    sim.add_argument(
        "--seed", type=int, default=0, help="seed of each trial's inputs and source keys"
    )
    sim.add_argument(
        "--transcript",
        action="store_true",
        help="include one round's full transcript in the report",
    )
    _add_common(sim)
    sim.set_defaults(func=cmd_simulate)

    aud = sub.add_parser("audit", help="security and recovery audits", allow_abbrev=False)
    aud.add_argument("--K", type=int)
    aud.add_argument("--B", type=int)
    aud.add_argument("--q", type=int)
    aud.add_argument("--L", type=_at_least(1))
    aud.add_argument("--level", choices=["algebraic", "exhaustive"], default="algebraic")
    aud.add_argument("--max-states", type=_at_least(1), default=10**8)
    aud.add_argument(
        "--golden-example1",
        action="store_true",
        help="audit the hard-coded 3-user GF(3) scheme; no --K, --B or --q",
    )
    _add_common(aud)
    aud.set_defaults(func=cmd_audit)

    rts = sub.add_parser("rates", help="achievable vs converse rate table", allow_abbrev=False)
    rts.add_argument("--K", type=_parse_range, help="K or LO:HI")
    rts.add_argument("--B", type=_parse_range, help="B or LO:HI; default 1..K")
    rts.add_argument("--format", choices=["json", "csv"], default="json")
    _add_common(rts)
    rts.set_defaults(func=cmd_rates)

    srch = sub.add_parser("search-params", help="parameter search diagnostics", allow_abbrev=False)
    srch.add_argument("--K", type=int)
    srch.add_argument("--B", type=int)
    srch.add_argument("--q", type=int)
    _add_common(srch)
    srch.set_defaults(func=cmd_search_params)
    return parser


def _config_tokens(path: str) -> list[str]:
    """The options of a config file as flag tokens for the parser."""
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config file must hold a JSON object")
    version = config.pop("version", 1)
    if version != 1:
        raise ConfigError(f"unsupported config version {version}")
    tokens = []
    for key, value in config.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            tokens.append(flag)
        elif value is not False and value is not None:
            tokens.append(f"{flag}={value}")
    return tokens


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            # Config options go right after the subcommand, so later flags win.
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_tokens(args.config) + argv[at:])
        return args.func(args)
    except (ValueError, StateSpaceError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConstructionError as exc:
        print(f"construction error: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION


if __name__ == "__main__":
    sys.exit(main())
