import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from hsagg import cli, protocol

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_simulate_report(capsys):
    code, out, _ = run_cli(
        ["simulate", "--K", "3", "--B", "2", "--trials", "25", "--seed", "7"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["version"] == cli.REPORT_VERSION == 2
    assert report["trials"] == {"requested": 25, "exact_recoveries": 25}
    assert report["rates"]["matches_achievable"] is True
    assert report["rates"]["measured"] == {"RX": "1", "RY": "1/2", "RZ": "1/2", "RZS": "1"}
    assert report["scheme"]["q"] == 7


def test_simulate_full_association(capsys):
    code, out, _ = run_cli(
        ["simulate", "--K", "5", "--B", "5", "--trials", "10"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["rates"]["measured"] == {"RX": "1", "RY": "1/4", "RZ": "1/4", "RZS": "1"}
    assert report["scheme"]["coded_B"] == 4


def test_simulate_deterministic_output(tmp_path):
    # Reports repeat across processes, whatever the interpreter's string-hash seed.
    argv = [sys.executable, "-m", "hsagg.cli", "simulate", "--K", "4", "--B", "2",
            "--trials", "12", "--seed", "3"]
    reports = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"simulate-{hash_seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
        subprocess.run(argv + ["--out", str(out)], env=env, check=True, timeout=60)
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["trials"] == {"requested": 12, "exact_recoveries": 12}


def test_simulate_rejects_bad_length(capsys):
    code, _, err = run_cli(["simulate", "--K", "3", "--B", "2", "--L", "3"], capsys)
    assert code == cli.EXIT_CONFIG
    assert "multiple" in err


def test_simulate_rejects_composite_field(capsys):
    code, _, err = run_cli(["simulate", "--K", "3", "--B", "2", "--q", "6"], capsys)
    assert code == cli.EXIT_CONFIG
    assert "prime" in err


def test_simulate_field_over_cap_is_construction_error(capsys):
    code, _, err = run_cli(["simulate", "--K", "24", "--B", "12"], capsys)
    assert code == cli.EXIT_CONSTRUCTION == 2
    assert "construction error" in err and "2**31" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--K", "2", "--B", "2", "--q", "3"],
        ["simulate", "--K", "4", "--B", "1", "--q", "5"],
        ["audit", "--K", "4", "--B", "1", "--q", "5"],
    ],
    ids=["full-on-single", "single", "audit-single"],
)
def test_single_regime_field_too_small_is_construction_error(capsys, argv):
    # The same domain limit as a circulant field too small for any ratio.
    code, _, err = run_cli(argv, capsys)
    assert code == cli.EXIT_CONSTRUCTION == 2
    assert err.startswith("construction error: ") and "q > K+1" in err


def test_audit_proves_a_large_vandermonde_key_matrix(capsys):
    # Its key-matrix-mds gate would take C(40, 21) = 1.3e11 subsets.
    code, out, _ = run_cli(["audit", "--K", "40", "--B", "21"], capsys)
    assert code == 0
    assert json.loads(out)["construction_validation"]["passed"] is True


def test_audit_past_the_subset_budget_is_construction_error(capsys):
    code, _, err = run_cli(["audit", "--K", "40", "--B", "20", "--q", "241"], capsys)
    assert code == cli.EXIT_CONSTRUCTION == 2
    assert err.startswith("construction error: ") and "137846528820 subsets" in err


def test_simulate_transcript_schema(capsys):
    code, out, _ = run_cli(
        ["simulate", "--K", "3", "--B", "2", "--trials", "2", "--L", "4", "--transcript"],
        capsys,
    )
    assert code == 0
    t = json.loads(out)["sample_transcript"]
    assert t["input_len"] == 4
    assert set(t["sizes"]) == {"per_user", "per_relay", "per_user_key", "source_key"}
    assert t["sizes"]["per_user"] == 4
    assert len(t["user_messages"]) == 6  # (user, relay) pairs on the association
    assert all(len(v) == 2 for v in t["relay_messages"].values())


def test_audit_exhaustive_constructed_small_field(capsys):
    code, out, _ = run_cli(
        ["audit", "--K", "3", "--B", "2", "--q", "5", "--level", "exhaustive", "--L", "2"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["report"]["passed"] is True


def test_audit_golden_exhaustive(capsys):
    code, out, _ = run_cli(["audit", "--golden-example1", "--level", "exhaustive"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["report"]["passed"] is True
    names = {c["name"] for c in report["report"]["checks"]}
    assert "server-mi" in names and "recovery-exhaustive" in names


def test_audit_algebraic_constructed(capsys):
    code, out, _ = run_cli(["audit", "--K", "6", "--B", "3"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["report"]["passed"] is True
    assert report["construction_validation"]["passed"] is True


def test_audit_construction_failure_exit_code(capsys):
    # 4 does not divide 7 - 1, so the circulant regime refuses this field
    code, _, err = run_cli(["audit", "--K", "4", "--B", "2", "--q", "7"], capsys)
    assert code == cli.EXIT_CONSTRUCTION
    assert "construction error" in err


def test_audit_failure_exit_code(capsys, monkeypatch):
    from hsagg.audit import AuditReport
    from hsagg.key_design import CheckResult

    def fake_audit(params, level="algebraic", L=None, max_states=0):
        return AuditReport((CheckResult("forced", False, "synthetic failure"),))

    monkeypatch.setattr(cli, "full_audit", fake_audit)
    code, out, _ = run_cli(["audit", "--K", "3", "--B", "2"], capsys)
    assert code == cli.EXIT_AUDIT
    assert json.loads(out)["report"]["passed"] is False


def test_simulate_counts_a_wrong_sum_as_a_failed_recovery(capsys, monkeypatch):
    # One wrong symbol in round 0 of each batch: 700 rounds of K * L = 8
    # symbols run as two batches of up to 512.
    run_rounds = cli.run_rounds

    def off_by_one(params, inputs, seeds):
        results = run_rounds(params, inputs, seeds)
        sums = results.sums.copy()
        sums[0, -1] = (sums[0, -1] + 1) % params.field.q
        return protocol.RoundBatch(params, sums, results._x, results._y)

    monkeypatch.setattr(cli, "run_rounds", off_by_one)
    code, out, _ = run_cli(["simulate", "--K", "4", "--B", "2", "--trials", "700"], capsys)
    assert code == cli.EXIT_AUDIT
    assert json.loads(out)["trials"] == {"requested": 700, "exact_recoveries": 698}


def test_audit_state_cap_maps_to_config_error(capsys):
    code, _, err = run_cli(
        ["audit", "--K", "3", "--B", "2", "--level", "exhaustive", "--max-states", "100"],
        capsys,
    )
    assert code == cli.EXIT_CONFIG


def test_rates_csv_table(capsys):
    code, out, _ = run_cli(["rates", "--K", "8", "--B", "3", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(cli.CSV_COLUMNS)
    assert lines[1] == "8,3,4001,1,1/3,1/3,5/3,1,1/3,1/3,5/3,"


def test_rates_json_flags_full_association_gap(capsys):
    code, out, _ = run_cli(["rates", "--K", "2:4"], capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    by_kb = {(r["K"], r["B"]): r for r in rows}
    assert len(rows) == 2 + 3 + 4
    assert by_kb[(4, 4)]["gap_flags"] == "RZ"
    assert by_kb[(4, 3)]["gap_flags"] == ""
    assert by_kb[(3, 1)]["RZS_ach"] == "2"


def test_rates_above_modulus_cap_leave_q_empty(capsys):
    # From (23, 10) on the field would exceed the 2**31 cap; the rates are
    # closed-form and stay in the table.
    code, out, _ = run_cli(["rates", "--K", "22:23", "--B", "10"], capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [(r["K"], r["q"]) for r in rows] == [(22, 1466593943), (23, None)]
    assert rows[1]["RZS_ach"] == "13/10" and rows[1]["RY_lb"] == "1/10"
    code, out, _ = run_cli(["rates", "--K", "23", "--B", "10", "--format", "csv"], capsys)
    assert code == 0
    assert out.strip().splitlines()[1] == "23,10,,1,1/10,1/10,13/10,1,1/10,1/10,13/10,"


def test_simulate_runs_one_round_per_trial(capsys, monkeypatch):
    # Every round, batched or not, draws from two seeds, its inputs' and
    # its source key's, and from each of them once.
    drawn = []

    class Recording(random.Random):
        def seed(self, a=None, version=2):
            self.drawn_seed = a
            super().seed(a, version)

        def getrandbits(self, k):
            drawn.append(self.drawn_seed)
            return super().getrandbits(k)

    monkeypatch.setattr(protocol.random, "Random", Recording)
    argv = ["simulate", "--K", "4", "--B", "2", "--seed", "5", "--transcript"]
    reports = []
    # 700 rounds of K * L = 8 symbols span more than one batch.
    for trials in (0, 1, 3, 700):
        code, out, _ = run_cli(argv + ["--trials", str(trials)], capsys)
        seeds = [cli._trial_seed(5, t, half) for t in range(max(trials, 1)) for half in (0, 1)]
        assert code == 0 and len(drawn) == 2 * max(trials, 1)
        assert sorted(drawn) == sorted(seeds)
        drawn.clear()
        reports.append(json.loads(out))
    # With no trials the rates still come from a round with trial 0's seeds.
    for report in reports[1:]:
        assert report["sample_transcript"] == reports[0]["sample_transcript"]
        assert report["rates"] == reports[0]["rates"]


def test_rates_requires_K(capsys):
    code, _, err = run_cli(["rates"], capsys)
    assert code == cli.EXIT_CONFIG


def test_search_params_reports_fraction(capsys):
    code, out, _ = run_cli(
        ["search-params", "--K", "4", "--B", "2", "--samples", "50", "--seed", "1"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["regime"] == "circulant"
    assert report["sufficient_field_size"] == 46
    assert report["q"] == 53
    assert 0 <= report["valid"] <= 50
    assert "ratio" in report["chosen"]

    # chosen is the ratio or anchor of the scheme that build_scheme validates
    for K, B, q in [(5, 1, None), (4, 2, None), (4, 2, 13), (5, 3, None), (4, 4, None)]:
        argv = ["search-params", "--K", str(K), "--B", str(B)]
        code, out, _ = run_cli(argv + (["--q", str(q)] if q else []), capsys)
        assert code == 0
        report = json.loads(out)
        keys = protocol.build_scheme(K, B, q).keys
        chosen = {n: getattr(keys, n) for n in ("ratio", "anchor") if getattr(keys, n) is not None}
        assert report["chosen"] == {"regime": keys.regime, **chosen}
        assert report["regime"] == keys.regime

    # q = 5 fits 4 | q - 1 but has no valid ratio
    code, out, err = run_cli(["search-params", "--K", "4", "--B", "2", "--q", "5"], capsys)
    assert code == cli.EXIT_CONSTRUCTION
    assert out == "" and err.startswith("construction error: ")


def test_config_file_merging(capsys, tmp_path):
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({"version": 1, "K": 3, "B": 2, "trials": 5, "seed": 2}))
    code, out, _ = run_cli(["simulate", "--config", str(conf), "--trials", "8"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["trials"]["requested"] == 8  # flag beats config
    assert report["scheme"]["K"] == 3
    flags = ["simulate", "--K", "3", "--B", "2", "--trials", "8", "--seed", "2"]
    assert run_cli(flags, capsys) == (0, out, "")


def test_config_values_are_parsed_like_flags(capsys, tmp_path):
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({"version": 1, "K": 3, "B": 2, "trials": "5", "transcript": True}))
    code, out, _ = run_cli(["simulate", "--config", str(conf)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["trials"] == {"requested": 5, "exact_recoveries": 5}
    assert "sample_transcript" in report


@pytest.mark.parametrize(
    "argv, config, named",
    [
        (["simulate", "--K", "x"], None, "--K"),
        (["audit", "--level", "bogus"], None, "--level"),
        ([], None, "command"),
        (["simulate"], {"K": 3, "B": 2, "trails": 5}, "--trails"),
        (["rates"], {"K": "2:4", "format": "xml"}, "--format"),
        (["simulate", "--K", "3", "--B", "2", "--trials", "-1"], None, "--trials"),
        (["search-params", "--K", "4", "--B", "2", "--samples", "0"], None, "--samples"),
        (["simulate", "--K", "3", "--B", "2", "--trial", "7"], None, "--trial"),
        (["simulate"], {"K": 3, "B": 2, "trial": 7}, "--trial"),
        (["search-params", "--K", "4", "--B", "2", "--q", "0"], None, "modulus"),
        (["rates", "--K", "3", "--seed", "1"], None, "--seed"),
        (["audit", "--K", "3", "--B", "2", "--seed", "1"], None, "--seed"),
        (["audit"], {"K": 3, "B": 2, "seed": 1}, "--seed"),
        (["simulate", "--K", "3", "--B", "2", "--L", "0"], None, "--L"),
        (["audit", "--K", "3", "--B", "2", "--L", "0"], None, "--L"),
        (["audit", "--K", "3", "--B", "2", "--L", "-2"], None, "--L"),
        (["audit", "--K", "3", "--B", "2", "--max-states", "0"], None, "--max-states"),
        (["audit", "--K", "3", "--B", "2", "--q", "7", "--L", "2", "--level", "exhaustive",
          "--max-states", "-1"], None, "--max-states"),
        (["rates", "--K", "5:3"], None, "--K"),
        (["rates", "--K", "5", "--B", "3:1"], None, "--B"),
        (["audit", "--golden-example1", "--K", "4", "--B", "2"], None, "--K, --B"),
        (["audit", "--golden-example1"], {"q": 5}, "--q"),
        (["audit"], {"golden_example1": True, "K": 4}, "--K"),
        (["rates", "--K", "2:3", "--B", "5"], None, "1 <= B <= K"),
        (["simulate", "--K", "3", "--B", "2", "--trials", "2", "--out", "{tmp}/missing/x.json"],
         None, "cannot write report"),
    ],
    ids=["bad-int", "bad-choice", "no-subcommand", "unknown-key", "config-bad-choice",
         "negative-trials", "zero-samples", "flag-prefix", "config-key-prefix",
         "search-zero-modulus", "rates-seed", "audit-seed", "audit-config-seed",
         "simulate-zero-L", "audit-zero-L", "audit-negative-L", "zero-max-states",
         "negative-max-states", "rates-inverted-K", "rates-inverted-B",
         "golden-with-K-B", "golden-config-q", "golden-config-K", "rates-no-pairs",
         "out-missing-dir"],
)
def test_usage_errors_exit_config(capsys, tmp_path, argv, config, named):
    argv = [a.format(tmp=tmp_path) for a in argv]
    if config is not None:
        conf = tmp_path / "run.json"
        conf.write_text(json.dumps(config))
        argv = argv + ["--config", str(conf)]
    code, _, err = run_cli(argv, capsys)
    assert code == cli.EXIT_CONFIG
    assert err.startswith("config error: ") and named in err


def test_ranges_keep_single_values_and_equal_ends(capsys):
    code, out, _ = run_cli(["rates", "--K", "4:4", "--B", "2"], capsys)
    assert code == 0
    assert [(r["K"], r["B"]) for r in json.loads(out)["rows"]] == [(4, 2)]


def test_config_file_version_check(capsys, tmp_path):
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({"version": 9, "K": 3, "B": 2}))
    code, _, err = run_cli(["simulate", "--config", str(conf)], capsys)
    assert code == cli.EXIT_CONFIG
    assert "version" in err


def test_missing_required_options(capsys):
    code, _, err = run_cli(["simulate", "--B", "2"], capsys)
    assert code == cli.EXIT_CONFIG
    assert "--K" in err
