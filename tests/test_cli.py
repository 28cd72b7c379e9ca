import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stripdep import (
    BoundaryMode,
    EnsembleConfig,
    EnsembleConfigError,
    EnumerationLimitError,
    GapRecursionTable,
    RootSet,
    abc_recursion,
    empirical_gap_average,
    gap_moments,
    gap_vector,
    gaps,
    height_growth_estimate,
    laws,
)
from stripdep.cli import build_parser, main, parse_args
from stripdep.ensemble import block_tallies
from stripdep.ratpoly import RationalPolynomial
from stripdep.roots import first_step_root_counts


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_json(capsys):
    code, out, err = run_cli(capsys, "simulate", "--K", "30", "--runs", "500",
                             "--seed", "3", "--stat", "roots")
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 3
    assert payload["config"]["runs"] == 500
    assert abs(payload["statistics"]["roots"]["mean"] - 10) < 1.0
    assert "simulated 500 runs" in err


def test_simulate_rejects_small_width(capsys):
    code, _, err = run_cli(capsys, "simulate", "--K", "2")
    assert code == 2
    assert ">= 3" in err


def test_simulate_gap_statistics_need_lengths(capsys):
    code, _, err = run_cli(capsys, "simulate", "--K", "30", "--stat", "gaps")
    assert code == 2


@pytest.mark.parametrize("single, repeat", [
    (("simulate", "--K", "12", "--runs", "100", "--seed", "1", "--stat", "gaps", "--i", "2"),
     ("--i", "2", "--stat", "gaps")),
    (("exact-gaps", "--K", "6", "--i", "1"), ("--i", "1")),
    (("oracle", "--K", "5", "--i", "1"), ("--i", "1")),
])
def test_a_repeated_gap_length_is_reported_once(capsys, single, repeat):
    code, out, _ = run_cli(capsys, *single)
    assert code == 0
    assert run_cli(capsys, *single, *repeat)[:2] == (0, out)


@pytest.mark.parametrize("argv, message", [
    (("--K", "10", "--runs", "5", "--stat", "roots", "--i", "3"),
     "error: gap lengths [3] need the 'gaps' statistic\n"),
    (("--K", "10", "--runs", "5", "--seed", "-1"), "error: seed must be >= 0, got -1\n"),
])
def test_simulate_names_the_inconsistent_setting(capsys, argv, message):
    code, out, err = run_cli(capsys, "simulate", *argv)
    assert (code, out, err) == (2, "", message)


def test_simulate_outputs_are_deterministic(capsys):
    argv = ("simulate", "--K", "40", "--runs", "400", "--seed", "1",
            "--stat", "gaps", "--i", "1", "--i", "2")
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_simulate_csv_histograms(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--K", "20", "--runs", "300",
                           "--seed", "2", "--stat", "roots", "--format", "csv")
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(lines))))
    assert rows[0] == ["statistic", "bin", "count"]
    body = [r for r in rows[1:] if r]
    assert sum(int(r[2]) for r in body) == 300
    assert all(r[0] == "roots" for r in body)
    # config is embedded as comments
    assert any(l.startswith("# K=20") for l in out.splitlines())


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


@pytest.mark.parametrize("stat", ["height-growth", "empirical-gap-average"])
def test_simulate_one_run_of_a_real_statistic(capsys, stat):
    argv = ("simulate", "--K", "10", "--stat", stat, "--n-steps", "100", "--runs", "1")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        entry = json.loads(out, parse_constant=_reject_constant)["statistics"]
        assert entry[stat.replace("-", "_")]["variance"] == 0.0
        code, out, err_csv = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    body = list(csv.reader(l for l in out.splitlines() if not l.startswith("#")))[1:]
    assert len(body) == 200
    assert sum(int(r[2]) for r in body) == 1
    assert "Warning" not in err + err_csv


def test_simulate_gnuplot_files(tmp_path, capsys):
    prefix = str(tmp_path / "hist_")
    code, _, err = run_cli(capsys, "simulate", "--K", "15", "--runs", "200",
                           "--seed", "5", "--stat", "roots", "--gnuplot", prefix)
    assert code == 0
    data = (tmp_path / "hist_roots.dat").read_text()
    lines = [l for l in data.splitlines() if not l.startswith("#")]
    assert sum(int(l.split()[1]) for l in lines) == 200


def test_exact_roots_json(capsys):
    code, out, _ = run_cli(capsys, "exact-roots", "--K", "5")
    assert code == 0
    payload = json.loads(out)
    row = payload["results"][0]
    assert row["mean"] == "5/3"
    assert row["variance"] == "2/9"
    assert row["coefficients"] == ["0/1", "1/3", "2/3"]


def test_exact_roots_range_csv(capsys):
    code, out, _ = run_cli(capsys, "exact-roots", "--kmax", "6", "--format", "csv")
    assert code == 0
    body = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert body[0] == "K,mean,variance,coefficients"
    assert len(body) == 1 + 4


# --K and --kmax: both given as flags, or --K as a flag and kmax in the file
@pytest.mark.parametrize("in_file", [False, True])
def test_exact_roots_refuses_K_with_kmax(tmp_path, capsys, in_file):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kmax=7\n")
    argv = (("--config", str(cfg), "exact-roots", "--K", "5") if in_file
            else ("exact-roots", "--K", "5", "--kmax", "7"))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: --K 5 and --kmax 7 are exclusive: give one width or one range\n"


@pytest.mark.parametrize("in_file", [False, True])
def test_exact_gaps_refuses_K_with_kmax(tmp_path, capsys, in_file):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("K=9\n")
    argv = (("--config", str(cfg), "exact-gaps", "--kmax", "5") if in_file
            else ("exact-gaps", "--K", "9", "--kmax", "5"))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: --K 9 and --kmax 5 are exclusive: give one width or one range\n"


def test_exact_gaps_json(capsys):
    code, out, _ = run_cli(capsys, "exact-gaps", "--K", "4", "--i", "1")
    assert code == 0
    row = json.loads(out)["results"][0]
    assert row["coefficients"] == ["2/3", "0/1", "1/3"]
    assert row["mean"] == "2/3"


def test_exact_gaps_out_of_range(capsys):
    code, _, err = run_cli(capsys, "exact-gaps", "--K", "4", "--i", "9")
    assert code == 2


def test_exact_gaps_range_rejects_nonpositive_length(capsys):
    for i in ("0", "-1"):
        code, out, err = run_cli(capsys, "exact-gaps", "--kmax", "6", "--i", i)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


@pytest.mark.parametrize("argv", [("--kmax", "4", "--i", "7"),
                                  ("--kmax", "4", "--i", "1", "--i", "7")])
def test_exact_gaps_range_rejects_length_beyond_every_width(capsys, argv):
    code, out, err = run_cli(capsys, "exact-gaps", *argv)
    assert code == 2
    assert out == ""
    assert err == "error: gap index 7 out of range 1..3\n"


def test_oracle_json(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--K", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"][0]["support"] == {"1": "2/3", "2": "1/3"}


def test_oracle_resource_guard(capsys):
    code, _, err = run_cli(capsys, "oracle", "--K", "12")
    assert code == 3
    assert "capped" in err


def test_verify_roots_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "roots", "--kmax", "12")
    assert code == 0
    assert "PASS: [roots] root-count mean K/3" in out
    assert out.strip().endswith("OK: all checks passed")


def test_verify_tables_suite_cross_checks_root_engines(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "tables", "--kmax", "12")
    assert code == 0
    assert ("PASS: [tables] cross-engine: insertion root engine equals first-step "
            "recursion for K=0..12") in out


def test_verify_oracle_guard(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "oracle", "--kmax", "11")
    assert code == 3


def test_verify_all_checks_the_oracle_cap_before_any_suite(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--kmax", "11")
    assert code == 3
    assert out == ""
    assert "suite roots:" not in err
    assert err == ("resource guard: enumeration over K! first-hit orders is capped "
                   "at K = 10 (requested K = 11)\n")


@pytest.mark.parametrize("suite", ["roots", "gaps", "tables", "oracle", "all"])
@pytest.mark.parametrize("kmax", ["1", "2"])
def test_verify_rejects_kmax_below_three(capsys, suite, kmax):
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--kmax", kmax)
    assert code == 2
    assert out == ""
    assert err == f"error: --kmax must be >= 3, got {kmax}\n"


# smallest --kmax at which each suite checks every law it prints (the gaps
# suite prints all eight of its laws only from 31); `all` takes the largest
SUITE_MIN_KMAX = {"roots": 3, "gaps": 4, "tables": 8, "oracle": 3, "all": 8}


@pytest.mark.parametrize("suite", sorted(SUITE_MIN_KMAX))
def test_verify_kmax_boundary_of_each_suite(capsys, suite):
    smallest = SUITE_MIN_KMAX[suite]
    code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--kmax", str(smallest))
    assert code == 0
    assert out.strip().endswith("OK: all checks passed")
    # no check line names an empty width range such as "K=4..3"
    assert all(int(lo) <= int(hi) for lo, hi in re.findall(r"(\d+)\.\.(\d+)", out))
    if smallest > 3:
        code, out, err = run_cli(capsys, "verify", "--suite", suite,
                                 "--kmax", str(smallest - 1))
        assert code == 2
        assert out == ""
        assert err == (f"error: --suite {suite} needs --kmax >= {smallest}, "
                       f"got {smallest - 1}\n")


def test_verify_gaps_prints_its_linear_laws_only_from_kmax_31(capsys):
    # the six gap-i linear laws (i = 2..7) are stated on K=31..40
    identities = "PASS: [gaps] gap-mean identities (sum K/3, weighted sum 2K/3) for K=3..25"
    assert run_cli(capsys, "verify", "--suite", "gaps", "--kmax", "30")[:2] == (0, "\n".join([
        "PASS: [gaps] unit-gap moment laws for K=4..30", identities,
        "OK: all checks passed\n"]))
    assert run_cli(capsys, "verify", "--suite", "gaps", "--kmax", "31")[:2] == (0, "\n".join([
        "PASS: [gaps] unit-gap moment laws for K=4..31",
        *(f"PASS: [gaps] gap-{i} linear moment laws for K=31..31" for i in range(2, 8)),
        identities, "OK: all checks passed\n"]))


def test_verify_tables_at_its_smallest_kmax_checks_width_8_on_every_row(capsys):
    _, out, _ = run_cli(capsys, "verify", "--suite", "tables", "--kmax", "8")
    rows = [line for line in out.splitlines() if "series row" in line]
    assert len(rows) == 14
    assert all(line.startswith("PASS: ") and line.endswith("widths 4..8") for line in rows)


def test_verify_caps_each_laws_widths_above_its_suite_cap(capsys):
    # --kmax is capped at 40 for the long laws and at 25 for the identities
    # and series rows, whatever is asked for
    code, out, _ = run_cli(capsys, "verify", "--suite", "gaps", "--kmax", "45")
    assert (code, out) == (0, "\n".join([
        "PASS: [gaps] unit-gap moment laws for K=4..40",
        *(f"PASS: [gaps] gap-{i} linear moment laws for K=31..40" for i in range(2, 8)),
        "PASS: [gaps] gap-mean identities (sum K/3, weighted sum 2K/3) for K=3..25",
        "OK: all checks passed\n"]))
    code, out, _ = run_cli(capsys, "verify", "--suite", "tables", "--kmax", "45")
    lines = out.splitlines()
    assert code == 0 and lines[-1] == "OK: all checks passed"
    assert lines[:4] == [
        "PASS: [tables] unit-gap polynomial triples for K=3..7",
        "PASS: [tables] triple normalization and degree law for K=3..40",
        "PASS: [tables] cross-engine: c_K equals unit-gap PGF at width K+1, K=3..40",
        "PASS: [tables] cross-engine: insertion root engine equals first-step recursion "
        "for K=0..40"]
    assert len(lines[4:-1]) == 14
    assert all(line.startswith("PASS: [tables] ") and "series row" in line
               and line.endswith("widths 4..25") for line in lines[4:-1])


def _series_rows(ks):
    """Each of the 14 table series rows as (i, coefficients to x^(ks-1))."""
    for i, (scale, num) in laws.MEAN_SERIES_ROWS.items():
        yield i, laws.series_coefficients(num, scale, 2, ks)
    for i, (scale, shift, lead, inner) in laws.FACTORIAL_SERIES_ROWS.items():
        yield i, laws.series_coefficients([0] * shift + [lead * c for c in inner], scale, 3, ks)


def test_table_series_rows_are_zero_where_no_gap_fits():
    # the coefficient of x^K is a moment at width K+1, which has no index-i
    # gap when K+1 <= i
    rows = list(_series_rows(25))
    assert len(rows) == 14
    for i, series in rows:
        assert all(series[K] == 0 for K in range(3, i)), i


def test_verify_tables_compares_every_series_row_at_every_labelled_width(monkeypatch,
                                                                         capsys):
    # bump each row at width 5: rows i >= 5 have no index-i gap there, so
    # they fail only if the suite compares them with 0 at that width, and
    # each FAIL line names width 5 with the bumped and the engine's value
    series = laws.series_coefficients

    def bumped(*args):
        coeffs = series(*args)
        coeffs[4] += 1
        return coeffs

    monkeypatch.setattr(laws, "series_coefficients", bumped)
    _, out, _ = run_cli(capsys, "verify", "--suite", "tables", "--kmax", "8")
    rows = [line for line in out.splitlines() if "series row" in line]
    assert len(rows) == 14
    for line in rows:
        found, expected = re.fullmatch(
            r"FAIL: \[tables\] .* widths 4\.\.8 \(K=5: found (\S+), expected (\S+)\)",
            line).groups()
        assert Fraction(found) == Fraction(expected) + 1


def test_a_law_keeps_its_first_mismatch_and_reads_no_case_after_it():
    def cases():
        yield 3, 1, 1
        yield 4, Fraction(1, 2), 1
        raise AssertionError("a case after the first mismatch was read")

    law = laws.Law("mean law", cases())
    assert law.failure == (4, Fraction(1, 2), 1)
    assert str(law) == "mean law (K=4: found 1/2, expected 1/1)"
    law = laws.Law("gap law", [("K=5, i=2", (1,), (2,)), (6, 0, 1)])
    assert str(law) == "gap law (K=5, i=2: found (1/1), expected (2/1))"
    law = laws.Law("passing law", [(3, 1, 1), (4, 2, 2)])
    assert (law.failure, str(law)) == (None, "passing law")


def test_verify_names_each_laws_own_first_failing_width(monkeypatch, capsys):
    # the mean goes wrong at widths 5 and 8 and the variance at 7 and 9, so
    # each FAIL line must name its own law's first failing width
    moments = laws.count_moments
    width = {math.factorial(K - 1): K for K in range(3, 11)}
    bumps = {5: (1, 0), 8: (1, 0), 7: (0, 1), 9: (0, 1)}

    def skewed(counts, total):
        m = moments(counts, total)
        dm, dv = bumps.get(width[total], (0, 0))
        return SimpleNamespace(mean=m.mean + dm, variance=m.variance + dv)

    monkeypatch.setattr(laws, "count_moments", skewed)
    code, out, _ = run_cli(capsys, "verify", "--suite", "roots", "--kmax", "10")
    assert code == 1
    assert out.splitlines() == [
        "FAIL: [roots] root-count mean K/3 for K=3..10 (K=5: found 8/3, expected 5/3)",
        "FAIL: [roots] root-count variance law (0, 2/9, then 2K/45) for K=3..10 "
        "(K=7: found 59/45, expected 14/45)",
        "PASS: [roots] PGF normalization at z=1 for K=3..10",
        "PASS: [roots] PGF degree floor((K-1)/2) for K=3..10",
        "FAILED: 2 failing check(s)",
    ]


def test_verify_roots_names_a_layer_that_does_not_sum_to_k_factorial(monkeypatch, capsys):
    # one order too many at width 6: the normalization law names that width
    # with the found sum and 6!
    layers = laws.aux_root_layers

    def corrupted(kmax):
        for K, counts in enumerate(layers(kmax)):
            yield (counts[0] + 1, *counts[1:]) if K == 6 else counts

    monkeypatch.setattr(laws, "aux_root_layers", corrupted)
    code, out, _ = run_cli(capsys, "verify", "--suite", "roots", "--kmax", "8")
    assert code == 1
    assert ("FAIL: [roots] PGF normalization at z=1 for K=3..8 "
            "(K=6: found 721/1, expected 720/1)") in out.splitlines()


def test_verify_oracle_names_the_failing_gap_index(monkeypatch, capsys):
    # the engine's gap-2 law at width 5 is replaced by the point mass at 0
    engine = laws.gap_distribution
    monkeypatch.setattr(laws, "gap_distribution",
                        lambda i, K: RationalPolynomial([1]) if (i, K) == (2, 5)
                        else engine(i, K))
    code, out, _ = run_cli(capsys, "verify", "--suite", "oracle", "--kmax", "5")
    assert code == 1
    assert ("FAIL: [oracle] gap enumeration equals recursion engine at K=5, all i "
            "(K=5, i=2: found (1/3, 2/3), expected (1/1))") in out.splitlines()
    assert out.endswith("FAILED: 1 failing check(s)\n")


def test_verify_tables_names_a_missing_reference_layer(monkeypatch, capsys):
    # the first-step recursion stops one layer short of the insertion engine
    reference = laws.first_step_root_counts
    monkeypatch.setattr(laws, "first_step_root_counts", lambda k: reference(k)[:-1])
    code, out, _ = run_cli(capsys, "verify", "--suite", "tables", "--kmax", "8")
    assert code == 1
    assert ("FAIL: [tables] cross-engine: insertion root engine equals first-step recursion "
            "for K=0..8 (K=8: found (128/1, 7680/1, 24576/1, 7936/1), expected None)"
            ) in out.splitlines()
    assert out.endswith("FAILED: 1 failing check(s)\n")


def test_oracle_gap_statistics_reject_aux_mode(capsys):
    code, out, err = run_cli(capsys, "oracle", "--K", "5", "--mode", "aux", "--i", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "cyclic" in err
    code, out, _ = run_cli(capsys, "oracle", "--K", "5", "--i", "1")
    assert code == 0
    assert json.loads(out)["results"][0]["i"] == 1


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--bogus"])
    assert exc.value.code == 2


def test_exit_codes_reach_the_calling_process(capsys):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))

    def run(*argv):
        done = subprocess.run([sys.executable, "-m", "stripdep.cli", *argv], env=env,
                              capture_output=True, timeout=120)
        return done.returncode, done.stdout, done.stderr.decode()

    verify = ("verify", "--suite", "roots", "--kmax", "5")
    code, out, _ = run(*verify)
    assert (code, out) == (0, run_cli(capsys, *verify)[1].encode())
    assert run("exact-roots", "--K", "2") == (
        2, b"", "error: substrate width must be >= 3, got 2\n")
    code, out, err = run("oracle", "--K", "11")
    assert (code, out) == (3, b"")
    assert err.startswith("resource guard: ") and err.count("\n") == 1
    code, out, err = run("simulate", "--bogus")
    assert (code, out) == (2, b"")
    assert err.endswith("error: unrecognized arguments: --bogus\n")


@pytest.mark.parametrize("argv", [
    ("exact-roots", "--K", "5"),
    ("exact-gaps", "--K", "5"),
    ("oracle", "--K", "5"),
])
def test_seed_is_a_simulate_flag_only(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "-7"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed -7" in capsys.readouterr().err


def test_config_file_seed_still_reaches_simulate(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=4\n")
    code, out, _ = run_cli(capsys, "--config", str(cfg), "simulate", "--K", "10",
                           "--runs", "5")
    assert code == 0
    assert json.loads(out)["seed"] == 4
    # the exact commands have no --seed, so the key is refused as the flag is
    code, out, err = run_cli(capsys, "--config", str(cfg), "exact-roots", "--K", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "'seed'" in err and "exact-roots" in err


@pytest.mark.parametrize("command", ["exact-roots", "exact-gaps", "oracle", "verify"])
@pytest.mark.parametrize("line", ["seed=4", "runs=10", "threads=2", "n-steps=100"])
def test_config_file_key_without_flag_exits_2(tmp_path, capsys, command, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    key = line.partition("=")[0]
    code, out, err = run_cli(capsys, "--config", str(cfg), command)
    assert code == 2
    assert out == ""
    assert err == f"error: config key {key!r} does not apply to {command}\n"


def test_config_file_applies_to_the_chosen_subcommand_only(tmp_path, capsys):
    # kmax is an exact-roots flag; on simulate, which lacks it, it is refused
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kmax=5\n")
    code, out, _ = run_cli(capsys, "--config", str(cfg), "exact-roots")
    assert code == 0
    assert [r["K"] for r in json.loads(out)["results"]] == [3, 4, 5]
    code, _, err = run_cli(capsys, "--config", str(cfg), "simulate", "--K", "5")
    assert code == 2
    assert "'kmax' does not apply to simulate" in err


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    # comment and blank lines are skipped, and keys and values are stripped
    cfg.write_text("# defaults\n\n  K = 5  \nformat=json\n")
    code, out, _ = run_cli(capsys, "--config", str(cfg), "exact-roots")
    assert code == 0
    assert out == run_cli(capsys, "exact-roots", "--K", "5")[1]
    assert json.loads(out)["results"][0]["K"] == 5
    code, out, _ = run_cli(capsys, "--config", str(cfg), "exact-roots", "--K", "7")
    assert code == 0
    assert json.loads(out)["results"][0]["K"] == 7


def test_config_file_gnuplot_key_writes_what_the_flag_writes(tmp_path, capsys):
    argv = ("simulate", "--K", "8", "--runs", "50", "--seed", "2",
            "--stat", "roots", "--stat", "gaps", "--i", "1")
    code, by_flag, _ = run_cli(capsys, *argv, "--gnuplot", str(tmp_path / "flag_"))
    assert code == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"gnuplot={tmp_path / 'file_'}\n")
    code, by_file, _ = run_cli(capsys, "--config", str(cfg), *argv)
    assert code == 0
    assert by_file == by_flag

    def written(prefix):
        return {p.name[len(prefix):]: p.read_bytes() for p in tmp_path.glob(prefix + "*")}

    assert sorted(written("file_")) == ["gaps_1.dat", "roots.dat"]
    assert written("file_") == written("flag_")


# every long flag of every subcommand, with a config value and its parse
_FLAG_VALUES = {"K": ("5", 5), "mode": ("aux", "aux"), "out": ("o.json", "o.json"),
                "format": ("csv", "csv"), "seed": ("4", 4), "runs": ("9", 9),
                "threads": ("2", 2), "stat": ("roots,gaps", ["roots", "gaps"]),
                "i": ("1,3", [1, 3]), "n-steps": ("50", 50), "gnuplot": ("h_", "h_"),
                "kmax": ("6", 6), "suite": ("gaps", "gaps")}


def test_every_subcommand_flag_is_a_config_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    for command, sub in build_parser()[1].items():
        flags = [opt[2:] for action in sub._actions for opt in action.option_strings
                 if opt.startswith("--") and opt != "--help"]
        assert flags and set(flags) <= set(_FLAG_VALUES)
        for flag in flags:
            raw, value = _FLAG_VALUES[flag]
            cfg.write_text(f"{flag}={raw}\n")
            args = parse_args(["--config", str(cfg), command])
            assert getattr(args, flag.replace("-", "_")) == value, (command, flag)


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus=1\n")
    code, _, err = run_cli(capsys, "--config", str(cfg), "exact-roots", "--K", "5")
    assert code == 2
    assert "unknown config key" in err


def test_out_writes_file(tmp_path, capsys):
    path = tmp_path / "roots.json"
    code, out, _ = run_cli(capsys, "exact-roots", "--K", "4", "--out", str(path))
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["results"][0]["K"] == 4


def test_config_file_given_with_equals_sign(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("runs=7\nK=10\n")
    code, out, _ = run_cli(capsys, f"--config={cfg}", "simulate")
    assert code == 0
    assert json.loads(out)["config"]["runs"] == 7


def test_missing_config_file_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "--config", str(tmp_path / "absent.cfg"),
                             "exact-roots", "--K", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "absent.cfg" in err


def test_unwritable_out_exits_2(tmp_path, capsys):
    path = tmp_path / "no-such-dir" / "roots.json"
    code, _, err = run_cli(capsys, "exact-roots", "--K", "4", "--out", str(path))
    assert code == 2
    assert err.startswith("error:") and "cannot write" in err


# a (64, K) int32 block at this width is 233 TiB, past any user address
# space, so the allocation fails at once whatever the overcommit setting
_UNALLOCATABLE_K = "1000000000000"


@pytest.mark.parametrize("flag, target, reason", [
    pytest.param("--out", "", "Is a directory", id="out-directory"),
    pytest.param("--gnuplot", "missing/dir/h", "No such file or directory", id="gnuplot-missing"),
])
def test_an_unwritable_output_path_fails_before_the_ensemble_runs(tmp_path, capsys, flag,
                                                                  target, reason):
    path = str(tmp_path / target) if target else str(tmp_path)
    written = path + "roots.dat" if flag == "--gnuplot" else path
    code, out, err = run_cli(capsys, "simulate", "--K", "10", "--runs", "5", flag, path)
    assert (code, out, err) == (2, "", f"error: cannot write {written}: {reason}\n")


def test_output_checks_keep_existing_files_and_leave_no_new_one(tmp_path, capsys):
    (tmp_path / "old.json").write_text("kept\n")
    (tmp_path / "h_gaps_1.dat").write_text("kept\n")
    code, out, err = run_cli(capsys, "simulate", "--K", _UNALLOCATABLE_K, "--runs", "1",
                             "--stat", "roots", "--stat", "gaps", "--i", "1",
                             "--out", str(tmp_path / "old.json"),
                             "--gnuplot", str(tmp_path / "h_"))
    assert (code, out) == (3, "")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["h_gaps_1.dat", "old.json"]
    assert {p.read_text() for p in tmp_path.iterdir()} == {"kept\n"}
    code, out, err = run_cli(capsys, "exact-roots", "--K", "2", "--out", str(tmp_path / "new"))
    assert (code, out) == (2, "")
    assert not (tmp_path / "new").exists()


def test_output_check_through_a_dangling_symlink_leaves_only_the_link(tmp_path, capsys):
    link = tmp_path / "link"
    link.symlink_to("target.json")
    code, out, _ = run_cli(capsys, "simulate", "--K", "2", "--runs", "5", "--out", str(link))
    assert (code, out) == (2, "")
    assert link.is_symlink() and not (tmp_path / "target.json").exists()
    code, out, _ = run_cli(capsys, "simulate", "--K", "3", "--runs", "5", "--out", str(link))
    assert (code, out) == (0, "")
    assert link.is_symlink()
    assert json.loads((tmp_path / "target.json").read_text())["config"]["runs"] == 5


_COLLIDE = ("simulate", "--K", "10", "--runs", "5")


@pytest.mark.parametrize("config, argv, message", [
    pytest.param("run.cfg", (*_COLLIDE, "--out", "h_roots.dat", "--gnuplot", "h_"),
                 "--gnuplot file h_roots.dat is the same file as --out h_roots.dat",
                 id="gnuplot-is-out"),
    pytest.param("run.cfg", (*_COLLIDE, "--out", "./h2_roots.dat", "--gnuplot", "h2_"),
                 "--gnuplot file h2_roots.dat is the same file as --out ./h2_roots.dat",
                 id="gnuplot-is-out-spelled-apart"),
    pytest.param("run.cfg", ("exact-roots", "--K", "5", "--out", "run.cfg"),
                 "--out run.cfg is the same file as --config run.cfg", id="out-is-config"),
    pytest.param("h_roots.dat", (*_COLLIDE, "--gnuplot", "h_"),
                 "--gnuplot file h_roots.dat is the same file as --config h_roots.dat",
                 id="gnuplot-is-config"),
])
def test_an_output_that_is_another_file_of_the_command_exits_2(tmp_path, monkeypatch, capsys,
                                                                config, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / config).write_bytes(b"mode=cyclic\n")
    assert run_cli(capsys, "--config", config, *argv) == (2, "", f"error: {message}\n")
    assert [p.name for p in tmp_path.iterdir()] == [config]
    assert (tmp_path / config).read_bytes() == b"mode=cyclic\n"


def test_an_allocation_failure_exits_3(capsys):
    code, out, err = run_cli(capsys, "simulate", "--K", _UNALLOCATABLE_K, "--runs", "1")
    assert (code, out) == (3, "")
    assert err.startswith("resource guard: Unable to allocate ") and err.count("\n") == 1


@pytest.mark.parametrize("entry, message", [
    (("simulate", "--runs", "5"), "simulate requires --K"),
    (("oracle",), "oracle requires --K"),
    (("exact-roots",), "need --K or --kmax"),
    (("--config", "{cfg}", "simulate"), "{cfg}:1: expected key=value, got 'runs'"),
    (lambda: EnsembleConfig(K=5, statistics=()), "at least one statistic is required"),
])
def test_each_usage_error_prints_its_line(tmp_path, capsys, entry, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("runs\n")
    message = message.format(cfg=cfg)
    if callable(entry):
        with pytest.raises(EnsembleConfigError) as exc:
            entry()
        assert str(exc.value) == message
    else:
        argv = [a.format(cfg=cfg) for a in entry]
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


_SIMULATE = ("simulate", "--K", "12", "--runs", "60", "--seed", "4",
             "--stat", "roots", "--stat", "gaps", "--i", "1", "--stat", "empirical-gap-average")


@pytest.mark.parametrize("argv", [
    pytest.param(_SIMULATE, id="simulate-json"),
    pytest.param((*_SIMULATE, "--format", "csv"), id="simulate-csv"),
    pytest.param(("exact-roots", "--kmax", "6", "--format", "csv"), id="exact-roots"),
    pytest.param(("exact-gaps", "--K", "8", "--i", "2"), id="exact-gaps"),
    pytest.param(("oracle", "--K", "5", "--i", "1", "--format", "csv"), id="oracle"),
    pytest.param(("verify", "--suite", "roots", "--kmax", "5"), id="verify"),
])
def test_out_gets_the_bytes_stdout_would_get(tmp_path, capsys, argv):
    code, expected, _ = run_cli(capsys, *argv)
    path = tmp_path / "data"
    assert run_cli(capsys, *argv, "--out", str(path))[:2] == (code, "")
    assert code == 0 and expected
    assert path.read_bytes() == expected.encode()


def test_gap_table_budget_guard_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(gaps, "DEFAULT_COEFFICIENT_BUDGET", 10)
    monkeypatch.setattr(gaps, "_table_cache", {})
    code, out, err = run_cli(capsys, "exact-gaps", "--K", "20", "--i", "1")
    assert code == 3
    assert out == ""
    assert "budget of 10" in err


def _exact_gaps_1_and_5():
    return main(["exact-gaps", "--kmax", "30", "--i", "1", "--i", "5"])


# each range reader alone from a cold cache, and the readers in a row
@pytest.mark.parametrize("callers, indices", [
    ((lambda: laws.suite_gaps(40),), range(1, 25)),
    ((lambda: laws.suite_tables(25),), range(1, 8)),
    ((lambda: laws.suite_oracle(7),), range(1, 7)),
    ((_exact_gaps_1_and_5,), (1, 5)),
    ((lambda: laws.suite_gaps(40), lambda: laws.suite_tables(25), _exact_gaps_1_and_5),
     range(1, 25)),
], ids=["gaps", "tables", "oracle", "exact-gaps", "in-a-row"])
def test_range_readers_build_each_gap_table_once_at_minimal_slots(monkeypatch, callers, indices):
    # each caller asks for its widest width first, so no table is built a
    # second time for a wider read
    monkeypatch.setattr(gaps, "_table_cache", {})
    built = Counter()
    init = gaps.GapRecursionTable.__init__

    def counted_init(table, i, k_max):
        built[i] += 1
        init(table, i, k_max)

    monkeypatch.setattr(gaps.GapRecursionTable, "__init__", counted_init)
    for caller in callers:
        caller()
    tables = gaps._table_cache
    assert sorted(tables) == list(indices)
    assert built == Counter(dict.fromkeys(tables, 1))
    assert {i: t._width for i, t in tables.items()} == {
        i: gaps._slot_bytes(t.k_max) for i, t in tables.items()}


def test_a_failed_table_build_leaves_later_calls_exact(monkeypatch, capsys):
    # one process: a wider build that hits the budget must not spoil the
    # cached narrower table for the calls after it
    monkeypatch.setattr(gaps, "_table_cache", {})
    assert run_cli(capsys, "exact-gaps", "--K", "11", "--i", "2")[0] == 0
    budget = gaps.DEFAULT_COEFFICIENT_BUDGET
    monkeypatch.setattr(gaps, "DEFAULT_COEFFICIENT_BUDGET", 340)
    code, out, err = run_cli(capsys, "exact-gaps", "--K", "30", "--i", "2")
    assert (code, out) == (3, "")
    assert "state (l=0, r=1, k=16)" in err
    monkeypatch.setattr(gaps, "DEFAULT_COEFFICIENT_BUDGET", budget)
    warm = run_cli(capsys, "exact-gaps", "--K", "26", "--i", "2")[:2]
    monkeypatch.setattr(gaps, "_table_cache", {})
    assert warm == run_cli(capsys, "exact-gaps", "--K", "26", "--i", "2")[:2]
    assert warm[0] == 0


def test_exact_gaps_has_no_mode(tmp_path, capsys):
    # gap counts are defined for the cyclic process only
    with pytest.raises(SystemExit) as exc:
        main(["exact-gaps", "--K", "6", "--i", "2", "--mode", "aux"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --mode aux" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode=aux\n")
    code, out, err = run_cli(capsys, "--config", str(cfg), "exact-gaps", "--K", "6", "--i", "2")
    assert (code, out) == (2, "")
    assert err == "error: config key 'mode' does not apply to exact-gaps\n"


@pytest.mark.parametrize("K", ["0", "1"])
def test_exact_gaps_names_a_width_below_three(capsys, K):
    code, out, err = run_cli(capsys, "exact-gaps", "--K", K)
    assert (code, out) == (2, "")
    assert err == f"error: substrate width must be >= 3, got {K}\n"


@pytest.mark.parametrize("line, argv", [
    ("mode=bogus", ("simulate", "--K", "5", "--runs", "3")),
    ("suite=bogus", ("verify",)),
    ("format=xml", ("exact-roots", "--K", "5")),
])
def test_config_file_value_outside_choices_exits_2(tmp_path, capsys, line, argv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli(capsys, "--config", str(cfg), *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "invalid choice" in err


@pytest.mark.parametrize("line, argv, key", [
    ("runs=x", ("simulate", "--K", "5"), "runs"),
    ("i=1,x", ("exact-gaps", "--K", "5"), "i"),
])
def test_config_file_value_of_the_wrong_type_names_its_key(tmp_path, capsys, line, argv, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli(capsys, "--config", str(cfg), *argv)
    assert (code, out, err) == (2, "", f"error: config key {key}: invalid int value 'x'\n")


_GAP_INDEX = "gap index 5 out of range 1..4"
_STEPS = "deposits per run must be in 1..2**40, got 0"
_LAYER_WIDTH = "width must be non-negative, got -1"
_WIDTH = "substrate width must be >= 3, got 2"
_CYCLIC = "{}: defined for the cyclic process only"
_CAP = "enumeration over K! first-hit orders is capped at K = 10 (requested K = 11)"
_AUX_ROOTS = RootSet(K=5, mode=BoundaryMode.AUXILIARY, roots=(2, 4))


@pytest.mark.parametrize("message, entry", [
    pytest.param(_GAP_INDEX, ("simulate", "--K", "5", "--runs", "3", "--stat", "gaps",
                              "--i", "5"), id="gap-index-simulate"),
    pytest.param(_GAP_INDEX, ("exact-gaps", "--K", "5", "--i", "5"),
                 id="gap-index-exact-gaps"),
    pytest.param("gap index 0 out of range 1..4", ("exact-gaps", "--kmax", "5", "--i", "0"),
                 id="gap-index-exact-gaps-range"),
    pytest.param(_GAP_INDEX, ("oracle", "--K", "5", "--i", "5"), id="gap-index-oracle"),
    pytest.param(_GAP_INDEX, lambda: EnsembleConfig(K=5, statistics=("gaps",), gap_lengths=(5,)),
                 id="gap-index-EnsembleConfig"),
    pytest.param(_GAP_INDEX, lambda: gap_moments(5, 5), id="gap-index-gap_moments"),
    pytest.param(_STEPS, ("simulate", "--K", "10", "--runs", "3", "--stat", "height-growth",
                          "--n-steps", "0"), id="steps-simulate"),
    pytest.param(_STEPS, lambda: height_growth_estimate(10, 0, np.random.default_rng(0)),
                 id="steps-height_growth_estimate"),
    pytest.param(_LAYER_WIDTH, ("exact-roots", "--mode", "aux", "--K", "-1"),
                 id="layer-width-exact-roots"),
    pytest.param(_LAYER_WIDTH, lambda: first_step_root_counts(-1),
                 id="layer-width-first_step_root_counts"),
    pytest.param(_LAYER_WIDTH, lambda: GapRecursionTable(1, -1),
                 id="layer-width-GapRecursionTable"),
    pytest.param(_WIDTH, ("simulate", "--K", "2"), id="width-simulate"),
    pytest.param(_WIDTH, lambda: abc_recursion(2), id="width-abc_recursion"),
    pytest.param(_WIDTH, lambda: EnsembleConfig(K=2), id="width-EnsembleConfig"),
    pytest.param(_CYCLIC.format("statistics ['gaps']"),
                 ("simulate", "--K", "5", "--runs", "3", "--mode", "aux", "--stat", "gaps",
                  "--i", "1"), id="cyclic-simulate"),
    pytest.param(_CYCLIC.format("gap statistics"),
                 ("oracle", "--K", "5", "--mode", "aux", "--i", "1"), id="cyclic-oracle"),
    pytest.param(_CYCLIC.format("gap tallies"),
                 lambda: block_tallies(np.arange(5).reshape(1, 5), BoundaryMode.AUXILIARY, (1,)),
                 id="cyclic-block_tallies"),
    pytest.param(_CYCLIC.format("gap vector"), lambda: gap_vector(_AUX_ROOTS),
                 id="cyclic-gap_vector"),
    pytest.param(_CYCLIC.format("empirical gap average"),
                 lambda: empirical_gap_average(_AUX_ROOTS), id="cyclic-empirical_gap_average"),
    pytest.param(_CAP, ("oracle", "--K", "11"), id="cap-oracle"),
    pytest.param(_CAP, ("verify", "--suite", "oracle", "--kmax", "11"), id="cap-verify"),
    pytest.param(_CAP, lambda: laws.suite_oracle(11), id="cap-suite_oracle"),
])
def test_each_input_rule_has_one_message_at_every_entry_point(capsys, message, entry):
    # the K! cap is a resource guard (exit 3); every other rule is a
    # configuration error (exit 2)
    capped = message == _CAP
    if callable(entry):
        with pytest.raises(EnumerationLimitError if capped else EnsembleConfigError) as exc:
            entry()
        assert str(exc.value) == message
    else:
        code, out, err = run_cli(capsys, *entry)
        prefix = "resource guard" if capped else "error"
        assert (code, out, err) == (3 if capped else 2, "", f"{prefix}: {message}\n")


# config key -> (values it may take, parser default)
_PRECEDENCE_KEYS = {
    "K": (st.integers(3, 10**4), None),
    "runs": (st.integers(1, 10**6), 200_000),
    "seed": (st.integers(0, 2**63), 0),
    "mode": (st.sampled_from(["cyclic", "aux"]), "cyclic"),
    "format": (st.sampled_from(["json", "csv"]), "json"),
}


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("precedence") / "run.cfg"


@settings(max_examples=60, deadline=None)
@given(chosen=st.fixed_dictionaries({
    key: st.tuples(st.none() | values, st.none() | values)      # (file, flag)
    for key, (values, _) in _PRECEDENCE_KEYS.items()}))
def test_config_file_and_flag_precedence(config_path, chosen):
    config_path.write_text("".join(f"{key}={in_file}\n" for key, (in_file, _) in chosen.items()
                                   if in_file is not None))
    argv = ["--config", str(config_path), "simulate"]
    for key, (_, flag) in chosen.items():
        if flag is not None:
            argv += [f"--{key}", str(flag)]
    args = parse_args(argv)
    for key, (in_file, flag) in chosen.items():
        default = _PRECEDENCE_KEYS[key][1]
        expected = flag if flag is not None else in_file if in_file is not None else default
        assert getattr(args, key) == expected
