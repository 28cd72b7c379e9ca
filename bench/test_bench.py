"""Tests of the benchmark's own logic, at tiny sizes."""

import contextlib
import io

import pytest

import stripdep.cli
import stripdep.roots
from stripdep.ensemble import EnsembleConfig, run_ensemble

from checks import CheckLog, ensemble_checks, ensemble_digest, parse_verify, within_band
from mc import derived_layer_times, ensemble_pass
from tracing import (Tracer, exact_layer_metrics, last_layer, named, oracle_orders, self_time,
                     span_cost_s, total)


def _verify_output(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = stripdep.cli.main(["verify", *argv])
    return buf.getvalue(), code


# ---- verify output -> check counts ------------------------------------------

def test_parse_verify_counts_each_line_and_the_exit_code():
    text = "PASS: [roots] a\nPASS: [roots] b\nOK: all checks passed\n"
    assert parse_verify(text, 0) == (3, 0)


def test_parse_verify_counts_fail_lines_and_a_bad_exit_code():
    text = "PASS: [gaps] a\nFAIL: [gaps] b (K=5)\nFAILED: 1 failing check(s)\n"
    assert parse_verify(text, 1) == (3, 2)


def test_parse_verify_treats_unknown_lines_and_empty_output_as_failures():
    assert parse_verify("PASS: [x] a\nTraceback (most recent call last):\n", 0) == (3, 1)
    assert parse_verify("", 0) == (2, 1)


def test_parse_verify_on_real_cli_output():
    text, code = _verify_output("--suite", "roots", "--kmax", "8")
    assert parse_verify(text, code) == (5, 0)


# ---- digests ------------------------------------------------------------------

def _tiny(seed, **kw):
    cfg = dict(K=40, runs=50, base_seed=seed, statistics=("roots", "gaps", "empirical_gap_average"),
               gap_lengths=(1, 2))
    cfg.update(kw)
    return run_ensemble(EnsembleConfig(**cfg))


def test_digest_repeats_at_one_seed_and_differs_across_seeds():
    assert ensemble_digest(_tiny(3)) == ensemble_digest(_tiny(3))
    assert ensemble_digest(_tiny(3)) != ensemble_digest(_tiny(4))


def test_height_digest_is_independent_of_worker_count():
    kw = dict(K=5, runs=3, statistics=("height_growth",), gap_lengths=(), growth_steps=200)
    assert ensemble_digest(_tiny(1, workers=1, **kw)) == ensemble_digest(_tiny(1, workers=2, **kw))


# ---- check arithmetic -----------------------------------------------------------

def test_fail_rate_is_failed_over_attempted():
    log = CheckLog()
    log.record("a", True)
    log.record("b", False)
    log.add_counts("suite", attempted=6, failed=1)
    assert (log.attempted, log.failed) == (8, 2)
    assert log.fail_rate == pytest.approx(0.25)
    assert log.pass_rate == pytest.approx(0.75)
    assert log.failures == ["b", "suite: 1 of 6"]


def test_a_run_without_checks_fails():
    assert CheckLog().fail_rate == 1.0


def test_band_is_in_standard_errors_of_the_law():
    # law variance 4 over 100 samples: standard error 0.2, band 5 of them
    assert within_band(10.99, 10.0, 4.0, 100)
    assert not within_band(11.01, 10.0, 4.0, 100)


def test_ensemble_checks_pass_on_real_samples():
    checks = ensemble_checks(_tiny(5))
    assert checks and all(ok for _, ok in checks)


class _ShiftedRoots:
    """Stats whose root histogram has one run too few and a far-off mean."""

    def __init__(self, stats):
        self.config = stats.config
        self._stats = stats

    def histogram(self, s, i=None):
        if s == "roots":
            return {1: self.config.runs - 1}
        return self._stats.histogram(s, i)

    def samples(self, s):
        return self._stats.samples(s)


def test_ensemble_checks_catch_wrong_totals_and_means():
    failed = [name for name, ok in ensemble_checks(_ShiftedRoots(_tiny(5))) if not ok]
    assert "roots: histogram total equals runs" in failed
    assert "roots: mean within band of K/3" in failed
    assert "gap average: samples match the root histogram" in failed


# ---- derived layer times and span aggregation --------------------------------------

def test_derived_layer_times_subtract_the_layer_below_within_each_round():
    # the second round runs 20% slower throughout, as under load
    rounds = {"stream": [5.0, 6.0], "draw": [11.0, 13.2], "roots": [25.0, 30.0],
              "gaps": [33.0, 39.6]}
    got = derived_layer_times(rounds)
    assert got["ensemble.stream_setup_us"] == pytest.approx(5.5)
    assert got["ensemble.draw_us"] == pytest.approx(12.1)
    assert got["ensemble.root_detect_us"] == pytest.approx((9.0 + 10.8) / 2)
    assert got["ensemble.gap_tally_us"] == pytest.approx((8.0 + 9.6) / 2)


def _span(name, start, end, parent=None, args=()):
    return {"name": name, "start": start, "end": end, "parent": parent, "args": list(args)}


def test_self_time_and_total_from_nested_spans():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("gaps.gap_moments", 1.0, 4.0, 0),
        _span("ratpoly.pgf_moments", 3.0, 4.0, 1),
        _span("ratpoly.pgf_moments", 5.0, 6.0, 0),
    ]
    assert self_time(spans, "cli.main") == pytest.approx(6.0)
    assert total(spans, "ratpoly.pgf_moments") == pytest.approx(2.0)


def test_last_layer_takes_the_longest_call_at_the_top_width_per_table():
    spans = [
        _span("gaps.gap_pgf_table", 0.0, 1.0, args=(1, 38)),
        _span("gaps.gap_pgf_table", 1.0, 3.0, args=(1, 39)),
        _span("gaps.gap_pgf_table", 3.0, 3.1, args=(1, 39)),
        _span("gaps.gap_pgf_table", 4.0, 5.5, args=(2, 39)),
    ]
    assert last_layer(spans, "gaps.gap_pgf_table", 1) == pytest.approx(3.5)


def test_oracle_orders_count_each_sweep_once():
    spans = [
        _span("oracle.enumerate_root_distribution", 0, 1, args=(4, "cyclic")),
        _span("oracle.enumerate_root_distribution", 1, 2, args=(4, "aux")),
        _span("oracle.enumerate_gap_distribution", 2, 3, args=(4, 1)),
        _span("oracle.enumerate_gap_distribution", 3, 4, args=(4, 2)),
    ]
    assert oracle_orders(spans) == 2 * 24


def test_patched_tracer_records_library_calls_and_restores_them():
    original = stripdep.roots.aux_root_pgf
    tracer = Tracer()
    with tracer.patched():
        with tracer.span("cli.main", "verify"):
            _verify_output("--suite", "oracle", "--kmax", "4")
    assert stripdep.roots.aux_root_pgf is original
    names = {s["name"] for s in tracer.spans}
    assert {"roots.aux_root_pgf", "roots.cyclic_root_pgf", "gaps.gap_pgf_table",
            "oracle.enumerate_root_distribution"} <= names
    extras = {"max_coeff_bits": 1, "mul_us": 1.0, "output_bytes": 1,
              "table_entries": {str(i): 0 for i in range(1, 8)}}
    metrics = exact_layer_metrics(tracer.spans, extras)
    assert metrics["oracle.orders"] == 6 + 6 + 24 + 24
    assert 0 < metrics["cli.self_s"] < sum(s["end"] - s["start"] for s in tracer.spans
                                           if s["name"] == "cli.main")


def test_a_span_costs_a_positive_time_well_below_a_millisecond():
    assert 0 < span_cost_s() < 1e-3


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.patched(), tracer.span("x"):
        _verify_output("--suite", "oracle", "--kmax", "3")
    assert tracer.spans == []


def test_traced_ensemble_pass_records_the_run_and_its_chunks():
    tracer = Tracer()
    ensemble_pass(EnsembleConfig(K=40, runs=50, base_seed=2, statistics=("roots",)),
                  CheckLog(), tracer)
    runs = [k for k, s in enumerate(tracer.spans) if s["name"] == "ensemble.run_ensemble"]
    assert len(runs) == 1
    chunks = named(tracer.spans, "ensemble._simulate_chunk")
    assert all(s["parent"] == runs[0] for s in chunks)
