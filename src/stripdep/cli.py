"""Command-line entry point.

Subcommands expose the engines with reproducible configuration:

  simulate     Monte Carlo ensembles (roots, gaps, empirical gap average,
               height growth)
  exact-roots  exact root-count PGFs and moments
  exact-gaps   exact gap-count PGFs and moments
  oracle       brute-force enumeration distributions for small widths
  verify       exact-equality suites across all engines

Data goes to stdout (or --out); progress and timings go to stderr, so data
outputs are byte-identical for identical configurations. Exact quantities
are printed as "num/den" strings, never floats. Exit codes: 0 success,
1 verify found a failing check, 2 configuration/usage error, 3 resource
guard triggered.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from fractions import Fraction

from .ensemble import (
    EnsembleConfig,
    EnsembleConfigError,
    EnsembleStats,
    run_ensemble,
)
from .gaps import TableBudgetError, abc_degree, abc_recursion, gap_distribution, gap_moments
from .oracle import (
    MAX_ENUMERATION_WIDTH,
    EnumerationLimitError,
    enumerate_gap_distribution,
    enumerate_root_distribution,
)
from .process import BoundaryMode
from .ratpoly import RationalFunctionSeries, RationalPolynomial, pgf_moments
from .roots import aux_root_counts, aux_root_pgf, cyclic_root_pgf, first_step_root_counts

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3

_MODES = {"cyclic": BoundaryMode.CYCLIC, "aux": BoundaryMode.AUXILIARY}
_STATS = {"roots": "roots", "gaps": "gaps",
          "empirical-gap-average": "empirical_gap_average",
          "height-growth": "height_growth"}


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _open_out(path: str):
    try:
        return open(path, "w")
    except OSError as exc:
        raise EnsembleConfigError(f"cannot write {path}: {exc.strerror}") from exc


def _write(text: str, out: str | None) -> None:
    if out:
        with _open_out(out) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_text(header, rows, config: dict) -> str:
    buf = io.StringIO()
    for key, value in sorted(config.items()):
        buf.write(f"# {key}={value}\n")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _load_config_file(path: str) -> dict[str, str]:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise EnsembleConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise EnsembleConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values

# config-file keys -> (argparse dest, converter); list-valued flags take
# comma-separated values
_CONFIG_KEYS = {
    "K": ("K", int),
    "mode": ("mode", str),
    "runs": ("runs", int),
    "seed": ("seed", int),
    "stat": ("stat", lambda s: s.split(",")),
    "i": ("i", lambda s: [int(x) for x in s.split(",")]),
    "n-steps": ("n_steps", int),
    "threads": ("threads", int),
    "format": ("format", str),
    "out": ("out", str),
    "kmax": ("kmax", int),
    "suite": ("suite", str),
}


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(prog="stripdep", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", metavar="FILE",
                        help="key=value defaults; explicit flags win")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}

    def common(p, *, runs=False, stats=False):
        p.add_argument("--K", type=int, help="substrate width (>= 3)")
        p.add_argument("--mode", choices=sorted(_MODES), default="cyclic")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", metavar="PATH", help="write data here instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        if runs:
            p.add_argument("--runs", type=int, default=200_000)
            p.add_argument("--threads", type=int, default=1)
        if stats:
            p.add_argument("--stat", action="append", choices=sorted(_STATS),
                           help="statistic to collect (repeatable; default roots)")
            p.add_argument("--i", action="append", type=int, default=None,
                           help="gap length for gap statistics (repeatable)")
            p.add_argument("--n-steps", type=int, default=0,
                           help="deposits per run for height growth")
            p.add_argument("--gnuplot", metavar="PREFIX",
                           help="also write two-column histogram files")

    p = sub.add_parser("simulate", help="run a Monte Carlo ensemble")
    common(p, runs=True, stats=True)
    subparsers["simulate"] = p

    p = sub.add_parser("exact-roots", help="exact root-count distributions")
    common(p)
    p.add_argument("--kmax", type=int, help="compute all widths 3..kmax")
    subparsers["exact-roots"] = p

    p = sub.add_parser("exact-gaps", help="exact gap-count distributions")
    common(p)
    p.add_argument("--kmax", type=int, help="compute all widths 3..kmax")
    p.add_argument("--i", action="append", type=int, default=None,
                   help="gap length (repeatable; default 1)")
    subparsers["exact-gaps"] = p

    p = sub.add_parser("oracle", help="enumeration distributions for small widths")
    common(p)
    p.add_argument("--i", action="append", type=int, default=None,
                   help="gap length (repeatable); omit for the root count")
    subparsers["oracle"] = p

    p = sub.add_parser("verify", help="exact-equality suites across engines")
    p.add_argument("--suite", choices=("roots", "gaps", "tables", "oracle", "all"),
                   default="all")
    p.add_argument("--kmax", type=int, default=None,
                   help="largest width (suite-specific default)")
    p.add_argument("--out", metavar="PATH")
    subparsers["verify"] = p

    return parser, subparsers


def _apply_config_file(path, subparsers):
    values = _load_config_file(path)
    for key, raw in values.items():
        if key not in _CONFIG_KEYS:
            raise EnsembleConfigError(f"unknown config key {key!r}")
        dest, conv = _CONFIG_KEYS[key]
        for p in subparsers.values():
            if any(a.dest == dest for a in p._actions):
                p.set_defaults(**{dest: conv(raw)})


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    if args.K is None:
        raise EnsembleConfigError("simulate requires --K")
    stat_names = args.stat or ["roots"]
    statistics = tuple(dict.fromkeys(_STATS[s] for s in stat_names))
    gap_lengths = tuple(args.i) if args.i else ()
    cfg = EnsembleConfig(
        K=args.K,
        mode=_MODES[args.mode],
        runs=args.runs,
        base_seed=args.seed,
        statistics=statistics,
        gap_lengths=gap_lengths,
        growth_steps=args.n_steps,
        workers=args.threads,
    )
    stats = run_ensemble(cfg)
    print(f"simulated {cfg.runs} runs of K={cfg.K} in {stats.runtime_seconds:.2f}s",
          file=sys.stderr)

    if args.format == "json":
        payload = stats.summary_dict()
        payload["seed"] = cfg.base_seed
        _write(_json_text(payload), args.out)
    else:
        rows = _histogram_rows(stats)
        _write(_csv_text(("statistic", "bin", "count"), rows,
                         {**cfg.to_json_dict(), "generator": stats.generator_id}), args.out)
    if args.gnuplot:
        for name, series in _histogram_series(stats).items():
            path = f"{args.gnuplot}{name}.dat"
            with _open_out(path) as fh:
                fh.write(f"# {json.dumps(cfg.to_json_dict(), sort_keys=True)}\n")
                for b, c in series:
                    fh.write(f"{b} {c}\n")
            print(f"wrote {path}", file=sys.stderr)
    return EXIT_OK


def _histogram_series(stats: EnsembleStats) -> dict[str, list[tuple]]:
    out = {}
    cfg = stats.config
    for s in cfg.statistics:
        if s == "gaps":
            for i in cfg.gap_lengths:
                out[f"gaps_{i}"] = sorted(stats.histogram("gaps", i).items())
        elif s == "roots":
            out["roots"] = sorted(stats.histogram("roots").items())
        else:
            edges, counts = stats.histogram(s)
            centers = (edges[:-1] + edges[1:]) / 2
            out[s] = [(format(b, ".10g"), int(c)) for b, c in zip(centers, counts)]
    return out


def _histogram_rows(stats: EnsembleStats) -> list[tuple]:
    rows = []
    for name, series in _histogram_series(stats).items():
        for b, c in series:
            rows.append((name, b, c))
    return rows


# --------------------------------------------------------------------------
# exact engines
# --------------------------------------------------------------------------

def _k_range(args) -> list[int]:
    if args.kmax is not None:
        if args.kmax < 3:
            raise EnsembleConfigError(f"--kmax must be >= 3, got {args.kmax}")
        return list(range(3, args.kmax + 1))
    if args.K is None:
        raise EnsembleConfigError("need --K or --kmax")
    return [args.K]


def _cmd_exact_roots(args) -> int:
    mode = _MODES[args.mode]
    results = []
    for K in _k_range(args):
        pgf = cyclic_root_pgf(K) if mode is BoundaryMode.CYCLIC else aux_root_pgf(K)
        m = pgf_moments(pgf)
        results.append({"K": K, "mean": _frac(m.mean), "variance": _frac(m.variance),
                        "coefficients": pgf.fraction_strings()})
    config = {"engine": "exact-roots", "mode": args.mode,
              "K_values": [r["K"] for r in results]}
    if args.format == "json":
        _write(_json_text({"config": config, "results": results}), args.out)
    else:
        rows = [(r["K"], r["mean"], r["variance"], ";".join(r["coefficients"]))
                for r in results]
        _write(_csv_text(("K", "mean", "variance", "coefficients"), rows, config), args.out)
    return EXIT_OK


def _cmd_exact_gaps(args) -> int:
    lengths = args.i or [1]
    results = []
    for i in lengths:
        for K in _k_range(args):
            if not 1 <= i <= K - 1:
                if args.kmax is not None:
                    continue          # range mode: skip widths below i+1
                raise EnsembleConfigError(f"gap length {i} out of range 1..{K - 1}")
            pgf = gap_distribution(i, K)
            m = pgf_moments(pgf)
            results.append({"i": i, "K": K, "mean": _frac(m.mean),
                            "variance": _frac(m.variance),
                            "coefficients": pgf.fraction_strings()})
    config = {"engine": "exact-gaps", "i_values": lengths,
              "K_values": sorted({r["K"] for r in results})}
    if args.format == "json":
        _write(_json_text({"config": config, "results": results}), args.out)
    else:
        rows = [(r["i"], r["K"], r["mean"], r["variance"], ";".join(r["coefficients"]))
                for r in results]
        _write(_csv_text(("i", "K", "mean", "variance", "coefficients"), rows, config),
               args.out)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    if args.K is None:
        raise EnsembleConfigError("oracle requires --K")
    mode = _MODES[args.mode]
    dists = ([enumerate_gap_distribution(args.K, i) for i in args.i] if args.i
             else [enumerate_root_distribution(args.K, mode)])
    config = {"engine": "oracle", "K": args.K, "mode": args.mode,
              "max_width": MAX_ENUMERATION_WIDTH}
    payload = {"config": config, "results": [d.to_json_dict() for d in dists]}
    if args.format == "json":
        _write(_json_text(payload), args.out)
    else:
        rows = []
        for d in dists:
            label = f"gaps[{d.i}]" if d.i is not None else "roots"
            for v, p in sorted(d.support.items()):
                rows.append((label, v, _frac(p)))
        _write(_csv_text(("statistic", "value", "probability"), rows, config), args.out)
    return EXIT_OK


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def _check(checks, name, ok, detail=""):
    checks.append((name, bool(ok), detail))


def _suite_roots(kmax: int) -> list[tuple[str, bool, str]]:
    checks = []
    variance_law = {3: Fraction(0), 4: Fraction(2, 9)}
    ok_mean = ok_var = ok_norm = ok_deg = True
    detail = ""
    for K in range(3, kmax + 1):
        pgf = cyclic_root_pgf(K)
        m = pgf_moments(pgf)
        if m.mean != Fraction(K, 3):
            ok_mean, detail = False, f"K={K}: mean {m.mean}"
        expect = variance_law.get(K, Fraction(2 * K, 45))
        if m.variance != expect:
            ok_var, detail = False, f"K={K}: variance {m.variance} != {expect}"
        if aux_root_pgf(K).sum_of_coefficients() != 1:
            ok_norm = False
        if aux_root_pgf(K).degree != (K - 1) // 2:
            ok_deg = False
    _check(checks, f"root-count mean K/3 for K=3..{kmax}", ok_mean, detail)
    _check(checks, f"root-count variance law (0, 2/9, then 2K/45) for K=3..{kmax}",
           ok_var, detail)
    _check(checks, f"PGF normalization at z=1 for K=3..{kmax}", ok_norm)
    _check(checks, f"PGF degree floor((K-1)/2) for K=3..{kmax}", ok_deg)
    return checks


def _suite_gaps(kmax: int) -> list[tuple[str, bool, str]]:
    checks = []
    kg = min(kmax, 40)
    exceptions = {4: Fraction(8, 9), 5: Fraction(2, 9), 6: Fraction(24, 25),
                  7: Fraction(184, 225), 8: Fraction(1588, 1575)}
    ok = True
    detail = ""
    for K in range(4, kg + 1):
        m = gap_moments(1, K)
        mean = Fraction(2, 3) if K == 4 else Fraction(2 * K, 15)
        var = exceptions.get(K, Fraction(1772 * K, 14175))
        if m.mean != mean or m.variance != var:
            ok, detail = False, f"K={K}: ({m.mean}, {m.variance})"
    _check(checks, f"unit-gap moment laws for K=4..{kg}", ok, detail)
    if kg >= 31:
        means = {2: Fraction(1, 9), 3: Fraction(2, 35), 4: Fraction(1, 45),
                 5: Fraction(4, 567), 6: Fraction(1, 525), 7: Fraction(2, 4455)}
        variances = {2: Fraction(32, 405), 3: Fraction(119732, 2837835),
                     4: Fraction(12154, 637875), 5: Fraction(649555688, 97692469875),
                     6: Fraction(5967328, 3192564375),
                     7: Fraction(191501338988, 428772250281375)}
        for i in range(2, 8):
            ok = True
            detail = ""
            for K in range(31, kg + 1):
                m = gap_moments(i, K)
                if m.mean != means[i] * K or m.variance != variances[i] * K:
                    ok, detail = False, f"K={K}"
            _check(checks, f"gap-{i} linear moment laws for K=31..{kg}", ok, detail)
    ki = min(kmax, 25)
    ok = True
    detail = ""
    for K in range(3, ki + 1):
        tot = sum((gap_moments(i, K).mean for i in range(1, K)), Fraction(0))
        wtot = sum((i * gap_moments(i, K).mean for i in range(1, K)), Fraction(0))
        if tot != Fraction(K, 3) or wtot != Fraction(2 * K, 3):
            ok, detail = False, f"K={K}: ({tot}, {wtot})"
    _check(checks, f"gap-mean identities (sum K/3, weighted sum 2K/3) for K=3..{ki}",
           ok, detail)
    return checks


def _poly(coeffs) -> RationalPolynomial:
    return RationalPolynomial(coeffs)


def _omx(n: int) -> RationalPolynomial:
    out = RationalPolynomial.one()
    for _ in range(n):
        out = out * RationalPolynomial((1, -1))
    return out


# (scale, numerator ascending coefficients) with scale*(1-x)^2*E_i = numerator;
# coefficient of x^K is the mean gap-i count at width K+1. The i=1 numerator
# carries the leading x^3 required for the series to start at width 4.
MEAN_SERIES_ROWS = {
    1: (15, (0, 0, 0, 10, -10, 2)),
    2: (9, (0, 0, 0, 0, 6, -6, 1)),
    3: (105, (0, 0, 0, 70, -140, 112, -42, 6)),
    4: (45, (0, 0, 0, 0, 15, -30, 23, -8, 1)),
    5: (2835, (0, 0, 0, 0, 0, 378, -756, 558, -180, 20)),
    6: (1575, (0, 0, 0, 0, 0, 0, 70, -140, 100, -30, 3)),
    7: (31185, (0, 0, 0, 0, 0, 0, 0, 396, -792, 550, -154, 14)),
}

# (scale, shift, lead, inner ascending coefficients) with
# scale*(1-x)^3*F_i = lead*x^shift*inner; coefficient of x^K is the second
# factorial moment at width K+1. All rows have a third-order pole at x=1,
# matching linear variance growth. The i=2 inner expands
# (15-15x+6x^2-x^3)*(3-3x+x^2)^2.
FACTORIAL_SERIES_ROWS = {
    1: (14175, 3, 2, (4725, -14175, 19845, -16380, 8595, -2880, 580, -58)),
    2: (405, 5, 2, (135, -405, 549, -432, 213, -66, 12, -1)),
    3: (14189175, 7, 2, (1711710, -5135130, 6786780, -5118113, 2380287,
                         -682864, 111636, -7974)),
    4: (637875, 9, 2, (15525, -46575, 60255, -43695, 19200, -5100, 752, -47)),
    5: (97692469875, 11, 4, (157260285, -471780855, 598855005, -418392270,
                             173906073, -42827760, 5728788, -318266)),
    6: (3192564375, 13, 2, (969150, -2907450, 3627930, -2446595, 963525,
                            -220570, 26940, -1347)),
    7: (428772250281375, 15, 2, (9215899308, -27647697924, 33973625070,
                                 -22162777791, 8287091967, -1769271504,
                                 198572308, -9026014)),
}


def factorial_series_numerator(i: int) -> RationalPolynomial:
    scale, shift, lead, inner = FACTORIAL_SERIES_ROWS[i]
    return (lead * _poly(inner)).shift(shift)


def _suite_tables(kmax: int) -> list[tuple[str, bool, str]]:
    checks = []
    table1 = {
        3: ((1, -2, 1), (0, 1, -1), (2, 0, 1), 3),
        4: ((), (1, -1), (1, 2), 3),
        5: ((0, 2, -4, 2), (3, -3, 2, -2), (7, 6, 0, 2), 15),
        6: ((5, -10, 5), (4, 7, -11), (20, 8, 17), 45),
        7: ((18, -36, 35, -34, 17), (45, -2, -43, 17, -17), (98, 132, 68, 0, 17), 315),
    }
    kt = max(7, min(kmax, 40))
    triples = abc_recursion(kt)
    ok = True
    detail = ""
    for t in triples:
        if t.K in table1:
            ea, eb, ec, den = table1[t.K]
            want = tuple(_poly([Fraction(x, den) for x in cs]) for cs in (ea, eb, ec))
            if (t.a, t.b, t.c) != want:
                ok, detail = False, f"K={t.K}"
    _check(checks, "unit-gap polynomial triples for K=3..7", ok, detail)
    ok = all(t.a(1) == 0 and t.b(1) == 0 and t.c(1) == 1 and
             t.c.degree == abc_degree(t.K) for t in triples)
    _check(checks, f"triple normalization and degree law for K=3..{kt}", ok)
    ok = all(t.c == gap_distribution(1, t.K + 1) for t in triples)
    _check(checks, f"cross-engine: c_K equals unit-gap PGF at width K+1, K=3..{kt}", ok)
    reference = first_step_root_counts(kt)
    ok = all(aux_root_counts(K) == reference[K] for K in range(kt + 1))
    _check(checks, f"cross-engine: insertion root engine equals first-step recursion "
                   f"for K=0..{kt}", ok)

    ks = min(kmax, 25)
    for i in range(1, 8):
        scale, num = MEAN_SERIES_ROWS[i]
        series = RationalFunctionSeries(_poly(num), scale * _omx(2)).coefficients(ks)
        ok = all(series[K] == gap_moments(i, K + 1).mean
                 for K in range(max(3, i), ks))
        note = " (leading power x^3 restored)" if i == 1 else ""
        _check(checks, f"mean series row i={i}{note} vs engine, widths 4..{ks}", ok)
    for i in range(1, 8):
        scale = FACTORIAL_SERIES_ROWS[i][0]
        series = RationalFunctionSeries(
            factorial_series_numerator(i), scale * _omx(3)).coefficients(ks)
        ok = all(series[K] == gap_moments(i, K + 1).second_factorial_moment
                 for K in range(max(3, i), ks))
        note = " (third-order pole)" if i == 5 else ""
        _check(checks, f"second-factorial-moment series row i={i}{note} vs engine, "
                       f"widths 4..{ks}", ok)
    return checks


def _suite_oracle(kmax: int) -> list[tuple[str, bool, str]]:
    checks = []
    if kmax > MAX_ENUMERATION_WIDTH:
        raise EnumerationLimitError(kmax)
    for K in range(3, kmax + 1):
        ok = enumerate_root_distribution(K, BoundaryMode.CYCLIC).pgf() == cyclic_root_pgf(K)
        _check(checks, f"cyclic root enumeration equals PGF engine at K={K}", ok)
        ok = enumerate_root_distribution(K, BoundaryMode.AUXILIARY).pgf() == aux_root_pgf(K)
        _check(checks, f"auxiliary root enumeration equals PGF engine at K={K}", ok)
        ok = all(enumerate_gap_distribution(K, i).pgf() == gap_distribution(i, K)
                 for i in range(1, K))
        _check(checks, f"gap enumeration equals recursion engine at K={K}, all i", ok)
    return checks


_SUITES = {"roots": (_suite_roots, 60), "gaps": (_suite_gaps, 40),
           "tables": (_suite_tables, 25), "oracle": (_suite_oracle, 8)}


def _cmd_verify(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    lines = []
    failed = 0
    for name in names:
        suite, default_kmax = _SUITES[name]
        kmax = args.kmax if args.kmax is not None else default_kmax
        started = time.perf_counter()
        checks = suite(kmax)
        elapsed = time.perf_counter() - started
        print(f"suite {name}: {len(checks)} checks in {elapsed:.1f}s", file=sys.stderr)
        for check_name, ok, detail in checks:
            status = "PASS" if ok else "FAIL"
            suffix = f" ({detail})" if detail and not ok else ""
            lines.append(f"{status}: [{name}] {check_name}{suffix}")
            failed += 0 if ok else 1
    lines.append("OK: all checks passed" if failed == 0
                 else f"FAILED: {failed} failing check(s)")
    _write("\n".join(lines) + "\n", args.out)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "exact-roots": _cmd_exact_roots,
    "exact-gaps": _cmd_exact_gaps,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # the file sets the sub-commands' defaults; parse again so that
            # explicit flags, in any spelling argparse accepts, still win
            _apply_config_file(args.config, subparsers)
            args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (EnsembleConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EnumerationLimitError, TableBudgetError) as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
