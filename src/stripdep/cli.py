"""Command-line entry point.

Subcommands expose the engines with reproducible configuration:

  simulate     Monte Carlo ensembles (roots, gaps, empirical gap average,
               height growth)
  exact-roots  exact root-count PGFs and moments
  exact-gaps   exact gap-count PGFs and moments
  oracle       brute-force enumeration distributions for small widths
  verify       exact-equality suites across all engines (the laws are in
               stripdep.laws)

Data goes to stdout (or --out); progress and timings go to stderr, so data
outputs are byte-identical for identical configurations. Exact quantities
are printed as "num/den" strings by stripdep.ratpoly.fraction_string, never
floats; the cyclic/auxiliary root relation lives in stripdep.roots alone.
Exit codes: 0 success, 1 verify found a failing check, 2 configuration/usage
error, 3 resource guard triggered or memory exhausted. An --out or --gnuplot
path that cannot be written, or that is the same file as the --config file
or another output, exits 2 before any work is done.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from functools import cache

from .ensemble import GENERATOR_ID, VALID_STATISTICS, EnsembleConfig, run_ensemble
from .gaps import TableBudgetError, build_gap_tables, gap_distribution, gap_moments
from .laws import SUITES
from .oracle import (MAX_ENUMERATION_WIDTH, EnumerationLimitError, _check_enumeration_width,
                     enumerate_gap_distribution, enumerate_root_distribution)
from .process import (MIN_WIDTH, BoundaryMode, EnsembleConfigError, _check_cyclic,
                      _check_gap_index, _check_width)
from .ratpoly import RationalPolynomial, count_moments, fraction_string
from .roots import root_layers

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3

_STAT_CHOICES = sorted(s.replace("_", "-") for s in VALID_STATISTICS)


def _write(text: str, out: str | None, mode: str = "w") -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, mode) as fh:
            fh.write(text)
    except OSError as exc:
        raise EnsembleConfigError(f"cannot write {out}: {exc.strerror}") from exc


def _check_out(path: str) -> None:
    """Fail as writing ``path`` would, before any work is done. Appending
    nothing truncates no existing file, and a file the check made is removed:
    through a dangling symlink that is the link's target, not the link."""
    made = not os.path.exists(path)
    _write("", path, "a")
    if made:
        os.remove(os.path.realpath(path))


def _check_distinct(files: list[tuple[str, str | None]]) -> None:
    """Refuse a ``(flag, path)`` that resolves to the path of an earlier one:
    the command would overwrite that file. A ``None`` path is not given."""
    seen = {}
    for flag, path in files:
        if path:
            real = os.path.realpath(path)
            if real in seen:
                raise EnsembleConfigError(f"{flag} {path} is the same file as {seen[real]}")
            seen[real] = f"{flag} {path}"


def _write_data(args, config: dict, payload, header: tuple[str, ...], rows) -> None:
    """Write data in ``--format`` to ``--out`` or stdout: the JSON of
    ``payload()``, or "# key=value" lines of ``config``, then ``header`` and
    ``rows()`` as CSV. Only the format asked for is built."""
    if args.format == "json":
        _write(json.dumps(payload(), indent=2, sort_keys=True) + "\n", args.out)
        return
    buf = io.StringIO()
    for key, value in sorted(config.items()):
        buf.write(f"# {key}={value}\n")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows())
    _write(buf.getvalue(), args.out)


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


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(prog="stripdep", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", metavar="FILE",
                        help="key=value defaults; explicit flags win")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, width="substrate width (>= 3)"):
        p.add_argument("--K", type=int, help=width)
        p.add_argument("--out", metavar="PATH", help="write data here instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    def mode(p):
        p.add_argument("--mode", choices=sorted(m.value for m in BoundaryMode), default="cyclic")

    p = sub.add_parser("simulate", help="run a Monte Carlo ensemble")
    common(p)
    mode(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--runs", type=int, default=200_000)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--stat", action="append", choices=_STAT_CHOICES,
                   help="statistic to collect (repeatable; default roots)")
    p.add_argument("--i", action="append", type=int, default=None,
                   help="gap length for gap statistics (repeatable)")
    p.add_argument("--n-steps", type=int, default=0,
                   help="deposits per run for height growth")
    p.add_argument("--gnuplot", metavar="PREFIX",
                   help="also write two-column histogram files")

    p = sub.add_parser("exact-roots", help="exact root-count distributions")
    common(p, width="substrate width (>= 3; --mode aux also takes 0, 1 and 2, "
                    "which have no interior site and so no root)")
    mode(p)
    p.add_argument("--kmax", type=int, help="compute all widths 3..kmax (kmax >= 3 in "
                                            "both modes); not with --K")

    p = sub.add_parser("exact-gaps", help="exact gap-count distributions (cyclic process)")
    common(p)
    p.add_argument("--kmax", type=int, help="compute all widths 3..kmax; not with --K")
    p.add_argument("--i", action="append", type=int, default=None,
                   help="gap length (repeatable; default 1)")

    p = sub.add_parser("oracle", help="enumeration distributions for small widths")
    common(p)
    mode(p)
    p.add_argument("--i", action="append", type=int, default=None,
                   help="gap length (repeatable); omit for the root count")

    p = sub.add_parser("verify", help="exact-equality suites across engines")
    p.add_argument("--suite", choices=(*SUITES, "all"), default="all")
    p.add_argument("--kmax", type=int, default=None,
                   help="largest width (suite-specific default; the gaps and "
                        "tables suites stop at 40, and at 25 for some laws)")
    p.add_argument("--out", metavar="PATH")

    return parser, sub.choices


def _apply_config_file(path, command: str, subparsers: dict) -> None:
    """Set the file's values as defaults of the chosen subcommand's parser.
    A key is one of its flags without the dashes, converted by that flag's
    type (comma-separated for a repeatable flag); a key the subcommand has
    no flag for is an error, as the flag is."""
    flags = {name: {opt[2:]: action for action in p._actions for opt in action.option_strings
                    if opt.startswith("--") and opt != "--help"}
             for name, p in subparsers.items()}
    for key, raw in _load_config_file(path).items():
        action = flags[command].get(key)
        if action is None:
            if not any(key in known for known in flags.values()):
                raise EnsembleConfigError(f"unknown config key {key!r}")
            raise EnsembleConfigError(f"config key {key!r} does not apply to {command}")
        repeatable = isinstance(action, argparse._AppendAction)
        values = []
        # defaults skip argparse's type and choices checks, so make them here
        for text in raw.split(",") if repeatable else [raw]:
            try:
                values.append((action.type or str)(text))
            except ValueError:      # str never raises, so action.type is set
                raise EnsembleConfigError(
                    f"config key {key}: invalid {action.type.__name__} value {text!r}") from None
            if action.choices is not None and values[-1] not in action.choices:
                raise EnsembleConfigError(
                    f"config key {key}: invalid choice {values[-1]!r} "
                    f"(choose from {', '.join(action.choices)})")
        subparsers[command].set_defaults(**{action.dest: values if repeatable else values[0]})


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    if args.K is None:
        raise EnsembleConfigError("simulate requires --K")
    statistics = tuple(s.replace("-", "_") for s in args.stat or ["roots"])
    cfg = EnsembleConfig(
        K=args.K,
        mode=BoundaryMode(args.mode),
        runs=args.runs,
        base_seed=args.seed,
        statistics=statistics,
        gap_lengths=tuple(args.i or ()),
        growth_steps=args.n_steps,
        workers=args.threads,
    )
    columns = {(s if i is None else f"gaps_{i}"): (s, i) for s, i in cfg.columns()}
    gnuplot = {name: f"{args.gnuplot}{name}.dat" for name in columns} if args.gnuplot else {}
    _check_distinct([("--config", args.config), ("--out", args.out),
                     *(("--gnuplot file", path) for path in gnuplot.values())])
    for path in gnuplot.values():
        _check_out(path)
    stats = run_ensemble(cfg)
    print(f"simulated {cfg.runs} runs of K={cfg.K} in {stats.runtime_seconds:.2f}s",
          file=sys.stderr)

    series = cache(lambda: {name: stats.histogram_series(*column)
                            for name, column in columns.items()})
    _write_data(args, {**cfg.to_json_dict(), "generator": GENERATOR_ID},
                lambda: {**stats.summary_dict(), "seed": cfg.base_seed},
                ("statistic", "bin", "count"),
                lambda: [(name, b, c) for name, pairs in series().items() for b, c in pairs])
    for name, path in gnuplot.items():
        _write(f"# {json.dumps(cfg.to_json_dict(), sort_keys=True)}\n"
               + "".join(f"{b} {c}\n" for b, c in series()[name]), path)
        print(f"wrote {path}", file=sys.stderr)
    return EXIT_OK


# --------------------------------------------------------------------------
# exact engines
# --------------------------------------------------------------------------

def _check_kmax(kmax: int) -> None:
    if kmax < MIN_WIDTH:
        raise EnsembleConfigError(f"--kmax must be >= {MIN_WIDTH}, got {kmax}")


def _k_range(args) -> list[int]:
    # a config-file value counts as given, so neither can silently win
    if args.K is not None and args.kmax is not None:
        raise EnsembleConfigError(f"--K {args.K} and --kmax {args.kmax} are exclusive: "
                                  f"give one width or one range")
    if args.kmax is not None:
        _check_kmax(args.kmax)
        return list(range(MIN_WIDTH, args.kmax + 1))
    if args.K is None:
        raise EnsembleConfigError("need --K or --kmax")
    return [args.K]


def _exact_result(m, pgf, **keys) -> dict:
    return {**keys, "mean": fraction_string(m.mean), "variance": fraction_string(m.variance),
            "coefficients": pgf.fraction_strings()}


def _write_exact(args, config: dict, results: list[dict], keys: tuple[str, ...]) -> None:
    _write_data(args, config, lambda: {"config": config, "results": results},
                (*keys, "mean", "variance", "coefficients"),
                lambda: [(*(r[k] for k in keys), r["mean"], r["variance"],
                          ";".join(r["coefficients"])) for r in results])


def _cmd_exact_roots(args) -> int:
    widths = _k_range(args)
    results = [_exact_result(count_moments(counts, total),
                             RationalPolynomial.from_counts(counts, total), K=K)
               for K, counts, total in root_layers(BoundaryMode(args.mode), widths[-1])
               if K >= widths[0]]
    config = {"engine": "exact-roots", "mode": args.mode,
              "K_values": [r["K"] for r in results]}
    _write_exact(args, config, results, ("K",))
    return EXIT_OK


def _cmd_exact_gaps(args) -> int:
    lengths = list(dict.fromkeys(args.i or [1]))
    widths = _k_range(args)
    _check_width(widths[0])
    for i in lengths:
        _check_gap_index(i, widths[-1])
    build_gap_tables(lengths, widths[-1])
    results = [_exact_result(gap_moments(i, K), gap_distribution(i, K), i=i, K=K)
               for i in lengths for K in widths if i <= K - 1]
    config = {"engine": "exact-gaps", "i_values": lengths,
              "K_values": sorted({r["K"] for r in results})}
    _write_exact(args, config, results, ("i", "K"))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    if args.K is None:
        raise EnsembleConfigError("oracle requires --K")
    mode = BoundaryMode(args.mode)
    if args.i:
        _check_cyclic(mode, "gap statistics")
    dists = ([enumerate_gap_distribution(args.K, i) for i in dict.fromkeys(args.i)] if args.i
             else [enumerate_root_distribution(args.K, mode)])
    config = {"engine": "oracle", "K": args.K, "mode": args.mode,
              "max_width": MAX_ENUMERATION_WIDTH}
    _write_data(args, config,
                lambda: {"config": config, "results": [d.to_json_dict() for d in dists]},
                ("statistic", "value", "probability"),
                lambda: [(f"gaps[{d.i}]" if d.i is not None else "roots", v, fraction_string(p))
                         for d in dists for v, p in sorted(d.support.items())])
    return EXIT_OK


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    if args.kmax is not None:
        _check_kmax(args.kmax)
        smallest = max(SUITES[name][2] for name in names)
        if args.kmax < smallest:
            raise EnsembleConfigError(f"--suite {args.suite} needs --kmax >= {smallest}, "
                                      f"got {args.kmax}")
        if "oracle" in names:
            _check_enumeration_width(args.kmax)
    lines = []
    failed = 0
    for name in names:
        suite, default_kmax, _ = SUITES[name]
        kmax = args.kmax if args.kmax is not None else default_kmax
        started = time.perf_counter()
        laws = suite(kmax)
        elapsed = time.perf_counter() - started
        print(f"suite {name}: {len(laws)} checks in {elapsed:.1f}s", file=sys.stderr)
        for law in laws:
            lines.append(f"{'PASS' if law.failure is None else 'FAIL'}: [{name}] {law}")
            failed += law.failure is not None
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


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parsed arguments: explicit flags, else config-file values, else defaults."""
    parser, subparsers = build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        # the file sets the subcommand's defaults; parse again so that
        # explicit flags, in any spelling argparse accepts, still win
        _apply_config_file(args.config, args.command, subparsers)
        args = parser.parse_args(argv)
    return args


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parse_args(argv)
        if args.out:
            _check_distinct([("--config", args.config), ("--out", args.out)])
            _check_out(args.out)
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EnumerationLimitError, TableBudgetError, MemoryError) as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
