#!/usr/bin/env python3
"""Monte Carlo ensembles: histograms and the normal-limit picture.

Reproduces the reference histogram data: root counts for a range of widths,
gap counts at width 1500, and the empirical average gap. Writes CSVs next to
this script under ./out/ and prints the moment checks. The full 200,000-run
setting takes a couple of minutes; the default here is a tenth of that.

Usage: python ensemble_histograms.py [--runs N] [--out DIR]
"""

import argparse
import math
from pathlib import Path

from stripdep import EnsembleConfig, normalized_ks_statistic, run_ensemble


def write_csv(stats, path, statistic, i=None):
    stats.write_histogram_csv(path, statistic, i)
    print(f"  wrote {path}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", default=str(Path(__file__).parent / "out"))
    args = ap.parse_args()
    out = Path(args.out)

    print(f"root-count histograms, {args.runs} runs each")
    for K in (100, 300, 500, 1500):
        cfg = EnsembleConfig(K=K, runs=args.runs, base_seed=args.seed,
                             statistics=("roots",))
        stats = run_ensemble(cfg)
        mean, var = stats.mean("roots"), stats.variance("roots")
        ks = normalized_ks_statistic(stats.samples("roots"),
                                     K / 3, math.sqrt(2 * K / 45))
        print(f"K={K:>5}: mean {mean:9.3f} (K/3 = {K / 3:.1f})  "
              f"variance {var:8.3f} (2K/45 = {2 * K / 45:.2f})  KS {ks:.4f}")
        write_csv(stats, out / f"roots_hist_K{K}.csv", "roots")

    print()
    print(f"gap counts and empirical gap average at K=1500, {args.runs} runs")
    cfg = EnsembleConfig(K=1500, runs=args.runs, base_seed=args.seed,
                         statistics=("gaps", "empirical_gap_average"),
                         gap_lengths=(1, 2, 3, 4, 5, 6))
    stats = run_ensemble(cfg)
    for i in range(1, 7):
        print(f"  gaps of length {i}: mean {stats.mean('gaps', i):8.2f}")
        write_csv(stats, out / f"gap{i}_hist_K1500.csv", "gaps", i)
    emp = stats.samples("empirical_gap_average")
    t = math.sqrt(1500) * (emp - 2.0)
    print(f"  empirical gap average: mean {emp.mean():.4f} (-> 2); "
          f"variance of sqrt(K)*(avg-2): {t.var(ddof=1):.3f} (-> 18/5 = 3.6)")
    write_csv(stats, out / "empirical_gap_average_hist_K1500.csv", "empirical_gap_average")


if __name__ == "__main__":
    main()
