"""Ballistic deposition on a strip: simulation, exact distributions, oracle.

The package has three independent routes to the same final-surface
statistics, cross-validated against each other:

- `stripdep.process` / `stripdep.ensemble`: Monte Carlo simulation of the
  deposition chain (full heights or the first-hit permutation fast path);
- `stripdep.roots` / `stripdep.gaps`: exact distributions via generating
  function recursions over integer counts of first-hit orders;
- `stripdep.oracle`: brute-force enumeration over all first-hit orders for
  small widths.
"""

from .ensemble import (
    EnsembleConfig,
    EnsembleConfigError,
    EnsembleStats,
    empirical_gap_average,
    height_growth_estimate,
    normalized_ks_statistic,
    run_ensemble,
)
from .gaps import (
    AbcTriple,
    GapRecursionTable,
    TableBudgetError,
    abc_recursion,
    build_gap_tables,
    gap_distribution,
    gap_moments,
    gap_pgf_table,
)
from .oracle import (
    EnumerationLimitError,
    ExactDistribution,
    enumerate_gap_distribution,
    enumerate_root_distribution,
)
from .process import (
    BoundaryMode,
    FirstHitPermutation,
    RootSet,
    deposit,
    first_hit_ranks,
    gap_vector,
    roots_from_permutation,
    simulate_final_roots,
)
from .ratpoly import MomentSummary, RationalPolynomial, count_moments, pgf_moments
from .roots import (
    asymptotic_root_pgf,
    aux_root_pgf,
    cyclic_root_pgf,
    pole_position,
    root_series_closed_form,
)

__version__ = "0.1.0"
