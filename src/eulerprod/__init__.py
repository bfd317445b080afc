"""Exact arithmetic for restricted Euler products.

Coefficients of prod_{m in S} (1 - q^m)^(-f_ell(m)) by two independent
exact paths, maximal part products with full maximizer enumeration,
eventual log-concavity classification, and (n, ell) sign-grid sweeps.
"""

from .classify import (
    CONDITIONAL,
    EVENTUALLY_CONCAVE,
    EVENTUALLY_CONVEX,
    UNKNOWN,
    ZERO,
    ARatio,
    HypothesisRecord,
    Prediction,
    QValue,
    a_ratio,
    classify_delta_branch,
    classify_pipeline,
    classify_refined,
    delta_branch_n_bound,
    q_value,
    theorem_table,
)
from .harness import (
    BudgetExceeded,
    SignGrid,
    StabilizationRow,
    default_predictions,
    emit_grid,
    parse_grid_csv,
    stabilization,
    sweep,
)
from .maxprod import (
    MaxProdReport,
    MaxProdTable,
    PartitionMultiset,
    closed_form_max,
    max_product,
    max_product_bruteforce,
    max_product_bruteforce_all,
    max_product_values,
)
from .model import (
    ExceptionSet,
    MultiplesOf,
    PowersOf,
    SupportComplement,
    WeightFamily,
    divisors,
    enumerate_members,
    exceptions_from_spec,
    largest_S_divisor,
    member,
    next_allowed,
    sigma_E1,
    support_view,
    weight_from_spec,
)
from .qseries import (
    DeltaValue,
    GTable,
    PartitionTable,
    check_bounds,
    check_g_bounds,
    coeffs_by_product,
    coeffs_by_recurrence,
    delta,
    g_table,
    row_signs,
)
from .suites import BATTERY, SUITE_IDS, CheckResult, SuiteReport, verify_suite

__all__ = [name for name in dir() if not name.startswith("_")]
