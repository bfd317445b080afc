"""Exact arithmetic for restricted Euler products.

Coefficients of prod_{m in S} (1 - q^m)^(-f_ell(m)) by two independent
exact paths, maximal part products with full maximizer enumeration,
eventual log-concavity classification, and (n, ell) sign-grid sweeps.

`__all__` is the public API, in the order of the README's "Python API"
section.  Every other name (return types such as DeltaValue or QValue,
the verdict constants, the suites' BATTERY) is imported from the
submodule that defines it.
"""

from .classify import a_ratio, classify_pipeline, q_value
from .harness import BudgetExceeded, default_predictions, emit_grid, parse_grid_csv, stabilization, sweep
from .maxprod import (
    MaxProdReport,
    MaxProdTable,
    closed_form_max,
    max_product,
    max_product_bruteforce,
    max_product_bruteforce_all,
    max_product_values,
)
from .model import exceptions_from_spec, next_allowed, weight_from_spec
from .qseries import check_bounds, coeffs_by_product, coeffs_by_recurrence, delta, row_signs
from .suites import SUITE_IDS, verify_suite

__all__ = [
    # exception sets and weights
    "exceptions_from_spec", "weight_from_spec", "next_allowed",
    # coefficients and the sign of Delta
    "coeffs_by_recurrence", "coeffs_by_product", "delta", "row_signs", "check_bounds",
    # maximal products
    "max_product", "max_product_values", "MaxProdTable", "MaxProdReport", "closed_form_max",
    "max_product_bruteforce", "max_product_bruteforce_all",
    # classification
    "classify_pipeline", "q_value", "a_ratio",
    # sign grids
    "sweep", "BudgetExceeded", "emit_grid", "parse_grid_csv", "default_predictions", "stabilization",
    # verification
    "verify_suite", "SUITE_IDS",
]
