"""Trace-defined linear codes over F_{p^m} (p an odd prime, m > 2) with
exact complete weight enumerators.

The package pairs an exhaustive-enumeration oracle with closed-form
predictions built from quadratic Gauss sums and order-2 cyclotomic
numbers, all in exact integer / cyclotomic-integer arithmetic, plus a
CLI for building, predicting and verifying codes.
"""

from .charsums import (
    cyclotomic_numbers_direct,
    cyclotomic_numbers_order2,
    gauss_sum_closed_cyclotomic,
    gauss_sum_counted,
    gauss_sum_direct,
    quadratic_exponential_sum,
    quadratic_exponential_sum_closed,
    quadratic_gauss_sum_fp,
    quartic_reading_sign,
)
from .closedform import (
    CwePrediction,
    classify_optimality,
    correction_rows,
    discriminant_pair_counts,
    gauss_int,
    gauss_pair_int,
    parameter_regime,
    predict_cwe,
    predict_weight_distribution,
    predicted_length,
    prediction,
    symbol_counts_closed,
    trace_pair_count_closed,
)
from .codes import (
    CodeSummary,
    CompleteWeightEnumerator,
    DefiningSet,
    WeightDistribution,
    build_defining_set,
    build_defining_set_general,
    enumeration_cost,
    exhaustive_cwe,
    griesmer_lower_bound,
    orbit_compositions,
    summarize,
    trace_pair_table,
)
from .cyclotomic import CyclotomicInteger
from .fields import (
    FieldContext,
    irreducible_polynomials,
    is_irreducible,
    is_prime,
    legendre,
    make_field,
    prime_factors,
)

__version__ = "0.1.0"
