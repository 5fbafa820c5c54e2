"""Band membership audits for subgroup histograms.

Decide whether a subgroup's normalized histogram lies within a per-bin
uncertainty band around a reference population, exactly or by uniform bin
subsampling with a one-sided error guarantee, and compare against discrete
optimal-transport baselines.
"""

__version__ = "0.1.0"

from .errors import (AlignmentError, AuditError, BudgetError, ConvergenceError,
                     EmptyInputError, ParameterError, SchemaError,
                     SupportSizeError)
from .histogram import (BinningScheme, FeatureSpec, JointHistogram,
                        ProbabilityHistogram, RecordFilter, ingest_csv,
                        normalize, read_flat_ids, read_histogram, write_histogram)
from .pac import analytic_false_positive, sample_size, vc_dimension_bound
from .query import (QueryOutcome, ReferenceBand, ViolationReport, exact_query,
                    subsampled_query, violation_report)
from .sweep import (SweepConfig, SweepResult, WassersteinBaseline,
                    eps_to_delta, run_supnorm_sweep, run_wasserstein_sweep,
                    subgroup_split)
from .transport import (TransportPlan, kantorovich_lp, sinkhorn, wasserstein_1d,
                        wasserstein_nd)

__all__ = [
    "AlignmentError", "AuditError", "BudgetError", "ConvergenceError",
    "EmptyInputError", "ParameterError", "SchemaError", "SupportSizeError",
    "BinningScheme", "FeatureSpec", "JointHistogram", "ProbabilityHistogram",
    "RecordFilter", "ingest_csv", "normalize", "read_flat_ids", "read_histogram",
    "write_histogram",
    "analytic_false_positive", "sample_size", "vc_dimension_bound",
    "QueryOutcome", "ReferenceBand", "ViolationReport", "exact_query",
    "subsampled_query", "violation_report",
    "SweepConfig", "SweepResult", "WassersteinBaseline", "eps_to_delta",
    "run_supnorm_sweep", "run_wasserstein_sweep", "subgroup_split",
    "TransportPlan", "kantorovich_lp", "sinkhorn",
    "wasserstein_1d", "wasserstein_nd",
    "__version__",
]
