"""Ground-truth-free benchmarking of medical image harmonization.

The package scores harmonization on two independent axes: how far the
predicted image's foreground intensity distribution moved (normalized
1-D Wasserstein distances against the input and the target protocol)
and whether segmented anatomy kept its volume. Classical full-reference
metrics and rank correlation are included for comparison studies, and a
manifest-driven harness turns folders of volumes into site-wise
mean ± std tables.
"""

__version__ = "0.1.0"

from . import errors
from .anatomy import ApReport, anatomy_preservation, as_label_volume, structure_volumes
from .distribution import (
    EmpiricalDistribution,
    ForegroundPolicy,
    extract_foreground,
    foreground_mask,
)
from .harness import (
    EvalConfig,
    EvaluationRow,
    MetricSummary,
    SummaryTable,
    TripletRecord,
    emit_report,
    evaluate_all,
    format_mean_std,
    load_manifest,
    parse_report_json,
    read_results,
    row_cells,
    summarize,
)
from .nifti import NiftiHeader, load_volume, parse_header, write_volume
from .reference import PairedMetricRow, SsimParams, paired_metrics
from .stats import CorrelationMatrix, correlation_matrix, mean_std, spearman
from .synth import PhantomSpec, SiteTransform, Sphere, generate_phantom, histogram_match, write_synthetic_dataset
from .volume import LabelVolume, VoxelGrid
from .wasserstein import Verdict, WdPair, classify, nwd, wasserstein_1d

__all__ = [
    "__version__",
    "errors",
    "ApReport", "anatomy_preservation", "as_label_volume", "structure_volumes",
    "EmpiricalDistribution", "ForegroundPolicy", "extract_foreground", "foreground_mask",
    "EvalConfig", "EvaluationRow", "MetricSummary", "SummaryTable", "TripletRecord",
    "emit_report", "evaluate_all", "format_mean_std", "load_manifest", "parse_report_json",
    "read_results", "row_cells", "summarize",
    "NiftiHeader", "load_volume", "parse_header", "write_volume",
    "PairedMetricRow", "SsimParams", "paired_metrics",
    "CorrelationMatrix", "correlation_matrix", "mean_std", "spearman",
    "PhantomSpec", "SiteTransform", "Sphere", "generate_phantom", "histogram_match", "write_synthetic_dataset",
    "LabelVolume", "VoxelGrid",
    "Verdict", "WdPair", "classify", "nwd", "wasserstein_1d",
]
