"""Power-law scaling analysis for experiment records.

Fit y = exp(beta) * x**alpha laws to per-scale experiment results, quantify
uncertainty with a hierarchical bootstrap, extrapolate to larger scales for
model selection, and diagnose under-trained runs against the fitted band.
"""

from .bootstrap import BootstrapBand, BootstrapConfig, bootstrap_band, default_grid
from .compute import ComputeEstimate, flops, param_count, savings_ratio
from .diagnose import (
    ConvergenceVerdict,
    EarlyStopPolicy,
    EarlyStopResult,
    LossCurve,
    PolicyOutcome,
    compare_policies,
    early_stop,
    flag_undertrained,
    load_loss_curve,
)
from .errors import DataError, DegenerateDataError
from .powerlaw import FitResult, fit_line, fit_runset, goodness_of_fit, predict_at
from .predict import (
    PredictionReport,
    SelectionReport,
    TargetPrediction,
    extrapolate,
    holdout_eval,
    relative_error,
    select_model,
)
from .records import (
    RecordTable,
    RunRecord,
    RunSet,
    ScaleSpec,
    emit,
    group,
    ingest,
    normalize_direction,
    scale_ladder,
)
from .rng import substream
from .svg import PlotSpec, ScatterGroup, plot_runset, render_plot, write_plot
from .synth import GroundTruth, SynthSpec, generate

__version__ = "0.1.0"

__all__ = [
    "BootstrapBand",
    "BootstrapConfig",
    "ComputeEstimate",
    "ConvergenceVerdict",
    "DataError",
    "DegenerateDataError",
    "EarlyStopPolicy",
    "EarlyStopResult",
    "FitResult",
    "GroundTruth",
    "LossCurve",
    "PlotSpec",
    "PolicyOutcome",
    "PredictionReport",
    "RecordTable",
    "RunRecord",
    "RunSet",
    "ScaleSpec",
    "ScatterGroup",
    "SelectionReport",
    "SynthSpec",
    "TargetPrediction",
    "bootstrap_band",
    "compare_policies",
    "default_grid",
    "early_stop",
    "emit",
    "extrapolate",
    "fit_line",
    "fit_runset",
    "flag_undertrained",
    "flops",
    "generate",
    "goodness_of_fit",
    "group",
    "holdout_eval",
    "ingest",
    "load_loss_curve",
    "normalize_direction",
    "param_count",
    "plot_runset",
    "predict_at",
    "relative_error",
    "render_plot",
    "savings_ratio",
    "scale_ladder",
    "select_model",
    "substream",
    "write_plot",
]
