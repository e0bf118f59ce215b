"""Signed cumulative distribution transforms of one-dimensional signals.

Forward and inverse transport transforms of probability, positive, and signed
measures against an atomless reference; transport distances with mass
channels; transform-space laws under increasing reparameterizations; and a
linear-separability classification benchmark on synthetic signed signals.
"""

from .errors import (
    InvalidReferenceError,
    MetricDomainError,
    ParseError,
    RangeError,
    ScdtError,
    SingularityError,
    SingularityWarning,
)
from .steps import NEG_INF, POS_INF, PiecewiseLinearMap, StepFunction, compose
from .measures import (
    DiscreteMeasure,
    GridDensity,
    ReferenceMeasure,
    SignedMeasure,
    cdf,
    measure_from_density,
    measure_quantiles,
    pushforward,
    rebin,
)
from .transform import (
    CdtResult,
    ScdtResult,
    TransformConfig,
    cdt_inverse,
    cdt_positive,
    cdt_probability,
    scdt_forward,
    scdt_forward_batch,
    scdt_inverse,
)
from .metrics import DistanceReport, d_s, d_w2, transform_l2, w2
from .genmodel import (
    TEMPLATES,
    ClassTemplate,
    GenConfig,
    IncreasingReparam,
    apply_reparam,
    convexity_probe,
    generate_dataset,
    predict_transform_under_reparam,
)
from .classify import (
    ExperimentReport,
    FeatureMatrix,
    LdaModel,
    featurize,
    fit_lda,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "CdtResult",
    "ClassTemplate",
    "DiscreteMeasure",
    "DistanceReport",
    "ExperimentReport",
    "FeatureMatrix",
    "GenConfig",
    "GridDensity",
    "IncreasingReparam",
    "InvalidReferenceError",
    "LdaModel",
    "MetricDomainError",
    "NEG_INF",
    "POS_INF",
    "ParseError",
    "PiecewiseLinearMap",
    "RangeError",
    "ReferenceMeasure",
    "ScdtError",
    "ScdtResult",
    "SignedMeasure",
    "SingularityError",
    "SingularityWarning",
    "StepFunction",
    "TEMPLATES",
    "TransformConfig",
    "apply_reparam",
    "cdf",
    "cdt_inverse",
    "cdt_positive",
    "cdt_probability",
    "compose",
    "convexity_probe",
    "d_s",
    "d_w2",
    "featurize",
    "fit_lda",
    "generate_dataset",
    "measure_from_density",
    "measure_quantiles",
    "predict_transform_under_reparam",
    "pushforward",
    "rebin",
    "run_experiment",
    "scdt_forward",
    "scdt_forward_batch",
    "scdt_inverse",
    "transform_l2",
    "w2",
]
