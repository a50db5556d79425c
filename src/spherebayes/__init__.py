"""Explicit Bayes classification on the unit sphere with vMF class conditionals.

Fitting is conjugate MAP estimation from streaming per-class statistics, so
the classifier's parameters (class priors, mean directions, concentrations)
stay explicit and can be edited at test time to match a shifted label
distribution. Gradient-trained softmax and logit-adjusted linear baselines,
a long-tailed synthetic benchmark, and an experiment harness round out the
package.
"""

from .baselines import (
    LinearClassifier,
    TrainConfig,
    TrainingDivergedError,
    ce_loss,
    ce_loss_grad,
    linear_from_json,
    linear_to_json,
    minority_collapse_metric,
    norm_report,
    predict_linear,
    train,
)
from .classifier import (
    AdjustmentPolicy,
    BayesClassifier,
    ClassPriors,
    NotFittedError,
    adjust,
    bape_loss,
    bape_loss_grad_z,
    chain_through_normalization,
    fit,
    from_json,
    kappa_report,
    log_posterior,
    predict,
    to_json,
)
from .datagen import (
    Dataset,
    FeatureFileError,
    LabelRangeError,
    LongTailSpec,
    MagicMismatchError,
    MixtureGroundTruth,
    TruncatedFileError,
    VersionMismatchError,
    class_sizes,
    generate,
    make_truth,
    oracle_accuracy,
    read_features,
    sample_dataset,
    write_features,
)
from .estimation import (
    ClassStats,
    ConcentrationOverflowError,
    DegeneratePosteriorError,
    PosteriorSpec,
    PriorSpec,
    map_estimate,
    posterior,
    scale_prior,
    update_stats,
)
from .harness import (
    METHODS,
    ExperimentConfig,
    ExperimentError,
    ExperimentMemoryError,
    ReportRow,
    emit_report,
    m0_loss_gradients,
    run_experiment,
    split_accuracy,
)
from .priors import EtfFrame, build_etf, grad_step_m0
from .special import (
    MAX_DIM,
    MAX_KAPPA,
    bessel_ratio,
    log_bessel_i,
    log_sphere_area,
    log_vmf_normalizer,
    mean_resultant_ratio,
)
from .vmf import UNIT_NORM_TOL, VmfParams, as_unit_vector, log_density, sample, substream

__version__ = "0.1.0"
