"""Semisupervised adversarial robustness on the two-cluster Gaussian model.

Closed-form standard and robust error rates for linear classifiers, exact
samplers for the supervised and self-training estimators, robust training
of logistic models, randomized-smoothing certification, and the experiment
drivers plus CLI that tie them together.
"""

from types import ModuleType as _ModuleType

from .estimators import (
    SelfTrainResult,
    UnlabeledSet,
    fast_selftrain_sample,
    fast_supervised_sample,
    pseudo_label,
    sample_mixture,
    self_train,
    supervised_estimator,
)
from .experiments import (
    ACCEPTANCE_THRESHOLDS,
    ExperimentSpec,
    SummaryRow,
    TrialRow,
    analytic_certified_accuracy,
    check_results,
    supervised_label_threshold,
    run_certify_demo,
    run_gap,
    run_irrelevant_sweep,
    run_label_sweep,
    run_rst_demo,
    run_unlabeled_sweep,
    run_verify_closed_form,
    selftrain_pool_threshold,
)
from .gaussian import (
    GaussianModel,
    LabeledSet,
    LinearClassifier,
    canonical_model,
    error_rates,
    mc_error_estimate,
    robust_error,
    sample_labeled,
    standard_error,
)
from .rst import (
    LogisticModel,
    RstConfig,
    adversarial_reg_exact,
    adversarial_reg_pg,
    kl_bernoulli,
    robust_objective,
    rst_train,
    smoothed_predict_exact,
    stability_reg,
    standard_loss,
    standard_train,
)
from .smoothing import (
    CertifyResult,
    SmoothingConfig,
    certified_accuracy_curve,
    certify,
    linf_radius_from_l2,
)
from .statkit import (
    binomial_upper_tail,
    clopper_pearson_lower,
    gaussian_cdf,
    inverse_gaussian_cdf,
    q_function,
    split_stream,
)

__version__ = "0.1.0"

# the names imported above, without the submodules, and the version
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, _ModuleType)) + ["__version__"]
