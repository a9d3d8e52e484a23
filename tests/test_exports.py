"""The package's public names: every entry of __all__ must resolve."""

import rstsim

PUBLIC = {
    "ACCEPTANCE_THRESHOLDS", "CertifyResult", "ExperimentSpec",
    "GaussianModel", "LabeledSet", "LinearClassifier", "LogisticModel",
    "RstConfig", "SelfTrainResult", "SmoothingConfig", "SummaryRow",
    "TrialRow", "UnlabeledSet", "__version__", "adversarial_reg_exact",
    "adversarial_reg_pg", "analytic_certified_accuracy",
    "binomial_upper_tail", "canonical_model", "certified_accuracy_curve",
    "certify", "check_results", "clopper_pearson_lower", "error_rates",
    "fast_selftrain_sample", "fast_supervised_sample", "gaussian_cdf",
    "inverse_gaussian_cdf", "kl_bernoulli", "linf_radius_from_l2",
    "mc_error_estimate", "pseudo_label", "q_function", "robust_error",
    "robust_objective", "rst_train", "run_certify_demo", "run_gap",
    "run_irrelevant_sweep", "run_label_sweep", "run_rst_demo",
    "run_unlabeled_sweep", "run_verify_closed_form", "sample_labeled",
    "sample_mixture", "self_train", "selftrain_pool_threshold",
    "smoothed_predict_exact", "split_stream", "stability_reg",
    "standard_error", "standard_loss", "standard_train",
    "supervised_estimator", "supervised_label_threshold",
}


def test_every_exported_name_resolves():
    missing = [name for name in rstsim.__all__ if not hasattr(rstsim, name)]
    assert not missing


def test_exported_names_are_pinned():
    assert len(rstsim.__all__) == len(set(rstsim.__all__))
    assert set(rstsim.__all__) == PUBLIC


def test_star_import_works():
    namespace: dict = {}
    exec("from rstsim import *", namespace)
    assert set(rstsim.__all__) <= set(namespace)
