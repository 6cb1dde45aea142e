"""Anchor regression with a structural-model oracle.

The estimator trades off ordinary least squares against invariance to
anchor-driven distribution shifts through a single penalty weight gamma;
gamma = 0 partials the anchors out, gamma = 1 is OLS, and the infinite
limit is two-stage least squares. The `scm` module provides exact
population quantities for linear structural models, used both as a data
generator and as an oracle certifying the estimator's worst-case-risk,
quantile, invariance, and replicability guarantees.
"""

from .datamodel import AnchorDataset, center, from_levels, read_csv, write_csv
from .estimators import (
    AnchorFit,
    AnchorRegression,
    anchor_objective,
    fit_anchor,
    predict,
)
from .exceptions import AnchorlabError
from .modelsel import (
    anchor_stability_test,
    conditional_mse_quantiles,
    cv_gamma,
    replicability_rank,
)
from .numkern import chi2_1_quantile, make_rng
from .scm import (
    AnchorDistribution,
    LinearScm,
    ReplicabilityScenario,
    Shift,
    anchor_stability_causal_check,
    d_separated,
    example_confounder_shift,
    example_iv_chain,
    load_scm,
    perturbation_set,
    population_anchor,
    projectability_check,
    replicability_experiment,
    sample,
    save_scm,
    shift_risk,
    total_causal_effect,
    worst_case_risk,
)
from .sparse import (
    fit_anchor_lasso,
    fit_equal_weight_lasso,
    lambda_max,
)

__version__ = "0.1.0"

__all__ = [
    "AnchorDataset",
    "AnchorDistribution",
    "AnchorFit",
    "AnchorRegression",
    "AnchorlabError",
    "LinearScm",
    "ReplicabilityScenario",
    "Shift",
    "anchor_objective",
    "anchor_stability_causal_check",
    "anchor_stability_test",
    "center",
    "chi2_1_quantile",
    "conditional_mse_quantiles",
    "cv_gamma",
    "d_separated",
    "example_confounder_shift",
    "example_iv_chain",
    "fit_anchor",
    "fit_anchor_lasso",
    "fit_equal_weight_lasso",
    "from_levels",
    "lambda_max",
    "load_scm",
    "make_rng",
    "perturbation_set",
    "population_anchor",
    "predict",
    "projectability_check",
    "read_csv",
    "replicability_experiment",
    "replicability_rank",
    "sample",
    "save_scm",
    "shift_risk",
    "total_causal_effect",
    "worst_case_risk",
    "write_csv",
]
