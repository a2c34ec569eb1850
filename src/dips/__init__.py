"""Differentially private data synthesis: budget accounting, sanitizing
mechanisms, histogram and model-based synthesizers, pooled inference over
multiple released sets, and a Monte-Carlo benchmark harness."""

__version__ = "1.0.0"

from .budget import BudgetExhausted, PrivacyBudget, PrivacyLedger
from .dataset import CategoricalColumn, ContinuousColumn, TabularDataset
from .hist_synth import (
    AllCellsZero,
    build_histogram,
    grid_cells,
    laplace_sanitizer_crosstab,
    perturb_histogram,
    sample_from_histogram,
    scott_bins,
    scott_grid,
    smooth_histogram,
    smoothing_weight,
)
from .inference import (
    CombinedEstimate,
    DegenerateEstimate,
    NonConvergence,
    PerSetEstimate,
    combine,
    estimate_correlation,
    estimate_mean,
    estimate_proportion,
    estimate_variance,
    firth_logistic,
    fit_multinomial_logit,
)
from .mechanisms import SanitizedStatistic, SensitivitySpec, laplace_mechanism
from .param_synth import (
    BernoulliModel,
    GaussianMixtureModel,
    NormalModel,
    SequentialLogisticModel,
    StatGroup,
    SyntheticRelease,
    bbmr_synthesizer,
    md_synthesizer,
    modips_release,
)
from .randvar import ParameterDomainError, RngStream
from .harness import (
    MetricRow,
    StudyConfig,
    report,
    run_study,
    simulate_truth_sim1,
    simulate_truth_sim2,
    simulate_truth_sim3,
    simulate_truth_sim4,
)
