"""Differentially private data synthesis: budget accounting, sanitizing
mechanisms, histogram and model-based synthesizers, pooled inference over
multiple released sets, and a Monte-Carlo benchmark harness."""

__version__ = "1.0.0"

from .budget import BudgetExhausted, PrivacyBudget, PrivacyLedger
from .dataset import CategoricalColumn, ContinuousColumn, TabularDataset
from .hist_synth import (
    AllCellsZero,
    BinnedAxis,
    CategoricalAxis,
    GridSpec,
    Histogram,
    bin_count_from_width,
    bin_width_scott,
    build_histogram,
    laplace_sanitizer_crosstab,
    perturb_histogram,
    sample_from_histogram,
    smooth_histogram,
    smoothing_weight,
)
from .inference import (
    CombinedEstimate,
    DegenerateEstimate,
    PerSetEstimate,
    combine,
    estimate_correlation,
    estimate_mean,
    estimate_proportion,
    estimate_variance,
    firth_logistic,
    fit_multinomial_logit,
)
from .mechanisms import (
    NonConvergence,
    SanitizedStatistic,
    SensitivitySpec,
    exponential_mechanism_discrete,
    laplace_mechanism,
)
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
