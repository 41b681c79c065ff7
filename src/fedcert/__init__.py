"""Certified upper bounds on model loss across shifted federated client
populations.

The pieces compose left to right: simulate a heterogeneous client network
(``metasim``), answer per-client adversarial loss queries without moving any
samples (``query``), turn the query values into population-level certificates
(``nonrobust``, ``fdiv``, ``wass``), and check everything against brute-force
oracles and Monte-Carlo coverage (``oracle``).
"""
from .certificates import CdfCurve, CertifiedBound
from .fdiv import fdiv_cdf_bound, fdiv_mean_bound
from .losses import (
    CROSS_ENTROPY,
    LINEAR,
    LOGISTIC,
    LOOKUP,
    SQUARED,
    ZERO_ONE,
    DimensionMismatchError,
    FieldError,
    Hypothesis,
    LossFn,
    Sample,
    loss,
    loss_values,
)
from .metasim import (
    Archetype,
    ClientSpec,
    DrawnWorld,
    LocalDataset,
    MetaConfig,
    WorldFieldError,
    archetype_divergences,
    draw_world,
    export_world,
    generate_dataset,
    generate_datasets,
    load_client_pool,
    load_world,
    sample_clients,
    shift_meta_fdiv,
    shift_meta_wass,
    tilt_for_divergence,
)
from .nonrobust import cdf_bound, mean_bound
from .oracle import (
    CoverageReport,
    adversarial_directions,
    coverage_experiments,
    exact_zero_one_risk,
    grid_ball_oracle,
    mean_true_risk,
    sample_true_risks,
    tightness_probe,
    wass_alloc_grid_oracle,
    wass_ball_lp_oracle,
)
from .query import (
    BudgetExceededError,
    Client,
    QueryValue,
    TransportCost,
    adversarial_risk,
    answer_table,
    empirical_risk,
    empirical_risk_values,
    phi_gamma,
    query_profiles,
)
from .wass import (
    RadiusAllocation,
    mean_radius_cap,
    wass_mean_bound,
)

__version__ = "0.1.0"
