"""Likelihood-ratio norms and spiked-matrix experiments for the six
quadratic-variance exponential families."""

from .errors import (
    CapExceededError,
    ConfigError,
    DegenerateDegreeError,
    DomainError,
    NefqvfError,
    NumericInstabilityError,
)
from .families import Family, Interval, parse_family
from .ldlr import (
    AdditiveSpikedModel,
    ChannelNorm,
    KinSpikedModel,
    LdlrResult,
    SbmScanRow,
    SpikePrior,
    channel_compare,
    component,
    full_norm_exact,
    kin_model_from_z,
    ldlr_exact,
    ldlr_exact_additive,
    overlap_bound_exact,
    overlap_bound_mc,
    sbm_ks_scan,
    sbm_overlap,
)
from .orthopoly import (
    OrthoPolyBasis,
    TruncSeries,
    a_const,
    a_hat,
    build_basis,
    exp_trunc,
    f_eval,
    f_trunc,
)
from .spiked import (
    LAMBDA_STAR,
    EntrywiseBound,
    PowerRow,
    TestVerdict,
    WigInstance,
    entrywise_ldlr_exact,
    entrywise_ldlr_mc_bound,
    mixed_test,
    pca_test,
    power_curve,
    sample_wig,
    tpca_test,
)
from .translation import (
    TranslationPolyTable,
    build_translation_table,
    tau_value_bound,
)

__version__ = "0.1.0"
