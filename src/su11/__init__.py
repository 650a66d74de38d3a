"""SU(1,1)-valued nonlinear Fourier products and their inequality harness."""

from .errors import (
    AliasRiskError,
    ConfigError,
    DegenerateFitError,
    DomainError,
    PreconditionFailed,
    ZeroSequenceError,
)
from .nft_core import (
    CoefficientSequence,
    sequence_from_text,
    sequence_to_text,
)
from .spectral_norms import (
    ExponentPair,
    NormResult,
    QuadratureConfig,
    WeightSampler,
    frequency_support,
    lp_sequence_norm,
    lq_norm_periodic,
    parseval_residual,
)
from .inequality_harness import (
    CCParameters,
    ConditionCheck,
    HyReport,
    LedgerEntry,
    ProbeResult,
    alpha_delta,
    condition_check,
    hy_ratio,
    proof_ledger,
    quadratic_error_probe,
    theorem1_margin,
    theorem2_margin,
)
from .extremizer_search import (
    SearchConfig,
    SearchResult,
    SweepRow,
    local_search,
    multi_start,
    p_sweep,
    random_sequence,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
