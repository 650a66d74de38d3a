"""Exception types shared across the package."""


class DomainError(ValueError):
    """A coefficient modulus is at or beyond the unit-disk guard."""


class ZeroSequenceError(ValueError):
    """Ratio or condition is undefined for the identically-zero sequence."""


class PreconditionFailed(ValueError):
    """A stated hypothesis of the requested check does not hold."""


class AliasRiskError(ValueError):
    """Sampling grid is too small for the claimed bandwidth."""


class DegenerateFitError(ValueError):
    """All probed deviations sit below the noise floor; no slope to fit."""


class ConfigError(ValueError):
    """Experiment configuration is malformed or incomplete."""
