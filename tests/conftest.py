import numpy as np
import pytest

from su11 import CoefficientSequence, QuadratureConfig
from su11.spectral_norms import _lq_statistic, _refine


@pytest.fixture
def quad():
    return QuadratureConfig()


@pytest.fixture
def two_half():
    """The workhorse closed-form fixture F0 = F1 = 1/2."""
    return CoefficientSequence(0, (0.5, 0.5))


def random_sequence_draw(rng, max_window=12, sup_cap=0.9, l1_target=None):
    """Shared draw used by randomized tests (mirrors the verification suites)."""
    width = int(rng.integers(1, max_window + 1))
    lo = int(rng.integers(-6, 7 - width))
    mags = rng.uniform(0.0, sup_cap, width)
    phases = rng.uniform(0.0, 2.0 * np.pi, width)
    vals = mags * np.exp(1j * phases)
    if l1_target is not None:
        total = float(np.abs(vals).sum())
        if total > 0:
            vals *= l1_target / total
    return CoefficientSequence(lo, tuple(vals))


def sequence_of_width(width):
    """A seeded draw with exactly ``width`` entries of modulus below 0.9."""
    rng = np.random.default_rng(width)
    vals = rng.uniform(0.0, 0.9, width) * np.exp(1j * rng.uniform(0, 2 * np.pi, width))
    return CoefficientSequence(int(rng.integers(-width, 7)), tuple(vals))


def refine_at(level, qs, cfg, span):
    """One refinement of ``level`` at the exponents ``qs``, one column
    each, as ``_refine_norms`` refines a block: a NormResult per ``q``."""
    with np.errstate(divide="ignore"):  # exp(q log 0) = 0, as in lq_norm_periodic
        return _refine(level, _lq_statistic(qs), cfg, span, len(qs)).columns
