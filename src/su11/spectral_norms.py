"""Torus and sequence norms for the nonlinear weight functions.

The torus side integrates with the uniform periodic trapezoidal rule,
doubling the grid until two successive approximations agree to a relative
tolerance.  The integrands are periodic and, away from isolated zeros of the
weight, analytic, so the refinement converges geometrically; at weight zeros
the q-th power is still differentiable and refinement remains fast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AliasRiskError
from .nft_core import CoefficientSequence, product_on_grid_arrays, _log_a_sq

# floor for the denominators of relative errors and margins
_TINY = 1e-300
_STAT_CHUNK = 1 << 18  # samples per statistic call of a block (see _refine)
# a DFT coefficient below this fraction of the peak counts as no signal
_SUPPORT_REL_THRESHOLD = 1e-9


@dataclass(frozen=True)
class ExponentPair:
    """Conjugate exponents 1/p + 1/q = 1 with q derived (and stored) from p.

    The canonical range is 1 < p < 2; the endpoints p = 1 (q = inf) and
    p = 2 (q = 2) are accepted because they serve as reference identities.
    """

    p: float
    q: float = field(init=False)

    def __post_init__(self):
        p = float(self.p)
        if not 1.0 <= p <= 2.0:
            raise ValueError(f"p = {p!r} outside [1, 2]")
        q = math.inf if p == 1.0 else p / (p - 1.0)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)


@dataclass(frozen=True)
class QuadratureConfig:
    initial_grid: int = 256
    max_grid: int = 2**20
    rel_tol: float = 1e-10

    def __post_init__(self):
        if self.initial_grid < 1 or self.initial_grid & (self.initial_grid - 1):
            raise ValueError("initial_grid must be a positive power of two")
        if self.max_grid < self.initial_grid:
            raise ValueError("max_grid must be >= initial_grid")
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")


@dataclass(frozen=True)
class NormResult:
    """A norm value with the grid and error estimate that certified it.

    ``grid_used`` is the coarsest grid whose doubling moved the value by at
    most rel_tol (the value itself comes from the doubled grid); ``history``
    keeps one (grid, value, est) triple per refinement step.  For a block
    (see ``_refine``) the fields are arrays, ``converged`` holds if every row
    converged, and a step holds the values and ests of its open rows.
    """

    value: float
    grid_used: int
    est_rel_error: float
    converged: bool = True
    history: tuple[tuple[int, float, float], ...] = field(default=(), repr=False)

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "grid_used": self.grid_used,
            "est_rel_error": self.est_rel_error,
            "converged": self.converged,
        }


# ---------------------------------------------------------------------------
# sampling helpers


def _refined_level(cache: dict, grid_size: int, fresh) -> np.ndarray:
    """``cache[grid_size]``, computed on a miss from ``fresh(ts, grid)``.

    ``fresh`` maps an array of points t to samples whose last axis runs over
    t; ``grid = (grid_size, odd)`` names those points as the grid level (see
    ``nft_core._grid_phases``).  When the level of ``grid_size // 2`` points
    is cached, only the odd points (2j + 1) / grid_size are evaluated and
    interleaved with it: the even points 2j / grid_size and
    j / (grid_size / 2) round to the same double, so the level is
    bit-identical to evaluating every point.
    """
    out = cache.get(grid_size)
    if out is None:
        half = cache.get(grid_size // 2) if grid_size % 2 == 0 else None
        if half is None:
            out = fresh(np.arange(grid_size, dtype=float) / grid_size, (grid_size, False))
        else:
            odd = fresh(np.arange(1, grid_size, 2, dtype=float) / grid_size,
                        (grid_size, True))
            out = np.empty(half.shape[:-1] + (grid_size,), dtype=half.dtype)
            out[..., 0::2] = half
            out[..., 1::2] = odd
        cache[grid_size] = out
    return out


class WeightSampler:
    """Cached samples of |b(t)|, log|a(t)|^2 and the torus weight
    (log|a(t)|^2)^(1/2) for one F.

    One instance per sequence is shared by everything that samples it: the
    quadratures at every exponent, the theorem margins and the proof ledger,
    which keeps its row levels here too (``trace_grids``).  Each grid level is
    therefore evaluated once per sequence, and a level of 2M points is built
    from the cached M-point level by evaluating only the M new odd points.
    ``span`` (``N_max - N_min``) sets the first level of a refinement.
    """

    def __init__(self, seq: CoefficientSequence):
        self.seq = seq
        support = seq.support()
        self.span = 0 if support is None else support[1] - support[0]
        self._b_abs: dict[int, np.ndarray] = {}
        self._logsq: dict[int, np.ndarray] = {}
        self._weight: dict[int, np.ndarray] = {}
        self.trace_grids = None  # set by proof_ledger on first use

    def _b_abs_at(self, ts: np.ndarray, grid: tuple[int, bool]) -> np.ndarray:
        return np.abs(product_on_grid_arrays(self.seq, ts, grid)[1])

    def logsq_on_grid(self, grid_size: int) -> np.ndarray:
        out = self._logsq.get(grid_size)
        if out is None:
            b_abs = _refined_level(self._b_abs, grid_size, self._b_abs_at)
            # log|a|^2 = log(1 + |b|^2) by the group constraint; the |b|
            # route is exact at weight zeros where |a|^2 - 1 cancels badly
            out = np.log1p(b_abs**2)
            self._logsq[grid_size] = out
        return out

    def b_abs_on_grid(self, grid_size: int) -> np.ndarray:
        self.logsq_on_grid(grid_size)  # builds both levels together
        return self._b_abs[grid_size]

    def on_grid(self, grid_size: int) -> np.ndarray:
        out = self._weight.get(grid_size)
        if out is None:
            out = np.sqrt(self.logsq_on_grid(grid_size))
            self._weight[grid_size] = out
        return out


def _first_grid(cfg: QuadratureConfig, span: int) -> int:
    """The first level of a refinement: ``initial_grid``, raised to the
    smallest power of two above ``2 * span + 1`` (coarser levels alias the
    ``2 * span + 1`` frequencies of ``|b|^2``) and capped at ``max_grid``."""
    return min(max(cfg.initial_grid, 1 << (2 * span + 1).bit_length()), cfg.max_grid)


def _refine(level, statistic, cfg: QuadratureConfig, span: int) -> NormResult:
    """Double the grid until two successive statistics agree to rel_tol,
    row by row, from the first level ``_first_grid(cfg, span)``.

    ``level(M)`` returns the samples at t = j / M, of shape (..., M): one
    row or a block, whole at every level, with the first level's leading
    shape; anything else raises TypeError, so a function of t passed by
    mistake fails instead of yielding a wrong norm.  ``statistic`` maps
    (rows, M) to an array of one float per row, each independent of the
    others.  Each row freezes at its own first converged level; only the
    open rows are reduced, ``_STAT_CHUNK`` samples (or one row) per call,
    and a level whose rows are all open and fit one chunk goes uncopied.
    One row returns floats, a block arrays over its leading shape
    (``converged`` if every row did), each row with the bits it gets alone.
    This is the only refinement loop: every torus norm runs through it.
    """

    def reduce(samples, grid: int, rows: list) -> np.ndarray:
        if not isinstance(samples, np.ndarray) or samples.shape != shape + (grid,):
            raise TypeError(f"level({grid}) must return an array of shape {shape + (grid,)}")
        block = samples.reshape(-1, grid)
        chunk = max(1, _STAT_CHUNK // grid)
        if len(rows) == len(block) <= chunk:
            return statistic(block)
        return np.concatenate([statistic(block[rows[i:i + chunk]])
                               for i in range(0, len(rows), chunk)])

    grid = _first_grid(cfg, span)
    first = level(grid)
    shape = np.shape(first)[:-1]
    open_rows = list(range(math.prod(shape)))
    # Python floats per row: a numpy call per field and level costs more
    value = reduce(first, grid, open_rows).tolist()
    grid_used, est = [grid] * len(value), [math.inf] * len(value)
    history = []
    while open_rows and 2 * grid <= cfg.max_grid:
        nxt = reduce(level(2 * grid), 2 * grid, open_rows).tolist()
        step = [abs(x - value[r]) / max(abs(x), _TINY) for r, x in zip(open_rows, nxt)]
        history.append((grid, nxt, step))
        for r, x, e in zip(open_rows, nxt, step):
            value[r], est[r], grid_used[r] = x, e, grid if e <= cfg.rel_tol else 2 * grid
        grid *= 2
        open_rows = [r for r, e in zip(open_rows, step) if not e <= cfg.rel_tol]
    converged = not open_rows
    if not shape:
        return NormResult(value[0], grid_used[0], est[0], converged,
                          tuple((g, v[0], e[0]) for g, v, e in history))
    return NormResult(np.reshape(value, shape), np.reshape(grid_used, shape),
                      np.reshape(est, shape), converged, tuple(history))


# ---------------------------------------------------------------------------
# public operations


def nl_weight_sequence(seq: CoefficientSequence) -> np.ndarray:
    """W_n = (log A_n^2)^(1/2) = (-log(1 - |F_n|^2))^(1/2) over the window.

    Always dominates |F_n| entrywise.
    """
    return np.sqrt([_log_a_sq(m) for m in seq.moduli()])


def lq_norm_periodic(level, q: float, cfg: QuadratureConfig, span: int) -> NormResult:
    """(integral of f^q over one period)^(1/q) by refining trapezoid sums.

    ``f`` is a nonnegative periodic function on [0, 1), or a block of them,
    given by its grid levels ``level(M)`` as ``WeightSampler.on_grid`` gives
    them (see ``_refine``).  A row's mean of ``exp(q log f)`` is raised to
    ``1 / q`` in Python floats, so it gets the bits it gets alone.  ``q =
    inf`` uses the sampled maximum, with one refinement doubling as the
    error estimate.
    """
    if q != math.inf and q < 1.0:
        raise ValueError(f"q = {q!r} must be >= 1")
    if q == math.inf:
        return _refine(level, lambda block: np.max(block, axis=-1), cfg, span)

    def stat(block: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):  # exp(q log 0) = exp(-inf) = 0
            powers = np.log(block)
        powers *= q
        # the sum over the count: np.mean's bits without its slow wrapper
        means = (np.add.reduce(np.exp(powers, out=powers), axis=-1) / block.shape[-1]).tolist()
        return np.array([m ** (1.0 / q) if m > 0 else 0.0 for m in means])

    return _refine(level, stat, cfg, span)


def lp_sequence_norm(w, p: float) -> float:
    """(sum |w_n|^p)^(1/p); max for p = inf; 0 for empty input.

    Accepts real or complex entries; only the moduli enter.
    """
    arr = np.abs(np.asarray(list(w))).astype(float)
    if arr.size == 0:
        return 0.0
    if p == math.inf:
        return float(arr.max())
    if p < 1.0:
        raise ValueError(f"p = {p!r} must be >= 1")
    mx = float(arr.max())
    if mx == 0.0:
        return 0.0
    return mx * float(np.sum((arr / mx) ** p)) ** (1.0 / p)


def parseval_residual(
    seq: CoefficientSequence, cfg: QuadratureConfig
) -> tuple[float, NormResult]:
    """Integral of log|a(t)|^2 minus the sum of log A_n^2, with the
    NormResult of the integral side.

    The two sides agree identically for every finitely supported sequence;
    the residual measures quadrature and rounding error only, and stays
    below 1e-9 for well-resolved inputs.
    """
    sampler = WeightSampler(seq)
    integral = _refine(sampler.logsq_on_grid, lambda b: np.add.reduce(b, axis=-1) / b.shape[-1],
                       cfg, sampler.span)  # np.mean's bits, see lq_norm_periodic
    seq_side = float(sum(_log_a_sq(m) for m in seq.moduli()))
    return integral.value - seq_side, integral


def frequency_support(samples, claimed_bandwidth: int) -> tuple[int, int] | None:
    """Smallest integer frequency interval carrying the sampled signal.

    Runs a DFT on uniform-grid samples and returns (lo, hi) covering every
    index whose coefficient magnitude exceeds 1e-9 times the maximum, with
    indices mapped to the centered range [-M/2, M/2).  Returns None when all
    coefficients vanish.  Grids smaller than 2*claimed_bandwidth + 2 are
    rejected as alias-prone.
    """
    arr = np.asarray(samples, dtype=complex)
    grid = arr.size
    if grid < 2 * claimed_bandwidth + 2:
        raise AliasRiskError(
            f"grid {grid} below 2*{claimed_bandwidth}+2; aliasing possible"
        )
    coeffs = np.fft.fft(arr) / grid
    freqs = np.rint(np.fft.fftfreq(grid) * grid).astype(int)
    mags = np.abs(coeffs)
    peak = float(mags.max())
    if peak == 0.0:
        return None
    keep = freqs[mags > _SUPPORT_REL_THRESHOLD * peak]
    return int(keep.min()), int(keep.max())
