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

    The norms are shared too (``norm``): the sampler is built with the
    exponents ``ps`` it serves, and the first norm asked of a level
    function refines it at all of them in one refinement.
    """

    def __init__(self, seq: CoefficientSequence, ps: tuple[float, ...] = ()):
        self.seq = seq
        support = seq.support()
        self.span = 0 if support is None else support[1] - support[0]
        self.qs = tuple(ExponentPair(p).q for p in ps)
        self._b_abs: dict[int, np.ndarray] = {}
        self._logsq: dict[int, np.ndarray] = {}
        self._weight: dict[int, np.ndarray] = {}
        self._norms: dict[tuple, dict[float, NormResult]] = {}
        self.trace_grids = None  # set by proof_ledger on first use

    def norm(self, level, q: float, cfg: QuadratureConfig) -> NormResult:
        """``lq_norm_periodic(level, q, cfg, span)`` of one of this sampler's
        level functions (``on_grid``, ``b_abs_on_grid`` or
        ``trace_grids.level``), memoized per function, ``q`` and ``cfg``.  A
        miss refines ``q`` together with every exponent of the sampler not
        yet memoized for that function, each with the bits it gets alone."""
        # keyed by the plain function: a bound method would tie the sampler
        # into a reference cycle and hold its levels until a collection
        memo = self._norms.setdefault((level.__func__, cfg), {})
        if q not in memo:
            qs = (q,) + tuple(x for x in self.qs if x != q and x not in memo)
            if len(qs) == 1:  # the one-value path of _refine
                memo[q] = lq_norm_periodic(level, q, cfg, self.span)
            else:
                memo.update(zip(qs, lq_norm_periodic(level, qs, cfg, self.span)))
        return memo[q]

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


def _refine(level, statistic, cfg: QuadratureConfig, span: int, columns: int = 0) -> NormResult:
    """Double the grid until two successive statistics agree to rel_tol,
    row by row, from the first level ``_first_grid(cfg, span)``.

    ``level(M)`` returns the samples at t = j / M, of shape (..., M): one
    row or a block, whole at every level, with the first level's leading
    shape; anything else raises TypeError, so a function of t passed by
    mistake fails instead of yielding a wrong norm.  ``statistic(block)``
    maps (rows, M) to one float per row, each independent of the others.
    With ``columns = K`` a row holds K cells (one per exponent, say), and
    ``statistic(block, cols)`` maps (rows, M) to the (rows, len(cols))
    values of the columns ``cols``, those still open in some row.

    Each cell freezes at its own first converged level; a row is reduced
    while any of its cells is open, ``_STAT_CHUNK`` samples (or one row)
    per call, and a level whose rows are all open and fit one chunk goes
    uncopied.  One row returns floats, a block arrays over its leading
    shape (with ``K`` last; ``converged`` if every cell did), each cell
    with the bits it gets alone.  A step of a ``K``-column history also
    lists its open cells, ``row * K + k``.  This is the only refinement
    loop: every torus norm runs through it.
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
    rows = list(range(math.prod(shape)))
    K = columns or 1
    if columns:
        of_columns, cols = statistic, list(range(K))
        # reduce's statistic: the columns ``cols`` as each level rebinds them
        statistic = lambda block: of_columns(block, cols)  # noqa: E731
    # Python floats per cell (row * K + k): a numpy call per field and level
    # costs more; ``cells`` are the open ones
    first = reduce(first, grid, rows)
    value = first.ravel().tolist() if columns else first.tolist()
    cells = list(range(len(value))) if columns else rows
    grid_used, est = [grid] * len(value), [math.inf] * len(value)
    history = []
    while cells and 2 * grid <= cfg.max_grid:
        if columns:
            rows = list(dict.fromkeys(c // K for c in cells))
            cols = sorted({c % K for c in cells})
            at_row = {r: i * len(cols) for i, r in enumerate(rows)}
            at_col = {k: j for j, k in enumerate(cols)}
            nxt = reduce(level(2 * grid), 2 * grid, rows).ravel().tolist()
            nxt = [nxt[at_row[c // K] + at_col[c % K]] for c in cells]
        else:
            nxt = reduce(level(2 * grid), 2 * grid, cells).tolist()
        step = [abs(x - value[c]) / max(abs(x), _TINY) for c, x in zip(cells, nxt)]
        history.append((grid, nxt, step, cells) if columns else (grid, nxt, step))
        for c, x, e in zip(cells, nxt, step):
            value[c], est[c], grid_used[c] = x, e, grid if e <= cfg.rel_tol else 2 * grid
        grid *= 2
        cells = [c for c, e in zip(cells, step) if not e <= cfg.rel_tol]
    converged = not cells
    if columns:
        shape += (K,)
    if not shape:
        return NormResult(value[0], grid_used[0], est[0], converged,
                          tuple((g, v[0], e[0]) for g, v, e in history))
    return NormResult(np.reshape(value, shape), np.reshape(grid_used, shape),
                      np.reshape(est, shape), converged, tuple(history))


def _columns(res: NormResult) -> tuple[NormResult, ...]:
    """The columns of a ``K``-column refinement (see ``_refine``), each as
    the NormResult its statistic's column gets refined alone: the same
    fields, and the history of the levels at which its cells were open."""
    K = res.value.shape[-1]
    histories = [[] for _ in range(K)]
    for g, nxt, step, cells in res.history:
        split = [([], []) for _ in range(K)]
        for c, x, e in zip(cells, nxt, step):
            xs, es = split[c % K]
            xs.append(x)
            es.append(e)
        for history, (xs, es) in zip(histories, split):
            if xs:
                history.append((g, xs, es))
    # a cell still open at the end reports the finest level sampled
    top = 2 * res.history[-1][0] if res.history else 0
    if res.value.ndim == 1:  # one row: floats, as _refine gives them
        return tuple(NormResult(v, g, e, g < top, tuple((s, x[0], y[0]) for s, x, y in h))
                     for v, g, e, h in zip(res.value.tolist(), res.grid_used.tolist(),
                                           res.est_rel_error.tolist(), histories))
    return tuple(NormResult(res.value[..., k], res.grid_used[..., k], res.est_rel_error[..., k],
                            bool(np.all(res.grid_used[..., k] < top)), tuple(h))
                 for k, h in enumerate(histories))


# ---------------------------------------------------------------------------
# public operations


def nl_weight_sequence(seq: CoefficientSequence) -> np.ndarray:
    """W_n = (log A_n^2)^(1/2) = (-log(1 - |F_n|^2))^(1/2) over the window.

    Always dominates |F_n| entrywise.
    """
    return np.sqrt([_log_a_sq(m) for m in seq.moduli()])


def lq_norm_periodic(level, q, cfg: QuadratureConfig, span: int):
    """(integral of f^q over one period)^(1/q) by refining trapezoid sums.

    ``f`` is a nonnegative periodic function on [0, 1), or a block of them,
    given by its grid levels ``level(M)`` as ``WeightSampler.on_grid`` gives
    them (see ``_refine``).  A row's mean of ``exp(q log f)`` is raised to
    ``1 / q`` in Python floats, so it gets the bits it gets alone.  ``q =
    inf`` uses the sampled maximum, with one refinement doubling as the
    error estimate.

    ``q`` may be a tuple of exponents: one refinement then serves them all,
    with one ``log`` per chunk of samples, and a tuple of NormResults comes
    back, one per ``q``, each bit for bit the NormResult of its own
    refinement (every (row, q) cell freezes on its own, see ``_refine``).
    """
    if not isinstance(q, tuple):
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

    qs = q
    for x in qs:
        if x != math.inf and x < 1.0:
            raise ValueError(f"q = {x!r} must be >= 1")

    def stat_columns(block: np.ndarray, cols: list) -> np.ndarray:
        """The columns ``cols`` of (rows, K): each q's steps above, element
        for element, after one ``log`` shared by all, a few q per pass."""
        out = [None] * len(cols)
        finite = []
        for j, k in enumerate(cols):
            if qs[k] == math.inf:
                out[j] = np.max(block, axis=-1).tolist()
            else:
                finite.append(j)
        if finite:
            with np.errstate(divide="ignore"):
                logs = np.log(block)
            per_pass = max(1, _STAT_CHUNK // block.size)
            for i in range(0, len(finite), per_pass):
                js = finite[i:i + per_pass]
                powers = logs[:, None, :] * np.array([qs[cols[j]] for j in js])[:, None]
                means = np.add.reduce(np.exp(powers, out=powers), axis=-1) / block.shape[-1]
                for j, col in zip(js, means.T.tolist()):
                    x = qs[cols[j]]
                    out[j] = [m ** (1.0 / x) if m > 0 else 0.0 for m in col]
        return np.array(out).T

    return _columns(_refine(level, stat_columns, cfg, span, len(qs)))


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
