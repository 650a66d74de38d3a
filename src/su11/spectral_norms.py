"""Torus and sequence norms for the nonlinear weight functions.

The torus side integrates with the uniform periodic trapezoidal rule,
doubling the grid until two successive approximations agree to a relative
tolerance.  The integrands are periodic and, away from isolated zeros of the
weight, analytic, so the refinement converges geometrically; at weight zeros
the q-th power is still differentiable and refinement remains fast.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import AliasRiskError
from .nft_core import (
    CoefficientSequence, product_on_grid_arrays, _fold_rows, _grid_phases, _log_a_sq,
    _window_rows,
)

# floor for the denominators of relative errors and margins
_TINY = 1e-300
_STAT_CHUNK = 1 << 18  # samples per statistic call of a block (see _refine)
# sequences per block refinement (parseval_residuals, theorem1_suite)
_SEQ_BLOCK = 32
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
    most rel_tol (the value itself comes from the doubled grid).  For a
    block the fields are arrays of its leading shape, and ``converged``
    holds if every row converged.
    """

    value: float
    grid_used: int
    est_rel_error: float
    converged: bool

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# sampling helpers


def _refined_level(cache: dict, grid_size: int, fresh, rows: list | None = None) -> np.ndarray:
    """The whole grid level ``grid_size`` from ``cache`` or computed into it
    by ``fresh(ts, grid)``; with ``rows`` (sorted flat rows), their samples
    at the level's new odd points ``(2j + 1) / grid_size`` alone, by
    ``fresh(ts, grid, rows)``, uncached.

    ``fresh`` maps an array of points t to the samples there, whose last
    axis runs over t; ``grid = (grid_size, odd)`` names those points as the
    grid level (see ``nft_core._grid_phases``).  ``cache`` maps a grid size
    to its whole level.  The points s j / (s M) and j / M round to the same
    double, so a level evaluated whole also caches its even points as the
    half level, when the half level is cached only the odd points are
    evaluated and interleaved with it, and a level M that divides a cached
    level s M is copied from its every s-th point.
    """
    if rows is not None:
        return fresh(np.arange(1, grid_size, 2, dtype=float) / grid_size,
                     (grid_size, True), rows)
    out = cache.get(grid_size)
    if out is not None:
        return out
    finer = min((m for m in cache if m % grid_size == 0), default=None)
    half = cache.get(grid_size // 2) if grid_size % 2 == 0 else None
    if finer is not None:
        out = cache[finer][..., ::finer // grid_size].copy()
    elif half is None:
        out = fresh(np.arange(grid_size, dtype=float) / grid_size, (grid_size, False))
        if grid_size % 2 == 0:
            cache[grid_size // 2] = np.ascontiguousarray(out[..., ::2])
    else:
        out = np.empty(half.shape[:-1] + (grid_size,), dtype=half.dtype)
        out[..., 0::2], out[..., 1::2] = half, fresh(
            np.arange(1, grid_size, 2, dtype=float) / grid_size, (grid_size, True))
    cache[grid_size] = out
    return out


def _logsq_level(block: np.ndarray, ns, levels: dict, grid: int,
                 rows: list | None = None, table=None) -> np.ndarray:
    """log|a|^2 = log(1 + |b|^2) at the points j / grid of the sequences in
    ``block`` (one per row, entry k at index ``ns[k]``; a 1-D block is one
    sequence), from ``levels`` or built into it (``_refined_level``, whose
    ``rows`` pick some rows at the level's odd points, one row each).

    The samples come from ``_fold_rows`` with ``_grid_phases``; a table
    ``(M, phase)``, whose row k is ``_grid_phases(ns[k], M)``, serves the
    whole level M.  Every row has the bits of sampling its sequence alone.
    """
    flat = block.reshape(math.prod(block.shape[:-1]), block.shape[-1])

    def fresh(ts, at, rows=None):
        phase = table[1].__getitem__ if table and at == (table[0], False) else (
            lambda k: _grid_phases(ns[k], *at))
        _, b = _fold_rows(flat if rows is None else flat[rows], phase, ts.size)
        shape = block.shape[:-1] if rows is None else (len(rows),)
        return np.log1p(np.abs(b) ** 2).reshape(shape + ts.shape)

    return _refined_level(levels, grid, fresh, rows)


class WeightSampler:
    """Cached samples of |b(t)|, log|a(t)|^2 and the torus weight
    (log|a(t)|^2)^(1/2) for one F.

    One instance per sequence is shared by everything that samples it: the
    quadratures at every exponent, the theorem margins and the proof ledger,
    which keeps its whole row levels here too (``trace_grids``).  Each grid
    level of a one-row function is therefore evaluated once per sequence,
    and a level of 2M points is built from the cached M-point level by
    evaluating only the M new odd points (``_refined_level``).  ``span``
    (``N_max - N_min``) sets the first level of a refinement.

    The norms are shared too (``norm``), memoized per level function and
    ``q``; ``_refine_norms`` alone writes them, so norms wanted at several
    exponents, or of several samplers, are refined together by one call of
    it.  So are the sequence side's scalars: the window moduli ``mods``
    (|F_n|), their sum ``l1``, their ``log_a_sq`` (log A_n^2) and the
    weights W_n = (log A_n^2)^(1/2), which always dominate |F_n| entrywise,
    with their lp norms per ``p`` (``lp``).
    """

    def __init__(self, seq: CoefficientSequence):
        self.seq = seq
        support = seq.support()
        self.span = 0 if support is None else support[1] - support[0]
        self.mods = seq.moduli()
        self.l1 = float(np.sum(self.mods))
        self.log_a_sq = [_log_a_sq(m) for m in self.mods]
        self.weights = np.sqrt(self.log_a_sq)
        self._b_abs: dict[int, np.ndarray] = {}  # see _refined_level
        self._logsq: dict[int, np.ndarray] = {}
        self._norms: dict[tuple, dict[float, NormResult]] = {}
        self._lp: dict[tuple[str, float], float] = {}
        self.trace_grids = None  # set by inequality_harness._trace_grids

    def _memo(self, level, cfg: QuadratureConfig) -> dict[float, NormResult]:
        # keyed by the plain function: a bound method would tie the sampler
        # into a reference cycle and hold its levels until a collection
        return self._norms.setdefault((level.__func__, cfg), {})

    def norm(self, level, q: float, cfg: QuadratureConfig) -> NormResult:
        """``lq_norm_periodic(level, q, cfg, span)`` of one of this sampler's
        level functions (``on_grid``, ``b_abs_on_grid`` or
        ``trace_grids.level``), memoized per function, ``q`` and ``cfg``.  A
        miss is the one-member, one-exponent ``_refine_norms``."""
        memo = self._memo(level, cfg)
        if q not in memo:
            _refine_norms([(self, level)], (q,), cfg)
        return memo[q]

    def lp(self, side: str, p: float) -> float:
        """``lp_sequence_norm`` of the sequence side ``side`` (``"mods"`` or
        ``"weights"``), memoized per ``p``."""
        out = self._lp.get((side, p))
        if out is None:
            out = self._lp[side, p] = lp_sequence_norm(getattr(self, side), p)
        return out

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
        return np.sqrt(self.logsq_on_grid(grid_size))


def _first_grid(cfg: QuadratureConfig, span: int) -> int:
    """The first level of a refinement: ``initial_grid``, raised to the
    smallest power of two above ``2 * span + 1`` (coarser levels alias the
    ``2 * span + 1`` frequencies of ``|b|^2``) and capped at ``max_grid``."""
    return min(max(cfg.initial_grid, 1 << (2 * span + 1).bit_length()), cfg.max_grid)


@dataclass(frozen=True)
class _Refinement:
    """What ``_refine`` returns: one NormResult per column, the cells
    ``row * columns + k`` still open at the end, and one (grid, open cells)
    step per doubling, read only by the bench tracer."""

    columns: tuple[NormResult, ...]
    open_cells: tuple[int, ...]
    history: tuple[tuple[int, list], ...]

    @property
    def converged(self) -> bool:
        """Every cell converged."""
        return not self.open_cells


def _refine(level, statistic, cfg: QuadratureConfig, span: int, columns: int) -> _Refinement:
    """Double the grid until two successive statistics agree to rel_tol,
    cell by cell, from the first level ``_first_grid(cfg, span)``.

    ``level(M)`` samples one fixed function of t, or a block of them, at
    t = j / M, so the even points of level 2M are level M.  It returns an
    array of shape (..., M): one row or a block, with the first level's
    leading shape; anything else raises TypeError, so a function of t passed
    by mistake fails instead of yielding a wrong norm.  Once a row of a
    block has closed, ``_refine`` holds the current level of the rows with
    an open cell and asks ``level(2M, rows)`` (their sorted flat indices)
    only for their samples at the M new odd points (2j + 1) / 2M, of shape
    (len(rows), M), which it interleaves itself.  So a one-row level is
    never asked for ``rows``.  A row holds ``columns`` cells (one per
    exponent, say), and ``statistic(block, cols)`` maps (rows, M) to the
    (rows, len(cols)) values of the columns ``cols``, as one row-major list
    of Python floats, each independent of the other rows and columns.

    One loop runs over the open cells ``row * columns + k``.  Each cell
    freezes at its own first converged level, with the bits it gets alone;
    a level is reduced over the columns open in some row, ``_STAT_CHUNK``
    samples (or one row) per call, and a level whose rows fit one chunk
    goes uncopied.  Column k's NormResult is the one its statistic's column
    gets refined alone: floats for one row, arrays of the block's leading
    shape for a block, converged unless one of its cells is still open.
    Every torus norm runs through this loop.  The first doubling's level is
    asked for, whole, before the first level, so a level function built on
    ``_refined_level`` samples both in one evaluation.
    """

    def checked(samples, grid: int, want: tuple) -> np.ndarray:
        if not isinstance(samples, np.ndarray) or samples.shape != want:
            raise TypeError(f"level({grid}) must return an array of shape {want}")
        return samples.reshape(-1, want[-1])

    def reduce(block: np.ndarray, cols: list) -> list:
        chunk = max(1, _STAT_CHUNK // block.shape[-1])
        return [x for i in range(0, len(block), chunk)
                for x in statistic(block[i:i + chunk], cols)]

    grid = _first_grid(cfg, span)
    ahead = [level(2 * grid)] if 2 * grid <= cfg.max_grid else []
    first = level(grid)
    shape = first.shape[:-1] if isinstance(first, np.ndarray) else ()
    n_rows, K = math.prod(shape), columns
    # Python floats per cell: a numpy call per field and level costs more.
    # ``cells`` are the open ones in order, ``rows`` and ``cols`` the rows and
    # columns they span, and ``held`` the current level of the rows ``held_rows``
    rows, cols = list(range(n_rows)), list(range(K))
    value = reduce(checked(first, grid, shape + (grid,)), cols)
    cells = list(range(len(value)))
    grid_used, est = [grid] * len(value), [math.inf] * len(value)
    history = []
    while cells and 2 * grid <= cfg.max_grid:
        if len(rows) == n_rows:
            samples = checked(ahead.pop() if ahead else level(2 * grid), 2 * grid,
                              shape + (2 * grid,))
        else:
            samples = np.empty_like(held, shape=(len(rows), 2 * grid))
            samples[:, 0::2] = held[np.searchsorted(held_rows, rows)]
            samples[:, 1::2] = checked(level(2 * grid, rows), 2 * grid, (len(rows), grid))
        nxt = reduce(samples, cols)
        if len(nxt) > len(cells):  # the rows x cols values hold closed cells too
            at = {r * K + k: i for i, (r, k) in enumerate(itertools.product(rows, cols))}
            nxt = [nxt[at[c]] for c in cells]
        history.append((grid, cells))
        step = [abs(x - value[c]) / max(abs(x), _TINY) for c, x in zip(cells, nxt)]
        for c, x, e in zip(cells, nxt, step):
            value[c], est[c], grid_used[c] = x, e, grid if e <= cfg.rel_tol else 2 * grid
        grid *= 2
        still = [c for c, e in zip(cells, step) if not e <= cfg.rel_tol]
        held, held_rows = samples, rows
        if len(still) < len(cells):
            rows, cols = sorted({c // K for c in still}), sorted({c % K for c in still})
        cells = still
    if shape:  # a block: arrays of its leading shape, the columns last
        shape += (K,)
        value, grid_used, est = (np.array(f).reshape(shape) for f in (value, grid_used, est))
    unconverged = {c % K for c in cells}
    out = []
    for k in range(K):
        at = (..., k) if shape else k
        out.append(NormResult(value[at], grid_used[at], est[at], k not in unconverged))
    return _Refinement(tuple(out), tuple(cells), tuple(history))


# ---------------------------------------------------------------------------
# public operations


@np.errstate(divide="ignore")  # exp(q log 0) = exp(-inf) = 0
def lq_norm_periodic(level, q: float, cfg: QuadratureConfig, span: int) -> NormResult:
    """(integral of f^q over one period)^(1/q) by refining trapezoid sums.

    ``f`` is a nonnegative periodic function on [0, 1), or a block of them,
    given by its grid levels ``level(M)`` as ``WeightSampler.on_grid`` gives
    them (see ``_refine``): floats for one row, arrays for a block.  Per
    chunk of samples the statistic (``_lq_statistic``) takes a ``log``, a
    multiply, ``exp`` and mean, and raises a row's mean to ``1 / q`` in
    Python floats; ``q = inf`` uses the sampled maximum, with one refinement
    doubling as the error estimate.
    """
    return _refine(level, _lq_statistic((q,)), cfg, span, 1).columns[0]


def _lq_statistic(qs: tuple):
    """``lq_norm_periodic``'s statistic for the columns ``qs``, one per
    exponent (see ``_refine``): one ``log`` per chunk serves every ``q``."""
    if not qs:
        raise ValueError("q = () names no exponent")
    for x in qs:
        if x != math.inf and x < 1.0:
            raise ValueError(f"q = {x!r} must be >= 1")

    def stat(block: np.ndarray, cols: list) -> list:
        out, logs = [None] * (len(block) * len(cols)), None
        for j, k in enumerate(cols):
            x = qs[k]
            if x == math.inf:
                out[j::len(cols)] = np.max(block, axis=-1).tolist()
                continue
            if logs is None:  # one log for every q
                logs = np.log(block)
            powers = logs * x
            # the sum over the count, divided in Python floats (IEEE, so
            # np.mean's bits) without np.mean's slow wrapper
            sums = np.add.reduce(np.exp(powers, out=powers), axis=-1).tolist()
            out[j::len(cols)] = [(s / block.shape[-1]) ** (1.0 / x) if s > 0 else 0.0
                                 for s in sums]
        return out

    return stat


@np.errstate(divide="ignore")  # as in lq_norm_periodic
def _refine_norms(levels: list, qs: tuple, cfg: QuadratureConfig) -> None:
    """Fill ``WeightSampler.norm``'s memo of every ``(sampler, level)`` pair
    (``level`` one of that sampler's level functions) at the exponents
    ``qs``, as one refinement per first level; the only writer of that memo.

    The pairs are grouped by first level (``_first_grid``), and each group
    is one ``_refine`` with ``lq_norm_periodic``'s statistic, one column
    per ``q``, of the block that stacks the members' levels, one row per row
    of each.  Sampling stays per sequence: the block asks each member's own
    level function for its level, or a block member for its open rows' odd
    points, and takes a one-row member's odd points from its whole cached
    level, so every sample comes through that sampler's kernel calls and
    caches.  Each member gets, per ``q``, the NormResult its own refinement
    gives, bit for bit (``_member``).
    """
    groups: dict[int, list] = {}
    for sampler, level in levels:
        groups.setdefault(_first_grid(cfg, sampler.span), []).append((sampler, level))
    for members in groups.values():
        shapes, bounds = [], [0]  # member i holds the rows bounds[i]:bounds[i + 1]

        def block(grid: int, rows: list | None = None) -> np.ndarray:
            if rows is None:
                parts = [level(grid) for _, level in members]
                if not shapes:
                    shapes.extend(x.shape[:-1] for x in parts)
                    bounds.extend(itertools.accumulate(math.prod(s) for s in shapes))
                parts = [x.reshape(-1, grid) for x in parts]
                return parts[0] if len(parts) == 1 else np.concatenate(parts)
            cuts = np.searchsorted(rows, bounds).tolist()  # each member's rows
            return np.concatenate([
                level(grid, [r - lo for r in rows[i:j]]) if shape else level(grid)[None, 1::2]
                for (_, level), shape, lo, i, j in zip(members, shapes, bounds, cuts, cuts[1:])
                if i < j])

        ref = _refine(block, _lq_statistic(qs), cfg, members[0][0].span, len(qs))
        open_cols = [set() for _ in members]
        for c in ref.open_cells:
            r, k = divmod(c, len(qs))
            open_cols[int(np.searchsorted(bounds, r, side="right")) - 1].add(k)
        for (sampler, level), lo, hi, shape, open_k in zip(
                members, bounds, bounds[1:], shapes, open_cols):
            sampler._memo(level, cfg).update(
                (q, _member(col, lo, hi, shape, k not in open_k))
                for k, (q, col) in enumerate(zip(qs, ref.columns)))


def _member(col: NormResult, lo: int, hi: int, shape: tuple, converged: bool) -> NormResult:
    """The rows ``lo:hi`` of a block's NormResult ``col`` as the NormResult
    of a level of leading shape ``shape``: Python floats for a one-row
    level (``shape == ()``), arrays of ``shape`` otherwise."""
    fields = (col.value, col.grid_used, col.est_rel_error)
    if shape:
        return NormResult(*(f[lo:hi].reshape(shape) for f in fields), converged)
    return NormResult(*(f[lo].item() for f in fields), converged)


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
    below 1e-9 for well-resolved inputs.  This is the one-row case of
    ``parseval_residuals``.
    """
    return parseval_residuals([seq], cfg)[0]


def parseval_residuals(
    seqs: list[CoefficientSequence], cfg: QuadratureConfig
) -> list[tuple[float, NormResult]]:
    """``parseval_residual`` of each sequence, in order.

    The sequences are grouped by their first level (``_first_grid``) and
    refined ``_SEQ_BLOCK`` at a time: each block is one ``_refine`` of
    ``_logsq_level`` on the block's indices (``_window_rows``), with the mean as
    its statistic, so past the first doubling only the open rows are
    sampled.  Each row keeps the value, grid and convergence of its own
    one-row refinement, bit for bit.
    """
    out = [None] * len(seqs)
    groups: dict[int, list] = {}
    for i, seq in enumerate(seqs):
        support = seq.support()
        span = 0 if support is None else support[1] - support[0]
        groups.setdefault(_first_grid(cfg, span), []).append((i, span))
    for members in groups.values():
        for start in range(0, len(members), _SEQ_BLOCK):
            chunk = members[start:start + _SEQ_BLOCK]
            ns, block = _window_rows([seqs[i] for i, _ in chunk])
            levels = {}
            ref = _refine(lambda grid, rows=None: _logsq_level(block, ns, levels, grid, rows),
                          # np.mean's bits, see lq_norm_periodic
                          lambda b, cols: (np.add.reduce(b, axis=-1) / b.shape[-1]).tolist(),
                          cfg, max(span for _, span in chunk), 1)
            for r, (i, _) in enumerate(chunk):
                res = _member(ref.columns[0], r, r + 1, (), r not in ref.open_cells)
                seq_side = float(sum(_log_a_sq(abs(v)) for _, v in seqs[i].window_entries()))
                out[i] = res.value - seq_side, res
    return out


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
