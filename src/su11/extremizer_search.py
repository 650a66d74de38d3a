"""Derivative-free search for large nonlinear Hausdorff-Young ratios.

Coordinate-wise hill climbing over the real and imaginary parts of the
entries, re-projected after every trial step to keep the l1 norm capped and
every modulus inside the guarded unit disk.  Multi-start runs own derived
seeds per start, so the reduction is independent of scheduling and results
reproduce bit for bit at any worker count.

The search produces empirical lower bounds for the sharp constants only; it
cannot decide the open uniformity questions, and any bound violation it
uncovers is surfaced as a counterexample, never swallowed.
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ZeroSequenceError
from .nft_core import CoefficientSequence, sequence_to_text, _grid_phases, _log_a_sq
from .spectral_norms import (
    ExponentPair, QuadratureConfig, _first_grid, _logsq_level, lq_norm_periodic,
)
from .inequality_harness import hy_ratio

_ENTRY_CAP = 1.0 - 1e-12
_MIN_STEP = 1e-12


@dataclass(frozen=True)
class SearchConfig:
    window: tuple[int, int] = (0, 7)
    l1_cap: float = 0.5
    starts: int = 8
    max_iters: int = 150
    init_step: float = 0.1
    shrink: float = 0.5
    seed: int = 0
    quadrature: QuadratureConfig = field(default_factory=QuadratureConfig)
    coarse_rel_tol: float = 1e-7  # quadrature tolerance during the walk

    def __post_init__(self):
        if not 0.0 < self.l1_cap < 1.0:
            raise ValueError("l1_cap must lie in (0, 1)")
        if not 0.0 < self.shrink < 1.0:
            raise ValueError("shrink must lie in (0, 1)")
        if self.window[1] < self.window[0]:
            raise ValueError("empty window")
        if self.starts < 1:
            raise ValueError("starts must be >= 1")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if not self.init_step > 0:
            raise ValueError("init_step must be positive")


@dataclass(frozen=True)
class SearchResult:
    best_F: CoefficientSequence
    best_ratio: float
    exponents: ExponentPair
    iters_used: int
    start_index: int

    def to_dict(self, config: SearchConfig) -> dict:
        return {
            "best_F": self.best_F.to_json_dict(),
            "best_ratio": self.best_ratio,
            "p": self.exponents.p,
            "q": self.exponents.q,
            "iters_used": self.iters_used,
            "start_index": self.start_index,
            "seed": config.seed,
            "config_digest": config_digest(config),
        }


def config_digest(cfg: SearchConfig) -> str:
    return hashlib.sha256(repr(cfg).encode()).hexdigest()[:12]


def sequence_digest(seq: CoefficientSequence) -> str:
    return hashlib.sha256(sequence_to_text(seq).encode()).hexdigest()[:12]


def _rng_for_start(seed: int, start_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(start_index,)))


def random_sequence(
    rng: np.random.Generator, window: tuple[int, int], l1_cap: float
) -> CoefficientSequence:
    """Uniform phases and magnitudes, rescaled so the l1 norm equals a
    uniform fraction of the cap.  Deterministic per generator state."""
    lo, hi = window
    count = hi - lo + 1
    if count < 1:
        raise ValueError("empty window")
    mags = rng.uniform(0.0, 1.0, count)
    phases = rng.uniform(0.0, 2.0 * np.pi, count)
    target = rng.uniform(0.0, 1.0) * l1_cap
    vals = mags * np.exp(1j * phases)
    total = float(np.abs(vals).sum())
    if total > 0:
        vals *= target / total
    return CoefficientSequence(lo, tuple(vals))


def _project(vals: np.ndarray, l1_cap: float) -> np.ndarray:
    """Clip each modulus under the disk guard, then rescale uniformly into
    the l1 ball (phases and shape preserved)."""
    out = vals.copy()
    mods = np.abs(out)
    over = mods > _ENTRY_CAP
    if over.any():
        out[over] *= _ENTRY_CAP / mods[over]
    total = float(np.abs(out).sum())
    if total > l1_cap:
        out *= l1_cap / total
    return out


class _WalkEvaluator:
    """Coarse-tolerance ratio evaluations for the inner loop of the walk.

    The torus side refines through ``lq_norm_periodic`` at the walk's
    tolerance ``quad``, like every other norm, with the window's span.  The
    level function is the parseval suite's (``spectral_norms._logsq_level``)
    under a square root; every candidate shares the window, so the phase
    rows of the batch grid, twice the first level M, are gathered once
    (``nft_core._grid_phases``).

    ``ratios(cands)`` refines the candidates one coordinate tries as one
    block, whose levels ``_lhs_on_grid`` builds like any other
    (``_refined_level``): ``_refine`` asks first for the batch grid, folded
    whole with the phase table, whose even columns are the M level; a level
    past it folds the new odd points, of every row while all are open and
    then of the rows ``_refine`` still has open, which it interleaves.
    ``ratio(vals)`` is the one-row case of ``ratios``.
    Every row is bit-identical to folding and refining its candidate alone.
    Nothing is kept between calls.  The walk's final answer is always
    re-certified through hy_ratio at full tolerance.
    """

    def __init__(self, offset: int, count: int, exponents: ExponentPair,
                 quad: QuadratureConfig):
        self.window = range(offset, offset + count)
        self.q = exponents.q
        self.p = exponents.p
        self.quad = quad
        self.span = count - 1
        self._grid = 2 * _first_grid(quad, self.span)
        # row k is the phase of entry k on the batch grid
        self._phase = np.array([_grid_phases(n, self._grid) for n in self.window])

    def ratios(self, cands: list[np.ndarray]):
        """The ratio of each candidate in turn (None for the zero one), from
        one batch fold refined as one block."""
        block = np.array(cands)
        live = np.flatnonzero(np.any(block != 0, axis=1))
        rows, levels = block[live], {}
        norm = lq_norm_periodic(lambda grid, open_rows=None:
                                self._lhs_on_grid(rows, grid, levels, open_rows),
                                self.q, self.quad, self.span)
        lhs = dict(zip(live.tolist(), norm.value.tolist()))
        for i, cand in enumerate(cands):
            yield lhs[i] / self._rhs(cand) if i in lhs else None

    def ratio(self, vals: np.ndarray) -> float:
        """The ratio of one candidate: the one-row case of ``ratios``."""
        return next(self.ratios([vals]))

    def _rhs(self, vals: np.ndarray) -> float:
        # summed here rather than by lp_sequence_norm, which rounds
        # differently; the walk's r > best test is decided in the last bits
        weights = [math.sqrt(_log_a_sq(abs(v))) for v in vals if v != 0]
        return float(np.sum(np.asarray(weights) ** self.p)) ** (1.0 / self.p)

    def _lhs_on_grid(self, vals: np.ndarray, grid: int, levels: dict,
                     rows: list | None = None) -> np.ndarray:
        """The weight (log|a|^2)^(1/2) of the candidates ``vals`` (one per
        row, or one candidate) at the points j / grid: the square root of
        their ``_logsq_level``, whose ``levels`` and ``rows`` it takes.  The
        batch grid folds with the phase table."""
        return np.sqrt(_logsq_level(vals, self.window, levels, grid, rows,
                                    (self._grid, self._phase)))


def local_search(
    start: CoefficientSequence,
    exponents: ExponentPair,
    cfg: SearchConfig,
    start_index: int = -1,
) -> SearchResult:
    """Hill-climb the ratio by axis steps on one coordinate at a time.

    On coordinate k the walk tries the steps +s, -s, +is, -is in turn and
    accepts each one that beats the running best (Gauss-Seidel: a later
    step starts from the accepted point).  The steps not yet tried are built
    from the current point, folded and refined as one block by
    ``_WalkEvaluator.ratios``; after an acceptance the remaining ones are
    stale, their ratios are computed but discarded, and they are rebuilt
    from the new point, so the trajectory is the one-at-a-time walk's, bit
    for bit.  Every full sweep without an accepted move shrinks the step;
    the walk stops after ``max_iters`` sweeps or once the step drops below
    1e-12.  The returned ratio is re-evaluated at the full quadrature
    tolerance and never falls below the starting ratio by more than 1e-12.
    """
    if start.is_zero():
        raise ZeroSequenceError("local_search needs a nonzero start")
    offset = start.offset
    vals = np.array(start.values, dtype=complex)
    walk_quad = replace(
        cfg.quadrature, rel_tol=max(cfg.coarse_rel_tol, cfg.quadrature.rel_tol)
    )
    coarse = _WalkEvaluator(offset, vals.size, exponents, walk_quad)
    best = next(coarse.ratios([vals]))
    step = cfg.init_step
    sweeps = 0
    while sweeps < cfg.max_iters and step >= _MIN_STEP:
        improved = False
        deltas = (step, -step, 1j * step, -1j * step)
        for k in range(vals.size):
            tried = 0
            while tried < len(deltas):
                cands = []
                for delta in deltas[tried:]:
                    cand = vals.copy()
                    cand[k] += delta
                    cands.append(_project(cand, cfg.l1_cap))
                for cand, r in zip(cands, coarse.ratios(cands)):
                    tried += 1
                    if r is not None and r > best:
                        best, vals = r, cand
                        improved = True
                        break
        sweeps += 1
        if not improved:
            step *= cfg.shrink
    final_seq = CoefficientSequence(offset, tuple(vals))
    final_ratio = hy_ratio(final_seq, exponents, cfg.quadrature).ratio
    start_ratio = hy_ratio(start, exponents, cfg.quadrature).ratio
    if final_ratio < start_ratio:
        final_seq, final_ratio = start, start_ratio
    return SearchResult(
        best_F=final_seq,
        best_ratio=final_ratio,
        exponents=exponents,
        iters_used=sweeps,
        start_index=start_index,
    )


def _one_start(args):
    exponents, cfg, idx = args
    rng = _rng_for_start(cfg.seed, idx)
    start = random_sequence(rng, cfg.window, cfg.l1_cap)
    if start.is_zero():
        # measure-zero draw; nudge deterministically to the window center
        mid = (cfg.window[0] + cfg.window[1]) // 2
        vals = [0j] * (cfg.window[1] - cfg.window[0] + 1)
        vals[mid - cfg.window[0]] = 0.5 * cfg.l1_cap
        start = CoefficientSequence(cfg.window[0], tuple(vals))
    return local_search(start, exponents, cfg, start_index=idx)


def multi_start(
    exponents: ExponentPair, cfg: SearchConfig, workers: int = 1
) -> SearchResult:
    """Best of ``cfg.starts`` independent local searches.

    Start i draws its initial point from a generator seeded with
    (cfg.seed, i); the maximum is taken with ties broken by the smaller
    start index, so the result does not depend on worker count.  Extra
    workers run starts in separate processes; if the platform refuses,
    the run notes the error on stderr and runs sequentially with identical
    output.
    """
    jobs = [(exponents, cfg, i) for i in range(cfg.starts)]
    if workers > 1:
        # imported here: only a run with more than one worker needs the pool
        from concurrent.futures import ProcessPoolExecutor
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_one_start, jobs))
        except OSError as exc:
            print(f"multi_start: process pool unavailable ({exc!r}); "
                  f"running {len(jobs)} starts sequentially", file=sys.stderr)
            results = [_one_start(j) for j in jobs]
    else:
        results = [_one_start(j) for j in jobs]
    best = results[0]
    for r in results[1:]:
        if r.best_ratio > best.best_ratio:
            best = r
    return best


@dataclass(frozen=True)
class SweepRow:
    """One exponent of a sweep.

    ``search_ratio`` is the raw multi-start outcome; ``best_ratio`` folds in
    the single-spike reference point (ratio 1), so every row reports the
    best ratio actually witnessed and never sits below 1.
    """

    p: float
    q: float
    best_ratio: float
    search_ratio: float
    digest: str
    best_F: CoefficientSequence
    spike_ratio: float

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "best_ratio": self.best_ratio,
            "search_ratio": self.search_ratio,
            "digest": self.digest,
            "spike_ratio": self.spike_ratio,
            "best_F": self.best_F.to_json_dict(),
        }


def p_sweep(p_values, cfg: SearchConfig, workers: int = 1) -> list[SweepRow]:
    """One multi-start row per exponent, each checked against the
    single-spike reference (ratio identically 1)."""
    rows = []
    spike = CoefficientSequence(
        (cfg.window[0] + cfg.window[1]) // 2, (0.5 * cfg.l1_cap,)
    )
    for p in p_values:
        e = ExponentPair(float(p))
        res = multi_start(e, cfg, workers=workers)
        spike_ratio = hy_ratio(spike, e, cfg.quadrature).ratio
        if res.best_ratio >= spike_ratio:
            best, best_f = res.best_ratio, res.best_F
        else:
            best, best_f = spike_ratio, spike
        rows.append(
            SweepRow(
                p=e.p,
                q=e.q,
                best_ratio=best,
                search_ratio=res.best_ratio,
                digest=sequence_digest(best_f),
                best_F=best_f,
                spike_ratio=spike_ratio,
            )
        )
    return rows
