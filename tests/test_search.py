import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from su11 import (
    CoefficientSequence,
    ExponentPair,
    QuadratureConfig,
    SearchConfig,
    ZeroSequenceError,
    hy_ratio,
    local_search,
    multi_start,
    p_sweep,
    random_sequence,
)
from su11 import spectral_norms
from su11.extremizer_search import (
    _MIN_STEP, _WalkEvaluator, _project, _rng_for_start, sequence_digest,
)
from su11.nft_core import _fold_rows, _grid_phases, _log_a_sq
from su11.spectral_norms import WeightSampler, _first_grid, lq_norm_periodic

FAST_QUAD = QuadratureConfig(initial_grid=128, max_grid=2**16, rel_tol=1e-8)


def test_walk_evaluator_matches_canonical_ratio():
    """The walk's fast objective agrees with hy_ratio to coarse tolerance."""
    rng = np.random.default_rng(1)
    e = ExponentPair(1.9)
    for _ in range(15):
        n = int(rng.integers(1, 9))
        vals = rng.uniform(0, 0.06, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        seq = CoefficientSequence(0, tuple(vals))
        if seq.is_zero():
            continue
        ev = _WalkEvaluator(0, n, e, QuadratureConfig(max_grid=2**16, rel_tol=1e-7))
        fast = next(ev.ratios([np.array(vals)]))
        slow = hy_ratio(seq, e, QuadratureConfig()).ratio
        assert abs(fast - slow) <= 1e-6 * max(1.0, slow)


def test_walk_ratio_is_the_sampler_quadrature_bit_for_bit():
    """The walk's batch fold and the sampler's odd-point levels give the
    same torus norm to the last bit, so the walk ranks candidates by the
    canonical lhs over the walk's own rhs."""
    rng = np.random.default_rng(20260808)
    walk_quad = QuadratureConfig(initial_grid=64, max_grid=2**16, rel_tol=1e-7)
    mismatches = 0
    for _ in range(400):
        n = int(rng.integers(1, 9))
        vals = rng.uniform(0, 0.12, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        vals[rng.uniform(size=n) < 0.15] = 0
        if not np.any(vals != 0):
            continue
        offset = int(rng.integers(-5, 6))
        e = ExponentPair(float(rng.uniform(1.05, 1.95)))
        seq = CoefficientSequence(offset, tuple(vals))
        weights = [math.sqrt(_log_a_sq(abs(v))) for v in vals if v != 0]
        rhs = float(np.sum(np.asarray(weights) ** e.p)) ** (1.0 / e.p)
        sampler = WeightSampler(seq)
        lhs = lq_norm_periodic(sampler.on_grid, e.q, walk_quad, sampler.span)
        ratio = next(_WalkEvaluator(offset, n, e, walk_quad).ratios([vals]))
        mismatches += ratio != lhs.value / rhs
    assert mismatches == 0


def _random_rows(rng, rows, width, zero_frac):
    shape = (rows, width)
    vals = rng.uniform(0, 0.12, shape) * np.exp(1j * rng.uniform(0, 2 * np.pi, shape))
    vals[rng.uniform(size=vals.shape) < zero_frac] = 0
    return vals


def _level_spy(calls):
    """A stand-in for ``_WalkEvaluator._lhs_on_grid`` that records each call
    as (candidates, grid, served from the cache, level)."""
    original = _WalkEvaluator._lhs_on_grid

    def spy(self, vals, grid, levels, rows=None):
        cached = grid in levels
        out = original(self, vals, grid, levels, rows)
        calls.append((vals, grid, cached, out))
        return out

    return spy


@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 8),
       st.integers(-20, 20), st.sampled_from((1, 2, 4, 8, 64, 256)))
@example(0, 1, 1, 0, 4)  # one candidate of one entry: a batch with no live row
@settings(max_examples=80, deadline=None)
def test_batched_levels_match_one_row_folds(seed, rows, width, offset, grid):
    """Candidates folded as one batch at twice the first level, whose even
    points are the first level, give at both levels the very bits of
    folding each candidate alone at that level, with zero entries anywhere,
    also where another row's entry is nonzero; the zero candidate's ratio
    is None, and a batch of zero candidates folds at most one level of no
    rows."""
    rng = np.random.default_rng(seed)
    vals = _random_rows(rng, rows, width, 0.2)
    vals[0, int(rng.integers(width))] = 0  # a zero where other rows may not have one
    cands = list(vals)
    live = [cand for cand in cands if np.any(cand != 0)]
    e = ExponentPair(1.5)
    quad = QuadratureConfig(initial_grid=grid, max_grid=2**16, rel_tol=1e-7)
    calls = []
    with mock.patch.object(_WalkEvaluator, "_lhs_on_grid", _level_spy(calls)):
        ratios = list(_WalkEvaluator(offset, width, e, quad).ratios(cands))
    assert [r is None for r in ratios] == [not np.any(cand != 0) for cand in cands]
    if not live:
        assert sum(not cached for _, _, cached, _ in calls) <= 1
        assert all(len(block) == 0 for block, *_ in calls)
        return
    first = _first_grid(quad, width - 1)
    batch = calls[:2]
    # the batch grid is folded first, for every live candidate at once, and
    # its even points serve the first level
    assert [(level, cached) for _, level, cached, _ in batch] == [
        (2 * first, False), (first, True)]
    for block, level, _, got in batch:
        assert np.array_equal(block, np.array(live))
        for cand, row in zip(live, got):
            _, b = _fold_rows(cand[None], lambda k: _grid_phases(offset + k, level), level)
            assert row.tobytes() == np.sqrt(np.log1p(np.abs(b[0]) ** 2)).tobytes()


def test_batched_ratio_with_a_third_level_matches_one_row_ratio():
    """Levels past the batch are refined for the candidate alone; the
    ratios stay the per-candidate ones to the last bit."""
    rng = np.random.default_rng(7)
    e = ExponentPair(1.3)
    quad = QuadratureConfig(initial_grid=4, max_grid=2**16, rel_tol=1e-9)
    cands = list(_random_rows(rng, 4, 6, 0.0))
    batched = _WalkEvaluator(-2, 6, e, quad)
    alone = _WalkEvaluator(-2, 6, e, quad)
    for cand, r in zip(cands, batched.ratios(cands)):
        asked = []
        norm = lq_norm_periodic(
            lambda grid: asked.append(grid) or alone._lhs_on_grid(cand, grid, {}),
            e.q, quad, alone.span)
        assert len(set(asked)) >= 3  # _refine asked for a third level
        assert r == alone.ratio(cand) == norm.value / alone._rhs(cand)


def test_walk_level_past_the_batch_folds_only_its_odd_points(monkeypatch):
    """The batch grid is the one level folded whole, and serves the first
    level; a level of M points past it folds only its M // 2 new odd
    points, the even ones being the cached half level, and only for the
    candidates still open."""
    calls, folded = [], []
    original_fold = spectral_norms._fold_rows

    def fold_spy(rows, phase, grid):
        folded.append((len(rows), grid))
        return original_fold(rows, phase, grid)

    monkeypatch.setattr(_WalkEvaluator, "_lhs_on_grid", _level_spy(calls))
    monkeypatch.setattr(spectral_norms, "_fold_rows", fold_spy)
    quad = QuadratureConfig(initial_grid=4, max_grid=2**16, rel_tol=1e-9)
    cands = list(_random_rows(np.random.default_rng(7), 4, 6, 0.0))
    list(_WalkEvaluator(-2, 6, ExponentPair(1.3), quad).ratios(cands))
    first = _first_grid(quad, 5)
    assert [(grid, cached) for _, grid, cached, _ in calls[:2]] == [
        (2 * first, False), (first, True)]
    past = [(len(out), grid // 2) for _, grid, cached, out in calls[2:] if not cached]
    assert past and folded == [(4, 2 * first)] + past
    assert past[-1][0] < 4  # a closed candidate is folded no further


def _one_at_a_time_walk(start, exponents, cfg):
    """The walk evaluated one candidate at a time, with no batch.

    Returns (best_F, best_ratio, sweeps, accepted steps followed by another
    step on the same coordinate)."""
    vals = np.array(start.values, dtype=complex)
    walk_quad = replace(
        cfg.quadrature, rel_tol=max(cfg.coarse_rel_tol, cfg.quadrature.rel_tol)
    )
    coarse = _WalkEvaluator(start.offset, vals.size, exponents, walk_quad)
    best = coarse.ratio(vals)
    step, sweeps, mid_coordinate = cfg.init_step, 0, 0
    while sweeps < cfg.max_iters and step >= _MIN_STEP:
        improved = False
        for k in range(vals.size):
            for j, delta in enumerate((step, -step, 1j * step, -1j * step)):
                cand = vals.copy()
                cand[k] += delta
                cand = _project(cand, cfg.l1_cap)
                if not np.any(cand != 0):
                    continue
                r = coarse.ratio(cand)
                if r > best:
                    best, vals = r, cand
                    improved = True
                    mid_coordinate += j < 3
        sweeps += 1
        if not improved:
            step *= cfg.shrink
    final = CoefficientSequence(start.offset, tuple(vals))
    ratio = hy_ratio(final, exponents, cfg.quadrature).ratio
    start_ratio = hy_ratio(start, exponents, cfg.quadrature).ratio
    if ratio < start_ratio:
        final, ratio = start, start_ratio
    return final, ratio, sweeps, mid_coordinate


def test_speculative_walk_follows_the_one_at_a_time_trajectory():
    """local_search, folding each coordinate's steps as one batch and
    refining them one at a time, ends where the one-at-a-time walk ends,
    bit for bit."""
    cfg = SearchConfig(window=(-2, 3), l1_cap=0.5, starts=1, max_iters=12,
                       seed=31, quadrature=FAST_QUAD)
    mid_coordinate = 0
    for index in range(3):
        start = random_sequence(_rng_for_start(cfg.seed, index), cfg.window, cfg.l1_cap)
        for p in (1.2, 1.9):
            e = ExponentPair(p)
            best_f, ratio, sweeps, mid = _one_at_a_time_walk(start, e, cfg)
            res = local_search(start, e, cfg)
            assert res.best_F == best_f
            assert res.best_ratio == ratio
            assert res.iters_used == sweeps
            mid_coordinate += mid
    assert mid_coordinate > 0  # the replay after a mid-coordinate step ran


def small_config(**kw):
    base = dict(
        window=(0, 3),
        l1_cap=0.5,
        starts=2,
        max_iters=40,
        init_step=0.1,
        shrink=0.5,
        seed=1234,
        quadrature=FAST_QUAD,
    )
    base.update(kw)
    return SearchConfig(**base)


def test_search_config_validation():
    with pytest.raises(ValueError):
        small_config(l1_cap=1.0)
    with pytest.raises(ValueError):
        small_config(shrink=1.0)
    with pytest.raises(ValueError):
        small_config(window=(3, 1))
    with pytest.raises(ValueError):
        small_config(starts=0)
    with pytest.raises(ValueError, match="max_iters"):
        SearchConfig(max_iters=-1)
    with pytest.raises(ValueError, match="init_step"):
        SearchConfig(init_step=0)


# ---------------------------------------------------------------------------
# draws


def test_random_sequence_respects_caps():
    rng = _rng_for_start(7, 0)
    for _ in range(20):
        seq = random_sequence(rng, (-2, 5), 0.5)
        mods = seq.moduli()
        assert mods.sum() <= 0.5 + 1e-12
        assert np.all(mods < 1.0)


def test_random_sequence_deterministic():
    a = random_sequence(_rng_for_start(42, 3), (0, 7), 0.4)
    b = random_sequence(_rng_for_start(42, 3), (0, 7), 0.4)
    assert a == b


def test_random_sequence_window_one_is_spike():
    seq = random_sequence(_rng_for_start(5, 0), (4, 4), 0.5)
    assert len(seq.values) == 1
    assert seq.offset == 4


# ---------------------------------------------------------------------------
# local search


def test_spike_is_locally_optimal_exhaustive_scan():
    """Oracle: a coarse exhaustive scan over two-coordinate perturbations of
    a spike never pushes the ratio above 1, so the search from a spike must
    come back with ratio ~ 1."""
    e = ExponentPair(1.5)
    base = 0.1
    best_scan = -np.inf
    deltas = (-2e-3, -1e-3, 0.0, 1e-3, 2e-3)
    for d0r in deltas:
        for d0i in deltas:
            for d1r in deltas:
                for d1i in deltas:
                    vals = (base + d0r + 1j * d0i, d1r + 1j * d1i)
                    seq = CoefficientSequence(0, vals)
                    if seq.is_zero():
                        continue
                    r = hy_ratio(seq, e, FAST_QUAD).ratio
                    best_scan = max(best_scan, r)
    assert best_scan <= 1.0 + 1e-9

    res = local_search(
        CoefficientSequence(0, (base, 0j)), e, small_config(max_iters=25)
    )
    assert res.best_ratio == pytest.approx(1.0, abs=1e-9)


def test_local_search_zero_iters_returns_start():
    start = CoefficientSequence(0, (0.2, 0.1j))
    cfg = small_config(max_iters=0)
    res = local_search(start, ExponentPair(1.5), cfg)
    assert res.best_F == start
    assert res.iters_used == 0
    ref = hy_ratio(start, ExponentPair(1.5), cfg.quadrature).ratio
    assert res.best_ratio == pytest.approx(ref, rel=1e-12)


def test_local_search_never_regresses():
    start = CoefficientSequence(0, (0.15, 0.1, 0.05j))
    cfg = small_config(max_iters=10)
    e = ExponentPair(1.7)
    res = local_search(start, e, cfg)
    start_ratio = hy_ratio(start, e, cfg.quadrature).ratio
    assert res.best_ratio >= start_ratio - 1e-12


def test_local_search_rejects_zero_start():
    with pytest.raises(ZeroSequenceError):
        local_search(CoefficientSequence(0, (0j,)), ExponentPair(1.5), small_config())


def test_projection_forced_past_caps():
    """Large steps must be pulled back inside the entry guard and l1 ball."""
    start = CoefficientSequence(0, (0.49, 0j))
    cfg = small_config(init_step=0.9, max_iters=3, l1_cap=0.5)
    res = local_search(start, ExponentPair(1.5), cfg)
    mods = res.best_F.moduli()
    assert mods.sum() <= 0.5 + 1e-12
    assert np.all(mods <= 1 - 1e-12 + 1e-15)


def test_result_ratio_reproducible_from_best_f():
    cfg = small_config(max_iters=20)
    res = local_search(
        CoefficientSequence(0, (0.1, 0.05, 0.02)), ExponentPair(1.5), cfg
    )
    again = hy_ratio(res.best_F, ExponentPair(1.5), cfg.quadrature).ratio
    assert abs(again - res.best_ratio) <= 1e-9 * max(1.0, abs(again))


# ---------------------------------------------------------------------------
# multi-start


def test_multi_start_single_start_matches_local_search():
    cfg = small_config(starts=1)
    e = ExponentPair(1.5)
    res = multi_start(e, cfg)
    rng = _rng_for_start(cfg.seed, 0)
    start = random_sequence(rng, cfg.window, cfg.l1_cap)
    ref = local_search(start, e, cfg, start_index=0)
    assert res.best_F == ref.best_F
    assert res.best_ratio == ref.best_ratio


def test_multi_start_thread_count_invariance():
    cfg = small_config(starts=4, max_iters=15)
    e = ExponentPair(1.9)
    seq_1 = multi_start(e, cfg, workers=1)
    seq_4 = multi_start(e, cfg, workers=4)
    assert seq_1.best_F == seq_4.best_F
    assert seq_1.best_ratio == seq_4.best_ratio
    assert seq_1.start_index == seq_4.start_index


def test_multi_start_pool_failure_falls_back_visibly(monkeypatch, capsys):
    import concurrent.futures

    def refuse(*args, **kwargs):
        raise PermissionError("no semaphores here")

    cfg = small_config(starts=3, max_iters=5)
    e = ExponentPair(1.7)
    ref = multi_start(e, cfg, workers=1)
    capsys.readouterr()
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    res = multi_start(e, cfg, workers=2)
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "process pool unavailable" in err and "PermissionError" in err
    assert "no semaphores here" in err
    assert res == ref


def test_multi_start_under_small_l1_obeys_bound():
    cfg = small_config(starts=3, max_iters=25, l1_cap=0.5)
    res = multi_start(ExponentPair(1.3), cfg)
    assert res.best_ratio <= 2.5 + 1e-6


# ---------------------------------------------------------------------------
# p sweep


def test_p_sweep_rows():
    cfg = small_config(starts=1, max_iters=5)
    rows = p_sweep((1.3, 1.7), cfg)
    assert [r.p for r in rows] == [1.3, 1.7]
    for row in rows:
        assert row.q == pytest.approx(row.p / (row.p - 1.0), rel=1e-15)
        assert row.spike_ratio == pytest.approx(1.0, abs=1e-12)
        # the spike reference keeps every row at ratio >= 1
        assert row.best_ratio >= 1.0 - 1e-9
        assert row.best_ratio >= row.search_ratio
        assert row.best_ratio <= 1 + 3 * cfg.l1_cap + 1e-6
        assert row.digest == sequence_digest(row.best_F)


def test_p_sweep_zero_iters_echoes_draw():
    cfg = small_config(starts=1, max_iters=0)
    (row,) = p_sweep((1.5,), cfg)
    rng = _rng_for_start(cfg.seed, 0)
    start = random_sequence(rng, cfg.window, cfg.l1_cap)
    ref = hy_ratio(start, ExponentPair(1.5), cfg.quadrature).ratio
    assert row.search_ratio == pytest.approx(ref, rel=1e-12)


def test_walk_starts_at_the_configured_initial_grid(monkeypatch):
    grids = []
    original = _WalkEvaluator._lhs_on_grid

    def spy(self, vals, grid, levels, rows=None):
        grids.append(grid)
        return original(self, vals, grid, levels, rows)

    monkeypatch.setattr(_WalkEvaluator, "_lhs_on_grid", spy)
    quad = QuadratureConfig(initial_grid=64, max_grid=2**16, rel_tol=1e-8)
    start = CoefficientSequence(0, (0.1, 0.05j, 0.02))
    local_search(start, ExponentPair(1.5), small_config(quadrature=quad, max_iters=1))
    # the batch grid comes first; its even points are the initial level
    assert grids[:2] == [128, 64] and min(grids) == 64
