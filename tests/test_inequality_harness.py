import ast
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp

from su11 import (
    CCParameters,
    CoefficientSequence,
    DegenerateFitError,
    ExponentPair,
    PreconditionFailed,
    QuadratureConfig,
    ZeroSequenceError,
    alpha_delta,
    condition_check,
    hy_ratio,
    proof_ledger,
    quadratic_error_probe,
    theorem1_margin,
    theorem2_margin,
)
import su11
from su11.extended import mp_hy_margin, mp_product
from su11 import inequality_harness, spectral_norms, verification
from su11.extremizer_search import _WalkEvaluator
from su11.inequality_harness import _TraceGrids, judge
from su11.nft_core import _grid_phases, _phases, product_on_grid_arrays
from su11.spectral_norms import NormResult, WeightSampler, _first_grid, lq_norm_periodic
from su11.verification import (
    PLACEHOLDER_CC, THEOREM1_PS, condition9_draw, spike_equality_suite, theorem1_suite,
    theorem2_suite,
)

from conftest import random_sequence_draw, refine_at, sequence_of_width

CC = CCParameters(1.0, 1.0, 1.0)
THEOREM1_QS = tuple(ExponentPair(p).q for p in THEOREM1_PS)

# Frozen 10^6-point reference values, computed from hand-derived closed
# forms before the build:
#   F0 = F1 = 1/2:  |a(t)|^2 = 17/9 + (8/9) cos 2 pi t
#   F0 = F1 = 0.2:  |a(t)|^2 = (626 + 50 cos 2 pi t) / 576
LHS_L3_TWO_HALF = 0.7964016817779027
LHS_L3_TWO_02 = 0.3030700099707962


# ---------------------------------------------------------------------------
# hy_ratio


def test_spike_ratio_is_one(quad):
    for r in (0.1, 0.5, 0.9):
        for p in (1.1, 1.5, 1.9):
            rep = hy_ratio(CoefficientSequence(0, (r,)), ExponentPair(p), quad)
            assert rep.ratio == pytest.approx(1.0, abs=1e-12)


def test_hy_ratio_fixture_against_dense_oracle(two_half, quad):
    rep = hy_ratio(two_half, ExponentPair(1.5), quad)
    assert rep.lhs.value == pytest.approx(LHS_L3_TWO_HALF, abs=1e-8)
    w = math.sqrt(math.log(4 / 3))
    assert rep.rhs == pytest.approx(w * 2 ** (2 / 3), rel=1e-13)
    assert rep.ratio == pytest.approx(LHS_L3_TWO_HALF / (w * 2 ** (2 / 3)), abs=1e-8)
    assert rep.ratio <= 1 + 3 * 1.0  # trivially under 1 + 3 l1 = 4


def test_hy_ratio_rejects_zero(quad):
    with pytest.raises(ZeroSequenceError):
        hy_ratio(CoefficientSequence(0, (0j,)), ExponentPair(1.5), quad)


# ---------------------------------------------------------------------------
# small-sequence bound


def test_theorem1_hypothesis_guard(two_half, quad):
    with pytest.raises(PreconditionFailed):
        theorem1_margin(two_half, ExponentPair(1.5), quad)


def test_theorem1_fixture_02(quad):
    seq = CoefficientSequence(0, (0.2, 0.2))
    rep = theorem1_margin(seq, ExponentPair(1.5), quad)
    assert rep.bound == pytest.approx(2.2, rel=1e-15)
    assert rep.lhs.value == pytest.approx(LHS_L3_TWO_02, abs=1e-8)
    assert rep.margin_rel >= 0
    assert rep.corollary_margin is not None and rep.corollary_margin > 0


def test_theorem1_spike_ratio_under_bound(quad):
    rep = theorem1_margin(CoefficientSequence(0, (0.4,)), ExponentPair(1.5), quad)
    assert rep.ratio == pytest.approx(1.0, abs=1e-12)
    assert rep.bound == pytest.approx(2.2, rel=1e-15)


def test_theorem1_scaling_monotonicity(quad):
    """Scaling F down never increases l1, so the bound is nonincreasing."""
    seq = CoefficientSequence(0, (0.2, 0.1j, 0.15))
    bounds = []
    for eps in (1.0, 0.5, 0.25, 0.1):
        rep = theorem1_margin(seq.scaled(eps), ExponentPair(1.3), quad)
        bounds.append(rep.bound)
    assert all(b2 <= b1 + 1e-15 for b1, b2 in zip(bounds[:-1], bounds[1:]))


# ---------------------------------------------------------------------------
# (alpha, delta) and the spread condition


def test_alpha_delta_unit_triple():
    alpha, delta = alpha_delta(CC)
    assert alpha == 1.0
    assert delta == pytest.approx(1 / 6, rel=1e-15)


def test_alpha_delta_gamma_two():
    alpha, delta = alpha_delta(CCParameters(1.0, 2.0, 1.0))
    assert alpha == 2.0
    assert delta == pytest.approx((3 + math.sqrt(3)) ** -2, rel=1e-12)
    assert delta == pytest.approx(0.0446582, abs=1e-7)


def test_delta_never_exceeds_one_sixth():
    rng = np.random.default_rng(2)
    for _ in range(100):
        cc = CCParameters(
            float(rng.uniform(0.05, 20)),
            float(rng.uniform(0.05, 5)),
            float(rng.uniform(0.05, 1.0)),
        )
        _, delta = alpha_delta(cc)
        assert delta <= 1 / 6 + 1e-15


def test_condition_single_spike_fails():
    res = condition_check(CoefficientSequence(0, (0.3,)), ExponentPair(1.5), CC)
    assert res.rhs == 0.0
    assert not res.holds


def test_condition_ten_small_entries():
    seq = CoefficientSequence(0, (0.001,) * 10)
    res = condition_check(seq, ExponentPair(1.5), CC)
    assert res.l1 == pytest.approx(0.01, rel=1e-12)
    assert res.rhs == pytest.approx((1 / 6) * (1 - 10 ** (-2 / 3)), rel=1e-12)
    assert res.holds


def test_condition_two_half_fails(two_half):
    assert not condition_check(two_half, ExponentPair(1.5), CC).holds


# ---------------------------------------------------------------------------
# sharp constant under the condition


def test_theorem2_ten_small_entries(quad):
    seq = CoefficientSequence(0, (0.001,) * 10)
    rep = theorem2_margin(seq, ExponentPair(1.5), CC, quad)
    assert rep.margin >= 0
    assert rep.refined_margin >= 0
    assert rep.cc == CC


def test_theorem2_spike_precondition(quad):
    with pytest.raises(PreconditionFailed):
        theorem2_margin(CoefficientSequence(0, (0.3,)), ExponentPair(1.5), CC, quad)


def test_theorem2_zero_sequence(quad):
    with pytest.raises(ZeroSequenceError):
        theorem2_margin(CoefficientSequence(0, ()), ExponentPair(1.5), CC, quad)


# ---------------------------------------------------------------------------
# proof ledger


def _by_id(entries):
    return {e.check_id: e for e in entries}


def test_ledger_spike(quad):
    entries = proof_ledger(
        CoefficientSequence(0, (0.1,)), ExponentPair(1.5), CC, quad, t_samples=16
    )
    led = _by_id(entries)
    assert set(led) == {f"L{i}" for i in range(1, 10)}
    for i in range(1, 8):
        assert led[f"L{i}"].holds, f"L{i} failed on a spike"
    assert led["L8"].precondition_failed
    assert led["L9"].precondition_failed


def test_ledger_two_02_strict_margins(quad):
    entries = proof_ledger(
        CoefficientSequence(0, (0.2, 0.2)), ExponentPair(1.5), CC, quad
    )
    led = _by_id(entries)
    for i in range(1, 8):
        e = led[f"L{i}"]
        assert e.holds and not e.precondition_failed
    # all strictly positive except the exact-equality link L3 at N = N_min
    for i in (1, 2, 4, 5, 6, 7):
        assert led[f"L{i}"].margin > 0
    assert led["L3"].margin >= -1e-15


def test_ledger_ten_small_all_nine(quad):
    seq = CoefficientSequence(0, (0.001,) * 10)
    entries = proof_ledger(seq, ExponentPair(1.5), CC, quad)
    for e in entries:
        assert not e.precondition_failed, e.check_id
        assert e.holds, (e.check_id, e.margin)
    led = _by_id(entries)
    # L8's case split is checked for every truncation N = 0..9
    assert "cases(1/2)=" in led["L8"].context
    split = led["L8"].context.split("cases(1/2)=")[1].split(";")[0]
    assert len(split) == 10


def test_ledger_l2_uses_tighter_bound_under_half(quad):
    seq = CoefficientSequence(0, (0.2, 0.2))
    led = _by_id(proof_ledger(seq, ExponentPair(1.5), CC, quad))
    prod_a = 1.0 / math.sqrt((1 - 0.04) ** 2)
    assert led["L2"].lhs == pytest.approx(prod_a, rel=1e-13)
    assert led["L2"].rhs == pytest.approx(1 + 0.4**2, rel=1e-13)


def test_ledger_context_records_binding_site(quad):
    led = _by_id(proof_ledger(CoefficientSequence(0, (0.2, 0.2)),
                              ExponentPair(1.5), CC, quad))
    assert "binding" in led["L4"].context
    assert "N=" in led["L5"].context


@pytest.mark.parametrize("t_samples", [0, -4])
def test_ledger_rejects_t_samples_below_one(two_half, quad, t_samples):
    sampler = WeightSampler(two_half)
    with pytest.raises(ValueError, match="t_samples must be >= 1"):
        proof_ledger(two_half, ExponentPair(1.5), CC, quad, t_samples=t_samples,
                     sampler=sampler)
    # rejected before any grid level is sampled
    assert sampler.trace_grids is None and not sampler._b_abs


@pytest.mark.parametrize("width", [1, 2, 5, 12, 25, 48])
def test_trace_levels_from_odd_points_match_fresh_evaluation(width):
    """Ledger row levels built from the cached coarser level plus the new
    odd points equal a fresh evaluation of every point, bit for bit."""
    seq = sequence_of_width(width)
    grids = _TraceGrids(seq)
    for first in (16, 12):
        grid = first
        while grid <= 8192:
            assert np.array_equal(grids.level(grid), _TraceGrids(seq).level(grid))
            grid *= 2


def _row_level_providers(width):
    """The three providers of block levels, each as ``level(M, rows=None)``
    with a fresh cache: the ledger rows, the parseval blocks' log|a|^2 and
    the walk's weight, the last two over three candidates of the window."""
    seq = sequence_of_width(width)
    cands = np.array(seq.values) * np.array([[1.0], [0.5j], [-0.25]])
    ns, quad = range(seq.offset, seq.offset + width), QuadratureConfig()
    walk, logsq, weight = _WalkEvaluator(seq.offset, width, ExponentPair(1.5), quad), {}, {}
    return [_TraceGrids(seq).level,
            lambda M, rows=None: spectral_norms._logsq_level(cands, ns, logsq, M, rows),
            lambda M, rows=None: walk._lhs_on_grid(cands, M, weight, rows)]


@pytest.mark.parametrize("width", [5, 24])
def test_a_rows_level_is_its_rows_at_the_new_odd_points(width):
    """``level(2M, rows)`` returns the rows ``rows`` at the M new odd points
    alone; interleaved with those rows of ``level(M)`` they are the rows of
    ``level(2M)`` evaluated whole, byte for byte, for the ledger rows, the
    parseval blocks and the walk (whose batch grid folds with its phase
    table)."""
    for level, fresh in zip(_row_level_providers(width), _row_level_providers(width)):
        for M in (64, 128, 256, 512):
            whole = fresh(2 * M).reshape(-1, 2 * M)
            for rows in ([1], [0, 2], list(range(len(whole)))[1::2]):
                odd = level(2 * M, rows)
                assert odd.shape == (len(rows), M)
                both = np.empty((len(rows), 2 * M))
                both[:, 0::2], both[:, 1::2] = level(M).reshape(-1, M)[rows], odd
                assert both.tobytes() == whole[rows].tobytes()


def test_level_caches_hold_whole_levels_only():
    """After a ledger block refines at three exponents, with some rows
    closing early, every level in ``_TraceGrids._cache`` has the whole
    block's leading shape.  A rows level that returns all M points, not the
    new odd points, raises TypeError."""
    seq = condition9_draw(np.random.default_rng(20260808), 1.5, PLACEHOLDER_CC)
    grids, span = _TraceGrids(seq), WeightSampler(seq).span
    qs = tuple(ExponentPair(p).q for p in (1.1, 1.3, 1.5))
    norms = refine_at(grids.level, qs, QuadratureConfig(), span)
    used = np.max([norm.grid_used.ravel() for norm in norms], axis=0)
    assert used.min() < used.max()
    assert grids._cache and all(level.shape[:-1] == (2, len(grids.entries) + 1)
                                for level in grids._cache.values())

    builders = [lambda M: np.full(M, 0.5),
                lambda M: np.abs(np.sin(2 * np.pi * np.arange(M) / M)) ** 0.3]

    def old_contract(M, rows=None):  # a rows level at every point
        block = np.array([build(M) for build in builders])
        return block if rows is None else block[rows]

    cfg = QuadratureConfig(initial_grid=4, max_grid=64, rel_tol=1e-12)
    with pytest.raises(TypeError, match=r"level\(16\) must return an array of shape \(1, 8\)"):
        lq_norm_periodic(old_contract, 2.0, cfg, 0)


class _CountingNumpy:
    """numpy, with its ``abs`` and ``add`` calls counted into ``count``."""

    def __init__(self, count):
        self.count = count

    def __getattr__(self, name):
        return getattr(np, name)

    def abs(self, *args, **kwargs):
        self.count["abs"] += 1
        return np.abs(*args, **kwargs)

    def add(self, *args, **kwargs):
        self.count["add"] += 1
        return np.add(*args, **kwargs)


def test_a_ledger_block_builds_and_steps_only_its_open_rows(monkeypatch):
    """Work count on a theorem2 ledger block at three exponents.  Past the
    first doubling the level function is asked only for the flat rows with
    an open cell (the rows its NormResults say were still refining), and
    whole only while every row is open.  Each ``_rows`` call steps no entry
    past its deepest requested row, accumulates ``lin`` no further than its
    deepest LIN row, and takes |ra| + |rb| or |lin| for its requested rows
    alone."""
    seq = condition9_draw(np.random.default_rng(20260808), 1.5, PLACEHOLDER_CC)
    grids, cfg, span = _TraceGrids(seq), QuadratureConfig(), WeightSampler(seq).span
    size = len(grids.entries) + 1
    asked, built = [], []
    level, trace_rows = _TraceGrids.level, _TraceGrids._rows

    def level_spy(self, M, rows=None):
        asked.append((M, rows))
        return level(self, M, rows)

    def rows_spy(self, ts, grid, rows=None):
        count = {"phase": 0, "abs": 0, "add": 0}

        def phases(*args):
            count["phase"] += 1
            return _grid_phases(*args)

        with monkeypatch.context() as m:
            m.setattr(inequality_harness, "_grid_phases", phases)
            m.setattr(inequality_harness, "np", _CountingNumpy(count))
            out = trace_rows(self, ts, grid, rows)
        built.append((rows, count, out.shape))
        return out

    monkeypatch.setattr(_TraceGrids, "level", level_spy)
    monkeypatch.setattr(_TraceGrids, "_rows", rows_spy)
    qs = tuple(ExponentPair(p).q for p in (1.1, 1.3, 1.5))
    norms = refine_at(grids.level, qs, cfg, span)

    first = _first_grid(cfg, span)
    assert asked[:2] == [(2 * first, None), (first, None)]
    used = np.max([norm.grid_used.ravel() for norm in norms], axis=0)
    for M, rows in asked[2:]:
        still = np.flatnonzero(used >= M // 2).tolist()
        assert rows == (None if len(still) == 2 * size else still), M
    assert any(rows is not None for _, rows in asked)
    assert len(built) == len(asked) - 1  # the first level is the batch's even points
    for rows, count, shape in built:
        flat = range(2 * size) if rows is None else rows
        red = [r for r in flat if r < size and r > 0]
        lin = [r - size for r in flat if r > size]
        depth, lin_depth = max(red + lin, default=0), max(lin, default=0)
        assert shape == ((2, size) if rows is None else (len(rows),)) + shape[-1:]
        assert count["phase"] == depth
        assert count["add"] == 3 * depth + lin_depth
        assert count["abs"] == 2 * len(red) + len(lin)


def _exp_path_phases(n, grid, odd=False):
    """A grid level's phase row by ``exp``, never gathered."""
    return _phases(n, (np.arange(1, grid, 2) if odd else np.arange(grid)) / grid)


@pytest.mark.parametrize("width", [1, 5, 24, 48])
def test_grid_levels_gather_matches_exp_path_bytewise(width, monkeypatch):
    """Sampler and ledger levels, whose phases are gathered from the
    root-of-unity tables, equal the ts-only ``exp`` path byte for byte on a
    power-of-two chain (and on a non-power-of-two one, which never gathers)."""
    seq = sequence_of_width(width)
    for first, last in ((1, 8192), (12, 6144)):
        sampler, grids = WeightSampler(seq), _TraceGrids(seq)
        grid = first
        while grid <= last:
            ts = np.arange(grid) / grid
            b_abs = np.abs(product_on_grid_arrays(seq, ts)[1])
            assert sampler.b_abs_on_grid(grid).tobytes() == b_abs.tobytes()
            with monkeypatch.context() as m:
                m.setattr(inequality_harness, "_grid_phases", _exp_path_phases)
                by_exp = _TraceGrids(seq)._rows(ts, (grid, False), None)
            assert grids.level(grid).tobytes() == by_exp.tobytes()
            grid *= 2


def _nan_safe(entries):
    return [
        {k: "nan" if isinstance(v, float) and math.isnan(v) else v
         for k, v in e.to_dict().items()}
        for e in entries
    ]


def test_ledger_with_shared_sampler_matches_fresh_calls(quad):
    """One sampler shared by the margins and the ledgers at every exponent
    gives exactly the entries of independent per-exponent calls."""
    rng = np.random.default_rng(11)
    seqs = [
        random_sequence_draw(rng, l1_target=0.4),
        CoefficientSequence(-2, (0.6, 0.5j, -0.4)),  # l1 > 1: skipped links
        CoefficientSequence(0, (0.001,) * 10),  # spread: L8/L9 evaluated
    ]
    for seq in seqs:
        co_refined = WeightSampler(seq)  # every norm refined first, as theorem1_suite does
        spectral_norms._refine_norms(
            [(co_refined, level) for level in _sampler_levels(co_refined)], THEOREM1_QS, quad)
        for sampler in (WeightSampler(seq), co_refined):
            for p in THEOREM1_PS:
                e = ExponentPair(p)
                assert (hy_ratio(seq, e, quad, sampler=sampler).to_dict()
                        == hy_ratio(seq, e, quad).to_dict())
                shared = proof_ledger(seq, e, CC, quad, t_samples=12, sampler=sampler)
                fresh = proof_ledger(seq, e, CC, quad, t_samples=12)
                assert _nan_safe(shared) == _nan_safe(fresh), (seq, p)


def test_a_sampler_of_another_sequence_is_rejected(quad):
    """Every entry point that takes ``sampler=`` refuses one built for
    another sequence: its samples would give that sequence's norms."""
    e = ExponentPair(1.5)
    seq, spread = CoefficientSequence(0, (0.3, 0.2)), CoefficientSequence(0, (0.001,) * 10)
    other = WeightSampler(CoefficientSequence(0, (0.1,)))
    calls = [lambda: hy_ratio(seq, e, quad, sampler=other),
             lambda: theorem1_margin(seq, e, quad, sampler=other),
             lambda: theorem2_margin(spread, e, CC, quad, sampler=other),
             lambda: condition_check(spread, e, CC, sampler=other),
             lambda: proof_ledger(seq, e, CC, quad, sampler=other)]
    for call in calls:
        with pytest.raises(ValueError, match="another sequence"):
            call()
    assert other.trace_grids is None and not other._b_abs
    own = WeightSampler(CoefficientSequence(0, (0.3, 0.2)))  # equal, not the same object
    assert hy_ratio(seq, e, quad, sampler=own).ratio == hy_ratio(seq, e, quad).ratio


def _refine_calls(monkeypatch) -> list:
    """The level functions of every ``_refine`` call from here on."""
    calls = []
    refine = spectral_norms._refine

    def spy(level, *args):
        calls.append(level)
        return refine(level, *args)

    monkeypatch.setattr(spectral_norms, "_refine", spy)
    return calls


def test_one_refine_norms_call_serves_every_check_of_a_draw(quad, monkeypatch):
    """One ``_refine_norms`` call over a draw's weight, |b| and ledger rows
    at the five theorem1 exponents is one refinement; the five margins and
    ledgers then refine nothing, and the ledger's weight norm is the
    margin's.  An exponent not refined yet (p = 2) costs exactly one."""
    calls = _refine_calls(monkeypatch)
    seq = random_sequence_draw(np.random.default_rng(3), l1_target=0.3)
    sampler = WeightSampler(seq)
    spectral_norms._refine_norms(
        [(sampler, level) for level in _sampler_levels(sampler)], THEOREM1_QS, quad)
    assert len(calls) == 1
    for p in THEOREM1_PS:
        margin = theorem1_margin(seq, ExponentPair(p), quad, sampler=sampler)
        led = _by_id(proof_ledger(seq, ExponentPair(p), CC, quad, sampler=sampler))
        assert led["L7"].lhs == margin.lhs.value
    assert len(calls) == 1
    hy_ratio(seq, ExponentPair(2.0), quad, sampler=sampler)
    assert len(calls) == 2


def test_norm_one_q_at_a_time_matches_one_refine_norms_call():
    """``norm`` asked one ``q`` at a time, a one-member block per miss,
    gives every level function (weight, |b|, ledger rows) the NormResult
    that one ``_refine_norms`` call at all five exponents gives, bit for
    bit: theorem1 draws, a one-entry draw, and a theorem2 draw; under a
    small ``max_grid`` too, where some cells stay open."""
    rng = np.random.default_rng(13)
    seqs = [random_sequence_draw(rng, l1_target=float(rng.uniform(0.0, 0.5)))
            for _ in range(4)]
    seqs += [CoefficientSequence(-2, (0.3j,)), condition9_draw(rng, 1.5, PLACEHOLDER_CC)]
    for cfg in (QuadratureConfig(), QuadratureConfig(max_grid=512)):
        unconverged = False
        for seq in seqs:
            one_q, block = WeightSampler(seq), WeightSampler(seq)
            spectral_norms._refine_norms(
                [(block, level) for level in _sampler_levels(block)], THEOREM1_QS, cfg)
            for level, own in zip(_sampler_levels(one_q), _sampler_levels(block)):
                for q in THEOREM1_QS:
                    got = one_q.norm(level, q, cfg)
                    _same_norm(got, block.norm(own, q, cfg))
                    unconverged |= not got.converged
        assert unconverged == (cfg.max_grid == 512)


def _per_row_lq(level, q, cfg, span):
    """``lq_norm_periodic`` of a block, one row at a time: the oracle of the
    ledger's block refinement."""
    first = level(_first_grid(cfg, span))
    if first.ndim == 1:
        return lq_norm_periodic(level, q, cfg, span)
    shape = first.shape[:-1]
    ones = [lq_norm_periodic(lambda M, i=i: level(M)[i], q, cfg, span)
            for i in np.ndindex(shape)]

    def field(name):
        return np.array([getattr(one, name) for one in ones]).reshape(shape)

    return NormResult(field("value"), field("grid_used"), field("est_rel_error"),
                      all(one.converged for one in ones))


def _per_row_refine_norms(levels, qs, cfg):
    """``_refine_norms`` by ``_per_row_lq``, one ``q`` at a time."""
    for sampler, level in levels:
        sampler._memo(level, cfg).update((q, _per_row_lq(level, q, cfg, sampler.span))
                                         for q in qs)


def test_ledger_rows_match_a_per_row_refinement(quad, monkeypatch):
    """The ledger's rows, refined as one block, give the entries of
    refining every row alone: theorem1 draws at every exponent and one
    theorem2 draw (L8/L9 evaluated)."""
    rng = np.random.default_rng(20260808)
    cases = [(random_sequence_draw(rng, l1_target=float(rng.uniform(0.0, 0.5))), p)
             for _ in range(3) for p in THEOREM1_PS]
    cases.append((condition9_draw(rng, 1.5, PLACEHOLDER_CC), 1.5))
    block = [_nan_safe(proof_ledger(seq, ExponentPair(p), PLACEHOLDER_CC, quad))
             for seq, p in cases]
    monkeypatch.setattr(spectral_norms, "_refine_norms", _per_row_refine_norms)
    oracle = [_nan_safe(proof_ledger(seq, ExponentPair(p), PLACEHOLDER_CC, quad))
              for seq, p in cases]
    assert block == oracle
    assert all(not entry["precondition_failed"] for entry in block[-1])


class _DenseTraceGrids(_TraceGrids):
    """Ledger rows with one row per truncation of the window, interior zeros
    included, each built by its own step: the reference for the distinct
    rows."""

    def __init__(self, seq):
        super().__init__(seq)
        self.entries = seq.window_entries()
        self.row_of = np.arange(len(self.entries) + 1)

    def _rows(self, ts, grid, rows=None):
        out = np.zeros((2, len(self.entries) + 1, ts.size))
        ra = np.zeros(ts.size, dtype=complex)
        rb = np.zeros(ts.size, dtype=complex)
        lin = np.zeros(ts.size, dtype=complex)
        for k, (n, v) in enumerate(self.entries, start=1):
            e = _grid_phases(n, *grid)
            ra, rb = ra + rb * np.conj(v) * np.conj(e), rb + v * e + ra * v * e
            lin = lin + v * e
            out[0, k] = np.abs(ra) + np.abs(rb)
            out[1, k] = np.abs(lin)
        return out if rows is None else out.reshape(-1, ts.size)[rows]


def _interior_zeros(rng):
    """A draw of 3 to 12 entries, about half its interior entries zero."""
    seq = random_sequence_draw(rng, l1_target=float(rng.uniform(0.05, 0.5)))
    vals = np.array(seq.values)
    vals[1:-1][rng.uniform(size=max(vals.size - 2, 0)) < 0.5] = 0
    return CoefficientSequence(seq.offset, tuple(vals))


@pytest.mark.parametrize("vals, row_of", [
    ((0.3,), [0, 1]),
    ((0.1, 0, 0, 0.2j), [0, 1, 1, 1, 2]),
    ((0.1, 0.2, 0, 0.05, 0, 0, -0.1), [0, 1, 2, 2, 3, 3, 3, 4]),
])
def test_ledger_keeps_one_row_per_distinct_truncation(vals, row_of):
    """The rows are the empty truncation and one per nonzero entry; each
    truncation of the window maps to its row."""
    grids = _TraceGrids(CoefficientSequence(-3, vals))
    nnz = sum(v != 0 for v in vals)
    assert grids.level(16).shape == (2, nnz + 1, 16)
    assert grids.row_of.tolist() == row_of


def test_ledger_with_distinct_rows_matches_dense_rows(quad):
    """Ledgers on inputs with interior zeros equal, entry for entry and bit
    for bit, the ledgers built on one row per truncation of the window:
    random draws at every exponent, a spread input (L8/L9 evaluated) and
    eight entries 16 apart."""
    rng = np.random.default_rng(90210)
    cases = [(_interior_zeros(rng), quad, p) for _ in range(8) for p in THEOREM1_PS]
    cases.append((CoefficientSequence(0, (0.001, 0, 0.001, 0, 0, 0.001) * 3), quad, 1.5))
    cases.append((CoefficientSequence(0, ((0.06,) + (0,) * 15) * 7 + (0.06,)),
                  QuadratureConfig(max_grid=2**14), 1.9))
    l8_evaluated = False
    for seq, cfg, p in cases:
        dense = WeightSampler(seq)
        dense.trace_grids = _DenseTraceGrids(seq)
        got = proof_ledger(seq, ExponentPair(p), PLACEHOLDER_CC, cfg, t_samples=12)
        want = proof_ledger(seq, ExponentPair(p), PLACEHOLDER_CC, cfg, t_samples=12,
                            sampler=dense)
        assert _nan_safe(got) == _nan_safe(want), (seq, p)
        l8_evaluated |= not _by_id(got)["L8"].precondition_failed
    assert l8_evaluated


# sha256 of ``json.dumps(report, sort_keys=True)``, taken before the ledger's
# levels were built for their open rows only; every speed-up since must keep
# these bits, and they move only when the bench reference is regenerated
REPORT_SHA256 = {
    "theorem2_suite(n_draws=30)":
        "ee60ec29a8bd209d232b567e29596036d81a986969d7d881949b49950c91c35e",
    "theorem1_suite(n_draws=20, with_ledger=True)":
        "f5e8a5ef22efb0aa470698117008cb06ac0b0a24b749b0181d2829d79eb58918",
    "proof_ledger(8 entries 0.06 64 apart, p 1.9)":
        "10670e12978cb1a4b4a42ca920e7cf9c56b9156f6b0df55143d2af94621c45f9",
}


def test_reports_keep_their_pinned_bytes():
    """The theorem suites with their ledgers at seed 20260808 and the ledger
    of a sparse input whose rows refine to ``max_grid`` keep their bytes."""
    sparse = CoefficientSequence(0, ((0.06,) + (0,) * 63) * 7 + (0.06,))
    reports = {
        "theorem2_suite(n_draws=30)": theorem2_suite(n_draws=30, seed=20260808).to_dict(),
        "theorem1_suite(n_draws=20, with_ledger=True)":
            theorem1_suite(n_draws=20, seed=20260808, with_ledger=True).to_dict(),
        "proof_ledger(8 entries 0.06 64 apart, p 1.9)":
            [e.to_dict() for e in proof_ledger(sparse, ExponentPair(1.9), PLACEHOLDER_CC,
                                               QuadratureConfig())],
    }
    digests = {name: hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()
               for name, rep in reports.items()}
    assert digests == REPORT_SHA256


# F = 0.2 at n = 0 and n = 512: grid levels below 1025 points alias |b|^2
ALIAS_PAIR = CoefficientSequence(0, (0.2,) + (0j,) * 511 + (0.2,))


def _weight_grids(monkeypatch) -> list:
    """The grid of every weight level asked for from here on."""
    asked, on_grid = [], WeightSampler.on_grid
    monkeypatch.setattr(WeightSampler, "on_grid",
                        lambda self, grid: asked.append(grid) or on_grid(self, grid))
    return asked


@pytest.mark.parametrize("p, resolved", [(1.5, 0.9449507835000718),
                                         (1.9, 0.9898237223408985)])
def test_widely_spaced_entries_are_not_aliased(p, resolved, quad, monkeypatch):
    """Aliased levels agree on a wrong ratio (1.2475 at p 1.5); refinement
    starts above the floor 2048 and resolves it."""
    asked = _weight_grids(monkeypatch)
    rep = hy_ratio(ALIAS_PAIR, ExponentPair(p), quad)
    assert rep.lhs.converged and min(asked) == 2048
    assert rep.ratio == pytest.approx(resolved, rel=1e-9)
    assert theorem1_margin(ALIAS_PAIR, ExponentPair(p), quad).ratio == rep.ratio


def test_aliasing_gives_no_false_theorem1_violation(quad, monkeypatch):
    """Eight entries 512 apart (l1 0.48): aliased levels certify a ratio
    2.63 above the bound 2.44 at p 1.9.  From the floor the ratio is 0.98."""
    asked = _weight_grids(monkeypatch)
    seq = CoefficientSequence(0, tuple(0.06 if k % 512 == 0 else 0j for k in range(3585)))
    rep = theorem1_margin(seq, ExponentPair(1.9), quad)
    assert min(asked) == 8192
    assert rep.ratio == pytest.approx(0.98, abs=0.005) and rep.margin_rel > 0


def test_alias_floor_above_max_grid_is_unconverged(monkeypatch):
    """A floor above ``max_grid`` leaves one level, ``max_grid``, and no
    doubling to certify it."""
    asked = _weight_grids(monkeypatch)
    rep = hy_ratio(ALIAS_PAIR, ExponentPair(1.5), QuadratureConfig(max_grid=1024))
    assert not rep.lhs.converged
    assert rep.lhs.grid_used == 1024 and asked == [1024]


@pytest.mark.parametrize("with_ledger", [True, False])
def test_theorem1_suite_refines_once_per_chunk_of_draws(monkeypatch, with_ledger):
    """One refinement per chunk of draws (all of whose first levels are 256)
    serves the weight, and with the ledger |b| and the row blocks, of every
    draw at all five exponents."""
    for n_draws, chunks in ((6, 1), (40, 2)):
        calls = _refine_calls(monkeypatch)
        rep = theorem1_suite(n_draws=n_draws, seed=4, with_ledger=with_ledger)
        assert rep.n_checked == n_draws * len(THEOREM1_PS) and len(calls) == chunks


def _same_norm(block, alone):
    """Two NormResults bit for bit: the same types, and for arrays the same
    dtypes, shapes and bytes."""
    for name in ("value", "grid_used", "est_rel_error", "converged"):
        x, y = getattr(block, name), getattr(alone, name)
        assert type(x) is type(y), name
        if isinstance(x, np.ndarray):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name
        else:
            assert repr(x) == repr(y), name


def _sampler_levels(sampler):
    """The weight, |b| and ledger-row level functions of ``sampler``."""
    return (sampler.on_grid, sampler.b_abs_on_grid,
            inequality_harness._trace_grids(sampler).level)


def _each_as_alone(samplers, cfg):
    """Every norm memoized in ``samplers`` is the one a sampler of its own
    sequence refines, one level function at a time, bit for bit."""
    for sampler in samplers:
        alone = WeightSampler(sampler.seq)
        for level, own in zip(_sampler_levels(sampler), _sampler_levels(alone)):
            spectral_norms._refine_norms([(alone, own)], THEOREM1_QS, cfg)
            for q in THEOREM1_QS:
                _same_norm(sampler.norm(level, q, cfg), alone.norm(own, q, cfg))


def test_a_chunk_of_theorem1_draws_matches_each_draw_refined_alone(monkeypatch):
    """The suite refines one chunk (mixed widths, a one-entry draw, a zero
    draw that it skips) as one block; every member's weight, |b| and
    ledger-row NormResult per q is the one of its own sampler, bit for bit.
    Under max_grid 1024 each member's convergence is its own: one whose
    cells all closed reads converged next to one with an open cell."""
    rng = np.random.default_rng(7)
    seqs = [random_sequence_draw(rng, l1_target=float(rng.uniform(0.0, 0.5)))
            for _ in range(5)]
    seqs[2:2] = [CoefficientSequence(3, (0.2j,)), CoefficientSequence(0, (0j, 0j))]
    assert len({len(seq.window_entries()) for seq in seqs}) >= 5
    draws, chunks = iter(seqs), []
    refine_norms = verification._refine_norms
    monkeypatch.setattr(verification, "random_window_sequence", lambda *a, **k: next(draws))
    monkeypatch.setattr(verification, "_refine_norms",
                        lambda levels, qs, cfg: chunks.append(levels)
                        or refine_norms(levels, qs, cfg))
    rep = theorem1_suite(n_draws=len(seqs), seed=1)
    assert len(chunks) == 1 and rep.n_checked == 6 * len(THEOREM1_PS)
    samplers = list(dict.fromkeys(sampler for sampler, _ in chunks[0]))
    assert [s.seq for s in samplers] == [seq for seq in seqs if not seq.is_zero()]
    _each_as_alone(samplers, QuadratureConfig())

    cfg = QuadratureConfig(max_grid=1024)
    samplers = [WeightSampler(seq) for seq in seqs if not seq.is_zero()]
    spectral_norms._refine_norms(
        [(s, level) for s in samplers for level in _sampler_levels(s)], THEOREM1_QS, cfg)
    _each_as_alone(samplers, cfg)
    converged = [s.norm(s.on_grid, THEOREM1_QS[-1], cfg).converged for s in samplers]
    assert True in converged and False in converged


@pytest.mark.parametrize("t_samples", [16, 8, 10, 24])
def test_l3_reads_its_level_from_the_rows_cache(t_samples, monkeypatch):
    """Link L3 equals the entry built from its own ``t_samples``-point
    level, bit for bit.  A power of two that divides the rows' cached levels
    is copied from them, with no recurrence of its own; 10 and 24 divide no
    cached level and still build their own."""
    rng = np.random.default_rng(5)
    seqs = [random_sequence_draw(rng, l1_target=float(rng.uniform(0.0, 0.5)))
            for _ in range(6)]
    built, rows, level = [], _TraceGrids._rows, _TraceGrids.level

    def rows_spy(self, ts, grid, which=None):
        built.append(grid)
        return rows(self, ts, grid, which)

    def own_level(self, grid, which=None):  # the t_samples level from nothing
        if grid == t_samples and which is None:
            return spectral_norms._refined_level({}, grid, self._rows)
        return level(self, grid, which)

    for seq in seqs:
        e, quad = ExponentPair(1.5), QuadratureConfig()
        with monkeypatch.context() as m:
            m.setattr(_TraceGrids, "_rows", rows_spy)
            l3 = _by_id(proof_ledger(seq, e, CC, quad, t_samples=t_samples))["L3"]
        own = (t_samples, False) in built
        assert own == (t_samples in (10, 24)), seq
        built.clear()
        with monkeypatch.context() as m:
            m.setattr(_TraceGrids, "level", own_level)
            oracle = _by_id(proof_ledger(seq, e, CC, quad, t_samples=t_samples))["L3"]
        assert repr(l3.to_dict()) == repr(oracle.to_dict())


def test_theorem2_suite_takes_the_moduli_once_per_draw(monkeypatch):
    """The condition check, the margin and the ledger of a theorem2 draw
    read the moduli its sampler holds."""
    seqs = []
    moduli = CoefficientSequence.moduli
    monkeypatch.setattr(CoefficientSequence, "moduli",
                        lambda self: seqs.append(self) or moduli(self))
    rep = theorem2_suite(n_draws=4, seed=3)
    assert rep.n_checked == 4 and len(seqs) == 4 and len(set(seqs)) == 4


def test_theorem1_suite_echoes_its_ledger_triple():
    rep = theorem1_suite(n_draws=2, seed=1)
    assert f"ledger {PLACEHOLDER_CC.label()}" in rep.notes
    assert theorem1_suite(n_draws=2, seed=1, with_ledger=False).notes == []


# ---------------------------------------------------------------------------
# linearization probe


def test_probe_two_half_cubic(two_half):
    res = quadratic_error_probe(two_half, (0.1, 0.05, 0.025, 0.0125))
    assert res.slope >= 2.0 - 0.1
    assert res.slope == pytest.approx(3.0, abs=0.05)
    # closed form: m(eps) = (A^2 - 1) * eps with entries eps / 2
    for eps, dev in zip(res.scales, res.deviations):
        r = eps / 2
        expected = (1 / (1 - r * r) - 1) * eps
        assert dev == pytest.approx(expected, rel=1e-10)


def test_probe_zero_sequence_degenerate():
    with pytest.raises(DegenerateFitError):
        quadratic_error_probe(CoefficientSequence(0, (0j,)), (0.1, 0.05, 0.0125))


def test_probe_random_window6():
    rng = np.random.default_rng(77)
    for _ in range(5):
        seq = random_sequence_draw(rng, max_window=6, sup_cap=0.6)
        if seq.is_zero():
            continue
        res = quadratic_error_probe(seq, (0.1, 0.05, 0.025, 0.0125))
        assert res.slope >= 1.9


def test_probe_scale_validation(two_half):
    with pytest.raises(ValueError):
        quadratic_error_probe(two_half, (0.1, 0.09))
    with pytest.raises(ValueError):
        quadratic_error_probe(two_half, (0.1, 0.09, 0.08))


# ---------------------------------------------------------------------------
# endpoints


def test_endpoint_p2_is_conservation_law(quad):
    rng = np.random.default_rng(11)
    for _ in range(5):
        seq = random_sequence_draw(rng, max_window=8, sup_cap=0.8)
        if seq.is_zero():
            continue
        rep = hy_ratio(seq, ExponentPair(2.0), quad)
        assert rep.ratio == pytest.approx(1.0, abs=1e-9)


def test_endpoint_p1_sup_under_l1(quad):
    rng = np.random.default_rng(12)
    sup_cfg = QuadratureConfig(initial_grid=4096, max_grid=2**20, rel_tol=1e-8)
    for _ in range(5):
        seq = random_sequence_draw(rng, max_window=8, sup_cap=0.8)
        if seq.is_zero():
            continue
        rep = hy_ratio(seq, ExponentPair(1.0), sup_cfg)
        assert rep.ratio <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# extended precision


def test_extended_det_residual(two_half):
    with mp.workdps(40):
        a, b = mp_product(two_half, 0.37, dps=40)
        res = abs(a) ** 2 - abs(b) ** 2 - 1
    assert abs(res) < 1e-35


def test_extended_margin_confirms_binary64(quad):
    """A near-threshold margin keeps its sign at 40 digits."""
    seq = CoefficientSequence(0, (0.001,) * 10)
    rep = theorem2_margin(seq, ExponentPair(1.5), CC, quad)
    grid = 2 * max(rep.lhs.grid_used, 256)
    margin_mp = mp_hy_margin(seq, 1.5, grid, bound=1, dps=40)
    assert float(margin_mp) == pytest.approx(rep.margin, rel=1e-7)
    assert (float(margin_mp) >= -1e-20) == (rep.margin >= -1e-9)


def test_extended_requires_30_digits(two_half):
    with pytest.raises(ValueError):
        mp_product(two_half, 0.1, dps=10)


# ---------------------------------------------------------------------------
# the judge


@pytest.mark.parametrize("smaller_is_worse", [False, True])
def test_judge_verdicts(smaller_is_worse):
    """Inside the bound (an equal value included) a converged value holds and
    an unconverged one is unresolved; outside it, or NaN, is violated
    whatever the convergence."""
    bound, inside, outside = (-1e-9, 0.5, -2e-9) if smaller_is_worse else (1e-9, -0.5, 2e-9)
    for converged, verdict in ((True, "holds"), (False, "unresolved")):
        for value in (inside, bound):
            assert judge(value, bound, converged, smaller_is_worse) == verdict
        for value in (outside, math.nan):
            assert judge(value, bound, converged, smaller_is_worse) == "violated"
    assert judge(2.0, 1.0) == judge(0.0, 1.0, smaller_is_worse=True) == "violated"
    assert judge(0.0, 1.0) == judge(2.0, 1.0, smaller_is_worse=True) == "holds"


def test_an_unconverged_suite_is_unresolved_not_failed():
    """With no doubling left no norm converges: every spike ratio is still 1,
    so each of the nine checks is unresolved, and none fails."""
    rep = spike_equality_suite(cfg=QuadratureConfig(256, 256))
    assert rep.passed and rep.failures == []
    assert rep.worst["unresolved"] == 9.0 and rep.n_checked == 9
    assert "unresolved" not in spike_equality_suite().worst


def _is_gate(node) -> bool:
    return isinstance(node, ast.Call) and (getattr(node.func, "id", None) == "judge"
                                           or getattr(node.func, "attr", None) == "check")


def _outside_gates(node):
    """``node`` and the nodes under it, outside the arguments of every call to
    ``judge`` or ``check``."""
    if not _is_gate(node):
        yield node
        for child in ast.iter_child_nodes(node):
            yield from _outside_gates(child)


def _is_tolerance(node) -> bool:
    return ("DEFAULT_MARGIN_TOL" in (getattr(node, "id", None), getattr(node, "attr", None))
            or isinstance(node, ast.Constant) and isinstance(node.value, float)
            and abs(node.value) < 1e-6)


def _writes_worst(node) -> bool:
    """A ``record_worst``, or a store into or a mutating call on a ``.worst``."""
    if isinstance(node, ast.Attribute) and node.attr == "record_worst":
        return True
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
        node = node.value
    elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in (
            "update", "setdefault", "pop", "popitem", "clear"):
        node = node.func.value
    elif not isinstance(getattr(node, "ctx", None), ast.Store):
        return False
    return getattr(node, "attr", None) == "worst"


def test_every_gate_goes_through_the_judge():
    """Every suite records its worst values through ``SuiteReport.check`` and
    nowhere else; the ledger's links, the ledger and probe drivers and the
    counterexample rule that the search and sweep drivers share
    (``cli._breaks_theorem1``) call ``judge``; and none of them compares a
    value against DEFAULT_MARGIN_TOL or a float literal below 1e-6 by hand."""
    root = Path(su11.__file__).parent
    fns = {}
    for name in ("verification.py", "inequality_harness.py", "cli.py"):
        for node in ast.walk(ast.parse((root / name).read_text())):
            if isinstance(node, ast.FunctionDef):
                fns[name, node.name] = node
    in_suites = [fn for (mod, _), fn in fns.items() if mod == "verification.py"]
    assert {fn.name for fn in in_suites if any(map(_writes_worst, ast.walk(fn)))} == {"check"}
    assert [fn.name for fn in in_suites if fn.name.endswith("_suite")
            and fn.name != "frequency_support_suite" and not any(
                isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "check"
                for node in ast.walk(fn))] == []
    drivers = [fns["inequality_harness.py", "_entry"], fns["cli.py", "_breaks_theorem1"]] + [
        fns["cli.py", f"_run_{mode}"] for mode in ("ledger", "probe")]
    shared = [fns["cli.py", "_run_search"], fns["cli.py", "_run_sweep"]]
    assert [fn.name for fn in shared if not any(
        isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_breaks_theorem1"
        for node in ast.walk(fn))] == []
    assert [fn.name for fn in drivers if not any(
        isinstance(node, ast.Call) and getattr(node.func, "id", None) == "judge"
        for node in ast.walk(fn))] == []
    hand = [(fn.name, ast.unparse(cmp)) for fn in in_suites + drivers + shared
            for cmp in _outside_gates(fn) if isinstance(cmp, ast.Compare)
            and any(map(_is_tolerance, _outside_gates(cmp)))]
    assert hand == []
