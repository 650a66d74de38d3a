import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su11 import (
    AliasRiskError,
    CoefficientSequence,
    ExponentPair,
    NormResult,
    QuadratureConfig,
    WeightSampler,
    frequency_support,
    lp_sequence_norm,
    lq_norm_periodic,
    parseval_residual,
)
from su11 import spectral_norms
from su11.nft_core import _log_a_sq, _window_rows, product_on_grid_arrays
from su11.inequality_harness import _TraceGrids
from su11.spectral_norms import _TINY, _first_grid, _logsq_level, _refine
from su11.cli import main
from su11.verification import THEOREM1_PS, parseval_suite, random_window_sequence

from conftest import random_sequence_draw, sequence_of_width

# 10^6-point reference quadrature of (log(17/9 + 8/9 cos 2 pi t))^(3/2),
# cube-rooted; computed once from the closed form before the build.
W3_TWO_HALF = 0.7964016817779027


# ---------------------------------------------------------------------------
# exponent pairs


def test_exponent_pair_conjugacy():
    e = ExponentPair(1.5)
    assert e.q == 3.0
    assert 1 / e.p + 1 / e.q == pytest.approx(1.0, abs=1e-15)


def test_exponent_pair_endpoints():
    assert ExponentPair(2.0).q == 2.0
    assert ExponentPair(1.0).q == math.inf


def test_exponent_pair_q_is_derived_not_settable():
    with pytest.raises(TypeError):
        ExponentPair(1.5, q=99.0)
    assert repr(ExponentPair(1.5)) == "ExponentPair(p=1.5, q=3.0)"


@pytest.mark.parametrize("bad", [0.5, 0.99, 2.3, -1.0])
def test_exponent_pair_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        ExponentPair(bad)


@given(st.floats(1.01, 1.99))
@settings(max_examples=50, deadline=None)
def test_exponent_pair_holder_scaling(p):
    e = ExponentPair(p)
    assert 1 / e.p + 1 / e.q == pytest.approx(1.0, abs=1e-12)
    assert e.q > 2.0


# ---------------------------------------------------------------------------
# weights


def test_weight_sequence_values():
    # interior zeros keep a zero weight; padding zeros fall off the window
    seq = CoefficientSequence(0, (0.5, 0j, 0.3, 0j))
    w = WeightSampler(seq).weights
    assert len(w) == 3
    assert w[0] == pytest.approx(math.sqrt(math.log(4 / 3)), rel=1e-14)
    assert w[0] == pytest.approx(0.5363601, abs=1e-7)
    assert w[1] == 0.0
    assert w[2] == pytest.approx(math.sqrt(-math.log1p(-0.09)), rel=1e-14)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_weight_dominates_modulus(seed):
    rng = np.random.default_rng(seed)
    seq = random_sequence_draw(rng)
    w = WeightSampler(seq).weights
    assert np.all(w >= seq.moduli())


def test_weight_torus_zero_sequence():
    seq = CoefficientSequence(0, (0j,))
    assert np.all(WeightSampler(seq).on_grid(20) == 0.0)


def test_weight_torus_single_spike_constant():
    seq = CoefficientSequence(0, (0.5,))
    expected = math.sqrt(math.log(4 / 3))
    # the 100-point grid holds t = 0, 0.3 and 0.77
    assert WeightSampler(seq).on_grid(100) == pytest.approx(np.full(100, expected), rel=1e-13)


def test_weight_torus_vanishes_at_weight_zero(two_half):
    # |a(1/2)| = 1; the b-route evaluation leaves only float residue
    assert WeightSampler(two_half).on_grid(2)[1] == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# periodic L^q quadrature


def test_lq_constant_certifies_on_initial_grid(quad):
    res = lq_norm_periodic(lambda M: np.full(M, 0.7), 2.0, quad, 0)
    assert res.value == pytest.approx(0.7, rel=1e-14)
    assert res.grid_used == quad.initial_grid
    assert res.converged


def _grid(M):
    return np.arange(M, dtype=float) / M


def test_lq_abs_sine(quad):
    res = lq_norm_periodic(lambda M: np.abs(np.sin(2 * np.pi * _grid(M))), 2.0, quad, 0)
    assert res.value == pytest.approx(1 / math.sqrt(2), rel=1e-10)


def test_lq_weight_fixture_vs_dense_reference(two_half, quad):
    res = lq_norm_periodic(WeightSampler(two_half).on_grid, 3.0, quad, 1)
    assert res.value == pytest.approx(W3_TWO_HALF, abs=1e-8)
    assert res.converged


@pytest.mark.parametrize("stale", [
    lambda t: 0.25,
    lambda ts: np.abs(np.sin(2 * np.pi * ts)),
    lambda ts: np.full_like(ts, 0.7),
])
def test_lq_function_of_t_raises_type_error(stale, quad):
    """A function of t handed in where a grid level belongs is an error,
    not a norm of its values at the integers."""
    with pytest.raises(TypeError):
        lq_norm_periodic(stale, 3.0, quad, 0)


def test_lq_sup_norm(quad):
    res = lq_norm_periodic(lambda M: np.abs(np.sin(2 * np.pi * _grid(M))), math.inf, quad, 0)
    assert res.value == pytest.approx(1.0, abs=1e-4)
    assert res.value <= 1.0  # grid max never overshoots the sup


def test_lq_no_convergence_flag():
    cfg = QuadratureConfig(initial_grid=4, max_grid=8, rel_tol=1e-16)
    rough = lambda M: np.abs(np.sin(2 * np.pi * _grid(M))) ** 0.3
    res = lq_norm_periodic(rough, 1.0, cfg, 0)
    assert not res.converged
    assert res.grid_used == 8


@pytest.mark.parametrize("level", [lambda M: np.full(M, 0.7), lambda M: np.zeros((0, M))])
def test_lq_empty_tuple_of_exponents_raises_value_error(level, quad):
    """No exponent is an error naming ``q``, not a refinement of no cells."""
    with pytest.raises(ValueError, match="q"):
        lq_norm_periodic(level, (), quad, 0)


def test_trapezoid_kills_pure_exponentials():
    """Uniform trapezoid sums of e^{2 pi i k t} vanish for 0 < |k| < M."""
    M = 64
    ts = np.arange(M) / M
    for k in (1, 2, 7, 31, 63, -5):
        s = np.mean(np.exp(2j * np.pi * k * ts))
        assert abs(s) <= 1e-13


# ---------------------------------------------------------------------------
# sequence norms


def test_lp_equal_entries_closed_form():
    w = math.sqrt(math.log(4 / 3))
    val = lp_sequence_norm([w, w], 1.5)
    assert val == pytest.approx(w * 2 ** (2 / 3), rel=1e-14)


def test_lp_pythagoras():
    assert lp_sequence_norm([3.0, 4.0], 2.0) == pytest.approx(5.0, rel=1e-15)


def test_lp_sup():
    assert lp_sequence_norm([1.0, 2.0, 3.0], math.inf) == 3.0


def test_lp_empty_is_zero():
    assert lp_sequence_norm([], 1.5) == 0.0
    assert lp_sequence_norm([], math.inf) == 0.0


def test_lp_accepts_complex_moduli():
    assert lp_sequence_norm([3.0 + 4.0j], 2.0) == pytest.approx(5.0)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_lp_nesting_monotone(seed):
    """p -> lp norm is nonincreasing on finitely supported sequences."""
    rng = np.random.default_rng(seed)
    seq = random_sequence_draw(rng)
    w = WeightSampler(seq).weights
    ps = (1.0, 1.25, 1.5, 1.75, 2.0)
    norms = [lp_sequence_norm(w, p) for p in ps]
    for lo, hi in zip(norms[1:], norms[:-1]):
        assert lo <= hi * (1 + 1e-12)


# ---------------------------------------------------------------------------
# conservation law


def test_parseval_zero_sequence(quad):
    assert parseval_residual(CoefficientSequence(0, (0j,)), quad)[0] == 0.0


def test_parseval_fixture_closed_form(two_half, quad):
    res, detail = parseval_residual(two_half, quad)
    assert abs(res) <= 1e-10
    assert detail.value == pytest.approx(2 * math.log(4 / 3), abs=1e-10)
    assert detail.converged


def test_parseval_random_draws(quad):
    rng = np.random.default_rng(99)
    for _ in range(25):
        seq = random_sequence_draw(rng, max_window=10)
        if seq.is_zero():
            continue
        assert abs(parseval_residual(seq, quad)[0]) <= 1e-9


def test_parseval_suite_without_draws_reports_no_draw_residual():
    """Only checked draws record ``abs_residual``; none are made here."""
    rep = parseval_suite(n_draws=0)
    assert rep.n_checked == 1  # the fixture
    assert "abs_residual" not in rep.worst
    assert "fixture_residual" in rep.worst


def test_a_refinement_samples_its_first_two_levels_in_one_kernel_call(monkeypatch):
    """A refinement that converges at its first doubling evaluates the
    level 2M whole, once, and takes the first level M from its even points:
    one product for a one-row weight norm, one ``_TraceGrids._rows`` call
    for a ledger block.  Both levels keep the bits of sampling them alone."""
    products, rows = [], []
    product, trace_rows = spectral_norms.product_on_grid_arrays, _TraceGrids._rows
    monkeypatch.setattr(spectral_norms, "product_on_grid_arrays",
                        lambda seq, ts, grid: products.append(grid) or product(seq, ts, grid))
    monkeypatch.setattr(_TraceGrids, "_rows", lambda self, ts, grid, sub=None:
                        rows.append(grid) or trace_rows(self, ts, grid, sub))
    seq, cfg = CoefficientSequence(-1, (0.1, 0.05j, 0.02)), QuadratureConfig()
    sampler, grids = WeightSampler(seq), _TraceGrids(seq)
    M = _first_grid(cfg, sampler.span)
    norm = lq_norm_periodic(sampler.on_grid, 3.0, cfg, sampler.span)
    block = lq_norm_periodic(grids.level, 3.0, cfg, sampler.span)
    assert norm.converged and norm.grid_used == M
    assert block.converged and np.all(block.grid_used == M)
    assert products == rows == [(2 * M, False)]
    for grid in (M, 2 * M):
        ts = np.arange(grid) / grid
        alone = np.abs(product(seq, ts, (grid, False))[1])
        assert sampler.b_abs_on_grid(grid).tobytes() == alone.tobytes()
        assert grids.level(grid).tobytes() == trace_rows(grids, ts, (grid, False), None).tobytes()
    assert products == rows == [(2 * M, False)]


# ``su11 verify`` seeds whose parseval suite meets a draw on which two
# refinement levels agree on a wrong value: the draw and its residual
FALSE_PARSEVAL = {1391071104: (87, 2.93e-9), 2493: (35, 8.67e-9),
                  1592: (11, 3.20e-9), 1077: (81, 1.88e-9)}


def _logsq_trapezoid_error(seq, M):
    """The exact error of the M-point trapezoid sum of log|a|^2.

    ``a`` is a polynomial in w = e^{-2 pi i t} of degree ``span`` with
    constant term prod A_n and no zero in |w| <= 1, and the product of
    1 - omega x over the M-th roots of unity omega is 1 - x^M; so the sum is
    sum log A_n^2 + (1/M) sum_j log|1 - w_j^-M|^2 over the zeros w_j of a.
    """
    lo, hi = seq.support()
    N = 1 << (2 * (hi - lo) + 2).bit_length()  # above 2 span + 1
    a, _ = product_on_grid_arrays(seq, np.arange(N) / N)
    coeffs = np.fft.fft(a)[-np.arange(hi - lo + 1) % N] / N  # of w^0 .. w^span
    zeros = np.roots(coeffs[::-1])
    return float(np.sum(np.log(np.abs(1.0 - zeros ** -M) ** 2)) / M)


@pytest.mark.parametrize("M", [256, 1024])
def test_level_means_equal_the_closed_form_trapezoid_sum(M):
    """An oracle for the kernel, the phases and the levels with no mpmath:
    the mean of a level of log|a|^2 is the M-point trapezoid sum, exactly
    sum log A_n^2 plus ``_logsq_trapezoid_error``.  On 200 seeded draws
    (width up to 10, sup up to 0.9) both level paths,
    ``WeightSampler.logsq_on_grid`` and the rows of ``_logsq_level``, match
    it within 1e-13 of the sequence side."""
    rng = np.random.default_rng(M)
    seqs = [random_window_sequence(rng, 10, 0.9) for _ in range(200)]
    ns, block = _window_rows(seqs)
    rows = _logsq_level(block, ns, {}, M)
    for seq, row in zip(seqs, rows):
        seq_side = sum(_log_a_sq(abs(v)) for _, v in seq.window_entries())
        want = seq_side + _logsq_trapezoid_error(seq, M)
        for level in (WeightSampler(seq).logsq_on_grid(M), row):
            assert abs(np.mean(level) - want) <= 1e-13 * seq_side


def test_parseval_residual_at_an_offset_outside_int64():
    """The indices stay Python ints: at offset 2**70 the residual and its
    integral are those of offset 0, bit for bit."""
    at = [parseval_residual(CoefficientSequence(offset, (0.1, 0.2j)), QuadratureConfig())
          for offset in (0, 2**70)]
    assert repr(at[1]) == repr(at[0])


@pytest.mark.parametrize("seed", sorted(FALSE_PARSEVAL))
def test_parseval_rechecks_two_levels_that_agree_on_a_wrong_value(seed, tmp_path):
    """On each known draw the first refinement reports the exact trapezoid
    error of its final level, over the 1e-9 gate; the suite re-checks it
    from 4x the grid, where the exact error is under the gate, notes the
    reversal and passes, and ``su11 verify`` at that seed exits 0."""
    draw, reported = FALSE_PARSEVAL[seed]
    rng = np.random.default_rng(seed)
    seq = [random_window_sequence(rng, 10, 0.9) for _ in range(draw + 1)][-1]
    cfg = QuadratureConfig()
    residual, res = parseval_residual(seq, cfg)
    assert abs(residual) > 1e-9 and residual == pytest.approx(reported, rel=5e-3)
    exact = _logsq_trapezoid_error(seq, 2 * res.grid_used)
    assert residual == pytest.approx(exact, rel=1e-5)
    recheck = QuadratureConfig(4 * res.grid_used, cfg.max_grid, cfg.rel_tol)
    again, res2 = parseval_residual(seq, recheck)
    assert res2.converged and abs(again) <= 1e-9
    assert abs(_logsq_trapezoid_error(seq, 2 * res2.grid_used)) <= 1e-12

    rep = parseval_suite(seed=seed)
    assert rep.passed and rep.failures == []
    notes = [note for note in rep.notes if "re-checked" in note]
    assert notes == [f"draw {draw}: residual {residual!r} (grid_used {res.grid_used}) "
                     f"re-checked from grid {4 * res.grid_used}: {again!r}"]
    assert rep.worst["abs_residual"] <= 1e-9
    assert main(["verify", "--seed", str(seed), "--output", str(tmp_path)]) == 0


def test_a_parseval_recheck_that_cannot_converge_leaves_the_failure_standing():
    """Under a ``max_grid`` of 3000 the seed-1391071104 draw stops at 2048
    points; its re-check starts at the largest power of two within
    ``max_grid``, cannot double, and so reverses nothing."""
    rep = parseval_suite(seed=1391071104, cfg=QuadratureConfig(max_grid=3000))
    assert not rep.passed and not any("re-checked" in note for note in rep.notes)
    assert any(abs(fx["residual"]) > 1e-9 for fx in rep.failures)


def _parseval_alone(seq, cfg):
    """A draw's parseval integral refined alone, through its own
    ``WeightSampler`` and ``_fold``, as the suite did one draw at a time."""
    sampler = WeightSampler(seq)
    return _refine(sampler.logsq_on_grid,
                   lambda b, cols: (np.add.reduce(b, axis=-1) / b.shape[-1]).tolist(),
                   cfg, sampler.span, 1).columns[0]


def test_parseval_blocks_give_each_row_its_own_refinement(monkeypatch):
    """Every row of the parseval blocks has the value, ``grid_used``,
    estimate and convergence of its own one-row refinement bit for bit:
    random draws, the four draws whose levels agree on a wrong value, a
    zero draw, and a draw of span 200 in the same call, so that two first
    grids group apart.  Each block shares one first grid and holds at most
    ``_PARSEVAL_BLOCK`` (32) rows.  The residual subtracts the sequence
    side of the draw."""
    firsts, blocks = [], []
    refine, window_rows = spectral_norms._refine, spectral_norms._window_rows
    monkeypatch.setattr(spectral_norms, "_refine", lambda level, stat, cfg, span, cols:
                        firsts.append(_first_grid(cfg, span)) or
                        refine(level, stat, cfg, span, cols))
    monkeypatch.setattr(spectral_norms, "_window_rows",
                        lambda seqs: blocks.append(len(seqs)) or window_rows(seqs))
    rng = np.random.default_rng(5)
    seqs = [random_window_sequence(rng, 10, 0.9) for _ in range(60)]
    for seed, (draw, _) in FALSE_PARSEVAL.items():
        rng = np.random.default_rng(seed)
        seqs.append([random_window_sequence(rng, 10, 0.9) for _ in range(draw + 1)][-1])
    seqs.insert(7, CoefficientSequence(3, (0j, 0j)))
    seqs.insert(40, CoefficientSequence(-100, (0.3,) + (0j,) * 199 + (0.2j,)))
    cfg = QuadratureConfig()
    got = spectral_norms.parseval_residuals(seqs, cfg)
    assert len(got) == len(seqs)
    for seq, (residual, res) in zip(seqs, got):
        want = _parseval_alone(seq, cfg)
        assert (res.value, res.grid_used, res.est_rel_error, res.converged) == (
            want.value, want.grid_used, want.est_rel_error, want.converged)
        assert type(res.value) is float and type(res.grid_used) is int
        sampler = WeightSampler(seq)
        assert residual == want.value - float(sum(sampler.log_a_sq))
    assert list(zip(firsts, blocks)) == [(256, 32), (256, 32), (256, 1), (512, 1)]


def test_parseval_blocks_fold_only_the_columns_their_rows_use(monkeypatch):
    """Two sequences 2000 apart share a first grid and so a block, which
    folds their 4 nonzero columns, not the 2002 of their common window;
    each result equals its one-row call bit for bit."""
    widths, fold = [], spectral_norms._fold_rows
    monkeypatch.setattr(spectral_norms, "_fold_rows", lambda rows, phase, grid:
                        widths.append(rows.shape[1]) or fold(rows, phase, grid))
    seqs = [CoefficientSequence(0, (0.3, 0.2j)), CoefficientSequence(2000, (0.3, -0.1))]
    cfg = QuadratureConfig()
    got = spectral_norms.parseval_residuals(seqs, cfg)
    assert widths and set(widths) == {4}
    for seq, (residual, res) in zip(seqs, got):
        alone, one = parseval_residual(seq, cfg)
        assert np.float64(residual).tobytes() == np.float64(alone).tobytes()
        assert res == one


def test_refinement_estimates_shrink_statistically(quad):
    """Across the Parseval integrand family, a doubling rarely grows the
    successive-difference estimate by more than 2x (noise floor excluded).
    The estimates come from the means a recording statistic hands
    ``_refine``, level by level."""
    rng = np.random.default_rng(1234)
    ok, total = 0, 0
    for _ in range(100):
        seq = random_sequence_draw(rng, max_window=10)
        if seq.is_zero():
            continue
        means = []

        def statistic(block, cols):
            means.append(float(np.add.reduce(block[0]) / block.shape[-1]))
            return means[-1:]

        sampler = WeightSampler(seq)
        detail = _refine(sampler.logsq_on_grid, statistic, quad, sampler.span, 1).columns[0]
        assert detail.value == parseval_residual(seq, quad)[1].value
        ests = [abs(x - prev) / max(abs(x), _TINY) for prev, x in zip(means, means[1:])]
        assert ests[-1] == detail.est_rel_error
        for prev, nxt in zip(ests[:-1], ests[1:]):
            if max(prev, nxt) < 1e-14:
                continue
            total += 1
            if nxt <= 2.0 * prev:
                ok += 1
    assert total == 0 or ok / total >= 0.9


# ---------------------------------------------------------------------------
# frequency support


def test_frequency_support_pure_tone():
    ts = np.arange(8) / 8
    assert frequency_support(np.exp(2j * np.pi * ts), claimed_bandwidth=1) == (1, 1)


def test_frequency_support_b_and_a(two_half):
    ts = np.arange(32) / 32
    a, b = product_on_grid_arrays(two_half, ts)
    assert frequency_support(b, claimed_bandwidth=1) == (0, 1)
    assert frequency_support(a, claimed_bandwidth=1) == (-1, 0)


def test_frequency_support_alias_guard():
    ts = np.arange(8) / 8
    with pytest.raises(AliasRiskError):
        frequency_support(np.exp(2j * np.pi * ts), claimed_bandwidth=4)


def test_frequency_support_all_zero_is_none():
    assert frequency_support(np.zeros(16, dtype=complex), claimed_bandwidth=1) is None


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(initial_grid=3)
    with pytest.raises(ValueError):
        QuadratureConfig(initial_grid=0)
    with pytest.raises(ValueError):
        QuadratureConfig(initial_grid=256, max_grid=128)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)


def test_frequency_support_random_windows():
    rng = np.random.default_rng(5)
    for _ in range(25):
        seq = random_sequence_draw(rng)
        if seq.is_zero():
            continue
        n_min, n_max = seq.support()
        width = n_max - n_min + 1
        need = max(4 * width, 2 * max(abs(n_min), abs(n_max)) + 2)
        grid = 1 << int(np.ceil(np.log2(need)))
        ts = np.arange(grid) / grid
        a, b = product_on_grid_arrays(seq, ts)
        band_b = frequency_support(b, claimed_bandwidth=max(abs(n_min), abs(n_max)))
        assert band_b[0] >= n_min and band_b[1] <= n_max
        band_a = frequency_support(a, claimed_bandwidth=width)
        assert band_a[0] >= -(n_max - n_min) and band_a[1] <= 0


# ---------------------------------------------------------------------------
# shared sampler levels


@pytest.mark.parametrize("first", [16, 12])
@pytest.mark.parametrize("width", [1, 2, 5, 12, 25, 48])
def test_sampler_levels_from_odd_points_match_fresh_evaluation(width, first):
    """Each level built from the cached coarser level plus its new odd
    points is bit-identical to evaluating all of its points at once."""
    seq = sequence_of_width(width)
    sampler = WeightSampler(seq)
    grid = first
    while grid <= 8192:
        ts = np.arange(grid, dtype=float) / grid
        b_abs = np.abs(product_on_grid_arrays(seq, ts)[1])
        logsq = np.log1p(b_abs**2)
        assert np.array_equal(sampler.b_abs_on_grid(grid), b_abs)
        assert np.array_equal(sampler.logsq_on_grid(grid), logsq)
        assert np.array_equal(sampler.on_grid(grid), np.sqrt(logsq))
        grid *= 2


def test_sampler_evaluates_only_new_odd_points(monkeypatch):
    import su11.spectral_norms as sn

    sizes = []

    def spy(seq, ts, grid=None):
        sizes.append(ts.size)
        return product_on_grid_arrays(seq, ts, grid)

    monkeypatch.setattr(sn, "product_on_grid_arrays", spy)
    sampler = WeightSampler(sequence_of_width(5))
    for grid in (256, 512, 1024, 256, 512):
        sampler.on_grid(grid)
    sampler.on_grid(4096)  # 2048 is not cached: every point is evaluated
    assert sizes == [256, 256, 512, 4096]


# ---------------------------------------------------------------------------
# block refinement


def _doubling_row(level, q, cfg, span):
    """One row refined by a plain doubling loop from ``_first_grid``: the
    value, grid, estimate and convergence."""

    def stat(row):
        if q == math.inf:
            return float(np.max(row))
        with np.errstate(divide="ignore"):
            powers = np.log(row)
        powers *= q
        mean = float(np.add.reduce(np.exp(powers, out=powers)) / row.size)
        return mean ** (1.0 / q) if mean > 0 else 0.0

    grid = _first_grid(cfg, span)
    value, grid_used, est = stat(level(grid)), grid, math.inf
    while 2 * grid <= cfg.max_grid:
        x = stat(level(2 * grid))
        est = abs(x - value) / max(abs(x), _TINY)
        value = x
        if est <= cfg.rel_tol:
            return value, grid, est, True
        grid *= 2
        grid_used = grid
    return value, grid_used, est, False


def _doubling_lq(level, q, cfg, span):
    """The oracle of the refinement flow: every row of ``level`` refined
    alone by ``_doubling_row``, as the NormResult ``lq_norm_periodic`` gives
    one ``q`` (floats for one row, arrays for a block)."""
    first = level(_first_grid(cfg, span))
    if first.ndim == 1:
        return NormResult(*_doubling_row(level, q, cfg, span))
    shape = first.shape[:-1]
    rows = [_doubling_row(lambda M, i=i: level(M).reshape(-1, M)[i], q, cfg, span)
            for i in range(math.prod(shape))]

    def field(j):
        return np.array([row[j] for row in rows]).reshape(shape)

    return NormResult(field(0), field(1), field(2), all(row[3] for row in rows))


def _block_level(builders):
    """A grid-level function over a block of rows, one ``builders[i](M)``
    per row; ``level(M, rows)`` builds the rows ``rows`` alone, at the new
    odd points of level M."""
    def level(M, rows=None):
        if rows is None:
            return np.array([build(M) for build in builders]).reshape(-1, M)
        return np.array([builders[r](M)[1::2] for r in rows]).reshape(-1, M // 2)

    return level


def _dyadic_depth(M):
    """log2 of the reduced denominator of t = j / M: a function of t whose
    mean and maximum over the level grow with every doubling, so no
    refinement of it converges at any q."""
    return np.log2(M // np.gcd(np.arange(M), M))


def _same_bits(block, r, one):
    """Row r of a block NormResult carries the bits of the one-row result."""
    return (np.float64(block.value[r]).tobytes() == np.float64(one.value).tobytes()
            and int(block.grid_used[r]) == one.grid_used
            and np.float64(block.est_rel_error[r]).tobytes()
            == np.float64(one.est_rel_error).tobytes())


@given(st.integers(0, 2**32 - 1), st.integers(0, 6),
       st.sampled_from((1.0, 1.7, 3.0, 11.0, math.inf)),
       st.sampled_from((2**9, 2**12, 2**16)))
@settings(max_examples=40, deadline=None)
def test_block_refine_rows_equal_one_row_refinements(seed, width, q, max_grid):
    """Each row of a block, refined at once, has the value, grid, estimate
    and convergence of its own one-row refinement, bit for bit: rows that
    converge at different levels, an all-zero row, a rough row, a row that
    never converges (the dyadic depth of t), a block with no rows, at
    q = inf too: the block's NormResult is the per-row oracle's."""
    rng = np.random.default_rng(seed)
    cfg = QuadratureConfig(initial_grid=16, max_grid=max_grid, rel_tol=1e-10)
    builders = [WeightSampler(random_sequence_draw(rng, max_window=8)).on_grid
                for _ in range(width)]
    builders += [lambda M: np.zeros(M), _dyadic_depth,
                 lambda M: np.abs(np.sin(2 * np.pi * _grid(M))) ** 0.3]
    rng.shuffle(builders)
    block = lq_norm_periodic(_block_level(builders), q, cfg, 7)
    assert block.value.shape == (len(builders),)
    assert _same_result(block, _doubling_lq(_block_level(builders), q, cfg, 7))
    assert not block.converged
    assert block.grid_used[builders.index(_dyadic_depth)] == max_grid
    empty = lq_norm_periodic(lambda M: np.zeros((0, M)), q, cfg, 0)
    assert empty.value.shape == (0,) and empty.converged


@pytest.mark.parametrize("chunk", [1, 2**9, 3 * 2**10])
def test_block_powers_taken_a_few_rows_at_a_time_keep_the_bits(monkeypatch, chunk):
    """The q-th powers of a block are taken a few rows per pass (one row,
    or a chunk that splits the block unevenly); every row keeps the bits of
    its one-row refinement."""
    rng = np.random.default_rng(11)
    builders = [WeightSampler(random_sequence_draw(rng, max_window=8)).on_grid
                for _ in range(7)] + [lambda M: np.zeros(M)]
    cfg = QuadratureConfig(initial_grid=16, max_grid=2**12, rel_tol=1e-10)
    ones = [lq_norm_periodic(build, 3.0, cfg, 7) for build in builders]
    monkeypatch.setattr(spectral_norms, "_STAT_CHUNK", chunk)
    block = lq_norm_periodic(_block_level(builders), 3.0, cfg, 7)
    assert all(_same_bits(block, r, one) for r, one in enumerate(ones))


def _same_result(got, want):
    """Two NormResults with the same bits in every field."""
    fields = ("value", "grid_used", "est_rel_error")
    return (all(type(getattr(got, f)) is type(getattr(want, f))
                and np.asarray(getattr(got, f)).tobytes() == np.asarray(getattr(want, f)).tobytes()
                for f in fields)
            and got.converged == want.converged)


@given(st.integers(0, 2**32 - 1), st.integers(0, 4),
       st.lists(st.sampled_from((1.0, 2.0, 2.111111111111111, 3.0, 11.0, math.inf)),
                min_size=1, max_size=5, unique=True),
       st.sampled_from((2**9, 2**12, 2**16)), st.sampled_from((None, 1, 512)))
@settings(max_examples=40, deadline=None)
def test_multi_q_equals_each_single_q_refinement(seed, width, qs, max_grid, chunk):
    """Each q of a multi-q ``lq_norm_periodic`` gets the NormResult of its
    own refinement by the per-row oracle, bit for bit: one row, and a block
    with an all-zero row and a row that never converges, at q = inf too,
    with a small ``max_grid`` and with ``_STAT_CHUNK`` patched to a row or
    two (1 and 512 samples)."""
    rng = np.random.default_rng(seed)
    cfg = QuadratureConfig(initial_grid=16, max_grid=max_grid, rel_tol=1e-10)
    builders = [WeightSampler(random_sequence_draw(rng, max_window=8)).on_grid
                for _ in range(width)]
    builders += [lambda M: np.zeros(M), _dyadic_depth]
    rng.shuffle(builders)
    with pytest.MonkeyPatch.context() as m:
        if chunk is not None:
            m.setattr(spectral_norms, "_STAT_CHUNK", chunk)
        for level in (builders[0], _block_level(builders)):
            multi = lq_norm_periodic(level, tuple(qs), cfg, 7)
            assert len(multi) == len(qs)
            for q, got in zip(qs, multi):
                assert _same_result(got, _doubling_lq(level, q, cfg, 7)), q


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_multi_q_ledger_block_equals_each_single_q_refinement(seed):
    """The ledger's (2, rows) block at the five theorem1 exponents at once,
    against the per-row oracle."""
    seq = random_sequence_draw(np.random.default_rng(seed), l1_target=0.45)
    level, span = _TraceGrids(seq).level, WeightSampler(seq).span
    qs = tuple(ExponentPair(p).q for p in THEOREM1_PS)
    multi = lq_norm_periodic(level, qs, QuadratureConfig(), span)
    assert multi[0].value.shape == level(16).shape[:-1]
    for q, got in zip(qs, multi):
        assert _same_result(got, _doubling_lq(level, q, QuadratureConfig(), span))


def test_block_refine_keeps_the_leading_shape():
    """A (2, rows, M) level comes back as (2, rows) arrays."""
    seqs = [CoefficientSequence(0, (0.3, 0.2j)), CoefficientSequence(-1, (0.1, 0.4, 0.05))]
    builders = [WeightSampler(s).on_grid for s in seqs] + [WeightSampler(s).b_abs_on_grid
                                                          for s in seqs]
    flat = _block_level(builders)
    res = lq_norm_periodic(
        lambda M, rows=None: flat(M).reshape(2, 2, M) if rows is None else flat(M, rows),
        3.0, QuadratureConfig(), 2)
    assert res.value.shape == res.grid_used.shape == res.est_rel_error.shape == (2, 2)
    ones = [lq_norm_periodic(build, 3.0, QuadratureConfig(), 2)
            for build in builders]
    assert [float(v) for v in res.value.ravel()] == [one.value for one in ones]


def test_block_statistic_sees_only_open_rows_after_level_two(monkeypatch):
    """From the third level on the statistic gets the open rows only: a
    constant row freezes at the second level, a rough row refines on.  With
    a small ``_STAT_CHUNK`` no call gets more than one chunk of rows, and
    the result keeps its bits."""
    rows = [lambda M: np.full(M, 0.5), lambda M: np.abs(np.sin(2 * np.pi * _grid(M))) ** 0.3]
    cfg = QuadratureConfig(initial_grid=4, max_grid=2**10, rel_tol=1e-12)
    seen = []

    def statistic(block, cols):
        seen.append(block.shape)
        assert cols == [0]
        return np.mean(block, axis=-1).tolist()

    res = _refine(_block_level(rows), statistic, cfg, 0, 1)
    assert [n for n, _ in seen] == [2, 2] + [1] * (len(seen) - 2) and len(seen) == 9
    col = res.columns[0]
    assert col.grid_used.tolist() == [4, 2**10] and res.converged is False

    seen.clear()
    monkeypatch.setattr(spectral_norms, "_STAT_CHUNK", 6)
    chunked = _refine(_block_level(rows), statistic, cfg, 0, 1).columns[0]
    assert all(n <= max(1, 6 // M) for n, M in seen) and len(seen) > 9
    assert chunked.value.tobytes() == col.value.tobytes()
    assert chunked.grid_used.tolist() == col.grid_used.tolist()


def test_block_refine_rejects_a_level_of_the_wrong_shape():
    """The leading shape of every level must be the first level's."""
    cfg = QuadratureConfig(initial_grid=4, max_grid=64, rel_tol=1e-12)
    rough = lambda M: np.abs(np.sin(2 * np.pi * _grid(M))) ** 0.3

    def level(M):  # two rows at the first level, then the rough row alone
        block = np.array([np.full(M, 0.5), rough(M)])
        return block if M == 4 else block[1:]

    with pytest.raises(TypeError):
        lq_norm_periodic(level, 2.0, cfg, 0)


# ---------------------------------------------------------------------------
# aliasing floor


def test_first_grid_floor():
    cfg = QuadratureConfig()
    assert [_first_grid(cfg, s) for s in (0, 47, 127, 128, 512)] == [256, 256, 256, 512, 2048]
    assert _first_grid(QuadratureConfig(initial_grid=1, max_grid=2**20), 0) == 2
    assert _first_grid(QuadratureConfig(initial_grid=256, max_grid=1024), 512) == 1024


def test_parseval_starts_above_the_alias_floor(quad, monkeypatch):
    """Two entries 600 apart: the first levels below 1201 points alias
    the band of log|a|^2, so the coarsest level the refinement asks of its
    block is 2048; the integral still meets the sequence side."""
    asked, level = [], spectral_norms._logsq_level
    monkeypatch.setattr(spectral_norms, "_logsq_level", lambda block, lo, levels, grid, *rest:
                        asked.append(grid) or level(block, lo, levels, grid, *rest))
    seq = CoefficientSequence(0, (0.4,) + (0j,) * 599 + (0.3j,))
    residual, res = parseval_residual(seq, quad)
    assert min(asked) == 2048 and res.converged
    assert abs(residual) <= 1e-9
