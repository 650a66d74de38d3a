"""Randomized verification suites with counterexample capture.

Each suite draws deterministic pseudo-random inputs from a stated seed,
checks one family of identities or inequalities at a declared tolerance,
and returns a report carrying the worst margins plus a serialized
counterexample for every violation.  The suites are the machine behind the
CLI ``verify`` mode and the acceptance tests.

A failed inequality here is the most valuable artifact a run can produce:
reports keep the offending input in full precision so the violation can be
replayed independently.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DegenerateFitError
from .nft_core import (
    CoefficientSequence, product_on_grid_arrays, _fold, _fold_rows, _grid_phases, _phases,
    _window_rows,
)
from .spectral_norms import (
    ExponentPair,
    QuadratureConfig,
    WeightSampler,
    _SEQ_BLOCK,
    _TINY,
    _refine_norms,
    frequency_support,
    parseval_residual,
    parseval_residuals,
)
from .inequality_harness import (
    DEFAULT_MARGIN_TOL,
    LEDGER_T_SAMPLES,
    PROBE_SCALES,
    CCParameters,
    alpha_delta,
    condition_check,
    hy_ratio,
    judge,
    proof_ledger,
    quadratic_error_probe,
    theorem1_margin,
    theorem2_margin,
    _trace_grids,
)

DEFAULT_SEED = 20260808
THEOREM1_PS = (1.1, 1.3, 1.5, 1.7, 1.9)
# draws per batch of the membership, parseval and band-check suites: bounds
# their memory under a large ``--draws`` (rows of at most 12 entries)
_DRAW_CHUNK = 4096
# No admissible (c, gamma, eta) is known explicitly: the theorem suites run
# with this documented placeholder (theorem2_suite also takes another).
PLACEHOLDER_CC = CCParameters(1.0, 1.0, 1.0)

# Construction ranges for the sharp-constant suite: small p keeps the
# placeholder (1,1,1) triple consistent with the sharpened truncation
# bound, wide windows keep draws spread out, and the l1 mass stays in the
# lower part of the admissible range.
THEOREM2_PS = (1.1, 1.3, 1.5)
THEOREM2_WINDOW = (24, 48)
THEOREM2_L1_FRACTION = (0.05, 0.60)


@dataclass
class SuiteReport:
    name: str
    seed: int
    n_checked: int = 0
    passed: bool = True
    worst: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def check(self, key: str, value: float, bound: float, converged: bool = True,
              smaller_is_worse: bool = False) -> bool:
        """Keep the worst ``value`` under ``key``; True if ``judge`` finds it
        violated, and an unresolved one counts in ``worst["unresolved"]``."""
        value = float(value)
        cur = self.worst.get(key)
        if cur is None or (value < cur if smaller_is_worse else value > cur):
            self.worst[key] = value
        verdict = judge(value, bound, converged, smaller_is_worse)
        if verdict == "unresolved":
            self.worst["unresolved"] = self.worst.get("unresolved", 0.0) + 1.0
        return verdict == "violated"

    def fail(self, **counterexample):
        self.passed = False
        self.failures.append(counterexample)

    def summary_lines(self) -> list[str]:
        status = "PASS" if self.passed else "FAIL"
        lines = [f"[{status}] {self.name}: {self.n_checked} checks, seed={self.seed}"]
        for key in sorted(self.worst):
            lines.append(f"    worst {key} = {self.worst[key]!r}")
        for note in self.notes:
            lines.append(f"    {note}")
        for fx in self.failures[:5]:
            lines.append(f"    counterexample: {fx}")
        return lines

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# draws


def random_window_sequence(
    rng: np.random.Generator,
    max_window: int,
    sup_cap: float,
    l1_target: float | None = None,
) -> CoefficientSequence:
    """Random window with uniform phases; magnitudes either capped in sup
    norm or rescaled to a target l1 norm."""
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


def condition9_draw(
    rng: np.random.Generator, p: float, cc: CCParameters
) -> CoefficientSequence:
    """Many small equal-magnitude entries with random phases, built to
    satisfy the smallness-vs-spread condition by construction."""
    alpha, delta = alpha_delta(cc)
    width = int(rng.integers(THEOREM2_WINDOW[0], THEOREM2_WINDOW[1] + 1))
    spread = 1.0 - width ** (-1.0 / p)  # 1 - linf/lp for equal magnitudes
    cap_l1 = delta * spread**alpha
    l1 = rng.uniform(*THEOREM2_L1_FRACTION) * cap_l1
    mag = l1 / width
    phases = rng.uniform(0.0, 2.0 * np.pi, width)
    vals = mag * np.exp(1j * phases)
    return CoefficientSequence(0, tuple(vals))


# ---------------------------------------------------------------------------
# suites


def su11_membership_suite(
    n_draws: int = 500, seed: int = DEFAULT_SEED
) -> SuiteReport:
    """Group constraint and |a| >= 1 at random (F, t):
    ||a|^2 - |b|^2 - 1| <= 1e-10 |a|^2 and |a| >= 1 - 1e-12.

    The draws are folded ``_DRAW_CHUNK`` at a time as one ``_fold_rows``
    batch, each row zero-padded onto the chunk's indices (``_window_rows``)
    and phased at its own ``t``; |a| and |b| are those of its own
    ``product_on_grid_arrays(F, [t])`` bit for bit.
    """
    rng = np.random.default_rng(seed)
    rep = SuiteReport("su11-membership", seed)
    for start in range(0, n_draws, _DRAW_CHUNK):
        draws = []
        for _ in range(min(_DRAW_CHUNK, n_draws - start)):
            seq = random_window_sequence(rng, 12, 0.9)
            draws.append((seq, float(rng.uniform(0.0, 1.0))))
        ns, rows = _window_rows([seq for seq, _ in draws])
        ts = np.array([[t] for _, t in draws])
        a, b = _fold_rows(rows, lambda k: _phases(ns[k], ts), 1)
        for (seq, t), a_r, b_r in zip(draws, a[:, 0].tolist(), b[:, 0].tolist()):
            asq = abs(a_r) ** 2
            det_rel = abs(asq - abs(b_r) ** 2 - 1.0) / asq
            mod_a = math.sqrt(asq)
            rep.n_checked += 1
            if (rep.check("det_rel", det_rel, 1e-10)  # "|", not "or": both record
                    | rep.check("abs_a_min", mod_a, 1.0 - 1e-12, smaller_is_worse=True)):
                rep.fail(F=seq.to_json_dict(), t=t, det_rel=det_rel, abs_a=mod_a)
    return rep


def parseval_suite(
    n_draws: int = 100,
    seed: int = DEFAULT_SEED,
    cfg: QuadratureConfig | None = None,
) -> SuiteReport:
    """Zero residual of the conservation law, fixture first then draws.

    Fixture F0 = F1 = 1/2: both sides equal 2 log(4/3), residual <= 1e-10.
    Random draws (sup norm <= 0.9, window <= 10): |residual| <= 1e-9.  The
    draws are made ``_DRAW_CHUNK`` at a time and refined in blocks
    (``parseval_residuals``), each with the bits of its own refinement.  Two
    levels can agree on a wrong value, so a draw over the gate is refined
    again from 4x the grid that decided it; a converged re-check under the
    gate reverses the failure, with both residuals in the notes.
    """
    cfg = cfg or QuadratureConfig()
    rng = np.random.default_rng(seed)
    rep = SuiteReport("parseval", seed)

    fixture = CoefficientSequence(0, (0.5, 0.5))
    res, detail = parseval_residual(fixture, cfg)
    rep.n_checked += 1
    both = 2.0 * math.log(4.0 / 3.0)
    rep.notes.append(f"fixture both sides = {both!r}, residual = {res!r}")
    if (rep.check("fixture_residual", abs(res), 1e-10, detail.converged)
            or judge(abs(detail.value - both), 1e-10) == "violated"):
        rep.fail(F=fixture.to_json_dict(), residual=res)

    for start in range(0, n_draws, _DRAW_CHUNK):
        draws = [(i, random_window_sequence(rng, 10, 0.9))
                 for i in range(start, min(start + _DRAW_CHUNK, n_draws))]
        draws = [(i, seq) for i, seq in draws if not seq.is_zero()]
        residuals = parseval_residuals([seq for _, seq in draws], cfg)
        for (i, seq), (res, detail) in zip(draws, residuals):
            if judge(abs(res), 1e-9) == "violated":
                grid = min(4 * detail.grid_used, 1 << cfg.max_grid.bit_length() - 1)
                again, recheck = parseval_residual(
                    seq, QuadratureConfig(grid, cfg.max_grid, cfg.rel_tol))
                if judge(abs(again), 1e-9, recheck.converged) == "holds":
                    rep.notes.append(f"draw {i}: residual {res!r} (grid_used "
                                     f"{detail.grid_used}) re-checked from grid {grid}: "
                                     f"{again!r}")
                    res, detail = again, recheck
            rep.n_checked += 1
            if rep.check("abs_residual", abs(res), 1e-9, detail.converged):
                rep.fail(F=seq.to_json_dict(), residual=res)
    return rep


def frequency_support_suite(
    n_draws: int = 100, seed: int = DEFAULT_SEED
) -> SuiteReport:
    """Band structure of a and b: b lives in [N_min, N_max], a in
    [-(N_max - N_min), 0], out-of-band mass below 1e-9 of the peak.

    The draws are made ``_DRAW_CHUNK`` at a time, and the draws of a chunk
    that share a band-check grid are folded on it as one ``_fold_rows``
    batch, on their indices (``_window_rows``); |a| and |b| are those of each
    draw's own product bit for bit.
    """
    rng = np.random.default_rng(seed)
    rep = SuiteReport("frequency-support", seed)
    for start in range(0, n_draws, _DRAW_CHUNK):
        draws = [random_window_sequence(rng, 12, 0.9)
                 for _ in range(min(_DRAW_CHUNK, n_draws - start))]
        draws = [seq for seq in draws if not seq.is_zero()]
        groups: dict[int, list] = {}
        for i, seq in enumerate(draws):
            n_min, n_max = seq.support()
            grid = 1 << max(6, (4 * (n_max - n_min + 1) + 2 * max(abs(n_min), abs(n_max))
                                + 2).bit_length())
            groups.setdefault(grid, []).append(i)
        folds = {}
        for grid, members in groups.items():
            ns, rows = _window_rows([draws[i] for i in members])
            a, b = _fold_rows(rows, lambda k: _grid_phases(ns[k], grid), grid)
            folds.update(zip(members, zip(a, b)))
        for i, seq in enumerate(draws):
            (a, b), (n_min, n_max) = folds[i], seq.support()
            band_b = frequency_support(b, claimed_bandwidth=max(abs(n_min), abs(n_max)))
            band_a = frequency_support(a, claimed_bandwidth=n_max - n_min + 1)
            rep.n_checked += 1
            ok_b = band_b is not None and band_b[0] >= n_min and band_b[1] <= n_max
            ok_a = band_a is not None and band_a[0] >= -(n_max - n_min) and band_a[1] <= 0
            if not (ok_a and ok_b):
                rep.fail(F=seq.to_json_dict(), band_a=band_a, band_b=band_b,
                         expected_b=(n_min, n_max))
    return rep


def spike_equality_suite(
    seed: int = DEFAULT_SEED, cfg: QuadratureConfig | None = None
) -> SuiteReport:
    """Single spikes give ratio exactly 1 for every exponent (to 1e-12)."""
    cfg = cfg or QuadratureConfig()
    rng = np.random.default_rng(seed)
    rep = SuiteReport("spike-equality", seed)
    for mag in (0.4, float(rng.uniform(0.05, 0.9)), 0.85):
        idx = int(rng.integers(-5, 6))
        spike = CoefficientSequence(idx, (mag,))
        for p in (1.1, 1.5, 1.9):
            r = hy_ratio(spike, ExponentPair(p), cfg)
            rep.n_checked += 1
            if rep.check("abs_ratio_minus_1", abs(r.ratio - 1.0), 1e-12, r.lhs.converged):
                rep.fail(F=spike.to_json_dict(), p=p, ratio=r.ratio)
    return rep


def _check_ledger(rep: SuiteReport, seq, p, asserted, entries):
    """Gate the links ``asserted``; a failed precondition's NaN is violated."""
    for entry in entries:
        if entry.check_id in asserted and rep.check(
                f"{entry.check_id}_margin_rel", entry.margin_rel, -DEFAULT_MARGIN_TOL,
                entry.converged, True):
            rep.fail(F=seq.to_json_dict(), p=p, check=entry.check_id,
                     margin=entry.margin, kind="ledger")


def theorem1_suite(
    n_draws: int = 1000,
    seed: int = DEFAULT_SEED,
    t_samples: int = LEDGER_T_SAMPLES,
    with_ledger: bool = True,
) -> SuiteReport:
    """Small-sequence bound, uniform corollary, and ledger links L1-L7.

    Draws have l1 norm <= 1/2; for every exponent in THEOREM1_PS the
    relative margin must stay above -1e-9 and the ratio below 5/2 + 1e-9.
    The ledger runs with PLACEHOLDER_CC; its entries L8/L9 are evaluated but
    not asserted here.

    The draws are made ``_SEQ_BLOCK`` at a time, one sampler each, and the
    torus norms the checks read (the weight, and with the ledger ``|b|`` and
    the ledger rows) are refined at the five ``q`` first, by one
    ``_refine_norms`` call that is one ``_refine`` per first level, each
    draw's with the bits of its own refinement.  The checks then run draw by
    draw and find every norm memoized.  Each draw's levels are still
    sampled by its own sampler: the bench tracer counts factor steps in
    ``product_on_grid_arrays`` only, so folding the block's draws as one
    ``_fold_rows`` batch waits for counters it can read (ROADMAP items 6
    and 8).
    """
    cfg = QuadratureConfig()
    rng = np.random.default_rng(seed)
    rep = SuiteReport("theorem1", seed)
    asserted = {f"L{i}" for i in range(1, 8)}
    qs = tuple(ExponentPair(p).q for p in THEOREM1_PS)
    for start in range(0, n_draws, _SEQ_BLOCK):
        draws = [random_window_sequence(rng, 12, 0.9, l1_target=float(rng.uniform(0.0, 0.5)))
                 for _ in range(min(_SEQ_BLOCK, n_draws - start))]
        samplers = [WeightSampler(seq) for seq in draws if not seq.is_zero()]
        levels = [(s, s.on_grid) for s in samplers]
        if with_ledger:
            levels += [(s, level) for s in samplers
                       for level in (s.b_abs_on_grid, _trace_grids(s).level)]
        _refine_norms(levels, qs, cfg)
        for sampler in samplers:
            seq = sampler.seq
            for p in THEOREM1_PS:
                e = ExponentPair(p)
                report = theorem1_margin(seq, e, cfg, sampler=sampler)
                rep.n_checked += 1
                conv = report.lhs.converged
                if rep.check("margin_rel", report.margin_rel, -1e-9, conv, True):
                    rep.fail(F=seq.to_json_dict(), p=p, margin_rel=report.margin_rel,
                             kind="theorem1")
                if rep.check("ratio_max", report.ratio, 2.5 + 1e-9, conv):
                    rep.fail(F=seq.to_json_dict(), p=p, ratio=report.ratio,
                             kind="corollary-5/2")
                if with_ledger:
                    _check_ledger(rep, seq, p, asserted, proof_ledger(
                        seq, e, PLACEHOLDER_CC, cfg, t_samples=t_samples, sampler=sampler))
    if with_ledger:
        rep.notes.append(f"ledger {PLACEHOLDER_CC.label()}")
    return rep


def theorem2_suite(
    n_draws: int = 200, seed: int = DEFAULT_SEED, cc: CCParameters = PLACEHOLDER_CC
) -> SuiteReport:
    """Sharp constant under the spread condition: margin and refined margin
    nonnegative at 1e-9 relative, ledger links L8/L9 holding per draw."""
    cfg = QuadratureConfig()
    rng = np.random.default_rng(seed)
    rep = SuiteReport("theorem2", seed)
    for i in range(n_draws):
        p = THEOREM2_PS[i % len(THEOREM2_PS)]
        e = ExponentPair(p)
        seq = condition9_draw(rng, p, cc)
        sampler = WeightSampler(seq)
        cond = condition_check(seq, e, cc, sampler)
        if not cond.holds:
            rep.fail(F=seq.to_json_dict(), p=p, kind="construction",
                     margin=cond.margin)
            continue
        report = theorem2_margin(seq, e, cc, cfg, sampler=sampler)
        rep.n_checked += 1
        rel = report.margin_rel
        rel_refined = report.refined_margin / max(report.rhs, _TINY)
        conv = report.lhs.converged
        if (rep.check("margin_rel", rel, -1e-9, conv, True)  # "|": both record
                | rep.check("refined_margin_rel", rel_refined, -1e-9, conv, True)):
            rep.fail(F=seq.to_json_dict(), p=p, margin_rel=rel,
                     refined_rel=rel_refined, kind="theorem2")
        _check_ledger(rep, seq, p, ("L8", "L9"),
                      proof_ledger(seq, e, cc, cfg, sampler=sampler))
    rep.notes.append(f"construction: p in {THEOREM2_PS}, window in "
                     f"{THEOREM2_WINDOW}, l1 fraction in {THEOREM2_L1_FRACTION}, "
                     f"{cc.label()}")
    return rep


def endpoint_suite(n_draws: int = 25, seed: int = DEFAULT_SEED) -> SuiteReport:
    """Reference identities at the exponent endpoints.

    p = 2 reduces to the conservation law (ratio 1 within quadrature
    tolerance); p = 1 / q = inf uses the sampled maximum, a lower bound of
    the supremum, so a pass of ratio <= 1 + 1e-9 there is not certified.
    """
    cfg = QuadratureConfig()
    sup_cfg = QuadratureConfig(initial_grid=4096, max_grid=2**20, rel_tol=1e-8)
    rng = np.random.default_rng(seed)
    rep = SuiteReport("endpoints", seed)
    for _ in range(n_draws):
        seq = random_window_sequence(rng, 8, 0.8)
        if seq.is_zero():
            continue
        r2 = hy_ratio(seq, ExponentPair(2.0), cfg)
        rep.n_checked += 1
        if rep.check("p2_abs_ratio_minus_1", abs(r2.ratio - 1.0), 1e-9, r2.lhs.converged):
            rep.fail(F=seq.to_json_dict(), p=2.0, ratio=r2.ratio)
        r1 = hy_ratio(seq, ExponentPair(1.0), sup_cfg)
        rep.n_checked += 1
        if rep.check("p1_ratio_max", r1.ratio, 1.0 + 1e-9, r1.lhs.converged):
            rep.fail(F=seq.to_json_dict(), p=1.0, ratio=r1.ratio)
    return rep


def reversed_order_product(seq: CoefficientSequence, t: float) -> tuple[complex, complex]:
    """(a, b) with the factors multiplied in decreasing n, for order tests.

    By the reversal symmetry (see ``order_sensitivity_suite``) this equals
    (conj(a), b) of the product in increasing n.
    """
    a, b = _fold(reversed(seq.window_entries()), lambda n: _phases(n, t), ())
    return complex(a), complex(b)


def order_sensitivity_suite(seed: int = DEFAULT_SEED) -> SuiteReport:
    """Multiplication order matters, pinned three ways.

    The two-term closed form puts a's oscillation at frequency -1, which a
    reversed order would flip; swapping two adjacent noncommuting factors
    changes b outright; and the exact reversal symmetry is confirmed: since
    every factor M satisfies M = J M^T J for the antidiagonal flip J, full
    reversal maps (a, b) to (conj(a), b), so it conjugates a and can never
    change b.
    """
    rng = np.random.default_rng(seed)
    rep = SuiteReport("order-sensitivity", seed)

    # two-term pin: a(t) = A^2 + |B|^2 e^{-2 pi i t} for F0 = F1 = 1/2
    two = CoefficientSequence(0, (0.5, 0.5))
    t = float(rng.uniform(0.05, 0.45))
    a_fwd, _ = product_on_grid_arrays(two, np.array([t]))
    closed = 4.0 / 3.0 + (1.0 / 3.0) * np.exp(-2j * np.pi * t)
    a_rev, _ = reversed_order_product(two, t)
    rep.n_checked += 1
    if rep.check("closed_form_err", abs(complex(a_fwd[0]) - closed), 1e-12):
        rep.fail(note="two-term closed form violated", t=t, a=complex(a_fwd[0]))
    if judge(abs(a_rev - np.conj(closed)), 1e-12) == "violated":
        rep.fail(note="reversal did not conjugate a", t=t, a_rev=a_rev)

    # three noncommuting factors: swapping the first two changes b
    vals = tuple(
        complex(m * np.exp(1j * ph))
        for m, ph in zip(rng.uniform(0.2, 0.6, 3), rng.uniform(0, 2 * np.pi, 3))
    )
    three = CoefficientSequence(0, vals)
    a3, b3 = product_on_grid_arrays(three, np.array([t]))
    b_swap = _adjacent_swap_product(vals, t)
    rep.n_checked += 1
    # one value per report: its least is its largest
    if rep.check("b_swap_diff", abs(complex(b3[0]) - b_swap), 1e-6, smaller_is_worse=True):
        rep.fail(note="adjacent factor swap did not change b", t=t)

    # reversal symmetry: b invariant, a conjugated
    ar, br = reversed_order_product(three, t)
    rep.n_checked += 1
    sym_err = max(abs(br - complex(b3[0])), abs(ar - np.conj(complex(a3[0]))))
    if rep.check("reversal_symmetry_err", sym_err, 1e-12):
        rep.fail(note="reversal symmetry violated", t=t, err=sym_err)
    return rep


def _adjacent_swap_product(vals, t: float) -> complex:
    """b of the product with the first two factor matrices transposed in
    order (their indices, hence phases, kept with their coefficients)."""
    order = [1, 0] + list(range(2, len(vals)))
    _, b = _fold([(n, vals[n]) for n in order], lambda n: _phases(n, t), ())
    return complex(b)


def linearization_suite(seed: int = DEFAULT_SEED) -> SuiteReport:
    """Deviation between b and the linear transform vanishes faster than
    quadratically along shrinking inputs (fitted slope >= 1.9).

    A random draw whose deviations all sit below the noise floor (a single
    tiny entry, say) has no slope to fit; it is skipped, not checked, and
    the count of such draws goes into the notes.
    """
    rng = np.random.default_rng(seed)
    rep = SuiteReport("linearization", seed)

    fixture = CoefficientSequence(0, (0.5, 0.5))
    probe = quadratic_error_probe(fixture, PROBE_SCALES)
    rep.n_checked += 1
    if rep.check("fixture_slope", probe.slope, 2.0 - 0.1, smaller_is_worse=True):
        rep.fail(F=fixture.to_json_dict(), slope=probe.slope)

    degenerate = 0
    for _ in range(5):
        seq = random_window_sequence(rng, 6, 0.6)
        if seq.is_zero():
            continue
        try:
            probe = quadratic_error_probe(seq, PROBE_SCALES)
        except DegenerateFitError:
            degenerate += 1
            continue
        rep.n_checked += 1
        if rep.check("random_slope_min", probe.slope, 1.9, smaller_is_worse=True):
            rep.fail(F=seq.to_json_dict(), slope=probe.slope)
    if degenerate:
        rep.notes.append(f"degenerate draws skipped: {degenerate}")
    return rep
