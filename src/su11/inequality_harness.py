"""Two-sided evaluation of the Hausdorff-Young family of inequalities.

Every check reports a signed margin (nonnegative means the inequality held)
in absolute and rhs-relative form, together with the quadrature that
produced the torus side.  The nine-entry proof ledger walks the full
estimate chain behind the small-sequence bound and the sharp-constant
criterion on one concrete input, recording per-entry hypothesis failures
instead of aborting, so a single run documents exactly which hypotheses an
input meets.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import (
    DegenerateFitError,
    PreconditionFailed,
    ZeroSequenceError,
)
from .nft_core import (
    CoefficientSequence,
    linear_fourier_on_grid,
    product_on_grid_arrays,
    _grid_phases,
)
from .spectral_norms import (
    ExponentPair,
    NormResult,
    QuadratureConfig,
    WeightSampler,
    _TINY,
    _refined_level,
    lp_sequence_norm,
)

# Relative margin below which a check is violated; callers fold it into a bound.
DEFAULT_MARGIN_TOL = 1e-9
# Points of the uniform grid on which the linearization probe takes its max.
_PROBE_GRID = 512
# Default scales of the linearization probe (the canonical octave ladder).
PROBE_SCALES = (0.1, 0.05, 0.025, 0.0125)
# Uniform points of t at which the proof ledger checks link L3.
LEDGER_T_SAMPLES = 16

CSV_HEADER = "check_id,p,q,lhs,rhs,ratio,bound,margin,converged,context"


def judge(value, bound, converged=True, smaller_is_worse=False) -> str:
    """Verdict of one gate: "violated" when ``value`` is past ``bound`` (below it if
    smaller is worse) or NaN, converged or not; else "holds", or "unresolved" unconverged."""
    inside = value >= bound if smaller_is_worse else value <= bound
    return "holds" if inside and converged else "unresolved" if inside else "violated"


@dataclass(frozen=True)
class CCParameters:
    """Constants (c, gamma, eta) of the sharpened linear Hausdorff-Young
    bound for sequences far from single-spike extremizers.

    No explicit admissible values are known; (1, 1, 1) is the documented
    placeholder used by the verification suites, and every report echoes the
    triple it was computed with.
    """

    c: float
    gamma: float
    eta: float

    def __post_init__(self):
        for name in ("c", "gamma", "eta"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (self.c > 0 and self.gamma > 0 and self.eta > 0):
            raise ValueError("c, gamma, eta must all be positive")
        if self.eta > 1:
            raise ValueError("eta must lie in (0, 1]")

    def label(self) -> str:
        return f"cc=({self.c!r},{self.gamma!r},{self.eta!r})"


@dataclass(frozen=True)
class HyReport:
    """One inequality evaluation: both sides, their ratio, and margins."""

    exponents: ExponentPair
    lhs: NormResult
    rhs: float
    ratio: float
    bound_label: str
    bound: float | None = None
    margin: float | None = None
    margin_rel: float | None = None
    corollary_margin: float | None = None
    refined_margin: float | None = None
    cc: CCParameters | None = None
    context: str = ""

    def to_dict(self) -> dict:
        d = {
            "p": self.exponents.p,
            "q": self.exponents.q,
            "lhs": self.lhs.to_dict(),
            "rhs": self.rhs,
            "ratio": self.ratio,
            "bound_label": self.bound_label,
            "bound": self.bound,
            "margin": self.margin,
            "margin_rel": self.margin_rel,
            "context": self.context,
        }
        if self.corollary_margin is not None:
            d["corollary_margin"] = self.corollary_margin
        if self.refined_margin is not None:
            d["refined_margin"] = self.refined_margin
        if self.cc is not None:
            d["cc"] = [self.cc.c, self.cc.gamma, self.cc.eta]
        return d

    def to_csv_row(self) -> str:
        return _csv_row(
            self.bound_label,
            self.exponents.p,
            self.exponents.q,
            self.lhs.value,
            self.rhs,
            self.ratio,
            self.bound,
            self.margin,
            self.lhs.converged,
            self.context,
        )


@dataclass(frozen=True)
class LedgerEntry:
    """One link of the estimate chain, evaluated on a concrete input."""

    check_id: str
    holds: bool
    margin: float
    context: str = ""
    margin_rel: float = math.nan
    lhs: float | None = None
    rhs: float | None = None
    converged: bool = True
    precondition_failed: bool = False

    def to_dict(self) -> dict:
        return asdict(self)

    def to_csv_row(self) -> str:
        context = self.context
        if self.precondition_failed:
            context = ("precondition-failed; " + context).rstrip("; ")
        return _csv_row(
            self.check_id,
            None,
            None,
            self.lhs,
            self.rhs,
            None,
            None,
            self.margin,
            self.converged,
            context,
        )


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float) and math.isnan(x):
        return ""
    return repr(x) if isinstance(x, float) else str(x)


def _csv_row(*cells) -> str:
    out = []
    for c in cells:
        s = _fmt(c)
        if "," in s or '"' in s:
            s = '"' + s.replace('"', '""') + '"'
        out.append(s)
    return ",".join(out)


# ---------------------------------------------------------------------------
# scalar helpers


def _l1(seq: CoefficientSequence) -> float:
    return float(np.sum(seq.moduli()))


def _require_nonzero(seq: CoefficientSequence):
    if seq.is_zero():
        raise ZeroSequenceError("the zero sequence has no ratio")


def _sampler_for(seq: CoefficientSequence, sampler: WeightSampler | None) -> WeightSampler:
    """``sampler``, checked to belong to ``seq``, or a new one for ``seq``:
    another sequence's samples would give its norms."""
    if sampler is None:
        return WeightSampler(seq)
    if sampler.seq != seq:
        raise ValueError("the sampler was built for another sequence")
    return sampler


# ---------------------------------------------------------------------------
# core reports


def hy_ratio(
    seq: CoefficientSequence,
    exponents: ExponentPair,
    cfg: QuadratureConfig,
    sampler: WeightSampler | None = None,
) -> HyReport:
    """Empirical constant lhs/rhs of the nonlinear Hausdorff-Young inequality.

    lhs is the torus L^q norm of (log|a|^2)^(1/2), rhs the sequence l^p
    norm of (log A_n^2)^(1/2).  Single-spike sequences give ratio 1 exactly.
    """
    _require_nonzero(seq)
    sampler = _sampler_for(seq, sampler)
    lhs = sampler.norm(sampler.on_grid, exponents.q, cfg)
    rhs = sampler.lp("weights", exponents.p)
    return HyReport(
        exponents=exponents,
        lhs=lhs,
        rhs=rhs,
        ratio=lhs.value / rhs,
        bound_label="ratio",
    )


def theorem1_margin(
    seq: CoefficientSequence,
    exponents: ExponentPair,
    cfg: QuadratureConfig,
    sampler: WeightSampler | None = None,
) -> HyReport:
    """Small-sequence bound lhs <= (1 + 3 l1) rhs, valid for l1 <= 1/2.

    Also reports the margin against the uniform-in-p corollary constant 5/2.
    """
    _require_nonzero(seq)
    sampler = _sampler_for(seq, sampler)
    l1 = sampler.l1
    if l1 > 0.5:
        raise PreconditionFailed(f"l1 norm {l1!r} exceeds 1/2")
    base = hy_ratio(seq, exponents, cfg, sampler=sampler)
    bound = 1.0 + 3.0 * l1
    margin = bound * base.rhs - base.lhs.value
    return replace(
        base,
        bound_label="1+3*l1",
        bound=bound,
        margin=margin,
        margin_rel=margin / max(base.rhs, _TINY),
        corollary_margin=2.5 * base.rhs - base.lhs.value,
        context=f"l1={l1!r}",
    )


def alpha_delta(cc: CCParameters) -> tuple[float, float]:
    """(alpha, delta) derived from the (c, gamma, eta) triple:

    alpha = max(1, gamma),
    delta = min(1/6, c eta^gamma / 3, (3 + (3/c)^(1/gamma))^(-alpha)).

    delta never exceeds 1/6.
    """
    alpha = max(1.0, cc.gamma)
    delta = min(
        1.0 / 6.0,
        cc.c * cc.eta**cc.gamma / 3.0,
        (3.0 + (3.0 / cc.c) ** (1.0 / cc.gamma)) ** (-alpha),
    )
    return alpha, delta


@dataclass(frozen=True)
class ConditionCheck:
    """Outcome of the smallness-vs-spread condition l1 <= delta (1 - r)^alpha
    with r = linf/lp; margin = rhs - l1."""

    holds: bool
    margin: float
    l1: float
    rhs: float
    alpha: float
    delta: float


def condition_check(
    seq: CoefficientSequence,
    exponents: ExponentPair,
    cc: CCParameters,
    sampler: WeightSampler | None = None,
) -> ConditionCheck:
    """Check whether the sequence is small and spread enough for the sharp
    constant: single spikes always fail (the right-hand side vanishes).
    ``sampler`` (built for ``seq``, else ValueError) supplies the moduli."""
    _require_nonzero(seq)
    alpha, delta = alpha_delta(cc)
    sampler = _sampler_for(seq, sampler)
    l1 = sampler.l1
    ratio = sampler.lp("mods", math.inf) / sampler.lp("mods", exponents.p)
    rhs = delta * (1.0 - ratio) ** alpha
    margin = rhs - l1
    return ConditionCheck(margin >= 0.0, margin, l1, rhs, alpha, delta)


def theorem2_margin(
    seq: CoefficientSequence,
    exponents: ExponentPair,
    cc: CCParameters,
    cfg: QuadratureConfig,
    sampler: WeightSampler | None = None,
) -> HyReport:
    """Sharp-constant bound lhs <= rhs under the smallness-vs-spread
    condition, plus the refined margin against (1 - 9 l1^2) rhs."""
    _require_nonzero(seq)
    sampler = _sampler_for(seq, sampler)
    cond = condition_check(seq, exponents, cc, sampler)
    if not cond.holds:
        raise PreconditionFailed(
            f"condition margin {cond.margin!r} < 0 ({cc.label()})"
        )
    base = hy_ratio(seq, exponents, cfg, sampler=sampler)
    margin = base.rhs - base.lhs.value
    refined_factor = 1.0 - 9.0 * cond.l1**2
    return replace(
        base,
        bound_label="sharp-1",
        bound=1.0,
        margin=margin,
        margin_rel=margin / max(base.rhs, _TINY),
        refined_margin=refined_factor * base.rhs - base.lhs.value,
        cc=cc,
        context=f"l1={cond.l1!r}; refined_factor={refined_factor!r}",
    )


# ---------------------------------------------------------------------------
# proof ledger


_RED, _LIN = 0, 1  # leading index of a _TraceGrids level


class _TraceGrids:
    """Uniform-grid samples feeding the ledger's row norms.

    A level of M points is one (2, rows, M) array from running the
    recurrences vectorized over t, with one row per distinct truncation: the
    empty one, then one per nonzero entry (a zero entry's factor is the
    identity, so it repeats the row before it).  Row ``k = row_of[i]`` of
    the window's truncation through N = N_min - 1 + i holds

      level[_RED][k] = |ra_N(t)| + |rb_N(t)|   (reduced pair moduli)
      level[_LIN][k] = |sum_{n <= N} F_n e^{2 pi i n t}|

    The levels do not depend on the exponent: one instance lives on the
    sequence's WeightSampler and serves the ledger at every p, and a level
    of 2M points is built from the cached M-point level (see
    ``_refined_level``).  Past the first doubling ``level(M, rows)`` builds
    the flat rows ``rows`` of the (2, rows) block alone, the ones
    ``_refine`` still has open, at the level's odd points and uncached, each
    by the arithmetic of the whole level.  Nor does link L3 depend on the
    exponent, kept per ``t_samples`` in ``l3``; its level is every s-th
    point of a cached level ``s * t_samples``, the row norms' first levels,
    when there is one.
    """

    def __init__(self, seq: CoefficientSequence):
        window = seq.window_entries()
        self.entries = [(n, v) for n, v in window if v != 0]
        self.row_of = np.cumsum([0] + [v != 0 for _, v in window])
        self._cache: dict[int, np.ndarray] = {}  # see _refined_level
        self.l3: dict[int, LedgerEntry] = {}

    def level(self, grid_size: int, rows: list | None = None) -> np.ndarray:
        return _refined_level(self._cache, grid_size, self._rows, rows)

    def _rows(self, ts: np.ndarray, grid: tuple[int, bool],
              rows: list | None = None) -> np.ndarray:
        """The flat rows ``rows`` of the (2, rows) level (None: all of it,
        in that shape) at the points ``ts`` of the grid level
        ``grid = (M, odd)``, whose phases are gathered (``_grid_phases``).

        The recurrence runs only through the deepest requested row, and
        ``lin`` only through the deepest requested ``_LIN`` row.  The reduced
        step is ``ra + rb conj(v) conj(e)`` and ``(rb + v e) + ra v e``, with
        ``v e`` shared with ``lin``; every product and sum is written into
        preallocated arrays in that order, so the rows carry the bits of the
        plain expressions."""
        size = len(self.entries) + 1
        if rows is None:
            out = np.zeros((2, size, ts.size))
            rows = range(2 * size)
        else:
            out = np.zeros((len(rows), ts.size))
        flat = out.reshape(-1, ts.size)
        red_at, lin_at = {}, {}  # step k -> its row of ``flat``
        for i, r in enumerate(rows):
            side, k = divmod(r, size)
            (lin_at if side == _LIN else red_at)[k] = i
        depth, lin_depth = max(red_at | lin_at, default=0), max(lin_at, default=0)
        ra, rb, lin, ve, ce, t1, t2 = np.zeros((7, ts.size), dtype=complex)
        mod = np.empty(ts.size)
        for k, (n, v) in enumerate(self.entries[:depth], start=1):
            e = _grid_phases(n, *grid)
            np.multiply(v, e, out=ve)
            np.multiply(rb, np.conj(v), out=t1)
            np.multiply(t1, np.conjugate(e, out=ce), out=t1)  # rb conj(v) conj(e)
            np.multiply(ra, v, out=t2)
            np.multiply(t2, e, out=t2)  # ra v e, from the old ra
            np.add(ra, t1, out=ra)
            np.add(rb, ve, out=rb)
            np.add(rb, t2, out=rb)
            if k <= lin_depth:
                np.add(lin, ve, out=lin)
            if k in red_at:
                red = flat[red_at[k]]
                np.abs(ra, out=red)
                red += np.abs(rb, out=mod)
            if k in lin_at:
                np.abs(lin, out=flat[lin_at[k]])
        return out


def _trace_grids(sampler: WeightSampler) -> _TraceGrids:
    """The ledger's row levels of ``sampler``'s sequence, kept on it."""
    if sampler.trace_grids is None:
        sampler.trace_grids = _TraceGrids(sampler.seq)
    return sampler.trace_grids


def _entry(check_id, lhs, rhs, scale, context="", converged=True) -> LedgerEntry:
    margin = rhs - lhs
    rel = margin / max(abs(scale), _TINY)
    return LedgerEntry(
        check_id=check_id,
        holds=judge(rel, -DEFAULT_MARGIN_TOL, converged, True) != "violated",
        margin=margin,
        margin_rel=rel,
        lhs=lhs,
        rhs=rhs,
        converged=converged,
        context=context,
    )


def _skipped(check_id, reason) -> LedgerEntry:
    return LedgerEntry(
        check_id=check_id,
        holds=False,
        margin=math.nan,
        margin_rel=math.nan,
        precondition_failed=True,
        context=reason,
    )


def proof_ledger(
    seq: CoefficientSequence,
    exponents: ExponentPair,
    cc: CCParameters,
    cfg: QuadratureConfig,
    t_samples: int = LEDGER_T_SAMPLES,
    sampler: WeightSampler | None = None,
) -> list[LedgerEntry]:
    """Evaluate the nine-link estimate chain on one input.

    L1  sequence lp norm is dominated by the weight lp norm
    L2  running product of A_n vs (1 - l1^2)^(-1/2), and vs 1 + l1^2 when
        l1 <= 1/2
    L3  pointwise crucial iteration at t_samples uniform points, all N
    L4  bootstrapped L^q inequality for the reduced rows, all N
    L5  induction bound ||row_N||_q <= ||F||_p / (1 - l1), all N
    L6  weight norm <= ||b||_q <= (prod A) ||F||_p / (1 - l1)
    L7  weight norm <= (1 + 3 l1) sup_N of the truncated-transform norms
    L8  every truncated-transform norm <= (1 - 3 l1) ||F||_p, with the
        case split per truncation recorded (requires the spread condition)
    L9  scalar comparison 3 l1 + (3 l1 / c)^(1/gamma) <= (l1/delta)^(1/alpha)
        (requires the spread condition)

    An entry holds when ``judge`` finds its rhs-relative margin at least
    -DEFAULT_MARGIN_TOL.  Hypothesis failures are recorded per entry, never
    raised.  ``sampler`` (built for ``seq``, else ValueError) lets the
    ledgers at several exponents and the theorem margins share one set of
    grid samples and norms: the weight norm is the margin's, and the rows
    and ``|b|`` are refined once per exponent, or at several at once by one
    ``spectral_norms._refine_norms`` call made first (``theorem1_suite``).
    """
    if t_samples < 1:
        raise ValueError(f"t_samples must be >= 1, got {t_samples!r}")
    _require_nonzero(seq)
    p, q = exponents.p, exponents.q
    sampler = _sampler_for(seq, sampler)
    mods, l1 = sampler.mods, sampler.l1
    lp_f = sampler.lp("mods", p)
    lp_w = sampler.lp("weights", p)
    prod_a = math.exp(0.5 * float(sum(sampler.log_a_sq)))
    grids = _trace_grids(sampler)
    row_of = grids.row_of  # truncations N_min-1 .. N_max -> their rows
    n_rows = len(row_of)
    n_first = seq.support()[0] - 1

    out: list[LedgerEntry] = []

    # L1
    out.append(_entry("L1", lp_f, lp_w, lp_w))

    # L2
    if l1 >= 1.0:
        out.append(_skipped("L2", f"l1={l1!r} >= 1"))
    else:
        # For l1 <= 1/2 the bound 1 + l1^2 is the tighter of the two, so
        # checking it also certifies (1 - l1^2)^(-1/2).
        if l1 <= 0.5:
            rhs2, context = 1.0 + l1 * l1, "bound=1+l1^2 (implies the other)"
        else:
            rhs2, context = (1.0 - l1 * l1) ** -0.5, "bound=(1-l1^2)^(-1/2)"
        out.append(_entry("L2", prod_a, rhs2, max(rhs2, 1.0), context))

    # Row norms: every row of both sides refined as one block, first, so
    # that L3 finds its level in the rows' cache
    row_norms = sampler.norm(grids.level, q, cfg)
    conv = row_norms.converged
    # each side indexed on its own: a contiguous copy keeps the dots on BLAS
    red_vals, lin_vals = (side[row_of] for side in row_norms.value)

    # L3: pointwise at t_samples uniform points; the same at every p
    if t_samples not in grids.l3:
        red, lin = (side[row_of] for side in grids.level(t_samples))
        bind3 = None
        scale3 = 1.0
        for k in range(1, n_rows):
            # rows 0..k-1 pair with |F| of entries 0..k-1
            rhs_row = mods[:k] @ red[:k] + lin[k]
            scale3 = max(scale3, float(rhs_row.max(initial=0.0)))
            diff = rhs_row - red[k]
            j = int(np.argmin(diff))
            if bind3 is None or diff[j] < bind3[0]:
                bind3 = (float(diff[j]), float(red[k][j]), float(rhs_row[j]),
                         f"N={n_first + k}, t={j}/{t_samples}")
        grids.l3[t_samples] = _entry(
            "L3",
            bind3[1],
            bind3[2],
            scale3,
            context=f"binding at {bind3[3]}; {t_samples} t-points",
        )
    out.append(grids.l3[t_samples])

    # L4: bootstrap in norm, every N
    bind4 = None
    for k in range(1, n_rows):
        rhs4 = float(mods[:k] @ red_vals[:k]) + lp_f
        diff = rhs4 - float(red_vals[k])
        if bind4 is None or diff < bind4[0]:
            bind4 = (diff, float(red_vals[k]), rhs4, n_first + k)
    out.append(
        _entry(
            "L4",
            bind4[1],
            bind4[2],
            max(lp_f, 1.0),
            context=f"binding N={bind4[3]}",
            converged=conv,
        )
    )

    # L5: induction bound, every N
    if l1 >= 1.0:
        out.append(_skipped("L5", f"l1={l1!r} >= 1"))
    else:
        cap5 = lp_f / (1.0 - l1)
        j5 = int(np.argmax(red_vals))
        out.append(
            _entry(
                "L5",
                float(red_vals[j5]),
                cap5,
                max(cap5, _TINY),
                context=f"binding N={n_first + j5}",
                converged=conv,
            )
        )

    # L6: weight norm <= ||b||_q <= prod_a ||F||_p / (1 - l1)
    w_norm = sampler.norm(sampler.on_grid, q, cfg)
    if l1 >= 1.0:
        out.append(_skipped("L6", f"l1={l1!r} >= 1"))
    else:
        b_norm = sampler.norm(sampler.b_abs_on_grid, q, cfg)
        cap6 = prod_a * lp_f / (1.0 - l1)
        m_a = b_norm.value - w_norm.value
        m_b = cap6 - b_norm.value
        if m_a <= m_b:
            lhs6, rhs6, side = w_norm.value, b_norm.value, "weight<=||b||"
        else:
            lhs6, rhs6, side = b_norm.value, cap6, "||b||<=cap"
        out.append(
            _entry(
                "L6",
                lhs6,
                rhs6,
                max(cap6, _TINY),
                context=f"binding side: {side}",
                converged=conv and w_norm.converged and b_norm.converged,
            )
        )

    # L7: weight norm <= (1 + 3 l1) sup_N of truncated-transform norms
    sup_lin = float(lin_vals.max())
    if l1 > 0.5:
        out.append(_skipped("L7", f"l1={l1!r} > 1/2"))
    else:
        cap7 = (1.0 + 3.0 * l1) * sup_lin
        out.append(
            _entry(
                "L7",
                w_norm.value,
                cap7,
                max(cap7, _TINY),
                context=f"sup_N at N={n_first + int(np.argmax(lin_vals))}",
                converged=conv and w_norm.converged,
            )
        )

    # L8 / L9 require the smallness-vs-spread condition
    cond = condition_check(seq, exponents, cc, sampler)
    if not cond.holds:
        reason = f"condition fails: margin={cond.margin!r} ({cc.label()})"
        out.append(_skipped("L8", reason))
        out.append(_skipped("L9", reason))
        return out

    # L8: truncated sharpened linear bound, every N, with case split
    cap8 = (1.0 - 3.0 * l1) * lp_f
    cases = []
    for k in range(1, n_rows):
        trunc_lp = lp_sequence_norm(mods[:k], p)
        cases.append("1" if trunc_lp <= cap8 else "2")
    diffs8 = cap8 - lin_vals[1:]
    j8 = int(np.argmin(diffs8))
    case_note = f"cases(1/2)={''.join(cases)}; binding N={n_first + 1 + j8} (case {cases[j8]})"
    out.append(
        _entry(
            "L8",
            float(lin_vals[1 + j8]),
            cap8,
            max(lp_f, _TINY),
            context=case_note,
            converged=conv,
        )
    )

    # L9: scalar comparison behind the case split
    lhs9 = 3.0 * l1 + (3.0 * l1 / cc.c) ** (1.0 / cc.gamma)
    rhs9 = (l1 / cond.delta) ** (1.0 / cond.alpha)
    out.append(_entry("L9", lhs9, rhs9, max(rhs9, _TINY)))
    return out


# ---------------------------------------------------------------------------
# linearization probe


@dataclass(frozen=True)
class ProbeResult:
    """Fitted scaling exponent of the deviation between b and the linear
    transform along a family of shrinking inputs."""

    slope: float
    scales: tuple[float, ...]
    deviations: tuple[float, ...]


def quadratic_error_probe(seq: CoefficientSequence, scales) -> ProbeResult:
    """Slope of log max|b_{eps F} - eps Fhat| against log eps.

    Uses a fixed uniform grid of 512 points for the max.  At least
    three scales spanning a decade are required.  Because b is odd in F the
    deviation scales cubically for generic inputs; anything at or above
    slope 2 - 0.1 is accepted downstream.
    """
    scales = tuple(float(s) for s in scales)
    if len(scales) < 3:
        raise ValueError("need at least 3 scales")
    if not all(0 < s <= 1 for s in scales):
        raise ValueError("scales must lie in (0, 1]")
    # a 5x span keeps the log-log fit conditioned; the canonical octave
    # ladder 0.1 .. 0.0125 spans 8x
    if max(scales) / min(scales) < 5.0 - 1e-12:
        raise ValueError("scales must span at least a factor of 5")
    ts = np.arange(_PROBE_GRID, dtype=float) / _PROBE_GRID
    hat = linear_fourier_on_grid(seq.window_entries(), _PROBE_GRID)
    devs = []
    for s in scales:
        scaled = seq.scaled(s)
        _, b = product_on_grid_arrays(scaled, ts, (_PROBE_GRID, False))
        devs.append(float(np.max(np.abs(b - s * hat))))
    if all(d < 1e-14 for d in devs):
        raise DegenerateFitError("all deviations below 1e-14")
    xs = np.log([s for s, d in zip(scales, devs) if d > 0])
    ys = np.log([d for d in devs if d > 0])
    if xs.size < 2:
        raise DegenerateFitError("fewer than two nonzero deviations")
    slope = float(np.polyfit(xs, ys, 1)[0])
    return ProbeResult(slope, scales, tuple(devs))
