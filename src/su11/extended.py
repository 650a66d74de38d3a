"""Extended-precision re-evaluation of products, norms, and margins.

Binary64 is the baseline everywhere else; the helpers here rerun a given
check in arbitrary-precision arithmetic (>= 30 significant digits) on a
fixed quadrature grid, for margins that sit near rounding noise.  They are
deliberately slow and meant for spot checks, not sweeps.
"""

from __future__ import annotations

from mpmath import mp

from .nft_core import CoefficientSequence

MIN_DPS = 30


def _check_dps(dps: int):
    if dps < MIN_DPS:
        raise ValueError(f"extended mode needs >= {MIN_DPS} digits, got {dps}")


def mp_product(seq: CoefficientSequence, t, dps: int = MIN_DPS):
    """(a(t), b(t)) as mpmath complex numbers."""
    _check_dps(dps)
    with mp.workdps(dps):
        tt = mp.mpf(t)
        a, b = mp.mpc(1), mp.mpc(0)
        for n, v in seq.window_entries():
            if v == 0:
                continue
            fv = mp.mpc(v.real, v.imag)
            big_a = 1 / mp.sqrt(1 - abs(fv) ** 2)
            big_b = fv * big_a
            e = mp.expjpi(2 * mp.frac(n * tt))
            a, b = (
                a * big_a + b * mp.conj(big_b) * mp.conj(e),
                a * big_b * e + b * big_a,
            )
        return a, b


def mp_weight_lq_norm(seq: CoefficientSequence, q, grid_size: int, dps: int = MIN_DPS):
    """Torus L^q norm of the weight by a fixed-grid trapezoid sum."""
    _check_dps(dps)
    with mp.workdps(dps):
        qq = mp.mpf(q)
        total = mp.mpf(0)
        for j in range(grid_size):
            a, _ = mp_product(seq, mp.mpf(j) / grid_size, dps)
            asq = abs(a) ** 2
            if asq > 1:
                total += mp.log(asq) ** (qq / 2)
        return (total / grid_size) ** (1 / qq)


def mp_weight_lp_norm(seq: CoefficientSequence, p, dps: int = MIN_DPS):
    """Sequence l^p norm of (-log(1 - |F_n|^2))^(1/2)."""
    _check_dps(dps)
    with mp.workdps(dps):
        pp = mp.mpf(p)
        total = mp.mpf(0)
        for _, v in seq.window_entries():
            if v == 0:
                continue
            fv = mp.mpc(v.real, v.imag)
            w = mp.sqrt(-mp.log(1 - abs(fv) ** 2))
            total += w**pp
        return total ** (1 / pp)


def mp_hy_margin(
    seq: CoefficientSequence,
    p,
    grid_size: int,
    bound=1,
    dps: int = MIN_DPS,
):
    """bound * rhs - lhs in extended precision on a fixed grid.

    The grid must already resolve the integrand (take the certified grid of
    the binary64 run, doubled); the extended pass removes rounding error,
    not discretization error.
    """
    _check_dps(dps)
    with mp.workdps(dps):
        pp = mp.mpf(p)
        qq = pp / (pp - 1)
        lhs = mp_weight_lq_norm(seq, qq, grid_size, dps)
        rhs = mp_weight_lp_norm(seq, pp, dps)
        return mp.mpf(bound) * rhs - lhs
