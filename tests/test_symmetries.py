"""The symmetries of the nonlinear Fourier transform as oracles.

Each transform below maps a sequence to one whose |a| and |b| are those of
the original up to a measure-preserving map of the torus (T. Tao and
C. Thiele, *Nonlinear Fourier Analysis*, arXiv:1201.5129):

- translation F_n -> F_{n-m} multiplies b by e^{2 pi i m t};
- modulation F_n -> F_n e^{2 pi i n theta} translates t by theta;
- conjugation F_n -> conj(F_n) reflects t;
- rotation F -> c F with |c| = 1 multiplies b by c.

So every certified number is invariant: the ratio and both sides, the
theorem margins, every ledger link, the parseval residual and the walk's
ratios.  The numbers may move by rounding only, 1e-13 relative at most.
A translation by a multiple of ``max_grid`` keeps every phase index on every
level, so it keeps every bit, at any offset; past about 2**40 these
symmetries, not ``mp_product``, are the oracle, since ``n * t`` no longer
fits in its working precision.  L3 samples 16 fixed points, so it is
exempt under modulation; elsewhere only its margin and verdict count, since
it is an identity at the first truncation and reports the sides of
whichever of those exact ties rounding makes smallest.  The draws are
seeded numpy draws, not hypothesis, so that each run checks the same
inputs.
"""

import cmath
import math

import numpy as np
import pytest

from su11 import CoefficientSequence, ExponentPair, QuadratureConfig
from su11.extremizer_search import _WalkEvaluator
from su11.inequality_harness import hy_ratio, proof_ledger, theorem1_margin, theorem2_margin
from su11.spectral_norms import parseval_residual
from su11.verification import PLACEHOLDER_CC, THEOREM2_PS, condition9_draw

from conftest import random_sequence_draw

QUAD = QuadratureConfig()
MAX_GRID = QUAD.max_grid  # 2**20
REL = 1e-13
BIG_SHIFTS = (2**60, 2**62 + 2**20, -2**61, 2**70, 977 * 2**20, -(2**20))


def _translate(seq, m):
    return CoefficientSequence(seq.offset + m, seq.values)


def _modulate(seq, k):
    """F_n -> F_n e^{2 pi i n k / 256}, the phase reduced exactly."""
    return CoefficientSequence(seq.offset, tuple(
        v * cmath.exp(2j * math.pi * ((seq.offset + i) * k % 256) / 256)
        for i, v in enumerate(seq.values)))


def _conjugate(seq):
    return CoefficientSequence(seq.offset, tuple(v.conjugate() for v in seq.values))


def _rotate(seq, phi):
    c = cmath.exp(1j * phi)
    return CoefficientSequence(seq.offset, tuple(c * v for v in seq.values))


def _side(x):
    """A value with its own size as the scale of its rounding."""
    return x, abs(x)


def _certified(seq, p, theorem2=False, l3=True):
    """Every certified number of ``seq`` at ``p``, name -> (value, scale):
    a number may move by ``REL * scale``.  Ints, bools and NaN must match
    exactly."""
    e = ExponentPair(p)
    r = hy_ratio(seq, e, QUAD)
    out = {"lhs": _side(r.lhs.value), "rhs": _side(r.rhs), "ratio": _side(r.ratio),
           "grid_used": (r.lhs.grid_used, 0), "converged": (r.lhs.converged, 0)}
    margin = theorem2_margin(seq, e, PLACEHOLDER_CC, QUAD) if theorem2 else (
        theorem1_margin(seq, e, QUAD))
    for key in ("margin", "corollary_margin", "refined_margin"):
        if getattr(margin, key) is not None:
            out[key] = getattr(margin, key), r.rhs
    for entry in proof_ledger(seq, e, PLACEHOLDER_CC, QUAD):
        if entry.check_id == "L3" and not l3:
            continue
        tag = entry.check_id
        out |= {f"{tag}.margin_rel": (entry.margin_rel, 1.0),
                f"{tag}.holds": (entry.holds, 0), f"{tag}.converged": (entry.converged, 0),
                f"{tag}.precondition_failed": (entry.precondition_failed, 0)}
        if tag != "L3":  # its sides are those of a tie that rounding picks
            scale = max(abs(entry.lhs or 0.0), abs(entry.rhs or 0.0))
            out |= {f"{tag}.lhs": (entry.lhs, scale), f"{tag}.rhs": (entry.rhs, scale)}
    residual, integral = parseval_residual(seq, QUAD)
    out |= {"parseval.residual": (residual, integral.value),
            "parseval.value": _side(integral.value),
            "parseval.grid_used": (integral.grid_used, 0),
            "parseval.converged": (integral.converged, 0)}
    return out


def _assert_invariant(got, want, exact=False):
    """``got`` matches ``want`` bit for bit (``exact``), else within ``REL``
    times each number's scale; non-floats match exactly either way."""
    assert got.keys() == want.keys()
    for key, (value, scale) in want.items():
        other = got[key][0]
        if exact or not isinstance(value, float) or math.isnan(value):
            assert repr(other) == repr(value), key
        else:
            assert abs(other - value) <= REL * scale, (key, other, value)


def _cases(seed, n):
    """``n`` draws of width up to 12 and sup up to 0.9, rescaled to l1 0.4
    so that theorem1_margin applies, each at a random p; then one draw of
    the sharp-constant suite at each of its p, for theorem2_margin and the
    links L8 and L9.  Yields (seq, p, theorem2)."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield random_sequence_draw(rng, l1_target=0.4), float(rng.choice([1.1, 1.5, 1.9])), False
    for p in THEOREM2_PS:
        yield condition9_draw(rng, p, PLACEHOLDER_CC), p, True


def test_translation_by_a_multiple_of_max_grid_keeps_every_bit():
    """Offsets near 2**60, 2**62 and 2**70, both signs: the phase index
    ``(n mod M) * k mod M`` is the same on every level up to ``max_grid``,
    so every certified number keeps its bits."""
    assert all(m % MAX_GRID == 0 for m in BIG_SHIFTS)
    for i, (seq, p, theorem2) in enumerate(_cases(31, 8)):
        want = _certified(seq, p, theorem2)
        for m in BIG_SHIFTS[i % 2::2]:
            _assert_invariant(_certified(_translate(seq, m), p, theorem2), want, exact=True)


def test_translation_modulation_conjugation_rotation_move_only_rounding():
    """Random shifts within +-1000, modulation by k / 256, conjugation and
    rotation by a unit c: every certified number within 1e-13 relative of
    the untransformed one (L3 exempt under modulation)."""
    rng = np.random.default_rng(32)
    for seq, p, theorem2 in _cases(32, 40):
        want = _certified(seq, p, theorem2)
        no_l3 = {key: v for key, v in want.items() if not key.startswith("L3.")}
        moves = ((_translate(seq, int(rng.integers(-1000, 1001))), True),
                 (_modulate(seq, int(rng.integers(1, 256))), False),
                 (_conjugate(seq), True),
                 (_rotate(seq, rng.uniform(0, 2 * math.pi)), True))
        for moved, l3 in moves:
            _assert_invariant(_certified(moved, p, theorem2, l3), want if l3 else no_l3)


def test_walk_ratios_are_invariant():
    """``_WalkEvaluator.ratios`` on one block of candidates: bit for bit
    under translation by multiples of ``max_grid``, within 1e-13 relative
    under a random shift, modulation, conjugation and rotation."""
    rng = np.random.default_rng(33)
    count, e = 8, ExponentPair(1.5)
    quad = QuadratureConfig(rel_tol=1e-7)
    cands = [rng.uniform(0, 0.1, count) * np.exp(2j * np.pi * rng.uniform(size=count))
             for _ in range(4)]
    want = list(_WalkEvaluator(0, count, e, quad).ratios(cands))
    for m in BIG_SHIFTS:
        assert list(_WalkEvaluator(m, count, e, quad).ratios(cands)) == want
    k, c = 37, cmath.exp(0.7j)
    modulated = [v * np.exp(2j * np.pi * (np.arange(count) * k % 256) / 256)
                 for v in cands]
    for offset, moved in ((int(rng.integers(-1000, 1001)), cands), (0, modulated),
                          (0, [np.conj(v) for v in cands]), (0, [c * v for v in cands])):
        got = list(_WalkEvaluator(offset, count, e, quad).ratios(moved))
        assert got == pytest.approx(want, rel=REL, abs=0)
